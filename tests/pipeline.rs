//! End-to-end integration tests: netlist → MNA → reduction → validation,
//! exercising every crate boundary in one flow.

use std::sync::Mutex;

use circuits::{rc_mesh, spread_ports, Netlist};
use lti::{frequency_response, linspace, tbr};
use numkit::c64;
use pmtbr::cache::{Artifact, ArtifactCache, ArtifactKind, CacheKey};
use pmtbr::pipeline::{run, RunCtx};
use pmtbr::{
    pmtbr, sample_basis, FaultKind, FaultPlan, FaultStage, LruCache, PmtbrOptions, Reduction,
    ReductionPlan, Sampling, StageOutcome,
};

/// Build a custom netlist, reduce it with PMTBR, and verify the reduced
/// model against the full transfer function over a sweep.
#[test]
fn netlist_to_reduced_model_roundtrip() {
    let mut nl = Netlist::new();
    // A two-port RC ladder with a bridging capacitor.
    for k in 1..=6 {
        nl.resistor(k, k + 1, 0.5 + 0.1 * k as f64);
        nl.capacitor(k, 0, 1.0 + 0.2 * k as f64);
    }
    nl.capacitor(7, 0, 2.0);
    nl.capacitor(2, 5, 0.3);
    nl.resistor(1, 0, 2.0);
    nl.resistor(7, 0, 3.0);
    nl.port(1);
    nl.port(7);
    let sys = nl.build().expect("valid netlist");
    assert_eq!(sys.nstates(), 7);

    // The ladder's Hankel values decay slowly (σ₅/σ₀ ≈ 2e-3): six of the
    // seven states carry significant energy.
    let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 10.0, n: 12 }).with_max_order(6);
    let model = pmtbr(&sys, &opts).expect("reduction succeeds");
    assert!(model.order <= 6);

    let grid = linspace(0.0, 5.0, 30);
    let h_full = frequency_response(&sys, &grid).expect("full sweep");
    let h_red = frequency_response(&model.reduced, &grid).expect("reduced sweep");
    // Absolute error relative to the response scale (pointwise relative
    // error is meaningless where the RC ladder response rolls off to ~0).
    let scale = h_full.h.iter().map(|m| m.norm_max()).fold(0.0, f64::max);
    let err = lti::max_abs_error(&h_full, &h_red) / scale;
    assert!(err < 1e-2, "order-6 model of a 7-state RC ladder must be accurate, got {err:.2e}");
}

/// The PMTBR singular-value spectrum must approximate the Hankel
/// spectrum of the same system (the paper's central claim).
#[test]
fn pmtbr_spectrum_tracks_hankel_spectrum() {
    let ports = spread_ports(5, 5, 2);
    let sys = rc_mesh(5, 5, &ports, 1.0, 1.0, 2.0).expect("mesh");
    let ss = sys.to_state_space().expect("invertible E");
    let hsv = lti::hankel_singular_values(&ss).expect("hankel");
    let basis = sample_basis(&sys, &Sampling::Log { omega_min: 1e-2, omega_max: 50.0, n: 40 })
        .expect("sampling");
    let est = basis.singular_values();
    // The sampled spectrum reflects a *finite-band* Gramian, so exact
    // agreement is not expected (paper Section IV-B); require the decay
    // trends to stay within two orders of magnitude over the leading
    // values.
    for k in 1..6 {
        let exact = hsv[k] / hsv[0];
        let approx = est[k] / est[0];
        assert!(
            approx < exact * 100.0 + 1e-14 && exact < approx * 100.0 + 1e-14,
            "index {k}: exact {exact:.2e} vs pmtbr {approx:.2e} differ by more than 100x"
        );
    }
}

/// Reducing the descriptor directly and reducing its explicit
/// state-space conversion must give models with the same transfer
/// function (the projected subspaces coincide).
#[test]
fn descriptor_and_state_space_reductions_agree() {
    let ports = spread_ports(4, 4, 2);
    let sys = rc_mesh(4, 4, &ports, 1.0, 1.0, 2.0).expect("mesh");
    let _ss = sys.to_state_space().expect("invertible E");
    let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 10.0, n: 12 }).with_max_order(8);
    let m_desc = pmtbr(&sys, &opts).expect("descriptor reduction");
    // Note: the state-space samples (jwI − A')⁻¹B' equal E⁻¹-weighted
    // descriptor samples only up to the E inner product, so compare
    // transfer functions (which are invariant), not bases.
    for &w in &[0.0, 0.7, 3.0] {
        let s = c64::new(0.0, w);
        let h_full = sys.transfer_function(s).expect("full");
        let h_red = m_desc.reduced.transfer_function(s).expect("reduced");
        let rel = (&h_full - &h_red).norm_max() / h_full.norm_max();
        assert!(rel < 1e-2, "w={w}: relative error {rel}");
    }
}

/// Full-order PMTBR must reproduce the original system exactly (the
/// projection becomes a similarity transform).
#[test]
fn full_order_reduction_is_exact() {
    let sys = rc_mesh(3, 3, &[0, 8], 1.0, 1.0, 2.0).expect("mesh");
    let n = sys.nstates();
    let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 2 * n })
        .with_max_order(n)
        .with_tolerance(1e-14);
    let m = pmtbr(&sys, &opts).expect("reduction");
    // The default tolerance would already have truncated below n: only
    // directions carrying sample energy survive. With a 1e-14 tolerance
    // the model keeps (numerically) everything the band excites, so the
    // in-band transfer function is reproduced to solver precision.
    assert!(m.order >= 6, "most of the space must be kept, got {}", m.order);
    for &w in &[0.0, 1.0, 10.0] {
        let s = c64::new(0.0, w);
        let h = sys.transfer_function(s).expect("full");
        let hr = m.reduced.transfer_function(s).expect("reduced");
        assert!(
            (&h - &hr).norm_max() < 1e-6 * h.norm_max().max(1e-12),
            "w={w}: {:.2e}",
            (&h - &hr).norm_max()
        );
    }
}

/// TBR's error bound must hold for PMTBR-equivalent orders on symmetric
/// systems — and PMTBR at the same order must not be wildly worse.
#[test]
fn pmtbr_competitive_with_tbr_on_symmetric_system() {
    let ports = spread_ports(5, 5, 3);
    let sys = rc_mesh(5, 5, &ports, 1.0, 1.0, 2.0).expect("mesh");
    let ss = sys.to_state_space().expect("invertible E");
    let order = 6;
    let exact = tbr(&ss, order).expect("tbr");
    let m = pmtbr(
        &sys,
        &PmtbrOptions::new(Sampling::Log { omega_min: 1e-2, omega_max: 50.0, n: 30 })
            .with_max_order(order),
    )
    .expect("pmtbr");
    let grid = linspace(0.0, 20.0, 40);
    let h = frequency_response(&sys, &grid).expect("full");
    let e_tbr = {
        let hr = frequency_response(&exact.reduced, &grid).expect("tbr sweep");
        lti::max_abs_error(&h, &hr)
    };
    let e_pm = {
        let hr = frequency_response(&m.reduced, &grid).expect("pmtbr sweep");
        lti::max_abs_error(&h, &hr)
    };
    // TBR's bound holds for TBR...
    assert!(e_tbr <= exact.error_bound * (1.0 + 1e-6) + 1e-12);
    // ...and PMTBR is within a modest factor of the bound too.
    assert!(
        e_pm <= 10.0 * exact.error_bound + 1e-12,
        "pmtbr error {e_pm:.3e} vs tbr bound {:.3e}",
        exact.error_bound
    );
}

/// An [`LruCache`] that records every lookup's key and outcome.
struct RecordingCache {
    inner: LruCache,
    lookups: Mutex<Vec<(CacheKey, bool)>>,
}

impl RecordingCache {
    fn lookups(&self) -> Vec<(CacheKey, bool)> {
        self.lookups.lock().expect("lookup log").clone()
    }
}

impl ArtifactCache for RecordingCache {
    fn get(&self, key: &CacheKey) -> Option<Artifact> {
        let found = self.inner.get(key);
        self.lookups.lock().expect("lookup log").push((*key, found.is_some()));
        found
    }

    fn put(&self, key: CacheKey, value: Artifact) {
        self.inner.put(key, value);
    }

    fn stats(&self) -> (usize, usize) {
        self.inner.stats()
    }
}

/// Every bit of the reduced model and its spectrum.
fn model_bits(red: &Reduction) -> Vec<u64> {
    let m = &red.model;
    let mut bits: Vec<u64> = m.singular_values.iter().map(|v| v.to_bits()).collect();
    for mat in [&m.reduced.a, &m.reduced.b, &m.reduced.c, &m.reduced.d, &m.v] {
        for i in 0..mat.nrows() {
            for j in 0..mat.ncols() {
                bits.push(mat[(i, j)].to_bits());
            }
        }
    }
    bits
}

/// The cache key covers the fault plan a run actually used: a faulted
/// result that the compressor ladder recovered from is admitted (it is
/// not degraded), yet a fault-free run of the same plan must never be
/// served that model.
#[test]
fn faulted_results_never_serve_fault_free_runs() {
    let sys = rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0).expect("mesh");
    let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 10 }).with_max_order(4);
    let plan = ReductionPlan::pmtbr(&opts);
    let drift = |seed: u64| {
        FaultPlan::new(seed, 1.0, vec![FaultKind::Drift], 2)
            .with_stages(vec![FaultStage::Compress])
    };
    let cache = RecordingCache { inner: LruCache::new(64 << 20), lookups: Mutex::new(Vec::new()) };
    let faulted_ctx = |seed: u64| RunCtx { faults: Some(drift(seed)), ..RunCtx::default() };

    let ctx = RunCtx { cache: &cache, ..faulted_ctx(11) };
    let faulted = run(&sys, &plan, &ctx).expect("faulted run");
    assert_eq!(faulted.report.compress, StageOutcome::Recovered);
    assert!(!faulted.report.is_degraded(), "a recovered result is admissible");
    assert!(cache.stats().0 > 0, "the recovered result was admitted");

    let seen = cache.lookups().len();
    let clean = run(&sys, &plan, &RunCtx { cache: &cache, ..RunCtx::default() }).expect("clean");
    let clean_lookups = &cache.lookups()[seen..];
    assert!(!clean_lookups.is_empty());
    assert!(
        clean_lookups.iter().all(|(_, hit)| !hit),
        "a fault-free run must miss the faulted entries: {clean_lookups:?}"
    );
    let reference = run(&sys, &plan, &RunCtx::default()).expect("reference");
    assert!(clean.report.is_clean(), "{:?}", clean.report);
    assert_eq!(clean.report, reference.report);
    assert_eq!(model_bits(&clean), model_bits(&reference));

    // Two different fault plans are two different model keys, and both
    // differ from the fault-free key.
    run(&sys, &plan, &RunCtx { cache: &cache, ..faulted_ctx(12) }).expect("second plan");
    let mut model_keys: Vec<CacheKey> = cache
        .lookups()
        .iter()
        .filter(|(key, _)| key.kind == ArtifactKind::Model)
        .map(|(key, _)| *key)
        .collect();
    assert_eq!(model_keys.len(), 3);
    model_keys.sort();
    model_keys.dedup();
    assert_eq!(model_keys.len(), 3, "each fault plan has its own model key");
}
