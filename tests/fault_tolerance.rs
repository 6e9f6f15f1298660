//! Acceptance test for the fault-tolerant sampling pipeline (robustness
//! tentpole): with a quarter of all sample points deterministically
//! faulted — singular pivots, NaN contamination, silent drift, and
//! worker panics — the sweep must complete without any panic crossing a
//! library API, account for every requested shift, and produce a model
//! that matches a strict reference reduction built from the surviving
//! quadrature nodes.

use circuits::rc_mesh;
use lti::{LtiSystem, RecoveryPolicy};
use numkit::c64;
use pmtbr::pipeline::{run, RunCtx};
use pmtbr::{
    pmtbr, FaultKind, FaultPlan, PmtbrModel, PmtbrOptions, ReductionPlan, Sampling,
    SweepDiagnostics,
};

/// Runs PMTBR with `plan` injected into the sweep and returns the model
/// and the per-node account.
fn faulted_pmtbr(
    sys: &impl LtiSystem,
    opts: &PmtbrOptions,
    plan: &FaultPlan,
) -> Result<(PmtbrModel, SweepDiagnostics), numkit::NumError> {
    let ctx = RunCtx { faults: Some(plan.clone()), ..RunCtx::default() };
    let red = run(sys, &ReductionPlan::pmtbr(opts), &ctx)?;
    Ok((red.model, red.diagnostics))
}

#[test]
fn quarter_faulted_sweep_degrades_gracefully() {
    let sys = rc_mesh(5, 5, &[0, 24], 1.0, 1.0, 2.0).expect("mesh");
    let sampling = Sampling::Linear { omega_max: 30.0, n: 24 };
    let plan = FaultPlan::new(
        42,
        0.25,
        vec![FaultKind::Singular, FaultKind::Nan, FaultKind::Drift, FaultKind::Panic],
        2,
    );
    // The plan must actually fault a nontrivial share of the sweep.
    let faulted: Vec<_> = (0..24).filter_map(|i| plan.fault_for(i)).collect();
    assert!(
        (3..=12).contains(&faulted.len()),
        "expected roughly a quarter of 24 points faulted, got {faulted:?}"
    );

    let opts = PmtbrOptions::new(sampling).with_max_order(10);
    // No catch_unwind here: if a worker panic escaped the library, this
    // call would abort the test. Completing at all is part of the claim.
    let (model, diag) = faulted_pmtbr(&sys, &opts, &plan).expect("degraded sweep");

    // Every requested shift is accounted for, exactly once, in order.
    assert_eq!(diag.requested, 24);
    assert_eq!(diag.reports.len(), 24);
    for (k, rep) in diag.reports.iter().enumerate() {
        assert_eq!(rep.index, k, "reports must be index-aligned");
        if rep.outcome.is_dropped() {
            assert!(rep.error.is_some(), "drop {k} must carry its cause");
        } else {
            assert!(
                rep.residual.is_finite() && rep.residual <= 1e-10,
                "shift {k}: accepted with residual {}",
                rep.residual
            );
        }
    }
    assert_eq!(
        diag.surviving,
        diag.reports.iter().filter(|r| !r.outcome.is_dropped()).count()
    );
    // Only worker panics cost samples; every numerical fault recovers.
    let panics = (0..24).filter(|&i| plan.fault_for(i) == Some(FaultKind::Panic)).count();
    assert_eq!(diag.dropped(), panics, "{}", diag.summary());
    assert!(diag.surviving >= 12, "at least half the sweep must survive");
    if diag.dropped() > 0 {
        assert!(diag.weight_renormalization > 1.0);
    }
    // Singular injections at depth 2 exhaust refactor+refresh, so the
    // perturbation rung must have engaged for every singular fault.
    let singulars = (0..24).filter(|&i| plan.fault_for(i) == Some(FaultKind::Singular)).count();
    assert_eq!(diag.count("perturbed"), singulars, "{}", diag.summary());

    // The degraded model must match a strict reference reduction built
    // from exactly the surviving quadrature nodes (same shifts as
    // actually solved, same renormalized weights). The tolerant basis
    // records both, so rerun the (deterministic) sweep for the points.
    let (basis, diag2) =
        pmtbr::sample_basis_tolerant(&sys, opts.sampling(), &RecoveryPolicy::default(), &plan)
            .expect("deterministic rerun");
    assert_eq!(diag2.reports, diag.reports, "sweeps must be reproducible");
    assert_eq!(basis.points.len(), diag.surviving);
    let reference_opts =
        PmtbrOptions::new(Sampling::Custom(basis.points.clone())).with_max_order(10);
    let reference = pmtbr(&sys, &reference_opts).expect("strict reference on survivors");

    let grid: Vec<f64> = vec![0.0, 0.3, 1.0, 3.0, 10.0, 25.0];
    let mut scale = 0.0f64;
    for &w in &grid {
        let h = sys.transfer_function(c64::new(0.0, w)).expect("full").norm_max();
        scale = scale.max(h);
    }
    for &w in &grid {
        let s = c64::new(0.0, w);
        let h = sys.transfer_function(s).expect("full");
        let hd = model.reduced.transfer_function(s).expect("degraded");
        let hr = reference.reduced.transfer_function(s).expect("reference");
        // Degraded vs strict-on-survivors: same quadrature, so nearly
        // identical (differences only from refinement's last ulps).
        let dref = (0..h.nrows())
            .flat_map(|i| (0..h.ncols()).map(move |j| (i, j)))
            .map(|(i, j)| (hd[(i, j)] - hr[(i, j)]).abs())
            .fold(0.0f64, f64::max);
        assert!(dref < 1e-6 * scale, "w={w}: degraded vs reference {dref:.2e}");
        // Degraded vs the full system: still an accurate reduced model.
        let dfull = (0..h.nrows())
            .flat_map(|i| (0..h.ncols()).map(move |j| (i, j)))
            .map(|(i, j)| (hd[(i, j)] - h[(i, j)]).abs())
            .fold(0.0f64, f64::max);
        assert!(dfull < 1e-2 * scale, "w={w}: degraded vs full {dfull:.2e}");
    }
}

#[test]
fn faulted_sweep_is_reproducible() {
    // Same seed → bit-identical diagnostics and model, regardless of the
    // fault mix; this is what makes chaos-test failures debuggable.
    let sys = rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0).expect("mesh");
    let plan = FaultPlan::new(
        7,
        0.25,
        vec![FaultKind::Singular, FaultKind::Nan, FaultKind::Drift, FaultKind::Panic],
        2,
    );
    let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 16 }).with_max_order(8);
    let (m1, d1) = faulted_pmtbr(&sys, &opts, &plan).expect("first run");
    let (m2, d2) = faulted_pmtbr(&sys, &opts, &plan).expect("second run");
    assert_eq!(d1.reports, d2.reports);
    assert_eq!(d1.surviving, d2.surviving);
    assert_eq!(m1.order, m2.order);
    for (a, b) in m1.singular_values.iter().zip(&m2.singular_values) {
        assert_eq!(a, b, "singular values must be bit-identical");
    }
}
