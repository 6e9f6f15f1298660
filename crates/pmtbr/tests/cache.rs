//! Integration tests for the content-addressed artifact cache: the
//! bit-identity contract between uncached, cold-cached, and warm-cached
//! runs (models *and* traces, at several thread counts), byte-budget
//! eviction, and poisoned-entry (Degraded) rejection.
//!
//! The obs collector, counters, and `PMTBR_THREADS` are process-global,
//! so every test serializes on one mutex.

use std::sync::{Mutex, MutexGuard, OnceLock};

use obs::ClockKind;
use pmtbr::cache::{Artifact, ArtifactCache, CacheKey};
use pmtbr::pipeline::{run, RunCtx};
use pmtbr::{
    Budget, Compressor, LruCache, NullCache, PmtbrOptions, Reduction, ReductionPlan, Sampling,
};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn mesh() -> lti::Descriptor {
    circuits::rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0).unwrap()
}

/// A fault-free run context over `budget` and `cache`.
fn ctx<'a>(budget: &Budget, cache: &'a dyn ArtifactCache) -> RunCtx<'a> {
    RunCtx { faults: None, budget: budget.clone(), cache }
}

fn plan() -> ReductionPlan {
    let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 8 }).with_max_order(6);
    ReductionPlan::pmtbr(&opts)
}

/// Exact bit comparison of two reductions: every matrix entry, the
/// singular spectrum, the order, and the full report.
fn assert_bit_identical(a: &Reduction, b: &Reduction) {
    let (ra, rb) = (&a.model.reduced, &b.model.reduced);
    for (ma, mb) in
        [(&ra.a, &rb.a), (&ra.b, &rb.b), (&ra.c, &rb.c), (&ra.d, &rb.d), (&a.model.v, &b.model.v)]
    {
        assert_eq!(ma.shape(), mb.shape());
        for i in 0..ma.nrows() {
            for j in 0..ma.ncols() {
                assert_eq!(ma[(i, j)].to_bits(), mb[(i, j)].to_bits(), "entry ({i},{j})");
            }
        }
    }
    let sa: Vec<u64> = a.model.singular_values.iter().map(|v| v.to_bits()).collect();
    let sb: Vec<u64> = b.model.singular_values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(sa, sb);
    assert_eq!(a.model.order, b.model.order);
    assert_eq!(a.report, b.report);
}

/// Runs `f` with a fresh trace collector installed and returns its
/// result plus the serialized trace.
fn traced<T>(f: impl FnOnce() -> T) -> (T, String) {
    assert!(obs::install(ClockKind::Counter));
    let out = f();
    let trace = obs::drain().expect("trace installed").to_jsonl();
    (out, trace)
}

/// Event lines that are not cache bookkeeping: the work-event slice the
/// replay contract pins byte-for-byte.
fn work_lines(trace: &str) -> Vec<&str> {
    trace
        .lines()
        .filter(|l| l.contains("\"span\":\"") && !l.contains("\"span\":\"cache_"))
        .collect()
}

#[test]
fn cached_and_uncached_runs_are_bit_identical_across_threads() {
    let _g = lock();
    let sys = mesh();
    let plan = plan();
    let budget = Budget::default();
    for threads in ["1", "2", "8"] {
        std::env::set_var("PMTBR_THREADS", threads);
        let (baseline, baseline_trace) =
            traced(|| run(&sys, &plan, &ctx(&budget, &NullCache)).expect("uncached run"));

        // Cold run through a real cache: byte-identical to the uncached
        // run — same model, same report, same trace, same counters line.
        let cache = LruCache::new(64 << 20);
        let (cold, cold_trace) =
            traced(|| run(&sys, &plan, &ctx(&budget, &cache)).expect("cold run"));
        assert_bit_identical(&baseline, &cold);
        assert_eq!(baseline_trace, cold_trace, "cold-cached trace must equal uncached trace");

        // Warm run: the model is bit-identical and the replayed work
        // events are byte-identical; only the cache_lookup outcome and
        // the counters line may differ.
        let (warm, warm_trace) =
            traced(|| run(&sys, &plan, &ctx(&budget, &cache)).expect("warm run"));
        assert_bit_identical(&baseline, &warm);
        assert_eq!(work_lines(&cold_trace), work_lines(&warm_trace));
        assert!(warm_trace.contains("\"outcome\":\"hit\""));
    }
    std::env::remove_var("PMTBR_THREADS");
}

#[test]
fn warm_hits_skip_the_sweep_entirely() {
    let _g = lock();
    let sys = mesh();
    let plan = plan();
    let budget = Budget::default();
    let cache = LruCache::new(64 << 20);
    run(&sys, &plan, &ctx(&budget, &cache)).expect("cold run");
    let lu_before = obs::counters::get(obs::Counter::LuFactor);
    let hits_before = obs::counters::get(obs::Counter::CacheHit);
    let warm = run(&sys, &plan, &ctx(&budget, &cache)).expect("warm run");
    assert_eq!(obs::counters::get(obs::Counter::LuFactor), lu_before, "no new factorizations");
    assert_eq!(obs::counters::get(obs::Counter::CacheHit), hits_before + 1);
    assert!(warm.report.is_clean());
}

#[test]
fn plans_sharing_a_sweep_hit_the_sweep_artifact() {
    let _g = lock();
    let sys = mesh();
    let budget = Budget::default();
    let cache = LruCache::new(64 << 20);
    run(&sys, &plan(), &ctx(&budget, &cache)).expect("cold run");

    // Same sampling and directions, different compressor: the model key
    // misses but the sweep key hits, so no new LU work is spent.
    let mut alt = plan();
    alt.compressor = Compressor::Incremental;
    let lu_before = obs::counters::get(obs::Counter::LuFactor);
    let via_cache = run(&sys, &alt, &ctx(&budget, &cache)).expect("sweep-hit run");
    assert_eq!(obs::counters::get(obs::Counter::LuFactor), lu_before, "sweep was reused");

    // And the model it produces is bit-identical to a from-scratch run
    // of the same plan.
    let from_scratch = run(&sys, &alt, &ctx(&budget, &NullCache)).expect("scratch run");
    assert_bit_identical(&from_scratch, &via_cache);
}

#[test]
fn tiny_byte_budgets_evict_deterministically() {
    let _g = lock();
    let sys = mesh();
    let budget = Budget::default();
    // Big enough for one run's artifacts, not two runs' worth.
    let one_run = {
        let probe = LruCache::new(usize::MAX >> 1);
        run(&sys, &plan(), &ctx(&budget, &probe)).expect("probe run");
        probe.stats().1
    };
    let cache = LruCache::new(one_run + one_run / 4);
    let evicted_before = obs::counters::get(obs::Counter::CacheEvict);
    run(&sys, &plan(), &ctx(&budget, &cache)).expect("first plan");
    // A different node count is a different sweep key, so a second full
    // sweep artifact is offered and the budget must evict.
    let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 9 }).with_max_order(6);
    run(&sys, &ReductionPlan::pmtbr(&opts), &ctx(&budget, &cache)).expect("second plan");
    let (entries, bytes) = cache.stats();
    assert!(bytes <= cache.budget_bytes(), "byte budget holds after eviction");
    assert!(entries < 4, "older artifacts were evicted, not accumulated");
    assert!(
        obs::counters::get(obs::Counter::CacheEvict) > evicted_before,
        "evictions are counted"
    );
}

#[test]
fn degraded_results_are_never_cached() {
    let _g = lock();
    let sys = mesh();
    // A one-factorization budget truncates the sweep: the result is
    // Degraded and must be rejected by the admission policy.
    let budget = Budget::default().with_max_lu_factors(1);
    let cache = LruCache::new(64 << 20);
    let red = run(&sys, &plan(), &ctx(&budget, &cache)).expect("degraded run");
    assert!(red.report.is_degraded());
    assert_eq!(cache.stats(), (0, 0), "no poisoned entries admitted");
    // The degraded report names the stage that consumed the budget.
    assert!(red.report.notes.iter().any(|n| n.contains("sweep")), "notes: {:?}", red.report.notes);
}

#[test]
fn sparsekit_artifacts_round_trip_through_the_cache() {
    let _g = lock();
    let sys = mesh();
    let pencil = lti::LtiSystem::pencil_hash(&sys).expect("descriptor has a pencil hash");
    let shift = numkit::c64::new(0.0, 1.5);
    let lu = sys.factor_shifted(shift).expect("factor");
    let bytes = lu.to_bytes();
    let cache = LruCache::new(1 << 20);
    cache.put(CacheKey::factor(pencil, shift), Artifact::Factor(bytes.clone().into()));
    match cache.get(&CacheKey::factor(pencil, shift)) {
        Some(Artifact::Factor(stored)) => assert_eq!(*stored, bytes),
        other => panic!("expected a factor artifact, got {other:?}"),
    }
    // A one-ulp shift perturbation is a different key.
    let nudged = numkit::c64::new(0.0, 1.5 + f64::EPSILON);
    assert!(cache.get(&CacheKey::factor(pencil, nudged)).is_none());
}
