//! Greedy adaptive frequency selection: accuracy at a matched solve
//! budget, deterministic selection across thread counts, and recovery
//! composition (dropped shifts re-enter selection; LU budgets truncate
//! with honest accounting).

use lti::Descriptor;
use numkit::{c64, NumError};
use pmtbr::{
    pipeline::{run, RunCtx},
    Budget, FaultKind, FaultPlan, FaultStage, OrderControl, PmtbrOptions, ReductionPlan, Sampling,
};

fn test_system() -> Descriptor {
    let ports = circuits::spread_ports(4, 6, 8);
    circuits::rc_mesh(4, 6, &ports, 1.0, 1.0, 2.0).unwrap()
}

/// In-band max relative transfer-function error on a fixed grid.
fn inband_error(sys: &Descriptor, red: &lti::StateSpace, omega_max: f64) -> f64 {
    let mut worst: f64 = 0.0;
    for k in 0..20 {
        let s = c64::new(0.0, omega_max * (k as f64 + 0.5) / 20.0);
        let h = sys.transfer_function(s).unwrap();
        let hr = red.transfer_function(s).unwrap();
        let mut num: f64 = 0.0;
        let mut den: f64 = 0.0;
        for i in 0..h.nrows() {
            for j in 0..h.ncols() {
                num += (h[(i, j)] - hr[(i, j)]).abs().powi(2);
                den += h[(i, j)].abs().powi(2);
            }
        }
        worst = worst.max((num / den.max(1e-300)).sqrt());
    }
    worst
}

fn order() -> OrderControl {
    OrderControl::Tolerance { tolerance: 1e-12, max_order: Some(6) }
}

#[test]
fn greedy_no_worse_than_fixed_grid_at_equal_solve_budget() {
    let sys = test_system();
    let omega_max = 10.0;
    let budget = 8;
    let fixed_opts = PmtbrOptions::new(Sampling::Linear { omega_max, n: budget })
        .with_tolerance(1e-12)
        .with_max_order(6);
    let fixed = run(&sys, &ReductionPlan::pmtbr(&fixed_opts), &RunCtx::default()).unwrap();
    // tol = 0 disables early stopping: exactly `budget` accepted shifts,
    // the same number of LU-backed solves the fixed grid spends. The
    // default pool is the budget's own midpoint grid, so the exhausted
    // greedy selection is the fixed grid — only accepted in
    // surrogate-score order.
    let greedy =
        run(&sys, &ReductionPlan::greedy(omega_max, 0.0, budget, order()), &RunCtx::default())
            .unwrap();
    assert_eq!(greedy.diagnostics.surviving, budget);
    assert_eq!(greedy.diagnostics.requested, budget);
    assert!(greedy.report.is_clean(), "clean run expected: {:?}", greedy.report);
    // Same column set, so the weighted-sample singular values agree to
    // roundoff (acceptance order only permutes columns, which shifts the
    // Jacobi rotation order by a few ulps).
    assert_eq!(greedy.model.singular_values.len(), fixed.model.singular_values.len());
    for (g, f) in greedy.model.singular_values.iter().zip(&fixed.model.singular_values) {
        assert!(
            (g - f).abs() <= 1e-10 * f.abs().max(1.0),
            "exhausting the default pool must reproduce the fixed grid: {g} vs {f}"
        );
    }
    let fixed_err = inband_error(&sys, &fixed.model.reduced, omega_max);
    let greedy_err = inband_error(&sys, &greedy.model.reduced, omega_max);
    assert!(
        greedy_err <= fixed_err * (1.0 + 1e-6),
        "greedy {greedy_err:.3e} must be no worse than fixed grid {fixed_err:.3e}"
    );

    // A denser pool trades quadrature uniformity for placement freedom;
    // it must still stay in the fixed grid's accuracy neighborhood.
    let mut dense = ReductionPlan::greedy(omega_max, 0.0, budget, order());
    dense.sampling =
        Sampling::Greedy { omega_max, pool: 4 * budget, tol: 0.0, max_shifts: budget };
    let dense = run(&sys, &dense, &RunCtx::default()).unwrap();
    let dense_err = inband_error(&sys, &dense.model.reduced, omega_max);
    assert!(
        dense_err <= fixed_err * 1.25,
        "dense-pool greedy {dense_err:.3e} strayed too far from fixed grid {fixed_err:.3e}"
    );
}

#[test]
fn greedy_converges_early_under_loose_tolerance() {
    let sys = test_system();
    // A loose tolerance with a generous shift budget must trigger the
    // frequency-aware stopping rule well before the budget.
    let red =
        run(&sys, &ReductionPlan::greedy(10.0, 0.05, 32, order()), &RunCtx::default()).unwrap();
    assert!(
        red.diagnostics.surviving < 32,
        "expected early convergence, used {} shifts",
        red.diagnostics.surviving
    );
    // The converged model still tracks the transfer function: at this
    // order cap the error is truncation-dominated, so a handful of
    // shifts must land within a modest factor of a generous fixed grid.
    let fixed_opts = PmtbrOptions::new(Sampling::Linear { omega_max: 10.0, n: 8 })
        .with_tolerance(1e-12)
        .with_max_order(6);
    let fixed = run(&sys, &ReductionPlan::pmtbr(&fixed_opts), &RunCtx::default()).unwrap();
    let fixed_err = inband_error(&sys, &fixed.model.reduced, 10.0);
    let greedy_err = inband_error(&sys, &red.model.reduced, 10.0);
    assert!(
        greedy_err <= fixed_err * 1.5,
        "converged greedy {greedy_err:.3e} vs fixed grid {fixed_err:.3e}"
    );
}

fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let prior = std::env::var("PMTBR_THREADS").ok();
    std::env::set_var("PMTBR_THREADS", threads.to_string());
    let out = f();
    match prior {
        Some(v) => std::env::set_var("PMTBR_THREADS", v),
        None => std::env::remove_var("PMTBR_THREADS"),
    }
    out
}

#[test]
fn greedy_selection_bit_identical_across_thread_counts() {
    let sys = test_system();
    let plan = ReductionPlan::greedy(10.0, 1e-4, 10, order());
    let run_at = |threads: usize| {
        with_threads(threads, || run(&sys, &plan, &RunCtx::default()).unwrap())
    };
    let base = run_at(1);
    let base_shifts: Vec<c64> = base.diagnostics.reports.iter().map(|r| r.s_used).collect();
    for threads in [2usize, 8] {
        let red = run_at(threads);
        let shifts: Vec<c64> = red.diagnostics.reports.iter().map(|r| r.s_used).collect();
        assert_eq!(shifts, base_shifts, "threads {threads}: selected shifts differ");
        assert_eq!(
            red.model.singular_values, base.model.singular_values,
            "threads {threads}: singular values differ"
        );
        assert_eq!(red.model.v, base.model.v, "threads {threads}: projection basis differs");
    }
}

#[test]
fn greedy_dropped_shifts_reenter_selection() {
    let sys = test_system();
    let max_shifts = 6;
    let mut plan = ReductionPlan::greedy(10.0, 0.0, max_shifts, order());
    // A pool wider than the budget leaves spare candidates, so dropped
    // shifts can be replaced instead of exhausting the pool.
    plan.sampling = Sampling::Greedy { omega_max: 10.0, pool: 24, tol: 0.0, max_shifts };
    // Injected panics at depth 2 drop whole candidates (both escalation
    // attempts are poisoned). A dropped candidate must re-enter
    // selection: the basis still reaches the full shift budget, and the
    // drops stay visible in the per-node reports.
    let faults = FaultPlan::new(7, 0.25, vec![FaultKind::Panic], 2)
        .with_stages(vec![FaultStage::Sweep]);
    let ctx = RunCtx { faults: Some(faults), ..RunCtx::default() };
    let red = run(&sys, &plan, &ctx).unwrap();
    assert!(red.diagnostics.dropped() > 0, "fault plan must actually drop shifts");
    assert_eq!(
        red.diagnostics.surviving, max_shifts,
        "dropped greedy shifts must re-enter selection, not shrink the basis"
    );
    assert_eq!(
        red.diagnostics.requested,
        max_shifts + red.diagnostics.dropped(),
        "every attempt is reported exactly once"
    );
    // Weights tile the band regardless of drops: no renormalization.
    assert_eq!(red.diagnostics.weight_renormalization, 1.0);
    assert!(red.model.singular_values.iter().all(|s| s.is_finite()));

    // Determinism under injected faults: the identical plan and fault
    // seed reproduce the run bit for bit, at any worker count.
    for threads in [1usize, 2, 8] {
        let again = with_threads(threads, || run(&sys, &plan, &ctx).unwrap());
        assert_eq!(
            again.model.singular_values, red.model.singular_values,
            "threads {threads}: singular values differ under faults"
        );
        assert_eq!(again.model.v, red.model.v, "threads {threads}: basis differs under faults");
        assert_eq!(again.diagnostics.requested, red.diagnostics.requested);
    }
}

#[test]
fn greedy_composes_with_lu_budget() {
    let sys = test_system();
    let plan = ReductionPlan::greedy(10.0, 0.0, 8, order());
    let budget = Budget::default().with_max_lu_factors(3);
    // Counters are process-global and other tests factor LUs
    // concurrently, so the effective cap may shrink below 3 — the run
    // must then still terminate with either a best-effort degraded
    // model or an explicit exhaustion error, never a hang.
    match run(&sys, &plan, &RunCtx { budget, ..RunCtx::default() }) {
        Ok(red) => {
            assert_eq!(red.report.budget_exhausted, Some("lu-factorizations"));
            assert!(red.report.is_degraded());
            assert!(red.diagnostics.surviving < 8);
            assert!(red.model.singular_values.iter().all(|s| s.is_finite()));
        }
        Err(NumError::BudgetExhausted { resource }) => {
            assert_eq!(resource, "lu-factorizations");
        }
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn greedy_plan_validation() {
    let sys = test_system();
    let try_plan = |plan: &ReductionPlan| run(&sys, plan, &RunCtx::default());
    // Degenerate parameters are rejected before any solve.
    let mut plan = ReductionPlan::greedy(10.0, 1e-3, 4, order());
    plan.sampling = Sampling::Greedy { omega_max: 10.0, pool: 2, tol: 1e-3, max_shifts: 4 };
    assert!(try_plan(&plan).is_err(), "pool < max_shifts must be rejected");
    plan.sampling = Sampling::Greedy { omega_max: 0.0, pool: 64, tol: 1e-3, max_shifts: 4 };
    assert!(try_plan(&plan).is_err(), "ω_max = 0 must be rejected");
    plan.sampling = Sampling::Greedy { omega_max: 10.0, pool: 64, tol: f64::NAN, max_shifts: 4 };
    assert!(try_plan(&plan).is_err(), "NaN tolerance must be rejected");
    // Greedy scoring needs the identity-block excitation.
    let mut plan = ReductionPlan::greedy(10.0, 1e-3, 4, order());
    plan.directions = pmtbr::InputDirections::Correlated {
        u_samples: numkit::DMat::zeros(8, 10),
        n_draws: 4,
        corr_tol: 1e-8,
        seed: 1,
    };
    assert!(try_plan(&plan).is_err(), "greedy × correlated must be rejected");
}

#[test]
fn greedy_works_two_sided() {
    let sys = test_system();
    let mut plan = ReductionPlan::greedy(10.0, 0.0, 8, OrderControl::Exact(4));
    plan.compressor = pmtbr::Compressor::Balance;
    let red = run(&sys, &plan, &RunCtx::default()).unwrap();
    assert_eq!(red.model.order, 4);
    // Exhausting the default pool must land on the fixed-grid balanced
    // reduction (same nodes, same weights, both pencils solved).
    let fixed_plan = ReductionPlan::balanced(&Sampling::Linear { omega_max: 10.0, n: 8 }, 4);
    let fixed = run(&sys, &fixed_plan, &RunCtx::default()).unwrap();
    let fixed_err = inband_error(&sys, &fixed.model.reduced, 10.0);
    let greedy_err = inband_error(&sys, &red.model.reduced, 10.0);
    assert!(
        greedy_err <= fixed_err * (1.0 + 1e-6),
        "two-sided greedy {greedy_err:.3e} vs fixed balanced {fixed_err:.3e}"
    );
}

#[test]
fn greedy_tracks_a_resonant_structure_within_its_shift_budget() {
    // Sharp resonances at unknown locations are what adaptive placement
    // is for: the surrogate must find them within the shift budget.
    let sys = circuits::peec_resonator(&circuits::PeecParams::default()).unwrap();
    let w_hi = 2.0 * std::f64::consts::PI * 20e9;
    let order = OrderControl::Tolerance { tolerance: 1e-10, max_order: None };
    let red = run(&sys, &ReductionPlan::greedy(w_hi, 1e-7, 40, order), &RunCtx::default()).unwrap();
    assert!(red.diagnostics.surviving <= 40, "shift budget exceeded");
    assert!(red.report.is_clean(), "{:?}", red.report);
    let grid = lti::linspace(w_hi * 0.01, w_hi * 0.99, 60);
    let h = lti::frequency_response(&sys, &grid).unwrap();
    let hr = lti::frequency_response(&red.model.reduced, &grid).unwrap();
    let err = lti::max_rel_error(&h, &hr);
    assert!(err < 0.05, "greedy in-band error {err:.3e}");
}
