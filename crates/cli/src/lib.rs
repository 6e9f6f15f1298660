//! Declarative method registry for `pmtbr-cli reduce`.
//!
//! Every reduction algorithm the CLI can run is one [`Method`] entry in
//! [`METHODS`]: a name, a one-line summary, whether `--order` is
//! mandatory, and a runner from `(system, request)` to a reduced model
//! plus report lines. The binary's `reduce` dispatch, its usage text,
//! and its unknown-method error are all derived from this table, so the
//! three can never drift apart again — adding a variant here is the
//! whole job.
//!
//! The PMTBR-family entries are thin [`pmtbr::ReductionPlan`]
//! constructors executed by [`pmtbr::pipeline::run`], which means every
//! method inherits the tolerant parallel sweep: an injected fault plan
//! ([`ReduceRequest::faults`], from `PMTBR_FAULT` via
//! [`fault_plan_from_env`]) degrades the quadrature instead of
//! erroring, `--threads` pins the worker count, `--trace` records the
//! sweep, and the returned [`SweepDiagnostics`] drive the binary's
//! exit-code policy uniformly.
//! The Krylov and dense-TBR baselines carry no sweep diagnostics
//! (`diagnostics: None`) and are always strict.

use lti::{Descriptor, StateSpace};
use numkit::c64;
use pmtbr::{
    ArtifactCache, Budget, FaultPlan, InputCorrelatedOptions, PipelineReport, PmtbrOptions,
    ReductionPlan, RunCtx, Sampling, SweepDiagnostics,
};

mod policy;
mod service;

pub use policy::{evaluate_acceptance, summarize_pipeline, summarize_sweep, Acceptance, Verdict};
pub use service::{handle_job, mat_to_wire, wire_to_mat};

/// Reads the chaos-testing fault plan from the `PMTBR_FAULT`
/// environment variable (grammar: [`FaultPlan::parse_spec`]). This is
/// the only place the variable is read; the library takes the plan as
/// [`RunCtx::faults`].
///
/// # Errors
///
/// `Ok(None)` when the variable is unset, empty, `off`, or `0`; `Err`
/// with the parse error for a malformed spec — a bad spec must never
/// run silently unfaulted.
pub fn fault_plan_from_env() -> Result<Option<FaultPlan>, String> {
    match std::env::var("PMTBR_FAULT") {
        Ok(spec) => FaultPlan::parse_spec(&spec),
        Err(_) => Ok(None),
    }
}

/// What `reduce` collected from the command line; method runners read
/// only the fields they use.
#[derive(Debug, Clone)]
pub struct ReduceRequest {
    /// Upper band edge in rad/s (`--band`, converted from Hz).
    pub omega_max: f64,
    /// Frequency bands in rad/s (`--bands`, default `[(0, omega_max)]`);
    /// only the frequency-selective method reads more than the default.
    pub bands: Vec<(f64, f64)>,
    /// Number of quadrature nodes (`--samples`).
    pub samples: usize,
    /// Relative singular-value truncation tolerance (`--tol`).
    pub tol: f64,
    /// Requested reduced order (`--order`); methods with
    /// [`Method::needs_order`] refuse to run without it, the others
    /// treat it as a cap.
    pub order: Option<usize>,
    /// Deterministic work budget (`--budget-*` flags); only the
    /// pipeline-backed methods enforce it, the strict baselines ignore
    /// it.
    pub budget: Budget,
    /// Greedy-sampling convergence tolerance (`--greedy-tol`; `0`
    /// disables early stopping). Only the `greedy` method reads it.
    pub greedy_tol: f64,
    /// Greedy-sampling hard shift budget (`--greedy-max-shifts`;
    /// defaults to `--samples`). Only the `greedy` method reads it.
    pub greedy_max_shifts: Option<usize>,
    /// Deterministic fault injection (`PMTBR_FAULT`, read by
    /// [`fault_plan_from_env`]); only the pipeline-backed methods
    /// inject it, the strict baselines ignore it.
    pub faults: Option<FaultPlan>,
}

impl ReduceRequest {
    /// A request over `[0, omega_max]` with the CLI's defaults.
    pub fn new(omega_max: f64, samples: usize) -> Self {
        ReduceRequest {
            omega_max,
            bands: vec![(0.0, omega_max)],
            samples,
            tol: 1e-8,
            order: None,
            budget: Budget::default(),
            greedy_tol: 1e-3,
            greedy_max_shifts: None,
            faults: None,
        }
    }

    fn sampling(&self) -> Sampling {
        Sampling::Linear { omega_max: self.omega_max, n: self.samples }
    }

    fn pmtbr_options(&self) -> PmtbrOptions {
        let mut opts = PmtbrOptions::new(self.sampling()).with_tolerance(self.tol);
        if let Some(q) = self.order {
            opts = opts.with_max_order(q);
        }
        opts
    }

    fn order_required(&self, name: &str) -> Result<usize, String> {
        self.order.ok_or_else(|| format!("{name} requires --order"))
    }
}

/// A reduced model plus everything the CLI prints about it.
#[derive(Debug)]
pub struct MethodOutput {
    /// The reduced state-space model (dumped as A/B/C and cross-checked
    /// by `--check`).
    pub reduced: StateSpace,
    /// Report lines for stdout, starting with `method: <label>`.
    pub report: Vec<String>,
    /// Sweep accounting for pipeline-backed methods; `None` for strict
    /// baselines. Drives the degraded/rejected exit-code policy.
    pub diagnostics: Option<SweepDiagnostics>,
    /// Per-stage fault-containment outcomes for pipeline-backed
    /// methods; `None` for strict baselines. A non-clean report is
    /// echoed to stderr and budget exhaustion maps to its own exit
    /// code.
    pub pipeline: Option<PipelineReport>,
}

/// One `reduce --method` entry.
pub struct Method {
    /// The `--method` spelling.
    pub name: &'static str,
    /// One-line description for the usage text.
    pub summary: &'static str,
    /// Whether `--order` is mandatory (`false` ⇒ tolerance-driven with
    /// `--order` as an optional cap).
    pub needs_order: bool,
    /// Builds the reduced model.
    pub run: fn(&Descriptor, &ReduceRequest, &dyn ArtifactCache) -> Result<MethodOutput, String>,
}

/// Report lines shared by every pipeline-backed method.
fn pipeline_report(label: &str, red: &pmtbr::Reduction) -> Vec<String> {
    let m = &red.model;
    let diag = &red.diagnostics;
    let mut lines = vec![
        format!("method: {label}"),
        format!("order: {}", m.order),
        format!("error_estimate: {:.6e}", m.error_estimate),
        format!("samples_surviving: {}/{}", diag.surviving, diag.requested),
        "singular_values:".to_string(),
    ];
    for (i, s) in m.singular_values.iter().take(m.order + 5).enumerate() {
        lines.push(format!("  sigma_{i}: {s:.6e}"));
    }
    lines
}

fn run_plan(
    sys: &Descriptor,
    plan: &ReductionPlan,
    req: &ReduceRequest,
    cache: &dyn ArtifactCache,
    label: &str,
) -> Result<MethodOutput, String> {
    let ctx = RunCtx { faults: req.faults.clone(), budget: req.budget.clone(), cache };
    let red = pmtbr::pipeline::run(sys, plan, &ctx).map_err(|e| e.to_string())?;
    Ok(MethodOutput {
        report: pipeline_report(label, &red),
        reduced: red.model.reduced.clone(),
        diagnostics: Some(red.diagnostics),
        pipeline: Some(red.report),
    })
}

fn run_pmtbr(sys: &Descriptor, req: &ReduceRequest, cache: &dyn ArtifactCache) -> Result<MethodOutput, String> {
    run_plan(sys, &ReductionPlan::pmtbr(&req.pmtbr_options()), req, cache, "pmtbr")
}

fn run_balanced(sys: &Descriptor, req: &ReduceRequest, cache: &dyn ArtifactCache) -> Result<MethodOutput, String> {
    let q = req.order_required("balanced")?;
    run_plan(sys, &ReductionPlan::balanced(&req.sampling(), q), req, cache, "balanced-pmtbr")
}

fn run_cross(sys: &Descriptor, req: &ReduceRequest, cache: &dyn ArtifactCache) -> Result<MethodOutput, String> {
    let q = req.order_required("cross")?;
    run_plan(sys, &ReductionPlan::cross_gramian(&req.sampling(), q), req, cache, "cross-gramian-pmtbr")
}

fn run_fsel(sys: &Descriptor, req: &ReduceRequest, cache: &dyn ArtifactCache) -> Result<MethodOutput, String> {
    let plan = ReductionPlan::frequency_selective(&req.bands, req.samples, req.order, req.tol);
    run_plan(sys, &plan, req, cache, "frequency-selective-pmtbr")
}

fn run_greedy(sys: &Descriptor, req: &ReduceRequest, cache: &dyn ArtifactCache) -> Result<MethodOutput, String> {
    let max_shifts = req.greedy_max_shifts.unwrap_or(req.samples).max(1);
    let order = pmtbr::OrderControl::Tolerance { tolerance: req.tol, max_order: req.order };
    let plan = ReductionPlan::greedy(req.omega_max, req.greedy_tol, max_shifts, order);
    run_plan(sys, &plan, req, cache, "greedy-pmtbr")
}

fn run_correlated(sys: &Descriptor, req: &ReduceRequest, cache: &dyn ArtifactCache) -> Result<MethodOutput, String> {
    // No waveform file flows through the CLI yet, so train on the
    // deterministic dithered-square ensemble the paper's transient
    // experiments use, time-scaled to the requested band.
    let h = 2.5 / req.omega_max;
    let u = lti::dithered_square_inputs(sys.ninputs(), 200, h, 80.0 * h, 0.1, 1);
    let mut opts = InputCorrelatedOptions::new(req.sampling());
    opts.tolerance = req.tol;
    opts.max_order = req.order;
    opts.n_draws = (2 * req.samples).max(8);
    run_plan(
        sys,
        &ReductionPlan::input_correlated(&u, &opts),
        req,
        cache,
        "input-correlated-pmtbr",
    )
}

fn run_prima(sys: &Descriptor, req: &ReduceRequest, _cache: &dyn ArtifactCache) -> Result<MethodOutput, String> {
    let q = req.order_required("prima")?;
    let m = krylov::prima(sys, q, 0.0).map_err(|e| e.to_string())?;
    Ok(MethodOutput {
        report: vec![
            "method: prima".to_string(),
            format!("order: {}", m.reduced.nstates()),
        ],
        reduced: m.reduced,
        diagnostics: None,
        pipeline: None,
    })
}

fn run_mpproj(sys: &Descriptor, req: &ReduceRequest, _cache: &dyn ArtifactCache) -> Result<MethodOutput, String> {
    let q = req.order_required("mpproj")?;
    let pts: Vec<c64> = req
        .sampling()
        .points()
        .map_err(|e| e.to_string())?
        .iter()
        .map(|p| p.s)
        .collect();
    let m = krylov::mpproj(sys, &pts, q).map_err(|e| e.to_string())?;
    Ok(MethodOutput {
        report: vec![
            "method: mpproj".to_string(),
            format!("order: {}", m.reduced.nstates()),
        ],
        reduced: m.reduced,
        diagnostics: None,
        pipeline: None,
    })
}

fn run_tbr_family(
    sys: &Descriptor,
    req: &ReduceRequest,
    name: &'static str,
) -> Result<MethodOutput, String> {
    let q = req.order_required(name)?;
    let ss = sys
        .to_state_space()
        .map_err(|e| format!("{name} needs an invertible E matrix: {e}"))?;
    let m = match name {
        "tbr" => lti::tbr(&ss, q),
        "tbr-res" => lti::tbr_residualized(&ss, q),
        _ => lti::frequency_limited_tbr(&ss, req.omega_max, q),
    }
    .map_err(|e| e.to_string())?;
    Ok(MethodOutput {
        report: vec![
            format!("method: {name}"),
            format!("order: {}", m.reduced.nstates()),
            format!("error_bound: {:.6e}", m.error_bound),
        ],
        reduced: m.reduced,
        diagnostics: None,
        pipeline: None,
    })
}

fn run_tbr(sys: &Descriptor, req: &ReduceRequest, _cache: &dyn ArtifactCache) -> Result<MethodOutput, String> {
    run_tbr_family(sys, req, "tbr")
}

fn run_tbr_res(sys: &Descriptor, req: &ReduceRequest, _cache: &dyn ArtifactCache) -> Result<MethodOutput, String> {
    run_tbr_family(sys, req, "tbr-res")
}

fn run_fltbr(sys: &Descriptor, req: &ReduceRequest, _cache: &dyn ArtifactCache) -> Result<MethodOutput, String> {
    run_tbr_family(sys, req, "fltbr")
}

/// Every reduction method `pmtbr-cli reduce` can run, in display order.
pub const METHODS: &[Method] = &[
    Method {
        name: "pmtbr",
        summary: "multipoint sampling + SVD truncation (paper Algorithm 1)",
        needs_order: false,
        run: run_pmtbr,
    },
    Method {
        name: "balanced",
        summary: "two-sided square-root balancing of sampled Gramians",
        needs_order: true,
        run: run_balanced,
    },
    Method {
        name: "cross",
        summary: "sampled cross-Gramian eigenprojection (paper Section V-D)",
        needs_order: true,
        run: run_cross,
    },
    Method {
        name: "fsel",
        summary: "frequency-selective quadrature over --bands (paper Algorithm 2)",
        needs_order: false,
        run: run_fsel,
    },
    Method {
        name: "greedy",
        summary: "greedy adaptive shift placement with convergence stopping (docs/SAMPLING.md)",
        needs_order: false,
        run: run_greedy,
    },
    Method {
        name: "correlated",
        summary: "input-correlated stochastic sampling (paper Algorithm 3)",
        needs_order: false,
        run: run_correlated,
    },
    Method {
        name: "prima",
        summary: "passive block Krylov moment matching (baseline)",
        needs_order: true,
        run: run_prima,
    },
    Method {
        name: "mpproj",
        summary: "multipoint rational Krylov projection (baseline)",
        needs_order: true,
        run: run_mpproj,
    },
    Method {
        name: "tbr",
        summary: "exact dense balanced truncation (baseline)",
        needs_order: true,
        run: run_tbr,
    },
    Method {
        name: "tbr-res",
        summary: "balanced truncation with DC residualization (baseline)",
        needs_order: true,
        run: run_tbr_res,
    },
    Method {
        name: "fltbr",
        summary: "frequency-limited balanced truncation (baseline)",
        needs_order: true,
        run: run_fltbr,
    },
];

/// Looks a method up by its `--method` spelling.
pub fn find(name: &str) -> Option<&'static Method> {
    METHODS.iter().find(|m| m.name == name)
}

/// The `|`-joined method names, for usage text and error messages.
pub fn method_list() -> String {
    METHODS.iter().map(|m| m.name).collect::<Vec<_>>().join("|")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        for (i, m) in METHODS.iter().enumerate() {
            assert!(find(m.name).is_some());
            assert!(
                METHODS.iter().skip(i + 1).all(|o| o.name != m.name),
                "duplicate method name {}",
                m.name
            );
        }
        assert!(find("no-such-method").is_none());
    }

    #[test]
    fn method_list_is_pipe_joined() {
        let list = method_list();
        assert!(list.starts_with("pmtbr|"));
        assert_eq!(list.matches('|').count(), METHODS.len() - 1);
    }

    #[test]
    fn order_gate_is_enforced_per_entry() {
        let sys = circuits::rc_mesh(2, 2, &[0], 1.0, 1.0, 2.0).expect("mesh");
        let req = ReduceRequest::new(10.0, 8);
        for m in METHODS.iter().filter(|m| m.needs_order) {
            let err = (m.run)(&sys, &req, &pmtbr::NullCache).expect_err("must demand --order");
            assert!(err.contains("requires --order"), "{}: {err}", m.name);
        }
    }
}
