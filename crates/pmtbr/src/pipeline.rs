//! The unified reduction pipeline: every PMTBR variant as one staged
//! [`ReductionPlan`].
//!
//! The paper's three algorithms and this repo's extensions are the
//! *same* computation with different stage choices:
//!
//! ```text
//!  SamplingPlan          InputDirections        execution engine         Compressor
//!  (nodes + weights)     (what to excite)       (tolerant sweep)         (how to truncate)
//!  ───────────────┐      ───────────────┐      ─────────────────┐      ───────────────┐
//!  Linear / Log   │      IdentityBlock  │      solve (sE−A)Z=R  │      JacobiSvd      │
//!  Bands          ├──▶   Correlated     ├──▶   via ladder +     ├──▶   Incremental    ├──▶ congruence
//!  Custom         │      (corr-SVD      │      ShiftSolveEngine │      Balance        │    projection
//!                 │       draws)        │      (+ transpose for │      CrossGramian   │
//!  ───────────────┘      ───────────────┘       two-sided)      │      ───────────────┘
//!                                              ─────────────────┘
//! ```
//!
//! Mapping of the paper's algorithms onto plans:
//!
//! - **Algorithm 1** (baseline PMTBR): any one-band sampling +
//!   `IdentityBlock` + `JacobiSvd` — [`ReductionPlan::pmtbr`].
//! - **Algorithm 2** (frequency-selective): band-restricted sampling,
//!   otherwise identical — [`ReductionPlan::frequency_selective`].
//! - **Algorithm 3** (input-correlated): stochastic correlation-SVD
//!   draws as input directions — [`ReductionPlan::input_correlated`].
//! - **Section V-D extensions** (two-sided): the same sweep run on both
//!   pencils, compressed by square-root balancing
//!   ([`ReductionPlan::balanced`]) or the joint cross-Gramian
//!   eigenproblem ([`ReductionPlan::cross_gramian`]).
//!
//! There is exactly one way to execute a plan, [`run`], and everything
//! besides the system and the plan arrives in its [`RunCtx`]: the
//! [`FaultPlan`] (chaos testing), the [`Budget`], and the
//! [`ArtifactCache`]. The library reads no environment variable for
//! any of them. Every variant therefore inherits the same guarantees:
//! the parallel factorization-reusing `ShiftSolveEngine`, the
//! fault-tolerance escalation ladders with [`SweepDiagnostics`] and
//! [`PipelineReport`], deterministic work budgets with cooperative
//! cancellation, content-addressed caching, `obs` tracing, and
//! bit-identical results at any thread count.
//!
//! ## Fault containment beyond the sweep
//!
//! The sweep stage has always degraded gracefully (its per-shift
//! escalation ladder drops nodes instead of aborting). [`run`]
//! extends the same discipline to the other two stages:
//!
//! - **compress** escalates through a deterministic ladder — plain SVD
//!   → raised sweep cap → column equilibration → direct
//!   (unpreconditioned) Jacobi — and, when the ladder is exhausted,
//!   *downgrades*: the eig-based [`Compressor::CrossGramian`] and the
//!   two-sided [`Compressor::Balance`] fall back to a one-sided
//!   spectral compression of the controllability samples, and any
//!   spectral failure falls back to the SVD-free
//!   [`Compressor::Incremental`] basis. Every rung is traced as a
//!   `rung` event and every downgrade is recorded in the report.
//! - **project** retries injected faults (chaos testing) and records
//!   its outcome; real projection errors still fail the run.
//!
//! Worker panics anywhere inside a rung are contained by the same
//! `catch_unwind` discipline `lti::tolerant` uses for shift solves and
//! surface as [`NumError::WorkerPanicked`] escalations, never as an
//! aborted process.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lti::{
    input_correlation_svd, realified_ncols, realify_columns_into, LtiSystem, NoFaults,
    RecoveryPolicy, ShiftOutcome, ShiftReport, SolveFault, StateSpace, TolerantSweep,
};
use numkit::{
    c64, eig, svd_left_with_opts, svd_with_opts, DMat, LeftSvd, Lu, NumError, SplitMix64, Svd,
    SvdOptions, ZMat,
};

use crate::algorithm::{equilibrated_svd, equilibrated_svd_left};
use crate::budget::BudgetTracker;
use crate::cache::{ArtifactCache, NullCache};
use crate::fault::{FaultPlan, FaultStage};
use crate::{
    Budget, IncrementalBasis, InputCorrelatedOptions, PmtbrModel, PmtbrOptions, SamplePoint,
    Sampling, SweepDiagnostics,
};

/// What to excite at each sample node (the paper's `B·d` choice).
#[derive(Debug, Clone)]
pub enum InputDirections {
    /// The full input block `B` — one column per port (Algorithms 1–2).
    IdentityBlock,
    /// Stochastic draws from the empirical input correlation
    /// (Algorithm 3): directions `B·V_K·r`, `r ~ N(0, diag(S_K²/N))`,
    /// assigned to sample nodes by cycling in draw order.
    Correlated {
        /// Observed `p × N` input waveform samples.
        u_samples: DMat,
        /// Number of stochastic draws (columns before compression).
        n_draws: usize,
        /// Correlation directions with `S_K < corr_tol·S_K[0]` are dropped.
        corr_tol: f64,
        /// RNG seed (runs are deterministic given the seed).
        seed: u64,
    },
}

/// How the (weighted, realified) sample matrix is truncated into a
/// projection basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compressor {
    /// One-shot SVD of the stacked sample matrix (with the equilibrated
    /// convergence safety net) — the paper's default.
    JacobiSvd,
    /// Incremental Gram–Schmidt QR with `R`-factor singular-value
    /// estimates ([`IncrementalBasis`], paper Section V-C): same
    /// subspace, no full re-SVD per block.
    Incremental,
    /// Two-sided square-root balancing: SVD of `Z_Lᵀ·Z_R` with
    /// `1/√σ`-scaled projectors (`WᵀV = I`).
    Balance,
    /// Two-sided cross-Gramian eigenproblem compressed through a joint
    /// orthonormal basis of `[Z_R | Z_L]` (paper Section V-D).
    CrossGramian,
}

impl Compressor {
    /// Whether this compressor needs observability-side samples
    /// (`(sE − A)⁻ᵀ·Cᵀ`) in addition to controllability-side ones.
    pub fn is_two_sided(&self) -> bool {
        matches!(self, Compressor::Balance | Compressor::CrossGramian)
    }
}

/// How the reduced order is chosen from the compressed spectrum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OrderControl {
    /// Keep directions with `σᵢ > tolerance·σ₀`, optionally capped.
    Tolerance {
        /// Relative singular-value truncation tolerance.
        tolerance: f64,
        /// Optional hard cap on the reduced order.
        max_order: Option<usize>,
    },
    /// Exactly this order (two-sided variants; errors if the sampled
    /// subspace cannot support it).
    Exact(usize),
}

/// A complete, declarative description of one reduction: sampling
/// nodes/weights, input directions, compressor, and order control.
/// Execute with [`run`].
///
/// ```
/// use pmtbr::{pipeline::{run, RunCtx}, PmtbrOptions, ReductionPlan, Sampling};
///
/// # fn main() -> Result<(), numkit::NumError> {
/// let sys = circuits::rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0)?;
/// let opts =
///     PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 12 }).with_max_order(6);
/// let red = run(&sys, &ReductionPlan::pmtbr(&opts), &RunCtx::default())?;
/// assert!(red.model.order <= 6);
/// assert!(red.report.is_clean());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReductionPlan {
    /// Quadrature nodes and weights (the `SamplingPlan` stage).
    pub sampling: Sampling,
    /// Excitation per node.
    pub directions: InputDirections,
    /// Truncation backend.
    pub compressor: Compressor,
    /// Order selection.
    pub order: OrderControl,
}

impl ReductionPlan {
    /// Algorithm 1: baseline PMTBR under [`PmtbrOptions`].
    pub fn pmtbr(opts: &PmtbrOptions) -> Self {
        ReductionPlan {
            sampling: opts.sampling().clone(),
            directions: InputDirections::IdentityBlock,
            compressor: Compressor::JacobiSvd,
            order: OrderControl::Tolerance {
                tolerance: opts.tolerance(),
                max_order: opts.max_order(),
            },
        }
    }

    /// Algorithm 2: band-restricted sampling, otherwise Algorithm 1.
    pub fn frequency_selective(
        bands: &[(f64, f64)],
        n_samples: usize,
        max_order: Option<usize>,
        tolerance: f64,
    ) -> Self {
        ReductionPlan {
            sampling: Sampling::Bands { bands: bands.to_vec(), n: n_samples },
            directions: InputDirections::IdentityBlock,
            compressor: Compressor::JacobiSvd,
            order: OrderControl::Tolerance { tolerance, max_order },
        }
    }

    /// Algorithm 3: stochastic input-correlated sampling.
    pub fn input_correlated(u_samples: &DMat, opts: &InputCorrelatedOptions) -> Self {
        ReductionPlan {
            sampling: opts.sampling.clone(),
            directions: InputDirections::Correlated {
                u_samples: u_samples.clone(),
                n_draws: opts.n_draws,
                corr_tol: opts.corr_tol,
                seed: opts.seed,
            },
            compressor: Compressor::JacobiSvd,
            order: OrderControl::Tolerance {
                tolerance: opts.tolerance,
                max_order: opts.max_order,
            },
        }
    }

    /// Two-sided square-root balancing at a fixed order.
    pub fn balanced(sampling: &Sampling, order: usize) -> Self {
        ReductionPlan {
            sampling: sampling.clone(),
            directions: InputDirections::IdentityBlock,
            compressor: Compressor::Balance,
            order: OrderControl::Exact(order),
        }
    }

    /// Two-sided cross-Gramian reduction at a fixed order.
    pub fn cross_gramian(sampling: &Sampling, order: usize) -> Self {
        ReductionPlan {
            sampling: sampling.clone(),
            directions: InputDirections::IdentityBlock,
            compressor: Compressor::CrossGramian,
            order: OrderControl::Exact(order),
        }
    }

    /// Greedy adaptive frequency selection over `[0, omega_max]` (see
    /// `docs/SAMPLING.md`): shifts are placed one at a time where the
    /// projected-model residual surrogate is largest, stopping at the
    /// frequency-aware convergence tolerance `tol` (`0` disables early
    /// stopping) or after `max_shifts` LU-backed solves. The candidate
    /// pool defaults to the shift budget's own midpoint grid — greedy
    /// orders the fixed grid best-first and the stopping rule decides
    /// how much of it to spend, so `tol = 0` reproduces
    /// `Sampling::Linear { n: max_shifts }` exactly. Set
    /// [`ReductionPlan::sampling`] directly for a denser off-grid pool.
    ///
    /// ```
    /// use pmtbr::{pipeline::{run, RunCtx}, OrderControl, ReductionPlan};
    ///
    /// # fn main() -> Result<(), numkit::NumError> {
    /// let sys = circuits::rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0)?;
    /// // At most 6 solves, stopping early once the surrogate or the
    /// // reduced transfer function has converged below 1e-4.
    /// let order = OrderControl::Tolerance { tolerance: 1e-8, max_order: Some(6) };
    /// let red = run(&sys, &ReductionPlan::greedy(20.0, 1e-4, 6, order), &RunCtx::default())?;
    /// assert!(red.diagnostics.surviving <= 6);
    /// # Ok(())
    /// # }
    /// ```
    pub fn greedy(omega_max: f64, tol: f64, max_shifts: usize, order: OrderControl) -> Self {
        ReductionPlan {
            sampling: Sampling::Greedy { omega_max, pool: max_shifts, tol, max_shifts },
            directions: InputDirections::IdentityBlock,
            compressor: Compressor::JacobiSvd,
            order,
        }
    }

    /// Swaps the compression backend (e.g. [`Compressor::Incremental`]).
    #[must_use]
    pub fn with_compressor(mut self, compressor: Compressor) -> Self {
        self.compressor = compressor;
        self
    }

    /// Cheap structural validation, run before any solve.
    fn validate(&self) -> Result<(), NumError> {
        if let OrderControl::Exact(q) = self.order {
            if q == 0 {
                return Err(NumError::InvalidArgument("reduction order must be at least 1"));
            }
        }
        if self.compressor == Compressor::CrossGramian
            && !matches!(self.order, OrderControl::Exact(_))
        {
            return Err(NumError::InvalidArgument(
                "cross-gramian compression needs an exact target order",
            ));
        }
        if let InputDirections::Correlated { n_draws, .. } = &self.directions {
            if *n_draws == 0 {
                return Err(NumError::InvalidArgument("need at least one draw"));
            }
        }
        if let Sampling::Greedy { omega_max, pool, tol, max_shifts } = &self.sampling {
            if !(*omega_max > 0.0) {
                return Err(NumError::InvalidArgument("greedy sampling needs ω_max > 0"));
            }
            if *max_shifts == 0 || pool < max_shifts {
                return Err(NumError::InvalidArgument(
                    "greedy sampling needs 1 <= max_shifts <= pool",
                ));
            }
            if !tol.is_finite() || *tol < 0.0 {
                return Err(NumError::InvalidArgument(
                    "greedy tolerance must be finite and >= 0",
                ));
            }
            if matches!(self.directions, InputDirections::Correlated { .. }) {
                return Err(NumError::InvalidArgument(
                    "greedy sampling supports identity-block input directions only",
                ));
            }
        }
        Ok(())
    }
}

/// How one pipeline stage ultimately resolved, in increasing severity.
///
/// The derived `Ord` follows severity, so `a.max(b)` is "the worse of
/// the two" — which is how [`PipelineReport::worst`] folds stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum StageOutcome {
    /// First attempt succeeded with no recovery work.
    #[default]
    Clean,
    /// The stage succeeded after its recovery ladder escalated (raised
    /// caps, equilibration, refinement, perturbation, retried injected
    /// faults) without losing accuracy guarantees.
    Recovered,
    /// The stage completed best-effort with a recorded accuracy
    /// concession: dropped sample nodes, a downgraded compressor, or a
    /// budget truncation.
    Degraded,
    /// The stage could not produce a result; the run errored.
    Failed,
}

impl StageOutcome {
    /// Short lower-case label (`"clean"`, `"recovered"`, `"degraded"`,
    /// `"failed"`) used in traces and CLI reports.
    pub fn label(&self) -> &'static str {
        match self {
            StageOutcome::Clean => "clean",
            StageOutcome::Recovered => "recovered",
            StageOutcome::Degraded => "degraded",
            StageOutcome::Failed => "failed",
        }
    }
}

/// Structured per-stage account of one pipeline run: what each stage's
/// recovery ladder had to do, whether the compressor was downgraded,
/// and whether a work budget ran dry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineReport {
    /// Outcome of the sampling sweep stage.
    pub sweep: StageOutcome,
    /// Outcome of the compression stage.
    pub compress: StageOutcome,
    /// Outcome of the projection stage.
    pub project: StageOutcome,
    /// `true` when the compressor fell back to a lower-accuracy scheme
    /// (two-sided → one-sided spectral, or spectral → incremental QR).
    pub compressor_downgraded: bool,
    /// The budgeted resource that ran out (`"lu-factorizations"`,
    /// `"svd-sweeps"`, `"sample-bytes"`), if any.
    pub budget_exhausted: Option<&'static str>,
    /// Human-readable notes explaining each recovery and downgrade.
    pub notes: Vec<String>,
}

impl PipelineReport {
    /// The worst stage outcome of the run.
    pub fn worst(&self) -> StageOutcome {
        self.sweep.max(self.compress).max(self.project)
    }

    /// `true` when every stage was clean and no budget ran out.
    pub fn is_clean(&self) -> bool {
        self.worst() == StageOutcome::Clean
            && !self.compressor_downgraded
            && self.budget_exhausted.is_none()
    }

    /// `true` when the model carries a recorded accuracy concession
    /// (dropped nodes, downgraded compressor, or exhausted budget).
    pub fn is_degraded(&self) -> bool {
        self.worst() >= StageOutcome::Degraded
            || self.compressor_downgraded
            || self.budget_exhausted.is_some()
    }
}

/// The result of executing a [`ReductionPlan`]: the reduced model plus
/// the complete per-node account of the tolerant sweep and the
/// per-stage pipeline report.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// The reduced model and spectra.
    pub model: PmtbrModel,
    /// The fate of every sample node, including weight renormalization.
    pub diagnostics: SweepDiagnostics,
    /// Per-stage outcomes, downgrades, and budget accounting.
    pub report: PipelineReport,
}

/// Everything a run takes besides the system and the plan: the fault
/// plan (chaos testing), the deterministic work budget, and the
/// artifact cache consulted at stage boundaries.
///
/// [`RunCtx::default`] is a plain run: no faults, an unlimited budget,
/// and [`NullCache`](crate::cache::NullCache). Nothing here is read
/// from the environment; the CLI parses `PMTBR_FAULT` at its edge and
/// passes the plan in.
pub struct RunCtx<'a> {
    /// Deterministic fault injection (`None` = no faults). A plan from
    /// [`FaultPlan::new`] targets the sweep only; see
    /// [`FaultPlan::with_stages`].
    pub faults: Option<FaultPlan>,
    /// Work caps and the cooperative cancellation token.
    pub budget: Budget,
    /// Where finished models and sweeps are looked up and offered.
    pub cache: &'a dyn ArtifactCache,
}

impl Default for RunCtx<'_> {
    fn default() -> Self {
        RunCtx { faults: None, budget: Budget::default(), cache: &NullCache }
    }
}

/// Executes a plan: sweep → compress → project, under the faults,
/// budget, and cache of `ctx`. This is the one way to run a
/// [`ReductionPlan`]; the paper-facing functions ([`crate::pmtbr`],
/// [`crate::balanced_pmtbr`], …) call it with [`RunCtx::default`].
///
/// All shifted solves go through the tolerant multipoint sweep
/// ([`LtiSystem::solve_shifted_many_tolerant`] and friends), so sparse
/// systems get the factorization-reusing parallel engine; failures
/// degrade the quadrature instead of aborting it; compression and
/// projection failures escalate through deterministic recovery ladders
/// (see the module docs); and the whole run is traced under the
/// `pmtbr.sample_sweep` / `pmtbr.compress` / `pmtbr.project` spans with
/// per-stage outcomes.
///
/// The budget's caps are enforced off the deterministic `obs` counters
/// (never wall clock): the sweep attempts at most the remaining
/// LU-factorization cap's worth of nodes, the compressor ladder clamps
/// its sweep caps to the remaining SVD budget, and exhaustion yields a
/// best-effort [`StageOutcome::Degraded`] model with the resource
/// recorded in [`PipelineReport::budget_exhausted`]. The budget's
/// [`numkit::CancelToken`] is polled at stage boundaries and once per
/// sweep shift.
///
/// # Cache
///
/// The lookup ladder is keyed on [`LtiSystem::pencil_hash`] plus a
/// digest of the plan, `ctx.faults`, and the budget caps:
///
/// 1. **Model hit** — the finished [`Reduction`] is returned and the
///    trace events captured by the computing run are replayed
///    byte-for-byte ([`obs::replay`]); the whole pipeline is skipped.
/// 2. **Sweep hit** — the realified sample matrix is reused and the run
///    skips straight to compress/project, so plans differing only in
///    compressor or order control share the expensive LU sweep.
/// 3. **Miss** — the full pipeline runs and its artifacts are offered
///    for admission.
///
/// [`NullCache`](crate::cache::NullCache) makes every lookup miss, so
/// cached and uncached runs execute the identical code path and are
/// byte-identical — model, report, trace, and counters. A Degraded
/// result is never admitted (see [`crate::cache`] for the full identity
/// contract). A system without a pencil hash is never looked up.
///
/// # Errors
///
/// - Plan validation ([`NumError::InvalidArgument`]).
/// - [`NumError::InvalidArgument`] if every node was dropped, all
///   weighted samples vanished, or the sampled subspace cannot support
///   an exact-order request.
/// - [`NumError::BudgetExhausted`] when a budget leaves room for no
///   work at all (e.g. zero remaining LU factorizations before the
///   sweep).
/// - [`NumError::Cancelled`] when the budget's token is raised, even on
///   a cache hit.
/// - Propagates unrecoverable SVD/eigen/projection errors (after the
///   compressor ladder and fallbacks are exhausted).
///
/// ```
/// use pmtbr::pipeline::{run, RunCtx};
/// use pmtbr::{Budget, PmtbrOptions, ReductionPlan, Sampling, StageOutcome};
///
/// # fn main() -> Result<(), numkit::NumError> {
/// let sys = circuits::rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0)?;
/// let opts =
///     PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 10 }).with_max_order(4);
/// let ctx = RunCtx {
///     budget: Budget::default().with_max_lu_factors(1_000),
///     ..RunCtx::default()
/// };
/// let red = run(&sys, &ReductionPlan::pmtbr(&opts), &ctx)?;
/// assert_eq!(red.report.worst(), StageOutcome::Clean);
/// assert!(red.report.budget_exhausted.is_none());
/// # Ok(())
/// # }
/// ```
pub fn run<S: LtiSystem + ?Sized>(
    sys: &S,
    plan: &ReductionPlan,
    ctx: &RunCtx,
) -> Result<Reduction, NumError> {
    use crate::cache::{self, Artifact, CacheKey, CachedReduction};

    plan.validate()?;
    let tracker = BudgetTracker::start(&ctx.budget);
    tracker.check_cancelled()?;
    let faults = ctx.faults.as_ref();
    // A system without a content address cannot be cached; run the
    // identical core directly (no lookup spans: there is no key to
    // look up, and the omission is deterministic per system type).
    let Some(pencil) = sys.pencil_hash() else {
        return run_core(sys, plan, faults, &tracker, None, false).map(|(reduction, _)| reduction);
    };
    let fault_word = cache::fault_digest(faults);
    let traced = obs::is_enabled();

    let model_key = CacheKey::model(pencil, cache::model_digest(plan, fault_word, &ctx.budget));
    if let Some(Artifact::Model(entry)) = ctx.cache.get(&model_key) {
        // An entry captured without a trace cannot serve a traced run:
        // replaying nothing would silently drop the pipeline spans, so
        // the lookup deterministically degrades to a miss.
        if entry.traced || !traced {
            cache::record_lookup(&model_key, true);
            if traced {
                obs::skip_seq_roots(entry.seq_watermark);
                obs::replay(&entry.events);
            }
            return Ok(entry.reduction.clone());
        }
    }
    cache::record_lookup(&model_key, false);

    let sweep_key = CacheKey::sweep(pencil, cache::sweep_digest(plan, fault_word, &ctx.budget));
    let warm_sweep = match ctx.cache.get(&sweep_key) {
        Some(Artifact::Sweep(s)) => {
            cache::record_lookup(&sweep_key, true);
            Some(s)
        }
        _ => {
            cache::record_lookup(&sweep_key, false);
            None
        }
    };

    // Capture the work events from here: a warm model hit replays
    // exactly this slice (its own `cache_lookup` spans are emitted
    // live, before the mark).
    let mark = obs::flushed_len();
    let (reduction, sweep_artifact) =
        run_core(sys, plan, faults, &tracker, warm_sweep.as_deref(), true)?;
    if let Some(sw) = sweep_artifact {
        cache::record_offer(ctx.cache, sweep_key, Artifact::Sweep(std::sync::Arc::new(sw)));
    }
    // Poisoned-entry rejection: a Degraded result encodes this run's
    // fault/budget history and is never admitted.
    if !reduction.report.is_degraded() {
        // A run assembled from a cached sweep has no sweep span to
        // capture, so its model entry is stored unfaithful (usable only
        // by untraced runs).
        let faithful = traced && warm_sweep.is_none();
        let events = if faithful { obs::capture_since(mark) } else { Vec::new() };
        let entry = CachedReduction {
            reduction: reduction.clone(),
            seq_watermark: obs::seq_watermark(&events),
            events,
            traced: faithful,
        };
        cache::record_offer(ctx.cache, model_key, Artifact::Model(std::sync::Arc::new(entry)));
    }
    Ok(reduction)
}

/// The stage core: sweep (live, or replayed from a cached artifact) →
/// compress → project. Returns the reduction plus, when requested and
/// eligible, the sweep artifact for cache admission.
fn run_core<S: LtiSystem + ?Sized>(
    sys: &S,
    plan: &ReductionPlan,
    faults: Option<&FaultPlan>,
    tracker: &BudgetTracker,
    warm_sweep: Option<&crate::cache::CachedSweep>,
    want_sweep_artifact: bool,
) -> Result<(Reduction, Option<crate::cache::CachedSweep>), NumError> {
    let mut report = PipelineReport::default();
    // The budget's cancellation token is the one cancellation source:
    // threading it into the sweep policy stops every stage.
    let policy = RecoveryPolicy { cancel: tracker.cancel().cloned(), ..RecoveryPolicy::default() };
    let solve_faults: &dyn SolveFault = match faults {
        Some(plan) => plan,
        None => &NoFaults,
    };
    let mut sweep_span: Option<obs::SpanGuard> = None;
    let mut budget_truncated = 0;
    let cold: Option<crate::cache::CachedSweep> = if warm_sweep.is_some() {
        None
    } else {
        let SweptSamples {
            kept: _,
            zmat,
            blocks,
            zl,
            reports,
            requested,
            surviving,
            renorm,
            budget_truncated: truncated,
            span,
        } = sweep(
            sys,
            &plan.sampling,
            &plan.directions,
            plan.compressor.is_two_sided(),
            &policy,
            solve_faults,
            tracker.node_cap(),
        )?;
        sweep_span = Some(span);
        budget_truncated = truncated;
        Some(crate::cache::CachedSweep { zmat, blocks, zl, reports, requested, surviving, renorm })
    };
    let data = match (cold.as_ref(), warm_sweep) {
        (Some(s), _) => s,
        (None, Some(s)) => s,
        (None, None) => return Err(NumError::InvalidArgument("pipeline: no sweep source")),
    };
    // Which stage consumed the budget (satellite of the budget report:
    // exhaustion names its stage in the notes and the trace).
    let mut budget_stage: Option<&'static str> = None;
    if budget_truncated > 0 {
        report.budget_exhausted = Some("lu-factorizations");
        budget_stage = Some("sweep");
        report.notes.push(format!(
            "lu-factorization budget truncated the sweep: {budget_truncated} of {requested} \
             nodes were never attempted",
            requested = data.requested,
        ));
    }
    report.sweep = sweep_outcome(&data.reports);
    if report.budget_exhausted.is_none() {
        if let Some(resource) = tracker.exhausted() {
            report.budget_exhausted = Some(resource);
            budget_stage = Some("sweep");
        }
    }
    tracker.check_cancelled()?;
    let compressed =
        compress(&data.zmat, &data.blocks, data.zl.as_ref(), plan, faults, tracker, &mut report)?;
    let svd_retried = compressed.retried();
    if budget_stage.is_none()
        && (report.budget_exhausted.is_some() || tracker.exhausted().is_some())
    {
        if report.budget_exhausted.is_none() {
            report.budget_exhausted = tracker.exhausted();
        }
        budget_stage = Some("compress");
    }
    if let Some(span) = sweep_span.as_mut() {
        span.field_u64("surviving", data.surviving as u64);
        span.field_u64("total_cols", data.zmat.ncols() as u64);
        span.field_f64("renorm", data.renorm);
        span.field("svd_retried", obs::Value::Bool(svd_retried));
        span.field_str("outcome", report.sweep.label());
    }
    drop(sweep_span);
    tracker.check_cancelled()?;
    let model =
        project(sys, &data.zmat, data.zl.as_ref(), compressed, &plan.order, faults, &mut report)?;
    if budget_stage.is_none() {
        if let Some(resource) = tracker.exhausted() {
            report.budget_exhausted = Some(resource);
            budget_stage = Some("project");
        }
    }
    if let (Some(resource), Some(stage)) = (report.budget_exhausted, budget_stage) {
        report.notes.push(format!("{resource} budget exhausted in the {stage} stage"));
        let mut bsp = obs::span("pmtbr.budget_exhausted");
        bsp.field_str("resource", resource);
        bsp.field_str("stage", stage);
    }
    let diagnostics = SweepDiagnostics {
        reports: data.reports.clone(),
        requested: data.requested,
        surviving: data.surviving,
        weight_renormalization: data.renorm,
        svd_retried,
    };
    let reduction = Reduction { model, diagnostics, report };
    // A sweep is poisoned for reuse if the budget truncated or
    // otherwise ran out during it, or any node was dropped.
    let sweep_artifact = if want_sweep_artifact
        && budget_truncated == 0
        && budget_stage != Some("sweep")
        && reduction.report.sweep != StageOutcome::Degraded
    {
        cold
    } else {
        None
    };
    Ok((reduction, sweep_artifact))
}

/// Folds per-shift reports into the sweep stage's outcome: dropped
/// nodes degrade the quadrature; refinement/perturbation acceptances
/// are recoveries; reuse/refactor/refresh are the clean paths.
fn sweep_outcome(reports: &[ShiftReport]) -> StageOutcome {
    let mut outcome = StageOutcome::Clean;
    for r in reports {
        let this = match r.outcome {
            ShiftOutcome::Reused | ShiftOutcome::Refactored | ShiftOutcome::Refreshed => {
                StageOutcome::Clean
            }
            ShiftOutcome::Refined | ShiftOutcome::Perturbed { .. } => StageOutcome::Recovered,
            ShiftOutcome::Dropped => StageOutcome::Degraded,
        };
        outcome = outcome.max(this);
    }
    outcome
}

/// The sampled, weighted, realified output of the sweep stage, with the
/// trace span still open so compression lands inside it.
pub(crate) struct SweptSamples {
    /// Surviving nodes: the shift *actually solved* (perturbed where the
    /// ladder had to nudge) with its renormalized weight.
    pub(crate) kept: Vec<SamplePoint>,
    /// Weighted realified controllability samples, one block per
    /// surviving node.
    pub(crate) zmat: DMat,
    /// Column range of each surviving node's block in `zmat`.
    pub(crate) blocks: Vec<(usize, usize)>,
    /// Weighted realified observability samples (two-sided sweeps only).
    pub(crate) zl: Option<DMat>,
    /// Per-node ladder reports, index-aligned with the requested nodes.
    pub(crate) reports: Vec<ShiftReport>,
    /// Number of nodes requested.
    pub(crate) requested: usize,
    /// Number of nodes that survived (on every required side).
    pub(crate) surviving: usize,
    /// Uniform quadrature-weight renormalization factor.
    pub(crate) renorm: f64,
    /// Nodes never attempted because the LU-factorization budget ran
    /// out (they are reported as dropped with
    /// [`NumError::BudgetExhausted`]).
    pub(crate) budget_truncated: usize,
    /// The open `pmtbr.sample_sweep` span.
    pub(crate) span: obs::SpanGuard,
}

/// Per-node excitations for the sweep.
enum Excitation {
    Shared(ZMat),
    PerNode(Vec<ZMat>),
}

/// Resolves [`InputDirections::Correlated`] into active nodes and their
/// per-node excitations, reproducing Algorithm 3's draw order exactly:
/// all Gaussian draws are taken in draw order (seed-stable), then
/// assigned to nodes by cycling `draw % n_nodes`.
fn correlated_rhs<S: LtiSystem + ?Sized>(
    sys: &S,
    points: &[SamplePoint],
    u_samples: &DMat,
    n_draws: usize,
    corr_tol: f64,
    seed: u64,
) -> Result<(Vec<SamplePoint>, Vec<ZMat>), NumError> {
    let p = sys.ninputs();
    if u_samples.nrows() != p {
        return Err(NumError::ShapeMismatch {
            operation: "input-correlated waveforms",
            left: (p, 0),
            right: u_samples.shape(),
        });
    }
    if points.is_empty() {
        return Err(NumError::InvalidArgument("sampling produced no points"));
    }
    // Empirical correlation 𝒰 = V_K·S_K·U_Kᵀ.
    let corr = input_correlation_svd(u_samples)?;
    let k_dirs = corr.rank(corr_tol).max(1);
    let nsamp = u_samples.ncols().max(1) as f64;
    // Standard deviations of the principal input coordinates.
    let sigmas: Vec<f64> = corr.s[..k_dirs].iter().map(|s| s / nsamp.sqrt()).collect();
    let vk = corr.u.leading_cols(k_dirs); // p × k

    let mut rng = SplitMix64::new(seed);
    let n = sys.nstates();
    let bmat = sys.input_matrix();
    let mut rhs_cols: Vec<Vec<f64>> = Vec::with_capacity(n_draws);
    for _ in 0..n_draws {
        // r ~ N(0, diag(σ²)) via Box–Muller.
        let dir: Vec<f64> = (0..k_dirs).map(|i| rng.next_gaussian() * sigmas[i]).collect();
        // rhs = B·(V_K·r), one column per draw.
        let vkr = vk.mul_vec(&dir);
        rhs_cols.push(bmat.mul_vec(&vkr));
    }
    let mut active: Vec<SamplePoint> = Vec::with_capacity(points.len());
    let mut rhss: Vec<ZMat> = Vec::with_capacity(points.len());
    for (k, pt) in points.iter().enumerate() {
        let mine: Vec<usize> = (0..n_draws).filter(|d| d % points.len() == k).collect();
        if mine.is_empty() {
            continue;
        }
        let rhs =
            ZMat::from_fn(n, mine.len(), |i, j| numkit::c64::from_real(rhs_cols[mine[j]][i]));
        active.push(*pt);
        rhss.push(rhs);
    }
    Ok((active, rhss))
}

/// The sweep stage: resolve directions, run the tolerant engine sweep
/// (both pencils for two-sided compressors), coordinate survivors,
/// renormalize quadrature weights, and realify into the sample matrix.
///
/// `node_cap` is the LU-factorization budget's a-priori node limit:
/// only the first `node_cap` nodes are attempted; the rest are
/// reported as dropped with [`NumError::BudgetExhausted`] and
/// renormalization spreads their quadrature weight over the survivors
/// (best-effort degradation instead of an open-ended run).
pub(crate) fn sweep<S: LtiSystem + ?Sized>(
    sys: &S,
    sampling: &Sampling,
    directions: &InputDirections,
    two_sided: bool,
    policy: &RecoveryPolicy,
    faults: &dyn SolveFault,
    node_cap: Option<usize>,
) -> Result<SweptSamples, NumError> {
    // Greedy sampling has no a-priori node list: the greedy driver
    // interleaves surrogate scoring with tolerant solves and builds the
    // swept samples itself (see `crate::greedy`).
    if let Sampling::Greedy { omega_max, pool, tol, max_shifts } = sampling {
        if !matches!(directions, InputDirections::IdentityBlock) {
            return Err(NumError::InvalidArgument(
                "greedy sampling supports identity-block input directions only",
            ));
        }
        return crate::greedy::greedy_sweep(
            sys, *omega_max, *pool, *tol, *max_shifts, two_sided, policy, faults, node_cap,
        );
    }
    let points = sampling.points()?;
    let (active, excitation) = match directions {
        InputDirections::IdentityBlock => {
            (points, Excitation::Shared(sys.input_matrix().to_complex()))
        }
        InputDirections::Correlated { u_samples, n_draws, corr_tol, seed } => {
            let (active, rhss) =
                correlated_rhs(sys, &points, u_samples, *n_draws, *corr_tol, *seed)?;
            (active, Excitation::PerNode(rhss))
        }
    };
    let cap = node_cap.unwrap_or(usize::MAX);
    if cap == 0 {
        return Err(NumError::BudgetExhausted { resource: "lu-factorizations" });
    }
    let attempted = active.len().min(cap);
    let excitation = match excitation {
        Excitation::PerNode(mut rhss) => {
            rhss.truncate(attempted);
            Excitation::PerNode(rhss)
        }
        shared => shared,
    };
    let mut sp = obs::span("pmtbr.sample_sweep");
    sp.field_u64("requested", active.len() as u64);
    let shifts: Vec<c64> = active[..attempted].iter().map(|p| p.s).collect();
    // Two-sided sweeps with a shared excitation go through the
    // factorization-sharing ladder: one LU per shift serves both the
    // forward and the transposed solve. Per-node excitations keep the
    // split sweeps (the pairs ladder has its own rhs per index).
    let (fwd, trans): (TolerantSweep, Option<TolerantSweep>) = match (&excitation, two_sided) {
        (Excitation::Shared(b), true) => {
            let ct = sys.output_matrix().adjoint().to_complex();
            let (f, t) = sys.solve_shifted_two_sided_tolerant(&shifts, b, &ct, policy, faults);
            (f, Some(t))
        }
        (Excitation::Shared(b), false) => {
            (sys.solve_shifted_many_tolerant(&shifts, b, policy, faults), None)
        }
        (Excitation::PerNode(rhss), _) => {
            let f = sys.solve_shifted_pairs_tolerant(&shifts, rhss, policy, faults)?;
            let t = if two_sided {
                let ct = sys.output_matrix().adjoint().to_complex();
                Some(sys.solve_shifted_transpose_many_tolerant(&shifts, &ct, policy, faults))
            } else {
                None
            };
            (f, t)
        }
    };
    debug_assert_eq!(fwd.reports.len(), attempted);
    // A node survives only if every required side solved; the report is
    // the forward one unless only the transpose side dropped.
    let requested = active.len();
    let mut reports: Vec<ShiftReport> = Vec::with_capacity(requested);
    let mut alive: Vec<bool> = Vec::with_capacity(requested);
    for k in 0..attempted {
        let f_ok = fwd.solutions[k].is_some();
        let t_ok = trans.as_ref().is_none_or(|t| t.solutions[k].is_some());
        alive.push(f_ok && t_ok);
        let rep = match &trans {
            Some(t) if f_ok && !t_ok => t.reports[k].clone(),
            _ => fwd.reports[k].clone(),
        };
        reports.push(rep);
    }
    // Nodes beyond the LU budget were never attempted: account for them
    // as budget-dropped so renormalization spreads their weight.
    for (off, pt) in active[attempted..].iter().enumerate() {
        obs::counters::add(obs::Counter::ShiftDropped, 1);
        reports.push(ShiftReport::dropped(
            attempted + off,
            pt.s,
            Some(NumError::BudgetExhausted { resource: "lu-factorizations" }),
        ));
        alive.push(false);
    }
    let surviving = alive.iter().filter(|&&a| a).count();
    if surviving == 0 {
        return Err(NumError::InvalidArgument(
            "every sample point was dropped by the fault-tolerance ladder",
        ));
    }
    let total_weight: f64 = active.iter().map(|p| p.weight).sum();
    let surviving_weight: f64 = active
        .iter()
        .zip(&alive)
        .filter(|(_, &a)| a)
        .map(|(p, _)| p.weight)
        .sum();
    let renorm = if surviving_weight > 0.0 { total_weight / surviving_weight } else { 1.0 };

    // Weighted surviving columns, at the shifts actually solved.
    let mut kept: Vec<SamplePoint> = Vec::with_capacity(surviving);
    let mut weighted: Vec<ZMat> = Vec::with_capacity(surviving);
    let mut weighted_l: Vec<ZMat> = Vec::with_capacity(if two_sided { surviving } else { 0 });
    for k in 0..requested {
        if !alive[k] {
            continue;
        }
        if let Some(z) = &fwd.solutions[k] {
            let w = active[k].weight * renorm;
            kept.push(SamplePoint { s: reports[k].s_used, weight: w });
            // 16 bytes per retained c64 sample entry.
            obs::counters::add(obs::Counter::SampleBytes, (z.nrows() * z.ncols() * 16) as u64);
            weighted.push(z.scale(w.sqrt()));
            if let Some(t) = &trans {
                if let Some(zl) = &t.solutions[k] {
                    obs::counters::add(
                        obs::Counter::SampleBytes,
                        (zl.nrows() * zl.ncols() * 16) as u64,
                    );
                    weighted_l.push(zl.scale(w.sqrt()));
                }
            }
        }
    }
    let n = sys.nstates();
    let (zmat, blocks) = realify_blocks(n, &weighted)?;
    let zl = if two_sided {
        let (zl, _) = realify_blocks(n, &weighted_l)?;
        Some(zl)
    } else {
        None
    };
    Ok(SweptSamples {
        kept,
        zmat,
        blocks,
        zl,
        reports,
        requested,
        surviving,
        renorm,
        budget_truncated: requested - attempted,
        span: sp,
    })
}

/// Stacks the realified weighted blocks into one matrix, recording each
/// block's column range.
pub(crate) fn realify_blocks(
    n: usize,
    weighted: &[ZMat],
) -> Result<(DMat, Vec<(usize, usize)>), NumError> {
    let total_cols: usize = weighted.iter().map(|zw| realified_ncols(zw, 1e-13)).sum();
    if total_cols == 0 {
        return Err(NumError::InvalidArgument("all surviving weighted samples vanished"));
    }
    let mut zmat = DMat::zeros(n, total_cols);
    let mut blocks = Vec::with_capacity(weighted.len());
    let mut col = 0;
    for zw in weighted {
        let wrote = realify_columns_into(zw, 1e-13, &mut zmat, col);
        blocks.push((col, col + wrote));
        col += wrote;
    }
    debug_assert_eq!(col, total_cols);
    Ok((zmat, blocks))
}

/// Output of the compression stage, before order selection and
/// projection.
enum Compressed {
    /// Every singular value of the controllability sample matrix and
    /// its leading left vectors (the plan's order bound of them).
    Spectral { f: LeftSvd<f64>, retried: bool },
    /// Incremental QR with `R`-factor singular-value estimates.
    Incremental { basis: IncrementalBasis, s: Vec<f64> },
    /// SVD of the balancing product `Z_Lᵀ·Z_R`.
    Balanced { f: Svd<f64>, retried: bool },
    /// Realified eigenbasis `T` of the small cross-Gramian eigenproblem
    /// `N = Z_Lᵀ·Z_R`, its eigenvalue block structure, and moduli.
    Cross { t: DMat, eigs: Vec<CrossEig>, moduli: Vec<f64>, retried: bool },
}

/// One realified eigenvalue block of the compressed cross-Gramian
/// eigenproblem: a real eigenvalue owns one column of `T`, a conjugate
/// pair `a ± bi` owns two (`[Re v, Im v]`).
enum CrossEig {
    /// Real eigenvalue `λ` (one column).
    Real(f64),
    /// Conjugate pair `a ± bi` (two columns).
    Pair {
        /// Real part `a`.
        re: f64,
        /// Imaginary part `b` of the `+bi` member.
        im: f64,
    },
}

impl CrossEig {
    /// Number of realified columns this block owns.
    fn width(&self) -> usize {
        match self {
            CrossEig::Real(_) => 1,
            CrossEig::Pair { .. } => 2,
        }
    }
}

impl Compressed {
    fn retried(&self) -> bool {
        match self {
            Compressed::Spectral { retried, .. }
            | Compressed::Balanced { retried, .. }
            | Compressed::Cross { retried, .. } => *retried,
            Compressed::Incremental { .. } => false,
        }
    }
}

/// Hard cap on fault-poisoned attempts per stage, so a pathological
/// [`FaultPlan`] cannot spin a recovery loop forever. Far above any
/// real ladder depth; purely a determinism-preserving backstop.
const MAX_STAGE_ATTEMPTS: usize = 32;

/// Raised Jacobi sweep cap used by the escalation rungs (the clean
/// first rung keeps the default cap).
const RAISED_SWEEP_CAP: usize = 400;

/// `true` for errors the compressor ladder may escalate past; anything
/// else (shape mismatches, invalid arguments) propagates immediately.
fn ladder_recoverable(e: &NumError) -> bool {
    matches!(
        e,
        NumError::NotConverged { .. }
            | NumError::NotFinite
            | NumError::WorkerPanicked { .. }
            | NumError::Singular { .. }
            | NumError::BudgetExhausted { .. }
    )
}

/// Emits one compressor-ladder `rung` trace event (mirrors the sweep
/// ladder's per-rung events, with the pipeline stage attached).
fn rung_event(stage: FaultStage, cand: &'static str, attempt: usize) {
    if obs::is_enabled() {
        obs::event(
            "rung",
            vec![
                ("stage", obs::Value::Str(stage.label().to_string())),
                ("cand", obs::Value::Str(cand.to_string())),
                ("attempt", obs::Value::U64(attempt as u64)),
            ],
        );
    }
}

/// Runs one stage attempt's injected faults, if any: `Some(Err(..))`
/// when the attempt is poisoned (error- or panic-kind), `None` when
/// the attempt should run for real. Injected panics actually unwind
/// and are contained here — the same `catch_unwind` discipline the
/// sweep ladder uses for worker panics.
fn injected_outcome(
    faults: Option<&FaultPlan>,
    stage: FaultStage,
    attempt: usize,
) -> Option<NumError> {
    let faults = faults?;
    if let Some(e) = faults.stage_error(stage, attempt) {
        return Some(e);
    }
    if faults.stage_panics(stage, attempt) {
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            // numlint:allow(PANIC01, ERR01) deliberate fault injection; the
            // surrounding catch_unwind contains it as WorkerPanicked.
            panic!("injected chaos panic in pipeline stage {}", stage.label());
        }));
        debug_assert!(unwound.is_err());
        return Some(NumError::WorkerPanicked { index: attempt });
    }
    None
}

/// The spectral compressor's escalation ladder: plain SVD → raised
/// sweep cap → column equilibration → direct (QR-preconditioning off)
/// Jacobi. Rung 0 is computationally identical to the pre-ladder clean
/// path. Each rung clamps its sweep cap to the remaining SVD budget;
/// a dry budget errors with [`NumError::BudgetExhausted`] so the
/// caller can fall back to the SVD-free incremental compressor.
///
/// `factor(a, opts, equilibrate)` runs one rung and decides which
/// vectors are built: the balancing compressor needs the full SVD, the
/// one-sided one only the leading left vectors ([`left_factor`]).
///
/// Returns the factorization and the rung that certified it.
fn spectral_ladder<F>(
    a: &DMat,
    factor: impl Fn(&DMat, &SvdOptions, bool) -> Result<F, NumError>,
    faults: Option<&FaultPlan>,
    tracker: &BudgetTracker,
    attempt: &mut usize,
) -> Result<(F, usize), NumError> {
    const RUNGS: [&str; 4] = ["svd", "raise-cap", "equilibrate", "direct-jacobi"];
    let mut last = NumError::NotConverged { algorithm: "compress-ladder", iterations: 0 };
    for (rung, cand) in RUNGS.iter().enumerate() {
        let this_attempt = *attempt;
        *attempt += 1;
        rung_event(FaultStage::Compress, cand, this_attempt);
        let result = match injected_outcome(faults, FaultStage::Compress, this_attempt) {
            Some(e) => Err(e),
            None => {
                // Clamp the rung's sweep cap to the remaining budget
                // (None = unlimited, keep each rung's own default).
                let cap = match tracker.remaining_svd_sweeps() {
                    Some(0) => {
                        return Err(NumError::BudgetExhausted { resource: "svd-sweeps" })
                    }
                    Some(rem) => Some((rem as usize).min(RAISED_SWEEP_CAP)),
                    None => None,
                };
                let raised = SvdOptions {
                    max_sweeps: Some(cap.unwrap_or(RAISED_SWEEP_CAP)),
                    ..SvdOptions::default()
                };
                match rung {
                    0 => factor(a, &SvdOptions { max_sweeps: cap, ..SvdOptions::default() }, false),
                    1 => factor(a, &raised, false),
                    2 => factor(a, &raised, true),
                    _ => factor(a, &SvdOptions { qr_precondition: Some(false), ..raised }, false),
                }
            }
        };
        match result {
            Ok(f) => return Ok((f, rung)),
            Err(e) if ladder_recoverable(&e) => last = e,
            Err(e) => return Err(e),
        }
    }
    Err(last)
}

/// Ladder rungs for the one-sided compressor: every singular value and
/// the leading `k` left vectors, bit-identical to the full SVD's.
fn left_factor(k: usize) -> impl Fn(&DMat, &SvdOptions, bool) -> Result<LeftSvd<f64>, NumError> {
    move |a, opts, equilibrate| {
        if equilibrate {
            equilibrated_svd_left(a, k, opts)
        } else {
            svd_left_with_opts(a, k, opts)
        }
    }
}

/// Ladder rungs for the balancing compressor, which reads both vector
/// sets.
fn full_factor(a: &DMat, opts: &SvdOptions, equilibrate: bool) -> Result<Svd<f64>, NumError> {
    if equilibrate {
        equilibrated_svd(a, opts)
    } else {
        svd_with_opts(a, opts)
    }
}

/// How many leading left vectors the one-sided projection can read: the
/// plan's order bound, or all of them when the order is uncapped.
fn leading_vectors(order: &OrderControl) -> usize {
    match *order {
        OrderControl::Exact(q) | OrderControl::Tolerance { max_order: Some(q), .. } => q,
        OrderControl::Tolerance { max_order: None, .. } => usize::MAX,
    }
}

/// The terminal compressor fallback: the SVD-free incremental QR basis.
/// Always records an accuracy downgrade in the report.
fn incremental_fallback(
    zmat: &DMat,
    blocks: &[(usize, usize)],
    report: &mut PipelineReport,
    cause: &NumError,
) -> Result<Compressed, NumError> {
    report.compress = StageOutcome::Degraded;
    report.compressor_downgraded = true;
    report
        .notes
        .push(format!("compressor downgraded to incremental QR after: {cause}"));
    let mut basis = IncrementalBasis::new(zmat.nrows());
    for &(c0, c1) in blocks {
        basis.push_block(&zmat.block(0, zmat.nrows(), c0, c1))?;
    }
    let s = basis.singular_value_estimates()?;
    Ok(Compressed::Incremental { basis, s })
}

/// Spectral compression of the one-sided sample stack, used both by
/// [`Compressor::JacobiSvd`] and as the downgrade target for the
/// two-sided compressors. Falls back to [`incremental_fallback`] when
/// the ladder is exhausted.
fn spectral_or_incremental(
    zmat: &DMat,
    blocks: &[(usize, usize)],
    k: usize,
    faults: Option<&FaultPlan>,
    tracker: &BudgetTracker,
    report: &mut PipelineReport,
    attempt: &mut usize,
) -> Result<Compressed, NumError> {
    match spectral_ladder(zmat, left_factor(k), faults, tracker, attempt) {
        Ok((f, rung)) => {
            if rung > 0 {
                report.compress = report.compress.max(StageOutcome::Recovered);
                report.notes.push(format!(
                    "spectral compressor recovered on ladder rung {rung}"
                ));
            }
            Ok(Compressed::Spectral { f, retried: rung > 0 })
        }
        Err(e) if ladder_recoverable(&e) => {
            if let NumError::BudgetExhausted { resource } = e {
                report.budget_exhausted.get_or_insert(resource);
            }
            incremental_fallback(zmat, blocks, report, &e)
        }
        Err(e) => Err(e),
    }
}

fn compress(
    zmat: &DMat,
    blocks: &[(usize, usize)],
    zl: Option<&DMat>,
    plan: &ReductionPlan,
    faults: Option<&FaultPlan>,
    tracker: &BudgetTracker,
    report: &mut PipelineReport,
) -> Result<Compressed, NumError> {
    let mut sp = obs::span("pmtbr.compress");
    sp.field_u64("cols", zmat.ncols() as u64);
    let mut attempt = 0usize;
    let result = match plan.compressor {
        Compressor::JacobiSvd => {
            sp.field_str("method", "jacobi-svd");
            let k = leading_vectors(&plan.order);
            spectral_or_incremental(zmat, blocks, k, faults, tracker, report, &mut attempt)
        }
        Compressor::Incremental => {
            sp.field_str("method", "incremental-qr");
            // No ladder to escalate through: retry past injected
            // faults, then build the basis for real.
            let mut last = None;
            while attempt < MAX_STAGE_ATTEMPTS {
                let this_attempt = attempt;
                attempt += 1;
                rung_event(FaultStage::Compress, "incremental", this_attempt);
                match injected_outcome(faults, FaultStage::Compress, this_attempt) {
                    Some(e) => last = Some(e),
                    None => {
                        last = None;
                        break;
                    }
                }
            }
            match last {
                Some(e) => Err(e),
                None => {
                    if attempt > 1 {
                        report.compress = report.compress.max(StageOutcome::Recovered);
                        report.notes.push(format!(
                            "incremental compressor recovered after {} injected fault(s)",
                            attempt - 1
                        ));
                    }
                    let mut basis = IncrementalBasis::new(zmat.nrows());
                    for &(c0, c1) in blocks {
                        basis.push_block(&zmat.block(0, zmat.nrows(), c0, c1))?;
                    }
                    let s = basis.singular_value_estimates()?;
                    Ok(Compressed::Incremental { basis, s })
                }
            }
        }
        Compressor::Balance => {
            sp.field_str("method", "balance");
            let zl = zl.ok_or(NumError::InvalidArgument("balance needs two-sided samples"))?;
            // Square-root balancing: SVD of Z_Lᵀ·Z_R, through the same
            // escalation ladder as the spectral path.
            let m = zl.transpose().matmul(zmat)?;
            match spectral_ladder(&m, full_factor, faults, tracker, &mut attempt) {
                Ok((f, rung)) => {
                    if rung > 0 {
                        report.compress = report.compress.max(StageOutcome::Recovered);
                        report.notes.push(format!(
                            "balance compressor recovered on ladder rung {rung}"
                        ));
                    }
                    Ok(Compressed::Balanced { f, retried: rung > 0 })
                }
                Err(e) if ladder_recoverable(&e) => {
                    // Downgrade: one-sided spectral compression of the
                    // controllability samples (loses the two-sided
                    // balancing accuracy, keeps the run alive).
                    if let NumError::BudgetExhausted { resource } = e {
                        report.budget_exhausted.get_or_insert(resource);
                    }
                    report.compress = StageOutcome::Degraded;
                    report.compressor_downgraded = true;
                    report.notes.push(format!(
                        "balance compressor downgraded to one-sided jacobi-svd after: {e}"
                    ));
                    let k = leading_vectors(&plan.order);
                    spectral_or_incremental(zmat, blocks, k, faults, tracker, report, &mut attempt)
                }
                Err(e) => Err(e),
            }
        }
        Compressor::CrossGramian => {
            sp.field_str("method", "cross-gramian");
            let zl = zl.ok_or(NumError::InvalidArgument(
                "cross-gramian needs two-sided samples",
            ))?;
            if zl.ncols() != zmat.ncols() {
                return Err(NumError::ShapeMismatch {
                    operation: "cross-gramian sample stacks",
                    left: zl.shape(),
                    right: zmat.shape(),
                });
            }
            // The sampled cross Gramian X = Z_R·Z_Lᵀ (n × n, never
            // formed) shares its nonzero spectrum with the small product
            // N = Z_Lᵀ·Z_R (c × c, c = sample columns): for λ ≠ 0,
            // N·w = λ·w gives X·(Z_R·w) = λ·(Z_R·w). Diagonalizing N
            // directly replaces the former joint-stack SVD plus k × k
            // (k up to 2c) eigenproblem with one c × c eigenproblem and
            // two tall matmuls in `project` — the dominant cost of the
            // old cross path.
            let nmat = zl.transpose().matmul(zmat)?;
            let mut eig_result = None;
            let mut last_err = None;
            let mut poisoned = 0usize;
            while attempt < MAX_STAGE_ATTEMPTS {
                let this_attempt = attempt;
                attempt += 1;
                rung_event(FaultStage::Compress, "eig", this_attempt);
                match injected_outcome(faults, FaultStage::Compress, this_attempt) {
                    Some(e) => {
                        // Injected: retry the eigensolve on the next
                        // attempt until the fault's depth is spent.
                        last_err = Some(e);
                        poisoned += 1;
                    }
                    None => match eig(&nmat) {
                        Ok(e) => {
                            eig_result = Some(e);
                            break;
                        }
                        Err(e) if ladder_recoverable(&e) => {
                            // A real eigensolve failure is not worth
                            // retrying verbatim: downgrade below.
                            last_err = Some(e);
                            break;
                        }
                        Err(e) => return Err(e),
                    },
                }
            }
            match eig_result {
                Some(e) => {
                    if poisoned > 0 {
                        report.compress = report.compress.max(StageOutcome::Recovered);
                        report.notes.push(format!(
                            "cross-gramian eigensolve recovered after {poisoned} injected \
                             fault(s)"
                        ));
                    }
                    let c = nmat.ncols();
                    // Realified dominant eigenbasis (conjugate pairs →
                    // [Re, Im]), in the engine's decreasing-modulus order.
                    let mut t = DMat::zeros(c, c);
                    let mut eigs = Vec::with_capacity(c);
                    let mut moduli = Vec::with_capacity(c);
                    let mut j = 0;
                    let mut col = 0;
                    while j < c {
                        let lam = e.values[j];
                        let v = e.vectors.col(j);
                        if lam.im.abs() > 1e-12 * lam.abs().max(1e-300) && j + 1 < c {
                            for i in 0..c {
                                t[(i, col)] = v[i].re;
                                t[(i, col + 1)] = v[i].im;
                            }
                            eigs.push(CrossEig::Pair { re: lam.re, im: lam.im });
                            moduli.push(lam.abs());
                            moduli.push(lam.abs());
                            col += 2;
                            j += 2;
                        } else {
                            for i in 0..c {
                                t[(i, col)] = v[i].re;
                            }
                            eigs.push(CrossEig::Real(lam.re));
                            moduli.push(lam.abs());
                            col += 1;
                            j += 1;
                        }
                    }
                    Ok(Compressed::Cross { t, eigs, moduli, retried: poisoned > 0 })
                }
                None => {
                    // Downgrade the eig-based compressor to one-sided
                    // spectral compression (then incremental if even
                    // that fails).
                    let cause = last_err.unwrap_or(NumError::NotConverged {
                        algorithm: "cross-gramian-eig",
                        iterations: MAX_STAGE_ATTEMPTS,
                    });
                    report.compress = StageOutcome::Degraded;
                    report.compressor_downgraded = true;
                    report.notes.push(format!(
                        "cross-gramian compressor downgraded to one-sided jacobi-svd after: \
                         {cause}"
                    ));
                    let k = leading_vectors(&plan.order);
                    spectral_or_incremental(zmat, blocks, k, faults, tracker, report, &mut attempt)
                }
            }
        }
    };
    match &result {
        Ok(_) => {
            sp.field_str("outcome", report.compress.label());
            sp.field("downgraded", obs::Value::Bool(report.compressor_downgraded));
        }
        Err(_) => {
            report.compress = StageOutcome::Failed;
            sp.field_str("outcome", StageOutcome::Failed.label());
        }
    }
    result
}

/// Chooses the reduced order from a (descending) singular spectrum.
pub(crate) fn truncated_order(s: &[f64], order: &OrderControl) -> Result<usize, NumError> {
    if s.is_empty() || s[0] == 0.0 {
        return Err(NumError::InvalidArgument("sample basis is empty"));
    }
    match *order {
        OrderControl::Tolerance { tolerance, max_order } => {
            let by_tol = s.iter().take_while(|&&x| x > tolerance * s[0]).count().max(1);
            Ok(max_order.map_or(by_tol, |cap| by_tol.min(cap)).min(s.len()))
        }
        OrderControl::Exact(q) => {
            if q > s.len() {
                return Err(NumError::InvalidArgument("requested order exceeds sampled subspace"));
            }
            Ok(q)
        }
    }
}

/// Order selection + projector assembly + congruence projection.
///
/// Injected stage faults (chaos testing) poison whole attempts: each
/// poisoned attempt is retried until the fault's depth is spent, then
/// the real projection runs. Real projection errors still fail the run
/// (there is no meaningful lower-accuracy projection to downgrade to).
fn project<S: LtiSystem + ?Sized>(
    sys: &S,
    zmat: &DMat,
    zl: Option<&DMat>,
    compressed: Compressed,
    order: &OrderControl,
    faults: Option<&FaultPlan>,
    report: &mut PipelineReport,
) -> Result<PmtbrModel, NumError> {
    let mut sp = obs::span("pmtbr.project");
    let mut poisoned = 0usize;
    while poisoned < MAX_STAGE_ATTEMPTS {
        match injected_outcome(faults, FaultStage::Project, poisoned) {
            Some(_) => {
                rung_event(FaultStage::Project, "retry", poisoned);
                poisoned += 1;
            }
            None => break,
        }
    }
    if poisoned > 0 {
        report.project = StageOutcome::Recovered;
        report
            .notes
            .push(format!("projection recovered after {poisoned} injected fault(s)"));
    }
    let n = sys.nstates();
    let model = match compressed {
        Compressed::Spectral { f, .. } => {
            let q = truncated_order(&f.s, order)?;
            let v = f.u.leading_cols(q);
            let reduced: StateSpace = sys.project(&v, &v)?;
            Ok(PmtbrModel {
                reduced,
                v,
                singular_values: f.s.clone(),
                order: q,
                error_estimate: f.s.iter().skip(q).sum(),
            })
        }
        Compressed::Incremental { basis, s } => {
            let mut q = truncated_order(&s, order)?;
            if matches!(order, OrderControl::Tolerance { .. }) {
                // Tolerance picks from the (padded) spectrum; an exact
                // request past the rank must error in dominant_basis.
                q = q.min(basis.rank()).max(1);
            }
            let v = basis.dominant_basis(q)?;
            let q = v.ncols();
            let reduced: StateSpace = sys.project(&v, &v)?;
            Ok(PmtbrModel {
                reduced,
                v,
                singular_values: s.clone(),
                order: q,
                error_estimate: s.iter().skip(q).sum(),
            })
        }
        Compressed::Balanced { f, .. } => {
            let zl = zl.ok_or(NumError::InvalidArgument("balance needs two-sided samples"))?;
            let rank = f.rank(1e-13).max(1);
            let q = match *order {
                OrderControl::Exact(q0) => {
                    if q0.min(rank) < q0 {
                        return Err(NumError::InvalidArgument(
                            "requested order exceeds sampled Hankel rank",
                        ));
                    }
                    q0
                }
                OrderControl::Tolerance { .. } => truncated_order(&f.s, order)?.min(rank),
            };
            // Blocked congruence products Z_R·V_q and Z_L·U_q (the
            // cache-blocked matmul sums ascending-k, bit-identical to
            // the per-entry loops this replaces), then the balancing
            // column scaling 1/√σⱼ.
            let mut v = zmat.matmul(&f.v.leading_cols(q))?;
            let mut w = zl.matmul(&f.u.leading_cols(q))?;
            for j in 0..q {
                let scale = 1.0 / f.s[j].sqrt();
                for i in 0..n {
                    v[(i, j)] *= scale;
                    w[(i, j)] *= scale;
                }
            }
            let reduced: StateSpace = sys.project(&w, &v)?;
            Ok(PmtbrModel {
                reduced,
                v,
                singular_values: f.s.clone(),
                order: q,
                error_estimate: f.s.iter().skip(q).sum(),
            })
        }
        Compressed::Cross { t, eigs, moduli, .. } => {
            let zl = zl
                .ok_or(NumError::InvalidArgument("cross-gramian needs two-sided samples"))?;
            let c = t.ncols();
            let target = match *order {
                OrderControl::Exact(q0) => q0,
                // validate() rejects this combination up front.
                OrderControl::Tolerance { .. } => {
                    return Err(NumError::InvalidArgument(
                        "cross-gramian compression needs an exact target order",
                    ));
                }
            };
            if target > c {
                return Err(NumError::InvalidArgument("requested order exceeds sampled subspace"));
            }
            // Walk whole eigenvalue blocks so a conjugate pair is never
            // split at the truncation boundary.
            let mut q_ord = 0;
            for blk in &eigs {
                if q_ord >= target {
                    break;
                }
                q_ord += blk.width();
            }
            // Dominant right eigenvectors of X = Z_R·Z_Lᵀ: V = Z_R·T_q
            // (N·w = λ·w maps to X·(Z_R·w) = λ·(Z_R·w)).
            let v = zmat.matmul(&t.leading_cols(q_ord))?;
            // Biorthogonal left basis: W = Z_L·K with K = (Λ⁻¹·T⁻¹)ᵀ,
            // since then WᵀV = Λ⁻¹·T⁻¹·N·T = Λ⁻¹·Λ = I. Only the
            // leading q_ord rows of Λ⁻¹·T⁻¹ are needed, so only the
            // dominant (nonzero) eigenvalue blocks are ever inverted:
            // 1×1 block λ, or the realified pair block
            // [[a, b], [−b, a]]⁻¹ = [[a, −b], [b, a]] / (a² + b²).
            let tinv = Lu::new(t.clone())?.inverse()?;
            let mut ksel = DMat::zeros(c, q_ord);
            let mut row = 0;
            for blk in &eigs {
                if row >= q_ord {
                    break;
                }
                match *blk {
                    CrossEig::Real(lam) => {
                        if lam == 0.0 {
                            return Err(NumError::InvalidArgument(
                                "cross-gramian eigenvalue vanished in the dominant block",
                            ));
                        }
                        for i in 0..c {
                            ksel[(i, row)] = tinv[(row, i)] / lam;
                        }
                        row += 1;
                    }
                    CrossEig::Pair { re, im } => {
                        let d = re * re + im * im;
                        if d == 0.0 {
                            return Err(NumError::InvalidArgument(
                                "cross-gramian eigenvalue vanished in the dominant block",
                            ));
                        }
                        for i in 0..c {
                            let x = tinv[(row, i)];
                            let y = tinv[(row + 1, i)];
                            ksel[(i, row)] = (re * x - im * y) / d;
                            ksel[(i, row + 1)] = (im * x + re * y) / d;
                        }
                        row += 2;
                    }
                }
            }
            debug_assert_eq!(row, q_ord);
            let w = zl.matmul(&ksel)?;
            let reduced: StateSpace = sys.project(&w, &v)?;
            Ok(PmtbrModel {
                reduced,
                v,
                singular_values: moduli.clone(),
                order: q_ord,
                error_estimate: moduli.iter().skip(q_ord).sum(),
            })
        }
    };
    match &model {
        Ok(m) => {
            sp.field_u64("order", m.order as u64);
            sp.field_str("outcome", report.project.label());
        }
        Err(_) => {
            report.project = StageOutcome::Failed;
            sp.field_str("outcome", StageOutcome::Failed.label());
        }
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuits::rc_mesh;
    use numkit::c64;

    fn mesh() -> lti::Descriptor {
        rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0).unwrap()
    }

    fn faulted(faults: FaultPlan) -> RunCtx<'static> {
        RunCtx { faults: Some(faults), ..RunCtx::default() }
    }

    fn budgeted(budget: Budget) -> RunCtx<'static> {
        RunCtx { budget, ..RunCtx::default() }
    }

    #[test]
    fn plan_validation_rejects_degenerate_requests() {
        let sampling = Sampling::Linear { omega_max: 10.0, n: 8 };
        let err =
            run(&mesh(), &ReductionPlan::balanced(&sampling, 0), &RunCtx::default()).unwrap_err();
        assert!(matches!(err, NumError::InvalidArgument(_)));
        let mut plan = ReductionPlan::cross_gramian(&sampling, 3);
        plan.order = OrderControl::Tolerance { tolerance: 1e-10, max_order: None };
        assert!(run(&mesh(), &plan, &RunCtx::default()).is_err());
    }

    #[test]
    fn default_plan_matches_classic_pmtbr() {
        let sys = mesh();
        let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 15 }).with_max_order(6);
        let classic = crate::pmtbr(&sys, &opts).unwrap();
        let planned = run(&sys, &ReductionPlan::pmtbr(&opts), &RunCtx::default()).unwrap();
        assert_eq!(classic.order, planned.model.order);
        assert_eq!(classic.singular_values, planned.model.singular_values);
        assert!(!planned.diagnostics.is_degraded());
    }

    #[test]
    fn incremental_compressor_matches_svd_subspace() {
        let sys = mesh();
        let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 12 }).with_max_order(5);
        let svd_red = run(&sys, &ReductionPlan::pmtbr(&opts), &RunCtx::default()).unwrap();
        let inc_red = run(
            &sys,
            &ReductionPlan::pmtbr(&opts).with_compressor(Compressor::Incremental),
            &RunCtx::default(),
        )
        .unwrap();
        assert_eq!(svd_red.model.order, inc_red.model.order);
        // Same singular values (the R factor is exact) and same subspace.
        for (a, b) in svd_red
            .model
            .singular_values
            .iter()
            .zip(&inc_red.model.singular_values)
        {
            assert!((a - b).abs() < 1e-9 * (1.0 + a), "{a} vs {b}");
        }
        let angle =
            numkit::max_principal_angle(&svd_red.model.v, &inc_red.model.v).unwrap();
        assert!(angle < 1e-6, "subspace angle {angle}");
    }

    #[test]
    fn compress_ladder_escalates_one_rung_per_fault_depth() {
        use crate::fault::{FaultKind, FaultStage};
        let sys = mesh();
        let opts =
            PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 10 }).with_max_order(4);
        let plan = ReductionPlan::pmtbr(&opts);
        let clean = run(&sys, &plan, &RunCtx::default()).unwrap();
        // Depth d poisons the first d rungs (drift ⇒ NotConverged), so
        // the ladder certifies on rung d: 1 = raised cap, 2 =
        // equilibration, 3 = direct Jacobi.
        for depth in 1..=3 {
            let faults = FaultPlan::new(11, 1.0, vec![FaultKind::Drift], depth)
                .with_stages(vec![FaultStage::Compress]);
            let red = run(&sys, &plan, &faulted(faults)).unwrap();
            assert_eq!(red.report.compress, StageOutcome::Recovered, "depth {depth}");
            assert!(!red.report.compressor_downgraded, "depth {depth}");
            assert!(
                red.report.notes.iter().any(|n| n.contains(&format!("rung {depth}"))),
                "depth {depth}: missing rung note in {:?}",
                red.report.notes
            );
            assert_eq!(red.model.order, clean.model.order, "depth {depth}");
            for (a, b) in clean
                .model
                .singular_values
                .iter()
                .zip(&red.model.singular_values)
            {
                assert!((a - b).abs() < 1e-7 * (1.0 + a), "depth {depth}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn exhausted_spectral_ladder_downgrades_to_incremental() {
        use crate::fault::{FaultKind, FaultStage};
        let sys = mesh();
        let opts =
            PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 10 }).with_max_order(4);
        let plan = ReductionPlan::pmtbr(&opts);
        // Depth 4 poisons every spectral rung: the compressor must fall
        // back to the SVD-free incremental basis and record the
        // downgrade instead of erroring.
        let faults = FaultPlan::new(11, 1.0, vec![FaultKind::Drift], 4)
            .with_stages(vec![FaultStage::Compress]);
        let red = run(&sys, &plan, &faulted(faults)).unwrap();
        assert_eq!(red.report.compress, StageOutcome::Degraded);
        assert!(red.report.compressor_downgraded);
        assert!(red.report.is_degraded());
        assert!(red
            .report
            .notes
            .iter()
            .any(|n| n.contains("downgraded to incremental QR")));
        assert!(red.model.singular_values.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn injected_compress_panic_is_contained_and_recovered() {
        use crate::fault::{FaultKind, FaultStage};
        let sys = mesh();
        let opts =
            PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 10 }).with_max_order(4);
        let plan = ReductionPlan::pmtbr(&opts);
        let faults = FaultPlan::new(3, 1.0, vec![FaultKind::Panic], 1)
            .with_stages(vec![FaultStage::Compress]);
        // The injected panic unwinds inside the stage's catch_unwind;
        // the ladder records it as a contained worker panic and
        // certifies on the next rung.
        let red = run(&sys, &plan, &faulted(faults)).unwrap();
        assert_eq!(red.report.compress, StageOutcome::Recovered);
        assert!(!red.report.compressor_downgraded);
    }

    #[test]
    fn balance_compressor_downgrades_to_one_sided() {
        use crate::fault::{FaultKind, FaultStage};
        let sys = mesh();
        let sampling = Sampling::Linear { omega_max: 20.0, n: 12 };
        let plan = ReductionPlan::balanced(&sampling, 4);
        // Depth 4 exhausts the balance product's whole spectral ladder;
        // the shared attempt counter then lets the one-sided downgrade
        // succeed on its first (fifth overall) attempt.
        let faults = FaultPlan::new(11, 1.0, vec![FaultKind::Drift], 4)
            .with_stages(vec![FaultStage::Compress]);
        let red = run(&sys, &plan, &faulted(faults)).unwrap();
        assert_eq!(red.report.compress, StageOutcome::Degraded);
        assert!(red.report.compressor_downgraded);
        assert!(red
            .report
            .notes
            .iter()
            .any(|n| n.contains("balance compressor downgraded to one-sided")));
        assert_eq!(red.model.order, 4);
    }

    #[test]
    fn cross_gramian_eigensolve_retries_past_injected_faults() {
        use crate::fault::{FaultKind, FaultStage};
        let sys = mesh();
        let sampling = Sampling::Linear { omega_max: 20.0, n: 12 };
        let plan = ReductionPlan::cross_gramian(&sampling, 3);
        let clean = run(&sys, &plan, &RunCtx::default()).unwrap();
        let faults = FaultPlan::new(5, 1.0, vec![FaultKind::Nan], 2)
            .with_stages(vec![FaultStage::Compress]);
        let red = run(&sys, &plan, &faulted(faults)).unwrap();
        assert_eq!(red.report.compress, StageOutcome::Recovered);
        assert!(!red.report.compressor_downgraded);
        // Retried attempts re-run the identical eigensolve: the model
        // must match the clean run bit for bit.
        assert_eq!(red.model.singular_values, clean.model.singular_values);
        assert_eq!(red.model.order, clean.model.order);
    }

    #[test]
    fn project_stage_retries_injected_faults() {
        use crate::fault::{FaultKind, FaultStage};
        let sys = mesh();
        let opts =
            PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 10 }).with_max_order(4);
        let plan = ReductionPlan::pmtbr(&opts);
        let clean = run(&sys, &plan, &RunCtx::default()).unwrap();
        let faults = FaultPlan::new(9, 1.0, vec![FaultKind::Singular], 2)
            .with_stages(vec![FaultStage::Project]);
        let red = run(&sys, &plan, &faulted(faults)).unwrap();
        assert_eq!(red.report.project, StageOutcome::Recovered);
        assert_eq!(red.report.compress, StageOutcome::Clean);
        // Poisoned attempts never touch the data: bit-identical model.
        assert_eq!(red.model.singular_values, clean.model.singular_values);
    }

    #[test]
    fn lu_budget_truncates_sweep_into_degraded_model() {
        let sys = mesh();
        let opts =
            PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 10 }).with_max_order(4);
        let plan = ReductionPlan::pmtbr(&opts);
        let budget = Budget::default().with_max_lu_factors(4);
        // Counters are process-global and other tests factor LUs
        // concurrently, so the effective cap may shrink below 4 — a
        // budget run must then still terminate with either a best-effort
        // degraded model or an explicit exhaustion error, never a hang.
        match run(&sys, &plan, &budgeted(budget)) {
            Ok(red) => {
                assert_eq!(red.report.budget_exhausted, Some("lu-factorizations"));
                assert_eq!(red.report.sweep, StageOutcome::Degraded);
                assert!(red.report.is_degraded());
                assert!(red.diagnostics.dropped() > 0);
                assert!(red.model.singular_values.iter().all(|s| s.is_finite()));
            }
            Err(NumError::BudgetExhausted { resource }) => {
                assert_eq!(resource, "lu-factorizations");
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn svd_budget_exhaustion_falls_back_to_incremental() {
        let sys = mesh();
        let opts =
            PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 10 }).with_max_order(4);
        let plan = ReductionPlan::pmtbr(&opts);
        // A zero SVD budget dries the spectral ladder immediately; the
        // run still completes on the SVD-free incremental compressor
        // with the exhaustion recorded.
        let budget = Budget::default().with_max_svd_sweeps(0);
        let red = run(&sys, &plan, &budgeted(budget)).unwrap();
        assert_eq!(red.report.budget_exhausted, Some("svd-sweeps"));
        assert!(red.report.compressor_downgraded);
        assert!(red.report.is_degraded());
        assert!(red.model.singular_values.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn pre_cancelled_run_stops_at_first_checkpoint() {
        let sys = mesh();
        let opts =
            PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 10 }).with_max_order(4);
        let plan = ReductionPlan::pmtbr(&opts);
        let token = numkit::CancelToken::new();
        token.cancel();
        let budget = Budget::default().with_cancel(token);
        let err = run(&sys, &plan, &budgeted(budget)).unwrap_err();
        assert_eq!(err, NumError::Cancelled);
    }

    #[test]
    fn two_sided_plans_survive_dropped_nodes() {
        use crate::fault::FaultKind;
        let sys = mesh();
        let sampling = Sampling::Linear { omega_max: 20.0, n: 16 };
        let plan = ReductionPlan::balanced(&sampling, 4);
        let faults = FaultPlan::new(7, 0.25, vec![FaultKind::Panic], 2);
        let red = run(&sys, &plan, &faulted(faults)).unwrap();
        assert!(red.diagnostics.dropped() > 0, "plan must actually drop nodes");
        assert_eq!(red.model.order, 4);
        assert!(red.diagnostics.weight_renormalization > 1.0);
        // The degraded two-sided model still tracks the transfer function.
        let s = c64::new(0.0, 1.0);
        let h = sys.transfer_function(s).unwrap()[(0, 0)];
        let hr = red.model.reduced.transfer_function(s).unwrap()[(0, 0)];
        assert!((h - hr).abs() < 5e-2 * h.abs().max(1e-12), "err {}", (h - hr).abs());
    }
}
