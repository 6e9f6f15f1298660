//! # pmtbr — Poor Man's TBR
//!
//! A Rust implementation of the model order reduction family from
//! J. R. Phillips and L. M. Silveira, *"Poor Man's TBR: A Simple Model
//! Reduction Scheme"* (DATE 2004 / IEEE TCAD 24(1), 2005).
//!
//! The key observation: multipoint frequency sampling
//! `z_k = (s_k·E − A)⁻¹·B` followed by an SVD of the weighted sample
//! matrix `ZW` is numerical quadrature for the controllability Gramian
//! (paper eq. (8)–(11)). The singular values approximate Hankel singular
//! values — giving TBR-style order/error control at multipoint-projection
//! cost — and the sampling scheme *is* a frequency weighting, which turns
//! statistical knowledge about the inputs into smaller models.
//!
//! Provided variants:
//!
//! - [`pmtbr`] — Algorithm 1, with [`Sampling`] schemes (uniform, log,
//!   per-band, custom) and SVD order control;
//! - [`frequency_selective_pmtbr`] — Algorithm 2: sampling restricted to
//!   bands of interest;
//! - [`input_correlated_pmtbr`] — Algorithm 3: stochastic sampling of the
//!   input-correlated Gramian for massively coupled networks;
//! - [`cross_gramian_pmtbr`] — the two-sided (Section V-D) variant for
//!   nonsymmetric systems;
//! - [`balanced_pmtbr`] — square-root balancing of *sampled*
//!   controllability and observability Gramians (two-sided);
//! - [`Sampling::Greedy`] — greedy shift placement with a solve-free
//!   surrogate and frequency-aware stopping ([`ReductionPlan::greedy`]);
//! - [`pod_reduce`] — snapshot-based (time-domain empirical Gramian)
//!   reduction, the statistical interpretation taken literally;
//! - [`IncrementalBasis`] — on-the-fly order control without re-SVDs
//!   (Section V-C).
//!
//! Every variant above is a thin constructor over one staged execution
//! core: [`pipeline::ReductionPlan`] describes the reduction (sampling,
//! input directions, compressor, order control) and [`pipeline::run`]
//! executes it through the shared tolerant multipoint sweep — so
//! parallelism, fault tolerance, weight renormalization, caching, and
//! tracing behave identically across variants. A [`pipeline::RunCtx`]
//! carries the run's [`FaultPlan`], [`Budget`], and [`ArtifactCache`];
//! the library reads none of them from the environment.
//!
//! All of them accept anything implementing `lti::LtiSystem`, including
//! sparse descriptor systems with singular `E` (Section V-A).
//!
//! ```
//! use circuits::rc_mesh;
//! use pmtbr::{pmtbr, PmtbrOptions, Sampling};
//!
//! # fn main() -> Result<(), numkit::NumError> {
//! let sys = rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0)?;
//! let model = pmtbr(
//!     &sys,
//!     &PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 20 }).with_max_order(6),
//! )?;
//! println!("order {} with error estimate {:.2e}", model.order, model.error_estimate);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as `NumError`, not abort: panics
// are reserved for violated internal invariants (and tests).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod balanced;
mod algorithm;
mod budget;
pub mod cache;
mod cross_gramian;
pub mod fault;
mod frequency_selective;
mod greedy;
mod input_correlated;
mod order_control;
pub mod par;
pub mod pipeline;
mod pod;
mod sampling;
mod sweep;

pub use balanced::balanced_pmtbr;
pub use algorithm::{pmtbr, reduce_with_basis, sample_basis, PmtbrModel, PmtbrOptions, SampleBasis};
pub use cross_gramian::cross_gramian_pmtbr;
pub use frequency_selective::frequency_selective_pmtbr;
pub use input_correlated::{input_correlated_pmtbr, InputCorrelatedOptions};
pub use budget::Budget;
pub use cache::{
    Artifact, ArtifactCache, ArtifactKind, CacheKey, CachedReduction, CachedSweep, LruCache,
    NullCache,
};
pub use order_control::IncrementalBasis;
pub use fault::{FaultKind, FaultPlan, FaultStage};
pub use pipeline::{
    Compressor, InputDirections, OrderControl, PipelineReport, Reduction, ReductionPlan, RunCtx,
    StageOutcome,
};
pub use pod::{pod_reduce, PodOptions};
pub use sampling::{SamplePoint, Sampling};
pub use sweep::{sample_basis_tolerant, SweepDiagnostics};
