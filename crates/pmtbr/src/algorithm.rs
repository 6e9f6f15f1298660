//! Algorithm 1: the core PMTBR procedure.
//!
//! Sample `z_k = (s_k·E − A)⁻¹·B` at quadrature nodes, weight by `√w_k`,
//! realify, and take the SVD of the stacked sample matrix `ZW`. Its left
//! singular vectors approximate the dominant eigenvectors of the
//! (weighted) controllability Gramian, its singular values approximate
//! the Hankel singular values, and the trailing-value sum drives order
//! and error control.

use lti::{LtiSystem, NoFaults, RecoveryPolicy, StateSpace};
use numkit::{svd, svd_left_with_opts, svd_with_opts, DMat, LeftSvd, NumError, Svd, SvdOptions};

use crate::pipeline::{InputDirections, ReductionPlan, RunCtx, SweptSamples};
use crate::{SamplePoint, Sampling};

/// SVD of the sample matrix with a convergence safety net.
///
/// The one-sided Jacobi SVD can (rarely) exhaust its sweep budget on
/// sample matrices whose columns span 15+ orders of magnitude. When it
/// reports [`NumError::NotConverged`], this retries once with column
/// equilibration: with `D = diag(1/‖aⱼ‖₂)` the scaled matrix `A·D` has
/// unit columns and converges quickly; `A = U₁·(S₁·V₁ᵀ·D⁻¹)` is then
/// recombined *exactly* through a second small SVD of the `k × c`
/// middle factor, so the returned triplet is a genuine SVD of the
/// original matrix. Both retry stages run with a raised sweep cap.
///
/// Returns the factorization and whether the retry path was taken.
pub(crate) fn robust_svd(a: &DMat) -> Result<(Svd<f64>, bool), NumError> {
    match svd(a) {
        Ok(f) => Ok((f, false)),
        Err(NumError::NotConverged { .. }) => {
            let opts = SvdOptions { max_sweeps: Some(400), ..SvdOptions::default() };
            equilibrated_svd(a, &opts).map(|f| (f, true))
        }
        Err(e) => Err(e),
    }
}

/// The equilibrated retry behind [`robust_svd`] (and rung 2 of the
/// pipeline's compressor ladder): factor `A·D` with unit columns, then
/// recombine exactly through a second small SVD. Both internal SVDs run
/// under `opts`, so a work budget can clamp the retry.
pub(crate) fn equilibrated_svd(a: &DMat, opts: &SvdOptions) -> Result<Svd<f64>, NumError> {
    match equilibrate(a, opts)? {
        Equilibrated::Zero(f1) => Ok(f1),
        Equilibrated::Split { u1, middle } => {
            let f2 = svd_with_opts(&middle, opts)?;
            Ok(Svd { u: u1.matmul(&f2.u)?, s: f2.s, v: f2.v })
        }
    }
}

/// [`equilibrated_svd`] restricted to every value and the leading `k`
/// left vectors, bit-identical to the matching parts of it: the second
/// SVD is left-only, and `U₁·U₂[:, :k]` is the leading-column slice of
/// the full product.
pub(crate) fn equilibrated_svd_left(
    a: &DMat,
    k: usize,
    opts: &SvdOptions,
) -> Result<LeftSvd<f64>, NumError> {
    match equilibrate(a, opts)? {
        Equilibrated::Zero(f1) => {
            Ok(LeftSvd { u: f1.u.leading_cols(k.min(f1.u.ncols())), s: f1.s })
        }
        Equilibrated::Split { u1, middle } => {
            let f2 = svd_left_with_opts(&middle, k, opts)?;
            Ok(LeftSvd { u: u1.matmul(&f2.u)?, s: f2.s })
        }
    }
}

/// Stage 1 of the equilibrated retry.
enum Equilibrated {
    /// `A` is numerically zero; this is already its SVD.
    Zero(Svd<f64>),
    /// `A = U₁·M`: `U₁` the left vectors of `A·D` truncated to its
    /// numerical rank `r`, `M = S₁·V₁ᵀ·D⁻¹` the small `r × c` middle
    /// factor still to be factored.
    Split { u1: DMat, middle: DMat },
}

fn equilibrate(a: &DMat, opts: &SvdOptions) -> Result<Equilibrated, NumError> {
    let (n, c) = a.shape();
    let norms: Vec<f64> = (0..c)
        .map(|j| (0..n).map(|i| a[(i, j)] * a[(i, j)]).sum::<f64>().sqrt())
        .collect();
    let ad = DMat::from_fn(n, c, |i, j| {
        if norms[j] > 0.0 {
            a[(i, j)] / norms[j]
        } else {
            0.0
        }
    });
    // The middle factor reads V₁, so this first SVD keeps every vector.
    let f1 = svd_with_opts(&ad, opts)?;
    // Truncate stage 1 to its numerical rank: below it, the rows of the
    // middle factor are pure noise and would hand the second SVD
    // non-orthogonal null directions.
    let r = f1.rank(f64::EPSILON);
    if r == 0 {
        return Ok(Equilibrated::Zero(f1));
    }
    let f1 = f1.truncated(r);
    let middle = DMat::from_fn(r, c, |i, j| f1.s[i] * f1.v[(j, i)] * norms[j]);
    Ok(Equilibrated::Split { u1: f1.u, middle })
}

/// Configuration for a PMTBR run.
///
/// Build with [`PmtbrOptions::new`] and the `with_*` methods
/// (builder style):
///
/// ```
/// use pmtbr::{PmtbrOptions, Sampling};
///
/// let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 10.0, n: 20 })
///     .with_tolerance(1e-8)
///     .with_max_order(12);
/// assert_eq!(opts.max_order(), Some(12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PmtbrOptions {
    sampling: Sampling,
    tolerance: f64,
    max_order: Option<usize>,
}

impl PmtbrOptions {
    /// Creates options with the given sampling scheme, relative singular
    /// value tolerance `1e-10`, and no order cap.
    pub fn new(sampling: Sampling) -> Self {
        PmtbrOptions { sampling, tolerance: 1e-10, max_order: None }
    }

    /// Sets the relative truncation tolerance: directions with
    /// `σᵢ ≤ tol·σ₀` are dropped.
    #[must_use]
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Caps the reduced order.
    #[must_use]
    pub fn with_max_order(mut self, order: usize) -> Self {
        self.max_order = Some(order);
        self
    }

    /// The sampling scheme.
    pub fn sampling(&self) -> &Sampling {
        &self.sampling
    }

    /// The relative truncation tolerance.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// The order cap, if any.
    pub fn max_order(&self) -> Option<usize> {
        self.max_order
    }
}

/// The factored sample matrix `ZW` — PMTBR's intermediate product.
///
/// Exposed separately (C-INTERMEDIATE) because the experiments consume
/// it directly: Fig. 5 plots its singular values against exact Hankel
/// values, Fig. 6 measures subspace angles of its leading vectors, and
/// Fig. 8 tracks singular-value convergence as samples accumulate.
#[derive(Debug, Clone)]
pub struct SampleBasis {
    /// Thin SVD of the realified, weighted sample matrix.
    pub svd: Svd<f64>,
    /// The quadrature nodes that produced it.
    pub points: Vec<SamplePoint>,
}

impl SampleBasis {
    /// Singular values of `ZW` (squared, these estimate Gramian
    /// eigenvalues; directly, they estimate Hankel singular values in
    /// the symmetric case).
    pub fn singular_values(&self) -> &[f64] {
        &self.svd.s
    }

    /// Error estimate for each order `q`: the trailing sum
    /// `Σ_{i≥q} σᵢ` (index 0 = estimate for the order-0 model).
    pub fn error_estimates(&self) -> Vec<f64> {
        let s = &self.svd.s;
        let mut tails = vec![0.0; s.len() + 1];
        for i in (0..s.len()).rev() {
            tails[i] = tails[i + 1] + s[i];
        }
        tails
    }

    /// Smallest order whose trailing singular-value sum drops below
    /// `tol` (absolute), per the paper's Section V-B criterion.
    pub fn suggest_order(&self, tol: f64) -> usize {
        let tails = self.error_estimates();
        tails.iter().position(|&t| t < tol).unwrap_or(self.svd.s.len())
    }

    /// The projection basis spanned by the `order` dominant directions.
    ///
    /// # Panics
    ///
    /// Panics if `order` exceeds the number of computed directions.
    pub fn basis(&self, order: usize) -> DMat {
        self.svd.u.leading_cols(order)
    }
}

/// Computes the PMTBR sample basis for a system under a sampling scheme.
///
/// Runs the shared pipeline sweep stage ([`crate::pipeline`]) in strict
/// mode (no fault injection): sparse descriptor systems reuse one
/// symbolic LU analysis across all sample points and fan the numeric
/// work across threads (`PMTBR_THREADS` overrides the count). Results
/// are identical for every thread count, and bit-identical to the
/// per-variant solve loops this path replaced.
///
/// Strict means strict: where [`crate::sample_basis_tolerant`] degrades
/// the quadrature, this function turns any dropped sample point into an
/// error (the ladder may still repair transient trouble — e.g. by
/// refinement — without affecting the result).
///
/// # Errors
///
/// - Propagates sampling validation and shifted-solve errors; the first
///   dropped point's underlying solver error is returned verbatim.
/// - [`NumError::InvalidArgument`] if every weighted sample vanished.
pub fn sample_basis<S: LtiSystem + ?Sized>(
    sys: &S,
    sampling: &Sampling,
) -> Result<SampleBasis, NumError> {
    let SweptSamples { kept, zmat, surviving, requested, reports, mut span, .. } =
        crate::pipeline::sweep(
            sys,
            sampling,
            &InputDirections::IdentityBlock,
            false,
            &RecoveryPolicy::default(),
            &NoFaults,
            None,
        )?;
    if surviving < requested {
        // Strict contract: a dropped node is an error, not degradation.
        let cause = reports
            .iter()
            .find_map(|r| if r.outcome.is_dropped() { r.error.clone() } else { None });
        return Err(cause.unwrap_or(NumError::InvalidArgument("sample point dropped")));
    }
    let svd = robust_svd(&zmat)?.0;
    span.field_u64("surviving", surviving as u64);
    span.field_u64("total_cols", zmat.ncols() as u64);
    drop(span);
    Ok(SampleBasis { svd, points: kept })
}

/// A reduced model produced by any PMTBR variant.
#[derive(Debug, Clone)]
pub struct PmtbrModel {
    /// The reduced model (congruence-projected: `W = V`).
    pub reduced: StateSpace,
    /// The projection basis (`n × order`).
    pub v: DMat,
    /// All singular values of the sample matrix (before truncation).
    pub singular_values: Vec<f64>,
    /// The realized order.
    pub order: usize,
    /// Trailing singular-value sum at the realized order — the PMTBR
    /// error estimate (not a strict bound; see paper Section V-B).
    pub error_estimate: f64,
}

/// Runs PMTBR (Algorithm 1) end to end.
///
/// Equivalent to executing [`ReductionPlan::pmtbr`] through
/// [`crate::pipeline::run`] with [`RunCtx::default`]: failed nodes
/// degrade the sweep gracefully and the per-point account is discarded
/// (run the plan through the pipeline to inspect it, or to inject a
/// [`crate::FaultPlan`]), and the run is traced under the
/// `pmtbr.sample_sweep` span.
///
/// # Errors
///
/// Propagates sampling, solve, SVD, and projection errors.
///
/// # Examples
///
/// ```
/// use circuits::rc_mesh;
/// use pmtbr::{pmtbr, PmtbrOptions, Sampling};
///
/// # fn main() -> Result<(), numkit::NumError> {
/// let sys = rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0)?;
/// let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 10.0, n: 15 })
///     .with_max_order(6);
/// let model = pmtbr(&sys, &opts)?;
/// assert!(model.order <= 6);
/// assert!(model.reduced.is_stable()?);
/// # Ok(())
/// # }
/// ```
pub fn pmtbr<S: LtiSystem + ?Sized>(sys: &S, opts: &PmtbrOptions) -> Result<PmtbrModel, NumError> {
    Ok(crate::pipeline::run(sys, &ReductionPlan::pmtbr(opts), &RunCtx::default())?.model)
}

/// Projects a system onto a precomputed [`SampleBasis`] under the given
/// truncation options — the second half of Algorithm 1, split out so
/// multiple orders can be extracted from one (expensive) sampling pass.
///
/// # Errors
///
/// Propagates projection errors (e.g. a singular reduced descriptor).
pub fn reduce_with_basis<S: LtiSystem + ?Sized>(
    sys: &S,
    basis: &SampleBasis,
    opts: &PmtbrOptions,
) -> Result<PmtbrModel, NumError> {
    let s = basis.singular_values();
    if s.is_empty() || s[0] == 0.0 {
        return Err(NumError::InvalidArgument("sample basis is empty"));
    }
    let by_tol = s.iter().take_while(|&&x| x > opts.tolerance() * s[0]).count().max(1);
    let order = opts.max_order().map_or(by_tol, |cap| by_tol.min(cap)).min(s.len());
    let v = basis.basis(order);
    let reduced = sys.project(&v, &v)?;
    Ok(PmtbrModel {
        reduced,
        v,
        singular_values: s.to_vec(),
        order,
        error_estimate: s.iter().skip(order).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuits::{clock_tree, rc_mesh};
    use numkit::c64;

    #[test]
    fn equilibrated_svd_matches_direct_on_graded_columns() {
        // Full-rank columns spanning 12 orders of magnitude — the regime
        // where the plain Jacobi sweep budget is under the most pressure.
        // Distinct frequencies per column keep the matrix full rank.
        let a = DMat::from_fn(8, 5, |i, j| {
            let scale = 10f64.powi(-3 * j as i32);
            scale * ((i * 7 + 1) as f64 * (0.37 + 0.11 * j as f64)).sin()
        });
        let direct = svd(&a).unwrap();
        let opts = SvdOptions { max_sweeps: Some(400), ..SvdOptions::default() };
        let equil = super::equilibrated_svd(&a, &opts).unwrap();
        assert_eq!(direct.s.len(), equil.s.len());
        for (d, e) in direct.s.iter().zip(&equil.s) {
            assert!((d - e).abs() <= 1e-10 * direct.s[0], "{d} vs {e}");
        }
        // The recombination must be an actual factorization of A.
        let k = equil.s.len();
        let mut recon = DMat::zeros(8, 5);
        for i in 0..8 {
            for j in 0..5 {
                for t in 0..k {
                    recon[(i, j)] += equil.u[(i, t)] * equil.s[t] * equil.v[(j, t)];
                }
            }
        }
        assert!((&recon - &a).norm_max() < 1e-12 * direct.s[0]);
        // And U must be orthonormal.
        let g = equil.u.transpose().matmul(&equil.u).unwrap();
        let ortho = (&g - &DMat::identity(k)).norm_max();
        assert!(ortho < 1e-12, "orthonormality defect {ortho}");
    }

    #[test]
    fn equilibrated_svd_truncates_rank_deficient_input_cleanly() {
        // Every column is a combination of one sin/cos pair → rank 2.
        // The equilibrated path must truncate the noise directions
        // instead of returning non-orthogonal null vectors.
        let a = DMat::from_fn(8, 5, |i, j| {
            let scale = 10f64.powi(-3 * j as i32);
            scale * ((i * 7 + j * 3 + 1) as f64 * 0.37).sin()
        });
        let opts = SvdOptions { max_sweeps: Some(400), ..SvdOptions::default() };
        let equil = super::equilibrated_svd(&a, &opts).unwrap();
        let k = equil.s.len();
        assert!(k < 5, "noise directions must be truncated: {:?}", equil.s);
        assert!(equil.s[1] > 1e-12 * equil.s[0], "both true directions kept");
        let g = equil.u.transpose().matmul(&equil.u).unwrap();
        let ortho = (&g - &DMat::identity(k)).norm_max();
        assert!(ortho < 1e-12, "orthonormality defect {ortho}");
        let direct = svd(&a).unwrap();
        for (d, e) in direct.s.iter().take(2).zip(&equil.s) {
            assert!((d - e).abs() <= 1e-10 * direct.s[0], "{d} vs {e}");
        }
    }

    #[test]
    fn options_builder() {
        let opts = PmtbrOptions::new(Sampling::Linear { omega_max: 1.0, n: 2 })
            .with_tolerance(1e-6)
            .with_max_order(3);
        assert_eq!(opts.tolerance(), 1e-6);
        assert_eq!(opts.max_order(), Some(3));
    }

    #[test]
    fn pmtbr_reduces_rc_mesh_accurately() {
        let sys = rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0).unwrap();
        let opts =
            PmtbrOptions::new(Sampling::Linear { omega_max: 20.0, n: 25 }).with_max_order(8);
        let m = pmtbr(&sys, &opts).unwrap();
        assert!(m.order <= 8);
        for &w in &[0.0f64, 0.3, 1.0, 5.0] {
            let s = c64::new(0.0, w);
            let h = sys.transfer_function(s).unwrap();
            let hr = m.reduced.transfer_function(s).unwrap();
            let err = (&h - &hr).norm_max();
            assert!(err < 1e-3 * h.norm_max().max(1e-12), "w={w}: error {err}");
        }
    }

    #[test]
    fn singular_values_decay_for_low_order_system() {
        let sys = clock_tree(4, 1.0, 1.0, 0.5, 2.0).unwrap();
        let basis =
            sample_basis(&sys, &Sampling::Linear { omega_max: 10.0, n: 30 }).unwrap();
        let s = basis.singular_values();
        assert!(s[10] < 1e-8 * s[0], "clock tree must be intrinsically low order");
        // Error estimates are non-increasing tail sums.
        let est = basis.error_estimates();
        for w in est.windows(2) {
            assert!(w[0] >= w[1] - 1e-15);
        }
    }

    #[test]
    fn suggest_order_matches_tail_definition() {
        let sys = clock_tree(3, 1.0, 1.0, 0.5, 2.0).unwrap();
        let basis =
            sample_basis(&sys, &Sampling::Linear { omega_max: 10.0, n: 20 }).unwrap();
        let q = basis.suggest_order(1e-6);
        let tail: f64 = basis.singular_values().iter().skip(q).sum();
        assert!(tail < 1e-6);
        if q > 0 {
            let tail_prev: f64 = basis.singular_values().iter().skip(q - 1).sum();
            assert!(tail_prev >= 1e-6);
        }
    }

    #[test]
    fn tolerance_controls_order() {
        let sys = rc_mesh(4, 4, &[0], 1.0, 1.0, 2.0).unwrap();
        let sampling = Sampling::Linear { omega_max: 20.0, n: 20 };
        let loose = pmtbr(&sys, &PmtbrOptions::new(sampling.clone()).with_tolerance(1e-2))
            .unwrap();
        let tight = pmtbr(&sys, &PmtbrOptions::new(sampling).with_tolerance(1e-12)).unwrap();
        assert!(loose.order < tight.order, "{} !< {}", loose.order, tight.order);
    }

    #[test]
    fn projection_basis_is_orthonormal() {
        let sys = rc_mesh(3, 3, &[0, 8], 1.0, 1.0, 2.0).unwrap();
        let m = pmtbr(
            &sys,
            &PmtbrOptions::new(Sampling::Linear { omega_max: 10.0, n: 10 }).with_max_order(5),
        )
        .unwrap();
        let g = &m.v.transpose() * &m.v;
        assert!((&g - &DMat::identity(m.order)).norm_max() < 1e-10);
    }

    #[test]
    fn log_sampling_works_on_wide_dynamics() {
        let sys = clock_tree(4, 1.0, 1.0, 0.5, 2.0).unwrap();
        let m = pmtbr(
            &sys,
            &PmtbrOptions::new(Sampling::Log { omega_min: 1e-3, omega_max: 1e3, n: 25 })
                .with_max_order(8),
        )
        .unwrap();
        let s = c64::new(0.0, 0.1);
        let h = sys.transfer_function(s).unwrap()[(0, 0)];
        let hr = m.reduced.transfer_function(s).unwrap()[(0, 0)];
        assert!((h - hr).abs() < 1e-4 * h.abs());
    }
}
