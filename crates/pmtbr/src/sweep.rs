//! Fault-tolerant PMTBR sweeps: partial sampling with quadrature-weight
//! renormalization and full per-shift diagnostics.
//!
//! PMTBR's sample matrix is a numerical quadrature of the Gramian
//! integral (paper eq. (8)–(11)), so a failed sample point is a lost
//! quadrature node — the right response is to *degrade* the rule, not
//! abort the reduction. [`sample_basis_tolerant`] runs the multipoint
//! sweep through the escalation ladder
//! ([`LtiSystem::solve_shifted_many_tolerant`]), builds the basis from
//! the surviving columns, and renormalizes the surviving quadrature
//! weights so they still carry the full rule's mass:
//!
//! ```text
//! w̃ₖ = wₖ · Σall w / Σsurviving w
//! ```
//!
//! The renormalization is a single uniform scale factor, so it cannot
//! rotate the sample subspace — it only restores the magnitude of the
//! Gramian estimate (and hence the singular-value/error scale) that the
//! dropped nodes would have contributed.
//!
//! Every sweep returns a [`SweepDiagnostics`] accounting for the fate
//! of *each* requested sample point, which the CLI surfaces as a
//! degradation report and exit-code policy.

use lti::{LtiSystem, RecoveryPolicy, ShiftOutcome, ShiftReport, SolveFault};
use numkit::NumError;

use crate::algorithm::{robust_svd, SampleBasis};
use crate::pipeline::{InputDirections, SweptSamples};
use crate::Sampling;

/// The complete account of a fault-tolerant sampling sweep.
#[derive(Debug, Clone)]
pub struct SweepDiagnostics {
    /// Per-shift ladder reports, index-aligned with the requested
    /// sample points (every requested point appears exactly once).
    pub reports: Vec<ShiftReport>,
    /// Number of sample points requested.
    pub requested: usize,
    /// Number of sample points that produced a basis column block.
    pub surviving: usize,
    /// The uniform factor applied to surviving quadrature weights
    /// (`1.0` for a complete sweep).
    pub weight_renormalization: f64,
    /// Whether the sample-matrix SVD needed the equilibrated retry.
    pub svd_retried: bool,
}

impl SweepDiagnostics {
    /// Number of dropped sample points.
    pub fn dropped(&self) -> usize {
        self.requested - self.surviving
    }

    /// `true` when any sample point was dropped or perturbed — i.e. the
    /// sweep did not execute exactly as requested.
    pub fn is_degraded(&self) -> bool {
        self.dropped() > 0
            || self.reports.iter().any(|r| matches!(r.outcome, ShiftOutcome::Perturbed { .. }))
    }

    /// Count of reports with the given outcome label (see
    /// [`ShiftOutcome::label`]).
    pub fn count(&self, label: &str) -> usize {
        self.reports.iter().filter(|r| r.outcome.label() == label).count()
    }

    /// Worst (smallest) reciprocal condition estimate among accepted
    /// solves; `NaN` when none was estimated.
    pub fn worst_rcond(&self) -> f64 {
        self.reports
            .iter()
            .filter(|r| !r.outcome.is_dropped())
            .map(|r| r.rcond)
            .filter(|r| r.is_finite())
            .fold(f64::NAN, |acc, r| if acc.is_nan() || r < acc { r } else { acc })
    }

    /// Largest certified residual among accepted solves; `NaN` when no
    /// sample survived.
    pub fn worst_residual(&self) -> f64 {
        self.reports
            .iter()
            .filter(|r| !r.outcome.is_dropped())
            .map(|r| r.residual)
            .fold(f64::NAN, |acc, r| if acc.is_nan() || r > acc { r } else { acc })
    }

    /// A one-paragraph human-readable account, used by the CLI's
    /// degradation report.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "sweep: {}/{} sample points survived",
            self.surviving, self.requested
        );
        for label in ["reused", "refactored", "refreshed", "refined", "perturbed", "dropped"] {
            let n = self.count(label);
            if n > 0 {
                s.push_str(&format!(", {n} {label}"));
            }
        }
        // numlint:allow(FLOAT01) complete sweeps give total/surviving = x/x, exactly 1.0 in IEEE; only gates a diagnostic string
        if self.weight_renormalization != 1.0 {
            s.push_str(&format!(
                ", weights renormalized by {:.6}",
                self.weight_renormalization
            ));
        }
        if self.svd_retried {
            s.push_str(", svd retried with equilibration");
        }
        if let Some(worst) = self
            .reports
            .iter()
            .filter(|r| r.outcome.is_dropped())
            .filter_map(|r| r.error.as_ref())
            .next()
        {
            s.push_str(&format!(", first drop cause: {worst}"));
        }
        s
    }
}

/// Computes the PMTBR sample basis through the fault-tolerance ladder,
/// degrading gracefully: dropped sample points lose their columns, the
/// surviving quadrature weights are renormalized, and the full
/// per-point account is returned alongside the basis.
///
/// The returned [`SampleBasis`] keeps only surviving points, each with
/// the shift *actually solved* (perturbed where the ladder had to
/// nudge) and its renormalized weight.
///
/// # Errors
///
/// - Propagates sampling validation errors.
/// - [`NumError::InvalidArgument`] if every sample point was dropped or
///   all surviving weighted samples vanished — with zero quadrature
///   nodes there is no model to build, degraded or otherwise.
pub fn sample_basis_tolerant<S: LtiSystem + ?Sized>(
    sys: &S,
    sampling: &Sampling,
    policy: &RecoveryPolicy,
    faults: &dyn SolveFault,
) -> Result<(SampleBasis, SweepDiagnostics), NumError> {
    let SweptSamples { kept, zmat, reports, requested, surviving, renorm, mut span, .. } =
        crate::pipeline::sweep(
            sys,
            sampling,
            &InputDirections::IdentityBlock,
            false,
            policy,
            faults,
            None,
        )?;
    let (svd, svd_retried) = robust_svd(&zmat)?;
    span.field_u64("surviving", surviving as u64);
    span.field_u64("total_cols", zmat.ncols() as u64);
    span.field_f64("renorm", renorm);
    span.field("svd_retried", obs::Value::Bool(svd_retried));
    drop(span);
    let diagnostics = SweepDiagnostics {
        reports,
        requested,
        surviving,
        weight_renormalization: renorm,
        svd_retried,
    };
    Ok((SampleBasis { svd, points: kept }, diagnostics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::pipeline::{run, ReductionPlan, RunCtx};
    use crate::{pmtbr, sample_basis, PmtbrOptions};
    use circuits::rc_mesh;
    use lti::NoFaults;
    use numkit::c64;

    #[test]
    fn clean_tolerant_sweep_matches_strict_pipeline() {
        let sys = rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0).unwrap();
        let sampling = Sampling::Linear { omega_max: 20.0, n: 15 };
        let strict = sample_basis(&sys, &sampling).unwrap();
        let (tolerant, diag) = sample_basis_tolerant(
            &sys,
            &sampling,
            &RecoveryPolicy::default(),
            &NoFaults,
        )
        .unwrap();
        assert!(!diag.is_degraded());
        assert_eq!(diag.surviving, diag.requested);
        assert_eq!(diag.weight_renormalization, 1.0);
        assert_eq!(strict.svd.s.len(), tolerant.svd.s.len());
        for (a, b) in strict.svd.s.iter().zip(&tolerant.svd.s) {
            assert!((a - b).abs() <= 1e-12 * strict.svd.s[0], "{a} vs {b}");
        }
    }

    #[test]
    fn dropped_points_renormalize_weights_and_still_reduce() {
        let sys = rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0).unwrap();
        let sampling = Sampling::Linear { omega_max: 20.0, n: 16 };
        // Panic faults drop points outright — the harshest degradation.
        let plan = FaultPlan::new(11, 0.3, vec![FaultKind::Panic], 2);
        let opts = PmtbrOptions::new(sampling.clone()).with_max_order(8);
        let ctx = RunCtx { faults: Some(plan), ..RunCtx::default() };
        let red = run(&sys, &ReductionPlan::pmtbr(&opts), &ctx).unwrap();
        let (model, diag) = (red.model, red.diagnostics);
        assert!(diag.dropped() > 0, "plan must actually drop points");
        assert!(diag.surviving > 0);
        assert!(diag.weight_renormalization > 1.0);
        assert_eq!(diag.reports.len(), diag.requested);
        // The degraded model must still track the full model closely.
        let full = pmtbr(&sys, &opts).unwrap();
        for &w in &[0.0f64, 0.5, 2.0, 10.0] {
            let s = c64::new(0.0, w);
            let h = sys.transfer_function(s).unwrap()[(0, 0)];
            let hd = model.reduced.transfer_function(s).unwrap()[(0, 0)];
            let hf = full.reduced.transfer_function(s).unwrap()[(0, 0)];
            assert!(
                (h - hd).abs() < 1e-2 * h.abs().max(1e-12),
                "w={w}: degraded model error {}",
                (h - hd).abs()
            );
            // Sanity: the full model is also accurate (the comparison
            // above is meaningful).
            assert!((h - hf).abs() < 1e-3 * h.abs().max(1e-12));
        }
    }

    #[test]
    fn diagnostics_summary_mentions_degradation() {
        let sys = rc_mesh(3, 3, &[0, 8], 1.0, 1.0, 2.0).unwrap();
        let plan = FaultPlan::new(2, 0.4, vec![FaultKind::Panic], 2);
        let (_, diag) = sample_basis_tolerant(
            &sys,
            &Sampling::Linear { omega_max: 10.0, n: 12 },
            &RecoveryPolicy::default(),
            &plan,
        )
        .unwrap();
        let text = diag.summary();
        assert!(text.contains("sample points survived"), "{text}");
        if diag.dropped() > 0 {
            assert!(text.contains("dropped"), "{text}");
            assert!(text.contains("weights renormalized"), "{text}");
        }
    }

    #[test]
    fn all_points_dropped_is_a_clean_error() {
        let sys = rc_mesh(3, 3, &[0], 1.0, 1.0, 2.0).unwrap();
        let plan = FaultPlan::new(1, 1.0, vec![FaultKind::Panic], 2);
        let err = sample_basis_tolerant(
            &sys,
            &Sampling::Linear { omega_max: 10.0, n: 6 },
            &RecoveryPolicy::default(),
            &plan,
        )
        .unwrap_err();
        assert!(matches!(err, NumError::InvalidArgument(_)));
    }

    #[test]
    fn drift_faults_are_repaired_not_dropped() {
        let sys = rc_mesh(4, 4, &[0, 15], 1.0, 1.0, 2.0).unwrap();
        let plan = FaultPlan::new(21, 0.5, vec![FaultKind::Drift], 2);
        let (_, diag) = sample_basis_tolerant(
            &sys,
            &Sampling::Linear { omega_max: 20.0, n: 12 },
            &RecoveryPolicy::default(),
            &plan,
        )
        .unwrap();
        assert_eq!(diag.dropped(), 0, "drift must never cost a sample");
        assert!(diag.count("refined") > 0, "refinement must have engaged: {}", diag.summary());
        assert!(diag.worst_residual() <= 1e-10);
    }
}
