//! Deterministic fault injection for the reduction pipeline.
//!
//! Robustness code that only runs when hardware misbehaves is dead code
//! until the day it isn't. This module makes the escalation ladders
//! testable on demand: a [`FaultPlan`] implements [`lti::SolveFault`]
//! and deterministically injects numerical faults into a chosen
//! fraction of sample points — singular pivots, NaN contamination,
//! small solution drift, or outright worker panics — and, with
//! `stage=` targeting, into the compress and project stages of
//! [`crate::pipeline`] as well.
//!
//! Determinism: whether (and how) point `index` is faulted depends only
//! on `(seed, index)` via a per-index [`SplitMix64`] stream, and
//! whether a pipeline stage is faulted depends only on
//! `(seed, stage)` — never on thread scheduling. Faulted runs keep the
//! bit-identical-at-any-thread-count guarantee, and a failing run
//! reproduces exactly.
//!
//! A run takes its plan from [`crate::pipeline::RunCtx::faults`]; the
//! library never reads it from the environment. The `pmtbr-cli` binary
//! exposes chaos testing without a dedicated flag by parsing the
//! `PMTBR_FAULT` variable with [`FaultPlan::parse_spec`]:
//!
//! ```text
//! PMTBR_FAULT="seed=42,rate=0.25,kinds=singular|nan|drift|panic,stage=compress"
//! ```
//!
//! A malformed spec is a hard error, never a silently unfaulted run: a
//! chaos harness that typos `rate=0.5` into `rte=0.5` must hear about
//! it instead of concluding the pipeline survived a storm it never saw.

use lti::SolveFault;
use numkit::{c64, NumError, SplitMix64, ZMat};

/// The kinds of injectable faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Factorization attempts fail with [`NumError::Singular`] until the
    /// ladder has escalated `depth` rungs — exercising the perturbation
    /// rung when `depth` exceeds the refactor+refresh rung count.
    Singular,
    /// The first solution is contaminated with a NaN — exercising
    /// residual certification and the fresh-factorization rung.
    Nan,
    /// The first solution is multiplied by `1 + 1e-6` — a silent small
    /// error that only iterative refinement can detect and repair.
    Drift,
    /// The worker computing this point panics — exercising panic
    /// containment and graceful sample dropping.
    Panic,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        match s.trim() {
            "singular" => Some(FaultKind::Singular),
            "nan" => Some(FaultKind::Nan),
            "drift" => Some(FaultKind::Drift),
            "panic" => Some(FaultKind::Panic),
            _ => None,
        }
    }
}

/// The pipeline stages a [`FaultPlan`] can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStage {
    /// The multipoint sampling sweep (per-shift faults through
    /// [`lti::SolveFault`] — the PR-2 behavior, and the default).
    Sweep,
    /// The compression stage (SVD / eigendecomposition of the sample
    /// stack): faults poison compressor-ladder attempts.
    Compress,
    /// The projection stage: faults poison projection attempts.
    Project,
}

impl FaultStage {
    fn parse(s: &str) -> Option<FaultStage> {
        match s.trim() {
            "sweep" => Some(FaultStage::Sweep),
            "compress" => Some(FaultStage::Compress),
            "project" => Some(FaultStage::Project),
            _ => None,
        }
    }

    /// Lower-case label (`"sweep"`, `"compress"`, `"project"`).
    pub fn label(&self) -> &'static str {
        match self {
            FaultStage::Sweep => "sweep",
            FaultStage::Compress => "compress",
            FaultStage::Project => "project",
        }
    }

    /// Per-stage seed salt, so `stage_fault` draws an independent
    /// deterministic stream per stage.
    fn salt(self) -> u64 {
        match self {
            FaultStage::Sweep => 0xA076_1D64_78BD_642F,
            FaultStage::Compress => 0xE703_7ED1_A0B4_28DB,
            FaultStage::Project => 0x8EBC_6AF0_9C88_C6E3,
        }
    }
}

/// A deterministic fault-injection plan over sweep indices and
/// pipeline stages.
///
/// The stage hooks ([`FaultPlan::stage_error`],
/// [`FaultPlan::stage_panics`]) take the pipeline's per-stage attempt
/// counter (0 = first try), shared across a stage's whole recovery
/// ladder — so a fault of depth `d` forces exactly `d` escalations
/// before letting the stage through, whichever rung those escalations
/// land on.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    pub(crate) seed: u64,
    pub(crate) rate: f64,
    pub(crate) kinds: Vec<FaultKind>,
    pub(crate) depth: usize,
    pub(crate) stages: Vec<FaultStage>,
}

impl FaultPlan {
    /// A plan faulting roughly `rate` of all sweep indices, choosing
    /// uniformly among `kinds`. `depth` is how many attempts a fault
    /// poisons before letting the ladder through (2 ⇒ refactor and
    /// refresh both fail, forcing the perturbation rung). Targets the
    /// sweep stage only; see [`FaultPlan::with_stages`].
    pub fn new(seed: u64, rate: f64, kinds: Vec<FaultKind>, depth: usize) -> Self {
        FaultPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
            kinds,
            depth,
            stages: vec![FaultStage::Sweep],
        }
    }

    /// Replaces the targeted stage set (builder style).
    pub fn with_stages(mut self, stages: Vec<FaultStage>) -> Self {
        self.stages = stages;
        self
    }

    /// Parses a `PMTBR_FAULT`-style spec string.
    ///
    /// Comma-separated `key=value` pairs: `seed` (u64, default 0),
    /// `rate` (fraction in `[0,1]`, default 0.25), `kinds`
    /// (`|`-separated subset of `singular|nan|drift|panic`, default all),
    /// `depth` (default 2), `stage` (`|`-separated subset of
    /// `sweep|compress|project` or `all`, default `sweep`).
    ///
    /// # Errors
    ///
    /// `Ok(None)` for an empty, `off`, or `0` spec; `Err` with a
    /// human-readable message for unknown keys, unknown kind/stage
    /// tokens, or unparsable values — a bad spec must never run
    /// unfaulted.
    pub fn parse_spec(spec: &str) -> Result<Option<FaultPlan>, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "off" || spec == "0" {
            return Ok(None);
        }
        let mut plan = FaultPlan::new(
            0,
            0.25,
            vec![FaultKind::Singular, FaultKind::Nan, FaultKind::Drift, FaultKind::Panic],
            2,
        );
        for part in spec.split(',') {
            let part = part.trim();
            let Some((key, value)) = part.split_once('=') else {
                return Err(format!(
                    "malformed PMTBR_FAULT segment `{part}`: expected key=value \
                     (keys: seed, rate, kinds, depth, stage)"
                ));
            };
            let value = value.trim();
            match key.trim() {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("invalid PMTBR_FAULT seed `{value}`: expected u64"))?;
                }
                "rate" => {
                    let v: f64 = value.parse().map_err(|_| {
                        format!("invalid PMTBR_FAULT rate `{value}`: expected a number in [0,1]")
                    })?;
                    if !(0.0..=1.0).contains(&v) {
                        return Err(format!(
                            "invalid PMTBR_FAULT rate `{value}`: must be in [0,1]"
                        ));
                    }
                    plan.rate = v;
                }
                "depth" => {
                    plan.depth = value.parse().map_err(|_| {
                        format!("invalid PMTBR_FAULT depth `{value}`: expected an integer")
                    })?;
                }
                "kinds" => {
                    let mut kinds = Vec::new();
                    for tok in value.split('|') {
                        let kind = FaultKind::parse(tok).ok_or_else(|| {
                            format!(
                                "unknown PMTBR_FAULT kind `{}`: expected \
                                 singular|nan|drift|panic",
                                tok.trim()
                            )
                        })?;
                        if !kinds.contains(&kind) {
                            kinds.push(kind);
                        }
                    }
                    if kinds.is_empty() {
                        return Err("PMTBR_FAULT kinds list is empty".to_string());
                    }
                    plan.kinds = kinds;
                }
                "stage" | "stages" => {
                    let mut stages = Vec::new();
                    for tok in value.split('|') {
                        if tok.trim() == "all" {
                            stages =
                                vec![FaultStage::Sweep, FaultStage::Compress, FaultStage::Project];
                            break;
                        }
                        let stage = FaultStage::parse(tok).ok_or_else(|| {
                            format!(
                                "unknown PMTBR_FAULT stage `{}`: expected \
                                 sweep|compress|project|all",
                                tok.trim()
                            )
                        })?;
                        if !stages.contains(&stage) {
                            stages.push(stage);
                        }
                    }
                    if stages.is_empty() {
                        return Err("PMTBR_FAULT stage list is empty".to_string());
                    }
                    plan.stages = stages;
                }
                other => {
                    return Err(format!(
                        "unknown PMTBR_FAULT key `{other}`: expected \
                         seed, rate, kinds, depth, or stage"
                    ));
                }
            }
        }
        Ok(Some(plan))
    }

    /// `true` when this plan injects faults into `stage`.
    pub fn targets(&self, stage: FaultStage) -> bool {
        self.stages.contains(&stage)
    }

    /// The fault (if any) this plan assigns to sweep index `index` —
    /// a pure function of `(seed, index)`. `None` when the sweep stage
    /// is not targeted.
    pub fn fault_for(&self, index: usize) -> Option<FaultKind> {
        if !self.targets(FaultStage::Sweep) {
            return None;
        }
        self.draw(self.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The fault (if any) this plan assigns to pipeline stage `stage` —
    /// a pure function of `(seed, stage)`. `None` when `stage` is not
    /// targeted. The sweep stage is excluded (it faults per *index*,
    /// via [`FaultPlan::fault_for`]).
    pub fn stage_fault(&self, stage: FaultStage) -> Option<FaultKind> {
        if stage == FaultStage::Sweep || !self.targets(stage) {
            return None;
        }
        self.draw(self.seed ^ stage.salt())
    }

    /// The error a stage-targeted fault injects into attempt `attempt`
    /// of `stage`, or `None` once the ladder has escalated past
    /// `depth` attempts (or for panic-kind faults, which unwind via
    /// [`FaultPlan::stage_panics`] instead).
    pub fn stage_error(&self, stage: FaultStage, attempt: usize) -> Option<NumError> {
        if attempt >= self.depth {
            return None;
        }
        match self.stage_fault(stage)? {
            FaultKind::Singular => Some(NumError::Singular { pivot: attempt }),
            FaultKind::Nan => Some(NumError::NotFinite),
            FaultKind::Drift => {
                Some(NumError::NotConverged { algorithm: "fault-injection", iterations: attempt })
            }
            FaultKind::Panic => None,
        }
    }

    /// `true` when attempt `attempt` of `stage` must panic (contained
    /// by the stage ladder's `catch_unwind`).
    pub fn stage_panics(&self, stage: FaultStage, attempt: usize) -> bool {
        attempt < self.depth && self.stage_fault(stage) == Some(FaultKind::Panic)
    }

    fn draw(&self, stream: u64) -> Option<FaultKind> {
        if self.kinds.is_empty() {
            return None;
        }
        let mut rng = SplitMix64::new(stream);
        if rng.next_f64() >= self.rate {
            return None;
        }
        Some(self.kinds[rng.next_usize(self.kinds.len())])
    }

    /// The configured fault rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl SolveFault for FaultPlan {
    fn inject_error(&self, index: usize, attempt: usize) -> Option<NumError> {
        match self.fault_for(index) {
            Some(FaultKind::Singular) if attempt < self.depth => {
                Some(NumError::Singular { pivot: index })
            }
            _ => None,
        }
    }

    fn corrupt(&self, index: usize, attempt: usize, z: &mut ZMat) {
        if attempt != 0 {
            return; // corruption hits only the first factorization's solve
        }
        match self.fault_for(index) {
            Some(FaultKind::Nan)
                if z.nrows() > 0 && z.ncols() > 0 => {
                    z[(0, 0)] = c64::new(f64::NAN, 0.0);
                }
            Some(FaultKind::Drift) => {
                for i in 0..z.nrows() {
                    for j in 0..z.ncols() {
                        z[(i, j)] = z[(i, j)].scale(1.0 + 1e-6);
                    }
                }
            }
            _ => {}
        }
    }

    fn inject_panic(&self, index: usize) -> bool {
        self.fault_for(index) == Some(FaultKind::Panic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<FaultKind> {
        vec![FaultKind::Singular, FaultKind::Nan, FaultKind::Drift, FaultKind::Panic]
    }

    #[test]
    fn fault_assignment_is_deterministic_and_rate_respecting() {
        let plan = FaultPlan::new(7, 0.25, all_kinds(), 2);
        let first: Vec<_> = (0..400).map(|i| plan.fault_for(i)).collect();
        let second: Vec<_> = (0..400).map(|i| plan.fault_for(i)).collect();
        assert_eq!(first, second);
        let faulted = first.iter().filter(|f| f.is_some()).count();
        assert!((50..150).contains(&faulted), "rate 0.25 gave {faulted}/400");
    }

    #[test]
    fn zero_rate_never_faults_and_full_rate_always_does() {
        let silent = FaultPlan::new(1, 0.0, all_kinds(), 2);
        let loud = FaultPlan::new(1, 1.0, all_kinds(), 2);
        for i in 0..100 {
            assert_eq!(silent.fault_for(i), None);
            assert!(loud.fault_for(i).is_some());
        }
    }

    #[test]
    fn singular_injection_respects_depth() {
        let plan = FaultPlan::new(3, 1.0, vec![FaultKind::Singular], 2);
        let idx = 0;
        assert!(plan.inject_error(idx, 0).is_some());
        assert!(plan.inject_error(idx, 1).is_some());
        assert!(plan.inject_error(idx, 2).is_none());
        // Non-singular kinds never inject factorization errors.
        let nan = FaultPlan::new(3, 1.0, vec![FaultKind::Nan], 2);
        assert!(nan.inject_error(idx, 0).is_none());
    }

    #[test]
    fn corruption_applies_only_to_first_attempt() {
        let plan = FaultPlan::new(5, 1.0, vec![FaultKind::Nan], 2);
        let mut z = ZMat::zeros(2, 2);
        plan.corrupt(0, 1, &mut z);
        assert!(!z[(0, 0)].re.is_nan());
        plan.corrupt(0, 0, &mut z);
        assert!(z[(0, 0)].re.is_nan());
    }

    #[test]
    fn spec_parsing_roundtrip() {
        let plan = FaultPlan::parse_spec("seed=9,rate=0.5,kinds=drift|panic,depth=3")
            .expect("spec must be well-formed")
            .expect("plan must parse");
        assert_eq!(plan.seed, 9);
        assert!((plan.rate - 0.5).abs() < 1e-15);
        assert_eq!(plan.kinds, vec![FaultKind::Drift, FaultKind::Panic]);
        assert_eq!(plan.depth, 3);
        assert_eq!(plan.stages, vec![FaultStage::Sweep]);
        assert!(FaultPlan::parse_spec("").expect("empty is off").is_none());
        assert!(FaultPlan::parse_spec("off").expect("off is off").is_none());
        assert!(FaultPlan::parse_spec("0").expect("0 is off").is_none());
    }

    #[test]
    fn malformed_specs_are_rejected_not_ignored() {
        // The historical bug: `rte=0.5` ran completely unfaulted.
        assert!(FaultPlan::parse_spec("rte=0.5").is_err());
        assert!(FaultPlan::parse_spec("rate").is_err());
        assert!(FaultPlan::parse_spec("rate=fast").is_err());
        assert!(FaultPlan::parse_spec("rate=1.5").is_err());
        assert!(FaultPlan::parse_spec("seed=-1").is_err());
        assert!(FaultPlan::parse_spec("depth=two").is_err());
        assert!(FaultPlan::parse_spec("kinds=singular|typo").is_err());
        assert!(FaultPlan::parse_spec("stage=compress|typo").is_err());
        let msg = FaultPlan::parse_spec("rte=0.5").unwrap_err();
        assert!(msg.contains("rte"), "error names the bad key: {msg}");
    }

    #[test]
    fn stage_targeting_parses_and_gates_injection() {
        let plan = FaultPlan::parse_spec("seed=42,rate=1.0,kinds=singular,stage=compress")
            .expect("well-formed")
            .expect("parses");
        assert_eq!(plan.stages, vec![FaultStage::Compress]);
        // Sweep hooks are inert when the sweep stage is not targeted.
        assert_eq!(plan.fault_for(0), None);
        assert!(plan.inject_error(0, 0).is_none());
        assert!(!plan.inject_panic(0));
        // Compress-stage draws are deterministic and respect depth.
        assert_eq!(plan.stage_fault(FaultStage::Compress), Some(FaultKind::Singular));
        assert_eq!(plan.stage_fault(FaultStage::Project), None);
        assert!(plan.stage_error(FaultStage::Compress, 0).is_some());
        assert!(plan.stage_error(FaultStage::Compress, 1).is_some());
        assert!(plan.stage_error(FaultStage::Compress, 2).is_none());

        let all = FaultPlan::parse_spec("rate=1.0,stage=all").expect("ok").expect("plan");
        assert!(all.targets(FaultStage::Sweep));
        assert!(all.targets(FaultStage::Compress));
        assert!(all.targets(FaultStage::Project));

        // Panic-kind stage faults unwind instead of erroring.
        let p = FaultPlan::parse_spec("rate=1.0,kinds=panic,stage=project")
            .expect("ok")
            .expect("plan");
        assert!(p.stage_panics(FaultStage::Project, 0));
        assert!(!p.stage_panics(FaultStage::Project, 2));
        assert!(p.stage_error(FaultStage::Project, 0).is_none());
    }
}
