//! Content-addressed artifact cache for the reduction pipeline.
//!
//! Reduction-as-a-service needs warm requests to skip work a previous
//! run already paid for, **without** changing a single bit of the
//! answer. This module provides the substrate: an [`ArtifactCache`]
//! trait the pipeline consults at stage boundaries, a no-op
//! [`NullCache`] (the default, so cached and uncached runs execute the
//! identical code path), and a deterministic in-memory [`LruCache`]
//! with a byte-budget eviction policy.
//!
//! # Keys
//!
//! Every key is a [`CacheKey`]: an [`ArtifactKind`] plus the system's
//! [`lti::LtiSystem::pencil_hash`] and a digest of everything else that
//! can change the bits of the result — the full [`ReductionPlan`]
//! (sampling nodes, input directions, compressor, order control), the
//! run's [`FaultPlan`], and the [`Budget`] caps. Two
//! runs with equal keys are bit-identical by the determinism contract,
//! so a cache hit is exact, never approximate.
//!
//! # Identity contract
//!
//! - A **cold** run through a cache (every lookup misses) is
//!   byte-identical — model, report, trace, and counters — to a run
//!   through [`NullCache`]: both emit the same `cache_lookup` /
//!   `cache_store` spans, and [`obs::Counter::CacheBytes`] counts bytes
//!   *offered* for admission whether or not the backend keeps them.
//! - A **warm** model hit returns the stored [`Reduction`] clone and
//!   replays the trace events captured when the entry was computed
//!   (see [`obs::replay`]), so the work events are byte-identical to
//!   the cold run; only the `cache_lookup` outcome and the hit/miss
//!   counters legitimately differ.
//! - A **sweep** hit reuses the realified sample matrix and re-runs
//!   compress/project live (this is what lets a warm run with a
//!   different compressor "skip straight to compress"); the model is
//!   bit-identical, the trace simply has no sweep span to replay.
//!
//! # Poisoned entries
//!
//! A Degraded result is never admitted ([`crate::StageOutcome`]): a
//! degraded model encodes *this run's* fault and budget history, and
//! serving it to a later identical request would launder a degraded
//! answer as a clean one. The pipeline enforces this before every
//! `put`; [`LruCache`] is policy-free storage.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use lti::hash::Fnv64;
use numkit::DMat;
use obs::Counter;

use crate::pipeline::{Compressor, InputDirections, OrderControl, ReductionPlan, Reduction};
use crate::{Budget, FaultPlan, Sampling};

/// Which pipeline stage an artifact caches. Part of the key, so kinds
/// can never collide even when their digests do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArtifactKind {
    /// A finished reduced model (skips the whole pipeline).
    Model,
    /// A realified sample sweep (skips straight to compress/project).
    Sweep,
    /// A serialized symbolic LU analysis (`sparsekit::SymbolicLu`
    /// bytes), keyed on the pencil and its priming shift.
    Symbolic,
    /// A serialized factored shift (`sparsekit::SparseLu<c64>` bytes).
    Factor,
}

impl ArtifactKind {
    /// Stable label used in `cache_lookup` trace spans.
    pub fn label(self) -> &'static str {
        match self {
            ArtifactKind::Model => "model",
            ArtifactKind::Sweep => "sweep",
            ArtifactKind::Symbolic => "symbolic",
            ArtifactKind::Factor => "factor",
        }
    }
}

/// Content address of one artifact: kind, pencil hash, request digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// Stage the artifact belongs to.
    pub kind: ArtifactKind,
    /// [`lti::LtiSystem::pencil_hash`] of the system.
    pub pencil: u64,
    /// Digest of everything else that can change the result's bits.
    pub digest: u64,
}

impl CacheKey {
    /// Key for a finished reduced model.
    pub fn model(pencil: u64, digest: u64) -> Self {
        CacheKey { kind: ArtifactKind::Model, pencil, digest }
    }

    /// Key for a realified sample sweep.
    pub fn sweep(pencil: u64, digest: u64) -> Self {
        CacheKey { kind: ArtifactKind::Sweep, pencil, digest }
    }

    /// Key for a serialized symbolic LU analysis. The digest is the
    /// priming shift's bit pattern: reusing a symbolic analysis primed
    /// at a *different* shift would change the pivot order and thus the
    /// result's bits (see `DESIGN.md`, "Service architecture").
    pub fn symbolic(pencil: u64, shift: numkit::c64) -> Self {
        CacheKey { kind: ArtifactKind::Symbolic, pencil, digest: shift_digest(shift) }
    }

    /// Key for a serialized factored shift.
    pub fn factor(pencil: u64, shift: numkit::c64) -> Self {
        CacheKey { kind: ArtifactKind::Factor, pencil, digest: shift_digest(shift) }
    }
}

/// Digest of one complex shift (exact bit pattern — a shift perturbed
/// by one ulp is a different factorization).
fn shift_digest(s: numkit::c64) -> u64 {
    let mut h = Fnv64::new();
    h.label("pmtbr-shift-v1");
    h.word(s.re.to_bits()).word(s.im.to_bits());
    h.finish()
}

/// A cached finished reduction: the result plus the trace events the
/// computing run emitted, so a warm hit can replay them byte-for-byte.
#[derive(Debug, Clone)]
pub struct CachedReduction {
    /// The finished reduction (model, diagnostics, report).
    pub reduction: Reduction,
    /// Trace events captured while the entry was computed (empty when
    /// the computing run was untraced).
    pub events: Vec<obs::Event>,
    /// Sequential-root numbering watermark of `events` (pre-computed so
    /// a warm hit can advance live numbering with
    /// [`obs::skip_seq_roots`] before replaying).
    pub seq_watermark: u64,
    /// `true` when `events` is a faithful capture (the computing run
    /// was traced). A traced run must treat an unfaithful entry as a
    /// miss, or its trace would silently lose the pipeline spans.
    pub traced: bool,
}

/// A cached sample sweep: everything compress/project need, minus the
/// (unfinishable) open trace span.
#[derive(Debug, Clone)]
pub struct CachedSweep {
    /// Weighted realified controllability samples.
    pub zmat: DMat,
    /// Column range of each surviving node's block in `zmat`.
    pub blocks: Vec<(usize, usize)>,
    /// Weighted realified observability samples (two-sided sweeps only).
    pub zl: Option<DMat>,
    /// Per-node ladder reports, index-aligned with the requested nodes.
    pub reports: Vec<lti::ShiftReport>,
    /// Number of nodes requested.
    pub requested: usize,
    /// Number of nodes that survived.
    pub surviving: usize,
    /// Uniform quadrature-weight renormalization factor.
    pub renorm: f64,
}

/// One cached artifact. Large payloads sit behind [`Arc`] so a hit is a
/// pointer clone, never a matrix copy.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// A finished reduced model.
    Model(Arc<CachedReduction>),
    /// A realified sample sweep.
    Sweep(Arc<CachedSweep>),
    /// Serialized `sparsekit::SymbolicLu` bytes.
    Symbolic(Arc<Vec<u8>>),
    /// Serialized `sparsekit::SparseLu<c64>` bytes.
    Factor(Arc<Vec<u8>>),
}

impl Artifact {
    /// Deterministic size estimate used for byte-budget accounting and
    /// the [`obs::Counter::CacheBytes`] counter. A pure function of the
    /// artifact's contents — never of the backend's state — so every
    /// backend offers identical byte counts.
    pub fn approx_bytes(&self) -> usize {
        match self {
            Artifact::Model(m) => {
                let model = &m.reduction.model;
                let mats = dmat_bytes(&model.reduced.a)
                    + dmat_bytes(&model.reduced.b)
                    + dmat_bytes(&model.reduced.c)
                    + dmat_bytes(&model.reduced.d)
                    + dmat_bytes(&model.v)
                    + model.singular_values.len() * 8;
                let diag = m.reduction.diagnostics.reports.len() * 48;
                mats + diag + m.events.len() * 160 + 128
            }
            Artifact::Sweep(s) => {
                dmat_bytes(&s.zmat)
                    + s.zl.as_ref().map_or(0, dmat_bytes)
                    + s.blocks.len() * 16
                    + s.reports.len() * 48
                    + 96
            }
            Artifact::Symbolic(b) | Artifact::Factor(b) => b.len(),
        }
    }
}

fn dmat_bytes(m: &DMat) -> usize {
    m.nrows() * m.ncols() * 8
}

/// Storage the pipeline consults at stage boundaries.
///
/// Implementations are *policy-free byte stores*: admission policy
/// (never cache a Degraded result) and all counter/trace emission live
/// in the pipeline, so every backend observes identical traffic and a
/// cold run is byte-identical across backends.
pub trait ArtifactCache: Send + Sync {
    /// Returns the artifact stored under `key`, if any, refreshing its
    /// recency.
    fn get(&self, key: &CacheKey) -> Option<Artifact>;

    /// Offers an artifact for admission. The backend may store it,
    /// evict older entries to make room, or discard the offer.
    fn put(&self, key: CacheKey, value: Artifact);

    /// `(entries, bytes)` currently resident.
    fn stats(&self) -> (usize, usize);
}

/// The no-op cache: every lookup misses, every offer is discarded.
///
/// This is the backend of [`crate::pipeline::RunCtx::default`], which
/// keeps the cached and uncached code paths literally the same path.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullCache;

impl ArtifactCache for NullCache {
    fn get(&self, _key: &CacheKey) -> Option<Artifact> {
        None
    }

    fn put(&self, _key: CacheKey, _value: Artifact) {}

    fn stats(&self) -> (usize, usize) {
        (0, 0)
    }
}

/// In-memory least-recently-used cache with a byte budget.
///
/// Deterministic by construction: entries live in `BTreeMap`s (numlint
/// DET01 — no hash-order iteration), recency is an explicit monotone
/// sequence number, and eviction pops the smallest sequence number
/// until the budget holds. An artifact larger than the whole budget is
/// discarded outright (evicting everything still wouldn't fit it).
/// Evictions increment [`obs::Counter::CacheEvict`] — the one counter
/// that is backend state, which is why the identity contract pins it
/// only on hit-free runs.
#[derive(Debug)]
pub struct LruCache {
    budget: usize,
    inner: Mutex<LruInner>,
}

#[derive(Debug, Default)]
struct LruInner {
    entries: BTreeMap<CacheKey, LruEntry>,
    recency: BTreeMap<u64, CacheKey>,
    seq: u64,
    bytes: usize,
}

#[derive(Debug)]
struct LruEntry {
    value: Artifact,
    bytes: usize,
    seq: u64,
}

impl LruCache {
    /// Creates a cache holding at most `budget_bytes` of artifact data
    /// (as measured by [`Artifact::approx_bytes`]).
    pub fn new(budget_bytes: usize) -> Self {
        LruCache { budget: budget_bytes, inner: Mutex::new(LruInner::default()) }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LruInner> {
        // A poisoned mutex means another thread panicked mid-update;
        // the maps themselves are always structurally valid between
        // statements that hold the lock, so continuing is safe.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl ArtifactCache for LruCache {
    fn get(&self, key: &CacheKey) -> Option<Artifact> {
        let mut inner = self.lock();
        inner.seq += 1;
        let seq = inner.seq;
        let entry = inner.entries.get_mut(key)?;
        let old = entry.seq;
        entry.seq = seq;
        let value = entry.value.clone();
        inner.recency.remove(&old);
        inner.recency.insert(seq, *key);
        Some(value)
    }

    fn put(&self, key: CacheKey, value: Artifact) {
        let bytes = value.approx_bytes();
        if bytes > self.budget {
            return;
        }
        let mut inner = self.lock();
        inner.seq += 1;
        let seq = inner.seq;
        if let Some(old) = inner.entries.remove(&key) {
            inner.recency.remove(&old.seq);
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        inner.entries.insert(key, LruEntry { value, bytes, seq });
        inner.recency.insert(seq, key);
        while inner.bytes > self.budget {
            let Some((&oldest, _)) = inner.recency.iter().next() else { break };
            let Some(victim) = inner.recency.remove(&oldest) else { break };
            if let Some(evicted) = inner.entries.remove(&victim) {
                inner.bytes -= evicted.bytes;
                obs::counters::add(Counter::CacheEvict, 1);
            }
        }
    }

    fn stats(&self) -> (usize, usize) {
        let inner = self.lock();
        (inner.entries.len(), inner.bytes)
    }
}

/// Digest of the fault plan a run actually uses. Fault injection
/// changes results bit-for-bit, so it must be part of every key. `None`
/// hashes to the same word an unset `PMTBR_FAULT` variable did when the
/// key was taken from the environment, so fault-free keys (and the
/// `cache_lookup` digests in traces) are unchanged; a plan hashes its
/// seed, rate bits, kinds, depth, and stages, in that order.
pub(crate) fn fault_digest(faults: Option<&FaultPlan>) -> u64 {
    let mut h = Fnv64::new();
    h.label("pmtbr-fault-env-v1");
    match faults {
        None => {
            h.word(0);
        }
        Some(p) => {
            h.word(1).word(p.seed).word(p.rate.to_bits()).word(p.kinds.len() as u64);
            for kind in &p.kinds {
                h.word(*kind as u64);
            }
            h.word(p.depth as u64).word(p.stages.len() as u64);
            for stage in &p.stages {
                h.word(*stage as u64);
            }
        }
    }
    h.finish()
}

/// Digest of the budget caps (the cancel token carries no numeric
/// semantics and is excluded).
fn budget_words(h: &mut Fnv64, budget: &Budget) {
    for cap in [budget.max_lu_factors, budget.max_svd_sweeps, budget.max_sample_bytes] {
        match cap {
            Some(v) => h.word(1).word(v),
            None => h.word(0).word(0),
        };
    }
}

fn sampling_words(h: &mut Fnv64, sampling: &Sampling) {
    match sampling {
        Sampling::Linear { omega_max, n } => {
            h.word(1).word(omega_max.to_bits()).word(*n as u64);
        }
        Sampling::Log { omega_min, omega_max, n } => {
            h.word(2).word(omega_min.to_bits()).word(omega_max.to_bits()).word(*n as u64);
        }
        Sampling::Bands { bands, n } => {
            h.word(3).word(bands.len() as u64).word(*n as u64);
            for (lo, hi) in bands {
                h.word(lo.to_bits()).word(hi.to_bits());
            }
        }
        Sampling::Custom(points) => {
            h.word(4).word(points.len() as u64);
            for p in points {
                h.word(p.s.re.to_bits()).word(p.s.im.to_bits()).word(p.weight.to_bits());
            }
        }
        Sampling::Greedy { omega_max, pool, tol, max_shifts } => {
            h.word(5)
                .word(omega_max.to_bits())
                .word(*pool as u64)
                .word(tol.to_bits())
                .word(*max_shifts as u64);
        }
    }
}

fn directions_words(h: &mut Fnv64, directions: &InputDirections) {
    match directions {
        InputDirections::IdentityBlock => {
            h.word(1);
        }
        InputDirections::Correlated { u_samples, n_draws, corr_tol, seed } => {
            h.word(2)
                .word(lti::hash::hash_dense(6, u_samples))
                .word(*n_draws as u64)
                .word(corr_tol.to_bits())
                .word(*seed);
        }
    }
}

fn order_words(h: &mut Fnv64, order: &OrderControl) {
    match order {
        OrderControl::Tolerance { tolerance, max_order } => {
            h.word(1).word(tolerance.to_bits());
            match max_order {
                Some(q) => h.word(1).word(*q as u64),
                None => h.word(0).word(0),
            };
        }
        OrderControl::Exact(q) => {
            h.word(2).word(*q as u64);
        }
    }
}

fn compressor_word(compressor: &Compressor) -> u64 {
    match compressor {
        Compressor::JacobiSvd => 1,
        Compressor::Incremental => 2,
        Compressor::Balance => 3,
        Compressor::CrossGramian => 4,
    }
}

/// Digest of a full model request: plan + fault plan + budget caps.
/// Everything that can change the finished model's bits, except the
/// pencil itself (which is the other half of the key).
pub(crate) fn model_digest(plan: &ReductionPlan, faults: u64, budget: &Budget) -> u64 {
    let mut h = Fnv64::new();
    h.label("pmtbr-model-key-v1");
    sampling_words(&mut h, &plan.sampling);
    directions_words(&mut h, &plan.directions);
    h.word(compressor_word(&plan.compressor));
    order_words(&mut h, &plan.order);
    h.word(faults);
    budget_words(&mut h, budget);
    h.finish()
}

/// Digest of a sweep request: everything the sweep stage's bits depend
/// on. The compressor contributes only its *sidedness* (a two-sided
/// sweep also solves the transposed system), and order control not at
/// all — that is exactly what lets plans differing only in compressor
/// or order share one cached sweep.
pub(crate) fn sweep_digest(plan: &ReductionPlan, faults: u64, budget: &Budget) -> u64 {
    let mut h = Fnv64::new();
    h.label("pmtbr-sweep-key-v1");
    sampling_words(&mut h, &plan.sampling);
    directions_words(&mut h, &plan.directions);
    h.word(u64::from(plan.compressor.is_two_sided()));
    h.word(faults);
    budget_words(&mut h, budget);
    h.finish()
}

/// Emits the `cache_lookup` span (artifact kind, key, outcome) and
/// bumps the hit/miss counters. Called on *every* lookup, hit or miss,
/// by every backend — the span sequence is part of the trace identity
/// contract.
pub(crate) fn record_lookup(key: &CacheKey, hit: bool) {
    obs::counters::add(if hit { Counter::CacheHit } else { Counter::CacheMiss }, 1);
    let mut sp = obs::span("cache_lookup");
    sp.field_str("artifact", key.kind.label());
    sp.field_u64("pencil", key.pencil);
    sp.field_u64("digest", key.digest);
    sp.field_str("outcome", if hit { "hit" } else { "miss" });
}

/// Offers an artifact for admission: counts the bytes offered (a pure
/// function of the artifact, identical for every backend), emits the
/// `cache_store` span, and forwards to the backend.
pub(crate) fn record_offer(cache: &dyn ArtifactCache, key: CacheKey, value: Artifact) {
    let bytes = value.approx_bytes();
    obs::counters::add(Counter::CacheBytes, bytes as u64);
    let mut sp = obs::span("cache_store");
    sp.field_str("artifact", key.kind.label());
    sp.field_u64("pencil", key.pencil);
    sp.field_u64("digest", key.digest);
    sp.field_u64("bytes", bytes as u64);
    cache.put(key, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(bytes: usize) -> Artifact {
        Artifact::Symbolic(Arc::new(vec![0u8; bytes]))
    }

    #[test]
    fn null_cache_never_stores() {
        let c = NullCache;
        c.put(CacheKey::model(1, 2), probe(10));
        assert!(c.get(&CacheKey::model(1, 2)).is_none());
        assert_eq!(c.stats(), (0, 0));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let c = LruCache::new(100);
        c.put(CacheKey::model(1, 0), probe(40));
        c.put(CacheKey::model(2, 0), probe(40));
        // Touch entry 1 so entry 2 becomes the eviction victim.
        assert!(c.get(&CacheKey::model(1, 0)).is_some());
        c.put(CacheKey::model(3, 0), probe(40));
        assert!(c.get(&CacheKey::model(1, 0)).is_some());
        assert!(c.get(&CacheKey::model(2, 0)).is_none());
        assert!(c.get(&CacheKey::model(3, 0)).is_some());
        assert_eq!(c.stats(), (2, 80));
    }

    #[test]
    fn oversized_offers_are_discarded() {
        let c = LruCache::new(16);
        c.put(CacheKey::sweep(1, 0), probe(17));
        assert_eq!(c.stats(), (0, 0));
        c.put(CacheKey::sweep(1, 0), probe(16));
        assert_eq!(c.stats(), (1, 16));
    }

    #[test]
    fn replacing_a_key_reclaims_its_bytes() {
        let c = LruCache::new(100);
        c.put(CacheKey::factor(1, numkit::c64::new(0.0, 1.0)), probe(60));
        c.put(CacheKey::factor(1, numkit::c64::new(0.0, 1.0)), probe(30));
        assert_eq!(c.stats(), (1, 30));
    }

    #[test]
    fn kinds_never_collide() {
        let c = LruCache::new(1000);
        c.put(CacheKey::model(7, 9), probe(8));
        assert!(c.get(&CacheKey::sweep(7, 9)).is_none());
        assert!(c.get(&CacheKey::model(7, 9)).is_some());
    }

    #[test]
    fn shift_digest_is_bit_exact() {
        let a = shift_digest(numkit::c64::new(0.0, 1.0));
        let b = shift_digest(numkit::c64::new(0.0, 1.0 + f64::EPSILON));
        let neg = shift_digest(numkit::c64::new(-0.0, 1.0));
        assert_ne!(a, b);
        assert_ne!(a, neg, "-0.0 primes a different factorization than +0.0");
    }
}
