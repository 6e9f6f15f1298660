//! Folds one job's wall-clock trace into per-layer seconds.
//!
//! The program's spans are stamped by `obs::WallClock`, whose origin is
//! private to each root span, so only durations (exit − enter within
//! one root) are meaningful. Spans on the handler thread are roots of
//! the `"seq"` unit and never overlap; their sum is the covered part of
//! the handler. Per-shift ladders are roots of the `"shift"` unit and
//! may run on several workers at once, so their LU time is busy time;
//! dividing it by the worker count turns it into its share of the
//! sweep's wall time (exact at one worker, an even-spread estimate at
//! two).

use std::collections::BTreeMap;

/// Seconds spent in each traced layer during one job.
#[derive(Debug, Default, Clone, Copy)]
pub struct Spans {
    /// `netlist.build` (the parse is not spanned inside the handler).
    pub build: f64,
    /// `cache_lookup` spans.
    pub lookup: f64,
    /// `cache_store` spans.
    pub store: f64,
    /// `sparse_lu.factor` busy time summed over workers.
    pub factor: f64,
    /// `sparse_lu.refactor` busy time summed over workers.
    pub refactor: f64,
    /// Every outermost `svd.jacobi` span.
    pub svd: f64,
    /// `svd.jacobi` nested in `pmtbr.compress`.
    pub svd_in_compress: f64,
    /// `svd.jacobi` nested directly in the sweep (greedy's basis SVDs).
    pub svd_in_sweep: f64,
    /// `svd.jacobi` nested in `pmtbr.project`.
    pub svd_in_project: f64,
    /// `pmtbr.compress`, inclusive.
    pub compress: f64,
    /// `pmtbr.sample_sweep`, inclusive (it closes after compress).
    pub sweep: f64,
    /// `pmtbr.project`, inclusive.
    pub project: f64,
    /// Sum of the handler thread's root spans.
    pub covered: f64,
}

impl Spans {
    /// Folds `trace`'s enter/exit pairs. On a model-cache hit
    /// (`model_hit`) the pipeline replays the cold run's recorded
    /// events, durations included; only the live spans (netlist build
    /// and cache access) are counted then.
    pub fn fold(trace: &obs::Trace, model_hit: bool) -> Spans {
        let mut open: BTreeMap<(&str, u64), Vec<(String, u64)>> = BTreeMap::new();
        let mut s = Spans::default();
        // Events are sorted by (unit, item, seq): within one root spans
        // close in LIFO order, so a per-root stack pairs them.
        for ev in trace.events() {
            if ev.is_enter() {
                open.entry(ev.key())
                    .or_default()
                    .push((ev.span_path().to_string(), ev.t()));
                continue;
            }
            if !ev.is_exit() {
                continue;
            }
            let Some((path, t0)) = open.get_mut(&ev.key()).and_then(Vec::pop) else {
                continue;
            };
            let dur = ev.t().saturating_sub(t0) as f64 * 1e-9;
            let name = path.rsplit('/').next().unwrap_or("");
            // Count only the outermost span of a name (retry ladders
            // nest a span inside one of the same name).
            if path.matches(name).count() > 1 {
                continue;
            }
            if model_hit && !matches!(name, "netlist.build" | "cache_lookup" | "cache_store") {
                continue;
            }
            if ev.key().0 == "seq" && !path.contains('/') {
                s.covered += dur;
            }
            match name {
                "netlist.build" => s.build += dur,
                "cache_lookup" => s.lookup += dur,
                "cache_store" => s.store += dur,
                "sparse_lu.factor" => s.factor += dur,
                "sparse_lu.refactor" => s.refactor += dur,
                "pmtbr.compress" => s.compress += dur,
                "pmtbr.sample_sweep" => s.sweep += dur,
                "pmtbr.project" => s.project += dur,
                "svd.jacobi" => {
                    s.svd += dur;
                    if path.contains("pmtbr.compress") {
                        s.svd_in_compress += dur;
                    } else if path.contains("pmtbr.project") {
                        s.svd_in_project += dur;
                    } else if path.contains("pmtbr.sample_sweep") {
                        s.svd_in_sweep += dur;
                    }
                }
                _ => {}
            }
        }
        s
    }

    /// LU factor plus refactor as a share of wall time at `workers`.
    pub fn lu_wall(&self, workers: usize) -> f64 {
        (self.factor + self.refactor) / workers.max(1) as f64
    }

    /// The sweep minus its nested LU, SVD and compress spans: sample
    /// assembly, triangular solves and (on the greedy plan) surrogate
    /// scoring.
    pub fn sweep_self(&self, workers: usize) -> f64 {
        (self.sweep - self.compress - self.svd_in_sweep - self.lu_wall(workers)).max(0.0)
    }

    /// Compress minus its nested SVD.
    pub fn compress_self(&self) -> f64 {
        (self.compress - self.svd_in_compress).max(0.0)
    }

    /// Project minus its nested SVD.
    pub fn project_self(&self) -> f64 {
        (self.project - self.svd_in_project).max(0.0)
    }

    /// The layer partition of one handler call of `handler` seconds:
    /// `(layer, seconds)` pairs that add up to `handler`.
    pub fn partition(&self, handler: f64, workers: usize) -> [(&'static str, f64); 8] {
        [
            ("circuits.build", self.build),
            ("cache.lookup+store", self.lookup + self.store),
            ("sparsekit.lu", self.lu_wall(workers)),
            ("numkit.svd", self.svd),
            ("pmtbr.compress_self", self.compress_self()),
            ("pmtbr.sweep_self", self.sweep_self(workers)),
            ("pmtbr.project_self", self.project_self()),
            ("unattributed", (handler - self.covered).max(0.0)),
        ]
    }
}
