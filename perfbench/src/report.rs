//! Metric names, units, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::cal::{self, Calibrator};
use crate::layers::Spans;
use crate::stats;

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("jobs_per_kcal", "jobs/kcal"),
    ("latency_p50_cal", "cal"),
    ("latency_tail_cal", "cal"),
    ("peak_rss_mb", "MB"),
    ("in_band_err", "ratio"),
    ("ok_frac", "frac"),
];

/// The per-layer metrics every traced run reports, with units. Times
/// are per job in cal; counts are per job over the counting prefix.
/// A metric that does not apply to a workload reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("numkit.svd_cal", "cal/job"),
    ("pmtbr.compress_self_cal", "cal/job"),
    ("numkit.svd_sweeps", "count/job"),
    ("numkit.svd_rotations", "count/job"),
    ("numkit.svd_rounds", "count/job"),
    ("numkit.svd_qr_precond", "count/job"),
    ("sparsekit.factor_cal", "cal/job"),
    ("sparsekit.refactor_cal", "cal/job"),
    ("sparsekit.lu_symbolic", "count/job"),
    ("sparsekit.lu_factor", "count/job"),
    ("sparsekit.lu_reuse_hit", "count/job"),
    ("sparsekit.refine_iters", "count/job"),
    ("pmtbr.sweep_self_cal", "cal/job"),
    ("pmtbr.sample_bytes", "B/job"),
    ("pmtbr.shift_dropped", "count/job"),
    ("greedy.scored", "count/job"),
    ("greedy.accepted", "count/job"),
    ("greedy.accept_ratio", "ratio"),
    ("pmtbr.sweep_scaling", "x"),
    ("pmtbr.project_cal", "cal/job"),
    ("circuits.parse_cal", "cal/job"),
    ("circuits.build_cal", "cal/job"),
    ("cache.lookup_cal", "cal/job"),
    ("cache.store_cal", "cal/job"),
    ("cache.hit", "count/job"),
    ("cache.miss", "count/job"),
    ("cache.evict", "count/job"),
    ("cache.bytes", "B/job"),
    ("cache.hit_ratio", "ratio"),
    ("serve.hit_share", "ratio"),
    ("serve.request_codec_cal", "cal/job"),
    ("serve.result_codec_cal", "cal/job"),
    ("serve.overhead_cal", "cal/job"),
    ("serve.batches", "count/job"),
    ("serve.grouped", "count/job"),
    ("cli.handler_cal", "cal/job"),
    ("unattributed_frac", "frac"),
    ("obs.trace_overhead_frac", "frac"),
];

/// The machine's available parallelism, for the run record.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One run's outcome: the counts, the metrics, and the human-readable
/// run record printed above the result line.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub record: Vec<String>,
}

impl Report {
    /// Records a failed output check (the run is then not correct).
    pub fn error(&mut self, msg: String) {
        self.errors.push(msg);
    }

    /// Prints the run record, then the result line, and returns whether
    /// the run was correct.
    pub fn print(&self, trace: bool) -> bool {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for line in &self.record {
            println!("{line}");
        }
        for e in self.errors.iter().take(20) {
            println!("check failed: {e}");
        }
        if self.errors.len() > 20 {
            println!("check failed: ... {} more", self.errors.len() - 20);
        }
        let mut correct = self.errors.is_empty() && self.attempted > 0;
        let mut body = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let mut v = self.metrics.get(name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                correct = false;
                v = 0.0;
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted, self.failed
        );
        correct
    }
}

/// Closed-loop timings of one untraced run.
#[derive(Debug, Default)]
pub struct Timed {
    /// Per-job latency in cal.
    pub latency_cal: Vec<f64>,
    /// Per-job latency in seconds.
    pub latency_s: Vec<f64>,
    /// Timed wall time in cal, summed over windows.
    pub wall_cal: f64,
    /// Timed wall time in seconds.
    pub wall_s: f64,
}

impl Timed {
    /// Adds one window of `secs` seconds judged against `cal_s`.
    pub fn window(&mut self, secs: f64, cal_s: f64) {
        self.wall_s += secs;
        self.wall_cal += secs / cal_s;
    }

    /// Adds one job latency judged against `cal_s`.
    pub fn job(&mut self, secs: f64, cal_s: f64) {
        self.latency_s.push(secs);
        self.latency_cal.push(secs / cal_s);
    }

    /// Completed jobs per 1000 cal of timed wall time.
    pub fn jobs_per_kcal(&self) -> f64 {
        1000.0 * self.latency_cal.len() as f64 / self.wall_cal.max(f64::MIN_POSITIVE)
    }
}

/// Fills the end-to-end metrics and their run-record lines.
pub fn end_to_end(
    rep: &mut Report,
    setup_s: &[f64],
    timed: &Timed,
    peak_rss_mb: f64,
    in_band_err: f64,
    ok: u64,
    cal: &Calibrator,
) {
    let (tail, pct, beyond) = stats::tail(&timed.latency_cal);
    let (tail_s, _, _) = stats::tail(&timed.latency_s);
    let cal_s = stats::median(cal.samples());
    let m = &mut rep.metrics;
    m.insert("setup_s", stats::median(setup_s));
    m.insert("jobs_per_kcal", timed.jobs_per_kcal());
    m.insert("latency_p50_cal", stats::median(&timed.latency_cal));
    m.insert("latency_tail_cal", tail);
    m.insert("peak_rss_mb", peak_rss_mb);
    m.insert("in_band_err", in_band_err);
    m.insert("ok_frac", ok as f64 / rep.attempted.max(1) as f64);
    let n = timed.latency_cal.len() as f64;
    rep.record.extend([
        format!(
            "calibration: cal_s {cal_s:.6} ({} thread(s), {} samples, {:.2} GFLOP/s, quartile spread {:.3})",
            cal.threads(),
            cal.samples().len(),
            cal::FLOPS / cal_s / 1e9,
            stats::spread(cal.samples()),
        ),
        format!("setup_s {:.4} s (median of {} set-ups: {setup_s:.4?})", m["setup_s"], setup_s.len()),
        format!(
            "jobs_per_kcal {:.4} jobs/kcal ({} jobs in {:.3} s = {:.2} kcal; raw {:.4} jobs/s)",
            m["jobs_per_kcal"],
            timed.latency_cal.len(),
            timed.wall_s,
            timed.wall_cal / 1000.0,
            n / timed.wall_s.max(f64::MIN_POSITIVE),
        ),
        format!(
            "latency_p50_cal {:.4} cal (raw {:.6} s)",
            m["latency_p50_cal"],
            stats::median(&timed.latency_s)
        ),
        format!("latency_tail_cal {tail:.4} cal at p{pct:.2}, {beyond} of {n} samples beyond (raw {tail_s:.6} s)"),
        format!(
            "within-run latency quartile spread: {:.3} in cal, {:.3} raw",
            stats::spread(&timed.latency_cal),
            stats::spread(&timed.latency_s)
        ),
        format!("peak_rss_mb {peak_rss_mb:.2} MB (VmHWM)"),
        format!("in_band_err {in_band_err:.6e}"),
        format!("ok_frac {:.4} ({ok} of {} jobs clean, accepted and byte-verified)", m["ok_frac"], rep.attempted),
    ]);
}

/// One traced job: its folded spans and timings.
#[derive(Debug, Clone, Copy)]
pub struct TracedJob {
    pub spans: Spans,
    /// Handler wall time in seconds.
    pub handler_s: f64,
    /// The calibration figure the job is judged against.
    pub cal_s: f64,
}

/// Fills the per-layer time metrics shared by every workload from the
/// traced jobs, and the layer-share lines of the run record.
pub fn layer_times(rep: &mut Report, jobs: &[TracedJob], workers: usize) {
    let n = jobs.len().max(1) as f64;
    let per_job =
        |f: &dyn Fn(&TracedJob) -> f64| jobs.iter().map(|j| f(j) / j.cal_s).sum::<f64>() / n;
    let handler = per_job(&|j| j.handler_s);
    let covered = per_job(&|j| j.spans.covered.min(j.handler_s));
    let m = &mut rep.metrics;
    m.insert("cli.handler_cal", handler);
    m.insert("numkit.svd_cal", per_job(&|j| j.spans.svd));
    m.insert(
        "pmtbr.compress_self_cal",
        per_job(&|j| j.spans.compress_self()),
    );
    m.insert(
        "sparsekit.factor_cal",
        per_job(&|j| j.spans.factor / workers as f64),
    );
    m.insert(
        "sparsekit.refactor_cal",
        per_job(&|j| j.spans.refactor / workers as f64),
    );
    m.insert(
        "pmtbr.sweep_self_cal",
        per_job(&|j| j.spans.sweep_self(workers)),
    );
    m.insert("pmtbr.project_cal", per_job(&|j| j.spans.project));
    m.insert("circuits.build_cal", per_job(&|j| j.spans.build));
    m.insert("cache.lookup_cal", per_job(&|j| j.spans.lookup));
    m.insert("cache.store_cal", per_job(&|j| j.spans.store));
    m.insert(
        "unattributed_frac",
        if handler > 0.0 {
            1.0 - covered / handler
        } else {
            0.0
        },
    );
    rep.record.push(format!(
        "layer shares of the handler ({handler:.4} cal/job over {} traced jobs):",
        jobs.len()
    ));
    let names = jobs
        .first()
        .map(|j| j.spans.partition(j.handler_s, workers).map(|(k, _)| k));
    for (idx, name) in names.into_iter().flatten().enumerate() {
        let v = per_job(&|j| j.spans.partition(j.handler_s, workers)[idx].1);
        let share = if handler > 0.0 { v / handler } else { 0.0 };
        rep.record.push(format!(
            "  {name:<22} {v:>10.4} cal/job  {:>6.1}%",
            100.0 * share
        ));
    }
}

/// Fills the counter metrics from the counter deltas summed over the
/// counting prefix of `jobs` jobs.
pub fn counters(rep: &mut Report, total: &Counts, jobs: u64) {
    use obs::Counter as C;
    let n = jobs.max(1) as f64;
    let per = |c: C| total.get(c) as f64 / n;
    let m = &mut rep.metrics;
    for (name, c) in [
        ("numkit.svd_sweeps", C::SvdSweeps),
        ("numkit.svd_rotations", C::SvdRotations),
        ("numkit.svd_rounds", C::SvdRounds),
        ("numkit.svd_qr_precond", C::SvdQrPrecond),
        ("sparsekit.lu_symbolic", C::LuSymbolic),
        ("sparsekit.lu_factor", C::LuFactor),
        ("sparsekit.lu_reuse_hit", C::LuReuseHit),
        ("sparsekit.refine_iters", C::RefineIters),
        ("pmtbr.sample_bytes", C::SampleBytes),
        ("pmtbr.shift_dropped", C::ShiftDropped),
        ("greedy.scored", C::GreedyScored),
        ("greedy.accepted", C::GreedyAccepted),
        ("cache.hit", C::CacheHit),
        ("cache.miss", C::CacheMiss),
        ("cache.evict", C::CacheEvict),
        ("cache.bytes", C::CacheBytes),
    ] {
        m.insert(name, per(c));
    }
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    m.insert(
        "greedy.accept_ratio",
        ratio(total.get(C::GreedyAccepted), total.get(C::GreedyScored)),
    );
    let lookups = total.get(C::CacheHit) + total.get(C::CacheMiss);
    m.insert("cache.hit_ratio", ratio(total.get(C::CacheHit), lookups));
    rep.record.push(format!(
        "counters over the first {jobs} traced jobs: {}",
        total.line()
    ));
}

/// Counter deltas summed over several jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts([u64; obs::counters::ALL.len()]);

impl Default for Counts {
    fn default() -> Self {
        Counts([0; obs::counters::ALL.len()])
    }
}

impl Counts {
    /// Adds one job's counter delta.
    pub fn add(&mut self, delta: &obs::Snapshot) {
        for (slot, &c) in self.0.iter_mut().zip(obs::counters::ALL.iter()) {
            *slot += delta.get(c);
        }
    }

    /// The summed value of counter `c`.
    pub fn get(&self, c: obs::Counter) -> u64 {
        obs::counters::ALL
            .iter()
            .position(|&k| k == c)
            .map_or(0, |i| self.0[i])
    }

    /// `NAME=value` pairs in the counters' report order.
    pub fn line(&self) -> String {
        let pairs = obs::counters::ALL
            .iter()
            .zip(self.0)
            .map(|(c, v)| format!("{}={v}", c.name()));
        pairs.collect::<Vec<_>>().join(" ")
    }
}
