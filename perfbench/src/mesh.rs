//! The three mesh workloads: one closed-loop caller running
//! `pmtbr_cli::handle_job` back to back, each job on a distinct seeded
//! pencil, with no artifact cache.

use std::time::Instant;

use pmtbr::NullCache;
use pmtbr_cli::handle_job;
use serve::{JobRequest, JobResponse};

use crate::cal::Calibrator;
use crate::check;
use crate::inputs::{self, MeshShape, Rng};
use crate::layers::Spans;
use crate::report::{self, nproc, Counts, Report, Timed, TracedJob};

/// One mesh workload.
#[derive(Debug, Clone, Copy)]
pub struct Mesh {
    pub name: &'static str,
    pub shape: MeshShape,
    /// Worker threads for the sampling engine and the kernel.
    pub workers: usize,
    /// Whether the traced run also measures 1-worker sweep scaling.
    pub scaling: bool,
}

/// SVD-bound: compress is most of a job.
pub const COMPRESS: Mesh = Mesh {
    name: "mesh-compress",
    shape: MeshShape {
        rows: 32,
        cols: 32,
        ports: 16,
        method: "pmtbr",
        samples: 8,
        order: 10,
    },
    workers: 1,
    scaling: false,
};

/// LU-bound: a larger, sparser pencil with few ports, on two workers.
pub const SWEEP: Mesh = Mesh {
    name: "mesh-sweep",
    shape: MeshShape {
        rows: 64,
        cols: 64,
        ports: 4,
        method: "pmtbr",
        samples: 8,
        order: 10,
    },
    workers: 2,
    scaling: true,
};

/// Greedy shift selection: surrogate scoring is most of a job.
pub const GREEDY: Mesh = Mesh {
    name: "mesh-greedy",
    shape: MeshShape {
        rows: 32,
        cols: 32,
        ports: 16,
        method: "greedy",
        samples: 8,
        order: 10,
    },
    workers: 1,
    scaling: false,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: u64 = 3;
/// Jobs whose inputs each set-up generates ahead of the timed phase.
const PREFIX: u64 = 8;
/// Jobs whose models are checked against the full model (they reduce
/// the reference pencils).
const CHECKED: u64 = 2;
/// Traced jobs whose counters make the exact per-layer counts.
const COUNTED: u64 = 3;
/// Stream index of the first warm-up pencil (never a timed job's).
const WARMUP: u64 = 1 << 40;

/// Pins the sampling engine's worker count for the jobs that follow.
pub fn set_workers(n: usize) {
    std::env::set_var("PMTBR_THREADS", n.to_string());
}

impl Mesh {
    /// Job `i` of the run for `seed`. The first [`CHECKED`] jobs reduce
    /// the reference pencils, the same in every run.
    fn job(&self, seed: u64, i: u64) -> JobRequest {
        let stream_seed = if i < CHECKED {
            inputs::REFERENCE_SEED
        } else {
            seed
        };
        let mut rng = Rng::stream(&[stream_seed, inputs::name_id(self.name), i]);
        let title = format!("perfbench {} seed {seed} job {i}", self.name);
        inputs::request(
            &self.shape,
            inputs::mesh_netlist(&self.shape, &mut rng, &title),
        )
    }

    /// Runs the workload for `seconds` and reports end-to-end metrics,
    /// or per-layer metrics when `trace` is set.
    pub fn run(&self, seed: u64, seconds: f64, trace: bool) -> Report {
        set_workers(self.workers);
        let mut rep = Report::default();
        let mut cal = Calibrator::new(self.workers);
        let mut setup_s = Vec::new();
        let mut prefix = Vec::new();
        for s in 0..SETUPS {
            let t0 = Instant::now();
            prefix = (0..PREFIX).map(|i| self.job(seed, i)).collect();
            cal.sample();
            let warm = self.job(seed, WARMUP + s);
            if let Err(e) = check::response(&warm, &handle_job(&warm, &NullCache), self.shape.order)
            {
                rep.error(format!("warm-up job: {e}"));
            }
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        cal.clear();
        let next = |i: u64| {
            prefix
                .get(i as usize)
                .cloned()
                .unwrap_or_else(|| self.job(seed, i))
        };
        let sh = &self.shape;
        rep.record.push(format!(
            "workload {}: seed {seed}, {} worker thread(s), nproc {}, {}x{} mesh ({} states, {} ports), \
             method {}, {} samples, order {}, closed loop with one caller, no artifact cache",
            self.name,
            self.workers,
            nproc(),
            sh.rows,
            sh.cols,
            sh.rows * sh.cols,
            sh.ports,
            sh.method,
            sh.samples,
            sh.order,
        ));
        if trace {
            self.traced(seconds, &next, &mut cal, &mut rep);
        } else {
            self.timed(seconds, &setup_s, &next, &mut cal, &mut rep);
        }
        rep
    }

    fn timed(
        &self,
        seconds: f64,
        setup_s: &[f64],
        next: &dyn Fn(u64) -> JobRequest,
        cal: &mut Calibrator,
        rep: &mut Report,
    ) {
        let mut timed = Timed::default();
        let mut ok = 0;
        let mut checked = Vec::new();
        let start = Instant::now();
        let mut before = cal.sample();
        let mut i = 0;
        while start.elapsed().as_secs_f64() < seconds {
            let job = next(i);
            let (resp, secs) = run_job(&job);
            let after = cal.sample();
            let c = 0.5 * (before + after);
            timed.job(secs, c);
            timed.window(secs, c);
            if self.verify(rep, i, &job, &resp) {
                ok += 1;
            }
            if i < CHECKED {
                checked.push((job, resp));
            }
            before = after;
            i += 1;
        }
        let rss = check::peak_rss_mb().unwrap_or_else(|e| {
            rep.error(format!("peak RSS: {e}"));
            0.0
        });
        let err = check::worst_in_band(rep, &checked);
        report::end_to_end(rep, setup_s, &timed, rss, err, ok, cal);
    }

    fn traced(
        &self,
        seconds: f64,
        next: &dyn Fn(u64) -> JobRequest,
        cal: &mut Calibrator,
        rep: &mut Report,
    ) {
        let mut traced = Vec::new();
        let mut counts = Counts::default();
        let mut untraced_cal = Vec::new();
        let mut parse_cal = 0.0;
        let mut sweep_at = (0.0, 0.0); // (1 worker, workload workers)
        let start = Instant::now();
        let mut before = cal.sample();
        let mut i = 0;
        // Untraced and traced jobs alternate so both see the same host;
        // their gap is the tracing overhead.
        while start.elapsed().as_secs_f64() < seconds || (traced.len() as u64) < COUNTED {
            let job = next(i);
            let (resp, secs) = run_job(&job);
            let after = cal.sample();
            untraced_cal.push(secs / (0.5 * (before + after)));
            self.verify(rep, i, &job, &resp);
            before = after;

            let job = next(i + 1);
            let (resp, secs, trace) = run_traced(&job);
            let after = cal.sample();
            let c = 0.5 * (before + after);
            let spans = Spans::fold(&trace, false);
            traced.push(TracedJob {
                spans,
                handler_s: secs,
                cal_s: c,
            });
            if (traced.len() as u64) <= COUNTED {
                counts.add(&trace.counters);
            }
            let t0 = Instant::now();
            let parsed = circuits::parse_netlist(&job.netlist);
            parse_cal += t0.elapsed().as_secs_f64() / c;
            if parsed.is_err() {
                rep.error(format!("job {}: benchmark-side parse failed", i + 1));
            }
            self.verify(rep, i + 1, &job, &resp);
            if self.scaling {
                set_workers(1);
                let (resp1, _, trace1) = run_traced(&job);
                set_workers(self.workers);
                sweep_at.0 += Spans::fold(&trace1, false).sweep;
                sweep_at.1 += spans.sweep;
                if resp1.encode() != resp.encode() {
                    rep.error(format!(
                        "job {}: 1-worker result differs from {}-worker result",
                        i + 1,
                        self.workers
                    ));
                }
                before = cal.sample();
            } else {
                before = after;
            }
            i += 2;
        }
        report::layer_times(rep, &traced, self.workers);
        report::counters(rep, &counts, COUNTED);
        let n = traced.len() as f64;
        let traced_mean = traced.iter().map(|j| j.handler_s / j.cal_s).sum::<f64>() / n;
        let untraced_mean = untraced_cal.iter().sum::<f64>() / untraced_cal.len() as f64;
        let m = &mut rep.metrics;
        m.insert("circuits.parse_cal", parse_cal / n);
        m.insert("obs.trace_overhead_frac", 1.0 - untraced_mean / traced_mean);
        if self.scaling {
            m.insert("pmtbr.sweep_scaling", sweep_at.0 / sweep_at.1);
            rep.record.push(format!(
                "pmtbr.sweep_scaling {:.4}x (sweep span {:.4} s at 1 worker / {:.4} s at {} over {} jobs)",
                sweep_at.0 / sweep_at.1,
                sweep_at.0,
                sweep_at.1,
                self.workers,
                traced.len()
            ));
        }
        rep.record.push(format!(
            "obs.trace_overhead_frac {:.4} (traced {traced_mean:.4} cal/job vs untraced {untraced_mean:.4})",
            rep.metrics["obs.trace_overhead_frac"]
        ));
    }

    /// Checks one job and counts it; returns whether it was ok.
    fn verify(&self, rep: &mut Report, i: u64, job: &JobRequest, resp: &JobResponse) -> bool {
        rep.attempted += 1;
        match check::response(job, resp, self.shape.order) {
            Ok(()) => true,
            Err(e) => {
                rep.failed += 1;
                rep.error(format!("job {i}: {e}"));
                false
            }
        }
    }
}

/// Runs one job untraced; returns the response and handler seconds.
fn run_job(job: &JobRequest) -> (JobResponse, f64) {
    let t0 = Instant::now();
    let resp = handle_job(job, &NullCache);
    (resp, t0.elapsed().as_secs_f64())
}

/// Runs one job under a wall-clock trace.
fn run_traced(job: &JobRequest) -> (JobResponse, f64, obs::Trace) {
    assert!(
        obs::install(obs::ClockKind::Wall),
        "a trace collector is already installed"
    );
    let (resp, secs) = run_job(job);
    let trace = obs::drain().expect("the collector installed above");
    (resp, secs, trace)
}
