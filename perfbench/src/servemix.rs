//! The serve-mix workload: an in-process `serve::serve` daemon with one
//! worker and an `LruCache`, driven by two closed-loop clients through
//! `serve::submit`.
//!
//! Work is cut into rounds. In each round every client sends
//! [`PER_ROUND`] requests drawn from its own seeded pool of [`MODELS`]
//! fresh 256-state meshes: a model's first request is cold (a full
//! reduction), every later one a model hit, so about 9 in 10 requests
//! hit. Pools belong to one client and one round, and the cache holds
//! several rounds, so whether a request hits depends only on its
//! client's own history, never on how the two clients interleave.
//! Older rounds' entries are evicted as the run goes on; they are never
//! asked for again. The calibration kernel runs between rounds, while
//! no request is in flight.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pmtbr::{LruCache, NullCache};
use pmtbr_cli::handle_job;
use serve::{JobRequest, JobResponse, ServeOptions, ServeStats};

use crate::cal::Calibrator;
use crate::check;
use crate::inputs::{self, MeshShape, Rng};
use crate::layers::Spans;
use crate::mesh::set_workers;
use crate::report::{self, nproc, Counts, Report, Timed, TracedJob};

const NAME: &str = "serve-mix";
const SHAPE: MeshShape = MeshShape {
    rows: 16,
    cols: 16,
    ports: 8,
    method: "pmtbr",
    samples: 8,
    order: 10,
};
const CLIENTS: u64 = 2;
/// Requests per client per round.
const PER_ROUND: usize = 40;
/// Distinct models per client per round (the cold requests).
const MODELS: usize = 4;
/// Artifact-cache budget: several rounds' working set.
const CACHE_BYTES: usize = 16 << 20;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Traced rounds whose counters make the exact per-layer counts.
const COUNTED: u64 = 2;
/// Served results per client and round compared with a local run, in
/// the first two rounds.
const SAMPLED: usize = 1;
/// Round index of the warm-up pools (never a timed round's).
const WARMUP: u64 = 1 << 40;
const TIMEOUT: Duration = Duration::from_secs(60);

/// One client's requests for one round.
struct Plan {
    round: u64,
    traced: bool,
    jobs: Vec<JobRequest>,
    /// Model index of each request.
    seq: Vec<usize>,
    /// Positions whose result is compared with a local run.
    sampled: Vec<usize>,
}

fn plan(seed: u64, client: u64, round: u64, traced: bool) -> Plan {
    let mut rng = Rng::stream(&[seed, inputs::name_id(NAME), client, round]);
    // Round 0's first two models per client are reference pencils, the
    // same in every run: their cold results give `in_band_err`.
    let mut reference = Rng::stream(&[inputs::REFERENCE_SEED, inputs::name_id(NAME), client]);
    let jobs = (0..MODELS)
        .map(|m| {
            let title =
                format!("perfbench {NAME} seed {seed} client {client} round {round} model {m}");
            let source = if round == 0 && m < 2 {
                &mut reference
            } else {
                &mut rng
            };
            inputs::request(&SHAPE, inputs::mesh_netlist(&SHAPE, source, &title))
        })
        .collect();
    // Model 0 opens the round; models 1.. first appear at distinct
    // random positions; every other request repeats a model already
    // asked for.
    let mut firsts = vec![0];
    while firsts.len() < MODELS {
        let p = 1 + rng.below(PER_ROUND - 1);
        if !firsts.contains(&p) {
            firsts.push(p);
        }
    }
    firsts.sort_unstable();
    let mut seq = Vec::with_capacity(PER_ROUND);
    let mut introduced = 0;
    for j in 0..PER_ROUND {
        if firsts.contains(&j) {
            seq.push(introduced);
            introduced += 1;
        } else {
            seq.push(rng.below(introduced));
        }
    }
    let sampled = if round < 2 {
        (0..SAMPLED).map(|_| rng.below(PER_ROUND)).collect()
    } else {
        Vec::new()
    };
    Plan {
        round,
        traced,
        jobs,
        seq,
        sampled,
    }
}

/// What the handler saw of one request.
struct Seen {
    secs: f64,
    hit: bool,
    delta: obs::Snapshot,
    spans: Option<Spans>,
}

/// One request as its client saw it.
struct Done {
    latency_s: f64,
    seen: Option<Seen>,
    /// `(request encode+decode, response encode+decode, parse)` seconds
    /// on traced rounds.
    codec: Option<(f64, f64, f64)>,
}

/// One client's round.
#[derive(Default)]
struct ClientRound {
    client: u64,
    done: Vec<Done>,
    ok: u64,
    failed: u64,
    errors: Vec<String>,
    /// `H`/`M` per request: the hit/miss sequence the handler saw.
    hits: String,
    /// Cold results of the first two models (for the in-band check).
    cold: Vec<(JobRequest, JobResponse)>,
    /// Sampled `(request, served bytes)` pairs.
    sampled: Vec<(JobRequest, Vec<u8>)>,
}

/// The netlist's title line: unique per (client, round, model).
fn key(req: &JobRequest) -> String {
    req.netlist.lines().next().unwrap_or("").to_string()
}

type Seens = Mutex<BTreeMap<String, Seen>>;

fn run_client(
    client: u64,
    addr: &str,
    plans: mpsc::Receiver<Plan>,
    out: mpsc::Sender<ClientRound>,
    seens: &Seens,
) {
    while let Ok(plan) = plans.recv() {
        let mut r = ClientRound {
            client,
            ..ClientRound::default()
        };
        let mut cold: Vec<Option<Vec<u8>>> = vec![None; MODELS];
        for (j, &m) in plan.seq.iter().enumerate() {
            let req = &plan.jobs[m];
            let t0 = Instant::now();
            let sent = serve::submit(addr, req, TIMEOUT);
            let latency_s = t0.elapsed().as_secs_f64();
            let seen = seens
                .lock()
                .expect("handler records lock")
                .remove(&key(req));
            let first = cold[m].is_none();
            let verdict = match &sent {
                Err(e) => Err(format!("submit failed: {e}")),
                Ok(resp) => check::response(req, resp, SHAPE.order).and_then(|()| {
                    let bytes = resp.encode();
                    match &cold[m] {
                        Some(c) if *c != bytes => Err("hit differs from the cold response".into()),
                        _ => Ok(bytes),
                    }
                }),
            };
            let verdict = verdict.and_then(|bytes| match &seen {
                None => Err("handler left no record".into()),
                Some(s) if s.hit == first => Err(format!(
                    "expected a {}, the cache answered otherwise",
                    if first { "miss" } else { "hit" }
                )),
                Some(_) => Ok(bytes),
            });
            r.hits.push(if seen.as_ref().is_some_and(|s| s.hit) {
                'H'
            } else {
                'M'
            });
            match verdict {
                Ok(bytes) => {
                    r.ok += 1;
                    if plan.sampled.contains(&j) {
                        r.sampled.push((req.clone(), bytes.clone()));
                    }
                    if first {
                        cold[m] = Some(bytes);
                        if plan.round == 0 && m < 2 {
                            if let Ok(resp) = &sent {
                                r.cold.push((req.clone(), resp.clone()));
                            }
                        }
                    }
                }
                Err(e) => {
                    r.failed += 1;
                    r.errors
                        .push(format!("round {} request {j}: {e}", plan.round));
                }
            }
            let codec = match (&sent, plan.traced) {
                (Ok(resp), true) => Some(codec_and_parse(req, resp)),
                _ => None,
            };
            r.done.push(Done {
                latency_s,
                seen,
                codec,
            });
        }
        if out.send(r).is_err() {
            return;
        }
    }
}

/// Times the request and response codecs and the netlist parse for one
/// request, outside its round trip.
fn codec_and_parse(req: &JobRequest, resp: &JobResponse) -> (f64, f64, f64) {
    let t0 = Instant::now();
    let _ = std::hint::black_box(JobRequest::decode(&req.encode()));
    let t1 = Instant::now();
    let _ = std::hint::black_box(JobResponse::decode(&resp.encode()));
    let t2 = Instant::now();
    let _ = std::hint::black_box(circuits::parse_netlist(&req.netlist));
    let t3 = Instant::now();
    (
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
        (t3 - t2).as_secs_f64(),
    )
}

/// Runs the workload: three set-ups (daemon bind, clients, warm-up),
/// the last of which is kept for the timed phase.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    set_workers(1);
    let mut rep = Report::default();
    let mut cal = Calibrator::new(1);
    let mut setup_s = Vec::new();
    for s in 0..SETUPS {
        let keep = s + 1 == SETUPS;
        if let Err(e) = session(seed, seconds, trace, keep, &mut setup_s, &mut cal, &mut rep) {
            rep.error(e);
            return rep;
        }
    }
    rep
}

#[allow(clippy::too_many_arguments)]
fn session(
    seed: u64,
    seconds: f64,
    trace: bool,
    keep: bool,
    setup_s: &mut Vec<f64>,
    cal: &mut Calibrator,
    rep: &mut Report,
) -> Result<(), String> {
    let t0 = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let cache = LruCache::new(CACHE_BYTES);
    let seens: Seens = Mutex::new(BTreeMap::new());
    let traced_now = AtomicBool::new(false);
    let shutdown = AtomicBool::new(false);
    let handler = |req: &JobRequest| {
        let traced = traced_now.load(Ordering::SeqCst);
        if traced {
            assert!(
                obs::install(obs::ClockKind::Wall),
                "a trace collector is already installed"
            );
        }
        let before = obs::counters::snapshot();
        let t0 = Instant::now();
        let resp = handle_job(req, &cache);
        let secs = t0.elapsed().as_secs_f64();
        let delta = obs::counters::snapshot().delta(&before);
        let hit = delta.get(obs::Counter::CacheHit) > 0 && delta.get(obs::Counter::CacheMiss) == 0;
        let spans = if traced {
            obs::drain().map(|t| Spans::fold(&t, hit))
        } else {
            None
        };
        seens.lock().expect("handler records lock").insert(
            key(req),
            Seen {
                secs,
                hit,
                delta,
                spans,
            },
        );
        resp
    };
    std::thread::scope(|scope| -> Result<(), String> {
        let server =
            scope.spawn(|| serve::serve(&listener, &handler, &ServeOptions::default(), &shutdown));
        // The daemon stops on every path out of the body below, so the
        // scope can always join it.
        let mut body = || -> Result<Option<Vec<Round>>, String> {
            let (done_tx, done_rx) = mpsc::channel();
            let mut plan_txs = Vec::new();
            for c in 0..CLIENTS {
                let (tx, rx) = mpsc::channel();
                plan_txs.push(tx);
                let (done_tx, addr, seens) = (done_tx.clone(), addr.as_str(), &seens);
                scope.spawn(move || run_client(c, addr, rx, done_tx, seens));
            }
            // Inputs for the first round, then a warm-up: one cold
            // request and one hit per client, and the kernel.
            let mut plans: Vec<Plan> = (0..CLIENTS).map(|c| plan(seed, c, 0, false)).collect();
            cal.sample();
            for c in 0..CLIENTS {
                let warm = &plan(seed, c, WARMUP + setup_s.len() as u64, false).jobs[0];
                for _ in 0..2 {
                    let resp =
                        serve::submit(&addr, warm, TIMEOUT).map_err(|e| format!("warm-up: {e}"))?;
                    check::response(warm, &resp, SHAPE.order)
                        .map_err(|e| format!("warm-up: {e}"))?;
                }
            }
            setup_s.push(t0.elapsed().as_secs_f64());
            Ok(keep.then(|| {
                cal.clear();
                timed_phase(
                    seed,
                    seconds,
                    trace,
                    &mut plans,
                    &plan_txs,
                    &done_rx,
                    &traced_now,
                    cal,
                )
            }))
            // Dropping `plan_txs` here ends the clients.
        };
        let rounds = body();
        shutdown.store(true, Ordering::SeqCst);
        let stats = server
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("serve: {e}"))?;
        if let Some(rounds) = rounds? {
            finish(seed, trace, &rounds, stats, setup_s, cal, rep);
        }
        Ok(())
    })
}

/// One round: its wall time, its calibration figure, and what each
/// client saw.
struct Round {
    wall_s: f64,
    cal_s: f64,
    traced: bool,
    clients: Vec<ClientRound>,
}

#[allow(clippy::too_many_arguments)]
fn timed_phase(
    seed: u64,
    seconds: f64,
    trace: bool,
    plans: &mut Vec<Plan>,
    plan_txs: &[mpsc::Sender<Plan>],
    done_rx: &mpsc::Receiver<ClientRound>,
    traced_now: &AtomicBool,
    cal: &mut Calibrator,
) -> Vec<Round> {
    let mut out = Vec::new();
    let start = Instant::now();
    let mut before = cal.sample();
    let mut round = 0u64;
    let mut traced_rounds = 0;
    // At least two rounds run (the sampled results live there); a traced
    // run alternates untraced and traced rounds.
    while round < 2 || start.elapsed().as_secs_f64() < seconds || (trace && traced_rounds < COUNTED)
    {
        let traced = trace && round % 2 == 1;
        if round > 0 {
            *plans = (0..CLIENTS).map(|c| plan(seed, c, round, traced)).collect();
        }
        traced_now.store(traced, Ordering::SeqCst);
        let t0 = Instant::now();
        for (tx, p) in plan_txs.iter().zip(plans.drain(..)) {
            if tx.send(p).is_err() {
                return out;
            }
        }
        let mut clients: Vec<ClientRound> =
            (0..CLIENTS).filter_map(|_| done_rx.recv().ok()).collect();
        let wall_s = t0.elapsed().as_secs_f64();
        let after = cal.sample();
        clients.sort_by_key(|r| r.client);
        out.push(Round {
            wall_s,
            cal_s: 0.5 * (before + after),
            traced,
            clients,
        });
        traced_rounds += u64::from(traced);
        before = after;
        round += 1;
    }
    traced_now.store(false, Ordering::SeqCst);
    out
}

fn finish(
    seed: u64,
    trace: bool,
    rounds: &[Round],
    stats: ServeStats,
    setup_s: &[f64],
    cal: &Calibrator,
    rep: &mut Report,
) {
    rep.record.push(format!(
        "workload {NAME}: seed {seed}, 1 worker thread, nproc {}, in-process daemon with an LruCache of {} MiB, \
         {CLIENTS} closed-loop clients, rounds of {PER_ROUND} requests per client over {MODELS} fresh \
         {}-state {}-port meshes each (method {}, {} samples, order {})",
        nproc(),
        CACHE_BYTES >> 20,
        SHAPE.rows * SHAPE.cols,
        SHAPE.ports,
        SHAPE.method,
        SHAPE.samples,
        SHAPE.order,
    ));
    let mut timed = Timed::default();
    let mut ok = 0;
    let mut cold = Vec::new();
    let mut sampled = Vec::new();
    let mut traced_jobs = Vec::new();
    let mut counts = Counts::default();
    let mut counted_jobs = 0;
    let mut traced_rounds = 0;
    let (mut codec_req, mut codec_resp, mut parse, mut overhead, mut hits) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut wall_traced, mut jobs_traced, mut wall_plain, mut jobs_plain) =
        (0.0, 0.0f64, 0.0, 0.0f64);
    for (idx, round) in rounds.iter().enumerate() {
        let (c, traced) = (round.cal_s, round.traced);
        if traced {
            wall_traced += round.wall_s / c;
        } else {
            wall_plain += round.wall_s / c;
            timed.window(round.wall_s, c);
        }
        traced_rounds += u64::from(traced);
        for (ci, r) in round.clients.iter().enumerate() {
            if idx < 2 {
                rep.record
                    .push(format!("hit/miss round {idx} client {ci}: {}", r.hits));
            }
            rep.attempted += r.done.len() as u64;
            rep.failed += r.failed;
            ok += r.ok;
            rep.errors.extend(r.errors.iter().cloned());
            cold.extend(r.cold.iter().cloned());
            sampled.extend(r.sampled.iter().cloned());
            for d in &r.done {
                if !traced {
                    jobs_plain += 1.0;
                    timed.job(d.latency_s, c);
                    continue;
                }
                jobs_traced += 1.0;
                let Some(seen) = &d.seen else { continue };
                if traced_rounds <= COUNTED {
                    counts.add(&seen.delta);
                    counted_jobs += 1;
                }
                if let Some(spans) = seen.spans {
                    traced_jobs.push(TracedJob {
                        spans,
                        handler_s: seen.secs,
                        cal_s: c,
                    });
                }
                if let Some((rq, rs, p)) = d.codec {
                    codec_req += rq / c;
                    codec_resp += rs / c;
                    parse += p / c;
                }
                overhead += (d.latency_s - seen.secs).max(0.0) / c;
                hits += f64::from(u8::from(seen.hit));
            }
        }
    }
    // Sampled served results must equal a local run of the same request.
    for (req, served) in &sampled {
        if handle_job(req, &NullCache).encode() != *served {
            rep.failed += 1;
            ok = ok.saturating_sub(1);
            rep.error(format!(
                "served result differs from a local run: {}",
                key(req)
            ));
        }
    }
    rep.record.push(format!(
        "{} rounds ({} traced), {} requests; daemon: {} jobs in {} batches, {} grouped; {} sampled results matched local runs",
        rounds.len(),
        traced_rounds,
        rep.attempted,
        stats.jobs,
        stats.batches,
        stats.grouped,
        sampled.len(),
    ));
    if !trace {
        let rss = check::peak_rss_mb().unwrap_or_else(|e| {
            rep.error(format!("peak RSS: {e}"));
            0.0
        });
        let err = check::worst_in_band(rep, &cold);
        report::end_to_end(rep, setup_s, &timed, rss, err, ok, cal);
        return;
    }
    report::layer_times(rep, &traced_jobs, 1);
    report::counters(rep, &counts, counted_jobs);
    let n = jobs_traced.max(1.0);
    let per_job_stats = |v: u64| v as f64 / stats.jobs.max(1) as f64;
    let m = &mut rep.metrics;
    m.insert("circuits.parse_cal", parse / n);
    m.insert("serve.request_codec_cal", codec_req / n);
    m.insert("serve.result_codec_cal", codec_resp / n);
    m.insert("serve.overhead_cal", overhead / n);
    m.insert("serve.hit_share", hits / n);
    m.insert("serve.batches", per_job_stats(stats.batches));
    m.insert("serve.grouped", per_job_stats(stats.grouped));
    let jpk_traced = jobs_traced / wall_traced.max(f64::MIN_POSITIVE);
    let jpk_plain = jobs_plain / wall_plain.max(f64::MIN_POSITIVE);
    m.insert("obs.trace_overhead_frac", 1.0 - jpk_traced / jpk_plain);
    rep.record.push(format!(
        "serve.hit_share {:.4} of traced requests were model hits; obs.trace_overhead_frac {:.4} \
         ({:.2} vs {:.2} jobs/kcal traced/untraced)",
        hits / n,
        rep.metrics["obs.trace_overhead_frac"],
        1000.0 * jpk_traced,
        1000.0 * jpk_plain,
    ));
}
