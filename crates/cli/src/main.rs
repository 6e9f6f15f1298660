//! `pmtbr-cli` — reduce SPICE-flavored RLC netlists from the shell.
//!
//! ```text
//! pmtbr-cli sweep  <netlist> --from <hz> --to <hz> [--points N] [--log]
//! pmtbr-cli hsv    <netlist> [--band <hz>] [--samples N]
//! pmtbr-cli reduce <netlist> [--order N] [--tol T] [--band <hz>]
//!                  [--bands lo:hi[,lo:hi...]] [--samples N] [--method M]
//!                  [--check N] [--max-dropped-samples N] [--strict]
//! ```
//!
//! The `--method` names, the usage text, and the unknown-method error
//! are all derived from the [`pmtbr_cli::METHODS`] registry — run
//! `pmtbr-cli help` for the current list with one-line summaries.
//!
//! All frequency arguments are in hertz. `sweep` prints the port
//! impedance magnitudes as CSV; `hsv` prints the PMTBR singular-value
//! estimates (and exact Hankel values when the descriptor admits a
//! state-space form); `reduce` builds a reduced model, reports its
//! spectra and error estimate, and optionally cross-checks it against
//! the full model over the band.
//!
//! Every command accepts `--threads N` to pin the sampling engine's
//! worker count (equivalent to setting `PMTBR_THREADS=N`); results are
//! identical at every thread count.
//!
//! Every command also accepts `--trace <path>` to record a JSON-lines
//! solver trace (spans over the sparse LU, shift ladder, sampling sweep,
//! and SVD, plus the global counters; see `docs/OBSERVABILITY.md`). The
//! default deterministic clock makes the trace byte-identical at every
//! thread count; add `--trace-wall` for wall-clock nanosecond stamps
//! (and per-worker pool occupancy) at the price of reproducibility.
//!
//! # Degradation policy and exit codes
//!
//! Every PMTBR-family method runs the fault-tolerant sampling pipeline:
//! sample points whose shifted solves fail beyond recovery are dropped
//! and the quadrature degrades gracefully. The per-point account is
//! printed to stderr whenever the sweep deviated from the request; the
//! strict Krylov/TBR baselines never degrade (they either succeed
//! cleanly or fail with exit 1).
//!
//! - `0` — clean run, every sample point solved as requested;
//! - `2` — degraded but accepted (drops within `--max-dropped-samples`,
//!   default: any number as long as one point survives);
//! - `3` — degradation rejected: drops exceeded `--max-dropped-samples`,
//!   or `--strict` was set and the pipeline recorded any accuracy
//!   concession (dropped/perturbed points, downgraded compressor,
//!   exhausted budget);
//! - `4` — a `--budget-*` work budget ran out and the printed model is
//!   best-effort (accepted, but explicitly marked);
//! - `1` — any other error (bad arguments, unreadable netlist, a
//!   malformed `PMTBR_FAULT` spec, …).
//!
//! (The canonical exit-code table lives in the repository README under
//! "Error handling and exit codes"; keep the two in sync.)
//!
//! The `PMTBR_FAULT` environment variable injects deterministic faults
//! for chaos-testing the ladder (see `pmtbr_cli::fault_plan_from_env`);
//! a malformed spec is rejected up front with exit 1 rather than
//! silently ignored.

use std::process::ExitCode;

use lti::{frequency_response, linspace, logspace, max_rel_error, SquareWave};
use pmtbr::{sample_basis, Sampling};

const TAU: f64 = 2.0 * std::f64::consts::PI;

/// How a successful command ran.
enum Status {
    /// Everything executed exactly as requested → exit 0.
    Clean,
    /// The sampling sweep degraded (drops/perturbations) but stayed
    /// within the acceptance policy → exit 2.
    Degraded,
    /// A `--budget-*` cap ran out and the model is best-effort → exit 4.
    BudgetExhausted,
}

/// Why a command failed.
enum Failure {
    /// Ordinary error (bad arguments, I/O, numerics) → exit 1.
    Error(String),
    /// The sweep degraded beyond what the policy accepts → exit 3.
    Rejected(String),
    /// `submit`/`serve` could not speak the wire protocol (unreachable
    /// server, timeout, malformed frame) → exit 5. Distinct from exit 1
    /// so scripts can tell "the job failed" from "the service failed".
    Protocol(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Error(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Error(msg.to_string())
    }
}

type CmdResult = Result<Status, Failure>;

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: &[String]) -> Self {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                let value = if it.peek().is_some_and(|v| !v.starts_with("--")) {
                    Some(it.next().expect("peeked").clone())
                } else {
                    None
                };
                flags.push((name.to_string(), value));
            } else {
                positional.push(tok.clone());
            }
        }
        Args { positional, flags }
    }

    fn flag_value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn flag_present(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn num(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.flag_value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: expected a number, got `{v}`")),
        }
    }

    fn int(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.flag_value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: expected an integer, got `{v}`")),
        }
    }

    /// An optional `u64` cap: absent flag means "unlimited".
    fn cap(&self, name: &str) -> Result<Option<u64>, String> {
        self.flag_value(name)
            .map(|v| {
                v.parse().map_err(|_| format!("--{name}: expected an integer, got `{v}`"))
            })
            .transpose()
    }
}

fn load(path: &str) -> Result<lti::Descriptor, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let nl = circuits::parse_netlist(&text).map_err(|e| e.to_string())?;
    nl.build().map_err(|e| format!("mna assembly failed: {e}"))
}

fn cmd_sweep(args: &Args) -> CmdResult {
    let path = args.positional.first().ok_or("sweep: missing netlist path")?;
    let sys = load(path)?;
    let from = args.num("from", 1e6)?;
    let to = args.num("to", 1e10)?;
    let points = args.int("points", 50)?;
    if !(to > from && from > 0.0) || points == 0 {
        return Err("sweep: need 0 < --from < --to and --points > 0".into());
    }
    let freqs =
        if args.flag_present("log") { logspace(from, to, points) } else { linspace(from, to, points) };
    let omega: Vec<f64> = freqs.iter().map(|f| f * TAU).collect();
    let resp = frequency_response(&sys, &omega).map_err(|e| e.to_string())?;
    let q = sys.noutputs();
    let p = sys.ninputs();
    print!("freq_hz");
    for i in 0..q {
        for j in 0..p {
            print!(",mag_z{}{}", i + 1, j + 1);
        }
    }
    println!();
    for (k, f) in freqs.iter().enumerate() {
        print!("{f:.6e}");
        for i in 0..q {
            for j in 0..p {
                print!(",{:.6e}", resp.h[k][(i, j)].abs());
            }
        }
        println!();
    }
    Ok(Status::Clean)
}

fn cmd_hsv(args: &Args) -> CmdResult {
    let path = args.positional.first().ok_or("hsv: missing netlist path")?;
    let sys = load(path)?;
    let band = args.num("band", 1e10)?;
    let samples = args.int("samples", 40)?;
    let basis = sample_basis(&sys, &Sampling::Linear { omega_max: band * TAU, n: samples })
        .map_err(|e| e.to_string())?;
    let est = basis.singular_values();
    let exact = sys.to_state_space().ok().and_then(|ss| lti::hankel_singular_values(&ss).ok());
    println!("index,pmtbr_estimate{}", if exact.is_some() { ",exact_hankel" } else { "" });
    for (i, s) in est.iter().take(40).enumerate() {
        match &exact {
            Some(h) => println!("{i},{s:.6e},{:.6e}", h.get(i).copied().unwrap_or(0.0)),
            None => println!("{i},{s:.6e}"),
        }
    }
    if exact.is_none() {
        eprintln!("(E is singular: exact Hankel values unavailable — PMTBR estimates only)");
    }
    Ok(Status::Clean)
}

/// Parses `--bands lo:hi[,lo:hi...]` (hertz) into rad/s band edges.
fn parse_bands(spec: &str) -> Result<Vec<(f64, f64)>, String> {
    let mut bands = Vec::new();
    for part in spec.split(',') {
        let (lo, hi) = part
            .split_once(':')
            .ok_or_else(|| format!("--bands: expected lo:hi, got `{part}`"))?;
        let lo: f64 = lo.parse().map_err(|_| format!("--bands: bad number `{lo}`"))?;
        let hi: f64 = hi.parse().map_err(|_| format!("--bands: bad number `{hi}`"))?;
        bands.push((lo * TAU, hi * TAU));
    }
    Ok(bands)
}

fn cmd_reduce(args: &Args, faults: Option<pmtbr::FaultPlan>) -> CmdResult {
    let path = args.positional.first().ok_or("reduce: missing netlist path")?;
    let sys = load(path)?;
    let band = args.num("band", 1e10)?;
    let samples = args.int("samples", 40)?;
    let tol = args.num("tol", 1e-8)?;
    let order = args.flag_value("order").map(|v| v.parse::<usize>()).transpose().map_err(|_| "--order: invalid integer".to_string())?;
    let method_name = args.flag_value("method").unwrap_or("pmtbr");
    let omega_max = band * TAU;
    let max_dropped = args.int("max-dropped-samples", samples)?;
    let strict = args.flag_present("strict");

    // Dispatch, usage, and the error below all come from the registry.
    let method = pmtbr_cli::find(method_name).ok_or_else(|| {
        format!("unknown --method `{method_name}` ({})", pmtbr_cli::method_list())
    })?;
    let mut req = pmtbr_cli::ReduceRequest::new(omega_max, samples);
    req.tol = tol;
    req.order = order;
    if let Some(spec) = args.flag_value("bands") {
        req.bands = parse_bands(spec)?;
    }
    req.greedy_tol = args.num("greedy-tol", req.greedy_tol)?;
    req.greedy_max_shifts = args
        .flag_value("greedy-max-shifts")
        .map(|v| v.parse::<usize>())
        .transpose()
        .map_err(|_| "--greedy-max-shifts: invalid integer".to_string())?;
    req.budget.max_lu_factors = args.cap("budget-lu")?;
    req.budget.max_svd_sweeps = args.cap("budget-svd-sweeps")?;
    req.budget.max_sample_bytes = args.cap("budget-sample-bytes")?;
    // PMTBR_FAULT (chaos testing) is the only injected fault source;
    // real solver failures flow through the same ladder and the same
    // degradation accounting inside the pipeline.
    req.faults = faults;
    let out = (method.run)(&sys, &req, &pmtbr::NullCache).map_err(Failure::Error)?;

    // The acceptance policy — shared verbatim with `submit` via
    // `pmtbr_cli::evaluate_acceptance` — runs before any stdout so a
    // rejected sweep never prints a half-report. The per-stage pipeline
    // report goes to stderr whenever any stage deviated from a clean
    // run.
    let pipeline = out.pipeline.as_ref().map(pmtbr_cli::summarize_pipeline);
    let sweep = out.diagnostics.as_ref().map(pmtbr_cli::summarize_sweep);
    let acc =
        pmtbr_cli::evaluate_acceptance(pipeline.as_ref(), sweep.as_ref(), strict, max_dropped);
    for line in &acc.stderr {
        eprintln!("{line}");
    }
    let status = verdict_status(acc.verdict.map_err(Failure::Rejected)?);
    for line in &out.report {
        println!("{line}");
    }
    let reduced = out.reduced;

    if let Some(npts) = args.flag_value("check") {
        print_check(npts, omega_max, &sys, &reduced)?;
    }
    print_model(&reduced);
    Ok(status)
}

fn verdict_status(verdict: pmtbr_cli::Verdict) -> Status {
    match verdict {
        pmtbr_cli::Verdict::Clean => Status::Clean,
        pmtbr_cli::Verdict::Degraded => Status::Degraded,
        pmtbr_cli::Verdict::BudgetExhausted => Status::BudgetExhausted,
    }
}

/// `--check N`: compares full and reduced responses over the band.
fn print_check(
    npts: &str,
    omega_max: f64,
    sys: &lti::Descriptor,
    reduced: &lti::StateSpace,
) -> Result<(), Failure> {
    let npts: usize = npts.parse().map_err(|_| "--check: invalid integer".to_string())?;
    let omega: Vec<f64> = linspace(omega_max / npts as f64, omega_max, npts);
    let h_full = frequency_response(sys, &omega).map_err(|e| e.to_string())?;
    let h_red = frequency_response(reduced, &omega).map_err(|e| e.to_string())?;
    println!("check_max_rel_error: {:.6e}", max_rel_error(&h_full, &h_red));
    Ok(())
}

/// Emits the reduced model in a plain, parseable form (shared by
/// `reduce` and `submit`).
fn print_model(reduced: &lti::StateSpace) {
    let q = reduced.nstates();
    println!("A: # {q}x{q}");
    for i in 0..q {
        let row: Vec<String> = (0..q).map(|j| format!("{:.12e}", reduced.a[(i, j)])).collect();
        println!("  {}", row.join(" "));
    }
    println!("B: # {q}x{}", reduced.ninputs());
    for i in 0..q {
        let row: Vec<String> =
            (0..reduced.ninputs()).map(|j| format!("{:.12e}", reduced.b[(i, j)])).collect();
        println!("  {}", row.join(" "));
    }
    println!("C: # {}x{q}", reduced.noutputs());
    for i in 0..reduced.noutputs() {
        let row: Vec<String> = (0..q).map(|j| format!("{:.12e}", reduced.c[(i, j)])).collect();
        println!("  {}", row.join(" "));
    }
}

/// `pmtbr-cli serve`: bind, print the bound address, and run the
/// batching scheduler over one shared artifact cache until `--max-jobs`
/// jobs have completed (or forever).
fn cmd_serve(args: &Args) -> CmdResult {
    let addr = args.flag_value("addr").unwrap_or("127.0.0.1:7117");
    let cache_mb = args.int("cache-mb", 256)?;
    let max_jobs = args.cap("max-jobs")?;
    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| Failure::Protocol(format!("serve: cannot bind {addr}: {e}")))?;
    let bound = listener
        .local_addr()
        .map_err(|e| Failure::Protocol(format!("serve: no local address: {e}")))?;
    // Scripts scrape this line for the ephemeral port of `--addr :0`.
    println!("listening {bound} cache_mb {cache_mb}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let cache = pmtbr::LruCache::new(cache_mb << 20);
    let handler = |job: &serve::JobRequest| pmtbr_cli::handle_job(job, &cache);
    let opts = serve::ServeOptions { max_jobs, ..Default::default() };
    let shutdown = std::sync::atomic::AtomicBool::new(false);
    let stats = serve::serve(&listener, &handler, &opts, &shutdown)
        .map_err(|e| Failure::Protocol(e.to_string()))?;
    let (entries, bytes) = pmtbr::ArtifactCache::stats(&cache);
    eprintln!(
        "served {} job(s) in {} batch(es), {} grouped; cache holds {entries} artifact(s), {bytes} byte(s)",
        stats.jobs, stats.batches, stats.grouped
    );
    Ok(Status::Clean)
}

/// `pmtbr-cli submit`: ship a netlist plus `reduce` flags to a running
/// server and apply the *local* acceptance policy to the response, so
/// the exit code matches what `reduce` would have returned.
fn cmd_submit(args: &Args, trace_path: Option<&str>) -> CmdResult {
    let path = args.positional.first().ok_or("submit: missing netlist path")?;
    let netlist =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if args.flag_present("trace-wall") {
        return Err("submit: --trace-wall is unsupported (server traces use the deterministic clock)"
            .into());
    }
    let band = args.num("band", 1e10)?;
    let samples = args.int("samples", 40)?;
    let omega_max = band * TAU;
    let max_dropped = args.int("max-dropped-samples", samples)?;
    let strict = args.flag_present("strict");
    let method_name = args.flag_value("method").unwrap_or("pmtbr");
    // Validate locally for the fast error; the server re-validates.
    pmtbr_cli::find(method_name).ok_or_else(|| {
        format!("unknown --method `{method_name}` ({})", pmtbr_cli::method_list())
    })?;
    let bands = match args.flag_value("bands") {
        Some(spec) => parse_bands(spec)?,
        None => Vec::new(),
    };
    let order = args.cap("order")?;
    let job = serve::JobRequest {
        method: method_name.to_string(),
        netlist: netlist.clone(),
        omega_max,
        bands,
        samples: samples as u64,
        tol: args.num("tol", 1e-8)?,
        order,
        greedy_tol: args.num("greedy-tol", 1e-3)?,
        greedy_max_shifts: args.cap("greedy-max-shifts")?,
        budget_lu: args.cap("budget-lu")?,
        budget_svd: args.cap("budget-svd-sweeps")?,
        budget_bytes: args.cap("budget-sample-bytes")?,
        trace: trace_path.is_some(),
    };
    let addr = args.flag_value("addr").unwrap_or("127.0.0.1:7117");
    let timeout = std::time::Duration::from_millis(args.int("timeout-ms", 30_000)? as u64);
    let result = match serve::submit(addr, &job, timeout)
        .map_err(|e| Failure::Protocol(e.to_string()))?
    {
        serve::JobResponse::Err(e) => return Err(Failure::Error(e)),
        serve::JobResponse::Ok(result) => result,
    };
    // The trace is written before the acceptance gate for the same
    // reason `reduce` writes it on failure paths: a rejected sweep is
    // exactly when the telemetry matters.
    if let (Some(path), Some(trace)) = (trace_path, &result.trace) {
        match std::fs::write(path, trace) {
            Ok(()) => eprintln!("trace: {} lines -> {path}", trace.lines().count()),
            Err(e) => eprintln!("warning: cannot write trace to {path}: {e}"),
        }
    }
    let acc = pmtbr_cli::evaluate_acceptance(
        result.pipeline.as_ref(),
        result.sweep.as_ref(),
        strict,
        max_dropped,
    );
    for line in &acc.stderr {
        eprintln!("{line}");
    }
    let status = verdict_status(acc.verdict.map_err(Failure::Rejected)?);
    for line in &result.report_lines {
        println!("{line}");
    }
    let reduced = lti::StateSpace::new(
        pmtbr_cli::wire_to_mat(&result.a).map_err(Failure::Protocol)?,
        pmtbr_cli::wire_to_mat(&result.b).map_err(Failure::Protocol)?,
        pmtbr_cli::wire_to_mat(&result.c).map_err(Failure::Protocol)?,
        Some(pmtbr_cli::wire_to_mat(&result.d).map_err(Failure::Protocol)?),
    )
    .map_err(|e| Failure::Protocol(format!("inconsistent model shapes in response: {e}")))?;
    if let Some(npts) = args.flag_value("check") {
        // The netlist is local, so the cross-check runs exactly as it
        // does for `reduce`, against a locally assembled full model.
        let sys = circuits::parse_netlist(&netlist)
            .map_err(|e| e.to_string())
            .and_then(|nl| nl.build().map_err(|e| format!("mna assembly failed: {e}")))?;
        print_check(npts, omega_max, &sys, &reduced)?;
    }
    print_model(&reduced);
    Ok(status)
}

/// Simulates the netlist's transient response to square waves on every
/// port and prints t + all port voltages as CSV.
fn cmd_transient(args: &Args) -> CmdResult {
    let path = args.positional.first().ok_or("transient: missing netlist path")?;
    let sys = load(path)?;
    let period = args.num("period", 1e-9)?;
    let steps = args.int("steps", 400)?;
    if !(period > 0.0) || steps < 2 {
        return Err("transient: need --period > 0 and --steps >= 2".into());
    }
    let h = 2.0 * period / steps as f64; // two periods by default
    let p = sys.ninputs();
    let mut u = numkit::DMat::zeros(p, steps);
    for i in 0..p {
        // Stagger phases so ports are distinguishable.
        let w = SquareWave { phase: period * i as f64 / p.max(1) as f64, ..SquareWave::new(period) };
        for (k, v) in w.sample(steps, h).into_iter().enumerate() {
            u[(i, k)] = v;
        }
    }
    let tr = lti::simulate_descriptor(&sys, &u, h).map_err(|e| e.to_string())?;
    print!("t");
    for i in 0..sys.noutputs() {
        print!(",y{}", i + 1);
    }
    println!();
    for k in 0..steps {
        print!("{:.6e}", tr.t[k]);
        for i in 0..sys.noutputs() {
            print!(",{:.6e}", tr.y[(i, k)]);
        }
        println!();
    }
    Ok(Status::Clean)
}

fn usage() -> String {
    let mut s = format!(
        "usage:\n  pmtbr-cli sweep     <netlist> --from <hz> --to <hz> [--points N] [--log]\n  pmtbr-cli hsv       <netlist> [--band <hz>] [--samples N]\n  pmtbr-cli transient <netlist> [--period <s>] [--steps N]\n  pmtbr-cli reduce    <netlist> [--order N] [--tol T] [--band <hz>] [--bands lo:hi[,lo:hi...]] [--samples N] [--method {}] [--check N] [--max-dropped-samples N] [--strict] [--greedy-tol T] [--greedy-max-shifts N] [--budget-lu N] [--budget-svd-sweeps N] [--budget-sample-bytes N]\n  pmtbr-cli serve     [--addr host:port] [--cache-mb N] [--max-jobs N]\n  pmtbr-cli submit    <netlist> [reduce flags] [--addr host:port] [--timeout-ms N]\nmethods:\n",
        pmtbr_cli::method_list()
    );
    for m in pmtbr_cli::METHODS {
        s.push_str(&format!(
            "  {:<11} {}{}\n",
            m.name,
            m.summary,
            if m.needs_order { " [needs --order]" } else { "" }
        ));
    }
    s.push_str(
        "global flags:\n  --threads N         worker count for the sampling engine (PMTBR_THREADS)\n  --trace <path>      write a JSON-lines solver trace (docs/OBSERVABILITY.md)\n  --trace-wall        stamp the trace with wall-clock nanoseconds instead of\n                      the deterministic event counter\nbudget flags (reduce, pipeline-backed methods only; counted off the\ndeterministic obs counters, never wall clock):\n  --greedy-tol T           greedy method: convergence tolerance (default 1e-3; 0 = run\n                           to the shift budget)\n  --greedy-max-shifts N    greedy method: hard cap on accepted shifts (default --samples)\n  --budget-lu N            cap on LU factorizations\n  --budget-svd-sweeps N    cap on Jacobi SVD sweeps\n  --budget-sample-bytes N  cap on retained weighted sample bytes\nservice flags (serve/submit):\n  --addr host:port    server address (default 127.0.0.1:7117; serve accepts :0 and\n                      prints the bound port)\n  --cache-mb N        serve: artifact-cache byte budget in MiB (default 256)\n  --max-jobs N        serve: exit cleanly after N jobs (tests/benches)\n  --timeout-ms N      submit: deadline for the whole round trip (default 30000)\nexit codes:\n  0 clean  |  2 degraded sweep, accepted  |  3 degradation rejected  |  4 budget exhausted, best-effort model  |  5 service protocol error (submit/serve)  |  1 error\n  (canonical table: README.md, \"Error handling and exit codes\")",
    );
    s
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let args = Args::parse(rest);
    // Reject a malformed PMTBR_FAULT spec up front (satellite of the
    // fault-containment work): a chaos run with a typo'd spec must fail
    // loudly, not silently run without faults.
    let faults = match pmtbr_cli::fault_plan_from_env() {
        Ok(faults) => faults,
        Err(e) => {
            eprintln!("error: invalid PMTBR_FAULT: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(t) = args.flag_value("threads") {
        match t.parse::<usize>() {
            Ok(n) if n > 0 => std::env::set_var("PMTBR_THREADS", n.to_string()),
            _ => {
                eprintln!("error: --threads: expected a positive integer, got `{t}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let trace_path = args.flag_value("trace").map(str::to_string);
    if args.flag_present("trace") && trace_path.is_none() {
        eprintln!("error: --trace requires an output path");
        return ExitCode::FAILURE;
    }
    // `submit` traces remotely (the server runs the reduction and ships
    // the jsonl back); `serve` traces per-job inside the handler. Only
    // the local commands install a process-wide collector here.
    let local_trace = trace_path.is_some() && !matches!(cmd.as_str(), "serve" | "submit");
    if local_trace {
        let kind = if args.flag_present("trace-wall") {
            obs::ClockKind::Wall
        } else {
            obs::ClockKind::Counter
        };
        obs::install(kind);
    }
    let result = match cmd.as_str() {
        "sweep" => cmd_sweep(&args),
        "hsv" => cmd_hsv(&args),
        "transient" => cmd_transient(&args),
        "reduce" => cmd_reduce(&args, faults),
        "serve" => cmd_serve(&args),
        "submit" => cmd_submit(&args, trace_path.as_deref()),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(Status::Clean)
        }
        other => Err(Failure::Error(format!("unknown command `{other}`\n{}", usage()))),
    };
    // The trace is written on failure paths too: a degraded or rejected
    // sweep is exactly when the ladder telemetry matters most.
    if local_trace {
        if let (Some(path), Some(tr)) = (&trace_path, obs::drain()) {
            match std::fs::write(path, tr.to_jsonl()) {
                Ok(()) => eprintln!("trace: {} events -> {path}", tr.events().len()),
                Err(e) => eprintln!("warning: cannot write trace to {path}: {e}"),
            }
        }
    }
    match result {
        Ok(Status::Clean) => ExitCode::SUCCESS,
        Ok(Status::Degraded) => ExitCode::from(2),
        Ok(Status::BudgetExhausted) => ExitCode::from(4),
        Err(Failure::Rejected(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
        Err(Failure::Protocol(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(5)
        }
        Err(Failure::Error(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flag_parsing() {
        let a = args(&["file.sp", "--order", "12", "--log", "--band", "8e9"]);
        assert_eq!(a.positional, vec!["file.sp"]);
        assert_eq!(a.flag_value("order"), Some("12"));
        assert!(a.flag_present("log"));
        assert_eq!(a.num("band", 0.0).unwrap(), 8e9);
        assert_eq!(a.int("order", 0).unwrap(), 12);
    }

    #[test]
    fn defaults_and_errors() {
        let a = args(&["x"]);
        assert_eq!(a.num("missing", 2.5).unwrap(), 2.5);
        assert_eq!(a.int("missing", 7).unwrap(), 7);
        let bad = args(&["x", "--order", "abc"]);
        assert!(bad.int("order", 1).is_err());
    }

    #[test]
    fn last_flag_wins() {
        let a = args(&["--band", "1", "--band", "2"]);
        assert_eq!(a.num("band", 0.0).unwrap(), 2.0);
    }
}
