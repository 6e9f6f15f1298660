//! End-to-end tests for the reduction service: `pmtbr-cli serve` and
//! `pmtbr-cli submit` driven as real processes over real sockets.
//!
//! The contract under test is *parity*: a submitted job must be
//! indistinguishable from the same flags run locally through `reduce` —
//! byte-identical stdout, the same exit code, the same acceptance
//! decisions — with exactly one new failure mode (exit 5) reserved for
//! the transport itself. The chaos matrix from `tests/chaos.rs` is
//! extended here through serve round-trips: faults are injected into
//! the *server* process's environment, and containment means the
//! client still sees the documented exit-code set with no escaped
//! panics on either side of the wire.
//!
//! Every server binds `127.0.0.1:0` and prints its ephemeral port on
//! the `listening` line, so parallel tests never race on an address.
//! Fault specs ride each child's own environment — this test process's
//! env is never mutated.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Output, Stdio};

mod common;

const RLC_LADDER: &str = "\
* Two-port RLC ladder with enough states to drop nodes under chaos.
R1 1 2 50
L1 2 3 10n
C1 3 0 1p
R2 3 4 20
L2 4 5 5n
C2 5 0 2p
R3 5 0 1k
PORT 1
PORT 5
.end";

const RC_LADDER: &str = "\
* 4-node RC ladder
R1 1 2 100
R2 2 3 100
R3 3 4 100
R4 4 0 100
C1 1 0 1p
C2 2 0 1p
C3 3 0 1p
C4 4 0 1p
PORT 1
.end";

fn write_netlist(name: &str, text: &str) -> std::path::PathBuf {
    common::write_atomic(&common::scratch_dir("pmtbr-serve-tests").join(name), text)
}

/// A running `pmtbr-cli serve` child, killed on drop so a failing
/// assertion can never leak a daemon.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns a server on an ephemeral port and blocks until it prints
    /// its `listening` line; `fault` lands in the *server's* env only.
    fn spawn(max_jobs: usize, fault: Option<&str>) -> Server {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_pmtbr-cli"));
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--cache-mb", "64"])
            .args(["--max-jobs", &max_jobs.to_string()])
            .env_remove("PMTBR_FAULT")
            .env_remove("PMTBR_THREADS")
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(spec) = fault {
            cmd.env("PMTBR_FAULT", spec);
        }
        let mut child = cmd.spawn().expect("spawn pmtbr-cli serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("read listening line");
        // "listening 127.0.0.1:<port> cache_mb 64"
        let addr = line
            .split_whitespace()
            .nth(1)
            .unwrap_or_else(|| panic!("malformed listening line: {line:?}"))
            .to_string();
        Server { child, addr }
    }

    /// Waits for the server's clean `--max-jobs` exit.
    fn finish(mut self) {
        let status = self.child.wait().expect("wait for serve");
        assert_eq!(status.code(), Some(0), "serve must exit cleanly after max-jobs");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs `submit` against `addr` with the given netlist and extra flags.
fn submit(addr: &str, netlist: &std::path::Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pmtbr-cli"))
        .arg("submit")
        .arg(netlist)
        .args(["--addr", addr])
        .args(extra)
        .env_remove("PMTBR_FAULT")
        .env_remove("PMTBR_THREADS")
        .output()
        .expect("spawn pmtbr-cli submit")
}

/// Runs local `reduce` with the given netlist, flags, and fault spec.
fn reduce(netlist: &std::path::Path, extra: &[&str], fault: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pmtbr-cli"));
    cmd.arg("reduce")
        .arg(netlist)
        .args(extra)
        .env_remove("PMTBR_FAULT")
        .env_remove("PMTBR_THREADS");
    if let Some(spec) = fault {
        cmd.env("PMTBR_FAULT", spec);
    }
    cmd.output().expect("spawn pmtbr-cli reduce")
}

#[test]
fn submit_matches_local_reduce_byte_for_byte() {
    let nl = write_netlist("parity.sp", RC_LADDER);
    let flags = ["--order", "2", "--band", "2e9", "--samples", "12", "--check", "7"];
    let server = Server::spawn(1, None);
    let remote = submit(&server.addr, &nl, &flags);
    server.finish();
    let local = reduce(&nl, &flags, None);
    assert_eq!(
        remote.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&remote.stderr)
    );
    assert_eq!(remote.status.code(), local.status.code());
    assert_eq!(
        remote.stdout, local.stdout,
        "a served model must be byte-identical to the local one"
    );
}

#[test]
fn warm_resubmission_is_bit_identical_to_cold() {
    let nl = write_netlist("warm.sp", RC_LADDER);
    let flags = ["--order", "2", "--band", "2e9", "--samples", "12"];
    let server = Server::spawn(2, None);
    let cold = submit(&server.addr, &nl, &flags);
    let warm = submit(&server.addr, &nl, &flags);
    server.finish();
    assert_eq!(cold.status.code(), Some(0));
    assert_eq!(warm.status.code(), Some(0));
    assert_eq!(
        cold.stdout, warm.stdout,
        "a cache hit must replay the cold answer exactly"
    );
}

/// The chaos matrix from `tests/chaos.rs`, extended through serve
/// round-trips: every registry method under a 25%-rate fault mix
/// injected into the *server's* environment. Containment now spans the
/// wire — the client's exit code stays in the documented `{0..=5}` set,
/// no panic escapes either process, and the served outcome is
/// bit-identical to a local `reduce` under the same fault spec.
#[test]
fn chaos_matrix_through_serve_matches_local_reduce() {
    let nl = write_netlist("chaos.sp", RLC_LADDER);
    let spec = "seed=42,rate=0.25,kinds=singular|nan|drift|panic,depth=2,stage=all";
    let server = Server::spawn(pmtbr_cli::METHODS.len(), Some(spec));
    for method in pmtbr_cli::METHODS {
        let mut flags = vec!["--method", method.name, "--band", "2e9", "--samples", "8"];
        if method.needs_order {
            flags.extend_from_slice(&["--order", "2"]);
        }
        let remote = submit(&server.addr, &nl, &flags);
        let local = reduce(&nl, &flags, Some(spec));
        let ctx = format!("method={}", method.name);
        let code = remote.status.code();
        assert!(
            matches!(code, Some(0..=5)),
            "{ctx}: exit {code:?} outside the documented set\nstderr: {}",
            String::from_utf8_lossy(&remote.stderr)
        );
        assert_eq!(
            code,
            local.status.code(),
            "{ctx}: served exit code diverged from local\nremote stderr: {}\nlocal stderr: {}",
            String::from_utf8_lossy(&remote.stderr),
            String::from_utf8_lossy(&local.stderr)
        );
        assert_eq!(remote.stdout, local.stdout, "{ctx}: served stdout diverged from local");
        for out in [&remote, &local] {
            assert!(
                !String::from_utf8_lossy(&out.stderr).contains("panicked at"),
                "{ctx}: a panic escaped to stderr"
            );
        }
    }
    server.finish();
}

/// Degradation acceptance is decided by the *client's* flags against
/// the server's summaries, with the same exit codes as local `reduce`
/// (asserted over in `tests/cli.rs` for the identical fault spec).
#[test]
fn degraded_submit_exit_codes_match_reduce() {
    let nl = write_netlist("degraded.sp", RC_LADDER);
    let fault = "seed=5,rate=0.3,kinds=panic,depth=2";
    let base = ["--order", "2", "--band", "2e9", "--samples", "12"];
    let server = Server::spawn(4, Some(fault));

    // Degraded but accepted: exit 2, diagnostics on stderr.
    let out = submit(&server.addr, &nl, &base);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("sample points survived"), "stderr: {err}");

    // --strict is evaluated client-side: exit 3.
    let mut strict = base.to_vec();
    strict.push("--strict");
    let out = submit(&server.addr, &nl, &strict);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--strict"));

    // Client-side drop budget exceeded: exit 3.
    let mut capped = base.to_vec();
    capped.extend_from_slice(&["--max-dropped-samples", "0"]);
    let out = submit(&server.addr, &nl, &capped);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("max-dropped-samples"));

    // A generous budget accepts the same degradation: exit 2.
    let mut generous = base.to_vec();
    generous.extend_from_slice(&["--max-dropped-samples", "11"]);
    let out = submit(&server.addr, &nl, &generous);
    assert_eq!(out.status.code(), Some(2));
    server.finish();
}

#[test]
fn budget_exhaustion_parity_exit_4() {
    let nl = write_netlist("budget.sp", RLC_LADDER);
    let flags = ["--band", "2e9", "--samples", "8", "--budget-lu", "4"];
    let server = Server::spawn(1, None);
    let remote = submit(&server.addr, &nl, &flags);
    server.finish();
    let local = reduce(&nl, &flags, None);
    assert_eq!(remote.status.code(), Some(4));
    assert_eq!(local.status.code(), Some(4));
    assert_eq!(remote.stdout, local.stdout, "best-effort model must match local");
    assert!(
        String::from_utf8_lossy(&remote.stderr).contains("budget_exhausted=lu-factorizations"),
        "stderr: {}",
        String::from_utf8_lossy(&remote.stderr)
    );
}

/// Transport failures are exit 5 — distinct from exit 1 so scripts can
/// tell "the job failed" from "the service failed".
#[test]
fn protocol_errors_exit_5() {
    let nl = write_netlist("proto.sp", RC_LADDER);
    let flags = ["--order", "2", "--band", "2e9", "--samples", "8", "--timeout-ms", "400"];

    // Nobody listening: bind an ephemeral port, then close it.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let out = submit(&dead, &nl, &flags);
    assert_eq!(
        out.status.code(),
        Some(5),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "no model may be printed on a protocol error");

    // Listening but never answering: the deadline must fire as exit 5.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let stalled = listener.local_addr().expect("addr").to_string();
    let out = submit(&stalled, &nl, &flags);
    assert_eq!(
        out.status.code(),
        Some(5),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty());
    drop(listener);
}

/// A job the *server* rejects (bad netlist) is a well-formed response
/// and maps to exit 1 — the same code the local command would use.
#[test]
fn server_side_job_errors_exit_1() {
    let nl = write_netlist("broken.sp", "Q1 broken card\n.end");
    let server = Server::spawn(1, None);
    let out = submit(&server.addr, &nl, &["--band", "2e9", "--samples", "8"]);
    server.finish();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("netlist:"), "stderr: {err}");
    assert!(out.stdout.is_empty());
}

/// `--trace` on submit ships the *server's* deterministic trace back
/// over the wire, cache spans included.
#[test]
fn submit_trace_rides_back_from_the_server() {
    let nl = write_netlist("trace.sp", RC_LADDER);
    let trace = common::scratch_dir("pmtbr-serve-tests").join("submit-trace.jsonl");
    let _ = std::fs::remove_file(&trace);
    let server = Server::spawn(1, None);
    let out = submit(
        &server.addr,
        &nl,
        &[
            "--order",
            "2",
            "--band",
            "2e9",
            "--samples",
            "12",
            "--trace",
            trace.to_str().expect("utf8 path"),
        ],
    );
    server.finish();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&trace).expect("server trace written");
    let first = text.lines().next().expect("non-empty trace");
    assert!(first.contains("pmtbr-trace-v1"), "first line: {first}");
    assert!(first.contains("\"clock\":\"counter\""), "served traces use the counter clock");
    assert!(text.contains("cache_lookup"), "cache spans must appear in the served trace");
}
