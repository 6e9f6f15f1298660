//! The batching scheduler: accept, group, run, respond.
//!
//! The server drains every pending connection into a *batch*, groups
//! the batch by the structural hash of each job's netlist, and runs the
//! groups in `(pencil, arrival)` order. Same-pencil jobs therefore
//! execute back-to-back, which is what turns the pipeline's
//! content-addressed artifact cache into a service win: the first job
//! of a group pays for the sweep, the rest hit the cache.
//!
//! Jobs run *sequentially* — the obs span collector and counters are
//! process-global, and interleaving two reductions would interleave
//! their traces. Parallelism lives where it always has: inside one
//! pipeline run, fanned out by `numkit::par` across shift points.
//!
//! The handler is injected (`Fn(&JobRequest) -> JobResponse`) rather
//! than imported, keeping this crate free of a dependency on the CLI's
//! method registry; the CLI wires its own registry in when it starts
//! the server.

use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::wire::{read_frame, write_frame, JobRequest, JobResponse, WireError};

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Stop after completing this many jobs (`None` ⇒ run until
    /// `shutdown`); tests and benches use it for a clean exit.
    pub max_jobs: Option<u64>,
    /// How long to wait for a connected client's request frame before
    /// dropping the connection.
    pub read_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { max_jobs: None, read_timeout: Duration::from_secs(10) }
    }
}

/// What the scheduler did during one `serve` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs completed (responses written).
    pub jobs: u64,
    /// Batches executed (one batch = one drain of the accept queue).
    pub batches: u64,
    /// Jobs that shared a batch with an earlier same-pencil job — the
    /// ones scheduled to land on a warm cache.
    pub grouped: u64,
}

/// One accepted connection with its decoded request.
struct Job {
    stream: TcpStream,
    request: JobRequest,
    pencil: u64,
    arrival: usize,
}

/// The batching group key: the netlist's structural hash, or 0 when the
/// text does not parse (the handler will report the parse error).
fn group_key(netlist: &str) -> u64 {
    circuits::parse_netlist(netlist).map(|nl| nl.structural_hash()).unwrap_or(0)
}

/// Reads and decodes one request from a fresh connection. A client
/// that sends garbage or stalls past the read timeout is dropped —
/// its end sees EOF, which the submit client surfaces as a protocol
/// failure (exit 5) rather than a job failure.
fn read_job(stream: TcpStream, arrival: usize, opts: &ServeOptions) -> Option<Job> {
    stream.set_nonblocking(false).ok()?;
    stream.set_read_timeout(Some(opts.read_timeout)).ok()?;
    stream.set_nodelay(true).ok()?;
    let mut stream = stream;
    let payload = read_frame(&mut stream).ok()?;
    let request = JobRequest::decode(&payload).ok()?;
    let pencil = group_key(&request.netlist);
    Some(Job { stream, request, pencil, arrival })
}

/// Runs the accept/batch/respond loop until `shutdown` is set or
/// `max_jobs` jobs have completed.
///
/// The listener may be blocking or not on entry; it is switched to
/// non-blocking so the loop can drain all pending connections into one
/// batch. A response write failing (client went away) is not fatal to
/// the server — the job still counts as completed.
///
/// # Errors
///
/// [`WireError::Io`] when the listener itself fails; per-connection
/// failures are contained.
pub fn serve(
    listener: &TcpListener,
    handler: &(dyn Fn(&JobRequest) -> JobResponse + Sync),
    opts: &ServeOptions,
    shutdown: &AtomicBool,
) -> Result<ServeStats, WireError> {
    listener.set_nonblocking(true)?;
    let mut stats = ServeStats::default();
    let mut arrival = 0usize;
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return Ok(stats);
        }
        // Drain the accept queue into one batch.
        let mut batch: Vec<Job> = Vec::new();
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    arrival += 1;
                    if let Some(job) = read_job(stream, arrival, opts) {
                        batch.push(job);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        if batch.is_empty() {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        }
        // Same-pencil jobs run back-to-back; arrival order breaks ties
        // deterministically.
        batch.sort_by_key(|j| (j.pencil, j.arrival));
        stats.batches += 1;
        let mut prev_pencil: Option<u64> = None;
        for mut job in batch {
            if prev_pencil == Some(job.pencil) {
                stats.grouped += 1;
            }
            prev_pencil = Some(job.pencil);
            let response = handler(&job.request);
            // A vanished client must not take the server down.
            let _ = write_frame(&mut job.stream, &response.encode());
            stats.jobs += 1;
            if opts.max_jobs.is_some_and(|m| stats.jobs >= m) {
                return Ok(stats);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::submit;
    use std::sync::atomic::AtomicU64;

    fn request(netlist: &str, method: &str) -> JobRequest {
        JobRequest {
            method: method.into(),
            netlist: netlist.into(),
            omega_max: 10.0,
            bands: vec![],
            samples: 4,
            tol: 1e-8,
            order: None,
            greedy_tol: 1e-3,
            greedy_max_shifts: None,
            budget_lu: None,
            budget_svd: None,
            budget_bytes: None,
            trace: false,
        }
    }

    const RC: &str = "R1 1 0 1\nC1 1 0 1\nPORT 1\n.END\n";

    #[test]
    fn round_trips_jobs_and_stops_at_max_jobs() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let calls = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                let handler = |req: &JobRequest| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    JobResponse::Err(format!("echo:{}", req.method))
                };
                let opts = ServeOptions { max_jobs: Some(3), ..ServeOptions::default() };
                serve(&listener, &handler, &opts, &AtomicBool::new(false)).unwrap()
            });
            for i in 0..3 {
                let resp =
                    submit(&addr, &request(RC, &format!("m{i}")), Duration::from_secs(10)).unwrap();
                assert_eq!(resp, JobResponse::Err(format!("echo:m{i}")));
            }
            let stats = server.join().unwrap();
            assert_eq!(stats.jobs, 3);
            assert!(stats.batches >= 1);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn shutdown_flag_stops_an_idle_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                let handler = |_: &JobRequest| JobResponse::Err("unused".into());
                serve(&listener, &handler, &ServeOptions::default(), &shutdown).unwrap()
            });
            std::thread::sleep(Duration::from_millis(20));
            shutdown.store(true, Ordering::Relaxed);
            let stats = server.join().unwrap();
            assert_eq!(stats.jobs, 0);
        });
    }

    #[test]
    fn same_pencil_jobs_group_within_a_batch() {
        // Two parseable netlists with different structural hashes plus
        // one unparseable one: grouping is by hash with arrival-order
        // tie-breaking.
        let other = "R1 1 2 1\nC1 2 0 1\nC2 1 0 1\nPORT 1\n.END\n";
        let (ka, kb, kbad) = (group_key(RC), group_key(other), group_key("not a netlist"));
        assert_ne!(ka, kb);
        assert_eq!(kbad, 0);

        // Connect and send all four requests from this thread, one
        // after another, before the server starts its loop: each
        // completed connect is queued in the listener's backlog in that
        // order, so all four land in one drained batch with a known
        // arrival order.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let order = std::sync::Mutex::new(Vec::new());
        let streams: Vec<TcpStream> = [("a", RC), ("b", other), ("c", RC), ("d", other)]
            .into_iter()
            .map(|(tag, nl)| {
                let mut stream = TcpStream::connect(addr).unwrap();
                crate::wire::write_frame(&mut stream, &request(nl, tag).encode()).unwrap();
                stream
            })
            .collect();
        std::thread::scope(|scope| {
            let jobs: Vec<_> = streams
                .into_iter()
                .map(|mut stream| {
                    scope.spawn(move || {
                        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                        JobResponse::decode(&read_frame(&mut stream).unwrap()).unwrap()
                    })
                })
                .collect();
            let handler = |req: &JobRequest| {
                order.lock().unwrap().push(req.method.clone());
                JobResponse::Err("ok".into())
            };
            let opts = ServeOptions { max_jobs: Some(4), ..ServeOptions::default() };
            let stats = serve(&listener, &handler, &opts, &AtomicBool::new(false)).unwrap();
            for j in jobs {
                assert_eq!(j.join().unwrap(), JobResponse::Err("ok".into()));
            }
            assert_eq!(stats.jobs, 4);
            // All four drained in one batch: same-pencil jobs must be
            // adjacent and arrival order kept within a group.
            assert_eq!(stats.batches, 1);
            assert_eq!(stats.grouped, 2);
            let got = order.lock().unwrap().clone();
            let expect = if ka < kb { vec!["a", "c", "b", "d"] } else { vec!["b", "d", "a", "c"] };
            assert_eq!(got, expect);
        });
    }
}
