//! A std-only fork–join helper for embarrassingly parallel index maps.
//!
//! The multipoint sweeps at the heart of PMTBR — one shifted solve per
//! sample point, one frequency-response evaluation per grid point — are
//! independent across indices, so they parallelize with nothing fancier
//! than [`std::thread::scope`]. This module provides that fan-out with
//! two hard guarantees:
//!
//! 1. **Determinism**: results are returned in index order and each
//!    index is computed by exactly one worker, so the output is
//!    bit-for-bit identical for every thread count (including 1).
//! 2. **Zero dependencies**: plain `std`, no rayon / crossbeam.
//!
//! Work is distributed dynamically through an atomic cursor, which keeps
//! the workers balanced when per-index cost varies (e.g. shifted solves
//! whose fill-in differs across frequencies).
//!
//! The worker count defaults to [`std::thread::available_parallelism`]
//! and can be overridden with the `PMTBR_THREADS` environment variable.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::NumError;

/// The worker count used by [`par_map`]: the `PMTBR_THREADS` environment
/// variable if set to a positive integer, otherwise the machine's
/// available parallelism (1 if that cannot be determined).
pub fn num_threads() -> usize {
    // numlint:allow(ENV01) perfbench pins workers through it
    if let Ok(v) = std::env::var("PMTBR_THREADS") {
        if let Ok(t) = v.trim().parse::<usize>() {
            if t >= 1 {
                return t;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |t| t.get())
}

/// Maps `f` over `0..n` with the default worker count, returning results
/// in index order. See [`par_map_with`].
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_with(n, num_threads(), f)
}

/// Maps `f` over `0..n` using at most `threads` workers, returning
/// results in index order.
///
/// With `threads <= 1` (or a single item) this is a plain sequential
/// loop on the calling thread — no threads are spawned. The parallel
/// path produces exactly the same values: each index is evaluated once,
/// by one worker, with no shared mutable state visible to `f`.
///
/// # Panics
///
/// Re-raises the first (lowest-index) panic from `f` on the calling
/// thread — but only after every sibling index has been computed, so a
/// panicking item never aborts in-flight work on other workers.
pub fn par_map_with<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut payload = None;
    let results = try_par_map_with(n, threads, |i| {
        catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|_| NumError::WorkerPanicked { index: i })
    });
    let mut out = Vec::with_capacity(n);
    for r in results {
        match r {
            Ok(v) => out.push(v),
            Err(NumError::WorkerPanicked { index }) => {
                payload.get_or_insert(index);
            }
            Err(_) => unreachable!("closure only produces WorkerPanicked"),
        }
    }
    if let Some(index) = payload {
        resume_unwind(Box::new(format!("par_map worker panicked at index {index}")));
    }
    out
}

/// Maps a fallible `f` over `0..n` using at most `threads` workers,
/// returning per-index results in index order.
///
/// Unlike [`par_map_with`], a panic inside `f` is caught *per index* and
/// surfaced as [`NumError::WorkerPanicked`] in that index's slot: sibling
/// work items keep running and complete normally, so one poisoned item
/// (e.g. a shift landing on a generalized eigenvalue that trips a
/// library `panic!`) degrades exactly one result instead of unwinding
/// through the scope and aborting the whole sweep.
///
/// Determinism: identical results for every thread count, including the
/// panic-to-error conversion (whether an index panics depends only on
/// `f` and the index).
pub fn try_par_map_with<T, F>(n: usize, threads: usize, f: F) -> Vec<Result<T, NumError>>
where
    T: Send,
    F: Fn(usize) -> Result<T, NumError> + Sync,
{
    let guarded = |i: usize| -> Result<T, NumError> {
        match catch_unwind(AssertUnwindSafe(|| f(i))) {
            Ok(r) => r,
            Err(_) => Err(NumError::WorkerPanicked { index: i }),
        }
    };
    if threads <= 1 || n <= 1 {
        return (0..n).map(guarded).collect();
    }
    let workers = threads.min(n);
    let cursor = AtomicUsize::new(0);
    let fref = &guarded;
    let cref = &cursor;
    // Each worker claims indices through the shared cursor and collects
    // (index, value) pairs locally; the pairs are then scattered into an
    // index-ordered output, so scheduling cannot affect the result.
    let mut slots: Vec<Option<Result<T, NumError>>> = (0..n).map(|_| None).collect();
    let collected: Vec<Vec<(usize, Result<T, NumError>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = cref.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, fref(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            // `guarded` catches payload panics; a join error here would
            // mean the collection plumbing itself panicked.
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    // Per-worker occupancy is scheduling-dependent data, so it is traced
    // only under the wall clock: counter-clock traces must stay
    // byte-identical across thread counts.
    if obs::is_wall_clock() {
        let mut sp = obs::span("pool");
        sp.field_u64("workers", workers as u64);
        sp.field_u64("items", n as u64);
        for (w, local) in collected.iter().enumerate() {
            obs::event(
                "pool.worker",
                vec![
                    ("worker", obs::Value::U64(w as u64)),
                    ("claimed", obs::Value::U64(local.len() as u64)),
                ],
            );
        }
    }
    for (i, v) in collected.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} computed twice");
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or(Err(NumError::WorkerPanicked { index: i })))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_for_every_thread_count() {
        let expect: Vec<usize> = (0..100).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 17] {
            let got = par_map_with(100, threads, |i| i * i);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(par_map_with(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_with(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(par_map_with(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn results_are_index_ordered_not_completion_ordered() {
        // Earlier indices sleep longer, so completion order is reversed;
        // output order must still be by index.
        let got = par_map_with(6, 6, |i| {
            std::thread::sleep(std::time::Duration::from_millis((6 - i as u64) * 3));
            i
        });
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn try_map_converts_panics_to_per_index_errors() {
        for threads in [1, 2, 4] {
            let got = try_par_map_with(8, threads, |i| {
                if i == 3 || i == 6 {
                    panic!("injected failure at {i}");
                }
                Ok(i * 2)
            });
            for (i, r) in got.iter().enumerate() {
                if i == 3 || i == 6 {
                    assert_eq!(r, &Err(NumError::WorkerPanicked { index: i }), "threads {threads}");
                } else {
                    assert_eq!(r, &Ok(i * 2), "threads {threads}");
                }
            }
        }
    }

    #[test]
    fn try_map_passes_errors_through() {
        let got = try_par_map_with(4, 2, |i| {
            if i == 1 {
                Err(NumError::Singular { pivot: i })
            } else {
                Ok(i)
            }
        });
        assert_eq!(got[1], Err(NumError::Singular { pivot: 1 }));
        assert_eq!(got[2], Ok(2));
    }

    #[test]
    fn par_map_repanics_after_siblings_finish() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let done = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map_with(8, 4, |i| {
                if i == 2 {
                    panic!("boom");
                }
                done.fetch_add(1, Ordering::Relaxed);
                i
            })
        }));
        assert!(result.is_err(), "panic must still propagate to the caller");
        assert_eq!(done.load(Ordering::Relaxed), 7, "all sibling indices must complete");
    }
}
