//! The calibration kernel: the benchmark's unit of time.
//!
//! One *cal* is the wall time of one run of [`Calibrator::sample`]: a
//! fixed-flop dense `N × N` matrix product in plain `f64` loops. It
//! calls no crate of the repository, so no change to the program can
//! make it faster or slower; only the host (load, frequency, cache
//! pressure from neighbours) and the compiler can. Timing each job in
//! cal divides out the host's speed at the moment the job ran.
//!
//! The product is split by rows over the workload's worker-thread
//! count, so a two-worker workload is judged against a two-thread
//! kernel that sees the same contention its jobs see.

use std::hint::black_box;
use std::time::Instant;

/// Matrix dimension of the kernel.
pub const N: usize = 460;

/// Floating-point operations in one kernel run (`2·N³`).
pub const FLOPS: f64 = 2.0 * (N * N * N) as f64;

/// Owns the kernel's inputs and the samples taken so far.
pub struct Calibrator {
    a: Vec<f64>,
    b: Vec<f64>,
    threads: usize,
    checksum: Option<f64>,
    samples: Vec<f64>,
}

impl Calibrator {
    /// Builds the kernel's fixed inputs for `threads` worker threads.
    pub fn new(threads: usize) -> Self {
        let a = (0..N * N)
            .map(|k| ((k * 7 + 3) % 17) as f64 / 17.0 - 0.5)
            .collect();
        let b = (0..N * N)
            .map(|k| ((k * 5 + 1) % 13) as f64 / 13.0 - 0.5)
            .collect();
        Calibrator {
            a,
            b,
            threads: threads.max(1),
            checksum: None,
            samples: Vec::new(),
        }
    }

    /// Runs the kernel once and returns its wall time in seconds (one
    /// cal). The product's checksum must repeat exactly on every run;
    /// a kernel that stopped computing the same thing is a bug.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        let sum = product_checksum(black_box(&self.a), black_box(&self.b), self.threads);
        let secs = t0.elapsed().as_secs_f64();
        match self.checksum {
            None => self.checksum = Some(sum),
            Some(c) => assert!(
                c.to_bits() == sum.to_bits(),
                "calibration kernel checksum changed"
            ),
        }
        self.samples.push(secs);
        secs
    }

    /// Every sample taken so far, in seconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Forgets the samples (set-up samples are not part of the run).
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// The kernel's thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// `C = A·B` in i-k-j order, rows split into `threads` contiguous
/// blocks; returns the sum of `C` so the work cannot be elided.
fn product_checksum(a: &[f64], b: &[f64], threads: usize) -> f64 {
    let rows_per = N.div_ceil(threads);
    let block = |lo: usize, hi: usize| -> f64 {
        let mut c = vec![0.0f64; N];
        let mut sum = 0.0;
        for i in lo..hi {
            c.iter_mut().for_each(|x| *x = 0.0);
            for k in 0..N {
                let aik = a[i * N + k];
                let brow = &b[k * N..(k + 1) * N];
                for (cj, bj) in c.iter_mut().zip(brow) {
                    *cj += aik * bj;
                }
            }
            sum += c.iter().sum::<f64>();
        }
        sum
    };
    if threads == 1 {
        return black_box(block(0, N));
    }
    let parts: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lo = (t * rows_per).min(N);
                let hi = ((t + 1) * rows_per).min(N);
                s.spawn(move || block(lo, hi))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration worker panicked"))
            .collect()
    });
    black_box(parts.iter().sum())
}
