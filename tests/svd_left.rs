//! Bit-identity of the partial SVD entry points against the full SVD.
//!
//! `svd_left(a, k)` and `singular_values(a)` run the same Jacobi core as
//! `svd(a)` but build fewer vectors. The reduction pipeline swapped them
//! in on the promise that nothing it reads changes: every singular value,
//! the leading `k` left vectors, and the sweep/rotation/round counters
//! must equal the full factorization's bit for bit. The inputs cover each
//! path through the core: QR-preconditioned tall, direct near-square,
//! wide (left vectors from the adjoint's accumulated V), exact zero
//! singular values inside the leading `k` (null-column completion),
//! complex, and the parallel driver at 1, 2 and 8 threads.
//!
//! Counters are process-global, so every test here holds one lock while
//! it counts.

use std::sync::{Mutex, MutexGuard, PoisonError};

use numkit::{
    c64, singular_values, svd, svd_left, svd_left_with_opts, svd_with_opts, DMat, Mat, NumError,
    Scalar, SplitMix64, SvdOptions, ZMat,
};
use obs::{counters, Counter};

static COUNTING: Mutex<()> = Mutex::new(());

fn counting() -> MutexGuard<'static, ()> {
    COUNTING.lock().unwrap_or_else(PoisonError::into_inner)
}

const JACOBI_COUNTERS: [Counter; 4] =
    [Counter::SvdSweeps, Counter::SvdRotations, Counter::SvdRounds, Counter::SvdQrPrecond];

/// Runs `f` and returns its result with the Jacobi counter deltas.
fn counted<R>(f: impl FnOnce() -> R) -> (R, [u64; 4]) {
    let before = counters::snapshot();
    let out = f();
    let d = counters::snapshot().delta(&before);
    (out, JACOBI_COUNTERS.map(|c| d.get(c)))
}

fn random_real(rows: usize, cols: usize, seed: u64) -> DMat {
    let mut rng = SplitMix64::new(seed);
    DMat::from_fn(rows, cols, |_, _| rng.next_range(-1.0, 1.0))
}

fn random_complex(rows: usize, cols: usize, seed: u64) -> ZMat {
    let mut rng = SplitMix64::new(seed);
    ZMat::from_fn(rows, cols, |_, _| c64::new(rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0)))
}

/// `rank` random columns followed by exact zero columns: the trailing
/// singular values are exact zeros, so `U` needs null-column completion.
fn zero_padded(rows: usize, cols: usize, rank: usize, seed: u64) -> DMat {
    let live = random_real(rows, rank, seed);
    DMat::from_fn(rows, cols, |i, j| if j < rank { live[(i, j)] } else { 0.0 })
}

fn assert_bits<T: Scalar>(what: &str, x: &[T], y: &[T]) {
    assert_eq!(x.len(), y.len(), "{what}: length");
    for (idx, (a, b)) in x.iter().zip(y).enumerate() {
        assert!(
            a.re().to_bits() == b.re().to_bits() && a.im().to_bits() == b.im().to_bits(),
            "{what}: entry {idx} differs: {:e}{:+e}i vs {:e}{:+e}i",
            a.re(),
            a.im(),
            b.re(),
            b.im()
        );
    }
}

/// The full contract for one input under one set of options. Returns
/// the full factorization's counters so callers can check which path
/// the input took.
fn assert_left_matches_full<T: Scalar>(name: &str, a: &Mat<T>, opts: &SvdOptions) -> [u64; 4] {
    let (full, full_counts) = counted(|| svd_with_opts(a, opts).expect("full svd"));
    let p = a.nrows().min(a.ncols());
    for k in [0, 1, 10, p] {
        let (left, left_counts) =
            counted(|| svd_left_with_opts(a, k, opts).expect("left-only svd"));
        let what = format!("{name}, k = {k}");
        assert_bits(&format!("{what}: s"), &left.s, &full.s);
        assert_eq!(left.u.shape(), (a.nrows(), k.min(p)), "{what}: U shape");
        assert_bits(
            &format!("{what}: U"),
            left.u.as_slice(),
            full.u.leading_cols(k.min(p)).as_slice(),
        );
        assert_eq!(left_counts, full_counts, "{what}: sweep/rotation/round/precond counters");
    }
    full_counts
}

/// `singular_values` and `svd_left` under default options against `svd`.
fn assert_defaults_match<T: Scalar>(name: &str, a: &Mat<T>) {
    let (full, full_counts) = counted(|| svd(a).expect("full svd"));
    let (s, s_counts) = counted(|| singular_values(a).expect("values only"));
    assert_bits(&format!("{name}: singular_values"), &s, &full.s);
    assert_eq!(s_counts, full_counts, "{name}: values-only counters");
    let left = svd_left(a, 3).expect("left-only svd");
    assert_bits(&format!("{name}: svd_left s"), &left.s, &full.s);
    let k = 3.min(full.s.len());
    assert_bits(
        &format!("{name}: svd_left U"),
        left.u.as_slice(),
        full.u.leading_cols(k).as_slice(),
    );
}

const PRECOND: usize = 3;

#[test]
fn tall_preconditioned_matrix() {
    let _guard = counting();
    let a = random_real(60, 20, 0x7A11);
    let counts = assert_left_matches_full("tall", &a, &SvdOptions::default());
    assert_eq!(counts[PRECOND], 1, "a 60×20 input must take the QR-preconditioned path");
    assert_defaults_match("tall", &a);
}

#[test]
fn near_square_matrix_without_preconditioning() {
    let _guard = counting();
    let a = random_real(22, 20, 0x5C0A);
    let counts = assert_left_matches_full("near-square", &a, &SvdOptions::default());
    assert_eq!(counts[PRECOND], 0, "a 22×20 input must run Jacobi directly");
    assert_defaults_match("near-square", &a);
}

#[test]
fn wide_matrix() {
    let _guard = counting();
    // Preconditioned and direct adjoints: both take U from the
    // accumulated right vectors of the transposed problem.
    let a = random_real(14, 40, 0x1DE);
    let counts = assert_left_matches_full("wide", &a, &SvdOptions::default());
    assert_eq!(counts[PRECOND], 1, "the 40×14 adjoint is preconditioned");
    assert_defaults_match("wide", &a);
    let b = random_real(18, 20, 0x1DF);
    let counts = assert_left_matches_full("wide near-square", &b, &SvdOptions::default());
    assert_eq!(counts[PRECOND], 0);
    assert_defaults_match("wide near-square", &b);
}

#[test]
fn rank_deficient_matrix_with_zeros_inside_the_leading_k() {
    let _guard = counting();
    for (name, a) in [
        ("zero-padded tall", zero_padded(24, 16, 5, 0xDEF1)),
        ("zero-padded square", zero_padded(16, 16, 5, 0xDEF2)),
        ("zero-padded wide", zero_padded(24, 16, 5, 0xDEF3).transpose()),
    ] {
        let full = svd(&a).expect("full svd");
        assert!(full.s[5..10].iter().all(|&x| x == 0.0), "{name}: zeros inside k = 10");
        assert!(full.s[4] > 0.0, "{name}: rank 5");
        assert_left_matches_full(name, &a, &SvdOptions::default());
        assert_defaults_match(name, &a);
    }
}

#[test]
fn complex_matrix() {
    let _guard = counting();
    for (name, a) in [
        ("complex tall", random_complex(30, 12, 0xC0)),
        ("complex near-square", random_complex(13, 12, 0xC1)),
        ("complex wide", random_complex(12, 30, 0xC2)),
    ] {
        assert_left_matches_full(name, &a, &SvdOptions::default());
        assert_defaults_match(name, &a);
    }
}

#[test]
fn parallel_driver_at_1_2_and_8_threads() {
    let _guard = counting();
    for (name, a) in [
        ("parallel tall", random_real(100, 64, 0x9A2)),
        ("parallel direct", random_real(70, 64, 0x9A3)),
        ("parallel wide", random_real(56, 90, 0x9A4)),
    ] {
        let base =
            svd_left_with_opts(&a, 10, &SvdOptions { threads: Some(1), ..Default::default() })
                .expect("left-only svd at 1 thread");
        for threads in [1usize, 2, 8] {
            let opts = SvdOptions { threads: Some(threads), ..Default::default() };
            assert_left_matches_full(&format!("{name} at {threads} threads"), &a, &opts);
            let left = svd_left_with_opts(&a, 10, &opts).expect("left-only svd");
            assert_bits(&format!("{name}: s at {threads} threads"), &left.s, &base.s);
            assert_bits(
                &format!("{name}: U at {threads} threads"),
                left.u.as_slice(),
                base.u.as_slice(),
            );
        }
    }
}

#[test]
fn parallel_chaos_panic_is_contained_on_the_left_only_path() {
    let _guard = counting();
    let a = DMat::from_fn(60, 48, |i, j| ((i * 7 + j * 3) % 13) as f64 - 6.0);
    for precondition in [false, true] {
        for input in [a.clone(), a.transpose()] {
            let opts = SvdOptions {
                threads: Some(2),
                qr_precondition: Some(precondition),
                chaos_panic: true,
                ..SvdOptions::default()
            };
            match svd_left_with_opts(&input, 10, &opts) {
                Err(NumError::WorkerPanicked { index: 0 }) => {}
                other => panic!("expected a contained worker panic, got {:?}", other.map(|f| f.s)),
            }
        }
    }
}
