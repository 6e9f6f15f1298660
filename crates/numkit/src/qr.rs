//! Householder QR factorization, plain and column-pivoted (rank-revealing).
//!
//! The pivoted variant backs the "on-the-fly order control" discussion of
//! the PMTBR paper (Section V-C): trailing `R` diagonal magnitudes estimate
//! trailing singular values without a full SVD.

use crate::{Mat, NumError, Scalar};

/// A Householder QR factorization `A = Q·R` (thin form).
///
/// # Examples
///
/// ```
/// use numkit::{DMat, Qr};
///
/// # fn main() -> Result<(), numkit::NumError> {
/// let a = DMat::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]);
/// let qr = Qr::new(a.clone())?;
/// let q = qr.thin_q();
/// // Columns of Q are orthonormal.
/// let gram = &q.adjoint() * &q;
/// assert!((&gram - &DMat::identity(2)).norm_max() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Qr<T> {
    /// Householder vectors below the diagonal; R on and above it.
    qr: Mat<T>,
    /// Scalar factors τ of the reflectors `H = I − τ·v·vᴴ` (real-valued
    /// with our phase convention, stored as `T` for uniformity).
    tau: Vec<T>,
}

/// Builds a Householder reflector that zeroes `a[k+1.., k]`.
///
/// On return the sub-diagonal part of column `k` holds the reflector `v`
/// normalized so the (implicit) leading entry is 1, the diagonal holds the
/// resulting `R` entry `β = −phase(α)·‖x‖`, and the returned `τ` satisfies
/// `H = I − τ·v·vᴴ`, `H·x = β·e₁`. With this phase convention `τ =
/// (‖x‖ + |α|)/‖x‖` is real.
fn make_reflector<T: Scalar>(a: &mut Mat<T>, k: usize) -> T {
    let m = a.nrows();
    let mut norm_sq = 0.0;
    for i in k..m {
        norm_sq += a[(i, k)].abs_sq();
    }
    let norm = norm_sq.sqrt();
    if norm == 0.0 {
        return T::zero();
    }
    let alpha = a[(k, k)];
    let aabs = alpha.abs();
    let phase = if aabs == 0.0 { T::one() } else { alpha.scale(1.0 / aabs) };
    let beta = -(phase.scale(norm));
    let v0 = alpha - beta; // = phase·(|α| + ‖x‖), never zero here
    for i in (k + 1)..m {
        let v = a[(i, k)];
        a[(i, k)] = v / v0;
    }
    a[(k, k)] = beta;
    T::from_f64((norm + aabs) / norm)
}

/// Extracts reflector `k` (leading entry 1) from the packed factor.
fn reflector_vector<T: Scalar>(qr: &Mat<T>, k: usize) -> Vec<T> {
    let m = qr.nrows();
    let mut v = Vec::with_capacity(m - k);
    v.push(T::one());
    for i in (k + 1)..m {
        v.push(qr[(i, k)]);
    }
    v
}

/// Applies `H = I − τ·v·vᴴ` to columns `col_start..` of `target`, acting on
/// rows `k..`.
///
/// Both passes (`w = vᴴ·A`, then `A −= τ·v·wᴴ`-style update) iterate
/// row-by-row over the row-major storage, so the inner loops stream
/// contiguous slices; each `w[j]` still accumulates its terms in
/// ascending row order, which keeps the results bit-identical to the
/// column-at-a-time formulation.
fn apply_reflector<T: Scalar>(v: &[T], k: usize, tau: T, target: &mut Mat<T>, col_start: usize) {
    if tau == T::zero() {
        return;
    }
    let (m, n) = target.shape();
    debug_assert_eq!(v.len(), m - k);
    if col_start >= n {
        return;
    }
    let mut w = vec![T::zero(); n - col_start];
    for (idx, &vi) in v.iter().enumerate() {
        let row = &target.row(k + idx)[col_start..];
        let vc = vi.conj();
        for (acc, &x) in w.iter_mut().zip(row) {
            *acc += vc * x;
        }
    }
    for acc in w.iter_mut() {
        *acc = tau * *acc;
    }
    for (idx, &vi) in v.iter().enumerate() {
        let row = &mut target.row_mut(k + idx)[col_start..];
        for (&tw, x) in w.iter().zip(row.iter_mut()) {
            *x -= tw * vi;
        }
    }
}

impl<T: Scalar> Qr<T> {
    /// Factors `a` (must have `nrows >= ncols`), consuming it.
    ///
    /// # Errors
    ///
    /// - [`NumError::InvalidArgument`] if `nrows < ncols`.
    /// - [`NumError::NotFinite`] if `a` contains NaN/inf.
    pub fn new(mut a: Mat<T>) -> Result<Self, NumError> {
        let (m, n) = a.shape();
        if m < n {
            return Err(NumError::InvalidArgument("qr requires nrows >= ncols"));
        }
        if !a.is_finite() {
            return Err(NumError::NotFinite);
        }
        let mut tau = Vec::with_capacity(n);
        for k in 0..n {
            let t = make_reflector(&mut a, k);
            tau.push(t);
            let v = reflector_vector(&a, k);
            apply_reflector(&v, k, t, &mut a, k + 1);
        }
        Ok(Qr { qr: a, tau })
    }

    /// Number of rows of the factored matrix.
    pub fn nrows(&self) -> usize {
        self.qr.nrows()
    }

    /// Number of columns of the factored matrix.
    pub fn ncols(&self) -> usize {
        self.qr.ncols()
    }

    /// The thin orthonormal factor `Q` (`nrows × ncols`).
    ///
    /// Reflectors are applied last to first, each to columns `k..` only
    /// (LAPACK `dorg2r`): when reflector `k` runs, every column `j < k`
    /// is still `e_j`, which is zero in the rows `k..` the reflector
    /// acts on, so applying it there would change no bit.
    pub fn thin_q(&self) -> Mat<T> {
        let (m, n) = self.qr.shape();
        let mut q = Mat::zeros(m, n);
        for i in 0..n {
            q[(i, i)] = T::one();
        }
        for k in (0..n).rev() {
            let v = reflector_vector(&self.qr, k);
            apply_reflector(&v, k, self.tau[k], &mut q, k);
        }
        q
    }

    /// The upper-triangular factor `R` (`ncols × ncols`).
    pub fn r(&self) -> Mat<T> {
        let n = self.qr.ncols();
        Mat::from_fn(n, n, |i, j| if j >= i { self.qr[(i, j)] } else { T::zero() })
    }

    /// Least-squares solve: minimizes `‖A·x − b‖₂`.
    ///
    /// # Errors
    ///
    /// - [`NumError::ShapeMismatch`] if `b.len() != nrows`.
    /// - [`NumError::Singular`] if `R` has a zero diagonal (rank-deficient).
    pub fn solve_ls(&self, b: &[T]) -> Result<Vec<T>, NumError> {
        let (m, n) = self.qr.shape();
        if b.len() != m {
            return Err(NumError::ShapeMismatch {
                operation: "qr solve_ls",
                left: (m, n),
                right: (b.len(), 1),
            });
        }
        // y = Qᴴ b via the stored reflectors.
        let mut y = Mat::from_fn(m, 1, |i, _| b[i]);
        for k in 0..n {
            let v = reflector_vector(&self.qr, k);
            apply_reflector(&v, k, self.tau[k], &mut y, 0);
        }
        // Back-substitute R x = y[0..n].
        let mut x = vec![T::zero(); n];
        for i in (0..n).rev() {
            let mut acc = y[(i, 0)];
            for j in (i + 1)..n {
                acc -= self.qr[(i, j)] * x[j];
            }
            let d = self.qr[(i, i)];
            if d.abs() == 0.0 {
                return Err(NumError::Singular { pivot: i });
            }
            x[i] = acc / d;
        }
        Ok(x)
    }
}

/// A column-pivoted (rank-revealing) QR factorization `A·P = Q·R`.
///
/// The diagonal of `R` is non-increasing in magnitude, so `|r_kk|` bounds
/// the `(k+1)`-th singular value from above (up to a modest factor) and can
/// be used for cheap numerical-rank decisions.
#[derive(Debug, Clone)]
pub struct PivotedQr<T> {
    inner: Qr<T>,
    /// Column permutation: column `j` of `A·P` is column `perm[j]` of `A`.
    perm: Vec<usize>,
}

/// Squared norms of the trailing columns `ncols − out.len()..` of `a`
/// over rows `r0..`, written to `out`. Streams whole row segments
/// instead of striding down columns; each norm still sums its rows in
/// ascending order, so the values match a column-at-a-time sum bit for
/// bit.
fn residual_norms<T: Scalar>(a: &Mat<T>, r0: usize, out: &mut [f64]) {
    let c0 = a.ncols() - out.len();
    out.fill(0.0);
    for i in r0..a.nrows() {
        for (acc, x) in out.iter_mut().zip(&a.row(i)[c0..]) {
            *acc += x.abs_sq();
        }
    }
}

impl<T: Scalar> PivotedQr<T> {
    /// Factors `a` with greedy column pivoting on residual column norms.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Qr::new`].
    pub fn new(mut a: Mat<T>) -> Result<Self, NumError> {
        let (m, n) = a.shape();
        if m < n {
            return Err(NumError::InvalidArgument("pivoted qr requires nrows >= ncols"));
        }
        if !a.is_finite() {
            return Err(NumError::NotFinite);
        }
        let mut perm: Vec<usize> = (0..n).collect();
        let mut tau = Vec::with_capacity(n);
        // Residual squared norms of each column.
        let mut colnorm = vec![0.0f64; n];
        residual_norms(&a, 0, &mut colnorm);
        for k in 0..n {
            // Pivot: bring the column with the largest residual norm to k.
            let (p, _) = colnorm[k..]
                .iter()
                .enumerate()
                .fold((0, -1.0), |best, (i, &v)| if v > best.1 { (i, v) } else { best });
            let p = p + k;
            if p != k {
                for i in 0..m {
                    let t = a[(i, k)];
                    a[(i, k)] = a[(i, p)];
                    a[(i, p)] = t;
                }
                colnorm.swap(k, p);
                perm.swap(k, p);
            }
            let t = make_reflector(&mut a, k);
            tau.push(t);
            let v = reflector_vector(&a, k);
            apply_reflector(&v, k, t, &mut a, k + 1);
            // Recompute residual norms exactly; our sizes are modest and
            // exact recomputation avoids the classical cancellation pitfall
            // of norm downdating.
            residual_norms(&a, k + 1, &mut colnorm[k + 1..]);
        }
        Ok(PivotedQr { inner: Qr { qr: a, tau }, perm })
    }

    /// The thin orthonormal factor.
    pub fn thin_q(&self) -> Mat<T> {
        self.inner.thin_q()
    }

    /// The upper-triangular factor (of the permuted matrix).
    pub fn r(&self) -> Mat<T> {
        self.inner.r()
    }

    /// The column permutation: pivoted column `j` was original column
    /// `perm()[j]`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Magnitudes of the `R` diagonal, non-increasing.
    pub fn r_diag_abs(&self) -> Vec<f64> {
        (0..self.inner.qr.ncols()).map(|i| self.inner.qr[(i, i)].abs()).collect()
    }

    /// Numerical rank: number of diagonal entries above `tol·|r₀₀|`.
    pub fn rank(&self, tol: f64) -> usize {
        let d = self.r_diag_abs();
        let scale = d.first().copied().unwrap_or(0.0);
        if scale == 0.0 {
            return 0;
        }
        d.iter().take_while(|&&v| v > tol * scale).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{c64, DMat, ZMat};

    fn reconstruct<T: Scalar>(q: &Mat<T>, r: &Mat<T>) -> Mat<T> {
        q.matmul(r).unwrap()
    }

    #[test]
    fn qr_reconstructs_real() {
        let a = DMat::from_fn(5, 3, |i, j| ((i * 3 + j * 7) % 13) as f64 - 6.0);
        let qr = Qr::new(a.clone()).unwrap();
        let rec = reconstruct(&qr.thin_q(), &qr.r());
        assert!((&rec - &a).norm_max() < 1e-12, "reconstruction error too large");
    }

    #[test]
    fn qr_q_is_orthonormal_complex() {
        let a = ZMat::from_fn(6, 4, |i, j| {
            c64::new(((i + 2 * j) % 7) as f64 - 3.0, ((3 * i + j) % 5) as f64 - 2.0)
        });
        let qr = Qr::new(a.clone()).unwrap();
        let q = qr.thin_q();
        let gram = &q.adjoint() * &q;
        assert!((&gram - &ZMat::identity(4)).norm_max() < 1e-12);
        let rec = reconstruct(&q, &qr.r());
        assert!((&rec - &a).norm_max() < 1e-12);
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = DMat::from_fn(4, 4, |i, j| (1 + i + j * j) as f64);
        let qr = Qr::new(a).unwrap();
        let r = qr.r();
        for i in 0..4 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn least_squares_matches_normal_equations() {
        // Fit y = c0 + c1 x to 4 points; compare with the known solution.
        let a = DMat::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let b = [1.0, 2.0, 2.0, 3.0];
        let x = Qr::new(a).unwrap().solve_ls(&b).unwrap();
        assert!((x[0] - 1.1).abs() < 1e-12);
        assert!((x[1] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn wide_matrix_is_rejected() {
        assert!(Qr::new(DMat::zeros(2, 3)).is_err());
    }

    #[test]
    fn zero_column_is_handled() {
        let mut a = DMat::from_fn(4, 3, |i, j| ((i + j) % 3) as f64 + 1.0);
        for i in 0..4 {
            a[(i, 1)] = 0.0;
        }
        let qr = Qr::new(a.clone()).unwrap();
        let rec = reconstruct(&qr.thin_q(), &qr.r());
        assert!((&rec - &a).norm_max() < 1e-12);
    }

    #[test]
    fn pivoted_qr_reveals_rank() {
        // Rank-2 matrix: third column is the sum of the first two.
        let mut a = DMat::from_fn(6, 3, |i, j| {
            ((i + 1) * (j + 1)) as f64 + if j == 1 { (i * i) as f64 } else { 0.0 }
        });
        for i in 0..6 {
            a[(i, 2)] = a[(i, 0)] + a[(i, 1)];
        }
        let pqr = PivotedQr::new(a).unwrap();
        assert_eq!(pqr.rank(1e-10), 2);
        let d = pqr.r_diag_abs();
        assert!(d[0] >= d[1] && d[1] >= d[2] - 1e-12, "diagonal must be non-increasing");
    }

    #[test]
    fn pivoted_qr_reconstructs_with_permutation() {
        let a = DMat::from_fn(5, 4, |i, j| ((i * 5 + j * 11) % 17) as f64 - 8.0);
        let pqr = PivotedQr::new(a.clone()).unwrap();
        let rec = pqr.thin_q().matmul(&pqr.r()).unwrap();
        // rec should equal A·P, i.e. rec[:, j] == a[:, perm[j]].
        for j in 0..4 {
            let orig = a.col(pqr.perm()[j]);
            let got = rec.col(j);
            for (x, y) in orig.iter().zip(&got) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    /// `thin_q` before the `dorg2r` restriction: every reflector applied
    /// to all columns.
    fn thin_q_full_width<T: Scalar>(qr: &Qr<T>) -> Mat<T> {
        let (m, n) = qr.qr.shape();
        let mut q = Mat::zeros(m, n);
        for i in 0..n {
            q[(i, i)] = T::one();
        }
        for k in (0..n).rev() {
            let v = reflector_vector(&qr.qr, k);
            apply_reflector(&v, k, qr.tau[k], &mut q, 0);
        }
        q
    }

    /// `PivotedQr::new` before the streamed norm recompute: residual
    /// norms summed down each column with strided reads.
    fn pivoted_qr_strided_norms<T: Scalar>(mut a: Mat<T>) -> PivotedQr<T> {
        let (m, n) = a.shape();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut tau = Vec::with_capacity(n);
        let mut colnorm: Vec<f64> =
            (0..n).map(|j| (0..m).map(|i| a[(i, j)].abs_sq()).sum()).collect();
        for k in 0..n {
            let (p, _) = colnorm[k..]
                .iter()
                .enumerate()
                .fold((0, -1.0), |best, (i, &v)| if v > best.1 { (i, v) } else { best });
            let p = p + k;
            if p != k {
                for i in 0..m {
                    let t = a[(i, k)];
                    a[(i, k)] = a[(i, p)];
                    a[(i, p)] = t;
                }
                colnorm.swap(k, p);
                perm.swap(k, p);
            }
            let t = make_reflector(&mut a, k);
            tau.push(t);
            let v = reflector_vector(&a, k);
            apply_reflector(&v, k, t, &mut a, k + 1);
            for (j, cn) in colnorm.iter_mut().enumerate().skip(k + 1) {
                *cn = ((k + 1)..m).map(|i| a[(i, j)].abs_sq()).sum();
            }
        }
        PivotedQr { inner: Qr { qr: a, tau }, perm }
    }

    fn assert_bits<T: Scalar>(what: &str, x: &[T], y: &[T]) {
        assert_eq!(x.len(), y.len(), "{what}: length");
        for (idx, (a, b)) in x.iter().zip(y).enumerate() {
            assert!(
                a.re().to_bits() == b.re().to_bits() && a.im().to_bits() == b.im().to_bits(),
                "{what}: entry {idx} differs"
            );
        }
    }

    /// Square, tall, graded (columns scaled over 12 decades),
    /// rank-deficient (repeated and zero columns) and norm-tied inputs
    /// of one scalar type, built from a deterministic entry generator.
    fn bit_identity_inputs<T: Scalar>(
        entry: impl Fn(usize, usize) -> T,
    ) -> Vec<(&'static str, Mat<T>)> {
        let square = Mat::from_fn(9, 9, &entry);
        let tall = Mat::from_fn(23, 8, &entry);
        let graded = Mat::from_fn(17, 7, |i, j| entry(i, j).scale(10f64.powi(-2 * j as i32)));
        let deficient = Mat::from_fn(12, 6, |i, j| match j {
            2 => T::zero(),
            4 => entry(i, 1).scale(3.0),
            5 => entry(i, 0) + entry(i, 1),
            _ => entry(i, j),
        });
        // Columns are cyclic row shifts of one column: their norms tie in
        // exact arithmetic, so the first pivot is decided by rounding
        // alone and any change in summation order shows.
        let tied = Mat::from_fn(16, 6, |i, j| entry((i + 3 * j) % 16, 0));
        vec![
            ("square", square),
            ("tall", tall),
            ("graded", graded),
            ("deficient", deficient),
            ("tied", tied),
        ]
    }

    fn check_against_reference<T: Scalar>(entry: impl Fn(usize, usize) -> T) {
        for (name, a) in bit_identity_inputs(entry) {
            let qr = Qr::new(a.clone()).unwrap();
            assert_bits(name, qr.thin_q().as_slice(), thin_q_full_width(&qr).as_slice());
            let fast = PivotedQr::new(a.clone()).unwrap();
            let slow = pivoted_qr_strided_norms(a);
            assert_eq!(fast.perm, slow.perm, "{name}: pivot order");
            assert_bits(name, fast.inner.qr.as_slice(), slow.inner.qr.as_slice());
            assert_bits(name, &fast.inner.tau, &slow.inner.tau);
            assert_bits(name, fast.thin_q().as_slice(), thin_q_full_width(&slow.inner).as_slice());
        }
    }

    #[test]
    fn thin_q_and_pivoting_match_the_reference_bit_for_bit_real() {
        check_against_reference(|i, j| ((i * 7 + j * 13 + i * j) % 19) as f64 / 4.0 - 2.3);
    }

    #[test]
    fn thin_q_and_pivoting_match_the_reference_bit_for_bit_complex() {
        check_against_reference(|i, j| {
            let re = ((i * 5 + j * 11) % 17) as f64 / 3.0 - 2.5;
            c64::new(re, ((i * 3 + j * j) % 13) as f64 / 5.0 - 1.1)
        });
    }

    #[test]
    fn zero_matrix_has_rank_zero() {
        let pqr = PivotedQr::new(DMat::zeros(4, 3)).unwrap();
        assert_eq!(pqr.rank(1e-12), 0);
    }
}
