//! # numkit — dense numerical linear algebra for the PMTBR reproduction
//!
//! Self-contained dense kernels over real (`f64`) and complex ([`c64`])
//! scalars: matrices, LU with partial pivoting, Householder QR (plain and
//! column-pivoted), one-sided Jacobi SVD, symmetric Jacobi
//! eigendecomposition, real Schur form (Francis double-shift QR), general
//! eigendecomposition, and principal angles between subspaces.
//!
//! Everything is implemented from scratch — no BLAS/LAPACK bindings — with
//! an emphasis on the regimes model order reduction cares about: graded
//! spectra spanning many orders of magnitude and near-rank-deficient
//! Gramians.
//!
//! ## Quick tour
//!
//! ```
//! use numkit::{c64, svd, DMat, Lu, ZMat};
//!
//! # fn main() -> Result<(), numkit::NumError> {
//! // Solve a complex shifted system (sI - A) x = b, the core PMTBR kernel.
//! let a = DMat::from_rows(&[&[-1.0, 0.5], &[0.0, -2.0]]);
//! let s = c64::new(0.0, 3.0); // s = 3j
//! let n = a.nrows();
//! let mut shifted = ZMat::from_fn(n, n, |i, j| c64::from_real(-a[(i, j)]));
//! for i in 0..n {
//!     shifted[(i, i)] += s;
//! }
//! let x = Lu::new(shifted)?.solve(&[c64::ONE, c64::ZERO])?;
//! assert!(x[0].is_finite());
//!
//! // SVD of a real matrix.
//! let f = svd(&a)?;
//! assert_eq!(f.s.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must surface failures as `NumError`, not abort: panics
// are reserved for violated internal invariants (and tests).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod angles;
mod cancel;
mod cholesky;
mod complex;
mod eig;
mod eigh;
mod error;
mod expm;
mod lu;
mod mat;
pub mod par;
mod qr;
mod rng;
mod scalar;
mod schur;
mod svd;
pub mod vec_ops;

pub use angles::{max_principal_angle, principal_angles, vector_subspace_angle};
pub use cancel::CancelToken;
pub use cholesky::Cholesky;
pub use complex::c64;
pub use eig::{eig, eig_residual, Eig};
pub use eigh::{eigh, psd_sqrt_factor, SymEig};
pub use error::NumError;
pub use expm::expm;
pub use lu::Lu;
pub use mat::{DMat, Mat, ZMat};
pub use qr::{PivotedQr, Qr};
pub use rng::SplitMix64;
pub use scalar::Scalar;
pub use schur::{quasi_triangular_eigenvalues, schur, Schur};
pub use svd::{
    singular_values, svd, svd_left, svd_left_with_opts, svd_with_opts, LeftSvd, Svd, SvdOptions,
};
