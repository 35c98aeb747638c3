#![warn(missing_docs)]

//! Minimal dense/sparse linear-algebra substrate for the SVD-based fraud
//! detection baselines (SpokEn, FBox).
//!
//! The paper's spectral baselines need exactly one nontrivial primitive: the
//! **top-k singular triplets of a large sparse bipartite adjacency matrix**.
//! Rather than pulling a LAPACK binding, this crate implements the standard
//! randomized truncated SVD (Halko–Martinsson–Tropp) from first principles:
//!
//! - [`dense::Matrix`] — small row-major dense matrices,
//! - [`vector`] — dense vector kernels (dot, axpy, norms),
//! - [`qr::orthonormalize`] — modified Gram–Schmidt with re-orthogonalization,
//! - [`eigen::symmetric_eigen`] — cyclic Jacobi eigensolver for small
//!   symmetric matrices,
//! - [`sparse::CsrMatrix`] — CSR storage with `A·x`, `Aᵀ·x` and blocked
//!   dense products,
//! - [`svd::randomized_svd`] — the composition of the above,
//! - [`svd::svd_small`] — exact (Gram-based) SVD for small dense matrices,
//!   used as the reference implementation in tests,
//! - [`power::power_iteration`] — dominant singular triplet, a cheap
//!   cross-check of the randomized method.
//!
//! Everything is `f64`; matrices in the target workloads are at most a few
//! million nonzeros with k ≤ 50 components.

pub mod dense;
pub mod eigen;
pub mod power;
pub mod qr;
pub mod sparse;
pub mod svd;
pub mod vector;

pub use dense::Matrix;
pub use sparse::CsrMatrix;
pub use svd::{randomized_svd, svd_small, Svd, SvdOptions};
