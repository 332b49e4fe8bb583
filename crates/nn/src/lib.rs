//! # naru-nn
//!
//! A minimal neural-network library with manual back-propagation, written
//! for the Naru reproduction. It provides exactly the pieces a deep
//! autoregressive density estimator over relational data needs:
//!
//! * [`linear::Linear`] — dense layers, optionally with a binary
//!   connectivity mask (the MADE mechanism that enforces
//!   autoregressiveness),
//! * [`embedding::Embedding`] — learned per-column embedding tables used
//!   for large-domain input encoding and for the "embedding reuse" output
//!   decoding described in §4.2 of the paper,
//! * [`made`] — construction of MADE connectivity masks over *grouped*
//!   inputs/outputs (one group per table column),
//! * [`loss`] — per-column softmax cross-entropy (the maximum-likelihood
//!   objective of Eq. 2) and MSE (used by the supervised MSCN baseline),
//! * [`optimizer::Adam`] — the Adam optimizer,
//! * [`mlp::Mlp`] — a small plain feed-forward network used by the MSCN
//!   baseline.
//!
//! No external ML framework is used; gradients are derived by hand and
//! validated against finite differences in the test suite.

#![forbid(unsafe_code)]

pub mod activation;
pub mod embedding;
pub mod init;
pub mod linear;
pub mod loss;
pub mod made;
pub mod mlp;
pub mod optimizer;
pub mod workspace;

pub use activation::Relu;
pub use embedding::Embedding;
pub use linear::Linear;
pub use made::{build_made_masks, GroupSpec};
pub use mlp::Mlp;
pub use optimizer::{Adam, AdamConfig};
pub use workspace::Workspace;

/// Number of bytes used by `n` `f32` parameters; used for the storage-budget
/// accounting that the paper applies to every estimator (Table 1).
pub fn params_size_bytes(n: usize) -> usize {
    n * std::mem::size_of::<f32>()
}
