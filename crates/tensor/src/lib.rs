//! # naru-tensor
//!
//! Dense numeric kernels used by the rest of the workspace.
//!
//! This crate provides a deliberately small surface: a row-major [`Matrix`]
//! of `f32`, the handful of BLAS-like kernels needed for multi-layer
//! perceptron training (matrix multiplication in the three orientations
//! required by forward and backward passes, row-wise softmax /
//! log-softmax), and numeric helpers (log-sum-exp, quantiles, Box–Muller
//! normal sampling) shared by the statistical estimators.
//!
//! The matmul kernels come in three tiers — naive reference loops
//! ([`ops::naive`]), cache-blocked serial kernels with an unrolled dot
//! product, and row-partitioned `std::thread::scope` parallel kernels —
//! dispatched by a process-wide [`KernelPolicy`] plus a FLOP threshold.
//! The `_into` variants write into caller-provided buffers so inference
//! hot paths run allocation-free at steady state; see `ops` for details.

#![forbid(unsafe_code)]

pub mod matrix;
pub mod ops;
pub mod rng;
pub mod stats;

pub use matrix::Matrix;
pub use ops::{
    dot, dot4, kernel_policy, log_softmax_rows, log_softmax_rows_inplace, log_sum_exp, matmul, matmul_a_bt,
    matmul_a_bt_into, matmul_at_b, matmul_at_b_into, matmul_into, parallel_threads, set_kernel_policy,
    set_parallel_threads, softmax_rows, softmax_rows_inplace, KernelPolicy,
};
pub use rng::NormalSampler;
pub use stats::{mean, percentile, quantiles, variance};
