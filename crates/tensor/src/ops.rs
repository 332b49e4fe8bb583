//! Matrix multiplication and row-wise softmax kernels.
//!
//! Three matmul orientations are provided because back-propagation through a
//! linear layer `Y = X W^T + b` needs all of them:
//!
//! * forward:              `Y  = X  W^T`  → [`matmul_a_bt`]
//! * gradient w.r.t. X:    `dX = dY W`    → [`matmul`]
//! * gradient w.r.t. W:    `dW = dY^T X`  → [`matmul_at_b`]
//!
//! Every orientation exists in three implementations:
//!
//! * the **naive** textbook loops in [`naive`], kept as the reference the
//!   property tests compare against;
//! * **blocked** serial kernels ([`matmul_into_blocked`] and friends) that
//!   tile the output so the working set stays cache-resident and unroll the
//!   dot-product inner loop into eight independent accumulators ([`dot`]) so
//!   the compiler can vectorize it;
//! * **parallel** kernels ([`matmul_into_parallel`] and friends) that
//!   partition the output rows across `std::thread::scope` threads, each
//!   running the blocked kernel on its slice. Because every output element
//!   is still accumulated in exactly the same order, the parallel kernels
//!   are bit-identical to the blocked ones.
//!
//! The public entry points ([`matmul`], [`matmul_into`], …) dispatch between
//! the implementations according to the global [`KernelPolicy`] and a
//! FLOP-count threshold ([`PARALLEL_FLOPS_THRESHOLD`]); the `_into` variants
//! write into a caller-provided [`Matrix`] so steady-state inference makes
//! no allocations at all.
//!
//! All kernels accumulate in `f32`; the models trained in this workspace are
//! small enough that this is numerically adequate (verified by the
//! gradient-check tests in `naru-nn`).

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::matrix::Matrix;

/// Which kernel implementations the public entry points use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPolicy {
    /// Always run the naive reference loops. Used by benchmarks to measure
    /// the pre-optimization baseline; never faster.
    Naive,
    /// Blocked serial kernels only, regardless of size.
    Blocked,
    /// Blocked kernels, switching to the threaded path for large products
    /// (the default).
    Auto,
    /// Always take the threaded path, regardless of size. Combined with
    /// [`set_parallel_threads`], this forces the parallel tier even on
    /// hardware that reports a single core — the parity tests use it to
    /// exercise multi-threaded row partitioning everywhere.
    Parallel,
}

static KERNEL_POLICY: AtomicU8 = AtomicU8::new(2);

/// Sets the process-wide kernel policy. Intended for benchmarks and tests;
/// production code leaves the default ([`KernelPolicy::Auto`]) in place.
pub fn set_kernel_policy(policy: KernelPolicy) {
    KERNEL_POLICY.store(policy as u8, Ordering::Relaxed);
}

/// The current process-wide kernel policy.
pub fn kernel_policy() -> KernelPolicy {
    match KERNEL_POLICY.load(Ordering::Relaxed) {
        0 => KernelPolicy::Naive,
        1 => KernelPolicy::Blocked,
        3 => KernelPolicy::Parallel,
        _ => KernelPolicy::Auto,
    }
}

static PARALLEL_THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides how many threads the parallel kernels partition rows across.
/// `0` restores the default (hardware parallelism, capped at 8). Intended
/// for benchmarks and tests — notably to force multi-threaded execution on
/// single-core CI hosts, where the default would fall back to one thread.
pub fn set_parallel_threads(threads: usize) {
    PARALLEL_THREADS_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// The current thread-count override (`0` = automatic).
pub fn parallel_threads() -> usize {
    PARALLEL_THREADS_OVERRIDE.load(Ordering::Relaxed)
}

/// Minimum number of multiply-adds (`m * n * k`) before [`KernelPolicy::Auto`]
/// switches to the threaded kernels. Below this, thread-spawn overhead
/// (~tens of microseconds per `std::thread::scope`) outweighs the win.
pub const PARALLEL_FLOPS_THRESHOLD: usize = 1 << 21;

/// Rows of the output tile processed per cache block.
const TILE_ROWS: usize = 64;
/// Columns of the output tile processed per cache block.
const TILE_COLS: usize = 64;
/// Minimum output rows a worker thread must receive to be worth spawning.
const MIN_ROWS_PER_THREAD: usize = 16;

fn max_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8))
}

/// Textbook reference implementations of the three matmul orientations.
///
/// These are the exact kernels the workspace shipped with before the blocked
/// and parallel variants existed. They are deliberately kept (and exercised
/// by the property tests in `crates/tensor/tests/proptests.rs`) as the
/// ground truth every optimized kernel must match.
pub mod naive {
    use crate::matrix::Matrix;

    /// `C = A * B` where `A` is `m x k` and `B` is `k x n`.
    ///
    /// # Panics
    /// Panics if inner dimensions do not match.
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch: {:?} * {:?}", a.shape(), b.shape());
        let m = a.rows();
        let n = b.cols();
        let mut c = Matrix::zeros(m, n);
        // i-k-j loop order keeps the innermost loop streaming over contiguous
        // rows of both B and C.
        for i in 0..m {
            let a_row = a.row(i);
            let c_row = c.row_mut(i);
            for (p, &a_ip) in a_row.iter().enumerate() {
                if a_ip == 0.0 {
                    continue;
                }
                let b_row = b.row(p);
                for j in 0..n {
                    c_row[j] += a_ip * b_row[j];
                }
            }
        }
        c
    }

    /// `C = A * B^T` where `A` is `m x k` and `B` is `n x k`.
    pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.cols(), "matmul_a_bt inner dimension mismatch: {:?} * {:?}^T", a.shape(), b.shape());
        let m = a.rows();
        let n = b.rows();
        let mut c = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = a.row(i);
            let c_row = c.row_mut(i);
            for (j, out) in c_row.iter_mut().enumerate() {
                let b_row = b.row(j);
                let mut acc = 0.0f32;
                for p in 0..a_row.len() {
                    acc += a_row[p] * b_row[p];
                }
                *out = acc;
            }
        }
        c
    }

    /// `C = A^T * B` where `A` is `k x m` and `B` is `k x n`.
    pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows(), b.rows(), "matmul_at_b inner dimension mismatch: {:?}^T * {:?}", a.shape(), b.shape());
        let k = a.rows();
        let m = a.cols();
        let n = b.cols();
        let mut c = Matrix::zeros(m, n);
        for p in 0..k {
            let a_row = a.row(p);
            let b_row = b.row(p);
            for (i, &a_pi) in a_row.iter().enumerate() {
                if a_pi == 0.0 {
                    continue;
                }
                let c_row = c.row_mut(i);
                for j in 0..n {
                    c_row[j] += a_pi * b_row[j];
                }
            }
        }
        c
    }
}

/// Dot product with the inner loop unrolled into eight independent
/// accumulator lanes, breaking the loop-carried dependence of the naive
/// `acc += a[p] * b[p]` form so the compiler can keep several FMAs in
/// flight (and vectorize the lanes).
///
/// # Panics
/// Panics (in debug builds) if the slices differ in length.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len(), "dot length mismatch");
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let chunks = x.len() / LANES;
    let (x_main, x_tail) = x.split_at(chunks * LANES);
    let (y_main, y_tail) = y.split_at(chunks * LANES);
    for (xc, yc) in x_main.chunks_exact(LANES).zip(y_main.chunks_exact(LANES)) {
        for l in 0..LANES {
            acc[l] += xc[l] * yc[l];
        }
    }
    let mut tail = 0.0f32;
    for (xv, yv) in x_tail.iter().zip(y_tail.iter()) {
        tail += xv * yv;
    }
    reduce_lanes(&acc) + tail
}

/// The fixed lane-reduction order shared by [`dot`] and [`dot4`]. Keeping it
/// in one place guarantees the two kernels produce bit-identical sums for
/// the same inputs.
#[inline]
fn reduce_lanes(acc: &[f32; 8]) -> f32 {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
}

/// Four dot products of `x` against `y0..y3` in a single pass over `x`.
///
/// This is the register-blocked micro-kernel behind the `A * B^T`
/// orientation: each output column keeps its own eight-lane accumulator
/// array and its own tail sum, updated in exactly the same order as a
/// standalone [`dot`] call — so `dot4(x, y0, y1, y2, y3)` is **bit-identical**
/// to `[dot(x, y0), dot(x, y1), dot(x, y2), dot(x, y3)]` — while every
/// loaded lane of `x` is reused four times instead of once. The per-column
/// accumulators are independent contiguous arrays the compiler can keep in
/// vector registers, and the shared iterator-chunked body auto-vectorizes
/// the same way [`dot`]'s does.
///
/// # Panics
/// Panics (in debug builds) if any slice differs in length from `x`.
#[inline]
pub fn dot4(x: &[f32], y0: &[f32], y1: &[f32], y2: &[f32], y3: &[f32]) -> [f32; 4] {
    debug_assert!(
        y0.len() == x.len() && y1.len() == x.len() && y2.len() == x.len() && y3.len() == x.len(),
        "dot4 length mismatch"
    );
    const LANES: usize = 8;
    let split = (x.len() / LANES) * LANES;
    let (x_main, x_tail) = x.split_at(split);
    let (y0_main, y0_tail) = y0.split_at(split);
    let (y1_main, y1_tail) = y1.split_at(split);
    let (y2_main, y2_tail) = y2.split_at(split);
    let (y3_main, y3_tail) = y3.split_at(split);
    let mut a0 = [0.0f32; LANES];
    let mut a1 = [0.0f32; LANES];
    let mut a2 = [0.0f32; LANES];
    let mut a3 = [0.0f32; LANES];
    let chunks = x_main
        .chunks_exact(LANES)
        .zip(y0_main.chunks_exact(LANES))
        .zip(y1_main.chunks_exact(LANES))
        .zip(y2_main.chunks_exact(LANES))
        .zip(y3_main.chunks_exact(LANES));
    for ((((xc, c0), c1), c2), c3) in chunks {
        for l in 0..LANES {
            let xv = xc[l];
            a0[l] += xv * c0[l];
            a1[l] += xv * c1[l];
            a2[l] += xv * c2[l];
            a3[l] += xv * c3[l];
        }
    }
    let mut t0 = 0.0f32;
    let mut t1 = 0.0f32;
    let mut t2 = 0.0f32;
    let mut t3 = 0.0f32;
    for ((((xv, v0), v1), v2), v3) in
        x_tail.iter().zip(y0_tail.iter()).zip(y1_tail.iter()).zip(y2_tail.iter()).zip(y3_tail.iter())
    {
        t0 += xv * v0;
        t1 += xv * v1;
        t2 += xv * v2;
        t3 += xv * v3;
    }
    [reduce_lanes(&a0) + t0, reduce_lanes(&a1) + t1, reduce_lanes(&a2) + t2, reduce_lanes(&a3) + t3]
}

/// `out[j] += s * x[j]` with a contiguous streaming inner loop.
#[inline]
fn axpy_slice(out: &mut [f32], s: f32, x: &[f32]) {
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o += s * v;
    }
}

// --- blocked serial kernels (operate on a row range of C) ---------------

/// `C[lo..hi] = A[lo..hi] * B`, i-k-j order with the k loop tiled so the
/// touched rows of `B` stay cache-resident. `c_rows` holds rows `lo..hi` of
/// the output contiguously and is overwritten.
fn matmul_rows(a: &Matrix, b: &Matrix, c_rows: &mut [f32], lo: usize, hi: usize) {
    let n = b.cols();
    let k = a.cols();
    c_rows.iter_mut().for_each(|v| *v = 0.0);
    for kb in (0..k).step_by(TILE_COLS) {
        let kb_hi = (kb + TILE_COLS).min(k);
        for i in lo..hi {
            let a_row = &a.row(i)[kb..kb_hi];
            let c_row = &mut c_rows[(i - lo) * n..(i - lo + 1) * n];
            for (p, &a_ip) in a_row.iter().enumerate() {
                // One-hot / masked inputs are mostly zero; skipping them is a
                // big win and never changes the result.
                if a_ip == 0.0 {
                    continue;
                }
                axpy_slice(c_row, a_ip, b.row(kb + p));
            }
        }
    }
}

/// `C[lo..hi] = A[lo..hi] * B^T` with the output tiled `TILE_ROWS x
/// TILE_COLS` so each tile's `A` and `B` rows stay in L1/L2 while every
/// element is computed with the unrolled [`dot`].
fn matmul_a_bt_rows(a: &Matrix, b: &Matrix, c_rows: &mut [f32], lo: usize, hi: usize) {
    let n = b.rows();
    for ib in (lo..hi).step_by(TILE_ROWS) {
        let ib_hi = (ib + TILE_ROWS).min(hi);
        for jb in (0..n).step_by(TILE_COLS) {
            let jb_hi = (jb + TILE_COLS).min(n);
            for i in ib..ib_hi {
                let a_row = a.row(i);
                let c_row = &mut c_rows[(i - lo) * n..(i - lo + 1) * n];
                let c_tile = &mut c_row[jb..jb_hi];
                // Register-blocked body: four output columns per pass over
                // `a_row` via `dot4` (bit-identical to four `dot` calls),
                // then the per-element kernel for the ragged remainder.
                let mut j = 0usize;
                while j + 4 <= c_tile.len() {
                    let out = dot4(a_row, b.row(jb + j), b.row(jb + j + 1), b.row(jb + j + 2), b.row(jb + j + 3));
                    c_tile[j..j + 4].copy_from_slice(&out);
                    j += 4;
                }
                for (jj, out) in c_tile[j..].iter_mut().enumerate() {
                    *out = dot(a_row, b.row(jb + j + jj));
                }
            }
        }
    }
}

/// `C[lo..hi] = (A^T * B)[lo..hi]`: output row `i` is column `i` of `A`.
/// The p (reduction) loop stays outermost so `B` is streamed once per call
/// while the active block of `C` stays cache-resident.
fn matmul_at_b_rows(a: &Matrix, b: &Matrix, c_rows: &mut [f32], lo: usize, hi: usize) {
    let k = a.rows();
    let n = b.cols();
    c_rows.iter_mut().for_each(|v| *v = 0.0);
    for p in 0..k {
        let a_row = a.row(p);
        let b_row = b.row(p);
        for i in lo..hi {
            let a_pi = a_row[i];
            if a_pi == 0.0 {
                continue;
            }
            axpy_slice(&mut c_rows[(i - lo) * n..(i - lo + 1) * n], a_pi, b_row);
        }
    }
}

// --- shape checks and parallel driver -----------------------------------

fn check_matmul(a: &Matrix, b: &Matrix) -> (usize, usize, usize) {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch: {:?} * {:?}", a.shape(), b.shape());
    (a.rows(), b.cols(), a.cols())
}

fn check_a_bt(a: &Matrix, b: &Matrix) -> (usize, usize, usize) {
    assert_eq!(a.cols(), b.cols(), "matmul_a_bt inner dimension mismatch: {:?} * {:?}^T", a.shape(), b.shape());
    (a.rows(), b.rows(), a.cols())
}

fn check_at_b(a: &Matrix, b: &Matrix) -> (usize, usize, usize) {
    assert_eq!(a.rows(), b.rows(), "matmul_at_b inner dimension mismatch: {:?}^T * {:?}", a.shape(), b.shape());
    (a.cols(), b.cols(), a.rows())
}

/// Splits `c` into contiguous row chunks and runs `kernel` on each from a
/// scoped thread. Row-partitioning keeps every output element's
/// accumulation order identical to the serial kernels, so the parallel
/// path is deterministic and bit-identical to the blocked one.
fn par_row_partition(c: &mut Matrix, kernel: impl Fn(&mut [f32], usize, usize) + Sync) {
    let m = c.rows();
    let n = c.cols();
    let threads = match parallel_threads() {
        0 => max_threads().min(m / MIN_ROWS_PER_THREAD).max(1),
        forced => forced.min(m).max(1),
    };
    if threads <= 1 || m == 0 {
        kernel(c.data_mut(), 0, m);
        return;
    }
    let rows_per = m.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, chunk) in c.data_mut().chunks_mut(rows_per * n.max(1)).enumerate() {
            let lo = t * rows_per;
            let hi = lo + chunk.len() / n.max(1);
            let kernel = &kernel;
            scope.spawn(move || kernel(chunk, lo, hi));
        }
    });
}

// --- public `_into` entry points ----------------------------------------

/// `C = A * B` written into `c` (resized as needed, allocation-free once
/// `c`'s capacity suffices). Dispatches per the global [`KernelPolicy`].
pub fn matmul_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, n, k) = check_matmul(a, b);
    // lint: allow(no_alloc) - resize on a caller-retained buffer: allocates only on first use or growth, amortized to zero in the steady state
    c.resize(m, n);
    match effective_policy(m, n, k) {
        Impl::Naive => *c = naive::matmul(a, b),
        Impl::Blocked => matmul_rows(a, b, c.data_mut(), 0, m),
        Impl::Parallel => par_row_partition(c, |chunk, lo, hi| matmul_rows(a, b, chunk, lo, hi)),
    }
}

/// `C = A * B^T` written into `c`. Dispatches per the global [`KernelPolicy`].
pub fn matmul_a_bt_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, n, k) = check_a_bt(a, b);
    // lint: allow(no_alloc) - resize on a caller-retained buffer: allocates only on first use or growth, amortized to zero in the steady state
    c.resize(m, n);
    match effective_policy(m, n, k) {
        Impl::Naive => *c = naive::matmul_a_bt(a, b),
        Impl::Blocked => matmul_a_bt_rows(a, b, c.data_mut(), 0, m),
        Impl::Parallel => par_row_partition(c, |chunk, lo, hi| matmul_a_bt_rows(a, b, chunk, lo, hi)),
    }
}

/// `C = A^T * B` written into `c`. Dispatches per the global [`KernelPolicy`].
pub fn matmul_at_b_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, n, k) = check_at_b(a, b);
    // lint: allow(no_alloc) - resize on a caller-retained buffer: allocates only on first use or growth, amortized to zero in the steady state
    c.resize(m, n);
    match effective_policy(m, n, k) {
        Impl::Naive => *c = naive::matmul_at_b(a, b),
        Impl::Blocked => matmul_at_b_rows(a, b, c.data_mut(), 0, m),
        Impl::Parallel => par_row_partition(c, |chunk, lo, hi| matmul_at_b_rows(a, b, chunk, lo, hi)),
    }
}

// --- explicit blocked / parallel variants (benchmarks & property tests) --

/// Blocked serial `C = A * B`, regardless of policy.
pub fn matmul_into_blocked(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, n, _) = check_matmul(a, b);
    c.resize(m, n);
    matmul_rows(a, b, c.data_mut(), 0, m);
}

/// Blocked serial `C = A * B^T`, regardless of policy.
pub fn matmul_a_bt_into_blocked(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, n, _) = check_a_bt(a, b);
    c.resize(m, n);
    matmul_a_bt_rows(a, b, c.data_mut(), 0, m);
}

/// Blocked serial `C = A^T * B`, regardless of policy.
pub fn matmul_at_b_into_blocked(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, n, _) = check_at_b(a, b);
    c.resize(m, n);
    matmul_at_b_rows(a, b, c.data_mut(), 0, m);
}

/// Threaded `C = A * B`, regardless of policy or size.
pub fn matmul_into_parallel(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, n, _) = check_matmul(a, b);
    c.resize(m, n);
    par_row_partition(c, |chunk, lo, hi| matmul_rows(a, b, chunk, lo, hi));
}

/// Threaded `C = A * B^T`, regardless of policy or size.
pub fn matmul_a_bt_into_parallel(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, n, _) = check_a_bt(a, b);
    c.resize(m, n);
    par_row_partition(c, |chunk, lo, hi| matmul_a_bt_rows(a, b, chunk, lo, hi));
}

/// Threaded `C = A^T * B`, regardless of policy or size.
pub fn matmul_at_b_into_parallel(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, n, _) = check_at_b(a, b);
    c.resize(m, n);
    par_row_partition(c, |chunk, lo, hi| matmul_at_b_rows(a, b, chunk, lo, hi));
}

enum Impl {
    Naive,
    Blocked,
    Parallel,
}

fn effective_policy(m: usize, n: usize, k: usize) -> Impl {
    match kernel_policy() {
        KernelPolicy::Naive => Impl::Naive,
        KernelPolicy::Blocked => Impl::Blocked,
        KernelPolicy::Parallel => Impl::Parallel,
        KernelPolicy::Auto => {
            if m.saturating_mul(n).saturating_mul(k) >= PARALLEL_FLOPS_THRESHOLD && m >= 2 * MIN_ROWS_PER_THREAD {
                Impl::Parallel
            } else {
                Impl::Blocked
            }
        }
    }
}

// --- allocating wrappers -------------------------------------------------

/// `C = A * B` where `A` is `m x k` and `B` is `k x n`.
///
/// # Panics
/// Panics if inner dimensions do not match.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(0, 0);
    matmul_into(a, b, &mut c);
    c
}

/// `C = A * B^T` where `A` is `m x k` and `B` is `n x k`.
///
/// This is the forward-pass orientation: each output element is a dot
/// product of two contiguous rows.
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(0, 0);
    matmul_a_bt_into(a, b, &mut c);
    c
}

/// `C = A^T * B` where `A` is `k x m` and `B` is `k x n`.
///
/// This is the weight-gradient orientation (`dW = dY^T X`).
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(0, 0);
    matmul_at_b_into(a, b, &mut c);
    c
}

// --- softmax family ------------------------------------------------------

/// Numerically stable log-sum-exp of a slice.
///
/// Returns `-inf` for an empty slice, matching the convention that the sum
/// of zero exponentials is zero.
pub fn log_sum_exp(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return f32::NEG_INFINITY;
    }
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        return max;
    }
    let sum: f32 = xs.iter().map(|&x| (x - max).exp()).sum();
    max + sum.ln()
}

/// Row-wise softmax, returning a new matrix whose rows each sum to 1.
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    softmax_rows_inplace(&mut out);
    out
}

/// In-place row-wise softmax.
pub fn softmax_rows_inplace(m: &mut Matrix) {
    let cols = m.cols();
    if cols == 0 {
        return;
    }
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        softmax_slice(row);
    }
}

/// In-place softmax over a single slice.
pub fn softmax_slice(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    } else {
        // All logits were -inf: fall back to uniform to stay a distribution.
        let uniform = 1.0 / row.len() as f32;
        for v in row.iter_mut() {
            *v = uniform;
        }
    }
}

/// Row-wise log-softmax, returning a new matrix.
pub fn log_softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    log_softmax_rows_inplace(&mut out);
    out
}

/// In-place row-wise log-softmax. Zero-width rows are a no-op, matching
/// [`softmax_rows_inplace`]'s guard.
pub fn log_softmax_rows_inplace(m: &mut Matrix) {
    if m.cols() == 0 {
        return;
    }
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let lse = log_sum_exp(row);
        for v in row.iter_mut() {
            *v -= lse;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: f32, b: f32, tol: f32) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn matmul_matches_hand_computed() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_orientations_agree() {
        let a = Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.5 - 1.0);
        let b = Matrix::from_fn(3, 5, |r, c| (r as f32 - c as f32) * 0.25);
        let c1 = matmul(&a, &b);
        let c2 = matmul_a_bt(&a, &b.transpose());
        let c3 = matmul_at_b(&a.transpose(), &b);
        for i in 0..c1.len() {
            assert!(approx_eq(c1.data()[i], c2.data()[i], 1e-5));
            assert!(approx_eq(c1.data()[i], c3.data()[i], 1e-5));
        }
    }

    #[test]
    fn blocked_and_parallel_match_naive_on_odd_shapes() {
        // Shapes straddling the tile size and thread-count boundaries.
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 70, 5), (65, 33, 129), (40, 8, 40), (130, 64, 1)] {
            let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 17) % 13) as f32 * 0.37 - 1.7);
            let b = Matrix::from_fn(k, n, |r, c| ((r * 7 + c * 3) % 11) as f32 * 0.21 - 0.9);
            let reference = naive::matmul(&a, &b);
            let mut c = Matrix::zeros(0, 0);
            matmul_into_blocked(&a, &b, &mut c);
            assert_eq!(c.shape(), reference.shape());
            for i in 0..c.len() {
                assert!(approx_eq(c.data()[i], reference.data()[i], 1e-4), "blocked {m}x{k}x{n} elem {i}");
            }
            matmul_into_parallel(&a, &b, &mut c);
            for i in 0..c.len() {
                assert!(approx_eq(c.data()[i], reference.data()[i], 1e-4), "parallel {m}x{k}x{n} elem {i}");
            }

            let bt = b.transpose();
            let mut c2 = Matrix::zeros(0, 0);
            matmul_a_bt_into_blocked(&a, &bt, &mut c2);
            for i in 0..c2.len() {
                assert!(approx_eq(c2.data()[i], reference.data()[i], 1e-4), "a_bt blocked {m}x{k}x{n}");
            }
            matmul_a_bt_into_parallel(&a, &bt, &mut c2);
            for i in 0..c2.len() {
                assert!(approx_eq(c2.data()[i], reference.data()[i], 1e-4), "a_bt parallel {m}x{k}x{n}");
            }

            let at = a.transpose();
            let mut c3 = Matrix::zeros(0, 0);
            matmul_at_b_into_blocked(&at, &b, &mut c3);
            for i in 0..c3.len() {
                assert!(approx_eq(c3.data()[i], reference.data()[i], 1e-4), "at_b blocked {m}x{k}x{n}");
            }
            matmul_at_b_into_parallel(&at, &b, &mut c3);
            for i in 0..c3.len() {
                assert!(approx_eq(c3.data()[i], reference.data()[i], 1e-4), "at_b parallel {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn into_variants_reuse_buffers() {
        let a = Matrix::from_fn(8, 6, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(6, 4, |r, c| (r * c) as f32 * 0.5);
        // Pre-fill the output with garbage of a different shape.
        let mut c = Matrix::full(3, 17, 42.0);
        matmul_into(&a, &b, &mut c);
        assert_eq!(c.shape(), (8, 4));
        let expected = naive::matmul(&a, &b);
        for i in 0..c.len() {
            assert!(approx_eq(c.data()[i], expected.data()[i], 1e-5));
        }
    }

    #[test]
    fn dot_matches_sequential_sum() {
        for len in [0usize, 1, 7, 8, 9, 31, 64, 100] {
            let x: Vec<f32> = (0..len).map(|i| (i as f32 * 0.7).sin()).collect();
            let y: Vec<f32> = (0..len).map(|i| (i as f32 * 0.3).cos()).collect();
            let expected: f32 = x.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
            assert!(approx_eq(dot(&x, &y), expected, 1e-5), "len {len}");
        }
    }

    #[test]
    fn kernel_policy_round_trips() {
        let original = kernel_policy();
        set_kernel_policy(KernelPolicy::Naive);
        assert_eq!(kernel_policy(), KernelPolicy::Naive);
        set_kernel_policy(KernelPolicy::Blocked);
        assert_eq!(kernel_policy(), KernelPolicy::Blocked);
        set_kernel_policy(KernelPolicy::Parallel);
        assert_eq!(kernel_policy(), KernelPolicy::Parallel);
        set_kernel_policy(KernelPolicy::Auto);
        assert_eq!(kernel_policy(), KernelPolicy::Auto);
        set_kernel_policy(original);
    }

    #[test]
    fn dot4_is_bit_identical_to_four_dots() {
        // The register-blocked micro-kernel must preserve each output's
        // accumulation order exactly — exact-mode estimates are asserted
        // bit-identical across releases, so this is not an approx check.
        for len in [0usize, 1, 5, 7, 8, 9, 16, 31, 63, 64, 65, 100, 130] {
            let x: Vec<f32> = (0..len).map(|i| (i as f32 * 0.7).sin()).collect();
            let ys: Vec<Vec<f32>> =
                (0..4).map(|k| (0..len).map(|i| ((i + 13 * k) as f32 * 0.3).cos() * 0.8).collect()).collect();
            let got = dot4(&x, &ys[0], &ys[1], &ys[2], &ys[3]);
            for k in 0..4 {
                let expected = dot(&x, &ys[k]);
                assert!(got[k].to_bits() == expected.to_bits(), "len {len} col {k}: {} vs {expected}", got[k]);
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 100.0]);
        let p = softmax_rows(&logits);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!(approx_eq(s, 1.0, 1e-5));
        }
        assert!(p.get(0, 2) > p.get(0, 1) && p.get(0, 1) > p.get(0, 0));
        // Large logit dominates without overflow.
        assert!(p.get(1, 2) > 0.999);
    }

    #[test]
    fn softmax_all_neg_inf_falls_back_to_uniform() {
        let mut row = vec![f32::NEG_INFINITY; 4];
        softmax_slice(&mut row);
        for v in row {
            assert!(approx_eq(v, 0.25, 1e-6));
        }
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let logits = Matrix::from_vec(1, 4, vec![0.3, -2.0, 1.5, 0.0]);
        let p = softmax_rows(&logits);
        let lp = log_softmax_rows(&logits);
        for i in 0..4 {
            assert!(approx_eq(lp.data()[i], p.data()[i].ln(), 1e-5));
        }
    }

    #[test]
    fn log_softmax_handles_zero_width_rows() {
        // Regression: zero-width rows used to be guarded only in
        // softmax_rows_inplace; log-softmax must be a no-op too, not panic
        // or poison the (empty) data.
        let mut m = Matrix::zeros(3, 0);
        log_softmax_rows_inplace(&mut m);
        assert_eq!(m.shape(), (3, 0));
        let out = log_softmax_rows(&Matrix::zeros(5, 0));
        assert_eq!(out.shape(), (5, 0));
        assert!(out.is_empty());
    }

    #[test]
    fn log_sum_exp_stability() {
        assert!(approx_eq(log_sum_exp(&[0.0, 0.0]), std::f32::consts::LN_2, 1e-6));
        // Huge values should not overflow.
        let v = log_sum_exp(&[1000.0, 1000.0]);
        assert!(approx_eq(v, 1000.0 + std::f32::consts::LN_2, 1e-4));
        assert_eq!(log_sum_exp(&[]), f32::NEG_INFINITY);
    }
}
