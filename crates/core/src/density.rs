//! The conditional-density interface shared by neural models and oracles.
//!
//! Progressive sampling (§5.1) only needs one capability from the
//! underlying density model: given values for columns `< i`, produce the
//! conditional distribution of column `i`. The paper notes that the same
//! sampler runs both on a trained autoregressive network and on an *oracle*
//! distribution obtained by scanning the data (§6.7); this trait is that
//! abstraction.

use naru_tensor::Matrix;

/// Reusable scratch state for [`ConditionalDensity::conditionals_into`].
///
/// Progressive sampling calls `conditionals_into` once per column step; the
/// scratch carries everything a density may want to keep warm between
/// steps so the hot path is allocation-free at steady state:
///
/// * the neural model's forward-pass activation buffers (`nn`),
/// * the encoded-input batch (`enc`), maintained *incrementally* — the
///   encoding of column `c`'s block is written once, right before the first
///   step that needs it, instead of re-encoding the whole prefix from
///   scratch every step,
/// * a bridge buffer (`tuple_vecs`) used by the default (allocating)
///   implementation so oracles and baselines keep working unchanged.
///
/// The sampler owns one scratch per sampler instance, calls
/// [`InferenceScratch::reset`] at the start of every estimate, and
/// [`InferenceScratch::compact_rows`] whenever it compacts dead sample
/// paths so the cached encodings stay aligned with the live batch.
#[derive(Debug)]
pub struct InferenceScratch {
    /// Forward-pass activation buffers (ping-pong + per-block scratch).
    pub(crate) nn: naru_nn::Workspace,
    /// Encoded network input for the current batch of sample paths.
    pub(crate) enc: Matrix,
    /// Number of leading per-column blocks of `enc` that are up to date.
    pub(crate) enc_cols: usize,
    /// Whether `enc` describes the current batch at all.
    pub(crate) enc_valid: bool,
    /// Scratch for bridging flat tuples to the allocating `conditionals`.
    tuple_vecs: Vec<Vec<u32>>,
}

impl Default for InferenceScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl InferenceScratch {
    /// Creates an empty scratch; buffers materialize on first use.
    pub fn new() -> Self {
        Self {
            nn: naru_nn::Workspace::new(),
            enc: Matrix::zeros(0, 0),
            enc_cols: 0,
            enc_valid: false,
            tuple_vecs: Vec::new(),
        }
    }

    /// Invalidates cached per-query state (keeps allocations). Must be
    /// called before reusing the scratch for a new batch of tuples.
    pub fn reset(&mut self) {
        self.enc_valid = false;
        self.enc_cols = 0;
    }

    /// Compacts the cached encoded rows to the surviving paths: row `i` of
    /// the compacted batch is old row `keep[i]`. `keep` must be strictly
    /// increasing. No-op when nothing is cached.
    pub fn compact_rows(&mut self, keep: &[u32]) {
        if !self.enc_valid {
            return;
        }
        for (dst, &src) in keep.iter().enumerate() {
            self.enc.copy_row_within(src as usize, dst);
        }
        let cols = self.enc.cols();
        self.enc.resize(keep.len(), cols);
    }

    /// Rebuilds `tuples` as per-row `Vec`s for the allocating bridge,
    /// reusing buffers across calls.
    // lint: allow_fn(index) - bridge buffers are sized to the tuple width at entry
    fn bridge_tuples(&mut self, flat: &[u32], num_cols: usize) -> &[Vec<u32>] {
        let rows = flat.len().checked_div(num_cols).unwrap_or(0);
        self.tuple_vecs.resize_with(rows, Vec::new);
        for (r, tuple) in self.tuple_vecs.iter_mut().enumerate() {
            tuple.clear();
            tuple.extend_from_slice(&flat[r * num_cols..(r + 1) * num_cols]);
        }
        &self.tuple_vecs
    }
}

/// A factorized distribution over the rows of a table, exposed through its
/// chain-rule conditionals.
pub trait ConditionalDensity {
    /// Number of columns of the modeled relation.
    fn num_columns(&self) -> usize;

    /// Domain sizes of each column.
    fn domain_sizes(&self) -> &[usize];

    /// Conditional distributions `P(X_col | prefix)` for a batch of
    /// partially-filled tuples.
    ///
    /// `tuples` holds one id-encoded tuple per entry; only the first `col`
    /// positions of each tuple are read (the autoregressive property
    /// guarantees later positions cannot influence the result). The return
    /// value has one row per tuple and `domain_sizes()[col]` columns, each
    /// row summing to 1.
    fn conditionals(&self, tuples: &[Vec<u32>], col: usize) -> Matrix;

    /// Buffer-reusing variant of [`ConditionalDensity::conditionals`] for
    /// the sampling hot path.
    ///
    /// `tuples` is a flat row-major batch (`rows * num_cols` ids); the
    /// result is written into `out` (resized in place). The default
    /// implementation delegates to the allocating [`conditionals`]
    /// (via `scratch`'s bridge buffers) so oracles and baseline densities
    /// work unchanged; models with a buffer-reusing forward pass override
    /// it to run allocation-free at steady state.
    ///
    /// [`conditionals`]: ConditionalDensity::conditionals
    fn conditionals_into(
        &self,
        tuples: &[u32],
        num_cols: usize,
        col: usize,
        out: &mut Matrix,
        scratch: &mut InferenceScratch,
    ) {
        let probs = self.conditionals(scratch.bridge_tuples(tuples, num_cols), col);
        // lint: allow(no_alloc) - resize on a caller-retained buffer: allocates only on first use or growth, amortized to zero in the steady state
        out.resize(probs.rows(), probs.cols());
        out.data_mut().copy_from_slice(probs.data());
    }

    /// Log-likelihood (natural log) of each fully-specified tuple.
    ///
    /// The default implementation multiplies the chain-rule conditionals
    /// column by column; models with a cheaper one-pass evaluation (the
    /// MADE network) override it.
    // lint: allow_fn(index) - bridge buffers are sized to the tuple width at entry
    fn log_likelihood(&self, tuples: &[Vec<u32>]) -> Vec<f64> {
        let n = self.num_columns();
        let mut ll = vec![0.0f64; tuples.len()];
        for col in 0..n {
            let probs = self.conditionals(tuples, col);
            for (t, tuple) in tuples.iter().enumerate() {
                let p = probs.get(t, tuple[col] as usize) as f64;
                ll[t] += p.max(f64::MIN_POSITIVE).ln();
            }
        }
        ll
    }
}

/// Average negative log-likelihood of `tuples` under `density`, in bits per
/// tuple — the cross-entropy `H(P, P̂)` of Eq. 2 estimated on a sample.
pub fn average_nll_bits<D: ConditionalDensity + ?Sized>(density: &D, tuples: &[Vec<u32>]) -> f64 {
    if tuples.is_empty() {
        return 0.0;
    }
    let ll = density.log_likelihood(tuples);
    let nats: f64 = ll.iter().map(|&l| -l).sum::<f64>() / tuples.len() as f64;
    nats / std::f64::consts::LN_2
}

/// The entropy gap (§3.3): `H(P, P̂) − H(P)` in bits, the KL divergence
/// between the data distribution and the model. Non-negative in
/// expectation; small values mean a good fit.
pub fn entropy_gap_bits<D: ConditionalDensity + ?Sized>(
    density: &D,
    tuples: &[Vec<u32>],
    data_entropy_bits: f64,
) -> f64 {
    average_nll_bits(density, tuples) - data_entropy_bits
}

/// A density that assumes full column independence with given marginals;
/// used in tests as the simplest possible [`ConditionalDensity`], and by
/// the noisy-oracle calibration.
#[derive(Debug, Clone)]
pub struct IndependentDensity {
    domain_sizes: Vec<usize>,
    /// Per-column probability vectors.
    marginals: Vec<Vec<f32>>,
}

impl IndependentDensity {
    /// Creates the density from per-column marginal distributions.
    pub fn new(marginals: Vec<Vec<f32>>) -> Self {
        let domain_sizes = marginals.iter().map(Vec::len).collect();
        Self { domain_sizes, marginals }
    }

    /// Uniform marginals over the given domains.
    pub fn uniform(domain_sizes: &[usize]) -> Self {
        let marginals = domain_sizes.iter().map(|&d| vec![1.0 / d as f32; d]).collect();
        Self { domain_sizes: domain_sizes.to_vec(), marginals }
    }

    /// Builds marginals from a table's per-column value counts.
    pub fn from_table(table: &naru_data::Table) -> Self {
        let marginals = table
            .columns()
            .iter()
            .map(|c| {
                let counts = c.value_counts();
                let n = c.len() as f32;
                counts.iter().map(|&cnt| cnt as f32 / n).collect()
            })
            .collect();
        Self::new(marginals)
    }
}

impl ConditionalDensity for IndependentDensity {
    fn num_columns(&self) -> usize {
        self.domain_sizes.len()
    }

    fn domain_sizes(&self) -> &[usize] {
        &self.domain_sizes
    }

    // lint: allow_fn(index) - bridge buffers are sized to the tuple width at entry
    fn conditionals(&self, tuples: &[Vec<u32>], col: usize) -> Matrix {
        let marginal = &self.marginals[col];
        let mut out = Matrix::zeros(tuples.len(), marginal.len());
        for r in 0..tuples.len() {
            out.row_mut(r).copy_from_slice(marginal);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_density_conditionals_are_marginals() {
        let d = IndependentDensity::new(vec![vec![0.25, 0.75], vec![0.1, 0.2, 0.7]]);
        let tuples = vec![vec![0, 0], vec![1, 2]];
        let c0 = d.conditionals(&tuples, 0);
        assert_eq!(c0.row(0), &[0.25, 0.75]);
        let c1 = d.conditionals(&tuples, 1);
        assert_eq!(c1.row(1), &[0.1, 0.2, 0.7]);
    }

    #[test]
    fn log_likelihood_is_product_of_conditionals() {
        let d = IndependentDensity::new(vec![vec![0.25, 0.75], vec![0.1, 0.2, 0.7]]);
        let ll = d.log_likelihood(&[vec![1, 2]]);
        assert!((ll[0] - (0.75f64 * 0.7).ln()).abs() < 1e-5);
    }

    #[test]
    fn uniform_density_nll_is_log_joint_size() {
        let d = IndependentDensity::uniform(&[4, 8]);
        let tuples = vec![vec![0, 0], vec![3, 7]];
        let nll = average_nll_bits(&d, &tuples);
        assert!((nll - 5.0).abs() < 1e-5); // log2(32) = 5 bits
    }

    #[test]
    fn entropy_gap_of_perfect_model_is_zero() {
        // For a uniform data distribution over 32 tuples, a uniform model
        // has zero gap.
        let d = IndependentDensity::uniform(&[4, 8]);
        let tuples: Vec<Vec<u32>> = (0..4).flat_map(|a| (0..8).map(move |b| vec![a, b])).collect();
        let gap = entropy_gap_bits(&d, &tuples, 5.0);
        assert!(gap.abs() < 1e-6);
    }

    #[test]
    fn default_conditionals_into_bridges_to_allocating_path() {
        let d = IndependentDensity::new(vec![vec![0.25, 0.75], vec![0.1, 0.2, 0.7]]);
        let mut scratch = InferenceScratch::new();
        let mut out = Matrix::zeros(0, 0);
        // Flat batch of two tuples.
        d.conditionals_into(&[0, 0, 1, 2], 2, 1, &mut out, &mut scratch);
        assert_eq!(out.shape(), (2, 3));
        assert_eq!(out.row(0), &[0.1, 0.2, 0.7]);
        assert_eq!(out.row(1), &[0.1, 0.2, 0.7]);
        // Second call with fewer rows reuses the buffers.
        d.conditionals_into(&[1, 0], 2, 0, &mut out, &mut scratch);
        assert_eq!(out.shape(), (1, 2));
        assert_eq!(out.row(0), &[0.25, 0.75]);
    }

    #[test]
    fn scratch_compact_rows_keeps_selected_rows() {
        let mut scratch = InferenceScratch::new();
        scratch.enc.resize(4, 3);
        for r in 0..4 {
            scratch.enc.row_mut(r).iter_mut().for_each(|v| *v = r as f32);
        }
        scratch.enc_valid = true;
        scratch.compact_rows(&[0, 2, 3]);
        assert_eq!(scratch.enc.shape(), (3, 3));
        assert_eq!(scratch.enc.row(0), &[0.0, 0.0, 0.0]);
        assert_eq!(scratch.enc.row(1), &[2.0, 2.0, 2.0]);
        assert_eq!(scratch.enc.row(2), &[3.0, 3.0, 3.0]);
        // Invalid scratch: compaction is a no-op.
        let mut idle = InferenceScratch::new();
        idle.compact_rows(&[0]);
        assert_eq!(idle.enc.shape(), (0, 0));
    }

    #[test]
    fn from_table_matches_counts() {
        let t = naru_data::Table::new("t", vec![naru_data::Column::from_ids("a", vec![0, 0, 1, 1, 1, 1], 2)]);
        let d = IndependentDensity::from_table(&t);
        let c = d.conditionals(&[vec![0]], 0);
        assert!((c.get(0, 0) - 2.0 / 6.0).abs() < 1e-6);
        assert!((c.get(0, 1) - 4.0 / 6.0).abs() < 1e-6);
    }
}
