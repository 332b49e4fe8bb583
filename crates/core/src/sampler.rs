//! Progressive sampling (Algorithm 1 / §5.1 of the paper).
//!
//! Uniform Monte-Carlo integration over a query region collapses when the
//! region is large but the probability mass inside it is concentrated:
//! uniformly-drawn points almost never land in the high-mass sub-region.
//! Progressive sampling instead walks the columns in order, at each step
//! restricting the model's conditional distribution to the query range,
//! recording the in-range probability mass, and *sampling the next value
//! from that restricted conditional*. The product of the recorded masses is
//! an unbiased estimate of the query's probability (Theorem 1), and the
//! sampler naturally concentrates its paths where the density lives.
//!
//! The implementation is batched: all `S` sample paths advance through
//! column `i` with a single call to
//! [`ConditionalDensity::conditionals`], which for the neural model is one
//! network forward pass — exactly the paper's "as many forward passes as
//! columns" cost model.

use std::sync::Mutex;

use naru_query::ColumnConstraint;
use naru_tensor::rng::sample_categorical;
use naru_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::density::{ConditionalDensity, InferenceScratch};

/// Configuration of the progressive sampler.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Number of sample paths per query (the paper sweeps 50–10 000;
    /// Naru-2000 is the headline DMV configuration).
    pub num_samples: usize,
    /// RNG seed. Estimates are deterministic given the seed.
    pub seed: u64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self { num_samples: 2000, seed: 0 }
    }
}

/// Outcome of one progressive-sampling estimate, with diagnostics.
#[derive(Debug, Clone)]
pub struct SampleEstimate {
    /// The estimated probability (selectivity) of the query region.
    pub selectivity: f64,
    /// Number of sample paths whose weight collapsed to zero (they hit a
    /// conditional with no mass inside the query range).
    pub dead_paths: usize,
    /// Number of columns actually walked. Trailing wildcards are skipped,
    /// and the optimized walk stops as soon as every path is dead — so when
    /// `dead_paths` equals the path count this may be smaller than the
    /// value [`ProgressiveSampler::estimate_detailed_reference`] reports
    /// (the reference keeps walking the remaining constrained columns).
    pub columns_walked: usize,
}

/// Reusable buffers for one progressive-sampling walk: after the first
/// estimate at a given path count, repeated estimates make no heap
/// allocations. [`ProgressiveSampler`] keeps one behind a `Mutex`;
/// the Engine/Session API gives every session its own (no locking).
#[derive(Debug, Default)]
pub(crate) struct SamplerScratch {
    /// Density-side scratch (activation buffers, incremental encodings).
    infer: InferenceScratch,
    /// Flat `live x n` row-major tuple buffer (compacted in place).
    tuples: Vec<u32>,
    /// Per-live-path accumulated weights, compacted alongside `tuples`.
    weights: Vec<f64>,
    /// Conditional distributions of the current column, one row per path.
    probs: Matrix,
    /// Ids allowed by the current column's constraint, precomputed once per
    /// column instead of calling `constraint.matches` per path x id.
    allowed: Vec<u32>,
    /// Surviving path indices of the current column (compaction map).
    keep: Vec<u32>,
    /// Per-column checkpoints of the previous walk, from which the next
    /// walk resumes after the column prefix the two share.
    memo: PrefixMemo,
}

impl SamplerScratch {
    /// Forgets the previous walk, so the next one starts from column 0.
    /// Needed whenever the next walk may run over a different density, or
    /// over the same one changed in place.
    pub(crate) fn clear_memo(&mut self) {
        self.memo.clear();
    }
}

/// A checkpoint of the walk's full per-path state after one column:
/// enough to resume the walk at the next column bit-for-bit.
#[derive(Debug)]
struct PrefixSnapshot {
    /// The live paths' tuples, exactly `live * n` ids.
    tuples: Vec<u32>,
    /// The live paths' accumulated weights, one per live path.
    weights: Vec<f64>,
    /// The RNG state after sampling this column (cloneable by design).
    rng: StdRng,
}

/// Memoized per-column state of the most recent walk, so a following walk
/// whose compiled constraints share a column prefix can resume after the
/// shared columns instead of re-running their forward passes.
///
/// Because the sampler walks columns in order and its state after column
/// `i` depends only on the density, the seed, the path count, and the
/// constraints of columns `0..=i`, restoring a snapshot reproduces the
/// fresh walk bit-for-bit: the restored RNG continues the identical stream
/// and the density re-encodes the restored tuples to identical inputs. The
/// memo is invalidated whenever the seed or path count changes. It does not
/// know the density: a scratch whose owner may walk another density must
/// call [`SamplerScratch::clear_memo`] first.
#[derive(Debug, Default)]
struct PrefixMemo {
    valid: bool,
    num_samples: usize,
    seed: u64,
    /// Compiled constraints of the memoized walk (one per column).
    constraints: Vec<ColumnConstraint>,
    /// `snaps[i]` is the state after walking column `i`, for `i < len`;
    /// entries from `len` on are spare buffers kept for reuse.
    snaps: Vec<PrefixSnapshot>,
    len: usize,
    /// Column at which the memoized walk lost every path, if it did; that
    /// column has no snapshot.
    dead_col: Option<usize>,
}

impl PrefixMemo {
    fn clear(&mut self) {
        self.valid = false;
        self.len = 0;
        self.constraints.clear();
        self.dead_col = None;
    }

    /// Records the state after the next column, reusing a spare
    /// snapshot's buffers when one exists.
    fn record(&mut self, tuples: &[u32], weights: &[f64], rng: &StdRng) {
        match self.snaps.get_mut(self.len) {
            Some(snap) => {
                snap.tuples.clear();
                snap.tuples.extend_from_slice(tuples);
                snap.weights.clear();
                snap.weights.extend_from_slice(weights);
                snap.rng = rng.clone();
            }
            None => {
                self.snaps.push(PrefixSnapshot { tuples: tuples.to_vec(), weights: weights.to_vec(), rng: rng.clone() })
            }
        }
        self.len += 1;
    }
}

/// Progressive sampler over any [`ConditionalDensity`].
///
/// The sampler owns its scratch buffers (behind a `Mutex`, so `estimate`
/// keeps its `&self` signature and the sampler stays `Sync`); a sampler
/// instance reused across queries runs allocation-free at steady state.
/// The lock is uncontended in single-threaded use; concurrent serving
/// should give each worker its own sampler rather than share one, or
/// estimates will serialize on the scratch.
///
/// The sampler borrows its density per call, so it cannot tell whether
/// two calls walk the same one: every estimate walks from column 0. To
/// resume repeated and near-duplicate queries from the previous walk's
/// shared column prefix, estimate through an owner of the density instead
/// (an `Engine` session or a `SelectivityEstimator` wrapper).
pub struct ProgressiveSampler {
    config: SamplerConfig,
    scratch: Mutex<SamplerScratch>,
}

impl ProgressiveSampler {
    /// Creates a sampler with the given configuration.
    pub fn new(config: SamplerConfig) -> Self {
        Self { config, scratch: Mutex::new(SamplerScratch::default()) }
    }

    /// Number of sample paths used per estimate.
    pub fn num_samples(&self) -> usize {
        self.config.num_samples
    }

    /// Estimates the probability of the region described by one
    /// [`ColumnConstraint`] per column (wildcards = `Any`).
    ///
    /// Columns after the last constrained one contribute a factor of 1 and
    /// are skipped. Returns the estimate together with diagnostics.
    ///
    /// The walk keeps all live paths in one flat `live x n` buffer, asks the
    /// density for conditionals through the buffer-reusing
    /// [`ConditionalDensity::conditionals_into`], and *compacts* dead paths
    /// out of the batch after every column — later forward passes shrink
    /// with the live-path count, and the estimate returns early when every
    /// path dies. Estimates remain deterministic given the seed.
    pub fn estimate_detailed<D: ConditionalDensity + ?Sized>(
        &self,
        density: &D,
        constraints: &[ColumnConstraint],
    ) -> SampleEstimate {
        let scratch = &mut *self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        scratch.clear_memo();
        progressive_walk(density, constraints, self.config.num_samples, self.config.seed, scratch)
    }
}

/// The progressive-sampling walk itself, operating on caller-provided
/// scratch — the one walk behind [`ProgressiveSampler`] (which guards one
/// scratch with a `Mutex` to stay `&self`/`Sync`), the lock-free per-thread
/// `Session` of the Engine/Session API, and the `SelectivityEstimator`
/// wrappers.
///
/// Every walk checkpoints its per-path state after each column in the
/// scratch's [`PrefixMemo`]. The next walk at the same seed and path count
/// whose leading compiled constraints match resumes after the shared
/// columns instead of re-running their forward passes, with a bit-identical
/// result. The memo assumes the density is the previous walk's, unchanged:
/// callers that own their density (and so know it is) pass their scratch
/// as is; callers that borrow one clear the memo first.
// lint: allow_fn(index) - walk state is sized to num_columns and the domain widths at entry; column and sample indices stay in bounds by construction
pub(crate) fn progressive_walk<D: ConditionalDensity + ?Sized>(
    density: &D,
    constraints: &[ColumnConstraint],
    num_samples: usize,
    seed: u64,
    scratch: &mut SamplerScratch,
) -> SampleEstimate {
    let n = density.num_columns();
    // lint: allow(panic) - documented walk contract: one constraint per column, checked at compile time by callers
    assert_eq!(constraints.len(), n, "one constraint per column required");
    let domains = density.domain_sizes();
    let s = num_samples.max(1);

    // Early exits: a contradictory constraint has zero probability. Neither
    // exit consumes RNG state or scratch, so the memo stays valid.
    if constraints.iter().enumerate().any(|(i, c)| c.count(domains[i]) == 0) {
        return SampleEstimate { selectivity: 0.0, dead_paths: s, columns_walked: 0 };
    }
    // The last column that actually restricts anything.
    let last_filtered = constraints.iter().rposition(|c| !matches!(c, ColumnConstraint::Any));
    let Some(last_filtered) = last_filtered else {
        // No filters at all: the whole table qualifies.
        return SampleEstimate { selectivity: 1.0, dead_paths: 0, columns_walked: 0 };
    };

    // Longest usable shared prefix: leading columns whose constraints match
    // the memoized walk, capped by the snapshots we actually have and by
    // the columns this query walks at all.
    let memo = &mut scratch.memo;
    let mut shared = 0usize;
    if memo.valid && memo.num_samples == num_samples && memo.seed == seed && memo.constraints.len() == n {
        while shared < memo.len && shared <= last_filtered && memo.constraints[shared] == constraints[shared] {
            shared += 1;
        }
        // The memoized walk died at the column right after our shared
        // prefix, under the same constraint: this walk dies there too.
        if memo.dead_col == Some(shared)
            && shared == memo.len
            && shared <= last_filtered
            && memo.constraints[shared] == constraints[shared]
        {
            return SampleEstimate { selectivity: 0.0, dead_paths: s, columns_walked: shared + 1 };
        }
    }

    let mut rng;
    let mut live;
    scratch.infer.reset();
    if shared > 0 {
        // Resume: restore the checkpoint taken right after the last shared
        // column. The density's scratch was reset, so its first
        // conditionals call re-encodes the restored prefix wholesale.
        let snap = &memo.snaps[shared - 1];
        scratch.tuples.clear();
        scratch.tuples.extend_from_slice(&snap.tuples);
        scratch.weights.clear();
        scratch.weights.extend_from_slice(&snap.weights);
        live = snap.weights.len();
        rng = snap.rng.clone();
    } else {
        scratch.tuples.clear();
        scratch.tuples.resize(s * n, 0);
        scratch.weights.clear();
        scratch.weights.resize(s, 1.0);
        live = s;
        rng = StdRng::seed_from_u64(seed);
    }

    // Re-key the memo to this walk: shared snapshots stay, the rest are
    // overwritten as we walk.
    memo.valid = true;
    memo.num_samples = num_samples;
    memo.seed = seed;
    memo.constraints.truncate(shared);
    memo.constraints.extend_from_slice(&constraints[shared..]);
    memo.len = shared;
    memo.dead_col = None;

    for col in shared..=last_filtered {
        let constraint = &constraints[col];
        let domain = domains[col];
        let is_any = matches!(constraint, ColumnConstraint::Any);
        // Materialize the allowed ids once per column; the per-path loop
        // then only touches in-range probabilities.
        scratch.allowed.clear();
        if !is_any {
            for id in 0..domain as u32 {
                if constraint.matches(id) {
                    scratch.allowed.push(id);
                }
            }
        }

        density.conditionals_into(&scratch.tuples[..live * n], n, col, &mut scratch.probs, &mut scratch.infer);
        debug_assert_eq!(scratch.probs.shape(), (live, domain));

        scratch.keep.clear();
        let mut write = 0usize;
        for path in 0..live {
            let row = scratch.probs.row(path);
            let sampled = if is_any {
                // Unfiltered column inside the prefix: mass is 1, but we
                // still have to sample a value for later conditionals.
                sample_categorical(&mut rng, row).map(|id| id as u32)
            } else {
                // Restrict to the query range, record the in-range mass,
                // and sample from the restricted conditional.
                let mut mass = 0.0f64;
                for &id in &scratch.allowed {
                    mass += row[id as usize].max(0.0) as f64;
                }
                // The finiteness check mirrors sample_categorical's
                // guard in the reference path: a non-finite conditional
                // kills the path rather than poisoning the estimate.
                if !mass.is_finite() || mass <= 0.0 {
                    None
                } else {
                    scratch.weights[path] *= mass;
                    sample_allowed(&mut rng, row, &scratch.allowed, mass)
                }
            };
            // A dead path (`None`) is dropped from the batch by compaction.
            if let Some(id) = sampled {
                scratch.tuples[path * n + col] = id;
                if write != path {
                    scratch.tuples.copy_within(path * n..(path + 1) * n, write * n);
                    scratch.weights[write] = scratch.weights[path];
                }
                scratch.keep.push(path as u32);
                write += 1;
            }
        }

        if write < live {
            live = write;
            if live == 0 {
                scratch.memo.dead_col = Some(col);
                return SampleEstimate { selectivity: 0.0, dead_paths: s, columns_walked: col + 1 };
            }
            scratch.infer.compact_rows(&scratch.keep);
        }
        scratch.memo.record(&scratch.tuples[..live * n], &scratch.weights[..live], &rng);
    }

    let selectivity = (scratch.weights[..live].iter().sum::<f64>() / s as f64).clamp(0.0, 1.0);
    SampleEstimate { selectivity, dead_paths: s - live, columns_walked: last_filtered + 1 }
}

impl ProgressiveSampler {
    /// The pre-optimization implementation of progressive sampling, kept
    /// verbatim as the baseline: per-column allocating `conditionals`
    /// (re-encoding the batch from scratch each step), a fresh
    /// masked-probability vector per path x column, no compaction. Used by
    /// the `bench_infer` harness to measure the speedup of the hot path and
    /// by tests as a semantic reference for [`estimate_detailed`].
    ///
    /// [`estimate_detailed`]: ProgressiveSampler::estimate_detailed
    // lint: allow_fn(index) - walk state is sized to num_columns and the domain widths at entry; column and sample indices stay in bounds by construction
    pub fn estimate_detailed_reference<D: ConditionalDensity + ?Sized>(
        &self,
        density: &D,
        constraints: &[ColumnConstraint],
    ) -> SampleEstimate {
        let n = density.num_columns();
        // lint: allow(panic) - documented walk contract: one constraint per column, checked at compile time by callers
        assert_eq!(constraints.len(), n, "one constraint per column required");
        let domains = density.domain_sizes();
        let s = self.config.num_samples.max(1);
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        if constraints.iter().enumerate().any(|(i, c)| c.count(domains[i]) == 0) {
            return SampleEstimate { selectivity: 0.0, dead_paths: s, columns_walked: 0 };
        }
        let last_filtered = constraints.iter().rposition(|c| !matches!(c, ColumnConstraint::Any));
        let Some(last_filtered) = last_filtered else {
            return SampleEstimate { selectivity: 1.0, dead_paths: 0, columns_walked: 0 };
        };

        let mut tuples: Vec<Vec<u32>> = vec![vec![0u32; n]; s];
        let mut weights: Vec<f64> = vec![1.0; s];

        for col in 0..=last_filtered {
            let constraint = &constraints[col];
            let probs = density.conditionals(&tuples, col);
            let domain = domains[col];
            for path in 0..s {
                if weights[path] == 0.0 {
                    continue;
                }
                let row = probs.row(path);
                match constraint {
                    ColumnConstraint::Any => match sample_categorical(&mut rng, row) {
                        Some(id) => tuples[path][col] = id as u32,
                        None => weights[path] = 0.0,
                    },
                    _ => {
                        let mut masked: Vec<f32> = vec![0.0; domain];
                        let mut mass = 0.0f64;
                        for id in 0..domain {
                            if constraint.matches(id as u32) {
                                let p = row[id].max(0.0);
                                masked[id] = p;
                                mass += p as f64;
                            }
                        }
                        if mass <= 0.0 {
                            weights[path] = 0.0;
                            continue;
                        }
                        weights[path] *= mass;
                        match sample_categorical(&mut rng, &masked) {
                            Some(id) => tuples[path][col] = id as u32,
                            None => weights[path] = 0.0,
                        }
                    }
                }
            }
        }

        let dead_paths = weights.iter().filter(|&&w| w == 0.0).count();
        let selectivity = (weights.iter().sum::<f64>() / s as f64).clamp(0.0, 1.0);
        SampleEstimate { selectivity, dead_paths, columns_walked: last_filtered + 1 }
    }

    /// Convenience wrapper returning only the selectivity.
    pub fn estimate<D: ConditionalDensity + ?Sized>(&self, density: &D, constraints: &[ColumnConstraint]) -> f64 {
        self.estimate_detailed(density, constraints).selectivity
    }
}

/// Draws an id from the restricted conditional: walks `allowed` subtracting
/// each id's (clamped) probability from a uniform draw over `mass` — the
/// same arithmetic as [`sample_categorical`] over the masked vector the old
/// implementation materialized, without building it.
// lint: allow_fn(index) - walk state is sized to num_columns and the domain widths at entry; column and sample indices stay in bounds by construction
fn sample_allowed<R: Rng + ?Sized>(rng: &mut R, row: &[f32], allowed: &[u32], mass: f64) -> Option<u32> {
    let mut target = rng.gen::<f64>() * mass;
    for &id in allowed {
        let w = row[id as usize].max(0.0) as f64;
        if w <= 0.0 {
            continue;
        }
        if target < w {
            return Some(id);
        }
        target -= w;
    }
    // Floating-point slack: return the last positive-weight allowed id.
    allowed.iter().rev().copied().find(|&id| row[id as usize] > 0.0)
}

/// The naive uniform Monte-Carlo integrator (the "first attempt" of §5.1),
/// kept as a comparison point for the ablation benchmarks: it draws points
/// uniformly from the query region and averages their joint densities,
/// scaling by the region size.
// lint: allow_fn(index) - walk state is sized to num_columns and the domain widths at entry; column and sample indices stay in bounds by construction
pub fn uniform_sampling_estimate<D: ConditionalDensity + ?Sized>(
    density: &D,
    constraints: &[ColumnConstraint],
    num_samples: usize,
    seed: u64,
) -> f64 {
    let domains = density.domain_sizes();
    let mut rng = StdRng::seed_from_u64(seed);
    // Materialize the allowed ids per column (query regions in this
    // workspace are per-column ranges, so this stays small per column).
    let allowed: Vec<Vec<u32>> = constraints.iter().enumerate().map(|(i, c)| c.materialize(domains[i])).collect();
    if allowed.iter().any(Vec::is_empty) {
        return 0.0;
    }
    let region_size: f64 = allowed.iter().map(|a| a.len() as f64).product();

    let mut tuples = Vec::with_capacity(num_samples);
    for _ in 0..num_samples {
        let tuple: Vec<u32> = allowed
            .iter()
            .map(|ids| {
                let k = rand::Rng::gen_range(&mut rng, 0..ids.len());
                ids[k]
            })
            .collect();
        tuples.push(tuple);
    }
    let ll = density.log_likelihood(&tuples);
    let mean_density: f64 = ll.iter().map(|&l| l.exp()).sum::<f64>() / num_samples as f64;
    (mean_density * region_size).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::IndependentDensity;
    use crate::oracle::OracleDensity;
    use naru_data::synthetic::correlated_pair;
    use naru_data::{Column, Table};
    use naru_query::{count_matches, Predicate, Query};

    fn constraints_of(query: &Query, n: usize) -> Vec<ColumnConstraint> {
        query.constraints(n)
    }

    #[test]
    fn exact_on_independent_density_point_query() {
        let d = IndependentDensity::new(vec![vec![0.25, 0.75], vec![0.1, 0.2, 0.7]]);
        let sampler = ProgressiveSampler::new(SamplerConfig { num_samples: 64, seed: 1 });
        let q = Query::new(vec![Predicate::eq(0, 1), Predicate::eq(1, 2)]);
        let est = sampler.estimate(&d, &constraints_of(&q, 2));
        // For point queries the estimate is deterministic and exact.
        assert!((est - 0.75 * 0.7).abs() < 1e-6);
    }

    #[test]
    fn exact_on_independent_density_range_query() {
        let d = IndependentDensity::new(vec![vec![0.25, 0.75], vec![0.1, 0.2, 0.7]]);
        let sampler = ProgressiveSampler::new(SamplerConfig { num_samples: 16, seed: 3 });
        let q = Query::new(vec![Predicate::ge(1, 1)]);
        let est = sampler.estimate(&d, &constraints_of(&q, 2));
        // Only the last column is filtered; the first is a wildcard. For an
        // independent density every path yields exactly 0.9.
        assert!((est - 0.9).abs() < 1e-6);
    }

    #[test]
    fn unfiltered_query_returns_one() {
        let d = IndependentDensity::uniform(&[4, 4]);
        let sampler = ProgressiveSampler::new(SamplerConfig::default());
        let est = sampler.estimate_detailed(&d, &[ColumnConstraint::Any, ColumnConstraint::Any]);
        assert_eq!(est.selectivity, 1.0);
        assert_eq!(est.columns_walked, 0);
    }

    #[test]
    fn contradictory_query_returns_zero() {
        let d = IndependentDensity::uniform(&[4, 4]);
        let sampler = ProgressiveSampler::new(SamplerConfig::default());
        let c = vec![ColumnConstraint::Empty, ColumnConstraint::Any];
        assert_eq!(sampler.estimate(&d, &c), 0.0);
    }

    #[test]
    fn oracle_plus_sampler_matches_ground_truth_on_correlated_data() {
        // With an exact (oracle) model, progressive sampling should estimate
        // correlated range queries accurately — this is the §6.7 setup.
        let t = correlated_pair(2000, 8, 0.9, 7);
        let oracle = OracleDensity::new(&t);
        let sampler = ProgressiveSampler::new(SamplerConfig { num_samples: 500, seed: 5 });
        let queries = vec![
            Query::new(vec![Predicate::eq(0, 0), Predicate::eq(1, 0)]),
            Query::new(vec![Predicate::le(0, 2), Predicate::le(1, 2)]),
            Query::new(vec![Predicate::ge(0, 4), Predicate::le(1, 3)]),
        ];
        for q in queries {
            let truth = count_matches(&t, &q) as f64 / t.num_rows() as f64;
            let est = sampler.estimate(&oracle, &q.constraints(2));
            let denom = truth.max(1.0 / t.num_rows() as f64);
            let qerr = (est.max(1.0 / t.num_rows() as f64) / denom).max(denom / est.max(1.0 / t.num_rows() as f64));
            assert!(qerr < 1.6, "q-error {qerr} too high (est {est}, truth {truth})");
        }
    }

    #[test]
    fn progressive_beats_uniform_sampling_on_skewed_data() {
        // The §5.1 failure mode: skewed + correlated columns, range query
        // over half of each domain. Uniform sampling with few samples keeps
        // missing the mass; progressive sampling nails it.
        let domain = 64;
        let rows: Vec<u32> =
            (0..4000).map(|i| if i % 100 < 99 { (i % 3) as u32 } else { (i % domain) as u32 }).collect();
        let col_a = Column::from_ids("a", rows.clone(), domain as usize);
        let col_b = Column::from_ids("b", rows, domain as usize);
        let t = Table::new("skew", vec![col_a, col_b]);
        let oracle = OracleDensity::new(&t);
        let q = Query::new(vec![Predicate::le(0, (domain / 2) as u32), Predicate::le(1, (domain / 2) as u32)]);
        let truth = count_matches(&t, &q) as f64 / t.num_rows() as f64;

        let progressive =
            ProgressiveSampler::new(SamplerConfig { num_samples: 200, seed: 2 }).estimate(&oracle, &q.constraints(2));
        let uniform = uniform_sampling_estimate(&oracle, &q.constraints(2), 200, 2);

        let qerr = |est: f64| {
            let est = est.max(1e-9);
            (est / truth).max(truth / est)
        };
        assert!(
            qerr(progressive) < qerr(uniform) + 1e-9,
            "progressive {progressive} vs uniform {uniform} (truth {truth})"
        );
        assert!(qerr(progressive) < 1.2);
    }

    #[test]
    fn optimized_sampler_matches_reference_exactly_on_oracle() {
        // With an oracle density (whose conditionals are identical through
        // both paths) the compacted zero-allocation walk consumes the RNG in
        // the same order as the reference, so estimates agree exactly.
        let t = correlated_pair(1500, 8, 0.85, 11);
        let oracle = OracleDensity::new(&t);
        let queries = [
            Query::new(vec![Predicate::le(0, 3), Predicate::ge(1, 2)]),
            Query::new(vec![Predicate::eq(0, 0), Predicate::eq(1, 0)]),
            Query::new(vec![Predicate::ge(0, 6), Predicate::le(1, 1)]),
            Query::new(vec![Predicate::le(1, 4)]),
        ];
        for (i, q) in queries.iter().enumerate() {
            let sampler = ProgressiveSampler::new(SamplerConfig { num_samples: 300, seed: 40 + i as u64 });
            let fast = sampler.estimate_detailed(&oracle, &q.constraints(2));
            let slow = sampler.estimate_detailed_reference(&oracle, &q.constraints(2));
            assert_eq!(fast.selectivity, slow.selectivity, "query {i}");
            assert_eq!(fast.dead_paths, slow.dead_paths, "query {i}");
            assert_eq!(fast.columns_walked, slow.columns_walked, "query {i}");
        }
    }

    #[test]
    fn scratch_reuse_across_queries_is_clean() {
        // Re-using one sampler (and thus one scratch) across queries of
        // different shapes must not leak state between estimates.
        let t = correlated_pair(800, 6, 0.9, 13);
        let oracle = OracleDensity::new(&t);
        let sampler = ProgressiveSampler::new(SamplerConfig { num_samples: 150, seed: 3 });
        let q1 = Query::new(vec![Predicate::le(0, 2), Predicate::le(1, 2)]);
        let q2 = Query::new(vec![Predicate::ge(1, 4)]);
        let first_q1 = sampler.estimate(&oracle, &q1.constraints(2));
        let first_q2 = sampler.estimate(&oracle, &q2.constraints(2));
        // Interleave and repeat: results must be stable.
        assert_eq!(sampler.estimate(&oracle, &q1.constraints(2)), first_q1);
        assert_eq!(sampler.estimate(&oracle, &q2.constraints(2)), first_q2);
        assert_eq!(sampler.estimate(&oracle, &q1.constraints(2)), first_q1);
    }

    #[test]
    fn one_sampler_over_two_densities_never_mixes_their_memos() {
        let a = OracleDensity::new(&correlated_pair(800, 6, 0.9, 13));
        let b = OracleDensity::new(&correlated_pair(800, 6, 0.2, 14));
        let config = SamplerConfig { num_samples: 150, seed: 3 };
        let c = Query::new(vec![Predicate::le(0, 2), Predicate::le(1, 2)]).constraints(2);
        let fresh = |d: &OracleDensity| ProgressiveSampler::new(config.clone()).estimate(d, &c);
        assert_ne!(fresh(&a), fresh(&b));
        // The same constraints over another density must walk afresh, not
        // resume the other density's memoized prefix.
        let shared = ProgressiveSampler::new(config.clone());
        for d in [&a, &b, &a] {
            assert_eq!(shared.estimate(d, &c), fresh(d));
        }
    }

    #[test]
    fn a_density_rebuilt_in_the_same_slot_walks_afresh() {
        // Each iteration drops its density and builds the next one in the
        // same stack slot, so the two share an address: a memo keyed on the
        // address would resume the dropped density's walk.
        let config = SamplerConfig { num_samples: 150, seed: 3 };
        let c = Query::new(vec![Predicate::le(0, 2), Predicate::le(1, 2)]).constraints(2);
        let shared = ProgressiveSampler::new(config.clone());
        let mut answers = Vec::new();
        for (rho, seed) in [(0.9, 13), (0.2, 14)] {
            let density = OracleDensity::new(&correlated_pair(800, 6, rho, seed));
            let fresh = ProgressiveSampler::new(config.clone()).estimate(&density, &c);
            assert_eq!(shared.estimate(&density, &c), fresh);
            answers.push(fresh);
        }
        assert_ne!(answers[0], answers[1]);
    }

    #[test]
    fn estimates_are_deterministic_given_seed() {
        let t = correlated_pair(500, 6, 0.8, 1);
        let oracle = OracleDensity::new(&t);
        let q = Query::new(vec![Predicate::le(0, 3), Predicate::ge(1, 1)]);
        let a =
            ProgressiveSampler::new(SamplerConfig { num_samples: 100, seed: 9 }).estimate(&oracle, &q.constraints(2));
        let b =
            ProgressiveSampler::new(SamplerConfig { num_samples: 100, seed: 9 }).estimate(&oracle, &q.constraints(2));
        assert_eq!(a, b);
    }

    #[test]
    fn variance_shrinks_with_more_samples() {
        // Estimate the same query with different seeds; the spread with
        // 1000 samples must be no larger than with 20 samples.
        let t = correlated_pair(3000, 10, 0.85, 3);
        let oracle = OracleDensity::new(&t);
        let q = Query::new(vec![Predicate::le(0, 5), Predicate::ge(1, 2)]);
        let spread = |num_samples: usize| {
            let ests: Vec<f64> = (0..6)
                .map(|seed| {
                    ProgressiveSampler::new(SamplerConfig { num_samples, seed }).estimate(&oracle, &q.constraints(2))
                })
                .collect();
            let max = ests.iter().cloned().fold(f64::MIN, f64::max);
            let min = ests.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(spread(1000) <= spread(20) + 1e-9);
    }
}
