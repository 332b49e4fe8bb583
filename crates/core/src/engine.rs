//! The Engine/Session estimation API.
//!
//! Serving a trained estimator under concurrent traffic needs a clean split
//! between what is shared and what is per-thread:
//!
//! * an [`Engine`] owns the *immutable* trained artifact — a
//!   [`MadeModel`](crate::model::MadeModel) or any other
//!   [`ConditionalDensity`] — behind an `Arc`, so it is cheap to clone and
//!   safe to share across threads;
//! * a [`Session`] owns *all mutable state* of estimation — the sampler
//!   scratch (activation buffers, tuple buffers, incremental encodings),
//!   the constraint-compilation buffer, and the per-call sample-count /
//!   seed knobs — so steady-state estimation is allocation-free without
//!   any interior locking.
//!
//! Estimates are deterministic given the seed: two sessions over the same
//! engine, with the same knobs, produce bit-for-bit identical
//! [`Estimate::selectivity`] values for the same query, regardless of which
//! thread runs them.
//!
//! ```text
//! let engine = estimator.into_engine();          // Arc<the trained model>
//! std::thread::scope(|scope| {
//!     for _ in 0..workers {
//!         let mut session = engine.session();    // per-thread scratch
//!         scope.spawn(move || session.estimate_batch(&queries));
//!     }
//! });
//! ```

use std::sync::Arc;
use std::time::Instant;

use naru_query::{Estimate, EstimateError, Query};

use crate::density::ConditionalDensity;
use crate::sampler::{progressive_walk, SamplerScratch};
use crate::stats::TableStats;
use crate::tiered::{TierConfig, TieredSession};

/// A density shareable across threads — what an [`Engine`] holds.
pub type SharedDensity = Arc<dyn ConditionalDensity + Send + Sync>;

/// The immutable half of the estimation API: a trained conditional density
/// plus the table metadata needed to turn selectivities into cardinalities.
///
/// `Engine` is `Clone` (the artifact lives behind an `Arc`) and `Send +
/// Sync`; spawn one [`Session`] per worker thread via [`Engine::session`].
///
/// An engine may additionally carry a [`TableStats`] sidecar (attached via
/// [`Engine::with_table_stats`], or automatically by
/// `NaruEstimator::into_engine` after training). The sidecar never changes
/// what [`Engine::session`] computes; it only enables the tiered fast paths
/// of [`Engine::tiered_session`].
#[derive(Clone)]
pub struct Engine {
    density: SharedDensity,
    num_rows: u64,
    default_samples: usize,
    default_seed: u64,
    table_stats: Option<Arc<TableStats>>,
    tier_config: TierConfig,
}

impl Engine {
    /// Wraps a density as an engine. `num_rows` is the row count of the
    /// modeled table (used to report estimated cardinalities).
    pub fn new<D: ConditionalDensity + Send + Sync + 'static>(density: D, num_rows: u64) -> Self {
        Self::from_arc(Arc::new(density), num_rows)
    }

    /// Wraps an already-shared density (e.g. one `Arc` serving several
    /// engines with different default knobs).
    pub fn from_arc(density: SharedDensity, num_rows: u64) -> Self {
        Self {
            density,
            num_rows,
            default_samples: 2000,
            default_seed: 0,
            table_stats: None,
            tier_config: TierConfig::default(),
        }
    }

    /// Sets the default progressive-sample count inherited by new sessions.
    pub fn with_samples(mut self, num_samples: usize) -> Self {
        self.default_samples = num_samples;
        self
    }

    /// Sets the default RNG seed inherited by new sessions.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.default_seed = seed;
        self
    }

    /// Attaches a [`TableStats`] sidecar, enabling the tier-0/tier-1 fast
    /// paths of [`Engine::tiered_session`].
    pub fn with_table_stats(self, stats: TableStats) -> Self {
        self.with_shared_table_stats(Arc::new(stats))
    }

    /// Attaches an already-shared [`TableStats`] sidecar.
    pub fn with_shared_table_stats(mut self, stats: Arc<TableStats>) -> Self {
        self.table_stats = Some(stats);
        self
    }

    /// Drops the statistics sidecar: tiered sessions from this engine run
    /// every query through the model (tier 2 only). Useful as the
    /// all-model baseline in benchmarks.
    pub fn without_table_stats(mut self) -> Self {
        self.table_stats = None;
        self
    }

    /// Sets the tier-routing configuration inherited by tiered sessions.
    pub fn with_tier_config(mut self, config: TierConfig) -> Self {
        self.tier_config = config;
        self
    }

    /// Opens a new session: a clone of the shared artifact plus fresh
    /// (empty) scratch. Cheap; buffers materialize on the first estimate.
    pub fn session(&self) -> Session {
        Session {
            density: Arc::clone(&self.density),
            num_rows: self.num_rows,
            num_samples: self.default_samples,
            seed: self.default_seed,
            scratch: SamplerScratch::default(),
            constraints: Vec::new(),
        }
    }

    /// Opens a tiered session: tier-0 exact statistics and tier-1 sketches
    /// answer the easy queries, the model session answers the rest. On an
    /// engine without a [`TableStats`] sidecar this is a pure tier-2
    /// passthrough, bit-identical to [`Engine::session`].
    pub fn tiered_session(&self) -> TieredSession {
        TieredSession::new(self.session(), self.table_stats.clone(), self.tier_config.clone())
    }

    /// The shared density.
    pub fn density(&self) -> &(dyn ConditionalDensity + Send + Sync) {
        &*self.density
    }

    /// The statistics sidecar, when one is attached.
    pub fn table_stats(&self) -> Option<&Arc<TableStats>> {
        self.table_stats.as_ref()
    }

    /// The tier-routing configuration tiered sessions inherit.
    pub fn tier_config(&self) -> &TierConfig {
        &self.tier_config
    }

    /// Row count of the modeled table.
    pub fn num_rows(&self) -> u64 {
        self.num_rows
    }

    /// Number of modeled columns.
    pub fn num_columns(&self) -> usize {
        self.density.num_columns()
    }

    /// Domain sizes of the modeled columns.
    pub fn domain_sizes(&self) -> &[usize] {
        self.density.domain_sizes()
    }
}

/// The mutable half of the estimation API: one per worker thread.
///
/// A session owns every buffer progressive sampling touches, so repeated
/// estimates are allocation-free at steady state and never contend on a
/// lock. Sessions are `Send`: move one into each worker thread. Estimation
/// takes `&mut self`, so a single session cannot be used from two threads
/// at once — to serve concurrently, open one session per thread instead of
/// wrapping one in a lock.
///
/// Each model walk resumes after the column prefix its compiled
/// constraints share with the session's previous walk (same seed and
/// sample count), skipping those columns' forward passes. Answers are
/// bit-identical to a fresh session's either way.
pub struct Session {
    density: SharedDensity,
    num_rows: u64,
    num_samples: usize,
    seed: u64,
    /// Sampler buffers, including the previous walk's per-column
    /// checkpoints that the next walk resumes from.
    scratch: SamplerScratch,
    /// Reused constraint-compilation buffer (`try_constraints_into`).
    constraints: Vec<naru_query::ColumnConstraint>,
}

impl Session {
    /// Number of progressive-sampling paths per estimate.
    pub fn num_samples(&self) -> usize {
        self.num_samples
    }

    /// Changes the per-call sample count (Naru-1000 vs Naru-2000 …) without
    /// rebuilding anything — the scratch buffers resize lazily.
    pub fn set_num_samples(&mut self, num_samples: usize) {
        self.num_samples = num_samples;
    }

    /// The RNG seed; estimates are deterministic given it.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Changes the RNG seed used by subsequent estimates.
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// Row count of the modeled table.
    pub fn num_rows(&self) -> u64 {
        self.num_rows
    }

    /// Number of modeled columns.
    pub fn num_columns(&self) -> usize {
        self.density.num_columns()
    }

    /// Domain sizes of the modeled columns.
    pub fn domain_sizes(&self) -> &[usize] {
        self.density.domain_sizes()
    }

    /// Estimates one query with the session's current knobs.
    pub fn estimate(&mut self, query: &Query) -> Result<Estimate, EstimateError> {
        self.estimate_with_samples(query, self.num_samples)
    }

    /// Estimates one query with an explicit sample count, leaving the
    /// session's default untouched.
    pub fn estimate_with_samples(&mut self, query: &Query, num_samples: usize) -> Result<Estimate, EstimateError> {
        estimate_with_scratch(
            &*self.density,
            self.num_rows,
            query,
            num_samples,
            self.seed,
            &mut self.scratch,
            &mut self.constraints,
        )
    }

    /// Estimates a batch of queries, one result per query in order: the
    /// same answers as calling [`Session::estimate`] on each in turn.
    pub fn estimate_batch(&mut self, queries: &[Query]) -> Vec<Result<Estimate, EstimateError>> {
        queries.iter().map(|query| self.estimate(query)).collect()
    }
}

/// The shared fallible-estimation routine: validates the query, runs the
/// progressive walk through the caller's scratch, and packages the rich
/// [`Estimate`]. Used by [`Session`] and by the `SelectivityEstimator`
/// wrappers in [`crate::estimator`].
pub(crate) fn estimate_with_scratch<D: ConditionalDensity + ?Sized>(
    density: &D,
    num_rows: u64,
    query: &Query,
    num_samples: usize,
    seed: u64,
    scratch: &mut SamplerScratch,
    constraints: &mut Vec<naru_query::ColumnConstraint>,
) -> Result<Estimate, EstimateError> {
    let start = Instant::now();
    if let Some(column) = density.domain_sizes().iter().position(|&d| d == 0) {
        return Err(EstimateError::EmptyDomain { column });
    }
    query.try_constraints_into(density.num_columns(), constraints)?;
    let walk = progressive_walk(density, constraints, num_samples, seed, scratch);
    let live = num_samples.max(1) - walk.dead_paths;
    Ok(Estimate::sampled(walk.selectivity, num_rows, live, start.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::IndependentDensity;
    use crate::oracle::OracleDensity;
    use naru_data::synthetic::correlated_pair;
    use naru_query::Predicate;

    fn oracle_engine() -> (Engine, naru_data::Table) {
        let t = correlated_pair(1200, 6, 0.9, 3);
        let engine = Engine::new(OracleDensity::new(&t), t.num_rows() as u64).with_samples(200);
        (engine, t)
    }

    #[test]
    fn session_estimates_match_progressive_sampler() {
        let (engine, t) = oracle_engine();
        let mut session = engine.session();
        let q = Query::new(vec![Predicate::le(0, 2), Predicate::ge(1, 1)]);
        let est = session.estimate(&q).unwrap();

        let sampler =
            crate::sampler::ProgressiveSampler::new(crate::sampler::SamplerConfig { num_samples: 200, seed: 0 });
        let oracle = OracleDensity::new(&t);
        let reference = sampler.estimate_detailed(&oracle, &q.constraints(2));
        assert_eq!(est.selectivity, reference.selectivity);
        assert_eq!(est.live_paths, Some(200 - reference.dead_paths));
        assert!((est.estimated_rows - est.selectivity * t.num_rows() as f64).abs() < 1e-9);
    }

    #[test]
    fn sessions_are_independent_and_deterministic() {
        let (engine, _) = oracle_engine();
        let q1 = Query::new(vec![Predicate::le(0, 3)]);
        let q2 = Query::new(vec![Predicate::eq(0, 0), Predicate::eq(1, 0)]);

        let mut a = engine.session();
        let mut b = engine.session();
        // Interleaved use of two sessions over the same engine must agree
        // with a fresh session answering each query in isolation.
        let a1 = a.estimate(&q1).unwrap().selectivity;
        let b2 = b.estimate(&q2).unwrap().selectivity;
        let a2 = a.estimate(&q2).unwrap().selectivity;
        let b1 = b.estimate(&q1).unwrap().selectivity;
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
        assert_eq!(engine.session().estimate(&q1).unwrap().selectivity, a1);
    }

    #[test]
    fn batch_matches_sequential() {
        let (engine, _) = oracle_engine();
        let queries = vec![
            Query::new(vec![Predicate::le(0, 2)]),
            Query::all(),
            Query::new(vec![Predicate::eq(0, 1), Predicate::ge(1, 3)]),
        ];
        let batch = engine.session().estimate_batch(&queries);
        let mut session = engine.session();
        for (q, b) in queries.iter().zip(&batch) {
            let s = session.estimate(q).unwrap();
            assert_eq!(s.selectivity, b.as_ref().unwrap().selectivity);
        }
    }

    #[test]
    fn per_call_sample_count_changes_without_rebuild() {
        let (engine, _) = oracle_engine();
        let mut session = engine.session();
        let q = Query::new(vec![Predicate::le(0, 2), Predicate::ge(1, 2)]);
        let at_200 = session.estimate(&q).unwrap();
        let at_50 = session.estimate_with_samples(&q, 50).unwrap();
        assert_eq!(at_50.live_paths.map(|l| l <= 50), Some(true));
        // The default knob is untouched; repeating the default matches.
        assert_eq!(session.estimate(&q).unwrap().selectivity, at_200.selectivity);
        session.set_num_samples(50);
        assert_eq!(session.estimate(&q).unwrap().selectivity, at_50.selectivity);
    }

    #[test]
    fn out_of_range_column_is_a_typed_error() {
        let (engine, _) = oracle_engine();
        let q = Query::new(vec![Predicate::eq(17, 0)]);
        assert_eq!(engine.session().estimate(&q), Err(EstimateError::ColumnOutOfRange { column: 17, num_columns: 2 }));
    }

    #[test]
    fn empty_domain_is_a_typed_error() {
        let engine = Engine::new(IndependentDensity::new(vec![vec![0.5, 0.5], vec![]]), 10);
        let q = Query::new(vec![Predicate::eq(0, 0)]);
        assert_eq!(engine.session().estimate(&q), Err(EstimateError::EmptyDomain { column: 1 }));
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let (engine, _) = oracle_engine();
        let q = Query::new(vec![Predicate::le(0, 2), Predicate::ge(1, 1)]);
        let reference = engine.session().estimate(&q).unwrap().selectivity;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let engine = engine.clone();
                let q = q.clone();
                scope.spawn(move || {
                    let got = engine.session().estimate(&q).unwrap().selectivity;
                    assert_eq!(got, reference);
                });
            }
        });
    }
}
