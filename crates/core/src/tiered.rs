//! The tiered estimation pipeline: exact statistics, then sketches, then
//! the model.
//!
//! Production traffic is skewed and repetitive, and much of it is *easy*:
//! unconstrained probes, single-column points and ranges, predicates whose
//! answer per-column statistics already prove. Running Naru's progressive
//! sampler — one network forward pass per column — on such queries wastes
//! tens of milliseconds to recompute what a catalog lookup knows. This is
//! the classical tiered design (cheap summaries first, learned model for
//! the hard residual), in the spirit of pairing compact sketches with a
//! deep estimator (arXiv:1904.08223):
//!
//! * **Tier 0 — exact statistics.** [`TableStats::exact_cardinality`]
//!   answers when the stored per-column summaries *prove* the count:
//!   unconstrained or full-domain queries, provably-empty constraints, and
//!   single-column predicates on columns whose exact value counts are
//!   stored. Bit-exact by construction, microseconds, no model.
//! * **Tier 1 — sketches.** Per-column MCV + equi-depth histograms
//!   combined under independence ([`TableStats::sketch_selectivity`]).
//!   Approximate, so it is gated by [`TierConfig`]: a query is eligible
//!   only while the configured q-error budget covers the independence
//!   error that grows with the number of filtered columns.
//! * **Tier 2 — the model.** Everything else runs the unchanged
//!   `Session::estimate` progressive-sampling path.
//!
//! Each answer is tagged with its [`Provenance`] so serving metrics and
//! benchmarks can attribute latency per tier.

use std::sync::Arc;
use std::time::Instant;

use naru_query::{ColumnConstraint, Estimate, EstimateError, Provenance, Query};

use crate::engine::Session;
use crate::stats::TableStats;

/// Routing knobs for [`TieredSession`].
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Multiplicative error budget a tier-1 answer may spend. Tier 1 is
    /// consulted only while its modeled worst-case error stays inside this
    /// budget; set below 1.0 to disable tier 1 entirely.
    pub tier1_qerror_budget: f64,
    /// Modeled per-filtered-column error factor of the independence
    /// assumption: a query filtering `k` columns is routed to tier 1 only
    /// if `factor^k <= budget`. With the defaults (factor 2, budget 4)
    /// tier 1 takes queries filtering at most two columns.
    pub tier1_column_factor: f64,
}

impl Default for TierConfig {
    fn default() -> Self {
        Self { tier1_qerror_budget: 4.0, tier1_column_factor: 2.0 }
    }
}

impl TierConfig {
    /// Whether tier 1 may answer a query filtering `filtered` columns.
    pub fn tier1_allows(&self, filtered: usize) -> bool {
        self.tier1_qerror_budget >= 1.0 && self.tier1_column_factor.powi(filtered as i32) <= self.tier1_qerror_budget
    }
}

/// How far [`TieredSession::estimate_degraded`] may cut quality when a
/// request's deadline budget (or the server's backlog) cannot afford the
/// full model walk.
///
/// Both rungs first try the normal tier-0/tier-1 fast paths — when the
/// statistics *prove* the answer, or the sketch is within its configured
/// budget anyway, degradation changes nothing and the estimate keeps its
/// ordinary provenance. Only when the routing actually cut quality is the
/// answer tagged [`Provenance::Degraded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedMode {
    /// Run the model walk with this (reduced) number of progressive-sample
    /// paths instead of the session's configured count. The middle rung of
    /// the degradation ladder: still model-quality in shape, cheaper and
    /// noisier. Clamped to at least 1.
    ReducedSamples(usize),
    /// Skip the model entirely and answer from the statistics sidecar's
    /// histogram sketches, ignoring the tier-1 q-error budget gate. On a
    /// session without statistics this falls back to a model walk with
    /// `fallback_samples` paths (clamped to at least 1) — the cheapest
    /// model answer available.
    SketchOnly {
        /// Sample count of the stats-less fallback walk.
        fallback_samples: usize,
    },
}

/// A [`Session`](crate::Session) wrapped with the tier-0/tier-1 fast paths.
///
/// Built by `Engine::tiered_session`. Without a [`TableStats`] sidecar the
/// wrapper is a pure passthrough to the model session — every answer (and
/// every error) is bit-identical to the plain session's.
pub struct TieredSession {
    session: Session,
    stats: Option<Arc<TableStats>>,
    config: TierConfig,
    /// Reused constraint-compilation buffer for the fast-path check.
    constraints: Vec<ColumnConstraint>,
}

impl TieredSession {
    pub(crate) fn new(session: Session, stats: Option<Arc<TableStats>>, config: TierConfig) -> Self {
        Self { session, stats, config, constraints: Vec::new() }
    }

    /// The wrapped model session (tier 2).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Mutable access to the wrapped model session, e.g. to adjust its
    /// sample-count or seed knobs.
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// The routing configuration.
    pub fn tier_config(&self) -> &TierConfig {
        &self.config
    }

    /// Whether this session has statistics to route through (false means
    /// pure tier-2 passthrough).
    pub fn has_stats(&self) -> bool {
        self.stats.is_some()
    }

    /// Tries tiers 0 and 1. `Ok(None)` means "route to the model". Errors
    /// mirror the model path exactly so routing never changes which typed
    /// error a query produces.
    fn fast_path(&mut self, query: &Query) -> Result<Option<Estimate>, EstimateError> {
        let Some(stats) = &self.stats else {
            return Ok(None);
        };
        let start = Instant::now();
        // Identical validation order to `Session::estimate`: degenerate
        // domains first, then per-predicate column bounds.
        if let Some(column) = self.session.domain_sizes().iter().position(|&d| d == 0) {
            return Err(EstimateError::EmptyDomain { column });
        }
        query.try_constraints_into(self.session.num_columns(), &mut self.constraints)?;

        // Tier 0: only answers when the statistics prove the exact count.
        if let Some(card) = stats.exact_cardinality(&self.constraints) {
            let num_rows = stats.num_rows();
            let selectivity = if num_rows == 0 { 0.0 } else { card as f64 / num_rows as f64 };
            return Ok(Some(
                Estimate::closed_form(selectivity, num_rows, start.elapsed()).with_provenance(Provenance::Tier0Exact),
            ));
        }

        // Tier 1: histogram product under independence, inside the budget.
        let filtered = self.constraints.iter().filter(|c| !matches!(c, ColumnConstraint::Any)).count();
        if self.config.tier1_allows(filtered) {
            let selectivity = stats.sketch_selectivity(&self.constraints);
            return Ok(Some(
                Estimate::closed_form(selectivity, stats.num_rows(), start.elapsed())
                    .with_provenance(Provenance::Tier1Sketch),
            ));
        }
        Ok(None)
    }

    /// Estimates one query through the tiers: exact statistics, then
    /// sketches, then the model.
    pub fn estimate(&mut self, query: &Query) -> Result<Estimate, EstimateError> {
        match self.fast_path(query)? {
            Some(estimate) => Ok(estimate),
            None => self.session.estimate(query),
        }
    }

    /// Estimates one query through a *degraded* path: the normal tier-0 /
    /// tier-1 fast tiers still answer when they can (their answers are as
    /// good as the undegraded ones, so they keep their ordinary
    /// provenance), but the expensive full model walk is replaced by the
    /// rung `mode` selects. Answers produced by the cut-quality rung are
    /// tagged [`Provenance::Degraded`].
    ///
    /// Errors are identical to [`TieredSession::estimate`]: degradation
    /// never changes which typed error a malformed query produces.
    pub fn estimate_degraded(&mut self, query: &Query, mode: DegradedMode) -> Result<Estimate, EstimateError> {
        if let Some(estimate) = self.fast_path(query)? {
            return Ok(estimate);
        }
        match mode {
            DegradedMode::ReducedSamples(samples) => self
                .session
                .estimate_with_samples(query, samples.max(1))
                .map(|estimate| estimate.with_provenance(Provenance::Degraded)),
            DegradedMode::SketchOnly { fallback_samples } => match &self.stats {
                Some(stats) => {
                    // `fast_path` compiled the constraints (it only returns
                    // `Ok(None)` with stats present after compiling them),
                    // so the sketch can answer without revalidating.
                    let start = Instant::now();
                    let selectivity = stats.sketch_selectivity(&self.constraints);
                    Ok(Estimate::closed_form(selectivity, stats.num_rows(), start.elapsed())
                        .with_provenance(Provenance::Degraded))
                }
                None => self
                    .session
                    .estimate_with_samples(query, fallback_samples.max(1))
                    .map(|estimate| estimate.with_provenance(Provenance::Degraded)),
            },
        }
    }

    /// Estimates a batch, one result per query in order: the same answers
    /// as calling [`TieredSession::estimate`] on each in turn.
    pub fn estimate_batch(&mut self, queries: &[Query]) -> Vec<Result<Estimate, EstimateError>> {
        queries.iter().map(|query| self.estimate(query)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleDensity;
    use crate::Engine;
    use naru_data::synthetic::{correlated_pair, dmv_like};
    use naru_query::Predicate;

    fn tiered_engine(rows: usize, seed: u64) -> (Engine, naru_data::Table) {
        let table = dmv_like(rows, seed);
        let stats = TableStats::build(&table);
        let engine =
            Engine::new(OracleDensity::new(&table), table.num_rows() as u64).with_samples(200).with_table_stats(stats);
        (engine, table)
    }

    #[test]
    fn tier0_answers_trivial_queries_exactly() {
        let (engine, table) = tiered_engine(2000, 3);
        let mut tiered = engine.tiered_session();
        let n = table.num_columns();

        let all = tiered.estimate(&Query::all()).unwrap();
        assert_eq!(all.provenance, Provenance::Tier0Exact);
        assert_eq!(all.cardinality(), 2000);

        let single = Query::new(vec![Predicate::le(6, 900)]);
        let est = tiered.estimate(&single).unwrap();
        assert_eq!(est.provenance, Provenance::Tier0Exact);
        assert_eq!(est.cardinality(), naru_query::try_count_matches(&table, &single).unwrap());

        let empty = Query::new(vec![Predicate::between(0, 5, 2), Predicate::eq(1, 0)]);
        let est = tiered.estimate(&empty).unwrap();
        assert_eq!(est.provenance, Provenance::Tier0Exact);
        assert_eq!(est.selectivity, 0.0);
        let _ = n;
    }

    #[test]
    fn tier1_takes_two_column_queries_within_budget() {
        let (engine, _) = tiered_engine(2000, 5);
        let mut tiered = engine.tiered_session();
        // Two filtered columns: not exactly answerable, inside the default
        // budget (2^2 <= 4), so tier 1 takes it.
        let q = Query::new(vec![Predicate::eq(0, 1), Predicate::le(6, 1200)]);
        let est = tiered.estimate(&q).unwrap();
        assert_eq!(est.provenance, Provenance::Tier1Sketch);
        assert!(est.live_paths.is_none());

        // Three filtered columns exceed the budget: the model answers.
        let q3 = Query::new(vec![Predicate::eq(0, 1), Predicate::le(6, 1200), Predicate::ge(7, 1)]);
        let est = tiered.estimate(&q3).unwrap();
        assert_eq!(est.provenance, Provenance::Tier2Model);
        assert!(est.live_paths.is_some());
    }

    #[test]
    fn stats_less_engine_is_a_pure_passthrough() {
        let table = correlated_pair(1000, 8, 0.9, 7);
        let engine = Engine::new(OracleDensity::new(&table), table.num_rows() as u64).with_samples(150);
        let queries = vec![
            Query::all(),
            Query::new(vec![Predicate::le(0, 3)]),
            Query::new(vec![Predicate::eq(0, 1), Predicate::ge(1, 2)]),
        ];
        let mut tiered = engine.tiered_session();
        let mut plain = engine.session();
        for q in &queries {
            let t = tiered.estimate(q).unwrap();
            let p = plain.estimate(q).unwrap();
            assert_eq!(t.selectivity, p.selectivity);
            assert_eq!(t.live_paths, p.live_paths);
            assert_eq!(t.provenance, Provenance::Tier2Model);
        }
        assert!(!tiered.has_stats());
    }

    #[test]
    fn tiered_errors_match_the_model_path() {
        let (engine, table) = tiered_engine(500, 11);
        let mut tiered = engine.tiered_session();
        let n = table.num_columns();
        let bad = Query::new(vec![Predicate::eq(n + 2, 0)]);
        assert_eq!(tiered.estimate(&bad), Err(EstimateError::ColumnOutOfRange { column: n + 2, num_columns: n }));
        // Batch: the error is per-query, neighbours still answered.
        let batch = tiered.estimate_batch(&[Query::all(), bad.clone()]);
        assert!(batch[0].is_ok());
        assert_eq!(batch[1], Err(EstimateError::ColumnOutOfRange { column: n + 2, num_columns: n }));
    }

    #[test]
    fn batch_routes_like_sequential() {
        let (engine, table) = tiered_engine(1500, 13);
        let n = table.num_columns();
        let queries = vec![
            Query::all(),
            Query::new(vec![Predicate::eq(0, 1)]),
            Query::new(vec![Predicate::eq(1, 1), Predicate::le(6, 900), Predicate::ge(7, 1), Predicate::eq(3, 0)]),
            Query::new(vec![Predicate::eq(0, 1), Predicate::le(6, 1200)]),
        ];
        let batch = engine.tiered_session().estimate_batch(&queries);
        let mut sequential = engine.tiered_session();
        for (q, b) in queries.iter().zip(&batch) {
            let s = sequential.estimate(q).unwrap();
            let b = b.as_ref().unwrap();
            assert_eq!(s.selectivity, b.selectivity);
            assert_eq!(s.provenance, b.provenance);
        }
        let _ = n;
    }

    #[test]
    fn degraded_reduced_samples_tags_and_shrinks_the_walk() {
        let (engine, _) = tiered_engine(1500, 19);
        let mut tiered = engine.tiered_session();
        // Three filtered columns: neither fast tier answers.
        let q = Query::new(vec![Predicate::eq(0, 1), Predicate::le(6, 1200), Predicate::ge(7, 1)]);
        let full = tiered.estimate(&q).unwrap();
        assert_eq!(full.provenance, Provenance::Tier2Model);

        let degraded = tiered.estimate_degraded(&q, DegradedMode::ReducedSamples(25)).unwrap();
        assert_eq!(degraded.provenance, Provenance::Degraded);
        assert!(degraded.live_paths.unwrap() <= 25);
        // A reduced walk is bit-identical to an explicit reduced-sample call.
        let reference = engine.session().estimate_with_samples(&q, 25).unwrap();
        assert_eq!(degraded.selectivity, reference.selectivity);
    }

    #[test]
    fn degraded_sketch_only_forces_the_sketch_past_the_budget_gate() {
        let (engine, _) = tiered_engine(1500, 23);
        let mut tiered = engine.tiered_session();
        // Three filtered columns exceed the tier-1 budget, so the normal
        // path runs the model — the degraded sketch rung answers anyway.
        let q = Query::new(vec![Predicate::eq(0, 1), Predicate::le(6, 1200), Predicate::ge(7, 1)]);
        let degraded = tiered.estimate_degraded(&q, DegradedMode::SketchOnly { fallback_samples: 8 }).unwrap();
        assert_eq!(degraded.provenance, Provenance::Degraded);
        assert!(degraded.live_paths.is_none(), "a sketch answer runs no sample paths");
        assert!((0.0..=1.0).contains(&degraded.selectivity));
    }

    #[test]
    fn degraded_keeps_fast_tier_answers_undegraded() {
        let (engine, table) = tiered_engine(1000, 29);
        let mut tiered = engine.tiered_session();
        // Tier 0 proves this single-column query: degradation must not
        // touch it (the answer is already exact).
        let q = Query::new(vec![Predicate::le(6, 900)]);
        let est = tiered.estimate_degraded(&q, DegradedMode::ReducedSamples(10)).unwrap();
        assert_eq!(est.provenance, Provenance::Tier0Exact);
        assert_eq!(est.cardinality(), naru_query::try_count_matches(&table, &q).unwrap());
    }

    #[test]
    fn degraded_sketch_only_falls_back_to_a_reduced_walk_without_stats() {
        let table = correlated_pair(800, 8, 0.9, 31);
        let engine = Engine::new(OracleDensity::new(&table), table.num_rows() as u64).with_samples(150);
        let mut tiered = engine.tiered_session();
        let q = Query::new(vec![Predicate::eq(0, 1), Predicate::ge(1, 2)]);
        let est = tiered.estimate_degraded(&q, DegradedMode::SketchOnly { fallback_samples: 16 }).unwrap();
        assert_eq!(est.provenance, Provenance::Degraded);
        assert!(est.live_paths.unwrap() <= 16, "stats-less sketch rung degrades to a reduced walk");
    }

    #[test]
    fn degraded_errors_match_the_model_path() {
        let (engine, table) = tiered_engine(500, 37);
        let mut tiered = engine.tiered_session();
        let n = table.num_columns();
        let bad = Query::new(vec![Predicate::eq(n + 1, 0)]);
        for mode in [DegradedMode::ReducedSamples(10), DegradedMode::SketchOnly { fallback_samples: 10 }] {
            assert_eq!(
                tiered.estimate_degraded(&bad, mode),
                Err(EstimateError::ColumnOutOfRange { column: n + 1, num_columns: n })
            );
        }
    }

    #[test]
    fn tier1_can_be_disabled() {
        let (engine, _) = tiered_engine(1000, 17);
        let engine = engine.with_tier_config(TierConfig { tier1_qerror_budget: 0.0, tier1_column_factor: 2.0 });
        let mut tiered = engine.tiered_session();
        let q = Query::new(vec![Predicate::eq(0, 1), Predicate::le(6, 1200)]);
        let est = tiered.estimate(&q).unwrap();
        assert_eq!(est.provenance, Provenance::Tier2Model);
        assert!(!engine.tier_config().tier1_allows(1));
    }
}
