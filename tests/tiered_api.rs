//! Property tests for the tiered estimation pipeline: tier-0 answers are
//! bit-exact, tier-1 answers respect the advertised q-error budget,
//! prefix-memoized walks are bit-identical to fresh sessions whatever the
//! session answered before, and a served cache hit round-trips the exact
//! estimate of a fresh miss.

use naru::core::stats::{StatsConfig, TableStats};
use naru::core::{Engine, IndependentDensity, OracleDensity};
use naru::query::{q_error_from_selectivity, try_count_matches, Estimate, Predicate, Provenance, Query};
use naru::serve::{ServeConfig, Server};
use proptest::prelude::*;

/// One arbitrary predicate on a `dmv_like` column (domains there are all
/// small enough that [`TableStats`] stores exact counts by default).
fn dmv_predicate() -> impl Strategy<Value = Predicate> {
    (0usize..11, 0u32..2200, 0u32..2200, 0usize..4).prop_map(|(col, a, b, op)| match op {
        0 => Predicate::eq(col, a),
        1 => Predicate::le(col, a),
        2 => Predicate::ge(col, a),
        _ => Predicate::between(col, a.min(b), a.max(b)),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any query answered at tier 0 reports the exact row count of direct
    /// table evaluation, and single-column queries always qualify.
    #[test]
    fn tier0_answers_are_bit_exact(seed in 0u64..1000, pred in dmv_predicate()) {
        let table = naru::data::synthetic::dmv_like(1200, seed);
        let engine = Engine::new(OracleDensity::new(&table), table.num_rows() as u64)
            .with_samples(64)
            .with_table_stats(TableStats::build(&table));
        let mut tiered = engine.tiered_session();

        for query in [Query::all(), Query::new(vec![pred.clone()])] {
            let estimate = tiered.estimate(&query).unwrap();
            prop_assert_eq!(estimate.provenance, Provenance::Tier0Exact);
            let truth = try_count_matches(&table, &query).unwrap();
            prop_assert_eq!(estimate.cardinality(), truth);
        }
    }

    /// With exact counts disabled, eligible narrow queries route to tier 1
    /// and stay within the configured q-error budget.
    #[test]
    fn tier1_stays_within_the_qerror_budget(
        seed in 0u64..500,
        // Bitmask over columns {0, 1, 2}; 1..7 yields every 1- or 2-column
        // subset (the vendored proptest has no `sample::subsequence`).
        mask in 1u8..7,
        frac in 0.5f64..0.95,
    ) {
        let cols: Vec<usize> = (0..3).filter(|c| mask & (1 << c) != 0).collect();
        let domains = [7usize, 13, 29];
        let table = naru::data::synthetic::independent_table(1500, &domains, seed);
        // Drop the exact per-value counts so nothing is provable at tier 0
        // (short of full/empty domains) and tier 1 must answer.
        let config = StatsConfig { exact_counts_max_domain: 0, ..StatsConfig::default() };
        let engine = Engine::new(OracleDensity::new(&table), table.num_rows() as u64)
            .with_samples(64)
            .with_table_stats(TableStats::build_with(&table, &config));
        let mut tiered = engine.tiered_session();

        // `le` below the column max is never provable from min/max alone.
        let preds: Vec<Predicate> = cols
            .iter()
            .map(|&c| Predicate::le(c, ((domains[c] as f64 * frac) as u32).min(domains[c] as u32 - 2)))
            .collect();
        let query = Query::new(preds);
        let estimate = tiered.estimate(&query).unwrap();
        prop_assert_eq!(estimate.provenance, Provenance::Tier1Sketch);

        let budget = engine.tier_config().tier1_qerror_budget;
        let truth = try_count_matches(&table, &query).unwrap() as f64 / table.num_rows() as f64;
        let qerr = q_error_from_selectivity(estimate.selectivity, truth, table.num_rows());
        prop_assert!(qerr <= budget, "q-error {qerr} exceeds budget {budget} on {:?}", query);
    }

    /// Every model walk resumes from the session's previous walk, so a
    /// session's answers must not depend on what it answered before: a
    /// batch, and one tiered session driven through interleaved single
    /// estimates (repeats and shared prefixes included), a second sample
    /// count, and tier-0/tier-1 fast-path answers, match fresh sessions
    /// bit for bit.
    #[test]
    fn memoized_batches_match_sequential_bitwise(
        seed in 0u64..200,
        preds in proptest::collection::vec(
            proptest::collection::vec(dmv_predicate(), 0..3), 1..6),
    ) {
        let table = naru::data::synthetic::dmv_like(600, seed);
        let engine = Engine::new(OracleDensity::new(&table), table.num_rows() as u64)
            .with_samples(80)
            .with_table_stats(TableStats::build(&table));
        let queries: Vec<Query> = preds.into_iter().map(Query::new).collect();
        let fresh = |query: &Query| engine.session().estimate(query).unwrap();
        let same = |a: &Estimate, b: &Estimate| {
            (a.selectivity, a.live_paths, a.estimated_rows, a.provenance)
                == (b.selectivity, b.live_paths, b.estimated_rows, b.provenance)
        };

        let batch = engine.session().estimate_batch(&queries);
        for (query, batched) in queries.iter().zip(batch) {
            prop_assert!(same(&fresh(query), &batched.unwrap()));
        }

        // Forward then backward: the turn repeats the last query, and the
        // other repeats sit behind different predecessors.
        let tier0_probe = Query::new(vec![Predicate::le(6, 900)]);
        let tier1_probe = Query::new(vec![Predicate::eq(0, 1), Predicate::le(6, 1200)]);
        let mut tiered = engine.tiered_session();
        for (i, query) in queries.iter().chain(queries.iter().rev()).enumerate() {
            let walked = tiered.session_mut().estimate(query).unwrap();
            prop_assert!(same(&walked, &fresh(query)));
            if i % 2 == 1 {
                let reduced = tiered.session_mut().estimate_with_samples(query, 37).unwrap();
                prop_assert!(same(&reduced, &engine.session().estimate_with_samples(query, 37).unwrap()));
            }
            let probe = if i % 3 == 0 { &tier0_probe } else { &tier1_probe };
            let fast = tiered.estimate(probe).unwrap();
            prop_assert!(matches!(fast.provenance, Provenance::Tier0Exact | Provenance::Tier1Sketch));
            prop_assert!(same(&fast, &engine.tiered_session().estimate(probe).unwrap()));
        }
    }
}

proptest! {
    // Each case spins up a real worker pool; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A cache hit returns an `Estimate` identical to the fresh miss that
    /// populated it, except for its `CacheHit` provenance.
    #[test]
    fn cache_hits_round_trip_the_fresh_estimate(
        lo in 0u32..8, hi in 0u32..4,
    ) {
        let engine = Engine::new(IndependentDensity::uniform(&[8, 4]), 10_000).with_samples(64);
        let server = Server::start(engine, ServeConfig::default().with_workers(1).with_cache_capacity(16)).unwrap();
        let query = Query::new(vec![Predicate::ge(0, lo), Predicate::le(1, hi)]);

        let fresh = server.estimate(&query).unwrap().estimate;
        let hit = server.estimate(&query).unwrap().estimate;
        prop_assert_eq!(hit.provenance, Provenance::CacheHit);
        prop_assert_eq!(hit.selectivity, fresh.selectivity);
        prop_assert_eq!(hit.estimated_rows, fresh.estimated_rows);
        prop_assert_eq!(hit.live_paths, fresh.live_paths);

        let metrics = server.shutdown();
        prop_assert_eq!(metrics.cache_hits, 1);
        prop_assert_eq!(metrics.accepted, 1);
    }
}
