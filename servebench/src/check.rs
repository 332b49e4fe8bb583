//! Correctness gates, run after the measured phase. Any failure fails the
//! run instead of printing numbers.

use std::collections::{HashMap, HashSet};

use naru_core::Engine;
use naru_query::{Provenance, QueryKey};
use naru_serve::MetricsSnapshot;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::workload::{Record, Traffic};

/// `served + failed + shed + cancelled == accepted` at shutdown, and every
/// answer the clients saw was served by a worker or the cache.
pub fn accounting(metrics: &MetricsSnapshot, answered: u64) -> Result<(), String> {
    if metrics.accounted() != metrics.accepted {
        return Err(format!(
            "accounting identity broken: served {} + failed {} + shed {} + cancelled {} != accepted {}",
            metrics.served, metrics.failed, metrics.shed, metrics.cancelled, metrics.accepted
        ));
    }
    if metrics.served + metrics.cache_hits != answered {
        return Err(format!(
            "clients received {answered} answers, but the server served {} and the cache hit {}",
            metrics.served, metrics.cache_hits
        ));
    }
    Ok(())
}

/// Compares a seeded sample of `sample` answers, bit for bit, with a
/// single session over the same engine. Sessions on separate threads are
/// bit-identical, so the sample is split across `threads`. Returns the
/// number of answers checked.
pub fn reference(
    engine: &Engine,
    traffic: &Traffic,
    records: &[Record],
    sample: usize,
    seed: u64,
    threads: usize,
) -> Result<usize, String> {
    let mut picked: Vec<&Record> = records.iter().collect();
    picked.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5eed_c0de));
    picked.truncate(sample);
    let chunk = picked.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = picked
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || -> Result<(), String> {
                    let mut session = engine.tiered_session();
                    for record in part {
                        let query = traffic
                            .queries
                            .get(record.query as usize)
                            .ok_or_else(|| format!("request {} names no query", record.request))?;
                        let expected = session
                            .estimate(query)
                            .map_err(|e| format!("reference session rejected request {}: {e}", record.request))?;
                        if expected.selectivity.to_bits() != record.selectivity.to_bits()
                            || expected.provenance != record.provenance
                        {
                            return Err(format!(
                                "request {} served {} ({}), a single session answers {} ({})",
                                record.request,
                                record.selectivity,
                                record.provenance.label(),
                                expected.selectivity,
                                expected.provenance.label()
                            ));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| h.join().map_err(|_| "reference thread panicked".to_owned())?)
    })?;
    Ok(picked.len())
}

/// Every cache hit must equal, bit for bit, the first answer a worker
/// served for the same query, in `earlier` (answers from before the
/// measured phase) or in `records`.
pub fn cache_hits(earlier: &[Record], records: &[Record]) -> Result<(), String> {
    let mut ordered: Vec<&Record> = records.iter().collect();
    ordered.sort_by_key(|r| r.request);
    let mut first: HashMap<u32, u64> = HashMap::new();
    for record in earlier.iter().chain(ordered.iter().copied()).filter(|r| r.provenance != Provenance::CacheHit) {
        first.entry(record.query).or_insert(record.selectivity.to_bits());
    }
    for record in ordered.iter().filter(|r| r.provenance == Provenance::CacheHit) {
        match first.get(&record.query) {
            Some(&bits) if bits == record.selectivity.to_bits() => {}
            Some(&bits) => {
                return Err(format!(
                    "request {} hit the cache with {}, but query {} was first served as {}",
                    record.request,
                    record.selectivity,
                    record.query,
                    f64::from_bits(bits)
                ))
            }
            None => {
                return Err(format!(
                    "request {} hit the cache before query {} was served",
                    record.request, record.query
                ))
            }
        }
    }
    Ok(())
}

/// Share of the first `sent` requests whose `QueryKey` is distinct.
pub fn distinct_share(traffic: &Traffic, sent: usize, num_columns: usize) -> Result<f64, String> {
    if sent == 0 {
        return Ok(1.0);
    }
    let mut keys = HashSet::with_capacity(sent);
    for i in 0..sent {
        let (_, query) = traffic.request(i).ok_or_else(|| format!("request {i} is past the stream"))?;
        keys.insert(QueryKey::new(query, num_columns).map_err(|e| format!("request {i}: {e}"))?);
    }
    Ok(keys.len() as f64 / sent as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use naru_core::IndependentDensity;
    use naru_data::synthetic::dmv_like;

    fn record(request: u64, query: u32, selectivity: f64, provenance: Provenance) -> Record {
        Record {
            request,
            query,
            client_ms: 1.0,
            queue_ms: 0.0,
            wall_ms: 0.5,
            provenance,
            batch_size: 1,
            selectivity,
            live_paths: None,
            traced: false,
        }
    }

    fn snapshot(accepted: u64, served: u64, failed: u64, shed: u64, cancelled: u64, hits: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            accepted,
            rejected: 0,
            served,
            failed,
            shed,
            cancelled,
            batches: 0,
            fused_batches: 0,
            tier0_served: 0,
            tier1_served: 0,
            tier2_served: served,
            relaxed_served: 0,
            degraded_served: 0,
            worker_respawns: 0,
            cache_hits: hits,
            cache_misses: 0,
            cache_evictions: 0,
        }
    }

    #[test]
    fn a_broken_accounting_identity_fails_the_run() {
        assert!(accounting(&snapshot(10, 7, 1, 1, 1, 2), 9).is_ok());
        assert!(accounting(&snapshot(10, 7, 1, 1, 0, 2), 9).is_err(), "one accepted request unaccounted");
        assert!(accounting(&snapshot(10, 7, 1, 1, 1, 2), 10).is_err(), "an answer no one served");
    }

    #[test]
    fn an_answer_differing_from_the_session_reference_fails_the_run() {
        let table = dmv_like(500, 3);
        let engine = Engine::new(IndependentDensity::from_table(&table), table.num_rows() as u64);
        let traffic = Traffic::generate(Workload::DistinctHttp, &table, 9, 1).expect("traffic");
        let mut session = engine.tiered_session();
        let mut records: Vec<Record> = (0..24u32)
            .map(|i| {
                let e = session.estimate(&traffic.queries[i as usize]).expect("valid query");
                record(u64::from(i), i, e.selectivity, e.provenance)
            })
            .collect();
        assert_eq!(reference(&engine, &traffic, &records, 24, 1, 2), Ok(24));

        let wrong = f64::from_bits(records[5].selectivity.to_bits() ^ 1);
        records[5].selectivity = wrong;
        let err = reference(&engine, &traffic, &records, 24, 1, 2).expect_err("one bit off must fail");
        assert!(err.contains("request 5"), "{err}");
    }

    #[test]
    fn a_cache_hit_differing_from_the_first_served_answer_fails_the_run() {
        let mut records = vec![
            record(0, 3, 0.25, Provenance::Tier2Model),
            record(1, 3, 0.25, Provenance::CacheHit),
            record(2, 4, 0.5, Provenance::Tier0Exact),
            record(3, 4, 0.5, Provenance::CacheHit),
        ];
        assert!(cache_hits(&[], &records).is_ok());
        records[3].selectivity = 0.5000000000000001;
        assert!(cache_hits(&[], &records).is_err());
        let warm = [records.remove(2)];
        records[2].selectivity = 0.5;
        assert!(cache_hits(&[], &records).is_err(), "a hit with no served answer before it");
        assert!(cache_hits(&warm, &records).is_ok(), "the first answer was served before the measured phase");
    }

    #[test]
    fn distinct_streams_hold_no_duplicate_keys() {
        let table = dmv_like(500, 3);
        let traffic = Traffic::generate(Workload::DistinctHttp, &table, 4, 1).expect("traffic");
        assert_eq!(distinct_share(&traffic, traffic.queries.len(), table.num_columns()), Ok(1.0));
        let skewed = Traffic::generate(Workload::SkewedHttp, &table, 4, 1).expect("traffic");
        assert!(distinct_share(&skewed, 2000, table.num_columns()).expect("share") < 0.2);
    }
}
