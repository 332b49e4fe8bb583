//! End-to-end estimator-latency measurement and the `BENCH_infer.json`
//! report format.
//!
//! The paper's interactivity claim (§5.1, "as many forward passes as
//! columns", ~ms per query) is a latency property, so the repo tracks it as
//! a first-class benchmark artifact: the `bench_infer` binary runs the
//! DMV-style synthetic workload through MADE + progressive sampling twice —
//! once over the pre-optimization baseline path (naive kernels, allocating
//! per-column conditionals, no dead-path compaction) and once over the
//! optimized hot path — and writes both measurements plus the speedup to
//! `BENCH_infer.json`. Every future PR has a trajectory to beat.

use std::time::Instant;

use naru_query::LabeledQuery;
use naru_tensor::stats::percentile;

/// Latency summary of one measured estimator configuration.
#[derive(Debug, Clone)]
pub struct LatencyStats {
    /// Median per-query latency in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile per-query latency in milliseconds.
    pub p95_ms: f64,
    /// Worst per-query latency in milliseconds.
    pub max_ms: f64,
    /// Mean per-query latency in milliseconds.
    pub mean_ms: f64,
    /// Estimated queries per second (from the mean).
    pub queries_per_sec: f64,
    /// *Nominal* progressive-sampling throughput:
    /// `num_samples x columns_walked / time`. This counts each query's
    /// configured path budget per column walked regardless of how many
    /// paths a particular implementation actually advances (the optimized
    /// sampler compacts dead paths away), so both measured paths are
    /// normalized to the same work units and the ratio reflects the real
    /// end-to-end win, compaction included.
    pub samples_per_sec: f64,
}

impl LatencyStats {
    /// Summarizes per-query latencies (milliseconds). `paths_walked` is the
    /// total number of (sample path x column) steps the run advanced.
    pub fn from_latencies(latencies_ms: &[f64], paths_walked: u64) -> Self {
        assert!(!latencies_ms.is_empty(), "no latencies recorded");
        let total_ms: f64 = latencies_ms.iter().sum();
        let mean_ms = total_ms / latencies_ms.len() as f64;
        Self {
            p50_ms: percentile(latencies_ms, 50.0),
            p95_ms: percentile(latencies_ms, 95.0),
            max_ms: percentile(latencies_ms, 100.0),
            mean_ms,
            queries_per_sec: if total_ms > 0.0 { latencies_ms.len() as f64 * 1000.0 / total_ms } else { 0.0 },
            samples_per_sec: if total_ms > 0.0 { paths_walked as f64 * 1000.0 / total_ms } else { 0.0 },
        }
    }

    /// The stats as a JSON object (hand-rolled; the workspace is
    /// dependency-free).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"max_ms\": {:.4}, \"mean_ms\": {:.4}, ",
                "\"queries_per_sec\": {:.2}, \"samples_per_sec\": {:.0}}}"
            ),
            self.p50_ms, self.p95_ms, self.max_ms, self.mean_ms, self.queries_per_sec, self.samples_per_sec
        )
    }
}

/// Quantile summary of a latency sample (milliseconds) as a JSON object —
/// the per-phase building block of `BENCH_serve.json`, where the
/// samples-per-second normalization of [`LatencyStats`] does not apply
/// (queue waits are not progressive-sampling work).
pub fn latency_quantiles_json(latencies_ms: &[f64]) -> String {
    assert!(!latencies_ms.is_empty(), "no latencies recorded");
    let mean = latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64;
    format!(
        "{{\"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"max_ms\": {:.4}, \"mean_ms\": {:.4}}}",
        percentile(latencies_ms, 50.0),
        percentile(latencies_ms, 95.0),
        percentile(latencies_ms, 100.0),
        mean
    )
}

/// Times `estimate` over the workload, returning per-query latencies in
/// milliseconds plus the sum of estimates (kept as an optimization barrier
/// and as a sanity check that both measured paths agree).
pub fn time_workload(workload: &[LabeledQuery], mut estimate: impl FnMut(&LabeledQuery) -> f64) -> (Vec<f64>, f64) {
    let mut latencies = Vec::with_capacity(workload.len());
    let mut acc = 0.0;
    for lq in workload {
        let start = Instant::now();
        acc += std::hint::black_box(estimate(lq));
        latencies.push(start.elapsed().as_secs_f64() * 1000.0);
    }
    (latencies, acc)
}

/// Renders the full `BENCH_infer.json` document. `meta` entries are
/// `(key, already-serialized JSON value)` pairs describing the run
/// configuration.
pub fn render_report(baseline: &LatencyStats, optimized: &LatencyStats, meta: &[(&str, String)]) -> String {
    let speedup = if optimized.mean_ms > 0.0 { baseline.mean_ms / optimized.mean_ms } else { f64::INFINITY };
    let mut out = String::from("{\n");
    for (key, value) in meta {
        out.push_str(&format!("  \"{key}\": {value},\n"));
    }
    out.push_str(&format!("  \"baseline\": {},\n", baseline.to_json()));
    out.push_str(&format!("  \"optimized\": {},\n", optimized.to_json()));
    out.push_str(&format!("  \"speedup_queries_per_sec\": {:.2}\n", speedup));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_match_hand_computed_quantiles() {
        let lat: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let stats = LatencyStats::from_latencies(&lat, 1000);
        assert!((stats.p50_ms - 50.5).abs() < 1.0);
        assert!((stats.p95_ms - 95.0).abs() < 1.5);
        assert_eq!(stats.max_ms, 100.0);
        assert!((stats.mean_ms - 50.5).abs() < 1e-9);
        // 100 queries in 5050 ms.
        assert!((stats.queries_per_sec - 100.0 * 1000.0 / 5050.0).abs() < 1e-6);
        assert!((stats.samples_per_sec - 1000.0 * 1000.0 / 5050.0).abs() < 1e-6);
    }

    #[test]
    fn report_is_valid_enough_json() {
        let stats = LatencyStats::from_latencies(&[1.0, 2.0, 3.0], 30);
        let json = render_report(&stats, &stats, &[("rows", "5000".to_string()), ("label", "\"x\"".to_string())]);
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"baseline\": {\"p50_ms\""));
        assert!(json.contains("\"optimized\": "));
        assert!(json.contains("\"speedup_queries_per_sec\": 1.00"));
        assert!(json.contains("\"rows\": 5000"));
        // Balanced braces (cheap structural check, no JSON parser vendored).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn time_workload_reports_one_latency_per_query() {
        let (lat, acc) = time_workload(&[], |_| 1.0);
        assert!(lat.is_empty());
        assert_eq!(acc, 0.0);
    }
}
