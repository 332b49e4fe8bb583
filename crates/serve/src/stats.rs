//! Per-request scheduling statistics and whole-server counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How one request moved through the server, layered onto the
/// [`Estimate`](naru_query::Estimate) it produced.
///
/// `queue_wait` is the time between submission and the moment a worker
/// dequeued the request's batch; `execution` is the estimate's own
/// wall-clock time (a request later in a micro-batch additionally waits for
/// its predecessors inside the batch, which shows up in the end-to-end
/// latency a client measures but not in either field here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: Duration,
    /// Time the estimator spent producing the answer.
    pub execution: Duration,
    /// Id (0-based) of the worker that served the request.
    pub worker: usize,
    /// Size of the micro-batch the request was drained into.
    pub batch_size: usize,
}

/// Monotonic whole-server counters, updated lock-free by submitters and
/// workers. The `accepted` count lives in the queue itself (incremented
/// inside its critical section, atomically with the enqueue), so a worker
/// can never serve a request before it is counted as accepted.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    pub rejected: AtomicU64,
    pub served: AtomicU64,
    pub failed: AtomicU64,
    pub shed: AtomicU64,
    pub cancelled: AtomicU64,
    pub batches: AtomicU64,
    pub tier0_served: AtomicU64,
    pub tier1_served: AtomicU64,
    pub tier2_served: AtomicU64,
    pub degraded_served: AtomicU64,
    pub worker_respawns: AtomicU64,
}

impl Metrics {
    /// Snapshots the worker-side counters; the caller fills `accepted` from
    /// the queue and the `cache_*` fields from the cache **after** this
    /// read (service implies prior acceptance, so reading completions first
    /// keeps `completed() <= accepted` invariant under concurrent traffic).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            accepted: 0,
            rejected: self.rejected.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            fused_batches: 0,
            tier0_served: self.tier0_served.load(Ordering::Relaxed),
            tier1_served: self.tier1_served.load(Ordering::Relaxed),
            tier2_served: self.tier2_served.load(Ordering::Relaxed),
            relaxed_served: 0,
            degraded_served: self.degraded_served.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
        }
    }
}

/// A point-in-time copy of the server's counters.
///
/// The cache counters deserve a precise reading:
///
/// * `cache_hits` — submissions answered directly from the estimate cache.
///   Hits bypass admission control: they consume no queue slot and are
///   **not** part of `accepted` or `served`, so the steady-state invariant
///   is `hits + accepted == submissions` (modulo rejections).
/// * `cache_misses` — cache lookups that found nothing; the request then
///   went through the normal queue → worker path.
/// * `cache_evictions` — entries displaced by FIFO eviction to stay within
///   [`ServeConfig::cache_capacity`](crate::ServeConfig::cache_capacity).
///
/// All three stay `0` when the cache is disabled (the default). The
/// `tier*_served` + `degraded_served` counters split `served` by the
/// [`Provenance`](naru_query::Provenance) of each worker-produced answer:
/// `tier0_served + tier1_served + tier2_served + degraded_served ==
/// served`.
///
/// The request-lifecycle **accounting identity**: every request admitted
/// into the queue leaves it in exactly one of four ways, so after the
/// server drains (shutdown, or any quiescent moment)
///
/// ```text
/// served + failed + shed + cancelled == accepted
/// ```
///
/// ([`MetricsSnapshot::accounted`] computes the left-hand side). The chaos
/// suite drives the server through injected panics, worker deaths, stalls,
/// and poisoned estimates and asserts the identity holds exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests admitted into the queue (by either submit flavor).
    pub accepted: u64,
    /// Requests refused by admission control (`try_submit` on a full queue
    /// or a full priority class).
    pub rejected: u64,
    /// Requests answered with an [`Estimate`](naru_query::Estimate).
    pub served: u64,
    /// Requests answered with a typed estimation error.
    pub failed: u64,
    /// Accepted requests shed unexecuted because their deadline expired
    /// before a worker reached them (answered `DeadlineExceeded`).
    pub shed: u64,
    /// Accepted requests abandoned by their submitter (ticket cancelled or
    /// dropped) and skipped unexecuted.
    pub cancelled: u64,
    /// Micro-batches executed across all workers.
    pub batches: u64,
    /// Always `0`. The server answers every drained request with its own
    /// walk and has no fused batch path; the field stays so that code
    /// building or reading snapshots keeps compiling. Not part of
    /// [`MetricsSnapshot::to_json`].
    pub fused_batches: u64,
    /// Served answers proven exactly by table statistics (tier 0).
    pub tier0_served: u64,
    /// Served answers from histogram sketches within budget (tier 1).
    pub tier1_served: u64,
    /// Served answers from the model's progressive sampler (tier 2).
    pub tier2_served: u64,
    /// Always `0`. Every model walk runs in exact f32 precision; the field
    /// stays so that code building or reading snapshots keeps compiling.
    /// Not part of [`MetricsSnapshot::to_json`] or of the `served`
    /// partition.
    pub relaxed_served: u64,
    /// Served answers produced through a degraded rung (reduced-sample walk
    /// or forced sketch) under deadline or overload pressure.
    pub degraded_served: u64,
    /// Worker threads respawned by the supervisor after a crash.
    pub worker_respawns: u64,
    /// Submissions answered from the estimate cache (bypassing the queue).
    pub cache_hits: u64,
    /// Cache lookups that fell through to the worker path.
    pub cache_misses: u64,
    /// Cache entries displaced by FIFO eviction.
    pub cache_evictions: u64,
}

impl MetricsSnapshot {
    /// Requests that received *some* response (success or typed error).
    pub fn completed(&self) -> u64 {
        self.served + self.failed
    }

    /// Every way an accepted request can leave the queue:
    /// `served + failed + shed + cancelled`. Equals `accepted` once the
    /// server has drained (and never exceeds it).
    pub fn accounted(&self) -> u64 {
        self.served + self.failed + self.shed + self.cancelled
    }

    /// Fraction of cache lookups that hit, or `None` before any lookup.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let lookups = self.cache_hits + self.cache_misses;
        (lookups > 0).then(|| self.cache_hits as f64 / lookups as f64)
    }

    /// Renders the snapshot as a pretty-printed JSON object. The one
    /// canonical rendering, shared by the network front end's `/metrics`
    /// endpoint and `bench_serve`'s report, so the two never drift: every
    /// live counter field plus the derived `accounted` and `cache_hit_rate`
    /// (`null` before any cache lookup). The always-zero `fused_batches`
    /// and `relaxed_served` are left out.
    pub fn to_json(&self) -> String {
        self.to_json_indented(0)
    }

    /// [`MetricsSnapshot::to_json`] with every line indented by `level`
    /// two-space steps, so callers can embed the object inside a larger
    /// JSON document at the right depth. The first line (`{`) is *not*
    /// indented — it lands wherever the caller writes it.
    pub fn to_json_indented(&self, level: usize) -> String {
        let pad = "  ".repeat(level + 1);
        let mut out = String::from("{\n");
        let fields: [(&str, u64); 15] = [
            ("accepted", self.accepted),
            ("rejected", self.rejected),
            ("served", self.served),
            ("failed", self.failed),
            ("shed", self.shed),
            ("cancelled", self.cancelled),
            ("accounted", self.accounted()),
            ("batches", self.batches),
            ("tier0_served", self.tier0_served),
            ("tier1_served", self.tier1_served),
            ("tier2_served", self.tier2_served),
            ("degraded_served", self.degraded_served),
            ("worker_respawns", self.worker_respawns),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
        ];
        for (key, value) in fields {
            out.push_str(&format!("{pad}\"{key}\": {value},\n"));
        }
        out.push_str(&format!("{pad}\"cache_evictions\": {},\n", self.cache_evictions));
        match self.cache_hit_rate() {
            Some(rate) => out.push_str(&format!("{pad}\"cache_hit_rate\": {rate:.4}\n")),
            None => out.push_str(&format!("{pad}\"cache_hit_rate\": null\n")),
        }
        out.push_str(&"  ".repeat(level));
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters() {
        let m = Metrics::default();
        m.served.store(4, Ordering::Relaxed);
        m.failed.store(1, Ordering::Relaxed);
        m.batches.store(2, Ordering::Relaxed);
        m.shed.store(3, Ordering::Relaxed);
        m.cancelled.store(2, Ordering::Relaxed);
        let snap = m.snapshot();
        assert_eq!(snap.accepted, 0, "accepted is filled from the queue by the caller");
        assert_eq!(snap.rejected, 0);
        assert_eq!(snap.completed(), 5);
        assert_eq!(snap.accounted(), 10, "accounted = served + failed + shed + cancelled");
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.cache_hits, 0, "cache counters are filled from the cache by the caller");
        assert_eq!(snap.cache_hit_rate(), None);
    }

    #[test]
    fn cache_hit_rate_counts_both_outcomes() {
        let mut snap = Metrics::default().snapshot();
        snap.cache_hits = 3;
        snap.cache_misses = 1;
        assert_eq!(snap.cache_hit_rate(), Some(0.75));
    }

    #[test]
    fn to_json_renders_every_counter_and_derived_fields() {
        let m = Metrics::default();
        m.served.store(4, Ordering::Relaxed);
        m.shed.store(1, Ordering::Relaxed);
        let mut snap = m.snapshot();
        snap.accepted = 5;
        snap.cache_hits = 1;
        snap.cache_misses = 3;
        let json = snap.to_json();
        for field in [
            "\"accepted\": 5",
            "\"served\": 4",
            "\"shed\": 1",
            "\"accounted\": 5",
            "\"cancelled\": 0",
            "\"tier2_served\": 0",
            "\"worker_respawns\": 0",
            "\"cache_evictions\": 0",
            "\"cache_hit_rate\": 0.2500",
        ] {
            assert!(json.contains(field), "missing {field} in:\n{json}");
        }
        for retired in ["fused_batches", "relaxed_served"] {
            assert!(!json.contains(retired), "{retired} is always 0 and not rendered:\n{json}");
        }
        assert!(json.starts_with("{\n") && json.ends_with('}'));
        // No trailing comma before the closing brace.
        assert!(!json.contains(",\n}"));
    }

    #[test]
    fn to_json_indented_nests_cleanly() {
        let snap = Metrics::default().snapshot();
        let json = snap.to_json_indented(2);
        assert!(json.contains("\n      \"accepted\": 0"), "fields sit at level+1:\n{json}");
        assert!(json.ends_with("\n    }"), "closing brace sits at level:\n{json}");
        assert!(json.contains("\"cache_hit_rate\": null"));
    }
}
