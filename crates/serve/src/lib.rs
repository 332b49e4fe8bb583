//! # naru-serve
//!
//! The serving layer: turns the lock-free
//! [`Engine`](naru_core::Engine)/[`Session`](naru_core::Session) estimation
//! substrate into an actual request-scheduling service.
//!
//! A [`Server`] owns one shared `Engine` and a pool of worker threads, each
//! holding its own `Session`. Clients submit [`Query`](naru_query::Query)s
//! from any thread:
//!
//! * **admission control** — the request queue is bounded; [`Server::try_submit`]
//!   rejects with [`ServeError::Overloaded`] when it is full (shed load at
//!   the edge), while [`Server::submit`] blocks until space frees up
//!   (backpressure);
//! * **tiered execution** — each worker answers through a
//!   [`TieredSession`](naru_core::TieredSession): queries the engine's
//!   statistics sidecar can prove exactly are answered in microseconds
//!   (tier 0), histogram sketches take narrow queries within a q-error
//!   budget (tier 1), and only the residual runs the model's progressive
//!   sampler (tier 2). Every [`Estimate`](naru_query::Estimate) carries a
//!   [`Provenance`](naru_query::Provenance) tag and the per-tier
//!   [`MetricsSnapshot`] counters (`tier0_served` / `tier1_served` /
//!   `tier2_served`) partition `served` accordingly. Engines without
//!   statistics serve everything at tier 2, bit-identical to before;
//! * **estimate caching** — with
//!   [`ServeConfig::cache_capacity`] `> 0`, submissions first consult a
//!   bounded, sharded cache keyed by order-normalized
//!   [`QueryKey`](naru_query::QueryKey)s. A hit resolves the ticket at
//!   submit time with the cached [`Estimate`](naru_query::Estimate)
//!   re-tagged [`Provenance::CacheHit`](naru_query::Provenance) — no queue
//!   slot, no worker, and no `accepted` increment (hits bypass admission
//!   control). [`MetricsSnapshot::cache_hits`] / `cache_misses` /
//!   `cache_evictions` track the cache; determinism makes hits
//!   bit-identical to recomputation;
//! * **micro-batching** — a worker drains up to
//!   [`ServeConfig::max_batch`] queued requests per wakeup (16 by
//!   default), walks them one at a time and answers each as soon as its
//!   own walk ends. A model-tier walk resumes from the column prefix it
//!   shares with the worker's previous walk (prefix memoization), so
//!   repetitive traffic costs far less than its query count suggests;
//! * **rich responses** — every answered request carries the full
//!   [`Estimate`](naru_query::Estimate) plus [`ServeStats`] (queue wait,
//!   execution time, worker id, batch size), and failures are typed
//!   [`ServeError`]s — an overload, a shutdown, or a per-query
//!   [`EstimateError`](naru_query::EstimateError) — never a panic or a
//!   silent drop. Even a *panicking* density is contained: the worker
//!   catches it, answers the poisoning request with
//!   [`ServeError::Panicked`], and keeps serving everything else;
//! * **priorities and deadlines** — every submission may carry
//!   [`SubmitOptions`]: a [`Priority`] class ([`Priority::Interactive`] /
//!   [`Priority::Batch`] / [`Priority::BestEffort`]) with per-class
//!   admission caps and strict dequeue ordering, and an optional
//!   [`Deadline`]. A request whose deadline expires while it queues is
//!   *shed* at dequeue — answered [`ServeError::DeadlineExceeded`] without
//!   ever running the estimator;
//! * **cancellation** — a [`Ticket`] can be cancelled (or simply dropped);
//!   workers skip abandoned requests before doing any work, and
//!   [`Ticket::wait_timeout`] bounds how long a caller blocks;
//! * **graceful degradation** — with a [`DegradePolicy`] attached, a
//!   request whose remaining deadline budget (or the observed queue depth)
//!   makes the full model walk unaffordable is answered through a cheaper
//!   rung — a reduced-sample walk, or the statistics sketch outright — and
//!   tagged [`Provenance::Degraded`](naru_query::Provenance::Degraded)
//!   (counted in [`MetricsSnapshot::degraded_served`], never cached);
//! * **supervision and chaos testing** — a watchdog thread respawns
//!   workers that die to a panic ([`MetricsSnapshot::worker_respawns`]),
//!   and [`FaultInjection`] provides runtime knobs (injected panics,
//!   worker deaths, stalls, poisoned estimates, forced saturation) that the
//!   chaos test suite uses to prove the lifecycle invariants under fire;
//! * **graceful shutdown** — [`Server::shutdown`] (or dropping the server)
//!   stops admission, drains every accepted request to completion, and
//!   joins the workers: no accepted request is ever lost. After the drain
//!   the accounting identity holds exactly:
//!   `served + failed + shed + cancelled == accepted`
//!   ([`MetricsSnapshot::accounted`]).
//!
//! Full-quality estimates are deterministic: sessions re-seed per query, so
//! a served answer is bit-for-bit identical to a direct sequential
//! `Session` call with the same engine knobs, regardless of worker count,
//! scheduling order, or batch boundaries.
//!
//! ```
//! use naru_core::{Engine, IndependentDensity};
//! use naru_query::{Predicate, Query};
//! use naru_serve::{ServeConfig, Server};
//!
//! // Any trained artifact works; a closed-form density keeps the example fast.
//! let engine = Engine::new(IndependentDensity::uniform(&[8, 8]), 10_000).with_samples(64);
//! let server = Server::start(engine, ServeConfig::default().with_workers(2).with_max_batch(4)).unwrap();
//!
//! let ticket = server.try_submit(Query::new(vec![Predicate::le(0, 3)])).unwrap();
//! let served = ticket.wait().unwrap();
//! assert!(served.estimate.selectivity > 0.0);
//! println!("~{} rows, waited {:?} in queue on worker {}",
//!     served.estimate.cardinality(), served.stats.queue_wait, served.stats.worker);
//!
//! let metrics = server.shutdown();
//! assert_eq!(metrics.served, 1);
//! assert_eq!(metrics.accounted(), metrics.accepted);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod error;
pub mod fault;
pub mod policy;
pub mod queue;
pub mod request;
pub mod server;
pub mod stats;

pub use cache::EstimateCache;
pub use error::{ConfigError, ServeError};
pub use fault::FaultInjection;
pub use policy::{DegradePolicy, Route};
pub use queue::{BoundedQueue, Disposition, Scheduled, TryPushError};
pub use request::{Deadline, Priority, SubmitOptions};
pub use server::{ServeConfig, ServedEstimate, Server, Ticket};
pub use stats::{MetricsSnapshot, ServeStats};
