//! # naru
//!
//! A Rust reproduction of **Naru** — *Deep Unsupervised Cardinality
//! Estimation* (Yang et al., VLDB 2019): selectivity estimation with deep
//! autoregressive likelihood models and progressive sampling.
//!
//! This facade crate re-exports the workspace's sub-crates so downstream
//! users can depend on a single package:
//!
//! * [`tensor`] — dense matrix kernels,
//! * [`nn`] — the neural-network substrate (masked linear layers, MADE
//!   masks, embeddings, Adam),
//! * [`data`] — columnar tables, dictionary encoding, synthetic datasets,
//! * [`query`] — predicates, workload generation, q-error metrics, the
//!   [`query::SelectivityEstimator`] trait plus the [`query::Estimate`] /
//!   [`query::EstimateError`] result types,
//! * [`baselines`] — the estimators the paper compares against,
//! * [`core`] — Naru itself: autoregressive density models, training,
//!   progressive sampling, the serving-oriented [`core::Engine`] /
//!   [`core::Session`] API, and the tiered fast paths
//!   ([`core::TableStats`] + [`core::TieredSession`]: exact stats at
//!   tier 0, histogram/sketch answers at tier 1, the model at tier 2,
//!   each estimate tagged with its [`query::Provenance`]),
//! * [`serve`] — the worker-pool serving subsystem: a priority-aware
//!   bounded request queue with per-class admission control, per-worker
//!   tiered sessions, a sharded predicate-keyed [`serve::EstimateCache`],
//!   opportunistic micro-batching, shared-prefix memoized walks,
//!   deadlines and cancellation ([`serve::SubmitOptions`] /
//!   [`serve::Ticket`]), deadline-pressure degradation
//!   ([`serve::DegradePolicy`]), a supervising watchdog with fault
//!   injection ([`serve::FaultInjection`]), and graceful
//!   drain-on-shutdown,
//! * [`net`] — the network front end over `std::net`: a bounded
//!   HTTP/1.1 parser with typed [`net::ProtocolError`]s, the
//!   line-oriented query/estimate wire format (query side in
//!   [`query::wire`]), a [`net::NetServer`] accept loop + handler pool
//!   mapping `X-Naru-Priority` / `X-Naru-Timeout-Ms` headers onto the
//!   request lifecycle and [`serve::ServeError`]s onto distinct HTTP
//!   statuses, client-disconnect cancellation, and graceful drain.
//!
//! ## The Engine/Session estimation API
//!
//! Estimation is split into two halves:
//!
//! * an **[`Engine`](core::Engine)** owns the immutable trained artifact
//!   (behind an `Arc`, so it is `Clone + Send + Sync` and cheap to hand to
//!   every worker thread);
//! * a **[`Session`](core::Session)** owns all mutable scratch — sampler
//!   buffers, RNG seed, per-call sample-count knob — so steady-state
//!   estimation is allocation-free and never takes a lock.
//!
//! Estimates are **fallible and rich**: you get an
//! [`Estimate`](query::Estimate) (selectivity, estimated rows, live sample
//! paths, wall time) or a typed [`EstimateError`](query::EstimateError)
//! (out-of-range column, empty domain, untrained estimator) instead of a
//! bare `f64` that silently collapses failures to `0.0`.
//!
//! ```no_run
//! use naru::prelude::*;
//!
//! // 1. Get a table (here: a small synthetic one).
//! let table = naru::data::synthetic::dmv_like(10_000, 42);
//!
//! // 2. Train a Naru estimator on it (unsupervised: it only reads tuples).
//! let config = NaruConfig::builder().epochs(4).num_samples(1000).build();
//! let (estimator, _report) = NaruEstimator::train(&table, &config);
//!
//! // 3. Single-shot estimation through the shared trait:
//! let query = Query::new(vec![Predicate::eq(0, 1), Predicate::le(6, 500)]);
//! let estimate = estimator.try_estimate(&query).expect("valid query");
//! println!("selectivity {:.5} (~{} rows, {} live paths, {:?})",
//!     estimate.selectivity, estimate.cardinality(),
//!     estimate.live_paths.unwrap_or(0), estimate.wall_time);
//!
//! // 4. Serving: share one Engine, give each thread its own Session.
//! let engine = estimator.into_engine();
//! let queries = vec![query.clone(), Query::all()];
//! std::thread::scope(|scope| {
//!     for _ in 0..4 {
//!         let engine = engine.clone();
//!         let queries = queries.clone();
//!         scope.spawn(move || {
//!             let mut session = engine.session();
//!             let results = session.estimate_batch(&queries);
//!             assert!(results.iter().all(|r| r.is_ok()));
//!         });
//!     }
//! });
//! ```
//!
//! ## Serving under load
//!
//! For a long-running service, hand the engine to a
//! [`serve::Server`]: a bounded MPMC request queue with admission control
//! ([`serve::Server::try_submit`] rejects with
//! [`serve::ServeError::Overloaded`] when full, [`serve::Server::submit`]
//! applies backpressure), a pool of workers each owning one `Session`,
//! opportunistic micro-batching of queued requests, per-request
//! [`serve::ServeStats`] (queue wait, execution time, worker id), and a
//! graceful shutdown that drains every accepted request. Requests can
//! carry a [`serve::Priority`] class and a [`serve::Deadline`]; tickets
//! can be cancelled or waited on with a timeout; and a
//! [`serve::DegradePolicy`] trades estimate quality for latency when a
//! deadline or queue-depth pressure makes the full model walk
//! unaffordable (such answers are tagged
//! [`Provenance::Degraded`](query::Provenance::Degraded)):
//!
//! ```no_run
//! use naru::prelude::*;
//! use std::time::Duration;
//!
//! # let table = naru::data::synthetic::dmv_like(1_000, 42);
//! # let (estimator, _) = NaruEstimator::train(&table, &NaruConfig::small());
//! let engine = estimator.into_engine();
//! let config = ServeConfig::default().with_workers(4).with_max_batch(8);
//! let server = Server::start(engine, config).expect("valid serve config");
//! let options = SubmitOptions::interactive().deadline_within(Duration::from_millis(50));
//! let ticket = server.try_submit_with(Query::new(vec![Predicate::eq(0, 1)]), options)?;
//! let served = ticket.wait()?;
//! println!("{:.5} selectivity, {:?} in queue, worker {}",
//!     served.estimate.selectivity, served.stats.queue_wait, served.stats.worker);
//! let metrics = server.shutdown(); // drains in-flight work, joins workers
//! assert_eq!(metrics.accounted(), metrics.accepted);
//! # Ok::<(), naru::serve::ServeError>(())
//! ```
//!
//! ## Migrating from the 0.1 single-shot API
//!
//! The bare-`f64` entry points (deprecated in 0.2) are now **removed**;
//! the fallible API is the only way to estimate, so errors can never
//! silently collapse to `0.0`:
//!
//! | Removed call | Replacement |
//! |---|---|
//! | `est.estimate(&q)` → `f64` | `est.try_estimate(&q)?` → [`Estimate`](query::Estimate) |
//! | loop over `est.estimate(..)` | `est.try_estimate_batch(&queries)` |
//! | `est.estimate_with_samples(&q, s)` | `est.try_estimate_with_samples(&q, s)?`, or a `Session` + `estimate_with_samples` |
//! | `est.set_num_samples(s)` (rebuilt sampler) | same call — now a pure knob, or `session.set_num_samples(s)` |
//! | `NaruEstimator::from_model(model, s)` | `NaruEstimator::from_model(model, s, num_rows)` |
//! | share `&NaruEstimator` across threads (lock-serialized) | `est.into_engine()`, one `engine.session()` per thread, or a [`serve::Server`] |

#![forbid(unsafe_code)]

pub use naru_baselines as baselines;
pub use naru_core as core;
pub use naru_data as data;
pub use naru_net as net;
pub use naru_nn as nn;
pub use naru_query as query;
pub use naru_serve as serve;
pub use naru_tensor as tensor;

/// Commonly used types, importable with `use naru::prelude::*`.
pub mod prelude {
    pub use naru_core::{Engine, NaruConfig, NaruEstimator, Session, TableStats, TierConfig, TieredSession};
    pub use naru_data::{Column, Table, Value};
    pub use naru_net::{NetConfig, NetServer};
    pub use naru_query::{Estimate, EstimateError, Predicate, Provenance, Query, QueryKey, SelectivityEstimator};
    pub use naru_serve::{
        ConfigError, Deadline, DegradePolicy, EstimateCache, FaultInjection, MetricsSnapshot, Priority, ServeConfig,
        ServeError, ServeStats, ServedEstimate, Server, SubmitOptions, Ticket,
    };
}
