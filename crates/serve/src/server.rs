//! The worker-pool server: one shared [`Engine`], N supervised workers with
//! a tiered session each, fed by the priority-aware bounded request queue,
//! fronted by an optional predicate-keyed estimate cache.
//!
//! # Request lifecycle
//!
//! Every accepted request leaves the server in exactly one of four ways,
//! and each way moves exactly one counter — the accounting identity
//! `served + failed + shed + cancelled == accepted` (see
//! [`MetricsSnapshot::accounted`]):
//!
//! * **served** — a worker produced a validated [`Estimate`] (possibly
//!   through a degraded rung under deadline pressure);
//! * **failed** — the request executed but produced a typed error (or its
//!   worker died mid-batch: `WorkerLost`, contained panic: `Panicked`,
//!   nonsensical payload: `InvalidEstimate`);
//! * **shed** — its [`Deadline`] expired before execution; it is answered
//!   [`ServeError::DeadlineExceeded`] without ever running the estimator;
//! * **cancelled** — its [`Ticket`] was cancelled or dropped; the worker
//!   skips the work entirely.
//!
//! Workers are supervised: a watchdog thread joins every worker exit and
//! respawns workers that died to a panic while the server is still open,
//! so a crash degrades capacity only for the instant it takes to respawn.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use naru_core::{DegradedMode, Engine, TieredSession};
use naru_query::{Estimate, Provenance, Query, QueryKey};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cache::EstimateCache;
use crate::error::{ConfigError, ServeError};
use crate::fault::FaultInjection;
use crate::policy::{DegradePolicy, Route};
use crate::queue::{BoundedQueue, Disposition, Scheduled, TryPushError};
use crate::request::{Deadline, Priority, SubmitOptions, NUM_PRIORITIES};
use crate::stats::{Metrics, MetricsSnapshot, ServeStats};

/// Worker-pool sizing and scheduling knobs.
///
/// Validated — not clamped — by [`Server::start`]: a zero worker count,
/// zero queue capacity, out-of-range share, or inconsistent cache sharding
/// is a configuration *error* ([`ServeError::Config`]), not something the
/// server silently rewrites.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads, each owning one [`Session`](naru_core::Session).
    /// Must be at least 1.
    pub num_workers: usize,
    /// Bounded queue capacity; `try_submit` rejects beyond it. Must be at
    /// least 1.
    pub queue_capacity: usize,
    /// Most requests a worker drains from the queue at once (opportunistic
    /// micro-batching). The worker then walks them one at a time, in
    /// dequeue order, and answers each as soon as its own walk ends. Must
    /// be at least 1; 1 disables batching.
    pub max_batch: usize,
    /// Total entries in the predicate-keyed estimate cache consulted before
    /// enqueueing. `0` (the default) disables the cache entirely: every
    /// request goes through admission control and a worker.
    pub cache_capacity: usize,
    /// Independent locks the cache is split across (ignored when the cache
    /// is disabled). Must be at least 1 and at most `cache_capacity` when
    /// the cache is enabled.
    pub cache_shards: usize,
    /// Fraction of `queue_capacity` that [`Priority::Batch`] requests may
    /// occupy at once. Must be in `(0, 1]`; the interactive class always
    /// gets the full queue.
    pub batch_queue_share: f64,
    /// Fraction of `queue_capacity` that [`Priority::BestEffort`] requests
    /// may occupy at once. Must be in `(0, 1]`.
    pub best_effort_queue_share: f64,
    /// Graceful-degradation policy; `None` (the default) means requests are
    /// never degraded, only shed once their deadline expires.
    pub degrade: Option<DegradePolicy>,
    /// Chaos knobs for the fault-injection harness; all off by default.
    pub faults: FaultInjection,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8);
        Self {
            num_workers: workers,
            queue_capacity: 256,
            max_batch: 16,
            cache_capacity: 0,
            cache_shards: 8,
            batch_queue_share: 1.0,
            best_effort_queue_share: 0.5,
            degrade: None,
            faults: FaultInjection::default(),
        }
    }
}

impl ServeConfig {
    /// Sets the worker count.
    pub fn with_workers(mut self, num_workers: usize) -> Self {
        self.num_workers = num_workers;
        self
    }

    /// Sets the queue capacity.
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Sets the micro-batch limit.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the estimate-cache capacity (`0` disables the cache).
    pub fn with_cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cache_capacity = cache_capacity;
        self
    }

    /// Sets the estimate-cache shard count.
    pub fn with_cache_shards(mut self, cache_shards: usize) -> Self {
        self.cache_shards = cache_shards;
        self
    }

    /// Sets the per-class queue shares for batch and best-effort traffic.
    pub fn with_queue_shares(mut self, batch: f64, best_effort: f64) -> Self {
        self.batch_queue_share = batch;
        self.best_effort_queue_share = best_effort;
        self
    }

    /// Attaches a graceful-degradation policy.
    pub fn with_degrade(mut self, policy: DegradePolicy) -> Self {
        self.degrade = Some(policy);
        self
    }

    /// Attaches fault-injection knobs (chaos testing).
    pub fn with_faults(mut self, faults: FaultInjection) -> Self {
        self.faults = faults;
        self
    }

    /// Checks every knob, returning the first violation. [`Server::start`]
    /// calls this before spawning anything.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.max_batch == 0 {
            return Err(ConfigError::ZeroMaxBatch);
        }
        if self.cache_capacity > 0 {
            if self.cache_shards == 0 {
                return Err(ConfigError::ZeroCacheShards);
            }
            if self.cache_shards > self.cache_capacity {
                return Err(ConfigError::CacheShardsExceedCapacity {
                    shards: self.cache_shards,
                    capacity: self.cache_capacity,
                });
            }
        }
        for (name, value) in
            [("batch_queue_share", self.batch_queue_share), ("best_effort_queue_share", self.best_effort_queue_share)]
        {
            if !value.is_finite() || value <= 0.0 || value > 1.0 {
                return Err(ConfigError::InvalidShare { name, value });
            }
        }
        if let Some(policy) = &self.degrade {
            if policy.reduced_samples == 0 || policy.sketch_fallback_samples == 0 {
                return Err(ConfigError::ZeroDegradeSamples);
            }
        }
        self.faults.validate()
    }

    /// Per-priority-class admission caps derived from the shares, indexed
    /// by `Priority as usize`.
    fn class_caps(&self) -> [usize; NUM_PRIORITIES] {
        let cap = |share: f64| ((self.queue_capacity as f64 * share).ceil() as usize).clamp(1, self.queue_capacity);
        [self.queue_capacity, cap(self.batch_queue_share), cap(self.best_effort_queue_share)]
    }
}

/// A successful response: the [`Estimate`] plus how the request moved
/// through the server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedEstimate {
    /// The estimator's answer, identical to what a direct
    /// [`Session`](naru_core::Session) call with the same engine knobs
    /// would return (unless tagged
    /// [`Provenance::Degraded`](naru_query::Provenance::Degraded)).
    pub estimate: Estimate,
    /// Queue-wait / execution / placement diagnostics.
    pub stats: ServeStats,
}

type Response = Result<ServedEstimate, ServeError>;

/// One queued unit of work: the query plus its reply channel and lifecycle
/// metadata. `key` is the request's cache key, pre-computed at submit time
/// so the worker can store a successful answer without recompiling the
/// query (absent when the cache is off or the query failed to compile — the
/// worker surfaces the error).
struct Request {
    query: Query,
    key: Option<QueryKey>,
    submitted_at: Instant,
    priority: Priority,
    deadline: Option<Deadline>,
    /// Set by [`Ticket::cancel`] or the ticket's `Drop`; checked by the
    /// queue at dequeue and by workers right before executing.
    cancelled: Arc<AtomicBool>,
    reply: SyncSender<Response>,
}

impl Request {
    fn new(query: Query, key: Option<QueryKey>, options: SubmitOptions) -> (Self, Ticket) {
        // Buffer of 1: the worker's send never blocks, so an abandoned
        // ticket (receiver dropped) can never wedge a worker.
        let (reply, rx) = sync_channel(1);
        let cancelled = Arc::new(AtomicBool::new(false));
        (
            Self {
                query,
                key,
                submitted_at: Instant::now(),
                priority: options.priority,
                deadline: options.deadline,
                cancelled: Arc::clone(&cancelled),
                reply,
            },
            Ticket { inner: Some(TicketInner::Pending(rx)), cancelled: Some(cancelled) },
        )
    }
}

impl Scheduled for Request {
    fn priority(&self) -> Priority {
        self.priority
    }

    fn disposition(&self) -> Disposition {
        if self.cancelled.load(Ordering::Relaxed) {
            Disposition::Abandoned
        } else if self.deadline.is_some_and(|deadline| deadline.is_expired()) {
            Disposition::Expired
        } else {
            Disposition::Live
        }
    }
}

#[derive(Debug)]
enum TicketInner {
    /// Answered at submit time by the estimate cache.
    Ready(Box<Response>),
    /// In flight: a worker will reply on the channel.
    Pending(Receiver<Response>),
}

/// A handle to one in-flight request.
///
/// [`Ticket::wait`] blocks until the owning worker responds — unboundedly,
/// unless the request carried a [`Deadline`] (the server then resolves it
/// by that deadline, one way or another) or the caller uses
/// [`Ticket::wait_timeout`]. Cache hits are answered at submit time, so
/// their tickets resolve without blocking.
///
/// Dropping a ticket without consuming it **abandons** the request: the
/// server marks it cancelled, and a worker that has not started it yet
/// skips it entirely (counted under `cancelled`, not `served`).
/// [`Ticket::cancel`] does the same explicitly. Abandonment can never
/// deadlock a worker: the reply channel is buffered, so a worker's send to
/// a vanished client simply drops the response.
#[derive(Debug)]
pub struct Ticket {
    inner: Option<TicketInner>,
    /// Shared with the queued [`Request`]; `None` for cache-hit tickets.
    cancelled: Option<Arc<AtomicBool>>,
}

impl Ticket {
    fn ready(response: Response) -> Self {
        Self { inner: Some(TicketInner::Ready(Box::new(response))), cancelled: None }
    }

    /// Blocks until the request completes. A request whose worker dies
    /// without responding resolves to [`ServeError::WorkerLost`].
    pub fn wait(mut self) -> Response {
        // lint: allow(panic) - inner is Some from construction to the single consuming take(); wait(self) moves the ticket
        match self.inner.take().expect("ticket already consumed") {
            TicketInner::Ready(response) => *response,
            TicketInner::Pending(rx) => rx.recv().unwrap_or(Err(ServeError::WorkerLost)),
        }
    }

    /// Waits at most `timeout` for the response. On timeout the ticket is
    /// handed back unconsumed — wait again, keep it, or drop/[`cancel`]
    /// (the request is then abandoned) as appropriate.
    ///
    /// [`cancel`]: Ticket::cancel
    pub fn wait_timeout(mut self, timeout: Duration) -> Result<Response, Ticket> {
        // lint: allow(panic) - inner is Some from construction to consumption; timeout hands the ticket back with inner restored
        match self.inner.take().expect("ticket already consumed") {
            TicketInner::Ready(response) => Ok(*response),
            TicketInner::Pending(rx) => match rx.recv_timeout(timeout) {
                Ok(response) => Ok(response),
                Err(RecvTimeoutError::Timeout) => {
                    self.inner = Some(TicketInner::Pending(rx));
                    Err(self)
                }
                Err(RecvTimeoutError::Disconnected) => Ok(Err(ServeError::WorkerLost)),
            },
        }
    }

    /// Explicitly abandons the request: a worker that has not started it
    /// yet will skip it (counted under `cancelled`). A request already
    /// executing runs to completion; its response is discarded.
    pub fn cancel(mut self) {
        if let Some(flag) = self.cancelled.take() {
            flag.store(true, Ordering::Relaxed);
        }
        self.inner.take();
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        // An unconsumed ticket abandons its request, exactly like cancel().
        if self.inner.is_some() {
            if let Some(flag) = &self.cancelled {
                flag.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// Everything a worker (or the watchdog's final drain) needs, shared once.
struct WorkerShared {
    queue: BoundedQueue<Request>,
    metrics: Metrics,
    cache: Option<EstimateCache>,
    max_batch: usize,
    degrade: Option<DegradePolicy>,
    faults: FaultInjection,
}

/// Sent by every worker thread as its last act, panic or not.
struct WorkerExit {
    id: usize,
    panicked: bool,
}

/// A running worker pool over one shared [`Engine`].
///
/// `Server` is `Sync`: submit from any number of client threads. Requests
/// flow through a bounded priority queue into per-worker
/// [`Session`](naru_core::Session)s, so every full-quality estimate is
/// bit-for-bit identical to a direct sequential `Session` call (sessions
/// re-seed per query, and a walk resumed from the session's previous walk
/// matches a fresh one), regardless of which worker runs it or how
/// requests were batched.
pub struct Server {
    shared: Arc<WorkerShared>,
    num_columns: usize,
    num_workers: usize,
    watchdog: Option<JoinHandle<()>>,
}

impl Server {
    /// Validates `config` and spawns the worker pool plus its watchdog.
    /// Each worker opens its own tiered session from `engine` (inheriting
    /// the engine's sample-count / seed defaults and its statistics
    /// sidecar, if any) and parks on the queue until work or shutdown
    /// arrives. Returns [`ServeError::Config`] — spawning nothing — if any
    /// knob is invalid.
    // lint: allow_fn(index) - batch slot indices come from enumerate over the same dequeued batch
    pub fn start(engine: Engine, config: ServeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let num_workers = config.num_workers;
        let cache = (config.cache_capacity > 0).then(|| EstimateCache::new(config.cache_capacity, config.cache_shards));
        let num_columns = engine.num_columns();
        let shared = Arc::new(WorkerShared {
            queue: BoundedQueue::with_class_caps(config.queue_capacity, config.class_caps()),
            metrics: Metrics::default(),
            cache,
            max_batch: config.max_batch,
            degrade: config.degrade.clone(),
            faults: config.faults.clone(),
        });

        let (exit_tx, exit_rx) = mpsc::channel::<WorkerExit>();
        let mut workers: HashMap<usize, JoinHandle<()>> =
            (0..num_workers).map(|id| (id, spawn_worker(&engine, &shared, &exit_tx, id, 0))).collect();

        // The watchdog supervises the pool: it joins every worker exit and
        // respawns panic deaths while the server is open, so one crash
        // costs one respawn, not a permanently smaller pool. Once the last
        // worker is gone it runs a final safety drain so no accepted
        // request is ever left unanswered or unaccounted.
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("naru-serve-watchdog".to_owned())
                .spawn(move || {
                    let mut generations = vec![0u64; num_workers];
                    while !workers.is_empty() {
                        let Ok(exit) = exit_rx.recv() else { break };
                        if let Some(handle) = workers.remove(&exit.id) {
                            let _ = handle.join();
                        }
                        if exit.panicked && !shared.queue.is_closed() {
                            shared.metrics.worker_respawns.fetch_add(1, Ordering::Relaxed);
                            generations[exit.id] += 1;
                            workers.insert(
                                exit.id,
                                spawn_worker(&engine, &shared, &exit_tx, exit.id, generations[exit.id]),
                            );
                        }
                    }
                    drain_orphans(&shared);
                })
                // lint: allow(panic) - spawn fails only on OS thread exhaustion during construction; the server cannot run without its watchdog
                .expect("failed to spawn serve watchdog")
        };

        Ok(Self { shared, num_columns, num_workers, watchdog: Some(watchdog) })
    }

    /// Consults the cache before enqueueing. `Err(ticket)` is a hit: the
    /// ticket is already resolved, no queue slot is consumed. `Ok(key)`
    /// means "enqueue, and store the answer under this key if present".
    ///
    /// Cache hits deliberately bypass admission control: they consume no
    /// queue capacity and do not count as `accepted` — only `cache_hits`
    /// moves. Un-compilable queries miss the cache (`key = None`) and flow
    /// to a worker so the error surfaces through the normal typed path.
    fn check_cache(&self, query: &Query) -> Result<Option<QueryKey>, Ticket> {
        let Some(cache) = &self.shared.cache else {
            return Ok(None);
        };
        let Ok(key) = QueryKey::new(query, self.num_columns) else {
            return Ok(None);
        };
        match cache.get(&key) {
            Some(estimate) => {
                let stats = ServeStats {
                    queue_wait: Duration::ZERO,
                    execution: Duration::ZERO,
                    worker: usize::MAX,
                    batch_size: 0,
                };
                Err(Ticket::ready(Ok(ServedEstimate { estimate, stats })))
            }
            None => Ok(Some(key)),
        }
    }

    /// Admission-controlled submit: rejects with [`ServeError::Overloaded`]
    /// when the queue (or the request's priority class) is full instead of
    /// blocking the caller. Cache hits resolve immediately and are never
    /// rejected.
    pub fn try_submit(&self, query: Query) -> Result<Ticket, ServeError> {
        self.try_submit_with(query, SubmitOptions::default())
    }

    /// [`Server::try_submit`] with explicit priority/deadline options.
    pub fn try_submit_with(&self, query: Query, options: SubmitOptions) -> Result<Ticket, ServeError> {
        let key = match self.check_cache(&query) {
            Ok(key) => key,
            Err(ticket) => return Ok(ticket),
        };
        // Forced-saturation fault: admission control behaves as if the
        // queue were permanently full (blocking submits are unaffected).
        if self.shared.faults.force_saturation {
            self.shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded { capacity: self.shared.queue.capacity() });
        }
        let (request, ticket) = Request::new(query, key, options);
        // Acceptance is counted by the queue itself, inside its critical
        // section, so a request can never be dequeued (let alone served)
        // before it is counted.
        match self.shared.queue.try_push(request) {
            Ok(()) => Ok(ticket),
            Err(TryPushError::Full(_)) => {
                self.shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Overloaded { capacity: self.shared.queue.capacity() })
            }
            Err(TryPushError::Closed(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Blocking submit: waits for queue space. Fails only once shutdown has
    /// begun. Cache hits resolve immediately without waiting.
    pub fn submit(&self, query: Query) -> Result<Ticket, ServeError> {
        self.submit_with(query, SubmitOptions::default())
    }

    /// [`Server::submit`] with explicit priority/deadline options.
    pub fn submit_with(&self, query: Query, options: SubmitOptions) -> Result<Ticket, ServeError> {
        let key = match self.check_cache(&query) {
            Ok(key) => key,
            Err(ticket) => return Ok(ticket),
        };
        let (request, ticket) = Request::new(query, key, options);
        match self.shared.queue.push(request) {
            Ok(()) => Ok(ticket),
            Err(_) => Err(ServeError::ShuttingDown),
        }
    }

    /// Convenience round trip: blocking submit, then wait.
    pub fn estimate(&self, query: &Query) -> Result<ServedEstimate, ServeError> {
        self.submit(query.clone())?.wait()
    }

    /// Convenience round trip with explicit options.
    pub fn estimate_with(&self, query: &Query, options: SubmitOptions) -> Result<ServedEstimate, ServeError> {
        self.submit_with(query.clone(), options)?.wait()
    }

    /// Number of worker threads the pool was started with (the watchdog
    /// keeps the pool at this size while the server is open).
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Capacity of the admission queue.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// Current queue depth (racy by nature; for monitoring).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// A point-in-time copy of the server counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        // Completions first, acceptance second: service implies prior
        // acceptance, so this read order guarantees
        // `accounted() <= accepted` even against in-flight submitters.
        let mut snapshot = self.shared.metrics.snapshot();
        snapshot.accepted = self.shared.queue.total_pushed();
        if let Some(cache) = &self.shared.cache {
            snapshot.cache_hits = cache.hits();
            snapshot.cache_misses = cache.misses();
            snapshot.cache_evictions = cache.evictions();
        }
        snapshot
    }

    /// Entries currently in the estimate cache (`0` when disabled).
    pub fn cache_len(&self) -> usize {
        self.shared.cache.as_ref().map_or(0, |c| c.len())
    }

    /// Begins shutdown without waiting: new submissions fail with
    /// [`ServeError::ShuttingDown`], while accepted requests keep draining.
    /// Call [`Server::shutdown`] (or drop the server) to also join the
    /// workers.
    pub fn close(&self) {
        self.shared.queue.close();
    }

    /// Graceful shutdown: stops admission, waits for the workers to drain
    /// every accepted request, joins them (via the watchdog), and returns
    /// the final counters — for which the accounting identity
    /// `accounted() == accepted` holds exactly.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.close();
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
        self.metrics()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Same drain-then-join as `shutdown`, for servers dropped without
        // an explicit shutdown call (including on client panic unwind).
        self.close();
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
    }
}

fn spawn_worker(
    engine: &Engine,
    shared: &Arc<WorkerShared>,
    exit_tx: &mpsc::Sender<WorkerExit>,
    id: usize,
    generation: u64,
) -> JoinHandle<()> {
    let session = engine.tiered_session();
    let shared = Arc::clone(shared);
    let exit_tx = exit_tx.clone();
    std::thread::Builder::new()
        .name(format!("naru-serve-{id}"))
        .spawn(move || {
            let panicked = catch_unwind(AssertUnwindSafe(|| worker_loop(id, generation, session, &shared))).is_err();
            let _ = exit_tx.send(WorkerExit { id, panicked });
        })
        // lint: allow(panic) - spawn fails only on OS thread exhaustion; respawn without a worker would silently shrink the pool
        .expect("failed to spawn serve worker")
}

/// Accounts a request the queue shed at dequeue time. Expired requests are
/// answered `DeadlineExceeded` (their client may be in `wait`); abandoned
/// requests have no listener, so only the counter moves.
fn account_dropped(request: Request, disposition: Disposition, metrics: &Metrics) {
    match disposition {
        Disposition::Expired => {
            metrics.shed.fetch_add(1, Ordering::Relaxed);
            let _ = request.reply.send(Err(ServeError::DeadlineExceeded));
        }
        Disposition::Abandoned | Disposition::Live => {
            metrics.cancelled.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Final safety net, run by the watchdog after the last worker is gone:
/// fail (or shed) whatever is still queued so every accepted request is
/// answered and accounted even if the whole pool died.
fn drain_orphans(shared: &WorkerShared) {
    shared.queue.close();
    let mut orphans: Vec<Request> = Vec::new();
    let mut dropped: Vec<(Request, Disposition)> = Vec::new();
    while shared.queue.pop_batch(usize::MAX, &mut orphans, &mut dropped) {
        for (request, disposition) in dropped.drain(..) {
            account_dropped(request, disposition, &shared.metrics);
        }
        for request in orphans.drain(..) {
            shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
            let _ = request.reply.send(Err(ServeError::WorkerLost));
        }
    }
}

/// Owns every in-flight request of one drained batch. If the worker dies
/// mid-batch (injected death, or a bug in the loop plumbing), the guard's
/// drop runs during unwind and fails every still-unanswered request with
/// `WorkerLost` — so even a crashing worker never strands a ticket or
/// breaks the accounting identity.
struct BatchGuard<'a> {
    slots: Vec<Option<Request>>,
    metrics: &'a Metrics,
}

impl BatchGuard<'_> {
    // lint: allow_fn(index) - batch slot indices come from enumerate over the same dequeued batch
    fn take(&mut self, index: usize) -> Option<Request> {
        self.slots[index].take()
    }
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        for request in self.slots.drain(..).flatten() {
            self.metrics.failed.fetch_add(1, Ordering::Relaxed);
            let _ = request.reply.send(Err(ServeError::WorkerLost));
        }
    }
}

/// Validates, counts, caches, and delivers one request's outcome.
fn deliver(
    request: Request,
    result: Result<Estimate, ServeError>,
    rng: &mut Option<StdRng>,
    shared: &WorkerShared,
    worker: usize,
    batch_size: usize,
    dequeued_at: Instant,
) {
    let metrics = &shared.metrics;
    let response = match result {
        Ok(mut estimate) => {
            // Poison injection: corrupt the payload so the validation
            // below has something real to catch.
            if let Some(rng) = rng.as_mut() {
                if shared.faults.poison_probability > 0.0 && rng.gen_bool(shared.faults.poison_probability) {
                    estimate.selectivity = f64::NAN;
                }
            }
            // Serve-side validation: a selectivity outside [0, 1] (or NaN)
            // is never served and never cached, whatever produced it.
            if !estimate.selectivity.is_finite() || !(0.0..=1.0).contains(&estimate.selectivity) {
                metrics.failed.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::InvalidEstimate)
            } else {
                metrics.served.fetch_add(1, Ordering::Relaxed);
                let tier_counter = match estimate.provenance {
                    Provenance::Tier0Exact => &metrics.tier0_served,
                    Provenance::Tier1Sketch => &metrics.tier1_served,
                    Provenance::Tier2Model | Provenance::CacheHit => &metrics.tier2_served,
                    Provenance::Degraded => &metrics.degraded_served,
                };
                tier_counter.fetch_add(1, Ordering::Relaxed);
                // Degraded answers are deliberately not cached: they would
                // otherwise keep answering full-quality requests long after
                // the pressure that justified them has passed.
                if estimate.provenance != Provenance::Degraded {
                    if let (Some(cache), Some(key)) = (shared.cache.as_ref(), request.key) {
                        cache.insert(key, estimate.clone());
                    }
                }
                let stats = ServeStats {
                    queue_wait: dequeued_at.saturating_duration_since(request.submitted_at),
                    execution: estimate.wall_time,
                    worker,
                    batch_size,
                };
                Ok(ServedEstimate { estimate, stats })
            }
        }
        Err(err) => {
            metrics.failed.fetch_add(1, Ordering::Relaxed);
            Err(err)
        }
    };
    // The client may have dropped its ticket; that is not an error.
    let _ = request.reply.send(response);
}

/// One worker: park on the queue, drain up to `max_batch` live requests
/// (the queue sheds expired/abandoned ones at this boundary), choose each
/// request's degradation rung, then walk the requests one at a time with a
/// disposition re-check right before each walk, answering each as soon as
/// its own walk ends — until the queue closes and empties. Successful
/// full-quality answers whose request carries a cache key are stored for
/// future submitters.
// lint: allow_fn(index) - batch slot indices come from enumerate over the same dequeued batch
fn worker_loop(worker: usize, generation: u64, mut session: TieredSession, shared: &WorkerShared) {
    let metrics = &shared.metrics;
    // Fault RNG: deterministic per worker *incarnation*, absent (zero
    // overhead) when no probabilistic fault is enabled.
    let mut rng = (!shared.faults.is_noop())
        .then(|| StdRng::seed_from_u64(shared.faults.seed ^ ((worker as u64 + 1) << 32) ^ generation));
    let mut batch: Vec<Request> = Vec::with_capacity(shared.max_batch);
    let mut dropped: Vec<(Request, Disposition)> = Vec::new();
    while shared.queue.pop_batch(shared.max_batch, &mut batch, &mut dropped) {
        let dequeued_at = Instant::now();
        for (request, disposition) in dropped.drain(..) {
            account_dropped(request, disposition, metrics);
        }
        if batch.is_empty() {
            continue;
        }
        // Injected stall: the worker sits on its drained batch, letting
        // deadlines run down and the queue back up.
        if let Some(rng) = rng.as_mut() {
            if shared.faults.stall_probability > 0.0 && rng.gen_bool(shared.faults.stall_probability) {
                #[allow(clippy::disallowed_methods)] // deliberate fault-injection stall
                std::thread::sleep(shared.faults.stall);
            }
        }
        // Depth observed *after* draining: what the next batch is up
        // against, the signal DegradePolicy's watermarks are written for.
        let depth = shared.queue.len();
        let batch_size = batch.len();
        metrics.batches.fetch_add(1, Ordering::Relaxed);

        let routes: Vec<Route> = batch
            .iter()
            .map(|request| match &shared.degrade {
                Some(policy) => policy.route(request.deadline.map(|d| d.remaining()), depth),
                None => Route::Full,
            })
            .collect();
        // From here on the guard owns the requests: a worker death
        // (injected or real) fails everything unanswered instead of
        // stranding it.
        let mut guard = BatchGuard { slots: batch.drain(..).map(Some).collect(), metrics };
        if let Some(rng) = rng.as_mut() {
            if shared.faults.death_probability > 0.0 && rng.gen_bool(shared.faults.death_probability) {
                // lint: allow(panic) - deliberate fault injection driving the watchdog/respawn chaos tests
                panic!("injected worker death");
            }
        }

        for (i, &route) in routes.iter().enumerate() {
            let Some(request) = guard.slots[i].as_ref() else { continue };
            // Re-check disposition immediately before the walk: a deadline
            // that expired while earlier batch-mates executed sheds here,
            // never reaching the estimator.
            if request.cancelled.load(Ordering::Relaxed) {
                let _ = guard.take(i);
                metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if request.deadline.is_some_and(|deadline| deadline.is_expired()) {
                // lint: allow(panic) - slot occupancy was checked by the enclosing loop; take() on a live slot cannot fail
                let request = guard.take(i).expect("slot checked above");
                metrics.shed.fetch_add(1, Ordering::Relaxed);
                let _ = request.reply.send(Err(ServeError::DeadlineExceeded));
                continue;
            }
            let inject_panic = rng.as_mut().is_some_and(|rng| {
                shared.faults.panic_probability > 0.0 && rng.gen_bool(shared.faults.panic_probability)
            });
            // Contain estimator panics: a panicking density must not kill
            // the worker. The walk reinitializes the session scratch per
            // estimate and its prefix memo only ever holds completed
            // columns, so reuse after a panic is safe.
            let query = &request.query;
            let result = catch_unwind(AssertUnwindSafe(|| {
                if inject_panic {
                    // lint: allow(panic) - deliberate fault injection; caught by the catch_unwind directly above
                    panic!("injected estimator panic");
                }
                match (route, &shared.degrade) {
                    (Route::Reduced, Some(policy)) => {
                        session.estimate_degraded(query, DegradedMode::ReducedSamples(policy.reduced_samples))
                    }
                    (Route::Sketch, Some(policy)) => session.estimate_degraded(
                        query,
                        DegradedMode::SketchOnly { fallback_samples: policy.sketch_fallback_samples },
                    ),
                    _ => session.estimate(query),
                }
            }));
            let result = match result {
                Ok(Ok(estimate)) => Ok(estimate),
                Ok(Err(err)) => Err(ServeError::Estimate(err)),
                Err(_) => Err(ServeError::Panicked),
            };
            // lint: allow(panic) - the cancelled/expired branches above take the slot and `continue`; reaching here means it is still live
            let request = guard.take(i).expect("slot checked above");
            deliver(request, result, &mut rng, shared, worker, batch_size, dequeued_at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naru_core::{ConditionalDensity, IndependentDensity};
    use naru_query::{EstimateError, Predicate};
    use naru_tensor::Matrix;
    use std::sync::{Condvar, Mutex};

    fn tiny_engine() -> Engine {
        Engine::new(IndependentDensity::uniform(&[8, 4]), 1_000).with_samples(64)
    }

    /// An engine whose walks take milliseconds, so a test can submit work,
    /// act while the single worker is still busy, and not race it.
    fn slow_engine() -> Engine {
        Engine::new(IndependentDensity::uniform(&[8, 4]), 1_000).with_samples(400_000)
    }

    fn start(config: ServeConfig) -> Server {
        Server::start(tiny_engine(), config).expect("valid test config")
    }

    #[test]
    fn round_trip_matches_direct_session() {
        let engine = tiny_engine();
        let q = Query::new(vec![Predicate::le(0, 3), Predicate::ge(1, 1)]);
        let direct = engine.session().estimate(&q).unwrap();

        let server = Server::start(engine, ServeConfig::default().with_workers(2)).unwrap();
        let served = server.estimate(&q).unwrap();
        assert_eq!(served.estimate.selectivity, direct.selectivity);
        assert_eq!(served.estimate.live_paths, direct.live_paths);
        assert!(served.stats.worker < 2);
        assert!(served.stats.batch_size >= 1);

        let metrics = server.shutdown();
        assert_eq!(metrics.accepted, 1);
        assert_eq!(metrics.served, 1);
        assert_eq!(metrics.rejected, 0);
        assert_eq!(metrics.failed, 0);
        assert_eq!(metrics.accounted(), metrics.accepted);
    }

    #[test]
    fn estimator_rejections_come_back_typed() {
        let server = start(ServeConfig::default().with_workers(1));
        let bad = Query::new(vec![Predicate::eq(9, 0)]);
        let err = server.estimate(&bad).unwrap_err();
        assert_eq!(err, ServeError::Estimate(EstimateError::ColumnOutOfRange { column: 9, num_columns: 2 }));
        // The worker survives a rejected query and keeps serving.
        assert!(server.estimate(&Query::all()).is_ok());
        let metrics = server.shutdown();
        assert_eq!(metrics.failed, 1);
        assert_eq!(metrics.served, 1);
    }

    #[test]
    fn submissions_fail_after_close_but_accepted_work_drains() {
        let server = start(ServeConfig::default().with_workers(1).with_max_batch(4));
        let tickets: Vec<Ticket> = (0..6).map(|_| server.submit(Query::all()).unwrap()).collect();
        server.close();
        assert_eq!(server.try_submit(Query::all()).unwrap_err(), ServeError::ShuttingDown);
        assert_eq!(server.submit(Query::all()).unwrap_err(), ServeError::ShuttingDown);
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        let metrics = server.shutdown();
        assert_eq!(metrics.accepted, 6);
        assert_eq!(metrics.completed(), 6);
        assert_eq!(metrics.accounted(), 6);
    }

    #[test]
    fn cache_hit_round_trip_matches_the_fresh_miss() {
        let server = start(ServeConfig::default().with_workers(2).with_cache_capacity(32));
        let q = Query::new(vec![Predicate::le(0, 3), Predicate::ge(1, 1)]);

        let fresh = server.estimate(&q).unwrap();
        // Same predicates, different order: the normalized key still hits.
        let reordered = Query::new(vec![Predicate::ge(1, 1), Predicate::le(0, 3)]);
        let hit = server.estimate(&reordered).unwrap();

        assert_eq!(hit.estimate.provenance, naru_query::Provenance::CacheHit);
        assert_eq!(hit.estimate.selectivity, fresh.estimate.selectivity);
        assert_eq!(hit.estimate.estimated_rows, fresh.estimate.estimated_rows);
        assert_eq!(hit.estimate.live_paths, fresh.estimate.live_paths);
        assert_eq!(hit.stats.worker, usize::MAX);
        assert_eq!(hit.stats.batch_size, 0);

        let metrics = server.shutdown();
        assert_eq!(metrics.cache_hits, 1);
        assert_eq!(metrics.cache_misses, 1);
        assert_eq!(metrics.cache_hit_rate(), Some(0.5));
        // The hit bypassed admission control entirely.
        assert_eq!(metrics.accepted, 1);
        assert_eq!(metrics.served, 1);
    }

    #[test]
    fn tier_counters_partition_served() {
        let server = start(ServeConfig::default().with_workers(1));
        for _ in 0..3 {
            server.estimate(&Query::new(vec![Predicate::le(0, 3)])).unwrap();
        }
        let metrics = server.shutdown();
        assert_eq!(metrics.served, 3);
        assert_eq!(metrics.tier0_served + metrics.tier1_served + metrics.tier2_served + metrics.degraded_served, 3);
        // A stats-less engine without pressure serves through the model
        // tier.
        assert_eq!(metrics.tier2_served, 3);
        assert_eq!(metrics.cache_hits, 0);
        assert_eq!((metrics.fused_batches, metrics.relaxed_served), (0, 0), "retired counters stay at zero");
    }

    /// Per-column gates: a walk parks on column `c` until gate `c` opens.
    #[derive(Default)]
    struct ColumnGates {
        state: Mutex<([bool; 3], [usize; 3])>,
        cv: Condvar,
    }

    impl ColumnGates {
        fn open(&self, col: usize) {
            self.state.lock().unwrap().0[col] = true;
            self.cv.notify_all();
        }

        fn wait_entered(&self, col: usize) {
            let mut state = self.state.lock().unwrap();
            while state.1[col] == 0 {
                state = self.cv.wait(state).unwrap();
            }
        }
    }

    /// A uniform three-column density whose column-1 and column-2
    /// conditionals park on their gates; column 0 never blocks.
    struct GatedDensity {
        inner: IndependentDensity,
        gates: Arc<ColumnGates>,
    }

    impl ConditionalDensity for GatedDensity {
        fn num_columns(&self) -> usize {
            self.inner.num_columns()
        }

        fn domain_sizes(&self) -> &[usize] {
            self.inner.domain_sizes()
        }

        fn conditionals(&self, tuples: &[Vec<u32>], col: usize) -> Matrix {
            if col > 0 {
                let mut state = self.gates.state.lock().unwrap();
                state.1[col] += 1;
                self.gates.cv.notify_all();
                while !state.0[col] {
                    state = self.gates.cv.wait(state).unwrap();
                }
            }
            self.inner.conditionals(tuples, col)
        }
    }

    #[test]
    fn each_drained_request_is_answered_when_its_own_walk_ends() {
        let gates = Arc::new(ColumnGates::default());
        let density = GatedDensity { inner: IndependentDensity::uniform(&[4, 4, 4]), gates: Arc::clone(&gates) };
        let engine = Engine::new(density, 1_000).with_samples(16);
        let server = Server::start(engine, ServeConfig::default().with_workers(1).with_max_batch(4)).unwrap();

        // Park the worker on column 1 of a head request, so the next two
        // requests queue up behind it and are drained together.
        let head = server.submit(Query::new(vec![Predicate::ge(1, 1)])).unwrap();
        gates.wait_entered(1);
        let quick = server.submit(Query::new(vec![Predicate::le(0, 1)])).unwrap();
        let blocked = server.submit(Query::new(vec![Predicate::eq(2, 0)])).unwrap();
        gates.open(1);
        assert_eq!(head.wait().unwrap().estimate.selectivity, 0.75);

        // `quick` walks column 0 only; its batch-mate parks on column 2.
        // The quick answer must arrive while that second walk is held.
        // Open the gate before asserting, so a failure cannot leave the
        // worker parked and the server's drop hanging.
        let early = quick.wait_timeout(Duration::from_secs(10));
        gates.open(2);
        let quick = early.expect("a finished walk waited for its blocked batch-mate").unwrap();
        assert_eq!(quick.stats.batch_size, 2, "both requests were drained into one batch");
        assert_eq!(quick.estimate.selectivity, 0.5);
        assert_eq!(blocked.wait().unwrap().estimate.selectivity, 0.25);
        let metrics = server.shutdown();
        assert_eq!(metrics.served, 3);
        assert_eq!(metrics.batches, 2);
        assert_eq!(metrics.accounted(), metrics.accepted);
    }

    #[test]
    fn invalid_queries_skip_the_cache_and_fail_typed() {
        let server = start(ServeConfig::default().with_workers(1).with_cache_capacity(8));
        let bad = Query::new(vec![Predicate::eq(9, 0)]);
        for _ in 0..2 {
            let err = server.estimate(&bad).unwrap_err();
            assert_eq!(err, ServeError::Estimate(EstimateError::ColumnOutOfRange { column: 9, num_columns: 2 }));
        }
        let metrics = server.shutdown();
        assert_eq!(metrics.failed, 2, "errors are recomputed, never cached");
        assert_eq!(metrics.cache_hits, 0);
    }

    #[test]
    fn invalid_configs_are_rejected_not_clamped() {
        let cases = [
            (ServeConfig::default().with_workers(0), ConfigError::ZeroWorkers),
            (ServeConfig::default().with_queue_capacity(0), ConfigError::ZeroQueueCapacity),
            (ServeConfig::default().with_max_batch(0), ConfigError::ZeroMaxBatch),
            (ServeConfig::default().with_cache_capacity(16).with_cache_shards(0), ConfigError::ZeroCacheShards),
            (
                ServeConfig::default().with_cache_capacity(4).with_cache_shards(8),
                ConfigError::CacheShardsExceedCapacity { shards: 8, capacity: 4 },
            ),
            (
                ServeConfig::default().with_queue_shares(0.0, 0.5),
                ConfigError::InvalidShare { name: "batch_queue_share", value: 0.0 },
            ),
            (
                ServeConfig::default().with_queue_shares(1.0, 1.5),
                ConfigError::InvalidShare { name: "best_effort_queue_share", value: 1.5 },
            ),
            (
                ServeConfig::default().with_degrade(DegradePolicy::default().with_reduced_samples(0)),
                ConfigError::ZeroDegradeSamples,
            ),
            (
                ServeConfig::default().with_faults(FaultInjection::default().with_panic_probability(2.0)),
                ConfigError::InvalidProbability { name: "panic_probability", value: 2.0 },
            ),
        ];
        for (config, expected) in cases {
            match Server::start(tiny_engine(), config) {
                Err(ServeError::Config(err)) => assert_eq!(err, expected),
                other => panic!("expected Config({expected:?}), got {:?}", other.map(|_| "server")),
            }
        }
        // A zero-shard cache config is fine when the cache is disabled.
        let server = start(ServeConfig::default().with_workers(1).with_cache_capacity(0).with_cache_shards(0));
        assert!(server.estimate(&Query::all()).is_ok());
        server.shutdown();
    }

    #[test]
    fn class_caps_derive_from_shares() {
        let config = ServeConfig::default().with_queue_capacity(100).with_queue_shares(0.25, 0.01);
        assert_eq!(config.class_caps(), [100, 25, 1]);
        // Shares round up and never fall below one slot.
        let tiny = ServeConfig::default().with_queue_capacity(3).with_queue_shares(1.0, 0.1);
        assert_eq!(tiny.class_caps(), [3, 3, 1]);
    }

    #[test]
    fn wait_timeout_hands_the_ticket_back_then_resolves() {
        let server = start(ServeConfig::default().with_workers(1).with_max_batch(1));
        // Stack enough slow-ish work that at least the last ticket has to
        // queue behind the rest.
        let q = Query::new(vec![Predicate::le(0, 3), Predicate::ge(1, 1)]);
        let mut tickets: Vec<Ticket> = (0..8).map(|_| server.submit(q.clone()).unwrap()).collect();
        let last = tickets.pop().unwrap();
        // Zero timeout: either already done (fast machine) or handed back.
        let resolved = match last.wait_timeout(Duration::ZERO) {
            Ok(response) => response,
            // A generous timeout then resolves like a plain wait.
            Err(ticket) => ticket.wait_timeout(Duration::from_secs(60)).expect("request did not complete in 60s"),
        };
        resolved.unwrap();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let metrics = server.shutdown();
        assert_eq!(metrics.served, 8);
        assert_eq!(metrics.accounted(), metrics.accepted);
    }

    #[test]
    fn cancelled_tickets_are_skipped_and_counted() {
        // One worker, batch size 1: submit a head request to occupy the
        // worker, cancel the rest while they queue.
        let server = Server::start(slow_engine(), ServeConfig::default().with_workers(1).with_max_batch(1)).unwrap();
        let q = Query::new(vec![Predicate::le(0, 3), Predicate::ge(1, 1)]);
        let head = server.submit(q.clone()).unwrap();
        let queued: Vec<Ticket> = (0..4).map(|_| server.submit(q.clone()).unwrap()).collect();
        for (i, ticket) in queued.into_iter().enumerate() {
            if i % 2 == 0 {
                ticket.cancel();
            } else {
                drop(ticket); // dropping is an implicit cancel
            }
        }
        head.wait().unwrap();
        let metrics = server.shutdown();
        assert_eq!(metrics.accepted, 5);
        assert_eq!(metrics.accounted(), 5);
        assert!(metrics.cancelled > 0, "at least the still-queued cancellations must be counted");
        assert_eq!(metrics.served + metrics.cancelled, 5, "cancelled work is skipped, not failed");
    }

    #[test]
    fn priority_classes_respect_admission_caps() {
        // Saturate the best-effort share of a small queue with a stalled
        // worker, then check interactive traffic still gets in.
        let server = Server::start(
            slow_engine(),
            ServeConfig::default()
                .with_workers(1)
                .with_max_batch(1)
                .with_queue_capacity(4)
                .with_queue_shares(1.0, 0.25),
        )
        .unwrap();
        // Occupy the worker.
        let q = Query::new(vec![Predicate::le(0, 3), Predicate::ge(1, 1)]);
        let head = server.submit(q.clone()).unwrap();
        // Queue capacity 4, best-effort cap = 1.
        let be = server.try_submit_with(q.clone(), SubmitOptions::best_effort());
        // The first best-effort fits (or the worker already drained it —
        // then the next one fits). Eventually the cap must bite while
        // interactive still has room; rather than race the worker, assert
        // on the pure queue math through metrics after shutdown.
        let mut rejected_best_effort = false;
        for _ in 0..8 {
            if matches!(
                server.try_submit_with(q.clone(), SubmitOptions::best_effort()),
                Err(ServeError::Overloaded { .. })
            ) {
                rejected_best_effort = true;
                break;
            }
        }
        // The queue itself still has room: interactive traffic is admitted
        // even while the best-effort lane is capped out.
        let interactive = server.try_submit_with(q.clone(), SubmitOptions::interactive()).unwrap();
        drop(be);
        drop(interactive);
        head.wait().unwrap();
        let metrics = server.shutdown();
        assert!(rejected_best_effort, "best-effort cap of 1 must reject a burst of 8");
        assert!(metrics.rejected > 0);
        assert_eq!(metrics.accounted(), metrics.accepted);
    }
}
