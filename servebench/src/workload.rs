//! The three traffic mixes and the load generators that drive them.
//!
//! Inputs come only from the run's seed: the distinct stream and the
//! skewed pool are generated up front, and clients take requests from the
//! stream in order through one shared counter, so a run sends a prefix of
//! the same stream whatever its speed.

use std::collections::{HashSet, VecDeque};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use naru_data::Table;
use naru_query::{decode_query, encode_query, generate_query, Estimate, Provenance, Query, QueryKey, WorkloadConfig};
use naru_serve::{ServeStats, Server};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::http::{self, Client};
use crate::trace::{Span, SpanBuf};

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over loopback HTTP; every request a distinct
    /// paper-style conjunction.
    DistinctHttp,
    /// Closed loop over loopback HTTP; Zipf over a pool of probes and
    /// conjunctions.
    SkewedHttp,
    /// One in-process generator keeping a window of distinct requests in
    /// flight through `Server::submit`.
    FanoutInproc,
}

impl Workload {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "distinct_http" => Some(Self::DistinctHttp),
            "skewed_http" => Some(Self::SkewedHttp),
            "fanout_inproc" => Some(Self::FanoutInproc),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::DistinctHttp => "distinct_http",
            Self::SkewedHttp => "skewed_http",
            Self::FanoutInproc => "fanout_inproc",
        }
    }

    /// Whether requests cross the HTTP front end.
    pub fn is_http(self) -> bool {
        self != Self::FanoutInproc
    }

    /// Whether every request is a distinct query.
    pub fn is_distinct(self) -> bool {
        self != Self::SkewedHttp
    }
}

/// Distinct requests generated per second of requested run time. Far above
/// what the model tier answers on a few cores; a run that drains the stream
/// fails rather than repeat a query.
const DISTINCT_PER_SECOND: usize = 400;
/// 1–2-filter probes in the skewed pool.
const POOL_PROBES: usize = 64;
/// 5–11-filter conjunctions in the skewed pool.
const POOL_CONJUNCTIONS: usize = 64;
/// Seed of the fixed query sets: the distinct mixes' evaluation set and the
/// skewed pool.
const POOL_SEED: u64 = 0x9e37_79b9;
/// Distinct queries every distinct-mix run serves first: slightly more than
/// the 1,000 requests a run needs for its p99.
const EVALUATION_SET: usize = 1100;
/// Every `NOVEL_EVERY`-th skewed request is a conjunction never sent
/// before, so the model walks at a fixed 2% of requests: above the 1% a
/// p99 looks past, and steady from the first second to the last.
const NOVEL_EVERY: usize = 50;
/// Zipf draws generated for the skewed stream; the draws repeat after.
const SKEWED_DRAWS: usize = 1 << 20;

/// The requests a run sends, in order.
pub struct Traffic {
    /// Every distinct query the run may send: the stream itself (distinct
    /// mixes), or the pool followed by the novel conjunctions (skewed mix).
    pub queries: Vec<Query>,
    skew: Option<Skew>,
}

/// The skewed mix: Zipf draws over the pool, interleaved with novel
/// conjunctions.
struct Skew {
    pool: usize,
    picks: Vec<u32>,
}

impl Traffic {
    /// Generates the traffic of `workload` for a run of `seconds`.
    pub fn generate(workload: Workload, table: &Table, seed: u64, seconds: u64) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = table.num_columns();
        let conjunctions = WorkloadConfig::default();
        let count = DISTINCT_PER_SECOND * (seconds as usize).max(1);
        let mut seen = HashSet::new();
        if workload.is_distinct() {
            // A fixed evaluation set, as in the paper's protocol, served first
            // in an order drawn from the seed; fresh queries from the seed
            // follow if a fast host gets through it. Runs on a slow host
            // serve nearly the same set whatever the seed, so q-error
            // compares the model rather than the draw of queries.
            let mut queries = distinct_queries(
                table,
                &conjunctions,
                EVALUATION_SET,
                n,
                &mut seen,
                &mut StdRng::seed_from_u64(POOL_SEED),
            )?;
            queries.shuffle(&mut rng);
            queries.extend(distinct_queries(table, &conjunctions, count, n, &mut seen, &mut rng)?);
            return Ok(Self { queries, skew: None });
        }
        // The pool is the service's hot set and stays the same across seeds:
        // a Zipf head of a few queries carries most requests, so a pool
        // redrawn per seed would swing the request-weighted q-error from
        // seed to seed. The seed draws the request order and the novel
        // conjunctions.
        let mut pool_rng = StdRng::seed_from_u64(POOL_SEED);
        let probes = WorkloadConfig { min_filters: 1, max_filters: 2, ..WorkloadConfig::default() };
        let mut pool = distinct_queries(table, &probes, POOL_PROBES, n, &mut seen, &mut pool_rng)?;
        pool.extend(distinct_queries(table, &conjunctions, POOL_CONJUNCTIONS, n, &mut seen, &mut pool_rng)?);
        // Popularity rank is independent of the query's shape, so probes and
        // conjunctions both appear in the hot head and in the tail.
        pool.shuffle(&mut pool_rng);
        let mut cdf = Vec::with_capacity(pool.len());
        let mut total = 0.0;
        for rank in 0..pool.len() {
            total += 1.0 / (rank as f64 + 1.0);
            cdf.push(total);
        }
        let picks = (0..SKEWED_DRAWS)
            .map(|_| {
                let r = rng.gen_range(0.0..total);
                cdf.partition_point(|&c| c <= r).min(pool.len() - 1) as u32
            })
            .collect();
        let skew = Skew { pool: pool.len(), picks };
        let novel = distinct_queries(table, &conjunctions, count, n, &mut seen, &mut rng)?;
        pool.extend(novel);
        Ok(Self { queries: pool, skew: Some(skew) })
    }

    /// The query id (index into `queries`) and query of request `i`, or
    /// `None` when the distinct queries are exhausted.
    pub fn request(&self, i: usize) -> Option<(u32, &Query)> {
        let id = match &self.skew {
            Some(skew) if (i + 1).is_multiple_of(NOVEL_EVERY) => u32::try_from(skew.pool + i / NOVEL_EVERY).ok()?,
            Some(skew) => *skew.picks.get(i % skew.picks.len())?,
            None => u32::try_from(i).ok()?,
        };
        self.queries.get(id as usize).map(|q| (id, q))
    }

    /// The skewed mix's pool, sent once before the measured phase so the
    /// cache holds it (empty for the distinct mixes).
    pub fn pool(&self) -> &[Query] {
        &self.queries[..self.skew.as_ref().map_or(0, |s| s.pool)]
    }
}

fn key_of(query: &Query, num_columns: usize) -> Result<QueryKey, String> {
    QueryKey::new(query, num_columns).map_err(|e| format!("generated query does not compile: {e}"))
}

fn distinct_queries(
    table: &Table,
    config: &WorkloadConfig,
    count: usize,
    num_columns: usize,
    seen: &mut HashSet<QueryKey>,
    rng: &mut StdRng,
) -> Result<Vec<Query>, String> {
    let mut queries = Vec::with_capacity(count);
    let mut tries = 0;
    while queries.len() < count {
        tries += 1;
        if tries > count * 20 {
            return Err("could not draw enough distinct queries".to_owned());
        }
        let query = generate_query(table, config, rng);
        if seen.insert(key_of(&query, num_columns)?) {
            queries.push(query);
        }
    }
    Ok(queries)
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Position in the stream.
    pub request: u64,
    /// Query id (index into [`Traffic::queries`]).
    pub query: u32,
    /// Client-observed latency.
    pub client_ms: f64,
    /// Server-reported queue wait.
    pub queue_ms: f64,
    /// Server-reported `Estimate::wall_time`.
    pub wall_ms: f64,
    /// Which path produced the answer.
    pub provenance: Provenance,
    /// Micro-batch the request was served in (0 for a cache hit).
    pub batch_size: usize,
    /// The answer.
    pub selectivity: f64,
    /// Live sample paths at the end of a model walk.
    pub live_paths: Option<usize>,
    /// Whether the request ran in a traced slice.
    pub traced: bool,
}

impl Record {
    fn new(request: u64, query: u32, client_ms: f64, estimate: &Estimate, stats: &ServeStats, traced: bool) -> Self {
        Self {
            request,
            query,
            client_ms,
            queue_ms: stats.queue_wait.as_secs_f64() * 1e3,
            wall_ms: estimate.wall_time.as_secs_f64() * 1e3,
            provenance: estimate.provenance,
            batch_size: stats.batch_size,
            selectivity: estimate.selectivity,
            live_paths: estimate.live_paths,
            traced,
        }
    }
}

/// Sends every query of `pool` once over `clients` connections before the
/// measured phase, so the cache holds the pool; returns the answers, each
/// numbered by its pool index.
pub fn warm_up(addr: SocketAddr, pool: &[Query], clients: usize) -> Result<Vec<Record>, String> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                scope.spawn(move || -> Result<Vec<Record>, String> {
                    let mut client = Client::connect(addr)?;
                    let mut records = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(query) = pool.get(i) else { return Ok(records) };
                        let start = Instant::now();
                        let answer = http::decode(&client.post_estimate(&encode_query(query))?)?;
                        let client_ms = start.elapsed().as_secs_f64() * 1e3;
                        records.push(Record::new(
                            i as u64,
                            i as u32,
                            client_ms,
                            &answer.estimate,
                            &answer.stats,
                            false,
                        ));
                    }
                })
            })
            .collect();
        let mut records = Vec::with_capacity(pool.len());
        for handle in handles {
            records.extend(handle.join().map_err(|_| "warm-up client panicked".to_owned())??);
        }
        Ok(records)
    })
}

/// What one load generator thread saw.
#[derive(Debug, Default)]
pub struct ClientOut {
    /// Requests sent.
    pub attempted: u64,
    /// Answered requests.
    pub records: Vec<Record>,
    /// Why each failed request failed.
    pub failures: Vec<String>,
    /// Spans, when the run is traced.
    pub spans: Vec<Span>,
}

/// State every load generator shares with the ticker.
pub struct Shared<'a> {
    /// The stream.
    pub traffic: &'a Traffic,
    /// Columns of the served table (for query keys).
    pub num_columns: usize,
    /// Next stream position to send.
    next: AtomicUsize,
    /// Raised when the measured phase ends.
    pub stop: AtomicBool,
    /// Raised while the current slice is traced.
    pub tracing: AtomicBool,
    /// Raised when a distinct stream ran out.
    pub exhausted: AtomicBool,
    /// Requests answered or failed so far.
    pub completed: AtomicU64,
}

impl<'a> Shared<'a> {
    /// Fresh shared state over `traffic`.
    pub fn new(traffic: &'a Traffic, num_columns: usize) -> Self {
        Self {
            traffic,
            num_columns,
            next: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            tracing: AtomicBool::new(false),
            exhausted: AtomicBool::new(false),
            completed: AtomicU64::new(0),
        }
    }

    fn take(&self) -> Option<(u64, u32, &'a Query)> {
        if self.stop.load(Ordering::Acquire) {
            return None;
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        match self.traffic.request(i) {
            Some((id, query)) => Some((i as u64, id, query)),
            None => {
                self.exhausted.store(true, Ordering::Release);
                None
            }
        }
    }

    fn traced(&self, spans: &Option<SpanBuf>) -> bool {
        spans.is_some() && self.tracing.load(Ordering::Relaxed)
    }
}

/// Replays the server's own per-request `naru-query` calls (cache key, wire
/// decode) in a span each, outside the timed request so they add no latency
/// to it.
fn replay_server_calls(buf: &mut SpanBuf, request: u64, query: &Query, body: Option<&str>, num_columns: usize) {
    buf.time(request, "query.key", None, || black_box(QueryKey::new(black_box(query), num_columns)).is_ok());
    if let Some(body) = body {
        buf.time(request, "query.decode", None, || black_box(decode_query(black_box(body))).is_ok());
    }
}

/// One closed-loop HTTP client: send, wait for the answer, repeat.
pub fn http_client(addr: SocketAddr, shared: &Shared<'_>, epoch: Option<Instant>) -> Result<ClientOut, String> {
    let mut client = Client::connect(addr)?;
    let mut spans = epoch.map(SpanBuf::new);
    let mut out = ClientOut::default();
    while let Some((request, id, query)) = shared.take() {
        let traced = shared.traced(&spans);
        out.attempted += 1;
        let start = Instant::now();
        let (result, client_ms) = match spans.as_mut().filter(|_| traced) {
            Some(buf) => {
                let root = buf.now_ns();
                let body = buf.time(request, "query.encode", Some("client.request"), || encode_query(query));
                let answer = buf
                    .time(request, "net.round_trip", Some("client.request"), || client.post_estimate(&body))
                    .and_then(|text| buf.time(request, "net.decode", Some("client.request"), || http::decode(&text)));
                let client_ms = start.elapsed().as_secs_f64() * 1e3;
                let end = buf.now_ns();
                buf.push(Span { request, name: "client.request", parent: None, start_ns: root, end_ns: end });
                replay_server_calls(buf, request, query, Some(&body), shared.num_columns);
                (answer, client_ms)
            }
            None => {
                let answer = client.post_estimate(&encode_query(query)).and_then(|text| http::decode(&text));
                (answer, start.elapsed().as_secs_f64() * 1e3)
            }
        };
        shared.completed.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(answer) => {
                out.records.push(Record::new(request, id, client_ms, &answer.estimate, &answer.stats, traced))
            }
            Err(e) => {
                // The connection's state is unknown after a failure: stop
                // this client rather than read a stale response.
                out.failures.push(e);
                break;
            }
        }
    }
    out.spans = spans.map(SpanBuf::into_spans).unwrap_or_default();
    Ok(out)
}

struct InFlight {
    request: u64,
    query: u32,
    start: Instant,
    root_ns: u64,
    traced: bool,
    ticket: naru_serve::Ticket,
}

/// The in-process fan-out generator: keeps `window` requests in flight
/// through `Server::submit`, collecting answers oldest first.
pub fn fanout(server: &Server, shared: &Shared<'_>, window: usize, epoch: Option<Instant>) -> ClientOut {
    let mut spans = epoch.map(SpanBuf::new);
    let mut out = ClientOut::default();
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(window);
    loop {
        while inflight.len() < window {
            let Some((request, id, query)) = shared.take() else { break };
            let traced = shared.traced(&spans);
            let query = query.clone();
            out.attempted += 1;
            let start = Instant::now();
            let (root_ns, submitted) = match spans.as_mut().filter(|_| traced) {
                Some(buf) => {
                    let root_ns = buf.now_ns();
                    let ticket = buf.time(request, "serve.submit", Some("client.request"), || server.submit(query));
                    (root_ns, ticket)
                }
                None => (0, server.submit(query)),
            };
            match submitted {
                Ok(ticket) => inflight.push_back(InFlight { request, query: id, start, root_ns, traced, ticket }),
                Err(e) => {
                    shared.completed.fetch_add(1, Ordering::Relaxed);
                    out.failures.push(format!("submit: {e}"));
                }
            }
        }
        let Some(next) = inflight.pop_front() else { break };
        let (answer, client_ms) = match spans.as_mut().filter(|_| next.traced) {
            Some(buf) => {
                let answer = buf.time(next.request, "serve.wait", Some("client.request"), || next.ticket.wait());
                let client_ms = next.start.elapsed().as_secs_f64() * 1e3;
                let end_ns = buf.now_ns();
                buf.push(Span {
                    request: next.request,
                    name: "client.request",
                    parent: None,
                    start_ns: next.root_ns,
                    end_ns,
                });
                replay_server_calls(
                    buf,
                    next.request,
                    &shared.traffic.queries[next.query as usize],
                    None,
                    shared.num_columns,
                );
                (answer, client_ms)
            }
            None => {
                let answer = next.ticket.wait();
                (answer, next.start.elapsed().as_secs_f64() * 1e3)
            }
        };
        shared.completed.fetch_add(1, Ordering::Relaxed);
        match answer {
            Ok(served) => out.records.push(Record::new(
                next.request,
                next.query,
                client_ms,
                &served.estimate,
                &served.stats,
                next.traced,
            )),
            Err(e) => out.failures.push(format!("serve: {e}")),
        }
    }
    out.spans = spans.map(SpanBuf::into_spans).unwrap_or_default();
    out
}
