//! Serving-throughput benchmark: trains a MADE model, wraps it in the
//! `naru-serve` worker pool, and drives a closed-loop client fleet against
//! 1/2/4-worker configurations, writing `BENCH_serve.json`:
//!
//! * **single_session_sequential** — the reference point: one `Session`
//!   walking the whole request stream one query at a time, in order (the
//!   `optimized` mode of `BENCH_infer.json`, re-measured on the same
//!   hardware and workload so the serve numbers are directly comparable);
//! * **serve\[\]** — per worker count, two measured phases:
//!   * *throughput* (open-loop burst): every request submitted up front,
//!     so workers drain full micro-batches back to back — the sustained
//!     queries/sec the pool can serve;
//!   * *latency* (closed-loop): a small client fleet keeps one request in
//!     flight each, yielding the p50/p95 *queue-wait* (submission → worker
//!     dequeue, from [`ServeStats`]) and p50/p95 *end-to-end* latency
//!     (submission → response at the client) of an interactive workload;
//!
//!   each entry also records its *scaling_efficiency* — burst throughput
//!   relative to a perfectly linear scale-up of the 1-worker pool — and
//!   the run prints a degradation warning when added workers stop paying
//!   for themselves (expected wherever workers outnumber cores);
//! * **skewed** — a Zipf-skewed, repetitive request stream served twice in
//!   the same run: once by the full tiered pipeline (exact-stats tier 0,
//!   sketch tier 1, model tier 2, predicate-keyed estimate cache) and once
//!   by a tier-2-only configuration (statistics stripped, cache off). The
//!   section records the cache hit rate, per-tier request counts and
//!   end-to-end latency quantiles (keyed by each answer's `Provenance`),
//!   and both throughputs; the run asserts the tiered configuration is
//!   strictly faster on this workload;
//! * **overload** — three request classes (interactive / batch /
//!   best-effort) storm a small pool with more offered work than it can
//!   absorb, twice in the same run: once with priority lanes plus a
//!   [`DegradePolicy`] that routes the deadline-carrying background
//!   classes to cheap degraded walks, and once through a single FIFO lane
//!   at uniform full quality. Mid-storm, a handful of already-expired
//!   requests must shed and a handful of cancelled tickets must be
//!   skipped. The run asserts the interactive p95 under priority
//!   scheduling beats the FIFO baseline, and that
//!   `served + failed + shed + cancelled == accepted` holds exactly;
//! * **network** — the same stream once more, but through the `naru-net`
//!   HTTP front end over loopback TCP: a client fleet (one keep-alive
//!   connection each) wire-encodes every query, POSTs it to `/estimate`,
//!   and decodes the response. Every networked answer is asserted
//!   bit-identical to the single-session reference (the wire format's
//!   float round-trip is lossless), giving loopback throughput and
//!   end-to-end latency quantiles directly comparable to the in-process
//!   closed-loop numbers — the delta is protocol + loopback cost.
//!
//! The uniform phases serve through a stats-less engine so every served
//! selectivity is asserted bit-identical to the single-session model
//! reference — the pool must never trade correctness for throughput. The
//! skewed phase is where the fast tiers are allowed to answer.
//!
//! ```text
//! cargo run --release -p naru-bench --bin bench_serve            # default scale
//! cargo run --release -p naru-bench --bin bench_serve -- --smoke # CI-sized
//! cargo run --release -p naru-bench --bin bench_serve -- --out path.json
//! ```
//!
//! [`ServeStats`]: naru_serve::ServeStats

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use naru_bench::client::NetClient;
use naru_bench::latency::latency_quantiles_json;
use naru_core::{NaruConfig, NaruEstimator};
use naru_data::synthetic::dmv_like;
use naru_net::{NetConfig, NetServer};
use naru_query::{generate_workload, Predicate, Provenance, Query, WorkloadConfig};
use naru_serve::{DegradePolicy, ServeConfig, ServeError, Server, SubmitOptions, Ticket};
use naru_tensor::stats::percentile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct BenchScale {
    rows: usize,
    requests: usize,
    num_samples: usize,
    epochs: usize,
    label: &'static str,
}

const DEFAULT: BenchScale = BenchScale { rows: 5000, requests: 192, num_samples: 600, epochs: 3, label: "default" };
const SMOKE: BenchScale = BenchScale { rows: 600, requests: 24, num_samples: 100, epochs: 1, label: "smoke" };

/// Worker counts measured per run (the acceptance sweep).
const WORKER_COUNTS: &[usize] = &[1, 2, 4];

/// One measured serving configuration.
struct ServeRun {
    workers: usize,
    clients: usize,
    /// Open-loop burst throughput (all requests queued up front).
    queries_per_sec: f64,
    /// Closed-loop throughput (one request in flight per client).
    closed_loop_queries_per_sec: f64,
    /// Closed-loop per-request queue waits (ms).
    queue_wait_ms: Vec<f64>,
    /// Closed-loop per-request end-to-end latencies (ms).
    e2e_ms: Vec<f64>,
    /// Micro-batches executed across both phases.
    batches: u64,
}

/// Requests each overload-storm class keeps in flight at once.
const STORM_WINDOW: usize = 8;

/// Drives one class's stream with a sliding window of `STORM_WINDOW`
/// requests in flight, returning the end-to-end latency (ms) of every
/// served request. With `extras`, injects the mid-storm chaos batch.
fn storm_class(server: &Server, queries: &[Query], count: usize, options: SubmitOptions, extras: bool) -> Vec<f64> {
    let mut e2e = Vec::with_capacity(count);
    let mut inflight: VecDeque<(Instant, Ticket)> = VecDeque::new();
    for i in 0..count {
        if extras && i == count / 2 {
            storm_extras(server, queries);
        }
        while inflight.len() >= STORM_WINDOW {
            let (submitted, ticket) = inflight.pop_front().expect("window non-empty");
            ticket.wait().expect("overload request must be served");
            e2e.push(submitted.elapsed().as_secs_f64() * 1000.0);
        }
        let ticket = server.submit_with(queries[i % queries.len()].clone(), options).expect("server admitting");
        inflight.push_back((Instant::now(), ticket));
    }
    for (submitted, ticket) in inflight {
        ticket.wait().expect("overload request must be served");
        e2e.push(submitted.elapsed().as_secs_f64() * 1000.0);
    }
    e2e
}

/// Mid-storm chaos: four requests admitted with an already-expired
/// deadline (the pool must shed every one) and four tickets cancelled
/// right after admission (workers must skip them).
fn storm_extras(server: &Server, queries: &[Query]) {
    let expired: Vec<Ticket> = (0..4)
        .map(|i| {
            let options = SubmitOptions::best_effort().deadline_within(Duration::ZERO);
            server.submit_with(queries[i % queries.len()].clone(), options).expect("server admitting")
        })
        .collect();
    for ticket in expired {
        assert!(
            matches!(ticket.wait(), Err(ServeError::DeadlineExceeded)),
            "a zero-budget request must be shed, not served"
        );
    }
    for i in 0..4 {
        server
            .submit_with(queries[i % queries.len()].clone(), SubmitOptions::batch())
            .expect("server admitting")
            .cancel();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = DEFAULT;
    let mut out_path = "BENCH_serve.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => scale = SMOKE,
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            other => {
                eprintln!("unknown argument {other}; supported: --smoke, --out PATH");
                #[allow(clippy::disallowed_methods)] // CLI usage error: exit before any state exists
                std::process::exit(2);
            }
        }
    }

    println!(
        "bench_serve [{}]: {} rows, {} requests, {} sample paths, {} training epochs",
        scale.label, scale.rows, scale.requests, scale.num_samples, scale.epochs
    );

    let table = dmv_like(scale.rows, 42);
    let n = table.num_columns();
    let mut config = NaruConfig::small().with_samples(scale.num_samples);
    config.train.epochs = scale.epochs;
    config.train.compute_data_entropy = false;
    config.train.eval_tuples = 0;
    let train_start = Instant::now();
    let (estimator, _) = NaruEstimator::train(&table, &config);
    let model_params = estimator.model().param_count();
    println!("trained MADE ({} params) in {:.1}s", model_params, train_start.elapsed().as_secs_f64());
    // `tiered_engine` carries the exact-statistics sidecar built during
    // training (used by the skewed phase); the uniform phases serve through
    // the stats-less clone so every answer comes from the model and can be
    // asserted bit-identical to the single-session reference.
    let tiered_engine = estimator.into_engine();
    let engine = tiered_engine.clone().without_table_stats();

    // The request stream: a generated workload, cycled up to the request
    // budget so the queue actually fills.
    let mut rng = StdRng::seed_from_u64(7);
    // One extra query, kept out of the stream, warms the reference session
    // up without handing a measured query a memoized prefix for free.
    let mut workload = generate_workload(&table, &WorkloadConfig::default(), scale.requests.min(64) + 1, &mut rng);
    let warm = workload.pop().expect("workload has a warm-up query");
    let requests: Vec<Query> = (0..scale.requests).map(|i| workload[i % workload.len()].query.clone()).collect();

    // Reference: one session walking the whole stream one query at a time —
    // the `optimized` mode of BENCH_infer.json on this hardware.
    let mut session = engine.session();
    let _ = session.estimate(&warm.query); // warm the scratch, like bench_infer
    let reference_start = Instant::now();
    let reference: Vec<f64> = requests
        .iter()
        .map(|query| session.estimate(query).expect("generated workload queries are valid").selectivity)
        .collect();
    let single_session_qps = scale.requests as f64 / reference_start.elapsed().as_secs_f64();
    println!("single-session sequential reference: {single_session_qps:.1} queries/sec");

    // Open-loop burst: queue the whole stream up front so workers drain
    // full micro-batches back to back, then collect every response. This is
    // the pool's sustained rate, with no client round-trip idle on the
    // critical path.
    let run_burst = |server: &Server| -> f64 {
        let burst_start = Instant::now();
        let tickets: Vec<_> =
            requests.iter().map(|q| server.submit(q.clone()).expect("queue sized for burst")).collect();
        let selectivities: Vec<f64> =
            tickets.into_iter().map(|t| t.wait().expect("valid request").estimate.selectivity).collect();
        let burst_secs = burst_start.elapsed().as_secs_f64();
        assert_eq!(selectivities, reference, "served estimates must match the single-session reference bit-for-bit");
        scale.requests as f64 / burst_secs
    };

    let mut runs: Vec<ServeRun> = Vec::new();
    for &workers in WORKER_COUNTS {
        let clients = (workers * 2).min(8);
        let server = Server::start(
            engine.clone(),
            ServeConfig::default().with_workers(workers).with_queue_capacity(scale.requests.max(64)).with_max_batch(16),
        )
        .expect("valid serve config");

        // Phase 1 — throughput.
        let burst_qps = run_burst(&server);

        // Phase 2 — latency, closed-loop: each client keeps one request in
        // flight (submit, wait, repeat), measuring what an interactive
        // caller observes.
        let mut queue_wait_ms = vec![0.0f64; scale.requests];
        let mut e2e_ms = vec![0.0f64; scale.requests];
        let closed_start = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let server = &server;
                    let requests = &requests;
                    scope.spawn(move || {
                        let mut measured = Vec::new();
                        let mut i = c;
                        while i < requests.len() {
                            let submitted = Instant::now();
                            let served = server.estimate(&requests[i]).expect("valid request");
                            let e2e = submitted.elapsed().as_secs_f64() * 1000.0;
                            let wait = served.stats.queue_wait.as_secs_f64() * 1000.0;
                            measured.push((i, wait, e2e));
                            i += clients;
                        }
                        measured
                    })
                })
                .collect();
            for handle in handles {
                for (i, wait, e2e) in handle.join().expect("client thread panicked") {
                    queue_wait_ms[i] = wait;
                    e2e_ms[i] = e2e;
                }
            }
        });
        let closed_secs = closed_start.elapsed().as_secs_f64();
        let metrics = server.shutdown();
        assert_eq!(metrics.served, 2 * scale.requests as u64, "every request in both phases must be served");

        let run = ServeRun {
            workers,
            clients,
            queries_per_sec: burst_qps,
            closed_loop_queries_per_sec: scale.requests as f64 / closed_secs,
            queue_wait_ms,
            e2e_ms,
            batches: metrics.batches,
        };
        println!(
            "{} worker(s): burst {:.1} queries/sec, closed-loop {:.1} queries/sec ({} clients, {} micro-batches)",
            run.workers, run.queries_per_sec, run.closed_loop_queries_per_sec, run.clients, run.batches
        );
        runs.push(run);
    }

    // Scaling efficiency per worker count: burst throughput relative to a
    // perfectly linear scale-up of the 1-worker pool. On a box with fewer
    // cores than workers the extra threads only add contention, so a low
    // number here is a property of the hardware, not a regression — it is
    // reported (and warned about) rather than asserted.
    let one_worker_qps =
        runs.iter().find(|r| r.workers == 1).map(|r| r.queries_per_sec).expect("WORKER_COUNTS starts at one worker");
    let scaling_efficiency: Vec<f64> =
        runs.iter().map(|r| r.queries_per_sec / (r.workers as f64 * one_worker_qps)).collect();
    for (run, &eff) in runs.iter().zip(scaling_efficiency.iter()) {
        if run.workers > 1 && eff < 0.5 {
            println!(
                "warning: {} workers reach {:.0}% scaling efficiency — adding workers degrades per-worker \
                 throughput on this host ({} core(s) detected)",
                run.workers,
                eff * 100.0,
                std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1)
            );
        }
    }

    // ---- Skewed phase: tiered pipeline + cache vs tier-2-only ----
    //
    // Production estimation traffic is repetitive and much of it is easy;
    // this phase measures what the tiered pipeline buys on such a stream.
    // A Zipf-ish distribution over a small pool of distinct queries (easy
    // single-column probes first — the hot head — hard model-tier
    // conjunctions in the tail) is served by the full tiered engine with
    // the estimate cache on, then by the same model with statistics
    // stripped and the cache off. Determinism makes the two answer streams
    // comparable; the tiered run must be strictly faster.
    let skew_workers = WORKER_COUNTS.iter().copied().max().unwrap();
    let skew_clients = (skew_workers * 2).min(8);
    let skewed_requests = scale.requests * 2;

    let mut pool: Vec<Query> = vec![
        Query::all(),
        Query::new(vec![Predicate::eq(0, 1)]),
        Query::new(vec![Predicate::eq(1, 2)]),
        Query::new(vec![Predicate::le(6, 900)]),
        Query::new(vec![Predicate::ge(7, 1)]),
        Query::new(vec![Predicate::eq(0, 1), Predicate::le(6, 1200)]),
        Query::new(vec![Predicate::eq(1, 2), Predicate::ge(7, 1)]),
    ];
    pool.extend(workload.iter().take(16).map(|lq| lq.query.clone()));
    let weights: Vec<f64> = (0..pool.len()).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    let weight_total: f64 = weights.iter().sum();
    let mut skew_rng = StdRng::seed_from_u64(11);
    let skewed: Vec<Query> = (0..skewed_requests)
        .map(|_| {
            let mut r = skew_rng.gen_range(0.0..weight_total);
            let mut idx = 0;
            for (i, w) in weights.iter().enumerate() {
                idx = i;
                if r < *w {
                    break;
                }
                r -= w;
            }
            pool[idx].clone()
        })
        .collect();

    let run_closed_loop = |server: &Server, requests: &[Query]| -> (f64, Vec<(Provenance, f64)>) {
        let start = Instant::now();
        let mut results: Vec<(Provenance, f64)> = Vec::with_capacity(requests.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..skew_clients)
                .map(|c| {
                    scope.spawn(move || {
                        let mut measured = Vec::new();
                        let mut i = c;
                        while i < requests.len() {
                            let submitted = Instant::now();
                            let served = server.estimate(&requests[i]).expect("valid request");
                            measured.push((served.estimate.provenance, submitted.elapsed().as_secs_f64() * 1000.0));
                            i += skew_clients;
                        }
                        measured
                    })
                })
                .collect();
            for handle in handles {
                results.extend(handle.join().expect("client thread panicked"));
            }
        });
        (start.elapsed().as_secs_f64(), results)
    };

    let skew_config = ServeConfig::default()
        .with_workers(skew_workers)
        .with_queue_capacity(skewed_requests.max(64))
        .with_max_batch(16);
    let tiered_server =
        Server::start(tiered_engine.clone(), skew_config.clone().with_cache_capacity(512)).expect("valid serve config");
    let (tiered_secs, tiered_results) = run_closed_loop(&tiered_server, &skewed);
    let tiered_metrics = tiered_server.shutdown();
    assert_eq!(
        tiered_metrics.cache_hits + tiered_metrics.served,
        skewed_requests as u64,
        "every skewed request is either a cache hit or served by a worker"
    );

    let model_server = Server::start(engine.clone(), skew_config).expect("valid serve config");
    let (model_secs, _) = run_closed_loop(&model_server, &skewed);
    let model_metrics = model_server.shutdown();
    assert_eq!(model_metrics.served, skewed_requests as u64);
    assert_eq!(model_metrics.tier2_served, skewed_requests as u64, "the stripped engine must serve all-model");

    let tiered_qps = skewed_requests as f64 / tiered_secs;
    let tier2_only_qps = skewed_requests as f64 / model_secs;
    let cache_hit_rate = tiered_metrics.cache_hit_rate().unwrap_or(0.0);
    println!(
        "skewed ({} requests, {} distinct): tiered {:.1} queries/sec vs tier-2-only {:.1} queries/sec ({:.2}x), cache hit rate {:.1}%",
        skewed_requests,
        pool.len(),
        tiered_qps,
        tier2_only_qps,
        tiered_qps / tier2_only_qps,
        100.0 * cache_hit_rate
    );
    assert!(
        tiered_qps > tier2_only_qps,
        "tiered serving ({tiered_qps:.1} qps) must beat the all-model configuration ({tier2_only_qps:.1} qps) on the skewed workload"
    );

    // ---- Overload phase: priority lanes + degradation vs FIFO baseline ----
    //
    // Three classes storm a deliberately small pool (more offered work than
    // it can absorb). In the priority run the background classes carry
    // comfortable deadlines and a DegradePolicy whose budgets sit far above
    // any real walk time, so every deadline-carrying request takes the
    // cheap degraded rung deterministically while the interactive class
    // runs at full quality; the baseline pushes the identical streams
    // through one FIFO lane at uniform full quality. Same binary, same
    // machine, same model — the delta is pure scheduling policy.
    let overload_workers = 2;
    let per_class = scale.requests;
    let overload_config =
        ServeConfig::default().with_workers(overload_workers).with_queue_capacity(48).with_max_batch(8);
    let degrade = DegradePolicy::default()
        .with_full_walk_budget(Duration::from_secs(600))
        .with_sketch_budget(Duration::from_secs(300))
        .with_sketch_fallback_samples(16);
    let background_deadline = Duration::from_secs(60);

    let priority_server =
        Server::start(engine.clone(), overload_config.clone().with_degrade(degrade)).expect("valid serve config");
    let priority_options = [
        SubmitOptions::interactive(),
        SubmitOptions::batch().deadline_within(background_deadline),
        SubmitOptions::best_effort().deadline_within(background_deadline),
    ];
    let mut priority_e2e: [Vec<f64>; 3] = Default::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = priority_options
            .iter()
            .enumerate()
            .map(|(class, &options)| {
                let server = &priority_server;
                let requests = &requests;
                scope.spawn(move || storm_class(server, requests, per_class, options, class == 2))
            })
            .collect();
        for (class, handle) in handles.into_iter().enumerate() {
            priority_e2e[class] = handle.join().expect("storm thread panicked");
        }
    });
    let priority_metrics = priority_server.shutdown();
    assert_eq!(priority_metrics.shed, 4, "every zero-budget chaos request must shed");
    assert!(priority_metrics.cancelled > 0, "cancelled chaos tickets must be skipped by workers");
    assert_eq!(
        priority_metrics.degraded_served,
        2 * per_class as u64,
        "every deadline-carrying background request must be served degraded"
    );
    assert_eq!(
        priority_metrics.accounted(),
        priority_metrics.accepted,
        "served + failed + shed + cancelled must equal accepted"
    );

    let baseline_server = Server::start(engine.clone(), overload_config).expect("valid serve config");
    let mut baseline_e2e: [Vec<f64>; 3] = Default::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let server = &baseline_server;
                let requests = &requests;
                scope.spawn(move || storm_class(server, requests, per_class, SubmitOptions::default(), false))
            })
            .collect();
        for (class, handle) in handles.into_iter().enumerate() {
            baseline_e2e[class] = handle.join().expect("storm thread panicked");
        }
    });
    let baseline_metrics = baseline_server.shutdown();
    assert_eq!(baseline_metrics.served, 3 * per_class as u64);

    let interactive_p95 = percentile(&priority_e2e[0], 95.0);
    let baseline_p95 = percentile(&baseline_e2e[0], 95.0);
    println!(
        "overload ({} workers, {} requests/class): interactive p95 {:.2}ms with priority+degradation vs {:.2}ms FIFO ({:.2}x); {} shed, {} cancelled, {} degraded",
        overload_workers,
        per_class,
        interactive_p95,
        baseline_p95,
        baseline_p95 / interactive_p95,
        priority_metrics.shed,
        priority_metrics.cancelled,
        priority_metrics.degraded_served
    );
    assert!(
        interactive_p95 < baseline_p95,
        "interactive p95 under priority scheduling ({interactive_p95:.2}ms) must beat the FIFO baseline ({baseline_p95:.2}ms)"
    );

    // ---- Network phase: loopback HTTP through the naru-net front end ----
    //
    // Same engine, same request stream, but every query now crosses a real
    // TCP connection: wire-encode, HTTP POST, parse, queue, respond. Each
    // client keeps one request in flight on its own keep-alive connection,
    // so the numbers line up with the in-process closed-loop phase and the
    // delta is pure protocol + loopback cost.
    let net_workers = 2;
    let net_clients = 4;
    let net_serve = Server::start(
        engine.clone(),
        ServeConfig::default().with_workers(net_workers).with_queue_capacity(scale.requests.max(64)).with_max_batch(8),
    )
    .expect("valid serve config");
    let net_server =
        NetServer::start(net_serve, NetConfig::default().with_handler_threads(net_clients)).expect("loopback bind");
    let net_addr = net_server.local_addr();
    let mut net_e2e = vec![0.0f64; scale.requests];
    let net_start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..net_clients)
            .map(|c| {
                let requests = &requests;
                let reference = &reference;
                scope.spawn(move || {
                    let mut client = NetClient::connect(net_addr, Duration::from_secs(10)).expect("loopback connect");
                    let mut measured = Vec::new();
                    let mut i = c;
                    while i < requests.len() {
                        let submitted = Instant::now();
                        let served = client.estimate(&requests[i]).expect("loopback request served");
                        assert_eq!(
                            served.estimate.selectivity, reference[i],
                            "networked estimates must match the single-session reference bit-for-bit"
                        );
                        measured.push((i, submitted.elapsed().as_secs_f64() * 1000.0));
                        i += net_clients;
                    }
                    measured
                })
            })
            .collect();
        for handle in handles {
            for (i, ms) in handle.join().expect("network client panicked") {
                net_e2e[i] = ms;
            }
        }
    });
    let net_secs = net_start.elapsed().as_secs_f64();
    let net_metrics = net_server.shutdown();
    assert_eq!(net_metrics.served, scale.requests as u64, "every loopback request must be served");
    assert_eq!(net_metrics.accounted(), net_metrics.accepted, "network phase must preserve the accounting identity");
    let net_qps = scale.requests as f64 / net_secs;
    println!(
        "network loopback ({net_workers} workers, {net_clients} HTTP clients): {net_qps:.1} queries/sec end to end"
    );

    // Per-tier counts and end-to-end latency quantiles, keyed by each
    // response's provenance as the client saw it.
    let tier_json = |provenance: Provenance| -> String {
        let lat: Vec<f64> = tiered_results.iter().filter(|(p, _)| *p == provenance).map(|&(_, ms)| ms).collect();
        if lat.is_empty() {
            "{\"count\": 0, \"latency\": null}".to_string()
        } else {
            format!("{{\"count\": {}, \"latency\": {}}}", lat.len(), latency_quantiles_json(&lat))
        }
    };

    let best = runs.iter().map(|r| r.queries_per_sec).fold(0.0f64, f64::max);
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"scale\": \"{}\",\n", scale.label));
    out.push_str(&format!("  \"table_rows\": {},\n", scale.rows));
    out.push_str(&format!("  \"columns\": {n},\n"));
    out.push_str(&format!("  \"requests\": {},\n", scale.requests));
    out.push_str(&format!("  \"num_samples\": {},\n", scale.num_samples));
    out.push_str(&format!("  \"model_params\": {model_params},\n"));
    let threads_detected = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
    out.push_str(&format!("  \"threads_detected\": {threads_detected},\n"));
    out.push_str(&format!("  \"threads_used\": {skew_workers},\n"));
    out.push_str(&format!("  \"single_session_sequential\": {{\"queries_per_sec\": {single_session_qps:.2}}},\n"));
    out.push_str("  \"serve\": [\n");
    for (i, run) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"clients\": {}, \"queries_per_sec\": {:.2}, \"closed_loop_queries_per_sec\": {:.2}, \"scaling_efficiency\": {:.3}, \"batches\": {}, \"queue_wait\": {}, \"e2e\": {}}}{}\n",
            run.workers,
            run.clients,
            run.queries_per_sec,
            run.closed_loop_queries_per_sec,
            scaling_efficiency[i],
            run.batches,
            latency_quantiles_json(&run.queue_wait_ms),
            latency_quantiles_json(&run.e2e_ms),
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"skewed\": {\n");
    out.push_str(&format!("    \"requests\": {skewed_requests},\n"));
    out.push_str(&format!("    \"distinct_queries\": {},\n", pool.len()));
    out.push_str(&format!("    \"workers\": {skew_workers},\n"));
    out.push_str(&format!("    \"clients\": {skew_clients},\n"));
    out.push_str(&format!(
        "    \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"hit_rate\": {:.4}}},\n",
        tiered_metrics.cache_hits, tiered_metrics.cache_misses, tiered_metrics.cache_evictions, cache_hit_rate
    ));
    out.push_str("    \"tiers\": {\n");
    let tier_order = [
        Provenance::Tier0Exact,
        Provenance::Tier1Sketch,
        Provenance::Tier2Model,
        Provenance::Degraded,
        Provenance::CacheHit,
    ];
    for (i, provenance) in tier_order.iter().enumerate() {
        out.push_str(&format!(
            "      \"{}\": {}{}\n",
            provenance.label(),
            tier_json(*provenance),
            if i + 1 < tier_order.len() { "," } else { "" }
        ));
    }
    out.push_str("    },\n");
    out.push_str(&format!("    \"tiered_queries_per_sec\": {tiered_qps:.2},\n"));
    out.push_str(&format!("    \"tier2_only_queries_per_sec\": {tier2_only_qps:.2},\n"));
    out.push_str(&format!("    \"tiered_vs_tier2_only\": {:.3}\n", tiered_qps / tier2_only_qps));
    out.push_str("  },\n");
    out.push_str("  \"overload\": {\n");
    out.push_str(&format!("    \"workers\": {overload_workers},\n"));
    out.push_str(&format!("    \"per_class_requests\": {per_class},\n"));
    out.push_str(&format!("    \"window\": {STORM_WINDOW},\n"));
    out.push_str(&format!("    \"shed\": {},\n", priority_metrics.shed));
    out.push_str(&format!("    \"cancelled\": {},\n", priority_metrics.cancelled));
    out.push_str(&format!("    \"degraded\": {},\n", priority_metrics.degraded_served));
    out.push_str(&format!(
        "    \"priority\": {{\"interactive_e2e\": {}, \"batch_e2e\": {}, \"best_effort_e2e\": {}}},\n",
        latency_quantiles_json(&priority_e2e[0]),
        latency_quantiles_json(&priority_e2e[1]),
        latency_quantiles_json(&priority_e2e[2])
    ));
    out.push_str(&format!(
        "    \"baseline\": {{\"interactive_e2e\": {}}},\n",
        latency_quantiles_json(&baseline_e2e[0])
    ));
    out.push_str(&format!("    \"interactive_p95_ms\": {interactive_p95:.3},\n"));
    out.push_str(&format!("    \"baseline_interactive_p95_ms\": {baseline_p95:.3},\n"));
    out.push_str(&format!("    \"interactive_p95_speedup\": {:.3}\n", baseline_p95 / interactive_p95));
    out.push_str("  },\n");
    out.push_str("  \"network\": {\n");
    out.push_str(&format!("    \"requests\": {},\n", scale.requests));
    out.push_str(&format!("    \"clients\": {net_clients},\n"));
    out.push_str(&format!("    \"handler_threads\": {net_clients},\n"));
    out.push_str(&format!("    \"workers\": {net_workers},\n"));
    out.push_str(&format!("    \"loopback_queries_per_sec\": {net_qps:.2},\n"));
    out.push_str(&format!("    \"e2e\": {},\n", latency_quantiles_json(&net_e2e)));
    out.push_str(&format!("    \"serve_metrics\": {}\n", net_metrics.to_json_indented(2)));
    out.push_str("  },\n");
    out.push_str(&format!("  \"best_queries_per_sec\": {best:.2},\n"));
    // The reference walks the cycled stream in order, so a repeated query
    // is never adjacent to its previous copy: it re-walks every column but
    // the prefix it shares with its predecessor, as in the pool, and the
    // ratio compares equal work.
    out.push_str(&format!(
        "  \"best_vs_single_session_sequential\": {:.3}\n",
        if single_session_qps > 0.0 { best / single_session_qps } else { f64::INFINITY }
    ));
    out.push_str("}\n");
    std::fs::write(&out_path, &out).expect("write BENCH_serve.json");

    println!(
        "\nbest serve throughput: {:.1} queries/sec ({:.3}x single-session sequential)",
        best,
        best / single_session_qps
    );
    println!("wrote {out_path}");
}
