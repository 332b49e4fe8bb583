//! The serving stack's benchmark: trains the model at `bench_serve`'s
//! default scale, serves it through one tiered, cached worker pool, drives
//! one of three traffic mixes at it for a fixed time, checks the answers,
//! and prints every metric by name and unit. See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload distinct_http --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": true, "attempted": …, "failed": …, "metrics": {…}}`, with the
//! end-to-end metrics for `--trace 0` and the per-layer metrics for
//! `--trace 1`. A failed correctness gate exits 1 without printing it.

mod check;
mod http;
mod measure;
mod sys;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use naru_core::{Engine, InferenceScratch, NaruConfig, NaruEstimator};
use naru_data::synthetic::dmv_like;
use naru_data::Table;
use naru_net::{NetConfig, NetServer};
use naru_query::{q_error_from_selectivity, true_selectivity, Provenance};
use naru_serve::{MetricsSnapshot, ServeConfig, Server};
use naru_tensor::{matmul_a_bt_into, softmax_rows_inplace, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::measure::{
    interquartile_mean, median, supported_percentile, tail_percentile, window_rates, Tick, TimeSplit,
};
use crate::trace::{durations_us, Span};
use crate::workload::{ClientOut, Record, Shared, Traffic, Workload};

/// `bench_serve`'s default scale, so the numbers stay comparable with
/// `BENCH_serve.json`.
const ROWS: usize = 5000;
const TABLE_SEED: u64 = 42;
const NUM_SAMPLES: usize = 600;
const EPOCHS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// 8 shards of 96 entries. The skewed pool (128 queries) and the novel
/// conjunctions of a 20-second run (about 560 on two cores) fit without
/// eviction, so that mix stays read-heavy; the thousand inserts of a
/// distinct run overflow it.
const CACHE_CAPACITY: usize = 768;
/// Fan-out requests kept in flight per core.
const WINDOW_PER_CORE: usize = 4;
/// Answers compared with the single-session reference per distinct run
/// (a quarter of that on the skewed mix, where every cache hit is also
/// compared with the first answer served for its query).
const REFERENCE_CHECKS: usize = 64;
/// Latency samples a run needs for its p99 to have ten samples beyond it.
const MIN_LATENCY_SAMPLES: u64 = 1000;
/// Longest a run measures when the slowest workloads need longer than
/// `--seconds` to collect `MIN_LATENCY_SAMPLES`.
const MAX_MEASURE_SECONDS: u64 = 120;
/// Repetitions of each traced kernel probe.
const PROBE_REPS: usize = 200;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().ok().filter(|&s| s > 0).ok_or(format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\nusage: servebench --workload distinct_http|skewed_http|fanout_inproc --seed N --seconds S --trace 0|1");
            #[allow(clippy::disallowed_methods)] // usage error before any thread exists
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("servebench: {e}");
            #[allow(clippy::disallowed_methods)] // every thread has been joined by now
            std::process::exit(1);
        }
    }
}

/// The served stack: HTTP front end or bare pool.
enum Front {
    Http(NetServer),
    InProc(Server),
}

impl Front {
    fn shutdown(self) -> MetricsSnapshot {
        match self {
            Front::Http(net) => net.shutdown(),
            Front::InProc(server) => server.shutdown(),
        }
    }
}

struct Stack {
    table: Table,
    engine: Engine,
    front: Front,
    model_bytes: usize,
    hidden: Vec<usize>,
}

struct SetupTimes {
    total_s: f64,
    table_gen_s: f64,
    train_s: f64,
}

fn naru_config() -> NaruConfig {
    let mut config = NaruConfig::small().with_samples(NUM_SAMPLES);
    config.train.epochs = EPOCHS;
    config.train.compute_data_entropy = false;
    config.train.eval_tuples = 0;
    config
}

fn serve_config() -> ServeConfig {
    ServeConfig::default().with_cache_capacity(CACHE_CAPACITY)
}

/// Handler threads: one per client plus one, since an idle keep-alive
/// connection pins its handler.
fn handler_threads(nproc: usize) -> usize {
    nproc + 1
}

/// Table generation, training and server start, up to the first ready
/// answer (`GET /healthz` for HTTP, a started pool in process).
fn set_up(workload: Workload, nproc: usize) -> Result<(Stack, SetupTimes), String> {
    let start = Instant::now();
    let table = dmv_like(ROWS, TABLE_SEED);
    let table_gen_s = start.elapsed().as_secs_f64();
    let config = naru_config();
    let train_start = Instant::now();
    let (estimator, _) = NaruEstimator::train(&table, &config);
    let train_s = train_start.elapsed().as_secs_f64();
    let model_bytes = estimator.model().size_bytes();
    let engine = estimator.into_engine();
    let server = Server::start(engine.clone(), serve_config()).map_err(|e| format!("serve config: {e}"))?;
    let front = if workload.is_http() {
        let net = NetServer::start(server, NetConfig::default().with_handler_threads(handler_threads(nproc)))
            .map_err(|e| format!("bind loopback: {e}"))?;
        let status = http::Client::connect(net.local_addr())?.get("/healthz")?;
        if status != 200 {
            return Err(format!("/healthz answered {status}"));
        }
        Front::Http(net)
    } else {
        Front::InProc(server)
    };
    let total_s = start.elapsed().as_secs_f64();
    let stack = Stack { table, engine, front, model_bytes, hidden: config.model.hidden_sizes.clone() };
    Ok((stack, SetupTimes { total_s, table_gen_s, train_s }))
}

/// What the measured phase produced.
struct Measured {
    ticks: Vec<Tick>,
    /// Whether window `i` (between ticks `i` and `i + 1`) was traced.
    traced_windows: Vec<bool>,
    measured_s: f64,
    clients: Vec<ClientOut>,
}

/// Runs the load generators until `seconds` have passed and enough
/// latency samples exist, ticking once a second. A traced run alternates
/// untraced and traced one-second slices, so both throughputs come from
/// the same run.
fn drive(stack: &Stack, shared: &Shared<'_>, args: &Args, nproc: usize) -> Result<Measured, String> {
    let epoch = Instant::now();
    let span_epoch = args.trace.then_some(epoch);
    let mut ticks = Vec::new();
    let mut traced_windows = Vec::new();
    let clients = std::thread::scope(|scope| -> Result<Vec<ClientOut>, String> {
        let handles: Vec<_> = match &stack.front {
            Front::Http(net) => (0..nproc)
                .map(|_| {
                    let addr = net.local_addr();
                    scope.spawn(move || workload::http_client(addr, shared, span_epoch))
                })
                .collect(),
            Front::InProc(server) => {
                let window = WINDOW_PER_CORE * nproc;
                vec![scope.spawn(move || Ok(workload::fanout(server, shared, window, span_epoch)))]
            }
        };
        let sample = |at: Instant| -> Result<Tick, String> {
            Ok(Tick {
                at_s: at.duration_since(epoch).as_secs_f64(),
                completed: shared.completed.load(Ordering::Relaxed),
                cpu_ms: sys::cpu_ms()?,
            })
        };
        let mut outcome = Ok(());
        let measure_start = Instant::now();
        match sample(measure_start) {
            Ok(t) => ticks.push(t),
            Err(e) => outcome = Err(e),
        }
        let mut k = 0u64;
        while outcome.is_ok() {
            traced_windows.push(shared.tracing.load(Ordering::Relaxed));
            k += 1;
            let due = measure_start + Duration::from_secs(k);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                #[allow(clippy::disallowed_methods)] // the ticker's only job is to wake once a second
                std::thread::sleep(wait);
            }
            match sample(Instant::now()) {
                Ok(t) => ticks.push(t),
                Err(e) => outcome = Err(e),
            }
            if args.trace {
                shared.tracing.store(k % 2 == 1, Ordering::Relaxed);
            }
            let done = shared.completed.load(Ordering::Relaxed);
            if shared.exhausted.load(Ordering::Acquire) {
                outcome = Err("the distinct stream ran out; raise DISTINCT_PER_SECOND".to_owned());
            }
            if (k >= args.seconds && done >= MIN_LATENCY_SAMPLES + nproc as u64) || k >= MAX_MEASURE_SECONDS {
                break;
            }
        }
        shared.stop.store(true, Ordering::Release);
        let mut outs = Vec::with_capacity(handles.len());
        for handle in handles {
            outs.push(handle.join().map_err(|_| "load generator panicked".to_owned())??);
        }
        outcome.map(|()| outs)
    })?;
    let measured_s = ticks.last().map_or(0.0, |t| t.at_s) - ticks.first().map_or(0.0, |t| t.at_s);
    Ok(Measured { ticks, traced_windows, measured_s, clients })
}

/// One metric line of the final JSON object.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn run(args: &Args) -> Result<String, String> {
    let nproc = sys::nproc();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        let (next, times) = set_up(args.workload, nproc)?;
        if let Some(previous) = stack.replace(next) {
            previous.front.shutdown();
        }
        setups.push(times);
    }
    let stack = stack.ok_or("no set-up ran")?;
    let num_columns = stack.table.num_columns();

    let traffic = Traffic::generate(args.workload, &stack.table, args.seed, args.seconds)?;
    let warm = match &stack.front {
        Front::Http(net) if !traffic.pool().is_empty() => workload::warm_up(net.local_addr(), traffic.pool(), nproc)?,
        _ => Vec::new(),
    };
    let shared = Shared::new(&traffic, num_columns);
    let measured = drive(&stack, &shared, args, nproc)?;
    let Stack { table, engine, front, model_bytes, hidden } = stack;
    let metrics = front.shutdown();

    let mut records: Vec<Record> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    for out in measured.clients {
        attempted += out.attempted;
        records.extend(out.records);
        spans.extend(out.spans);
        failures.extend(out.failures);
    }
    for failure in failures.iter().take(5) {
        eprintln!("servebench: request failed: {failure}");
    }

    // ---- Correctness gates (outside the measured phase) ----
    check::accounting(&metrics, (warm.len() + records.len()) as u64)?;
    let distinct_share = check::distinct_share(&traffic, attempted as usize, num_columns)?;
    let checked = if args.workload.is_distinct() {
        if distinct_share != 1.0 {
            return Err(format!("a distinct stream repeated a query: distinct share {distinct_share}"));
        }
        check::reference(&engine, &traffic, &records, REFERENCE_CHECKS, args.seed, nproc)?
    } else {
        check::cache_hits(&warm, &records)?;
        let served: Vec<Record> = records.iter().copied().filter(|r| r.provenance != Provenance::CacheHit).collect();
        let hits = records.len() - served.len();
        hits + check::reference(&engine, &traffic, &served, REFERENCE_CHECKS / 4, args.seed, nproc)?
    };

    let workers = serve_config().num_workers;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# provenance {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"cpu_model\": \"{}\", \
         \"workers\": {}, \"handler_threads\": {}, \"clients\": {}, \"window\": {}, \"cache_capacity\": {}, \
         \"sent\": {}, \"succeeded\": {}, \"failed\": {}, \"measured_s\": {:.3}, \"answers_checked\": {}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        nproc,
        sys::cpu_model().replace('"', "'"),
        workers,
        if args.workload.is_http() { handler_threads(nproc) } else { 0 },
        if args.workload.is_http() { nproc } else { 1 },
        if args.workload.is_http() { 1 } else { WINDOW_PER_CORE * nproc },
        CACHE_CAPACITY,
        attempted,
        records.len(),
        failures.len(),
        measured.measured_s,
        checked,
    );

    let (window_qps, window_cpu) = window_rates(&measured.ticks);
    let metric_list = if args.trace {
        let probes = layer_probes(&engine, &table, &hidden, args.seed);
        write_trace(args, &spans)?;
        let ctx = LayerContext {
            setups: &setups,
            warm: &warm,
            records: &records,
            spans: &spans,
            metrics: &metrics,
            window_qps: &window_qps,
            traced_windows: &measured.traced_windows,
            model_bytes,
            distinct_share,
        };
        layer_metrics(&ctx, &probes)
    } else {
        end_to_end_metrics(&setups, &records, &traffic, &table, &window_qps, &window_cpu, attempted)?
    };

    out.push_str(&format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        attempted,
        failures.len()
    ));
    for (i, m) in metric_list.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        out.push_str(&format!("{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit));
    }
    out.push_str("}}\n");
    Ok(out)
}

fn end_to_end_metrics(
    setups: &[SetupTimes],
    records: &[Record],
    traffic: &Traffic,
    table: &Table,
    window_qps: &[f64],
    window_cpu: &[f64],
    attempted: u64,
) -> Result<Vec<Metric>, String> {
    let setup: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    let latency: Vec<f64> = records.iter().map(|r| r.client_ms).collect();
    // Ground truth per distinct query, computed once.
    let mut truth: Vec<Option<f64>> = vec![None; traffic.queries.len()];
    let mut errors = Vec::with_capacity(records.len());
    for r in records {
        let slot = truth.get_mut(r.query as usize).ok_or("record names no query")?;
        let actual = *slot.get_or_insert_with(|| true_selectivity(table, &traffic.queries[r.query as usize]));
        errors.push(q_error_from_selectivity(r.selectivity, actual, table.num_rows()));
    }
    let thin = |what: &str, e: measure::ThinTail| format!("{what}: {e}; measure longer");
    Ok(vec![
        metric("setup_s", median(&setup), "s"),
        metric("throughput_qps", interquartile_mean(window_qps), "1/s"),
        metric("latency_p50_ms", median(&latency), "ms"),
        metric("latency_p99_ms", tail_percentile(&latency, 99.0).map_err(|e| thin("latency_p99_ms", e))?, "ms"),
        metric("cpu_ms_per_query", interquartile_mean(window_cpu), "ms"),
        metric("served_share", records.len() as f64 / attempted.max(1) as f64, "ratio"),
        metric("qerror_p50", median(&errors), "ratio"),
        metric("qerror_p99", tail_percentile(&errors, 99.0).map_err(|e| thin("qerror_p99", e))?, "ratio"),
        metric("peak_rss_mb", sys::peak_rss_mb()?, "MiB"),
    ])
}

/// Kernel- and model-level timings taken after the measured phase, on the
/// serving model's own shapes.
struct Probes {
    matmul_us: f64,
    matmul_gmacs: f64,
    softmax_us: f64,
    conditionals_ms: f64,
}

fn time_median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..reps / 10 {
        f();
    }
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

fn layer_probes(engine: &Engine, table: &Table, hidden: &[usize], seed: u64) -> Probes {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = NUM_SAMPLES;
    // A hidden-to-hidden layer at the walk's batch height, computed as
    // `Linear` does (weights stored out × in).
    let (inner, outer) = (hidden.first().copied().unwrap_or(64), hidden.get(1).copied().unwrap_or(64));
    let x = Matrix::from_fn(rows, inner, |_, _| rng.gen_range(0.0f32..1.0));
    let w = Matrix::from_fn(outer, inner, |_, _| rng.gen_range(-0.5f32..0.5));
    let mut y = Matrix::zeros(rows, outer);
    let matmul_us = time_median_us(PROBE_REPS, || matmul_a_bt_into(black_box(&x), black_box(&w), &mut y));
    let macs = (rows * inner * outer) as f64;

    let widest = engine.domain_sizes().iter().copied().max().unwrap_or(1);
    let mut logits = Matrix::from_fn(rows, widest, |_, _| rng.gen_range(-4.0f32..4.0));
    let softmax_us = time_median_us(PROBE_REPS, || softmax_rows_inplace(black_box(&mut logits)));

    // One full pass of per-column conditionals over 600 table tuples, the
    // forward work of one progressive-sampling walk.
    let n = table.num_columns();
    let mut flat = Vec::with_capacity(rows * n);
    for _ in 0..rows {
        let row = rng.gen_range(0..table.num_rows());
        flat.extend((0..n).map(|c| table.column(c).id_at(row)));
    }
    let density = engine.density();
    let mut scratch = InferenceScratch::new();
    let mut out = Matrix::zeros(0, 0);
    let conditionals_us = time_median_us(20, || {
        scratch.reset();
        for col in 0..n {
            density.conditionals_into(black_box(&flat), n, col, &mut out, &mut scratch);
        }
    });
    Probes { matmul_us, matmul_gmacs: macs / (matmul_us * 1e3), softmax_us, conditionals_ms: conditionals_us / 1e3 }
}

/// Writes the spans as JSON lines under `.bench_out/` in the working
/// directory.
fn write_trace(args: &Args, spans: &[Span]) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("servebench-{}-{}.spans.jsonl", args.workload.name(), args.seed));
    std::fs::write(&path, trace::to_json_lines(spans)).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("servebench: wrote {} spans to {}", spans.len(), path.display());
    Ok(())
}

struct LayerContext<'a> {
    setups: &'a [SetupTimes],
    warm: &'a [Record],
    records: &'a [Record],
    spans: &'a [Span],
    metrics: &'a MetricsSnapshot,
    window_qps: &'a [f64],
    traced_windows: &'a [bool],
    model_bytes: usize,
    distinct_share: f64,
}

fn layer_metrics(ctx: &LayerContext<'_>, probes: &Probes) -> Vec<Metric> {
    let traced: Vec<&Record> = ctx.records.iter().filter(|r| r.traced).collect();
    // Routing counts come from every answer, traced or not: which tier
    // computed each answer a worker served (warm-up included), and how many
    // requests the cache answered.
    let computed: Vec<&Record> =
        ctx.warm.iter().chain(ctx.records).filter(|r| r.provenance != Provenance::CacheHit).collect();
    let tier_share =
        |p: Provenance| computed.iter().filter(|r| r.provenance == p).count() as f64 / computed.len().max(1) as f64;
    let hits = ctx.records.iter().filter(|r| r.provenance == Provenance::CacheHit).count();
    let walks: Vec<&Record> = traced.iter().copied().filter(|r| r.provenance == Provenance::Tier2Model).collect();
    let walk_ms: Vec<f64> = walks.iter().map(|r| r.wall_ms).collect();
    let live: Vec<f64> =
        walks.iter().filter_map(|r| r.live_paths).map(|paths| paths as f64 / NUM_SAMPLES as f64).collect();
    let queued: Vec<&Record> = traced.iter().copied().filter(|r| r.provenance != Provenance::CacheHit).collect();
    let queue_ms: Vec<f64> = queued.iter().map(|r| r.queue_ms).collect();
    let batch: Vec<f64> = queued.iter().map(|r| r.batch_size as f64).collect();
    let splits: Vec<TimeSplit> = traced
        .iter()
        .map(|r| {
            // A cache hit reports the original walk's time but computed
            // nothing.
            let walk = if r.provenance == Provenance::CacheHit { 0.0 } else { r.wall_ms };
            TimeSplit::new(r.client_ms, r.queue_ms, walk)
        })
        .collect();
    let residual: Vec<f64> = splits.iter().map(|s| s.residual_ms).collect();
    let client_total: f64 = traced.iter().map(|r| r.client_ms).sum();

    let setup = |f: fn(&SetupTimes) -> f64| median(&ctx.setups.iter().map(f).collect::<Vec<_>>());
    let train_s = setup(|s| s.train_s);
    let windows = |want: bool| -> Vec<f64> {
        ctx.window_qps.iter().zip(ctx.traced_windows).filter(|(_, &t)| t == want).map(|(&q, _)| q).collect()
    };
    let untraced_qps = interquartile_mean(&windows(false));
    let span_median = |name: &str| median(&durations_us(ctx.spans, name));
    let m = ctx.metrics;
    vec![
        metric("data.table_gen_s", setup(|s| s.table_gen_s), "s"),
        metric("core.train_s", train_s, "s"),
        metric("core.train_tuples_per_s", (ROWS * EPOCHS) as f64 / train_s, "1/s"),
        metric("core.model_bytes", ctx.model_bytes as f64, "bytes"),
        metric("tensor.matmul_us", probes.matmul_us, "us"),
        metric("tensor.matmul_gmacs_per_s", probes.matmul_gmacs, "GMAC/s"),
        metric("tensor.softmax_us", probes.softmax_us, "us"),
        metric("nn.conditionals_ms", probes.conditionals_ms, "ms"),
        metric("core.walk_ms_p50", median(&walk_ms), "ms"),
        metric("core.walk_ms_p99", supported_percentile(&walk_ms, 99.0), "ms"),
        metric("core.live_path_share", measure::mean(&live), "ratio"),
        metric("core.tier0_share", tier_share(Provenance::Tier0Exact), "ratio"),
        metric("core.tier1_share", tier_share(Provenance::Tier1Sketch), "ratio"),
        metric("core.tier2_share", tier_share(Provenance::Tier2Model), "ratio"),
        metric("serve.cache_hit_share", hits as f64 / ctx.records.len().max(1) as f64, "ratio"),
        metric("serve.cache_evictions", m.cache_evictions as f64, "count"),
        metric("serve.submit_us_p50", span_median("serve.submit"), "us"),
        metric("serve.queue_wait_ms_p50", median(&queue_ms), "ms"),
        metric("serve.queue_wait_ms_p99", supported_percentile(&queue_ms, 99.0), "ms"),
        metric("serve.batch_size_mean", measure::mean(&batch), "count"),
        metric("serve.fused_batch_share", m.fused_batches as f64 / m.batches.max(1) as f64, "ratio"),
        metric("query.encode_us", span_median("query.encode"), "us"),
        metric("query.decode_us", span_median("query.decode"), "us"),
        metric("query.key_us", span_median("query.key"), "us"),
        metric("net.residual_ms_p50", median(&residual), "ms"),
        metric("net.residual_share", residual.iter().sum::<f64>() / client_total.max(f64::MIN_POSITIVE), "ratio"),
        metric("serve.failed", m.failed as f64, "count"),
        metric("serve.shed", m.shed as f64, "count"),
        metric("serve.rejected", m.rejected as f64, "count"),
        metric(
            "bench.trace_overhead",
            1.0 - interquartile_mean(&windows(true)) / untraced_qps.max(f64::MIN_POSITIVE),
            "ratio",
        ),
        metric("bench.distinct_share", ctx.distinct_share, "ratio"),
    ]
}
