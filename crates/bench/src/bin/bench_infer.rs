//! End-to-end estimator-latency benchmark: trains a MADE model on the
//! DMV-style synthetic table, runs a generated workload through progressive
//! sampling over two code paths, and writes `BENCH_infer.json`:
//!
//! * **baseline** — the pre-optimization inference path: naive matmul
//!   kernels ([`naru_tensor::KernelPolicy::Naive`]) driving the reference
//!   sampler (allocating per-column `conditionals`, fresh masked vectors,
//!   no dead-path compaction);
//! * **optimized** — the current hot path, one `Session::estimate` per
//!   query through the Engine/Session API: blocked/parallel `_into`
//!   kernels, workspace-reused activations, incremental prefix encoding,
//!   per-block output heads, dead-path compaction, and resumption from the
//!   previous query's shared column prefix.
//!
//! ```text
//! cargo run --release -p naru-bench --bin bench_infer            # default scale
//! cargo run --release -p naru-bench --bin bench_infer -- --smoke # CI-sized
//! cargo run --release -p naru-bench --bin bench_infer -- --out path.json
//! ```

use std::cell::Cell;

use naru_bench::latency::{render_report, time_workload, LatencyStats};
use naru_core::{NaruConfig, NaruEstimator, ProgressiveSampler, SamplerConfig};
use naru_data::synthetic::dmv_like;
use naru_query::{generate_workload, WorkloadConfig};
use naru_tensor::{set_kernel_policy, KernelPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct BenchScale {
    rows: usize,
    queries: usize,
    num_samples: usize,
    epochs: usize,
    label: &'static str,
}

const DEFAULT: BenchScale = BenchScale { rows: 5000, queries: 32, num_samples: 600, epochs: 3, label: "default" };
const SMOKE: BenchScale = BenchScale { rows: 600, queries: 6, num_samples: 100, epochs: 1, label: "smoke" };

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = DEFAULT;
    let mut out_path = "BENCH_infer.json".to_string();
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
        "bench_infer [{}]: {} rows, {} queries, {} sample paths, {} training epochs",
        scale.label, scale.rows, scale.queries, scale.num_samples, scale.epochs
    );

    let table = dmv_like(scale.rows, 42);
    let n = table.num_columns();
    let mut config = NaruConfig::small().with_samples(scale.num_samples);
    config.train.epochs = scale.epochs;
    config.train.compute_data_entropy = false;
    config.train.eval_tuples = 0;
    let train_start = std::time::Instant::now();
    let (estimator, _) = NaruEstimator::train(&table, &config);
    let model_params = estimator.model().param_count();
    println!("trained MADE ({} params) in {:.1}s", model_params, train_start.elapsed().as_secs_f64());

    let mut rng = StdRng::seed_from_u64(7);
    // One extra query, kept out of the measured set, warms the paths up:
    // warming with a measured query would let its timed walk resume from
    // the warm-up's memoized prefix for free.
    let mut workload = generate_workload(&table, &WorkloadConfig::default(), scale.queries + 1, &mut rng);
    let warm = workload.pop().expect("workload has a warm-up query");

    // The reference sampler shares seed 0 with the engine's sessions so
    // both paths walk statistically identical estimates.
    let reference_sampler = ProgressiveSampler::new(SamplerConfig { num_samples: scale.num_samples, seed: 0 });
    let engine = estimator.into_engine();
    let mut session = engine.session();

    // Warm up both measured paths once, through the same sampler and
    // session the timed loops use, so their scratch buffers are
    // materialized before the first measured query.
    let _ = reference_sampler.estimate_detailed_reference(engine.density(), &warm.query.constraints(n));
    let _ = session.estimate(&warm.query);

    // Baseline: pre-refactor path — naive kernels + allocating reference
    // sampler.
    set_kernel_policy(KernelPolicy::Naive);
    let base_paths = Cell::new(0u64);
    let (base_lat, base_acc) = time_workload(&workload, |lq| {
        let est = reference_sampler.estimate_detailed_reference(engine.density(), &lq.query.constraints(n));
        base_paths.set(base_paths.get() + (scale.num_samples * est.columns_walked) as u64);
        est.selectivity
    });
    let baseline = LatencyStats::from_latencies(&base_lat, base_paths.get());

    // Optimized: current hot path with the default kernel policy. It walks
    // the same columns with the same path count, so `samples_per_sec`
    // reports the baseline's nominal work volume.
    set_kernel_policy(KernelPolicy::Auto);
    let (opt_lat, opt_acc) = time_workload(&workload, |lq| {
        session.estimate(&lq.query).expect("generated workload queries are valid").selectivity
    });
    let optimized = LatencyStats::from_latencies(&opt_lat, base_paths.get());

    // Both paths estimate the same workload with the same seeds, but with
    // different kernel tiers: a conditional probability landing within
    // kernel rounding of a uniform draw can flip one sampled id and fork
    // that path's whole RNG stream, so small drift is benign. Only gross
    // divergence (wrong code path) should fail the run.
    let drift = (base_acc - opt_acc).abs() / base_acc.abs().max(1e-12);
    println!("summed-selectivity drift between paths: {drift:.2e}");
    assert!(drift < 0.05, "baseline and optimized estimates diverged grossly: {base_acc} vs {opt_acc}");

    let meta: Vec<(&str, String)> = vec![
        ("scale", format!("\"{}\"", scale.label)),
        ("table_rows", scale.rows.to_string()),
        ("columns", n.to_string()),
        ("queries", scale.queries.to_string()),
        ("num_samples", scale.num_samples.to_string()),
        ("model_params", model_params.to_string()),
        // Detected cores vs what the tensor kernels will actually use
        // (their parallel tier caps at 8 threads).
        ("threads_detected", std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1).to_string()),
        ("threads_used", std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1).min(8).to_string()),
        (
            "baseline_path",
            "\"pre-refactor: naive kernels + allocating conditionals + uncompacted sampler\"".to_string(),
        ),
    ];
    let report = render_report(&baseline, &optimized, &meta);
    std::fs::write(&out_path, &report).expect("write BENCH_infer.json");

    println!("\n{:>12} {:>10} {:>10} {:>12} {:>14}", "path", "p50 ms", "p95 ms", "queries/s", "samples/s");
    for (name, stats) in [("baseline", &baseline), ("optimized", &optimized)] {
        println!(
            "{:>12} {:>10.2} {:>10.2} {:>12.1} {:>14.0}",
            name, stats.p50_ms, stats.p95_ms, stats.queries_per_sec, stats.samples_per_sec
        );
    }
    println!("\nspeedup (queries/sec): {:.2}x", baseline.mean_ms / optimized.mean_ms);
    println!("wrote {out_path}");
}
