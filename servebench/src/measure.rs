//! Pure statistics over the samples one run collects: medians, tail
//! percentiles that refuse thin tails, the per-request time split
//! and the per-window rates behind throughput and CPU per request.

use std::fmt;

/// The fewest samples a tail percentile must leave beyond itself.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// A tail percentile asked of a sample too small to support it.
#[derive(Debug, Clone, PartialEq)]
pub struct ThinTail {
    /// The percentile asked for.
    pub percentile: f64,
    /// Samples available.
    pub samples: usize,
    /// Samples that would lie beyond the percentile.
    pub beyond: usize,
}

impl fmt::Display for ThinTail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} of {} samples leaves {} beyond it; at least {} are needed",
            self.percentile, self.samples, self.beyond, MIN_TAIL_SAMPLES
        )
    }
}

/// Samples of `n` that lie beyond percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    // Exact for the percentiles used here (p50, p99): the tail holds
    // `n * (100 - p) / 100` samples, rounded down.
    ((n as f64) * (100.0 - p) / 100.0 + 1e-9).floor() as usize
}

/// Percentile `p` of `samples`, refused unless at least
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Result<f64, ThinTail> {
    let beyond = samples_beyond(samples.len(), p);
    if beyond < MIN_TAIL_SAMPLES {
        return Err(ThinTail { percentile: p, samples: samples.len(), beyond });
    }
    Ok(naru_tensor::percentile(samples, p))
}

/// Percentile `p` when the sample supports it, otherwise the highest
/// percentile that still leaves [`MIN_TAIL_SAMPLES`] beyond it (the median
/// of an empty sample is 0). Used for per-layer tails on workloads where
/// the layer sees few calls.
pub fn supported_percentile(samples: &[f64], p: f64) -> f64 {
    match tail_percentile(samples, p) {
        Ok(value) => value,
        Err(_) if samples.is_empty() => 0.0,
        Err(_) => {
            let n = samples.len() as f64;
            let highest = (100.0 * (1.0 - MIN_TAIL_SAMPLES as f64 / n)).max(50.0);
            naru_tensor::percentile(samples, highest)
        }
    }
}

/// Median of `samples` (0 for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        naru_tensor::percentile(samples, 50.0)
    }
}

/// Mean of the middle half of `samples` (the interquartile mean): as robust
/// to a few outlying windows as the median, but not stepped by the integer
/// completion counts of one-second windows at a few dozen requests per
/// second.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// One request's client-observed latency, split into the server-reported
/// queue wait and walk time and the residual the client saw on top of
/// them (protocol, loopback, handler hand-off, ticket wake-up). The three
/// parts sum to the client latency by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeSplit {
    /// Time the request waited in the serve queue.
    pub queue_ms: f64,
    /// Time the answer took to compute (zero for a cache hit, which
    /// computes nothing even though it reports the original walk's time).
    pub walk_ms: f64,
    /// Everything else: client latency minus queue wait minus walk.
    pub residual_ms: f64,
}

impl TimeSplit {
    /// Splits `client_ms` given the server-reported parts.
    pub fn new(client_ms: f64, queue_ms: f64, walk_ms: f64) -> Self {
        Self { queue_ms, walk_ms, residual_ms: client_ms - queue_ms - walk_ms }
    }

    /// The parts summed back together.
    #[cfg(test)]
    pub fn total_ms(&self) -> f64 {
        self.queue_ms + self.walk_ms + self.residual_ms
    }
}

/// One sample of the run's progress, taken at each window boundary.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    /// Seconds since the measured phase began.
    pub at_s: f64,
    /// Requests completed so far.
    pub completed: u64,
    /// Process CPU time (user + system) so far, in milliseconds.
    pub cpu_ms: f64,
}

/// Per-window throughput (requests/s) and CPU per request (ms) between
/// consecutive ticks. Windows in which nothing completed contribute a zero
/// rate and no CPU-per-request figure.
pub fn window_rates(ticks: &[Tick]) -> (Vec<f64>, Vec<f64>) {
    let mut qps = Vec::with_capacity(ticks.len());
    let mut cpu = Vec::with_capacity(ticks.len());
    for pair in ticks.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let done = b.completed.saturating_sub(a.completed);
        let span = b.at_s - a.at_s;
        if span <= 0.0 {
            continue;
        }
        qps.push(done as f64 / span);
        if done > 0 {
            cpu.push((b.cpu_ms - a.cpu_ms) / done as f64);
        }
    }
    (qps, cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_refuses_fewer_than_ten_samples_beyond() {
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        let err = tail_percentile(&samples, 99.0).expect_err("999 samples leave 9 beyond p99");
        assert_eq!(err.beyond, 9);
        assert!(tail_percentile(&samples[..19], 50.0).is_err(), "19 samples leave 9 beyond p50");

        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = tail_percentile(&samples, 99.0).expect("1000 samples leave 10 beyond p99");
        assert!((p99 - 989.01).abs() < 1e-9, "{p99}");
        assert_eq!(tail_percentile(&samples[..20], 50.0), Ok(9.5));
    }

    #[test]
    fn supported_percentile_falls_back_to_the_highest_supported_tail() {
        let samples: Vec<f64> = (0..100).map(f64::from).collect();
        // 100 samples support p90 (10 beyond), not p99.
        assert_eq!(supported_percentile(&samples, 99.0), naru_tensor::percentile(&samples, 90.0));
        assert_eq!(supported_percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn q_error_of_a_perfect_answer_is_one() {
        use naru_query::q_error_from_selectivity as q_error;
        assert_eq!(q_error(0.125, 0.125, 5000), 1.0);
        assert_eq!(q_error(0.0, 0.0, 5000), 1.0);
        assert_eq!(q_error(0.002, 0.001, 5000), 2.0);
        assert_eq!(q_error(0.001, 0.002, 5000), 2.0);
    }

    #[test]
    fn http_time_split_sums_to_the_client_latency() {
        for &(client, queue, walk) in &[(70.0, 3.0, 61.5), (0.21, 0.0, 0.0), (5.0, 0.0, 4.999), (61.0, 0.0, 61.0)] {
            let split = TimeSplit::new(client, queue, walk);
            assert!((split.total_ms() - client).abs() < 1e-12, "{split:?}");
            assert!(split.residual_ms >= 0.0);
        }
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[100.0, 27.0, 28.0, 0.0, 26.0, 29.0, 27.0, 28.0]), 27.5);
        assert_eq!(interquartile_mean(&[3.0]), 3.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn window_rates_are_per_window() {
        let ticks = [
            Tick { at_s: 0.0, completed: 0, cpu_ms: 0.0 },
            Tick { at_s: 1.0, completed: 30, cpu_ms: 1500.0 },
            Tick { at_s: 2.0, completed: 30, cpu_ms: 1600.0 },
            Tick { at_s: 2.5, completed: 50, cpu_ms: 2600.0 },
        ];
        let (qps, cpu) = window_rates(&ticks);
        assert_eq!(qps, vec![30.0, 0.0, 40.0]);
        assert_eq!(cpu, vec![50.0, 50.0]);
    }
}
