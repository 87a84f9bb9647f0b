//! Quantiles, and the slice estimators of noise rule 3.

/// Linearly interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `values` in ascending order.
pub fn ascending(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&ascending(values.to_vec()), 0.5)
}

/// How one statistic spread over the slices of a load window (or boot
/// times over the boots of a set-up phase): the value the benchmark
/// reports, its best decile, and what a reader needs to judge it.
#[derive(Clone, Copy, Debug)]
pub struct Spread {
    pub best_decile: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Spread {
    /// Interference from the shared host only ever makes a sample slower,
    /// so the estimate is the best decile: the 90th percentile when
    /// higher is better, the 10th when lower is.
    pub fn of(samples: Vec<f64>, higher_is_better: bool) -> Self {
        let s = ascending(samples);
        Spread {
            best_decile: quantile(&s, if higher_is_better { 0.9 } else { 0.1 }),
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
        }
    }
}

/// A latency histogram with 1 % wide buckets: what the pooled 99th
/// percentile of a window is read from, in constant memory (a sample
/// kept per operation would make peak memory grow with throughput).
#[derive(Debug)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
}

/// Ratio between the edges of one bucket.
const BUCKET_RATIO: f64 = 1.01;

impl LogHistogram {
    /// Covers 1 ns to about 20 s; longer samples land in the last bucket.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; 2400],
            total: 0,
        }
    }

    pub fn record(&mut self, nanoseconds: f64) {
        let bucket = (nanoseconds.max(1.0).ln() / BUCKET_RATIO.ln()) as usize;
        let last = self.counts.len() - 1;
        self.counts[bucket.min(last)] += 1;
        self.total += 1;
    }

    /// Upper edge in nanoseconds of the bucket holding quantile `q`.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = (q * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (bucket, count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return BUCKET_RATIO.powi(bucket as i32 + 1);
            }
        }
        f64::NAN
    }
}
