//! Order statistics, report digests and process memory.

use npsim::SimReport;

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `samples` with the same quartile rule as Python's
    /// `statistics.quantiles(values, n=4)` (the "exclusive" method), so
    /// the spread printed here matches the one the run-to-run check
    /// computes. Fewer than two samples collapse every quartile to the
    /// single value; no samples give NaN.
    pub fn of(samples: &[f64]) -> Summary {
        let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let at = |p: f64| -> f64 {
            match n {
                0 => f64::NAN,
                1 => v[0],
                _ => {
                    // Exclusive method: position p·(n+1), 1-based.
                    let pos = p * (n as f64 + 1.0);
                    let lo = (pos.floor() as usize).clamp(1, n - 1);
                    let frac = (pos - lo as f64).clamp(0.0, 1.0);
                    v[lo - 1] + (v[lo] - v[lo - 1]) * frac
                }
            }
        };
        let median = match n {
            0 => f64::NAN,
            _ if n % 2 == 1 => v[n / 2],
            _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        };
        Summary {
            median,
            q1: at(0.25),
            q3: at(0.75),
            n,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1).abs() / self.median.abs()
    }
}

/// Exact nearest-rank percentile of `sorted` (ascending); 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile over a histogram of small integer values.
pub fn percentile_of_counts(counts: &[u64], p: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (value, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return value as u64;
        }
    }
    (counts.len() - 1) as u64
}

/// FNV-1a digest of a report's canonical JSON serialization: two runs
/// that describe the same simulation have the same digest.
pub fn digest(report: &SimReport) -> u64 {
    let text = serde_json::to_string(report).unwrap_or_default();
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert!((s.q1 - 2.75).abs() < 1e-12);
        assert!((s.median - 5.5).abs() < 1e-12);
        assert!((s.q3 - 8.25).abs() < 1e-12);
        assert_eq!(s.n, 10);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile_of_counts(&[0, 10, 0, 90], 5.0), 1);
        assert_eq!(percentile_of_counts(&[0, 10, 0, 90], 99.0), 3);
    }
}
