//! Exact nearest-rank quantiles over raw samples.
//!
//! Every timing the benchmark reports goes through [`nearest_rank`]. The
//! log₂-bucket `telemetry::Histogram::quantile` interpolates inside a
//! bucket, so distinct runs can print the very same bucket midpoint; a
//! nearest-rank quantile is always one of the measured samples.

/// The nearest-rank `p`-quantile (`0 < p <= 1`) of `samples`: the
/// smallest sample `x` such that at least `⌈p·N⌉` samples are `≤ x`.
/// Returns `None` for an empty slice. Sorts a copy; NaNs sort last.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank_sorted(&sorted, p)
}

/// [`nearest_rank`] over an already ascending slice.
pub fn nearest_rank_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(p > 0.0 && p <= 1.0) {
        return None;
    }
    Some(sorted[rank(n, p) - 1])
}

/// The 1-based nearest rank `⌈p·n⌉` of the `p`-quantile of `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    // The small slack keeps `0.9 × 100` at rank 90 despite rounding.
    ((p * n as f64) - 1e-9).ceil().clamp(1.0, n as f64) as usize
}

/// Median, p90 and p99 of one sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub count: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Option<Self> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Self {
            p50: nearest_rank_sorted(&sorted, 0.5)?,
            p90: nearest_rank_sorted(&sorted, 0.9)?,
            p99: nearest_rank_sorted(&sorted, 0.99)?,
            count: sorted.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_one_to_n_are_exact() {
        for n in [1usize, 7, 10, 100, 1000, 1001] {
            let samples: Vec<f64> = (1..=n).rev().map(|v| v as f64).collect();
            for pct in 1..=100usize {
                let want = (pct * n).div_ceil(100).max(1) as f64;
                let got = nearest_rank(&samples, pct as f64 / 100.0);
                assert_eq!(got, Some(want), "n={n} p{pct}");
            }
        }
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&[1.0], 0.0), None);
    }

    #[test]
    fn moving_samples_inside_one_log2_bucket_moves_the_median() {
        // All samples sit in the [8192, 16384) µs bucket.
        let before = [9_000.0, 10_000.0, 11_000.0, 12_000.0, 13_000.0];
        let after = [9_000.0, 10_000.0, 12_500.0, 12_000.0, 13_000.0];
        let (h_before, h_after) =
            (telemetry::Histogram::default(), telemetry::Histogram::default());
        for (&b, &a) in before.iter().zip(&after) {
            h_before.observe(b);
            h_after.observe(a);
        }
        assert_eq!(h_before.quantile(0.5), h_after.quantile(0.5), "a bucket hides the move");
        assert_eq!(nearest_rank(&before, 0.5), Some(11_000.0));
        assert_eq!(nearest_rank(&after, 0.5), Some(12_000.0));
    }

    #[test]
    fn summary_reports_count_and_ordered_quantiles() {
        let samples: Vec<f64> = (0..250).map(|i| ((i * 37) % 250) as f64).collect();
        let s = Summary::of(&samples).expect("non-empty");
        assert_eq!((s.p50, s.p90, s.p99, s.count), (124.0, 224.0, 247.0, 250));
        assert!(Summary::of(&[]).is_none());
    }
}
