//! Summary statistics shared by every workload.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// A percentile as reported: the quantile actually used, its value and
/// the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The quantile reported (0.5 = median).
    pub q: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Samples it was taken from.
    pub n: usize,
    /// Whether the requested quantile had `TAIL_SAMPLES` samples beyond
    /// it; when false, `q` is the highest quantile that does, or the
    /// median when not even that one does.
    pub met: bool,
}

/// Nearest-rank index (0-based) of quantile `q` in `n` sorted samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank position of `q`.
fn beyond(q: f64, n: usize) -> usize {
    n - 1 - rank(q, n)
}

/// The percentile rule: quantile `want`, unless fewer than
/// [`TAIL_SAMPLES`] samples lie beyond it, in which case the highest
/// quantile that still has that many beyond it (never above `want`).
/// With too few samples for even the median, the median is reported
/// and `met` is false. Returns `None` only for an empty sample.
pub fn percentile(samples: &[f64], want: f64) -> Option<Percentile> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let met = beyond(want, n) >= TAIL_SAMPLES;
    let (q, idx) = if met {
        (want, rank(want, n))
    } else if n > TAIL_SAMPLES {
        let idx = n - 1 - TAIL_SAMPLES;
        ((idx + 1) as f64 / n as f64, idx)
    } else {
        (0.5, rank(0.5, n))
    };
    Some(Percentile {
        q,
        value: sorted[idx],
        n,
        met,
    })
}

/// Median by nearest rank (the lower middle for even counts), with no
/// sample-count rule; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(0.5, sorted.len())]
}

/// Geometric mean of positive values; 0 when empty or any value is not
/// positive (a 0 cell wall means the cell did not run).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the sort inside `percentile` matters.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn p90_is_reported_once_ten_samples_lie_beyond_it() {
        let p = percentile(&ramp(100), 0.9).unwrap();
        assert!(p.met);
        assert_eq!((p.q, p.value, p.n), (0.9, 90.0, 100));
    }

    #[test]
    fn short_samples_fall_back_to_the_highest_percentile_with_ten_beyond() {
        let p = percentile(&ramp(50), 0.9).unwrap();
        assert!(!p.met);
        assert_eq!(p.n, 50);
        assert_eq!(p.value, 40.0);
        assert_eq!(p.q, 0.8);
    }

    #[test]
    fn the_median_needs_twenty_samples_and_never_rises_above_the_request() {
        assert!(percentile(&ramp(20), 0.5).unwrap().met);
        let p = percentile(&ramp(19), 0.5).unwrap();
        assert!(!p.met);
        assert!(p.q <= 0.5);
        let tiny = percentile(&ramp(3), 0.9).unwrap();
        assert_eq!((tiny.q, tiny.value, tiny.met), (0.5, 2.0, false));
        assert!(percentile(&[], 0.5).is_none());
        assert_eq!(median(&ramp(4)), 2.0);
        assert_eq!(median(&ramp(5)), 3.0);
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[7.5]) - 7.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[3.0, 0.0]), 0.0);
    }
}
