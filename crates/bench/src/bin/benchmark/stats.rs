//! Order statistics for reporting: the median, the tail-percentile rule,
//! and the quartile spread used to compare runs.

/// Percentiles the tail rule may report, highest first.
const TAIL_LADDER: [f64; 3] = [0.999, 0.99, 0.9];

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted`: the smallest value with
/// at least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q` percentile among `n` samples. The
/// epsilon keeps `0.9 * 100` from rounding up past rank 90.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The highest percentile of the ladder that still has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when `n` is too small for
/// any of them.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| n > 0 && beyond(n, q) >= MIN_BEYOND)
}

/// A timing distribution as reported: its median, the tail percentile the
/// sample count supports, and the count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// `(quantile, value)` of the highest supported tail percentile.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `values` (any order).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or a NaN.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        Summary {
            n: sorted.len(),
            p50: median(&sorted),
            tail: tail_quantile(sorted.len()).map(|q| (q, percentile(&sorted, q))),
        }
    }
}

/// The median of `values` (the mean of the middle pair for even counts,
/// as Python's `statistics.median`).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// or `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a regression bound is checked against. `None` below two values
/// or at a zero median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_is_always_reported_and_tails_need_ten_beyond() {
        // 19 samples: the median leaves 9 beyond it, so no tail at all.
        let s = Summary::of(&ramp(19));
        assert_eq!((s.n, s.p50, s.tail), (19, 10.0, None));
        // 100 samples: p90 leaves exactly 10 beyond; p99 leaves 1.
        let s = Summary::of(&ramp(100));
        assert_eq!(s.p50, 50.5);
        assert_eq!(s.tail, Some((0.9, 90.0)));
        // 99 samples: p90 is rank 90 and leaves only 9 beyond.
        assert_eq!(Summary::of(&ramp(99)).tail, None);
        // 1000 samples: p99 leaves 10 beyond.
        assert_eq!(Summary::of(&ramp(1000)).tail, Some((0.99, 990.0)));
        // 10000 samples: p99.9 leaves 10 beyond.
        assert_eq!(Summary::of(&ramp(10_000)).tail, Some((0.999, 9990.0)));
    }

    #[test]
    fn tail_rule_counts_the_samples_beyond() {
        for n in [1usize, 5, 20, 99, 100, 368, 999, 1000, 9999, 10_000] {
            match tail_quantile(n) {
                Some(q) => {
                    assert!(beyond(n, q) >= MIN_BEYOND, "n={n} q={q}");
                    // No higher rung qualifies.
                    for higher in TAIL_LADDER.into_iter().filter(|&h| h > q) {
                        assert!(beyond(n, higher) < MIN_BEYOND, "n={n} {higher}");
                    }
                }
                None => assert!(beyond(n, 0.9) < MIN_BEYOND, "n={n}"),
            }
        }
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let mut v = ramp(250);
        v.reverse();
        assert_eq!(Summary::of(&v), Summary::of(&ramp(250)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&ramp(10)), 5.5);
        let spread = relative_spread(&ramp(10)).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    }
}
