//! The benchmark's own statistics: nearest-rank percentiles, the tail
//! percentile a sample supports, quartiles, the quiet-window median, and
//! the stage-sum check.

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p` percent of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample or a `p` outside `[0, 100]`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of an ascending sample (mean of the middle pair for even sizes).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of an unsorted sample.
pub fn median_of(values: &[f64]) -> f64 {
    median(&sorted(values))
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentiles the tail may be reported at, highest first. The ladder
/// stops at p95: on a shared host the top few percent of requests are host
/// stalls rather than the workload, and a tail above p95 does not repeat
/// between runs.
const TAIL_LADDER: [f64; 5] = [95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond its rank. A sample too small for even the median to qualify
/// reports the median with however many samples lie beyond it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let at = |p: f64| Tail {
        percentile: p,
        value: nearest_rank(sorted, p),
        beyond: n - rank(n, p),
    };
    TAIL_LADDER
        .iter()
        .map(|&p| at(p))
        .find(|t| t.beyond >= TAIL_MIN_BEYOND)
        .unwrap_or_else(|| at(50.0))
}

/// First, second and third quartiles with the same interpolation as
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads computed here match ones computed with Python.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let m = data.len();
    assert!(m >= 2, "quartiles need at least two values");
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// The lowest median over consecutive windows of `window` values, taken in
/// the order they were measured (a trailing partial window is left out).
/// A sample of fewer than two windows gives its plain median.
///
/// On a shared host a core's speed flips between two levels about 1.7×
/// apart every fraction of a second, as other work on the host comes and
/// goes, and how long each level holds changes from minute to minute.
/// A run's median follows whichever level held longest; the quietest
/// window's median is the program's latency at the fast level, so it moves
/// with the program and much less with the neighbours.
///
/// # Panics
///
/// Panics on an empty sample or a zero `window`.
pub fn quiet_median(values: &[f64], window: usize) -> f64 {
    assert!(window > 0, "quiet_median needs a positive window");
    if values.len() < 2 * window {
        return median_of(values);
    }
    values
        .chunks_exact(window)
        .map(median_of)
        .fold(f64::INFINITY, f64::min)
}

/// Share of an end-to-end time that its named stages account for.
pub fn stage_sum_frac(stages: &[f64], total: f64) -> f64 {
    stages.iter().sum::<f64>() / total
}

/// Whether a stage-sum share attributes the end-to-end time within `tol`.
pub fn attributes(frac: f64, tol: f64) -> bool {
    (frac - 1.0).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_covering_value() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 90.0), 9.0);
        assert_eq!(nearest_rank(&v, 91.0), 10.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn median_handles_odd_and_even_sizes() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median_of(&[9.0, 1.0, 4.0, 2.0]), 3.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 40 samples (a short bulk run): p75 is the highest with 10 beyond.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 30.0, 10));

        // 70 samples: p90 leaves 7 beyond, p80 leaves 14.
        let v: Vec<f64> = (1..=70).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.value, t.beyond), (80.0, 56.0, 14));

        // 200 samples: p95 leaves exactly 10 beyond.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));
    }

    #[test]
    fn tail_stops_at_p95() {
        // 10 000 samples would support p99.9; the ladder caps it at p95.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 9500.0, 500));
        // 199 samples: p95 leaves 9 beyond, so p90 it is.
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail(&v).percentile, 90.0);
    }

    #[test]
    fn tail_of_a_tiny_sample_falls_back_to_the_median() {
        let v: Vec<f64> = (1..=6).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 3.0, 3));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5], n=4) == [1.5, 4.0, 5.5]
        let v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0];
        assert_eq!(quartiles(&v), [1.5, 4.0, 5.5]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn quiet_median_takes_the_lowest_window_median() {
        // Windows of 3: medians 5, 2, 9; the trailing 1.0 is left out.
        let v = [5.0, 4.0, 6.0, 2.0, 1.0, 3.0, 9.0, 8.0, 10.0, 1.0];
        assert_eq!(quiet_median(&v, 3), 2.0);
        // Fewer than two windows: the plain median.
        assert_eq!(quiet_median(&[9.0, 1.0, 4.0, 2.0], 3), 3.0);
        // A quiet stretch shorter than a window does not count.
        let mut v = vec![1.0; 20];
        v[7] = 0.1;
        v[8] = 0.1;
        assert_eq!(quiet_median(&v, 5), 1.0);
    }

    #[test]
    fn stage_sum_check_accepts_within_tolerance_only() {
        let frac = stage_sum_frac(&[0.05, 0.01, 0.7], 0.8);
        assert!((frac - 0.95).abs() < 1e-12);
        assert!(attributes(frac, 0.1));
        assert!(!attributes(stage_sum_frac(&[0.5], 0.8), 0.1));
        assert!(!attributes(stage_sum_frac(&[1.0], 0.8), 0.1));
        assert!(attributes(stage_sum_frac(&[0.88], 0.8), 0.1));
    }
}
