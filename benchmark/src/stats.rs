//! Order statistics with the sample-count rule the benchmark reports by.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `0..1`) of ascending `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it: a p99 needs
/// 1000 samples, a median 20.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of any non-empty sample (no sample-count rule: used for the
/// handful of set-up repetitions and for per-layer summaries).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// `median`, or 0 for a layer that saw no work on this workload.
pub fn median_or_zero(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(&mut values)
    }
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// `num / den`, or 0 when the denominator saw no work.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(2000), 0.99), Some(1980.0));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(21), 0.5), Some(11.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_or_zero(Vec::new()), 0.0);
    }

    #[test]
    fn ratio_of_idle_layer_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
