//! Order statistics over measured samples.

/// Nearest-rank percentile (`p` in 0..=100) of an ascending-sorted
/// sample set; `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly above the `p`th percentile: the sample
/// count behind a tail percentile (at least ten make it reportable).
pub fn beyond(sorted: &[u64], p: f64) -> usize {
    match percentile(sorted, p) {
        Some(v) => sorted.len() - sorted.partition_point(|&x| x <= v),
        None => 0,
    }
}

/// Median of unsorted values (mean of the middle two for even counts);
/// `None` when empty or when any value is NaN.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_samples() {
        let one_to_hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&one_to_hundred, 50.0), Some(50));
        assert_eq!(percentile(&one_to_hundred, 90.0), Some(90));
        assert_eq!(percentile(&one_to_hundred, 99.0), Some(99));
        assert_eq!(percentile(&one_to_hundred, 99.9), Some(100));
        assert_eq!(percentile(&one_to_hundred, 0.0), Some(1));
        assert_eq!(percentile(&[7], 99.9), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_sample_counts() {
        let one_to_thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(beyond(&one_to_thousand, 99.0), 10);
        assert_eq!(beyond(&one_to_thousand, 50.0), 500);
        // Ties at the percentile are not "beyond" it.
        assert_eq!(beyond(&[1, 2, 2, 2, 2], 50.0), 0);
        assert_eq!(beyond(&[], 99.0), 0);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }
}
