//! Percentiles and the reporting rule for tail percentiles.

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples that must lie strictly beyond a tail percentile before it
/// is reported: fewer, and one slow request decides the figure.
pub const TAIL_SAMPLES: usize = 10;

/// The `q` percentile, but only when at least [`TAIL_SAMPLES`] samples
/// lie above the rank it reads.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let value = percentile(sorted, q)?;
    let rank = (q * sorted.len() as f64).ceil() as usize;
    (sorted.len().saturating_sub(rank) >= TAIL_SAMPLES).then_some(value)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p95 of 199 samples reads rank 190: only 9 lie beyond it.
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), None);
        // p95 of 200 samples reads rank 190: 10 lie beyond it.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), Some(190.0));
    }
}
