//! Order statistics over per-step samples.

/// One percentile of a sample set, with the counts a reader needs to
/// judge it: how many samples it came from and how many lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank of the requested quantile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (in `[0, 1]`) of `values`. The result is
/// always one of the samples, so a tail percentile never interpolates
/// towards a value no step took. `None` for an empty set.
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    let value = sorted[rank - 1];
    Some(Percentile {
        value,
        samples: sorted.len(),
        beyond: sorted.iter().filter(|&&v| v > value).count(),
    })
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no
/// work on this workload reports 0, never a non-finite number). `+ 0.0`
/// turns the −0.0 of an empty sum into 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den + 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_sample_count_and_tail() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p90 = percentile(&values, 0.9).unwrap();
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.samples, 100);
        assert_eq!(p90.beyond, 10);
        let p50 = percentile(&values, 0.5).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
    }

    #[test]
    fn percentile_of_a_short_set_is_a_sample() {
        let p = percentile(&[3.0, 1.0, 2.0], 0.9).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (3.0, 3, 0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn ratio_of_no_work_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
