//! Order statistics over timing samples.

/// The median (mean of the two middle values for an even count); 0 for
/// no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p ∈ (0, 100]`; 0 for no samples.
fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The largest sample; 0 for no samples.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Fewest samples for which a p90 is reported; below it the tail figure
/// is the maximum.
const MIN_P90_SAMPLES: usize = 20;

/// The tail figure reported under a `_p90` name: the 90th percentile, or
/// the maximum when there are fewer than [`MIN_P90_SAMPLES`] samples (a
/// p90 of a handful of samples has almost nothing beyond it).
pub fn tail(values: &[f64]) -> f64 {
    if values.len() < MIN_P90_SAMPLES {
        max(values)
    } else {
        percentile(values, 90.0)
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 18.0);
        assert_eq!(tail(&v), 18.0);
        assert_eq!(tail(&v[..19]), 19.0, "max below 20 samples");
        assert_eq!(max(&[1.0, 5.0, 2.0]), 5.0);
    }
}
