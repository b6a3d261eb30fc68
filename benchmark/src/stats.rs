//! Order statistics over timing samples.

/// Samples a reported percentile must leave above it. A tail read from fewer
/// samples is one or two outliers, not a distribution.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried by [`tail`], highest first.
const TAILS: [f64; 5] = [99.0, 98.0, 95.0, 90.0, 75.0];

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// The highest tail percentile the samples support and its value; the
/// median (`p = 50`) when even p75 is unsupported.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    TAILS
        .iter()
        .find_map(|&p| percentile(xs, p).map(|v| (p, v)))
        .unwrap_or((50.0, median(xs)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert!((median(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 91.0), None, "only 9 samples above p91");
        assert_eq!(percentile(&xs[..19], 50.0), None);
        assert_eq!(percentile(&xs[..20], 50.0), Some(10.0));
        assert_eq!(tail(&xs), (90.0, 90.0));
        assert_eq!(tail(&xs[..5]), (50.0, 3.0));
    }
}
