//! The benchmark's arithmetic: medians, tail percentiles that refuse to
//! guess, geometric means and failure accounting.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when there are no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The nearest-rank `p`-th percentile of `xs`, reported only when at least
/// ten samples lie beyond it. With fewer the tail is not measured, so the
/// answer is `None` rather than a guess (a p99 needs 1000 samples).
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..100.0).contains(&p) {
        return None;
    }
    let n = xs.len();
    // 1-based nearest rank; the small epsilon keeps 99% of 1000 at 990.
    let rank = ((p / 100.0 * n as f64) - 1e-9).ceil().max(1.0) as usize;
    if n - rank < 10 {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Geometric mean of strictly positive values; `None` when empty or when a
/// value is not positive (a gap is always at least 1).
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return None;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    Some((log_sum / xs.len() as f64).exp())
}

/// Attempted and failed operations. A failure is a non-200 response, a
/// certification error, or a failed benchmark check.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// `failed / attempted`, 0 when nothing was attempted.
    pub fn ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&xs[..999], 99.0), None);
        assert_eq!(tail_percentile(&xs[..100], 90.0), Some(90.0));
        assert_eq!(tail_percentile(&xs[..99], 90.0), None);
        assert_eq!(tail_percentile(&xs[..5], 50.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn geomean_of_gaps() {
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.5]).unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[2.0, 0.0]), None);
        assert_eq!(geomean(&[2.0, f64::NAN]), None);
    }

    #[test]
    fn fail_ratio_counts_failed_over_attempted() {
        let mut t = Tally::default();
        assert_eq!(t.ratio(), 0.0);
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(true);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.ratio(), 0.25);
    }
}
