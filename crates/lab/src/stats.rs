//! Replication statistics: mean, sample standard deviation, and a 95%
//! confidence interval across the seed replications of one point.
//!
//! The interval uses Student's t critical values (two-sided, 95%) for
//! small replication counts — with 3–10 seeds per point the normal
//! approximation would understate the interval by 10–30% — and converges
//! to the normal 1.96 beyond 30 degrees of freedom. Replications whose
//! metric is `NaN` (e.g. "time of last delivery" when nothing arrived)
//! are excluded, and `n` reports the finite sample count.

/// Two-sided 95% critical values of Student's t for 1..=30 degrees of
/// freedom (index 0 = 1 d.o.f.).
const T_95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// Summary statistics of one metric across replications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of finite samples.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 when n < 2).
    pub stddev: f64,
    /// Half-width of the two-sided 95% confidence interval on the mean
    /// (0 when n < 2).
    pub ci95: f64,
}

impl Summary {
    /// Summarizes the finite values of `samples`.
    ///
    /// Returns `None` when no finite samples remain.
    #[must_use]
    pub(crate) fn of(samples: &[f64]) -> Option<Summary> {
        let finite: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
        let n = finite.len();
        if n == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        let nf = n as f64;
        let mean = finite.iter().sum::<f64>() / nf;
        if n < 2 {
            return Some(Summary {
                n,
                mean,
                stddev: 0.0,
                ci95: 0.0,
            });
        }
        let var = finite.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (nf - 1.0);
        let stddev = var.sqrt();
        let t = T_95.get(n - 2).copied().unwrap_or(1.96);
        Some(Summary {
            n,
            mean,
            stddev,
            ci95: t * stddev / nf.sqrt(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_all_nan_yield_none() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[f64::NAN, f64::NAN]).is_none());
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s = Summary::of(&[5.0]).unwrap();
        assert_eq!(s.n, 1);
        assert!((s.mean - 5.0).abs() < f64::EPSILON);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn known_small_sample() {
        // {1, 2, 3}: mean 2, stddev 1, t(2 d.o.f.) = 4.303.
        let s = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.n, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.stddev - 1.0).abs() < 1e-12);
        assert!((s.ci95 - 4.303 / 3f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn nan_samples_are_excluded() {
        let s = Summary::of(&[1.0, f64::NAN, 3.0]).unwrap();
        assert_eq!(s.n, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn large_samples_use_normal_critical_value() {
        let samples: Vec<f64> = (0..100).map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        let expected = 1.96 * s.stddev / 10.0;
        assert!((s.ci95 - expected).abs() < 1e-9);
    }

    #[test]
    fn identical_samples_have_zero_interval() {
        let s = Summary::of(&[4.0; 8]).unwrap();
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95, 0.0);
    }
}
