//! Order statistics for timing samples.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it: a p90 needs 100 samples, a median 20. Quartiles follow
//! Python's `statistics.quantiles(values, n=4)` (the "exclusive" method), so
//! spreads printed here match the ones computed over run sets elsewhere.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Why a statistic could not be computed.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// Too few samples for the requested percentile.
    TooFew { percentile: f64, have: usize, need: usize },
    /// A sample is NaN.
    NotANumber,
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::TooFew { percentile, have, need } => write!(
                f,
                "p{percentile} needs {need} samples ({MIN_BEYOND} beyond it), the run gave {have}"
            ),
            StatsError::NotANumber => write!(f, "a sample is NaN"),
        }
    }
}

fn sorted(values: &[f64]) -> Result<Vec<f64>, StatsError> {
    if values.iter().any(|v| v.is_nan()) {
        return Err(StatsError::NotANumber);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v)
}

/// Samples needed before percentile `p` (0..100) has [`MIN_BEYOND`] beyond it.
pub fn samples_needed(p: f64) -> usize {
    let tail = (100.0 - p) / 100.0;
    (MIN_BEYOND as f64 / tail).ceil() as usize
}

/// Percentile `p` (0..100) by linear interpolation between order
/// statistics, refused when fewer than [`samples_needed`] samples exist.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, StatsError> {
    let need = samples_needed(p);
    if values.len() < need {
        return Err(StatsError::TooFew { percentile: p, have: values.len(), need });
    }
    let v = sorted(values)?;
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Ok(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The highest of p50/p90/p99/p99.9 the sample count supports.
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0].into_iter().find(|&p| n >= samples_needed(p))
}

/// Median of any non-empty sample set (no tail-count rule: used for
/// aggregates such as repeated set-up times and run-set medians).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values).ok()?;
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values).ok()?;
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some([q(1), q(2), q(3)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(50.0), 20);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(99.0), 1000);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert!((percentile(&v, 90.0).unwrap_or(0.0) - 89.1).abs() < 1e-9);
        assert_eq!(
            percentile(&v[..99], 90.0),
            Err(StatsError::TooFew { percentile: 90.0, have: 99, need: 100 })
        );
        assert_eq!(percentile(&v[..20], 50.0), Ok(9.5));
        assert!(percentile(&v[..19], 50.0).is_err());
    }

    #[test]
    fn highest_supported_percentile_follows_sample_count() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(150), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
    }

    #[test]
    fn nan_samples_are_refused() {
        assert_eq!(percentile(&[f64::NAN; 30], 50.0), Err(StatsError::NotANumber));
        assert_eq!(median(&[f64::NAN]), None);
    }
}
