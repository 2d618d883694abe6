//! Order statistics over small samples.

/// Sorted copy of the finite values.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; NaN for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// First and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method) so the
/// numbers match the driver's acceptance check. A single value is its own
/// quartiles; an empty sample gives NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let quantile = |k: usize| {
        // position k(n+1)/4 on a 1-based scale; like Python, the index is
        // clamped to the sample but the interpolation weight is not
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (quantile(1), quantile(3))
}

/// Distance between the first and third quartile.
pub fn iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    q3 - q1
}

/// The first quartile, never below the minimum: the timing estimator.
/// Interference from other tenants of the machine only ever adds time, in
/// bursts of seconds, so the low end of the repetitions is the steadier
/// reading of what the code costs (measured: see README, "Noise").
pub fn lower_quartile(values: &[f64]) -> f64 {
    quartiles(values).0.max(min(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert!((iqr(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([3.0, 1.0, 2.0, 10.0, 4.0], n=4) == [1.5, 3.0, 7.0]
        assert!((iqr(&[3.0, 1.0, 2.0, 10.0, 4.0]) - 5.5).abs() < 1e-12);
        // statistics.quantiles([1.0, 2.0], n=4) == [0.75, 1.5, 2.25]
        assert!((iqr(&[1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert_eq!(
            lower_quartile(&[1.0, 2.0]),
            1.0,
            "extrapolation below the sample is clamped"
        );
        assert_eq!(lower_quartile(&[3.0, 1.0, 2.0, 10.0, 4.0]), 1.5);
        assert_eq!(iqr(&[4.0]), 0.0);
        assert!(median(&[]).is_nan());
    }
}
