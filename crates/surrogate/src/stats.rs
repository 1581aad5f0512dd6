//! Scalar statistics helpers shared by acquisition functions and
//! samplers: standard-normal PDF/CDF (via an `erf` approximation) and
//! the median.

/// Standard-normal probability density.
pub fn norm_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard-normal cumulative distribution, accurate to ~1.5e-7
/// (Abramowitz & Stegun 7.1.26 polynomial for `erf`).
pub fn norm_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Error function approximation (A&S 7.1.26, max abs error 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Median of a slice (average of middle two for even lengths);
/// `None` for empty input.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_known_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((norm_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((norm_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(norm_cdf(8.0) > 0.999999);
        assert!(norm_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn pdf_symmetric_and_peaked_at_zero() {
        assert!((norm_pdf(0.0) - 0.3989422804).abs() < 1e-9);
        assert!((norm_pdf(1.3) - norm_pdf(-1.3)).abs() < 1e-15);
    }

    #[test]
    fn erf_odd_function() {
        for &x in &[0.1, 0.5, 1.0, 2.0] {
            assert!((erf(x) + erf(-x)).abs() < 1e-12);
        }
        assert!((erf(1.0) - 0.8427007929).abs() < 2e-7);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
