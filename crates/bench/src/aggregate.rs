//! Curve interpolation and aggregation utilities.

use hypertune::core::runner::CurvePoint;

/// Step-interpolates an anytime curve onto `grid`: the value at grid time
/// `t` is the last incumbent at or before `t` (NaN before the first
/// point, since no incumbent exists yet).
pub fn interp_curve(curve: &[CurvePoint], grid: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(grid.len());
    let mut idx = 0;
    let mut last = f64::NAN;
    for &t in grid {
        while idx < curve.len() && curve[idx].time <= t {
            last = curve[idx].value;
            idx += 1;
        }
        out.push(last);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(time: f64, value: f64) -> CurvePoint {
        CurvePoint {
            time,
            value,
            test_value: value,
        }
    }

    #[test]
    fn step_interpolation() {
        let curve = vec![p(1.0, 0.9), p(3.0, 0.5), p(7.0, 0.2)];
        let grid = vec![0.5, 1.0, 2.0, 3.0, 10.0];
        let v = interp_curve(&curve, &grid);
        assert!(v[0].is_nan());
        assert_eq!(v[1], 0.9);
        assert_eq!(v[2], 0.9);
        assert_eq!(v[3], 0.5);
        assert_eq!(v[4], 0.2);
    }

    #[test]
    fn empty_curve_all_nan() {
        let v = interp_curve(&[], &[1.0, 2.0]);
        assert!(v.iter().all(|x| x.is_nan()));
    }
}
