//! Basic statistics and least-squares linear regression.

/// Arithmetic mean; 0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation; 0 for fewer than 2 points.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Median (interpolated for even lengths); 0 for empty input.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A fitted line `y = intercept + slope·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Line {
    pub intercept: f64,
    pub slope: f64,
    /// Coefficient of determination. A constant series (`ss_tot = 0`,
    /// e.g. DP on an unsaturated grid) fits perfectly by convention:
    /// `1.0` when the residuals are zero too, else `0.0`.
    pub r_squared: f64,
}

impl Line {
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Ordinary least squares over `(x, y)` points — the paper's empirical
/// instrument (§4): regressing makespan on the number of input data
/// sets, the **y-intercept** is the fixed cost of running on the grid
/// at all and the **slope** the marginal cost per extra data set.
/// Sums are taken about the means, so large offsets (makespans in the
/// 10⁵ s) do not cancel. Returns `None` for fewer than 2 points or a
/// degenerate (vertical) configuration — a line is not identifiable
/// there.
pub fn linear_regression(points: &[(f64, f64)]) -> Option<Line> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let mean_x = points.iter().map(|(x, _)| x).sum::<f64>() / n;
    let mean_y = points.iter().map(|(_, y)| y).sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (x, y) in points {
        let dx = x - mean_x;
        sxx += dx * dx;
        sxy += dx * (y - mean_y);
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (x, y) in points {
        ss_res += (y - (intercept + slope * x)).powi(2);
        ss_tot += (y - mean_y).powi(2);
    }
    let r_squared = if ss_tot == 0.0 {
        // Constant series: the flat line is an exact fit unless the
        // residuals say otherwise (they cannot, but keep the guard).
        if ss_res < 1e-12 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    };
    Some(Line {
        intercept,
        slope,
        r_squared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_median_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
        assert_eq!(std_dev(&[7.0]), 0.0);
    }

    #[test]
    fn regression_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let line = linear_regression(&pts).unwrap();
        assert!((line.intercept - 3.0).abs() < 1e-9);
        assert!((line.slope - 2.0).abs() < 1e-9);
        assert!((line.r_squared - 1.0).abs() < 1e-12);
        assert!((line.predict(20.0) - 43.0).abs() < 1e-9);
    }

    #[test]
    fn regression_recovers_the_papers_table2_nop_line() {
        // 20784 + 884·n at the paper's sizes: the offset is large
        // against the slope, which is what the centred sums are for.
        let pts: Vec<(f64, f64)> = [12.0, 66.0, 126.0]
            .iter()
            .map(|&n| (n, 20784.0 + 884.0 * n))
            .collect();
        let line = linear_regression(&pts).unwrap();
        assert!((line.intercept - 20784.0).abs() < 1e-6);
        assert!((line.slope - 884.0).abs() < 1e-9);
        assert!((line.r_squared - 1.0).abs() < 1e-12);
        assert!((line.predict(100.0) - (20784.0 + 88_400.0)).abs() < 1e-6);
    }

    #[test]
    fn constant_series_is_flat_with_perfect_r2() {
        // DP on an unsaturated grid: makespan independent of n_data.
        let line = linear_regression(&[(1.0, 500.0), (8.0, 500.0), (16.0, 500.0)]).unwrap();
        assert!(line.slope.abs() < 1e-12);
        assert!((line.intercept - 500.0).abs() < 1e-9);
        assert_eq!(line.r_squared, 1.0);
    }

    #[test]
    fn regression_on_papers_nop_series() {
        // Table 1 NOP: (12, 32855), (66, 76354), (126, 133493) →
        // Table 2 reports intercept 20784, slope 884.
        let line =
            linear_regression(&[(12.0, 32855.0), (66.0, 76354.0), (126.0, 133493.0)]).unwrap();
        assert!(
            (line.intercept - 20784.0).abs() < 30.0,
            "intercept {}",
            line.intercept
        );
        assert!((line.slope - 884.0).abs() < 2.0, "slope {}", line.slope);
    }

    #[test]
    fn regression_needs_two_distinct_x() {
        assert!(linear_regression(&[]).is_none());
        assert!(linear_regression(&[(1.0, 2.0)]).is_none());
        assert!(linear_regression(&[(1.0, 2.0), (1.0, 3.0)]).is_none());
    }

    #[test]
    fn r_squared_below_one_for_noisy_data() {
        let line = linear_regression(&[(0.0, 0.0), (1.0, 2.0), (2.0, 1.0), (3.0, 3.0)]).unwrap();
        assert!(line.r_squared < 1.0);
        assert!(line.r_squared > 0.0);
        let line =
            linear_regression(&[(1.0, 10.0), (2.0, 21.0), (3.0, 29.0), (4.0, 42.0)]).unwrap();
        assert!(line.r_squared > 0.98, "r2 {}", line.r_squared);
        assert!(line.slope > 9.0 && line.slope < 12.0);
    }
}
