//! Small order statistics over host timings.

/// Median of `v` (mean of the middle pair for even lengths; 0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Geometric mean of positive values (1.0 when empty).
pub fn geomean(v: impl IntoIterator<Item = f64>) -> f64 {
    let (mut acc, mut n) = (0.0f64, 0usize);
    for x in v {
        acc += x.max(1e-12).ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (acc / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        assert!((geomean([2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean([]), 1.0);
    }
}
