//! Percentiles over exact samples, and the quartile spread the driver
//! judges steadiness by.

/// The `q`-quantile (0 < q < 1) of ascending `sorted`, by nearest rank.
/// Refuses — returns `None` — unless at least ten samples lie beyond it:
/// a tail percentile resting on fewer is one outlier, not a measurement.
pub fn percentile(sorted: &[u32], q: f64) -> Option<u32> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((n as f64) * q).ceil() as usize; // 1-based nearest rank
    let rank = rank.clamp(1, n);
    if n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The highest of p99.9 / p99 / p95 / p90 the sample supports, with its
/// quantile; `None` under 100 samples.
pub fn highest_supported(sorted: &[u32]) -> Option<(f64, u32)> {
    [0.999, 0.99, 0.95, 0.90]
        .into_iter()
        .find_map(|q| percentile(sorted, q).map(|v| (q, v)))
}

/// Median of unsorted values; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The interquartile mean: the lowest and highest quarter of the values
/// set aside (at least one each, once there are five), the rest averaged.
/// `None` when empty.
pub fn midmean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let trim = if v.len() >= 5 {
        (v.len() / 4).max(1)
    } else {
        0
    };
    let kept = &v[trim..v.len() - trim];
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// First and third quartile by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` gives them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let at = |k: usize| {
        // position k*(n+1)/4, 1-based, linearly interpolated and clamped
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median — the spread the
/// contract bounds. `None` under two values or with a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_without_ten_samples_beyond() {
        let v: Vec<u32> = (1..=1009).collect();
        // p99 of 1009: rank 999, ten beyond -> allowed.
        assert_eq!(percentile(&v, 0.99), Some(999));
        let v: Vec<u32> = (1..=999).collect();
        // rank 990, nine beyond -> refused.
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(percentile(&v, 0.5), Some(500));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1, 2, 3], 0.5), None);
    }

    #[test]
    fn highest_supported_steps_down() {
        let v: Vec<u32> = (1..=150).collect();
        assert_eq!(highest_supported(&v).map(|(q, _)| q), Some(0.90));
        let v: Vec<u32> = (1..=20_000).collect();
        assert_eq!(highest_supported(&v).map(|(q, _)| q), Some(0.999));
        let v: Vec<u32> = (1..=50).collect();
        assert_eq!(highest_supported(&v), None);
    }

    #[test]
    fn midmean_sets_the_outer_quarters_aside() {
        assert_eq!(midmean(&[]), None);
        assert_eq!(midmean(&[1.0, 2.0, 6.0]), Some(3.0));
        // Five values: one off each end.
        assert_eq!(midmean(&[100.0, 1.0, 2.0, 3.0, -50.0]), Some(2.0));
        // Twenty values: five off each end.
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        v.extend([1e9; 5]);
        v.extend([-1e9; 5]);
        assert_eq!(midmean(&v), Some(5.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
