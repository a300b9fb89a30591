//! Order statistics over measured samples.

/// Median with linear interpolation between the two middle samples
/// (the same value Python's `statistics.median` gives). `None` when
/// there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest whole percentile, at most 99, that has at least ten
/// samples beyond it in a sample of size `n`: the largest `p` with
/// `n - ceil(n * p / 100) >= 10`. `None` when not even the median
/// qualifies (`n < 20`).
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99u32)
        .rev()
        .find(|&p| n >= 10 + (n * p as usize).div_ceil(100))
}

/// Nearest-rank value at whole percentile `p` of `samples`.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * p as usize).div_ceil(100).max(1);
    Some(v[rank - 1])
}

/// The tail the sample supports: the value at [`tail_percentile`], or
/// the maximum when the sample is too small for any percentile.
pub fn tail(samples: &[f64]) -> Option<f64> {
    match tail_percentile(samples.len()) {
        Some(p) => percentile(samples, p),
        None => samples.iter().copied().max_by(f64::total_cmp),
    }
}

/// Median over consecutive windows of `len` samples of `f(window)`,
/// ignoring a trailing window of less than half that length. A burst of
/// interference then moves one window's value, not the result.
pub fn window_median(
    samples: &[f64],
    len: usize,
    f: impl Fn(&[f64]) -> Option<f64>,
) -> Option<f64> {
    let per_window: Vec<f64> = samples
        .chunks(len.max(1))
        .filter(|w| 2 * w.len() >= len)
        .filter_map(f)
        .collect();
    median(&per_window)
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` gives them (the default "exclusive" method). `None` for fewer
/// than two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    // Python's loop body for quantile i of 4, with j clamped to
    // 1..=n-1 before delta is taken (so the ends extrapolate).
    let at = |i: i64| -> f64 {
        let m = n as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = i * m - j * 4;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(120), Some(91));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(1_000_000), Some(99));
        for n in 20..2000 {
            let p = tail_percentile(n).unwrap() as usize;
            assert!(n - (n * p).div_ceil(100) >= 10, "n {n} p {p}");
            if p < 99 {
                assert!(
                    n - (n * (p + 1)).div_ceil(100) < 10,
                    "n {n} p {p} not highest"
                );
            }
        }
    }

    #[test]
    fn percentiles_and_medians() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99), Some(99.0));
        assert_eq!(percentile(&v, 50), Some(50.0));
        assert_eq!(median(&v), Some(50.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(tail(&[1.0, 5.0, 2.0]), Some(5.0));
        assert_eq!(tail(&v), Some(90.0));
    }

    #[test]
    fn window_median_ignores_one_bad_window() {
        let mut v = vec![1.0; 300];
        v[150] = 1000.0;
        v.push(500.0); // a trailing scrap shorter than half a window
        assert_eq!(window_median(&v, 100, |w| percentile(w, 100)), Some(1.0));
        assert_eq!(window_median(&[], 100, |w| percentile(w, 50)), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
