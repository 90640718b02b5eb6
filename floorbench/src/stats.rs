//! Order statistics over measured samples.

/// Sorts `values` ascending (NaN-free input assumed) and returns them.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `(max - min) / median`: the widest spread a handful of rounds shows.
pub fn relative_range(values: &[f64]) -> f64 {
    let v = sorted(values);
    match (v.first(), v.last()) {
        (Some(lo), Some(hi)) if median(&v) > 0.0 => (hi - lo) / median(&v),
        _ => 0.0,
    }
}

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that
/// leaves at least ten samples beyond it, as `(percentile, value)` by
/// nearest rank. `None` with fewer than 20 samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|p| ((1.0 - p) * n as f64).floor() >= 10.0)
        .map(|p| {
            let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
            (p * 100.0, v[rank - 1])
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(relative_range(&v), 3.0 / 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, value) = tail(&v).expect("enough samples");
        assert_eq!(p, 99.0);
        assert_eq!(value, 990.0);
        assert!(tail(&v[..19]).is_none());
    }
}
