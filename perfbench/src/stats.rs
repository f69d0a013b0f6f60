//! Order statistics and the utilization arithmetic the workloads are
//! defined by.

/// The median of `values` (mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|(_, m, _)| m)
}

/// The arithmetic mean of `values`. `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// First quartile, median and third quartile, by the exclusive method of
/// Python's `statistics.quantiles(values, n=4)` (a single value is its own
/// quartiles). `None` for an empty slice.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        1 => Some((v[0], v[0], v[0])),
        n => {
            // Python's exact integer arithmetic: cut point i sits at
            // 1-based position i·(n+1)/4, clamped to [1, n−1] before the
            // (possibly extrapolating) interpolation weight is taken.
            let cut = |i: i64| {
                let m = n as i64 + 1;
                let j = (i * m / 4).clamp(1, n as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((cut(1), cut(2), cut(3)))
        }
    }
}

/// The value at rank `⌈q·n⌉` of `values` (nearest-rank quantile, the
/// rule the kernel's latency sketch uses). `None` for an empty slice.
pub fn nearest_rank(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// The arrival rate (jobs/s) that keeps `utilization` of `servers` busy
/// when each job occupies a server for `mean_runtime_s` on average
/// (Little's law: busy servers = rate × mean runtime).
pub fn offered_rate(servers: usize, utilization: f64, mean_runtime_s: f64) -> f64 {
    servers as f64 * utilization / mean_runtime_s
}

/// Mean utilization actually reached: busy server-seconds over the
/// server-seconds the fleet was up (`servers × span_s`).
pub fn mean_utilization(busy_server_s: f64, servers: usize, span_s: f64) -> f64 {
    if servers == 0 || span_s <= 0.0 {
        return 0.0;
    }
    busy_server_s / (servers as f64 * span_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 2.5, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates below the first sample.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mean_of_values_and_of_none() {
        assert_eq!(mean(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn nearest_rank_quantile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&[2.0], 0.5), Some(2.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn offered_rate_inverts_littles_law() {
        // 10k servers, half busy, 80 s jobs → 62.5 jobs/s.
        let rate = offered_rate(10_000, 0.5, 80.0);
        assert!((rate - 62.5).abs() < 1e-12);
        // Feeding that rate back for the same span recovers the target.
        let span = 1_000.0;
        let busy = rate * span * 80.0;
        assert!((mean_utilization(busy, 10_000, span) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_of_an_empty_fleet_or_span_is_zero() {
        assert_eq!(mean_utilization(10.0, 0, 5.0), 0.0);
        assert_eq!(mean_utilization(10.0, 4, 0.0), 0.0);
        assert!((mean_utilization(10.0, 4, 5.0) - 0.5).abs() < 1e-12);
    }
}
