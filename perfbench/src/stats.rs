//! Estimators and process probes shared by the workloads.

use clara_server::obs::{bucket_lower, bucket_max, HistogramSnapshot};

/// Linear-interpolation quantile (0 ≤ q ≤ 1) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `numerator / denominator`, 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Quantile of the observations added to a registry histogram between two
/// snapshots. The histogram stores whole microseconds in log-linear
/// buckets, so the rank is placed by linear interpolation inside its bucket
/// (bucket `v < 8` holds `[v, v + 1)`): a sub-microsecond stage reads as a
/// fraction instead of a constant 0.
pub fn histogram_delta_quantile(
    before: Option<&HistogramSnapshot>,
    after: &HistogramSnapshot,
    q: f64,
) -> f64 {
    let counts: Vec<u64> = after
        .buckets
        .iter()
        .enumerate()
        .map(|(i, &n)| n - before.and_then(|b| b.buckets.get(i)).copied().unwrap_or(0))
        .collect();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = q * total as f64;
    let mut below = 0u64;
    for (index, &n) in counts.iter().enumerate() {
        if n > 0 && (below + n) as f64 >= target {
            let lower = bucket_lower(index) as f64;
            let upper = bucket_max(index).saturating_add(1) as f64;
            let within = ((target - below as f64) / n as f64).clamp(0.0, 1.0);
            return lower + (upper - lower) * within;
        }
        below += n;
    }
    0.0
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(median(&values), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
