//! Order statistics for the benchmark's reports. Kept apart from
//! `simkit::stats` so that a change to the program cannot change how
//! the benchmark summarises its measurements.

/// Fewest samples that must lie above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The `q`-th percentile (nearest rank) of `samples`, reported only
/// when at least [`MIN_BEYOND`] samples lie strictly above its rank, so
/// that a tail figure never rests on a handful of observations.
pub fn percentile_with_support(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..=100.0).contains(&q) {
        return None;
    }
    let rank = ((q / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// A pass's latency summary: the median and the highest of p99/p90
/// that has [`MIN_BEYOND`] samples beyond it. A pass too small for
/// either (a standard-run pass is one request) falls back to its
/// middle and slowest sample; `label` names what was reported.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    pub p50: f64,
    pub tail: f64,
    pub label: &'static str,
}

pub fn summarize_latency(samples: &[f64]) -> LatencySummary {
    let p50 = percentile_with_support(samples, 50.0);
    let tail = [(99.0, "p99"), (90.0, "p90")]
        .into_iter()
        .find_map(|(q, label)| percentile_with_support(samples, q).map(|v| (v, label)));
    match (p50, tail) {
        (Some(p50), Some((tail, label))) => LatencySummary { p50, tail, label },
        _ => LatencySummary {
            p50: median(samples),
            tail: samples.iter().copied().fold(0.0, f64::max),
            label: "median/max (too few samples for a percentile)",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_requires_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=112).map(f64::from).collect();
        // p90 of 112: rank 101, 11 beyond it.
        assert_eq!(percentile_with_support(&samples, 90.0), Some(101.0));
        // p99 of 112: rank 111, only 1 beyond it.
        assert_eq!(percentile_with_support(&samples, 99.0), None);
        // p50 of 19: rank 10, 9 beyond it; of 20: rank 10, 10 beyond.
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile_with_support(&nineteen, 50.0), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile_with_support(&twenty, 50.0), Some(10.0));
        // p99 needs 1000 samples.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_with_support(&big, 99.0), Some(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile_with_support(&short, 99.0), None);
    }

    #[test]
    fn summary_picks_the_highest_supported_tail() {
        let grid: Vec<f64> = (1..=112).map(f64::from).collect();
        let s = summarize_latency(&grid);
        assert_eq!((s.label, s.tail), ("p90", 101.0));
        let serve: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(summarize_latency(&serve).label, "p99");
        let standard = summarize_latency(&[2.0, 1.0, 3.0]);
        assert_eq!((standard.p50, standard.tail), (2.0, 3.0));
        assert!(standard.label.starts_with("median/max"));
    }
}
