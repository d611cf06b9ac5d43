//! Exact order statistics over the benchmark's own samples. Nothing
//! here reads the program's log2 histograms.

/// Nearest-rank percentile: the `⌈q·n⌉`-th smallest sample
/// (`q` in `(0, 1]`). `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median by nearest rank.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Ascending copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// One human-readable line of percentiles with the sample count. A
/// tail percentile is printed only when at least ten samples lie
/// beyond it; the median always is.
pub fn describe(label: &str, values: &[f64], unit: &str) -> String {
    if values.is_empty() {
        return format!("{label}: no samples");
    }
    let s = sorted(values);
    let mut line = format!("{label}: n={}", s.len());
    for (name, q) in [("p50", 0.5), ("p75", 0.75), ("p90", 0.9), ("p99", 0.99)] {
        if q == 0.5 || beyond(s.len(), q) >= 10 {
            line += &format!(" {name}={:.3}{unit}", percentile(&s, q));
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_by_hand() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.75), 8.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert_eq!(beyond(40, 0.75), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(beyond(100, 0.9), 10);
        let few: Vec<f64> = (0..39).map(f64::from).collect();
        let line = describe("x", &few, "ms");
        assert!(line.contains("n=39") && line.contains("p50") && !line.contains("p75"));
        let many: Vec<f64> = (0..100).map(f64::from).collect();
        let line = describe("x", &many, "ms");
        assert!(line.contains("p90") && !line.contains("p99"));
    }
}
