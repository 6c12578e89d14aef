//! Sample summaries: nearest-rank quantiles and the "median plus the
//! highest percentile with at least ten samples beyond it" line every
//! timing is reported with.

/// Nearest-rank quantile of `xs` (sorted in place); 0 when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest of a fixed ladder of percentiles that leaves at least
/// ten samples above it, with its value; `None` below 20 samples.
pub fn supported_tail(xs: &mut [f64]) -> Option<(f64, f64)> {
    const LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    let n = xs.len();
    LADDER
        .iter()
        .find(|&&p| n - ((p / 100.0 * n as f64).ceil() as usize).min(n) >= 10)
        .map(|&p| (p, quantile(xs, p / 100.0)))
}

/// One human-readable summary line for a timing sample set.
pub fn describe(name: &str, unit: &str, xs: &mut [f64]) -> String {
    let n = xs.len();
    let med = median(xs);
    match supported_tail(xs) {
        Some((p, v)) => format!("{name}: n={n} p50={med:.3}{unit} p{p}={v:.3}{unit}"),
        None => format!("{name}: n={n} p50={med:.3}{unit} (too few samples for a tail)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.5), 50.0);
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
        assert_eq!(quantile(&mut xs, 1.0), 100.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&mut xs), Some((99.0, 990.0)));
        let mut few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(supported_tail(&mut few), None);
    }
}
