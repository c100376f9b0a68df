//! Summary statistics and metric-name rules of the benchmark's report.

/// The median of `xs` (mean of the middle pair for even counts), or
/// `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by the "exclusive" method
/// (Python's `statistics.quantiles(xs, n=4)`), so the spread this
/// benchmark reports about itself is the spread its users compute.
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = (n + 1) as i64;
    let mut q = [0.0; 3];
    for (i, slot) in q.iter_mut().enumerate() {
        let num = (i as i64 + 1) * m;
        // Clamped to 1..=n-1 like Python, which then extrapolates.
        let j = (num / 4).clamp(1, n as i64 - 1);
        let delta = (num - j * 4) as f64;
        let j = j as usize;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(q)
}

/// Samples that must lie above a reported percentile. A tail percentile
/// resting on fewer samples than this is noise, so it is not reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The nearest-rank `p`-th percentile of `xs`, provided at least
/// [`MIN_TAIL_SAMPLES`] samples rank above it; `None` otherwise.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(s[rank - 1])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Longest metric name the report accepts.
pub const MAX_NAME_LEN: usize = 64;

/// True when `name` is a valid metric or workload name: 1 to
/// [`MAX_NAME_LEN`] characters from `[A-Za-z0-9_.-]`, starting with a
/// letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= MAX_NAME_LEN
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    /// Reference values from Python 3.11 `statistics.quantiles(xs, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        let seven = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0];
        assert_eq!(quartiles(&seven), Some([20.0, 40.0, 60.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(100.0));
        assert_eq!(percentile(&xs, 95.0), Some(190.0), "exactly 10 beyond");
        assert_eq!(percentile(&xs, 99.0), None, "only 2 beyond");
        let epochs: Vec<f64> = (1..=4000).map(f64::from).collect();
        assert_eq!(percentile(&epochs, 99.0), Some(3960.0));
        assert_eq!(percentile(&xs[..15], 50.0), None, "7 beyond the median");
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn names_are_restricted_to_the_report_alphabet() {
        for ok in [
            "wall_s",
            "sim.us_per_event.p50",
            "static-2k",
            "shard.worker.0.wait_s",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".x",
            "_x",
            "a b",
            "a/b",
            "dco:lookup",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }
}
