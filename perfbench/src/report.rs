//! Sample statistics and the result line the benchmark prints.

use std::fmt::Write as _;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
/// A percentile is reported only when this is at least
/// [`MIN_BEYOND`], so that a single outlier cannot set it.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Samples a reported tail percentile needs beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of unsorted samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0)
}

/// Arithmetic mean of the samples.
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named, unit-tagged metrics in emission order.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records one metric. Panics on an invalid or repeated name or a
    /// non-finite value: both are bugs in the benchmark.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.rows.iter().all(|(n, _, _)| *n != name),
            "metric {name} recorded twice"
        );
        self.rows.push((name, value, unit));
    }

    /// Metric names, in emission order.
    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.rows.iter().map(|(n, _, _)| n.as_str())
    }

    /// The value recorded under `name`.
    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|(n, _, _)| n == name).map(|r| r.1)
    }

    /// One `name value unit` line per metric, for people.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.rows {
            let _ = writeln!(out, "  {name:<44} {value:>16.6} {unit}");
        }
        out
    }

    /// The machine-readable result object: `correct`, `attempted`,
    /// `failed` and every metric with its unit.
    pub fn result_json(&self, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0 && attempted > 0
        );
        for (i, (name, value, unit)) in self.rows.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints an f64 with every digit needed to read it back.
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        let odd = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&odd, 50.0), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(beyond(100, 90.0), 10);
        assert!(beyond(100, 90.0) >= MIN_BEYOND);
        assert!(beyond(99, 90.0) < MIN_BEYOND);
        assert_eq!(beyond(250, 90.0), 25);
        assert_eq!(beyond(20, 50.0), 10);
    }

    #[test]
    fn metric_names_are_restricted() {
        for ok in ["setup_s", "core.path.select_input_ns", "a-b.c_9", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", "a\"b", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn duplicate_metric_is_a_bug() {
        let mut m = Metrics::default();
        m.put("x", 1.0, "s");
        m.put("x", 2.0, "s");
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.put("setup_s", 0.5, "s");
        assert_eq!(
            m.result_json(10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(m.result_json(10, 1).starts_with("{\"correct\": false"));
    }
}
