//! Metric lines and the closing one-line JSON summary.

use crate::stats::Windowed;
use std::fmt::Write as _;

/// One named figure with its unit and how it was obtained.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

impl Metric {
    pub fn plain(name: &str, value: f64, unit: &'static str, note: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.to_string(),
        }
    }

    /// The quiet end of the windows, with their median and noisiest value and
    /// the pooled sample count beside it.
    pub fn windowed(name: &str, w: Windowed, unit: &'static str, windows: usize) -> Self {
        Metric {
            name: name.to_string(),
            value: w.quiet,
            unit,
            note: format!(
                "quiet sixteenth of {windows} windows, median {:.4} noisiest {:.4}, n={}",
                w.median, w.noisiest, w.samples
            ),
        }
    }
}

/// `name value unit  # note`, one line per metric.
pub fn print_metrics(metrics: &[Metric]) {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in metrics {
        println!("{:<width$}  {} {}  # {}", m.name, m.value, m.unit, m.note);
    }
}

/// The contract's closing line.  Values print with every digit measured.
pub fn summary(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let comma = if i == 0 { "" } else { ", " };
        assert!(m.value.is_finite(), "{} is not a number", m.name);
        let _ = write!(
            out,
            "{comma}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_is_one_line_of_json_with_full_precision() {
        let metrics = [
            Metric::plain("setup_s", 1.234_567_890_123, "s", ""),
            Metric::plain("op_per_s", 463.0, "1/s", ""),
        ];
        let line = summary(true, 1000, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.234567890123, \"unit\": \"s\"}, \
             \"op_per_s\": {\"value\": 463, \"unit\": \"1/s\"}}}"
        );
        assert!(!line.contains('\n'));
    }
}
