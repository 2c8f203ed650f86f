//! Robust statistics for the runner: nearest-rank percentiles inside one
//! window, then the quiet end of the run's windows, so that neither disturbed
//! windows nor a single outlier can move a reported figure.

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `q` of the samples at or below it.  `q` is a fraction in `(0, 1]`.
///
/// # Panics
/// On an empty slice: a window without samples is a bug in the runner, not a
/// value to paper over.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty window");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: the middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// The share of the windows, counted from the quiet end, whose last member is
/// the reported figure: with 64 windows the 4th quietest.
pub const QUIET_SHARE: f64 = 1.0 / 16.0;

/// One reported figure, from one value per window: the nearest-rank
/// [`QUIET_SHARE`] quantile counted from the **quiet** end (highest rate,
/// lowest latency) — the quietest window itself when there are 16 or fewer.
///
/// On a shared host interference is one-sided — a neighbour only ever slows a
/// window down — and comes in phases of seconds to minutes that can cover
/// most of a run, so the quiet end of many short windows is the run's
/// steadiest estimate of what the program does when the host lets it.  The
/// very quietest of many short windows is an outlier often enough to be
/// noisier than the few behind it, hence a quantile and not the extreme.
/// Both sides of a comparison cut their runs into the same windows, so the
/// optimism of reading the quiet end cancels.  The median and the noisiest
/// window are printed beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    pub quiet: f64,
    pub median: f64,
    pub noisiest: f64,
    /// Samples pooled over all windows.
    pub samples: usize,
}

impl Windowed {
    /// Summarises one value per window.
    pub fn of(per_window: &[f64], better: Better, samples: usize) -> Self {
        assert!(!per_window.is_empty(), "no windows");
        // Quietest first.
        let mut sorted = per_window.to_vec();
        sorted.sort_by(|a, b| match better {
            Better::Higher => b.total_cmp(a),
            Better::Lower => a.total_cmp(b),
        });
        let rank = (QUIET_SHARE * sorted.len() as f64).ceil() as usize;
        Windowed {
            quiet: sorted[rank.clamp(1, sorted.len()) - 1],
            median: median(per_window),
            noisiest: sorted[sorted.len() - 1],
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.01), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Nearest rank returns a sample, never an interpolation.
        assert_eq!(percentile(&[1.0, 100.0], 0.5), 1.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn the_quiet_figure_is_the_fourth_quietest_of_64_windows() {
        let rates: Vec<f64> = (1..=64).map(f64::from).collect();
        let rate = Windowed::of(&rates, Better::Higher, 64);
        assert_eq!((rate.quiet, rate.median, rate.noisiest), (61.0, 32.5, 1.0));
        let latency = Windowed::of(&rates, Better::Lower, 64);
        assert_eq!((latency.quiet, latency.noisiest), (4.0, 64.0));
        // 28 windows: the second quietest; 16 or fewer: the quietest.
        assert_eq!(Windowed::of(&rates[..28], Better::Lower, 0).quiet, 2.0);
        assert_eq!(Windowed::of(&[5.0, 9.0, 7.0], Better::Higher, 0).quiet, 9.0);
        assert_eq!(Windowed::of(&[5.0, 9.0, 7.0], Better::Lower, 0).quiet, 5.0);
    }

    #[test]
    fn disturbed_windows_and_one_outlier_do_not_move_the_quiet_figure() {
        // 64 windows with p90 latencies around 100.
        let mut p90s: Vec<f64> = (0..64).map(|w| 100.0 + (w % 8) as f64).collect();
        let calm = Windowed::of(&p90s, Better::Lower, 6400);
        // A neighbour slows half of the run by half: the median of the
        // windows moves, the quiet figure does not.
        for p90 in p90s.iter_mut().skip(32) {
            *p90 *= 1.5;
        }
        let disturbed = Windowed::of(&p90s, Better::Lower, 6400);
        assert_eq!(disturbed.quiet, calm.quiet);
        assert!(disturbed.median > 1.2 * calm.median);
        assert!(disturbed.noisiest > 150.0);
        // One window that reads impossibly well is not reported either.
        p90s[0] = 1.0;
        assert_eq!(Windowed::of(&p90s, Better::Lower, 6400).quiet, calm.quiet);
    }
}
