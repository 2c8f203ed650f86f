//! Process-global disclosure-run counters, in the mold of the PHR crate's
//! engine metrics: relaxed atomics the hot path bumps for free, snapshotted
//! on demand by the `SchedStats` protocol request.
//!
//! A proxy's connection threads feed the run counters (`batches`,
//! `batched_requests`, the histogram) and `bypass`; every connection
//! feeds the backlog depth (`queue_depth`, `queue_peak`: requests read and
//! not yet answered).  The counters are process-global rather than
//! per-node: a deployment runs one node per process, and the in-process
//! multi-node test topologies only ever run one proxy, so the aggregate
//! stays readable.

use std::sync::atomic::{AtomicU64, Ordering};
use tibpre_client::SchedStatsReport;

static BATCHES: AtomicU64 = AtomicU64::new(0);
static BATCHED_REQUESTS: AtomicU64 = AtomicU64::new(0);
static BYPASS: AtomicU64 = AtomicU64::new(0);
static QUEUE_DEPTH: AtomicU64 = AtomicU64::new(0);
static QUEUE_PEAK: AtomicU64 = AtomicU64::new(0);

const HIST_BUCKETS: usize = 8;
static HIST: [AtomicU64; HIST_BUCKETS] = [const { AtomicU64::new(0) }; HIST_BUCKETS];

/// The histogram bucket for a run of `size` requests: buckets cover
/// `1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, 65+` (matching the documentation
/// on [`SchedStatsReport`]).
fn bucket(size: usize) -> usize {
    if size <= 1 {
        0
    } else {
        (((size - 1).ilog2() as usize) + 1).min(HIST_BUCKETS - 1)
    }
}

/// Records one executed run of `size` disclosure requests.
pub(crate) fn note_run(size: usize) {
    BATCHES.fetch_add(1, Ordering::Relaxed);
    BATCHED_REQUESTS.fetch_add(size as u64, Ordering::Relaxed);
    HIST[bucket(size)].fetch_add(1, Ordering::Relaxed);
}

/// Records one proxy request executed outside a disclosure run.
pub(crate) fn note_bypass() {
    BYPASS.fetch_add(1, Ordering::Relaxed);
}

/// Records `frames` requests read from a connection, not yet answered.
pub(crate) fn note_read(frames: usize) {
    let frames = frames as u64;
    let depth = QUEUE_DEPTH.fetch_add(frames, Ordering::Relaxed) + frames;
    QUEUE_PEAK.fetch_max(depth, Ordering::Relaxed);
}

/// Records `frames` requests answered (or dropped with their connection).
pub(crate) fn note_answered(frames: usize) {
    QUEUE_DEPTH.fetch_sub(frames as u64, Ordering::Relaxed);
}

/// A snapshot of the run counters, in the shape the `SchedStats`
/// protocol request answers with.
pub fn sched_snapshot() -> SchedStatsReport {
    let mut hist = [0u64; HIST_BUCKETS];
    for (out, bucket) in hist.iter_mut().zip(&HIST) {
        *out = bucket.load(Ordering::Relaxed);
    }
    SchedStatsReport {
        batches: BATCHES.load(Ordering::Relaxed),
        batched_requests: BATCHED_REQUESTS.load(Ordering::Relaxed),
        bypass: BYPASS.load(Ordering::Relaxed),
        queue_depth: QUEUE_DEPTH.load(Ordering::Relaxed),
        queue_peak: QUEUE_PEAK.load(Ordering::Relaxed),
        hist,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_documented_ranges() {
        assert_eq!(bucket(1), 0);
        assert_eq!(bucket(2), 1);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 2);
        assert_eq!(bucket(5), 3);
        assert_eq!(bucket(8), 3);
        assert_eq!(bucket(9), 4);
        assert_eq!(bucket(16), 4);
        assert_eq!(bucket(17), 5);
        assert_eq!(bucket(32), 5);
        assert_eq!(bucket(33), 6);
        assert_eq!(bucket(64), 6);
        assert_eq!(bucket(65), 7);
        assert_eq!(bucket(10_000), 7);
    }

    #[test]
    fn counters_accumulate_into_the_snapshot() {
        // Process-global state: assert on deltas, not absolutes, so this
        // test composes with everything else in the binary.
        let before = sched_snapshot();
        note_run(4);
        note_bypass();
        note_read(9);
        let after = sched_snapshot();
        note_answered(9);
        assert_eq!(after.batches, before.batches + 1);
        assert_eq!(after.batched_requests, before.batched_requests + 4);
        assert_eq!(after.bypass, before.bypass + 1);
        assert!(after.queue_peak >= 9);
        assert_eq!(after.hist[bucket(4)], before.hist[bucket(4)] + 1);
    }
}
