//! A node's own run and backlog counters, reported by its `Stats` answer:
//! relaxed atomics on the node's shared state, never a lock.  A proxy
//! counts the runs it executes (`batches`, `batched_requests`, the
//! histogram) and every other request (`bypass`); every node counts the
//! requests read and not yet answered (`queue_depth`, `queue_peak`).

use std::sync::atomic::{AtomicU64, Ordering};
use tibpre_client::{Request, StatsReport};

const HIST_BUCKETS: usize = 8;

/// The histogram bucket for a run of `size` requests, the bit length of
/// `size - 1`: `1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, 65+` (as documented on
/// [`StatsReport`]).
fn bucket(size: usize) -> usize {
    (usize::BITS - size.saturating_sub(1).leading_zeros()).min(HIST_BUCKETS as u32 - 1) as usize
}

/// One node's counters.
#[derive(Default)]
pub(crate) struct RunCounters {
    batches: AtomicU64,
    batched_requests: AtomicU64,
    bypass: AtomicU64,
    queue_depth: AtomicU64,
    queue_peak: AtomicU64,
    hist: [AtomicU64; HIST_BUCKETS],
}

impl RunCounters {
    /// Records one run a proxy executes: consecutive `Disclose` requests or
    /// a `DiscloseCategory` are a disclosure run, anything else a bypass.
    pub(crate) fn note_proxy_run(&self, run: &[Request]) {
        let size = match run.first() {
            Some(Request::Disclose { .. }) => run.len(),
            Some(Request::DiscloseCategory { .. }) => 1,
            _ => {
                self.bypass.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(size as u64, Ordering::Relaxed);
        self.hist[bucket(size)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records `frames` requests read from a connection, not yet answered.
    pub(crate) fn note_read(&self, frames: usize) {
        let frames = frames as u64;
        let depth = self.queue_depth.fetch_add(frames, Ordering::Relaxed) + frames;
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records `frames` requests answered (or dropped with their connection).
    pub(crate) fn note_answered(&self, frames: usize) {
        self.queue_depth.fetch_sub(frames as u64, Ordering::Relaxed);
    }

    /// The counters, reported beside a store's replication view.
    pub(crate) fn report(&self, positions: Vec<u64>, writable: bool) -> StatsReport {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        StatsReport {
            batches: load(&self.batches),
            batched_requests: load(&self.batched_requests),
            bypass: load(&self.bypass),
            queue_depth: load(&self.queue_depth),
            queue_peak: load(&self.queue_peak),
            hist: self.hist.each_ref().map(load),
            positions,
            writable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tibpre_ibe::Identity;
    use tibpre_phr::{Category, RecordId};

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
        let who = || Identity::new("p");
        let disclose = Request::Disclose {
            patient: who(),
            id: RecordId(7),
            requester: who(),
        };
        let category = Request::DiscloseCategory {
            patient: who(),
            category: Category::LabResults,
            requester: who(),
        };
        let counters = RunCounters::default();
        counters.note_proxy_run(&vec![disclose; 4]);
        counters.note_proxy_run(&[category]);
        counters.note_proxy_run(&[Request::KeyCount]);
        counters.note_read(9);
        let during = counters.report(vec![3, 5], true);
        counters.note_answered(9);
        let mut hist = [0; HIST_BUCKETS];
        (hist[bucket(4)], hist[bucket(1)]) = (1, 1);
        assert_eq!(
            during,
            StatsReport {
                batches: 2,
                batched_requests: 5,
                bypass: 1,
                queue_depth: 9,
                queue_peak: 9,
                hist,
                positions: vec![3, 5],
                writable: true,
            }
        );
        let after = counters.report(Vec::new(), false);
        assert_eq!((after.queue_depth, after.queue_peak), (0, 9));
    }
}
