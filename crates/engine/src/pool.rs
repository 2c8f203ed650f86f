//! The worker pool: scoped `std::thread` workers claiming chunks from one
//! shared cursor, behind one ordered chunk map for batched conversion.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Maximum worker count accepted from [`ReEncryptEngine::new`] and
/// `TIBPRE_WORKERS` (a guard against typos, not a tuning parameter).
const MAX_WORKERS: usize = 256;

/// A multi-threaded re-encryption engine.
///
/// The engine is a *configuration* (worker count); the threads themselves are
/// scoped to each batch call via [`std::thread::scope`], which is what lets
/// the workers borrow the batch and the key directly — no cloning, no
/// `'static` bounds, no `unsafe`.  Spawning a thread costs a few tens of
/// microseconds while one toy-level pairing costs hundreds, so per-batch
/// spawning is lost in the noise for every batch size worth parallelising;
/// batches below two items per worker run sequentially anyway.
///
/// An engine is cheap to construct and freely shareable (`Sync`).  A proxy
/// node holds none — it converts on each connection's thread — so the
/// benchmark's `engine.*` rows are the engine's remaining callers.
#[derive(Clone, Debug)]
pub struct ReEncryptEngine {
    workers: usize,
}

impl ReEncryptEngine {
    /// An engine with `workers` threads per batch.  `0` and `1` both mean
    /// sequential execution (no threads are ever spawned); values above 256
    /// are clamped.
    pub fn new(workers: usize) -> Self {
        ReEncryptEngine {
            workers: workers.clamp(1, MAX_WORKERS),
        }
    }

    /// The sequential engine: behaves exactly like calling
    /// `tibpre_core::hybrid::re_encrypt_hybrid_batch` directly.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// An engine sized from the environment: the `TIBPRE_WORKERS` variable
    /// if it parses, else the machine's available parallelism.  An
    /// *unparsable* value falls back to available parallelism too — exactly
    /// like an unset variable — so a typo degrades nothing (it used to drop
    /// a multi-core node to sequential).
    pub fn from_env() -> Self {
        match std::env::var("TIBPRE_WORKERS").map(|spec| spec.trim().parse::<usize>()) {
            Ok(Ok(n)) => Self::new(n),
            _ => Self::new(thread::available_parallelism().map_or(1, |n| n.get())),
        }
    }

    /// The configured worker count (≥ 1).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Chunk-level infallible map: `f` converts one contiguous index range
    /// into the corresponding output vector, letting callers amortise
    /// per-chunk work across every item of a job — the re-encryption engine
    /// uses this to run one *batched* final exponentiation per chunk instead
    /// of one per ciphertext.
    ///
    /// `f` must return exactly `range.len()` outputs for the range it was
    /// given; results are reassembled in input order.  Below two items per
    /// worker the fan-out cannot win, so the whole input is handed to `f` as
    /// a single chunk on the calling thread (maximal amortisation, zero
    /// threads).  A panic in `f` propagates to the caller after all workers
    /// have stopped.
    pub fn par_map_chunks<U, F>(&self, count: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(Range<usize>) -> Vec<U> + Sync,
    {
        let checked = |range: Range<usize>| {
            let expected = range.len();
            let out = f(range);
            debug_assert_eq!(out.len(), expected, "chunk map must be length-preserving");
            out
        };
        if self.workers <= 1 || count < self.workers * 2 {
            return checked(0..count);
        }
        // Chunks are a few items each: large enough that claiming one stays
        // negligible next to the pairing work, small enough that a worker
        // that falls behind (preempted, or handed slower items) leaves the
        // rest of the batch to whichever worker is free.
        let chunk_size = (count / (self.workers * 4)).max(1);
        let cursor = AtomicUsize::new(0);
        let mut produced: Vec<(usize, Vec<U>)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers)
                .map(|_| {
                    let (cursor, checked) = (&cursor, &checked);
                    scope.spawn(move || {
                        let mut produced = Vec::new();
                        loop {
                            let start = cursor.fetch_add(chunk_size, Ordering::Relaxed);
                            if start >= count {
                                break produced;
                            }
                            let range = start..count.min(start + chunk_size);
                            produced.push((start, checked(range)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        produced.sort_unstable_by_key(|(start, _)| *start);
        produced.into_iter().flat_map(|(_, out)| out).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(ReEncryptEngine::new(0).workers(), 1);
        assert_eq!(ReEncryptEngine::new(1).workers(), 1);
        assert_eq!(ReEncryptEngine::new(8).workers(), 8);
        assert_eq!(ReEncryptEngine::new(100_000).workers(), MAX_WORKERS);
        assert_eq!(ReEncryptEngine::sequential().workers(), 1);
    }

    /// Regression: an unparsable `TIBPRE_WORKERS` must behave like an
    /// *unset* one (available parallelism), not like `1` — the old typo
    /// path silently dropped a multi-core node to sequential.  One test
    /// drives every case serially because the variable is process-global.
    #[test]
    fn from_env_falls_back_to_available_parallelism_on_garbage() {
        let machine = thread::available_parallelism().map_or(1, |n| n.get());
        let saved = std::env::var("TIBPRE_WORKERS").ok();

        std::env::remove_var("TIBPRE_WORKERS");
        let unset = ReEncryptEngine::from_env();
        assert_eq!(unset.workers(), machine.clamp(1, MAX_WORKERS));

        for garbage in ["eight", "4x", "", " ", "-2", "3.5"] {
            std::env::set_var("TIBPRE_WORKERS", garbage);
            let engine = ReEncryptEngine::from_env();
            assert_eq!(engine.workers(), unset.workers(), "spec {garbage:?}");
        }

        // Parsable values are honoured, with surrounding whitespace.
        std::env::set_var("TIBPRE_WORKERS", " 3 ");
        assert_eq!(ReEncryptEngine::from_env().workers(), 3);

        match saved {
            Some(v) => std::env::set_var("TIBPRE_WORKERS", v),
            None => std::env::remove_var("TIBPRE_WORKERS"),
        }
    }

    #[test]
    fn par_map_chunks_matches_the_flat_map() {
        let expected: Vec<usize> = (0..777).map(|i| i * 7).collect();
        for workers in [1, 2, 4, 7] {
            let engine = ReEncryptEngine::new(workers);
            let out = engine.par_map_chunks(777, |range| range.map(|i| i * 7).collect());
            assert_eq!(out, expected, "workers {workers}");
        }
        // Empty and tiny inputs take the single-chunk path.
        let engine = ReEncryptEngine::new(4);
        assert_eq!(engine.par_map_chunks(0, |r| r.collect::<Vec<_>>()), vec![]);
        assert_eq!(engine.par_map_chunks(1, |r| r.collect::<Vec<_>>()), vec![0]);
    }

    #[test]
    fn worker_panic_propagates() {
        let engine = ReEncryptEngine::new(4);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.par_map_chunks(256, |range| {
                if range.contains(&128) {
                    panic!("boom");
                }
                range.collect()
            })
        }));
        assert!(caught.is_err());
    }
}
