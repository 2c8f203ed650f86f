//! The worker pool: scoped `std::thread` workers claiming chunks from one
//! shared cursor, behind two ordered maps — an infallible chunk map for
//! batched conversion and a fallible index map for store recovery.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
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
/// An engine is cheap to construct and freely shareable (`Sync`).  A store
/// opens its shards on one sized by [`ReEncryptEngine::from_env`]; a proxy
/// node holds none — it converts on each connection's thread, and the
/// benchmark's `engine.*` rows are the engine's remaining conversion
/// callers.
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

    /// Batches smaller than this run on the calling thread even on a
    /// multi-worker engine: below two items per worker the fan-out cannot
    /// win.
    fn parallel_threshold(&self) -> usize {
        self.workers * 2
    }

    /// The one scoped-worker scaffold both maps run on: splits `0..count`
    /// into chunks, runs `job` on every chunk across the engine's workers,
    /// and returns the per-chunk outputs ordered by chunk start.  A panic in
    /// `job` propagates to the caller after all workers have stopped.
    fn run_chunks<R, F>(&self, count: usize, job: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        // Chunks are a few items each: large enough that claiming one stays
        // negligible next to the pairing work, small enough that a worker
        // that falls behind (preempted, or handed slower items) leaves the
        // rest of the batch to whichever worker is free.
        let chunk_size = (count / (self.workers * 4)).max(1);
        let cursor = AtomicUsize::new(0);
        let mut produced: Vec<(usize, R)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers)
                .map(|_| {
                    let (cursor, job) = (&cursor, &job);
                    scope.spawn(move || {
                        let mut produced = Vec::new();
                        loop {
                            let start = cursor.fetch_add(chunk_size, Ordering::Relaxed);
                            if start >= count {
                                break produced;
                            }
                            let range = start..count.min(start + chunk_size);
                            produced.push((start, job(range)));
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
        produced.into_iter().map(|(_, out)| out).collect()
    }

    /// Maps the fallible `f` over `0..count` in parallel across the engine's
    /// workers, returning the results in index order.  Callers' "items" are
    /// positions into some shared structure — a snapshot's blob table, a
    /// store's shard array.
    ///
    /// If any application fails, the whole map fails with the error of the
    /// **lowest failing index** — the error a sequential `for` loop would
    /// have surfaced — and every already-computed result is discarded.
    /// Below the parallel threshold it *is* that sequential loop, on the
    /// calling thread.
    pub fn try_par_map_indices<U, E, F>(&self, count: usize, f: F) -> Result<Vec<U>, E>
    where
        U: Send,
        E: Send,
        F: Fn(usize) -> Result<U, E> + Sync,
    {
        if self.workers <= 1 || count < self.parallel_threshold() {
            return (0..count).map(&f).collect();
        }
        // The lowest failing index seen so far, and its error.  `floor` is a
        // monotonically decreasing copy of the index that workers poll to
        // skip work that a sequential run would never have reached.
        let floor = AtomicUsize::new(usize::MAX);
        let first_error: Mutex<Option<(usize, E)>> = Mutex::new(None);
        let chunks = self.run_chunks(count, |range| {
            // Work entirely above a known failure can be dropped: the
            // sequential loop would have stopped before it.  Work below the
            // floor must still run (it may contain an even earlier error).
            if range.start > floor.load(Ordering::Relaxed) {
                return Vec::new();
            }
            let mut out = Vec::with_capacity(range.len());
            for i in range {
                match f(i) {
                    Ok(value) => out.push(value),
                    Err(e) => {
                        let mut slot = first_error.lock().unwrap_or_else(|p| p.into_inner());
                        if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                            *slot = Some((i, e));
                            floor.fetch_min(i, Ordering::Relaxed);
                        }
                        break;
                    }
                }
            }
            out
        });
        match first_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
            Some((_, e)) => Err(e),
            None => Ok(chunks.into_iter().flatten().collect()),
        }
    }

    /// Chunk-level infallible map: `f` converts one contiguous index range
    /// into the corresponding output vector, letting callers amortise
    /// per-chunk work across every item of a job — the re-encryption engine
    /// uses this to run one *batched* final exponentiation per chunk instead
    /// of one per ciphertext.
    ///
    /// `f` must return exactly `range.len()` outputs for the range it was
    /// given; results are reassembled in input order.  Below the parallel
    /// threshold the whole input is handed to `f` as a single chunk on the
    /// calling thread (maximal amortisation, zero threads).
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
        if self.workers <= 1 || count < self.parallel_threshold() {
            return checked(0..count);
        }
        self.run_chunks(count, checked)
            .into_iter()
            .flatten()
            .collect()
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
    fn try_par_map_returns_the_lowest_index_error() {
        let engine = ReEncryptEngine::new(4);
        // Fail on every multiple of 97 except 0: the sequential loop would
        // report 97, whichever worker reaches a later multiple first.
        let result: Result<Vec<usize>, usize> =
            engine.try_par_map_indices(512, |i| if i != 0 && i % 97 == 0 { Err(i) } else { Ok(i) });
        assert_eq!(result.unwrap_err(), 97);
    }

    #[test]
    fn try_par_map_empty_and_tiny_inputs() {
        let engine = ReEncryptEngine::new(4);
        let empty: Result<Vec<u32>, ()> = engine.try_par_map_indices(0, |_| Ok(7));
        assert_eq!(empty.unwrap(), Vec::<u32>::new());
        let one: Result<Vec<usize>, ()> = engine.try_par_map_indices(1, |i| Ok(i + 42));
        assert_eq!(one.unwrap(), vec![42]);
    }

    #[test]
    fn try_par_map_indices_matches_the_sequential_loop() {
        for workers in [1, 4] {
            let engine = ReEncryptEngine::new(workers);
            let out: Result<Vec<usize>, ()> = engine.try_par_map_indices(1000, |i| Ok(i * 3));
            assert_eq!(out.unwrap(), (0..1000).map(|i| i * 3).collect::<Vec<_>>());
            let err: Result<Vec<usize>, usize> = engine.try_par_map_indices(1000, |i| {
                if i >= 100 && i % 100 == 0 {
                    Err(i)
                } else {
                    Ok(i)
                }
            });
            assert_eq!(err.unwrap_err(), 100, "workers {workers}");
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
