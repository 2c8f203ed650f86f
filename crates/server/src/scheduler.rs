//! The cross-request batch scheduler: the middle stage of the node's
//! reader → scheduler → writer pipeline.
//!
//! Connection readers decode frames and submit pairing-heavy requests here
//! as [`BatchEntry`]s; one scheduler thread drains up to `batch_max`
//! entries per tick and executes them as a single batch (the proxy's
//! [`disclose_batch`](tibpre_phr::ProxyService::disclose_batch) path),
//! filling each entry's [`ResponseSlot`].  The connection's writer thread
//! consumes slots strictly in submission order, so per-connection response
//! order is preserved no matter how the scheduler interleaves work across
//! connections.
//!
//! The drain window is adaptive, Nagle-style: a request that arrives at an
//! *idle* scheduler dispatches immediately — a lone client pays no added
//! latency — while a queue that already holds several requests lingers up
//! to `batch_window` to let the batch fill toward `batch_max` under load.
//!
//! Shutdown is drain-correct by construction: [`Scheduler::run`] keeps
//! executing while entries remain and exits only once it is both stopped
//! *and* empty, so every submitted request is answered; a submission that
//! loses the race against [`Scheduler::stop`] is handed back to the caller
//! to answer inline.

use crate::metrics;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tibpre_client::{RemoteError, Request, Response};

/// A single-use response mailbox: filled exactly once by whoever executes
/// the request, consumed by the connection's writer thread.
pub(crate) struct ResponseSlot {
    state: Mutex<Option<Response>>,
    ready: Condvar,
}

/// Locks a slot's state, recovering from a poisoned mutex — a filler can
/// only poison the lock by panicking mid-store, and the slot's `Option`
/// state is valid in either half of that race.
fn lock_state(slot: &ResponseSlot) -> MutexGuard<'_, Option<Response>> {
    slot.state
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

impl ResponseSlot {
    /// A slot awaiting its response.
    pub(crate) fn empty() -> Arc<Self> {
        Arc::new(ResponseSlot {
            state: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    /// A slot born filled (inline fast-path responses).
    pub(crate) fn filled(response: Response) -> Arc<Self> {
        Arc::new(ResponseSlot {
            state: Mutex::new(Some(response)),
            ready: Condvar::new(),
        })
    }

    /// Fills the slot and wakes its consumer.
    pub(crate) fn fill(&self, response: Response) {
        *lock_state(self) = Some(response);
        self.ready.notify_all();
    }

    /// Blocks until the slot is filled and takes the response.
    pub(crate) fn wait_take(&self) -> Response {
        let mut state = lock_state(self);
        loop {
            if let Some(response) = state.take() {
                return response;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(|poison| poison.into_inner());
        }
    }

    /// Takes the response if it is already there (the writer's coalescing
    /// peek — never blocks).
    pub(crate) fn try_take(&self) -> Option<Response> {
        lock_state(self).take()
    }
}

/// One queued request and the slot its response goes to.
pub(crate) struct BatchEntry {
    /// The decoded request.
    pub(crate) request: Request,
    /// Where its response must land.
    pub(crate) slot: Arc<ResponseSlot>,
}

struct SchedState {
    queue: VecDeque<BatchEntry>,
    stopped: bool,
}

/// The submission queue and its drain policy.
pub(crate) struct Scheduler {
    state: Mutex<SchedState>,
    nonempty: Condvar,
    batch_max: usize,
    batch_window: Duration,
}

impl Scheduler {
    pub(crate) fn new(batch_max: usize, batch_window: Duration) -> Arc<Self> {
        Arc::new(Scheduler {
            state: Mutex::new(SchedState {
                queue: VecDeque::new(),
                stopped: false,
            }),
            nonempty: Condvar::new(),
            batch_max: batch_max.max(1),
            batch_window,
        })
    }

    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Queues one entry for the next batch.  After [`Scheduler::stop`] the
    /// entry is handed back — the caller answers it inline so no request
    /// is ever silently dropped in the shutdown race.
    pub(crate) fn submit(&self, entry: BatchEntry) -> Result<(), BatchEntry> {
        let mut state = self.lock();
        if state.stopped {
            return Err(entry);
        }
        state.queue.push_back(entry);
        metrics::note_queue_depth(state.queue.len());
        drop(state);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Stops the scheduler: new submissions bounce, and [`Scheduler::run`]
    /// exits once the queue is drained.
    pub(crate) fn stop(&self) {
        self.lock().stopped = true;
        self.nonempty.notify_all();
    }

    /// The scheduler loop: drains batches and executes them through `exec`
    /// until stopped *and* empty.  `exec` must return exactly one response
    /// per request, in request order; a short return fills the remainder
    /// with internal errors rather than leaving a writer blocked forever.
    pub(crate) fn run(&self, exec: impl Fn(Vec<Request>) -> Vec<Response>) {
        loop {
            let mut state = self.lock();
            while state.queue.is_empty() && !state.stopped {
                state = self
                    .nonempty
                    .wait(state)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
            if state.queue.is_empty() {
                return; // stopped and drained
            }
            let mut batch: Vec<BatchEntry> = Vec::new();
            let drain = |state: &mut SchedState, batch: &mut Vec<BatchEntry>| {
                while batch.len() < self.batch_max {
                    match state.queue.pop_front() {
                        Some(entry) => batch.push(entry),
                        None => break,
                    }
                }
            };
            drain(&mut state, &mut batch);
            // Adaptive window: a lone request (idle scheduler) dispatches
            // immediately; a partial batch under load lingers briefly so
            // concurrent submissions coalesce instead of each paying a
            // full pairing-path dispatch.
            if batch.len() > 1 && batch.len() < self.batch_max && !state.stopped {
                let deadline = Instant::now() + self.batch_window;
                loop {
                    let now = Instant::now();
                    if now >= deadline || batch.len() >= self.batch_max || state.stopped {
                        break;
                    }
                    let (guard, timeout) = self
                        .nonempty
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(|poison| poison.into_inner());
                    state = guard;
                    drain(&mut state, &mut batch);
                    if timeout.timed_out() {
                        break;
                    }
                }
            }
            metrics::note_queue_depth(state.queue.len());
            drop(state);

            metrics::note_batch(batch.len());
            let (requests, slots): (Vec<_>, Vec<_>) = batch
                .into_iter()
                .map(|entry| (entry.request, entry.slot))
                .unzip();
            let mut responses = exec(requests).into_iter();
            for slot in &slots {
                slot.fill(responses.next().unwrap_or_else(|| {
                    Response::Error(RemoteError::Internal(
                        "batch executor returned too few responses".to_string(),
                    ))
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_blocks_until_filled_across_threads() {
        let slot = ResponseSlot::empty();
        assert!(slot.try_take().is_none());
        let filler = Arc::clone(&slot);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            filler.fill(Response::Ok);
        });
        assert!(matches!(slot.wait_take(), Response::Ok));
        handle.join().unwrap();
        // Taken means gone.
        assert!(slot.try_take().is_none());
    }

    #[test]
    fn batches_respect_batch_max_and_answer_everything() {
        // 1 is a size like any other: batches of one.
        for batch_max in [1, 3] {
            let sched = Scheduler::new(batch_max, Duration::from_micros(200));
            let slots: Vec<_> = (0..7).map(|_| ResponseSlot::empty()).collect();
            for slot in &slots {
                sched
                    .submit(BatchEntry {
                        request: Request::Ping,
                        slot: Arc::clone(slot),
                    })
                    .unwrap_or_else(|_| panic!("fresh scheduler rejected a submission"));
            }
            let runner = Arc::clone(&sched);
            let handle = std::thread::spawn(move || {
                runner.run(|requests| {
                    assert!(requests.len() <= batch_max, "batch exceeded batch_max");
                    requests
                        .iter()
                        .map(|_| Response::Count(requests.len() as u64))
                        .collect()
                });
            });
            // Every slot is answered with its batch's size; sizes never
            // exceed the cap.
            for slot in &slots {
                match slot.wait_take() {
                    Response::Count(n) => assert!((1..=batch_max as u64).contains(&n)),
                    other => panic!("wrong response: {other:?}"),
                }
            }
            sched.stop();
            handle.join().unwrap();
        }
    }

    #[test]
    fn stop_drains_the_queue_then_exits_and_bounces_new_submissions() {
        let sched = Scheduler::new(8, Duration::ZERO);
        let queued: Vec<_> = (0..5).map(|_| ResponseSlot::empty()).collect();
        for slot in &queued {
            sched
                .submit(BatchEntry {
                    request: Request::Ping,
                    slot: Arc::clone(slot),
                })
                .unwrap_or_else(|_| panic!("fresh scheduler rejected a submission"));
        }
        // Stop BEFORE the runner starts: the queued entries must still be
        // answered (graceful drain), and only then may run() return.
        sched.stop();
        let runner = Arc::clone(&sched);
        let handle = std::thread::spawn(move || {
            runner.run(|requests| requests.iter().map(|_| Response::Ok).collect());
        });
        for slot in &queued {
            assert!(matches!(slot.wait_take(), Response::Ok));
        }
        handle.join().unwrap();
        // A post-stop submission comes straight back for inline handling.
        let late = ResponseSlot::empty();
        let bounced = sched.submit(BatchEntry {
            request: Request::Ping,
            slot: late,
        });
        assert!(bounced.is_err());
    }

    #[test]
    fn short_executor_returns_fill_internal_errors_not_hangs() {
        let sched = Scheduler::new(4, Duration::ZERO);
        let slots: Vec<_> = (0..2).map(|_| ResponseSlot::empty()).collect();
        for slot in &slots {
            sched
                .submit(BatchEntry {
                    request: Request::Ping,
                    slot: Arc::clone(slot),
                })
                .unwrap_or_else(|_| panic!("fresh scheduler rejected a submission"));
        }
        sched.stop();
        let runner = Arc::clone(&sched);
        let handle = std::thread::spawn(move || {
            runner.run(|_| Vec::new()); // hostile executor: zero responses
        });
        for slot in &slots {
            assert!(matches!(
                slot.wait_take(),
                Response::Error(RemoteError::Internal(_))
            ));
        }
        handle.join().unwrap();
    }
}
