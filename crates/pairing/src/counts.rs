//! Per-thread operation counts, which unlike times are the same on every
//! run, in debug and release; `tests/tests/op_counts.rs` pins them per path.

use std::cell::Cell;

/// The calling thread's operation counts so far; count a span as the
/// difference of two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// [`crate::Fp::sqrt`] calls.
    pub sqrt: u64,
}

thread_local!(static COUNTS: Cell<OpCounts> = const { Cell::new(OpCounts { sqrt: 0 }) });

impl OpCounts {
    /// The calling thread's counts.
    pub fn now() -> OpCounts {
        COUNTS.with(Cell::get)
    }
}

/// Counts one square root on the calling thread.
pub(crate) fn note_sqrt() {
    let sqrt = OpCounts::now().sqrt + 1;
    COUNTS.with(|c| c.set(OpCounts { sqrt }));
}
