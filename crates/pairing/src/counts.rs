//! Per-thread operation counts, which unlike times are the same on every
//! run, in debug and release; `tests/tests/op_counts.rs` pins them per path.

use std::cell::Cell;
use std::ops::{AddAssign, Sub};

/// The calling thread's operation counts so far; count a span as the
/// difference of two, and charge it to another thread by adding it there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// [`crate::Fp::sqrt`] calls.
    pub sqrt: u64,
    /// [`crate::Fp::invert`] calls, so a batch inversion counts one.
    pub inv: u64,
    /// Full encodes of a stored PHR record (`tibpre-phr`'s `StoredRecord`).
    pub record_encode: u64,
    /// Full decodes of a stored PHR record.
    pub record_decode: u64,
}

thread_local!(static COUNTS: Cell<OpCounts> = const {
    Cell::new(OpCounts { sqrt: 0, inv: 0, record_encode: 0, record_decode: 0 })
});

impl OpCounts {
    /// The calling thread's counts.
    pub fn now() -> OpCounts {
        COUNTS.with(Cell::get)
    }

    /// Counts on the calling thread, as in `OpCounts::note(|c| c.inv += 1)`.
    pub fn note(bump: impl FnOnce(&mut OpCounts)) {
        let mut counts = OpCounts::now();
        bump(&mut counts);
        COUNTS.with(|cell| cell.set(counts));
    }
}

impl Sub for OpCounts {
    type Output = OpCounts;

    fn sub(self, before: OpCounts) -> OpCounts {
        OpCounts {
            sqrt: self.sqrt - before.sqrt,
            inv: self.inv - before.inv,
            record_encode: self.record_encode - before.record_encode,
            record_decode: self.record_decode - before.record_decode,
        }
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, other: OpCounts) {
        self.sqrt += other.sqrt;
        self.inv += other.inv;
        self.record_encode += other.record_encode;
        self.record_decode += other.record_decode;
    }
}
