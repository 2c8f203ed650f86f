//! Process-wide codec activity counters.
//!
//! The wire-resident store's core claim is *zero codec round trips on the
//! put path* (one encode, shared by the WAL and the shard) and *lazy
//! decodes on the read path* (only on a cache miss).  These counters make
//! the claim checkable: `crates/phr/src/durable.rs` bumps them inside
//! `StoredRecord`'s `WireEncode` / `WireDecode` impls — the single choke
//! point every full record encode and decode passes through — and the
//! `codec_gate` test asserts on the deltas.
//!
//! The counters are global to the process and monotonically increasing, so
//! a test asserting an exact delta must not run concurrently with other
//! record traffic; the gate test lives alone in its own integration-test
//! binary for that reason.  Header peeks and index-meta parses are *not*
//! counted — they are the cheap partial reads the design exists to enable.

use std::sync::atomic::{AtomicU64, Ordering};

static RECORD_ENCODES: AtomicU64 = AtomicU64::new(0);
static RECORD_DECODES: AtomicU64 = AtomicU64::new(0);

/// Total full `StoredRecord` wire encodes since process start.
pub fn record_encodes() -> u64 {
    RECORD_ENCODES.load(Ordering::Relaxed)
}

/// Total full `StoredRecord` wire decodes since process start.
pub fn record_decodes() -> u64 {
    RECORD_DECODES.load(Ordering::Relaxed)
}

pub(crate) fn note_record_encode() {
    RECORD_ENCODES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_record_decode() {
    RECORD_DECODES.fetch_add(1, Ordering::Relaxed);
}
