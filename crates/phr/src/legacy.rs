//! The one reader of legacy bytes: frames and snapshots written before the
//! current (v1) format, read once, at open, and converted on the spot.
//!
//! Three legacy artifacts exist on disk: *bare* WAL frames written before
//! the one-byte envelope existed (they open with an op tag in `1..=3`),
//! `0xE0` (v0, uncompressed) envelopes, and monolithic `TBS1` snapshots.
//! Nothing outside this module decodes any of them.  Recovery hands every
//! frame that does not open with the v1 tag to [`read_frame`] and every
//! snapshot generation that is not a valid `TBS2` file to
//! [`load_snapshot`]; what comes back is already v1 — records as v1
//! resident bytes, ops paired with their v1 re-encoding — and the caller
//! notes that it read legacy bytes.  A store that did then writes two
//! snapshots before `open` returns (rotation and segment GC retire every
//! legacy segment and generation), and a proxy rewrites its log as v1
//! frames ([`rewrite_log`]); from then on the store opens without coming
//! here.
//!
//! The element layouts of both versions stay in `tibpre-pairing`'s codec —
//! v0 is decoded through them, with the container's version selecting the
//! layout.

use crate::resident::{EncodedRecord, RecordHeader};
use crate::store::{RecoveredShardState, StoredRecord};
use crate::Result;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use tibpre_pairing::DecodeCtx;
use tibpre_storage::{frame, snapshot};
use tibpre_wire::{Reader, WireDecode, WireEncode, WireVersion};

/// Decodes one WAL frame payload read at open — a v1 frame in place,
/// anything else through the legacy layouts, setting `legacy` — and returns
/// the op with its v1 frame payload.  All errors are values, never panics.
pub(crate) fn read_frame<T: WireDecode + WireEncode>(
    payload: Vec<u8>,
    ctx: &T::Ctx,
    legacy: &mut bool,
) -> Result<(T, Vec<u8>)> {
    if payload.first() == Some(&WireVersion::DEFAULT.tag()) {
        return Ok((T::from_wire_bytes(&payload, ctx)?, payload));
    }
    *legacy = true;
    // No bare legacy frame opens with a byte in `0xE0..=0xEF`, so one byte
    // tells a v0 envelope from a pre-envelope frame.
    let op = match payload.first() {
        Some(&b) if WireVersion::is_envelope_tag(b) => T::from_wire_bytes(&payload, ctx)?,
        _ => tibpre_wire::decode_bare(&payload, WireVersion::V0, ctx)?,
    };
    let v1 = op.to_wire_bytes();
    Ok((op, v1))
}

/// Loads a monolithic (`TBS1`) snapshot generation, converted to v1, with
/// the WAL offset replay resumes at.
pub(crate) fn load_snapshot(
    ctx: &DecodeCtx,
    dir: &Path,
    base: &str,
    gen: u64,
) -> Result<(u64, RecoveredShardState)> {
    let snap = snapshot::load_snapshot(dir, base, gen)?;
    Ok((snap.wal_offset, shard_state(ctx, &snap.payload)?))
}

/// The WAL offset of a `TBS1` generation, if it is one (full-file CRC).
pub(crate) fn snapshot_offset(dir: &Path, base: &str, gen: u64) -> Option<u64> {
    snapshot::load_snapshot(dir, base, gen)
        .ok()
        .map(|snap| snap.wal_offset)
}

/// Parses a `TBS1` payload — an optional envelope byte (bare payloads open
/// with the high byte of a `u64` count), then the counted, length-prefixed
/// records and events.  Every record is fully decoded once (recovery
/// validates everything it accepts) and kept as v1 resident bytes.
pub(crate) fn shard_state(ctx: &DecodeCtx, payload: &[u8]) -> Result<RecoveredShardState> {
    let mut r = match payload.first().and_then(|&b| WireVersion::from_tag(b)) {
        Some(version) => Reader::with_version(&payload[1..], version),
        None => Reader::with_version(payload, WireVersion::V0),
    };
    let version = r.version();
    let mut records = BTreeMap::new();
    for _ in 0..r.u64()? {
        let enc = upgrade_record(r.bytes()?, version, ctx)?;
        records.insert(enc.header.id, enc);
    }
    let event_count = r.u64()?;
    // Guard the pre-allocation against a corrupt count; the loop fails on
    // a short buffer either way.
    let mut audit = Vec::with_capacity(event_count.min(1024) as usize);
    for _ in 0..event_count {
        audit.push(Arc::new(tibpre_wire::decode_bare(
            r.bytes()?,
            version,
            &(),
        )?));
    }
    r.finish()?;
    Ok((records, audit))
}

/// Decodes one bare record body encoded under `version` and re-encodes it
/// as v1 resident bytes.
pub(crate) fn upgrade_record(
    body: &[u8],
    version: WireVersion,
    ctx: &DecodeCtx,
) -> Result<EncodedRecord> {
    let record: StoredRecord = tibpre_wire::decode_bare(body, version, ctx)?;
    let bytes = tibpre_wire::encode_bare(&record, WireVersion::DEFAULT);
    let header = RecordHeader {
        id: record.id,
        patient: record.patient,
        category: record.category,
    };
    Ok(EncodedRecord::from_owned(bytes.into(), 0, header))
}

/// Replaces the single-file log at `path` (inside `dir`) with `payloads` as
/// CRC frames, in order, through a durable temp-file rename.  Returns the
/// new log's length.
pub(crate) fn rewrite_log(dir: &Path, path: &Path, payloads: &[Vec<u8>]) -> Result<u64> {
    let mut bytes = Vec::new();
    for payload in payloads {
        frame::append_frame(&mut bytes, payload);
    }
    tibpre_storage::replace_file(dir, path, &bytes)?;
    Ok(bytes.len() as u64)
}
