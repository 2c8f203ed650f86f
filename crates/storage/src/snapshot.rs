//! Generational snapshot files: a full copy of one shard's state, written
//! atomically, so recovery replays `snapshot + WAL tail` instead of the whole
//! log.  Two layouts share one generation series:
//!
//! * **`TBS1` (monolithic, legacy)** — `MAGIC ‖ frame(wal_offset(u64 BE) ‖
//!   payload)`: one CRC frame over the offset and the entire payload, so any
//!   truncation or bit-flip makes the whole file invalid.  No longer
//!   written; [`load_snapshot`] reads it (in full) for the one caller that
//!   migrates old stores.
//! * **`TBS2` (indexed)** — `MAGIC ‖ blob data ‖ frame(trailer) ‖
//!   trailer_frame_len(u64 BE)`: raw blobs concatenated up front, described by
//!   a CRC-framed trailer of `(offset, len, crc, index_meta)` entries plus one
//!   shard-level `meta` blob.  [`load_indexed`] reads the whole file into
//!   memory and validates only the trailer; [`peek_wal_offset`] reads just
//!   the magic, the trailing pointer and the trailer.  Each blob carries its
//!   own CRC, verified on its first [`IndexedSnapshot::blob`] read (and
//!   memoized thereafter — the loaded bytes are immutable) — a data-region
//!   bit-flip is an error at *read* time (never silently served), while
//!   trailer damage or truncation fails the *open*, triggering the same
//!   fall-back-a-generation path as a corrupt `TBS1` file.
//!
//! `wal_offset` in both layouts is the WAL frame boundary the snapshot
//! captures: replay resumes there.
//!
//! Writes go to a temporary file which is fsynced and then renamed over the
//! final name (with a directory fsync), so a crash mid-write leaves either
//! the old generation set or the new one — never a half-written file under a
//! live name.  Each write uses a fresh generation number, and a reader
//! walking [`list_generations`] newest-first skips invalid files — which is
//! what makes "fall back to the previous snapshot + longer log replay"
//! automatic.

use crate::frame;
use crate::StorageError;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use tibpre_wire::{put_bytes, put_u32, put_u64, Reader};

/// Magic bytes opening every monolithic snapshot file.
const MAGIC: &[u8; 4] = b"TBS1";

/// Magic bytes opening every indexed snapshot file.
const MAGIC_INDEXED: &[u8; 4] = b"TBS2";

/// A decoded snapshot.
#[derive(Debug)]
pub struct Snapshot {
    /// The generation number (monotonically increasing per shard).
    pub gen: u64,
    /// The WAL boundary this snapshot captures; replay resumes here.
    pub wal_offset: u64,
    /// The caller's state encoding.
    pub payload: Vec<u8>,
}

/// The path of generation `gen` of the snapshot series `base` in `dir`.
pub fn snapshot_path(dir: &Path, base: &str, gen: u64) -> PathBuf {
    dir.join(format!("{base}.{gen:016x}.snap"))
}

/// Lists the existing generation numbers of a snapshot series, newest first.
pub fn list_generations(dir: &Path, base: &str) -> io::Result<Vec<u64>> {
    let mut gens = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(base).and_then(|r| r.strip_prefix('.')) else {
            continue;
        };
        let Some(hex) = rest.strip_suffix(".snap") else {
            continue;
        };
        if let Ok(gen) = u64::from_str_radix(hex, 16) {
            gens.push(gen);
        }
    }
    gens.sort_unstable_by(|a, b| b.cmp(a));
    Ok(gens)
}

/// Loads and validates one monolithic (`TBS1`) generation.  The magic is
/// checked before anything else is read.
pub fn load_snapshot(dir: &Path, base: &str, gen: u64) -> Result<Snapshot, StorageError> {
    let mut file = File::open(snapshot_path(dir, base, gen))?;
    let mut magic = [0u8; 4];
    if file.read_exact(&mut magic).is_err() || &magic != MAGIC {
        return Err(StorageError::Corrupt("snapshot magic mismatch"));
    }
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let body = frame::decode_single_frame(&bytes).ok_or(StorageError::Corrupt(
        "snapshot frame torn or checksum mismatch",
    ))?;
    let mut reader = Reader::new(&body);
    let wal_offset = reader.u64()?;
    let payload = body[8..].to_vec();
    Ok(Snapshot {
        gen,
        wal_offset,
        payload,
    })
}

/// One blob handed to [`write_indexed_snapshot`].
#[derive(Debug)]
pub struct IndexedBlob<'a> {
    /// The blob's bytes, written verbatim into the data region and covered
    /// by a per-blob CRC in the trailer.
    pub body: &'a [u8],
    /// Opaque caller metadata recorded in the trailer beside the blob's
    /// offset/len/CRC — available at open time without reading the blob
    /// (e.g. a record header used to rebuild indexes).
    pub index_meta: Vec<u8>,
}

/// Writes one indexed (`TBS2`) snapshot generation atomically, streaming the
/// blobs straight to disk (no contiguous in-memory image is ever built).
///
/// `meta` is one shard-level metadata blob stored inside the trailer; `blobs`
/// yields the data blobs in order.  Blob items are *fallible* so a caller
/// whose blobs come from another (possibly corrupt) loaded snapshot can
/// propagate the read error instead of re-persisting unverified bytes under
/// a fresh checksum.  On any error the temporary file is abandoned and the
/// previous generation set is untouched.
pub fn write_indexed_snapshot<'a, I>(
    dir: &Path,
    base: &str,
    gen: u64,
    wal_offset: u64,
    meta: &[u8],
    blobs: I,
    sync: bool,
) -> Result<(), StorageError>
where
    I: IntoIterator<Item = Result<IndexedBlob<'a>, StorageError>>,
{
    let tmp = dir.join(format!("{base}.snap.tmp"));
    let file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    let mut out = BufWriter::new(file);
    out.write_all(MAGIC_INDEXED)?;

    let mut offset = MAGIC_INDEXED.len() as u64;
    let mut count = 0u64;
    let mut entries = Vec::new();
    for item in blobs {
        let blob = item?;
        let len = u32::try_from(blob.body.len())
            .map_err(|_| StorageError::Corrupt("snapshot blob exceeds the u32 length field"))?;
        let mut crc = crate::crc::Crc32::new();
        crc.update(blob.body);
        out.write_all(blob.body)?;
        put_u64(&mut entries, offset);
        put_u32(&mut entries, len);
        put_u32(&mut entries, crc.finish());
        put_bytes(&mut entries, &blob.index_meta);
        offset += u64::from(len);
        count += 1;
    }

    let mut trailer = Vec::with_capacity(8 + 4 + meta.len() + 8 + entries.len());
    put_u64(&mut trailer, wal_offset);
    put_bytes(&mut trailer, meta);
    put_u64(&mut trailer, count);
    trailer.extend_from_slice(&entries);
    let framed = frame::encode_frame(&trailer);
    out.write_all(&framed)?;
    // The trailing pointer lets the loader find the trailer from the end of
    // the file, which is what keeps this write single-pass.
    out.write_all(&(framed.len() as u64).to_be_bytes())?;

    let file = out
        .into_inner()
        .map_err(|e| StorageError::Io(e.into_error()))?;
    if sync {
        file.sync_data()?;
    }
    drop(file);
    fs::rename(&tmp, snapshot_path(dir, base, gen))?;
    if sync {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// One trailer entry of an indexed snapshot.
#[derive(Debug)]
struct BlobEntry {
    offset: u64,
    len: u32,
    crc: u32,
    /// The entry's `index_meta` bytes, as a range into the trailer payload
    /// (one shared buffer instead of one allocation per blob).
    meta: Range<usize>,
}

/// The smallest `TBS2` file: magic, an empty trailer frame, the pointer.
const INDEXED_MIN_LEN: u64 = (MAGIC_INDEXED.len() + frame::FRAME_HEADER_LEN + 8) as u64;

/// Where the trailer frame of a `TBS2` file of `len` bytes lies, given the
/// file's first four bytes (`head`) and its last eight (`tail`, the trailer
/// frame's length).
fn trailer_range(len: u64, head: &[u8], tail: &[u8]) -> Result<Range<u64>, StorageError> {
    if len < INDEXED_MIN_LEN || head != MAGIC_INDEXED {
        return Err(StorageError::Corrupt("indexed snapshot magic mismatch"));
    }
    let end = len - 8;
    let frame_len = u64::from_be_bytes(tail.try_into().expect("a checked file ends in 8 bytes"));
    let start = end
        .checked_sub(frame_len)
        .filter(|&start| start >= MAGIC_INDEXED.len() as u64)
        .ok_or(StorageError::Corrupt(
            "indexed snapshot trailer out of bounds",
        ))?;
    Ok(start..end)
}

/// A validated `TBS2` trailer: everything a generation says about itself
/// besides its blob bytes.
#[derive(Debug)]
struct Trailer {
    wal_offset: u64,
    /// The trailer frame's payload; `meta` and every entry's `meta` are
    /// ranges into it.
    payload: Vec<u8>,
    meta: Range<usize>,
    entries: Vec<BlobEntry>,
}

impl Trailer {
    /// Checks the trailer frame's CRC and parses it.  Every blob must lie
    /// between the magic and `data_end`, where the trailer frame starts.
    fn parse(framed: &[u8], data_end: u64) -> Result<Self, StorageError> {
        let payload = frame::decode_single_frame(framed).ok_or(StorageError::Corrupt(
            "indexed snapshot trailer torn or checksum mismatch",
        ))?;
        let mut r = Reader::new(&payload);
        let wal_offset = r.u64()?;
        let meta = {
            let start = r.offset() + 4;
            let bytes = r.bytes()?;
            start..start + bytes.len()
        };
        let count = r.u64()?;
        // Each entry occupies ≥ 20 trailer bytes, which bounds a sane count;
        // capping the pre-allocation keeps an absurd count field from
        // turning into an allocation attempt before the parse fails.
        let cap = usize::try_from(count.min(payload.len() as u64 / 20)).expect("bounded");
        let mut entries = Vec::with_capacity(cap);
        for _ in 0..count {
            let offset = r.u64()?;
            let len = r.u32()?;
            let crc = r.u32()?;
            let meta = {
                let start = r.offset() + 4;
                let bytes = r.bytes()?;
                start..start + bytes.len()
            };
            let end = offset
                .checked_add(u64::from(len))
                .ok_or(StorageError::Corrupt("indexed snapshot blob overflows"))?;
            if offset < MAGIC_INDEXED.len() as u64 || end > data_end {
                return Err(StorageError::Corrupt(
                    "indexed snapshot blob outside the data region",
                ));
            }
            entries.push(BlobEntry {
                offset,
                len,
                crc,
                meta,
            });
        }
        r.finish()?;
        Ok(Trailer {
            wal_offset,
            payload,
            meta,
            entries,
        })
    }
}

/// A loaded indexed (`TBS2`) snapshot: the whole file in memory behind a
/// validated trailer.
///
/// The constructor checksums only the trailer.  Blob bytes are
/// CRC-verified on their first [`blob`](Self::blob) read (memoized per blob
/// afterwards), so a bit-flip in the data region surfaces as an error at
/// read time rather than as corrupt bytes.
#[derive(Debug)]
pub struct IndexedSnapshot {
    gen: u64,
    bytes: Vec<u8>,
    trailer: Trailer,
    /// One bit per blob, set after that blob's first *successful* CRC check.
    /// The loaded bytes are immutable, so a blob that verified once need
    /// never be checksummed again — repeated decoded-cache misses on a hot
    /// snapshot record used to pay O(len) checksumming on every read.  A blob that
    /// *fails* never sets its bit, so corruption keeps surfacing on every
    /// read attempt.
    verified: Box<[AtomicU64]>,
}

impl IndexedSnapshot {
    /// Parses generation `gen` from the bytes of a whole `TBS2` file — one
    /// read from disk, or one a replication primary shipped — validating
    /// its trailer.
    pub fn from_bytes(bytes: Vec<u8>, gen: u64) -> Result<Self, StorageError> {
        let len = bytes.len();
        let (head, tail) = (&bytes[..len.min(4)], &bytes[len.saturating_sub(8)..]);
        let at = trailer_range(len as u64, head, tail)?;
        let trailer = Trailer::parse(&bytes[at.start as usize..at.end as usize], at.start)?;
        let verified = (0..trailer.entries.len().div_ceil(64))
            .map(|_| AtomicU64::new(0))
            .collect();
        Ok(IndexedSnapshot {
            gen,
            bytes,
            trailer,
            verified,
        })
    }

    /// The generation number this snapshot was loaded from.
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// The WAL boundary this snapshot captures; replay resumes here.
    pub fn wal_offset(&self) -> u64 {
        self.trailer.wal_offset
    }

    /// The shard-level metadata blob from the trailer.
    pub fn meta(&self) -> &[u8] {
        &self.trailer.payload[self.trailer.meta.clone()]
    }

    /// Number of blobs in the data region.
    pub fn blob_count(&self) -> usize {
        self.trailer.entries.len()
    }

    /// Blob `i`'s trailer-resident index metadata (trailer-CRC-protected,
    /// available without reading the blob).
    pub fn index_meta(&self, i: usize) -> Option<&[u8]> {
        let entry = self.trailer.entries.get(i)?;
        Some(&self.trailer.payload[entry.meta.clone()])
    }

    /// Blob `i`'s length in bytes, without reading it.
    pub fn blob_len(&self, i: usize) -> Option<usize> {
        self.trailer.entries.get(i).map(|e| e.len as usize)
    }

    /// Blob `i`'s bytes, CRC-verified on first read and memoized thereafter.
    ///
    /// This is the lazy half of the corruption contract: the open validated
    /// only the trailer, so a flipped bit in the data region is discovered
    /// here — and surfaces as `Corrupt`, never as silently wrong bytes.  The
    /// loaded bytes are immutable, so a successful check is recorded in a
    /// per-blob bitmap and skipped on later reads; a
    /// failed check never records, so corruption surfaces on every attempt.
    pub fn blob(&self, i: usize) -> Result<&[u8], StorageError> {
        let entry = self
            .trailer
            .entries
            .get(i)
            .ok_or(StorageError::Corrupt("blob index out of range"))?;
        let start = entry.offset as usize;
        let bytes = &self.bytes[start..start + entry.len as usize];
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.verified[word].load(Ordering::Acquire) & bit == 0 {
            let mut crc = crate::crc::Crc32::new();
            crc.update(bytes);
            if crc.finish() != entry.crc {
                return Err(StorageError::Corrupt("snapshot blob checksum mismatch"));
            }
            self.verified[word].fetch_or(bit, Ordering::Release);
        }
        Ok(bytes)
    }

    /// Whether blob `i` has a recorded successful CRC check (test hook for
    /// the memoization contract).
    #[cfg(test)]
    pub(crate) fn blob_verified(&self, i: usize) -> bool {
        self.verified[i / 64].load(Ordering::Acquire) & (1u64 << (i % 64)) != 0
    }
}

/// Loads one indexed snapshot generation: reads the whole file and
/// validates its trailer (blobs are checked when first read).
pub fn load_indexed(dir: &Path, base: &str, gen: u64) -> Result<IndexedSnapshot, StorageError> {
    IndexedSnapshot::from_bytes(fs::read(snapshot_path(dir, base, gen))?, gen)
}

/// Reads an indexed (`TBS2`) generation's `wal_offset`, validating its
/// trailer exactly as [`load_indexed`] does while reading only the magic,
/// the trailing pointer and the trailer.  Used by recovery to bound WAL
/// trimming against *older* kept generations without reading their blobs.
pub fn peek_wal_offset(dir: &Path, base: &str, gen: u64) -> Result<u64, StorageError> {
    let mut file = File::open(snapshot_path(dir, base, gen))?;
    let len = file.metadata()?.len();
    let (mut head, mut tail) = ([0u8; 4], [0u8; 8]);
    if len >= INDEXED_MIN_LEN {
        file.read_exact(&mut head)?;
        file.seek(SeekFrom::End(-8))?;
        file.read_exact(&mut tail)?;
    }
    let at = trailer_range(len, &head, &tail)?;
    let mut framed = vec![0u8; (at.end - at.start) as usize];
    file.seek(SeekFrom::Start(at.start))?;
    file.read_exact(&mut framed)?;
    Ok(Trailer::parse(&framed, at.start)?.wal_offset)
}

/// Removes all but the newest `keep` generations of a series.  Keeping two
/// generations means the newest can be lost to corruption without losing the
/// snapshot optimisation entirely, while the WAL (which is never trimmed
/// below the *oldest kept* snapshot's offset) still covers full replay.
pub fn prune(dir: &Path, base: &str, keep: usize) -> io::Result<()> {
    for gen in list_generations(dir, base)?.into_iter().skip(keep) {
        fs::remove_file(snapshot_path(dir, base, gen))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;

    /// Writes a legacy monolithic generation by hand:
    /// `TBS1 ‖ frame(wal_offset ‖ payload)`.
    fn write_tbs1(dir: &Path, base: &str, gen: u64, wal_offset: u64, payload: &[u8]) {
        let mut body = wal_offset.to_be_bytes().to_vec();
        body.extend_from_slice(payload);
        let mut bytes = MAGIC.to_vec();
        frame::append_frame(&mut bytes, &body);
        fs::write(snapshot_path(dir, base, gen), bytes).unwrap();
    }

    #[test]
    fn write_load_round_trip_and_generations() {
        let dir = test_dir("snap-round-trip");
        write_tbs1(dir.path(), "shard-00", 1, 100, b"state-1");
        write_tbs1(dir.path(), "shard-00", 2, 250, b"state-2");
        // A second series in the same directory does not interfere.
        write_tbs1(dir.path(), "shard-01", 9, 7, b"other");

        assert_eq!(
            list_generations(dir.path(), "shard-00").unwrap(),
            vec![2, 1]
        );
        let newest = load_snapshot(dir.path(), "shard-00", 2).unwrap();
        assert_eq!((newest.gen, newest.wal_offset), (2, 250));
        assert_eq!(newest.payload, b"state-2");
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = test_dir("snap-fallback");
        write_indexed(dir.path(), "s", 1, 10, b"old", &[(b"blob", b"h")]);
        write_indexed(dir.path(), "s", 2, 20, b"new", &[(b"blob", b"h")]);
        // Flip one trailer bit of the newest generation.
        let path = snapshot_path(dir.path(), "s", 2);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 9;
        bytes[last] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();

        // Walking the generations newest-first skips the damaged one.
        let valid: Vec<u64> = list_generations(dir.path(), "s")
            .unwrap()
            .into_iter()
            .filter(|&gen| load_indexed(dir.path(), "s", gen).is_ok())
            .collect();
        assert_eq!(valid, vec![1]);
        let older = load_indexed(dir.path(), "s", 1).unwrap();
        assert_eq!((older.wal_offset(), older.meta()), (10, &b"old"[..]));

        // Truncating the older one too leaves nothing valid.
        let path = snapshot_path(dir.path(), "s", 1);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load_indexed(dir.path(), "s", 1).is_err());
        assert!(peek_wal_offset(dir.path(), "s", 2).is_err());
    }

    #[test]
    fn prune_keeps_the_newest_generations() {
        let dir = test_dir("snap-prune");
        for gen in 1..=5 {
            write_indexed(dir.path(), "s", gen, gen * 10, b"x", &[]);
        }
        prune(dir.path(), "s", 2).unwrap();
        assert_eq!(list_generations(dir.path(), "s").unwrap(), vec![5, 4]);
        // Pruning an empty tail is a no-op.
        prune(dir.path(), "s", 2).unwrap();
        assert_eq!(list_generations(dir.path(), "s").unwrap(), vec![5, 4]);
    }

    /// Convenience writer for the indexed-layout tests.
    fn write_indexed(
        dir: &Path,
        base: &str,
        gen: u64,
        wal_offset: u64,
        meta: &[u8],
        blobs: &[(&[u8], &[u8])],
    ) {
        write_indexed_snapshot(
            dir,
            base,
            gen,
            wal_offset,
            meta,
            blobs.iter().map(|&(body, im)| {
                Ok(IndexedBlob {
                    body,
                    index_meta: im.to_vec(),
                })
            }),
            true,
        )
        .unwrap()
    }

    #[test]
    fn indexed_snapshot_round_trips_blobs_meta_and_index_meta() {
        let dir = test_dir("snap-indexed");
        let blobs: &[(&[u8], &[u8])] = &[
            (b"alpha-body", b"alpha-hdr"),
            (b"", b"empty-body-hdr"),
            (&[0xE1; 300], b""),
        ];
        write_indexed(dir.path(), "shard-00", 3, 777, b"shard-meta", blobs);

        let snap = load_indexed(dir.path(), "shard-00", 3).unwrap();
        assert_eq!((snap.gen(), snap.wal_offset()), (3, 777));
        assert_eq!(snap.meta(), b"shard-meta");
        assert_eq!(snap.blob_count(), 3);
        for (i, &(body, im)) in blobs.iter().enumerate() {
            assert_eq!(snap.index_meta(i).unwrap(), im, "blob {i}");
            assert_eq!(snap.blob_len(i).unwrap(), body.len(), "blob {i}");
            assert_eq!(snap.blob(i).unwrap(), body, "blob {i}");
        }
        assert!(snap.index_meta(3).is_none());
        assert!(snap.blob(3).is_err());

        // Both layouts share the generation series; the peek reads TBS2,
        // the legacy loader TBS1.
        write_tbs1(dir.path(), "shard-00", 2, 50, b"old-monolithic");
        assert_eq!(
            list_generations(dir.path(), "shard-00").unwrap(),
            vec![3, 2]
        );
        assert_eq!(peek_wal_offset(dir.path(), "shard-00", 3).unwrap(), 777);
        assert_eq!(
            load_snapshot(dir.path(), "shard-00", 2).unwrap().wal_offset,
            50
        );
        assert!(peek_wal_offset(dir.path(), "shard-00", 2).is_err());
    }

    #[test]
    fn indexed_snapshot_with_no_blobs_is_valid() {
        let dir = test_dir("snap-indexed-empty");
        write_indexed(dir.path(), "s", 1, 0, b"", &[]);
        let snap = load_indexed(dir.path(), "s", 1).unwrap();
        assert_eq!(snap.blob_count(), 0);
        assert_eq!(snap.meta(), b"");
        assert_eq!(snap.wal_offset(), 0);
    }

    #[test]
    fn data_region_bit_flip_fails_the_read_not_the_open() {
        let dir = test_dir("snap-indexed-dataflip");
        write_indexed(
            dir.path(),
            "s",
            1,
            9,
            b"m",
            &[(b"first-blob", b"h0"), (b"second-blob", b"h1")],
        );
        let path = snapshot_path(dir.path(), "s", 1);
        let mut bytes = std::fs::read(&path).unwrap();
        // Byte 5 sits inside the first blob's body ("irst-blob"...).
        bytes[5] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        // Open succeeds: the trailer is intact and only it is validated.
        let snap = load_indexed(dir.path(), "s", 1).unwrap();
        assert_eq!(snap.index_meta(0).unwrap(), b"h0");
        // The damaged blob errors on read; its neighbour is still served.
        assert!(matches!(
            snap.blob(0),
            Err(StorageError::Corrupt("snapshot blob checksum mismatch"))
        ));
        assert_eq!(snap.blob(1).unwrap(), b"second-blob");
        // A failed check is never memoized: every retry re-verifies and
        // re-fails, while the good neighbour verified exactly once.
        assert!(!snap.blob_verified(0));
        assert!(snap.blob_verified(1));
        assert!(snap.blob(0).is_err());
        assert!(!snap.blob_verified(0));
    }

    #[test]
    fn blob_crc_verification_is_memoized_after_first_success() {
        let dir = test_dir("snap-indexed-memo");
        // 65 blobs so the bitmap spans more than one 64-bit word.
        let bodies: Vec<Vec<u8>> = (0..65u8).map(|i| vec![i; i as usize + 1]).collect();
        let blobs: Vec<(&[u8], &[u8])> = bodies
            .iter()
            .map(|b| (b.as_slice(), b"".as_slice()))
            .collect();
        write_indexed(dir.path(), "s", 1, 0, b"", &blobs);

        let snap = load_indexed(dir.path(), "s", 1).unwrap();
        assert_eq!(snap.blob_count(), bodies.len());
        for (i, body) in bodies.iter().enumerate() {
            assert!(!snap.blob_verified(i), "blob {i} verified before any read");
            assert_eq!(snap.blob(i).unwrap(), body.as_slice());
            assert!(snap.blob_verified(i), "blob {i} not memoized after read");
            // Second read serves the same bytes through the memoized path.
            assert_eq!(snap.blob(i).unwrap(), body.as_slice());
        }
    }

    #[test]
    fn trailer_damage_and_truncation_fail_the_open() {
        let dir = test_dir("snap-indexed-trailer");
        write_indexed(dir.path(), "s", 1, 9, b"m", &[(b"blob-bytes", b"h")]);
        let path = snapshot_path(dir.path(), "s", 1);
        let pristine = std::fs::read(&path).unwrap();

        // A flipped bit anywhere in the trailer frame or the trailing
        // pointer refuses the open.
        let data_len = 4 + b"blob-bytes".len();
        for byte in data_len..pristine.len() {
            let mut bytes = pristine.clone();
            bytes[byte] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            assert!(load_indexed(dir.path(), "s", 1).is_err(), "byte {byte}");
            assert!(peek_wal_offset(dir.path(), "s", 1).is_err(), "byte {byte}");
        }
        // Truncation at every length refuses the open.
        for cut in 0..pristine.len() {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            assert!(load_indexed(dir.path(), "s", 1).is_err(), "cut {cut}");
        }
        // The pristine bytes still load (the loop above really was the
        // corruption, not a broken fixture).
        std::fs::write(&path, &pristine).unwrap();
        load_indexed(dir.path(), "s", 1).unwrap();
    }

    #[test]
    fn peek_and_load_agree_on_every_truncation_and_bit_flip() {
        let dir = test_dir("snap-peek-sweep");
        let blobs: &[(&[u8], &[u8])] = &[(b"first-blob", b"h0"), (b"second", b"")];
        write_indexed(dir.path(), "s", 1, 77, b"m", blobs);
        let path = snapshot_path(dir.path(), "s", 1);
        let pristine = std::fs::read(&path).unwrap();
        let data_end = 4 + blobs.iter().map(|(body, _)| body.len()).sum::<usize>();

        // Both readers accept or refuse each file together, and agree on
        // the offset when they accept.
        let offset_of = |bytes: &[u8], what: &str| {
            std::fs::write(&path, bytes).unwrap();
            let peeked = peek_wal_offset(dir.path(), "s", 1).ok();
            let loaded = load_indexed(dir.path(), "s", 1).ok();
            assert_eq!(peeked, loaded.map(|s| s.wal_offset()), "{what}");
            peeked
        };
        assert_eq!(offset_of(&pristine, "pristine"), Some(77));
        for cut in 0..pristine.len() {
            offset_of(&pristine[..cut], &format!("cut {cut}"));
        }
        for bit in 0..pristine.len() * 8 {
            let mut bytes = pristine.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            let offset = offset_of(&bytes, &format!("bit {bit}"));
            // A data-region flip is a blob's read error, never the open's.
            if (4..data_end).contains(&(bit / 8)) {
                assert_eq!(offset, Some(77), "data-region bit {bit}");
            }
        }
    }

    #[test]
    fn failing_blob_iterator_abandons_the_write() {
        let dir = test_dir("snap-indexed-failblob");
        write_indexed(dir.path(), "s", 1, 5, b"keep", &[(b"good", b"h")]);
        let blobs = [
            Ok(IndexedBlob {
                body: b"fine".as_slice(),
                index_meta: vec![],
            }),
            Err(StorageError::Corrupt("source blob unreadable")),
        ];
        let err = write_indexed_snapshot(dir.path(), "s", 2, 6, b"", blobs, true).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
        // No generation 2 appeared; generation 1 is untouched.
        assert_eq!(list_generations(dir.path(), "s").unwrap(), vec![1]);
        assert_eq!(load_indexed(dir.path(), "s", 1).unwrap().meta(), b"keep");
    }

    #[test]
    fn monolithic_loader_rejects_indexed_files_and_vice_versa() {
        let dir = test_dir("snap-cross-layout");
        write_tbs1(dir.path(), "s", 1, 10, b"mono");
        write_indexed(dir.path(), "s", 2, 20, b"idx", &[]);
        assert!(load_snapshot(dir.path(), "s", 2).is_err());
        assert!(load_indexed(dir.path(), "s", 1).is_err());
        assert_eq!(load_snapshot(dir.path(), "s", 1).unwrap().payload, b"mono");
        assert_eq!(load_indexed(dir.path(), "s", 2).unwrap().meta(), b"idx");
    }

    #[test]
    fn magic_and_short_files_are_rejected() {
        let dir = test_dir("snap-magic");
        std::fs::write(snapshot_path(dir.path(), "s", 1), b"BAD").unwrap();
        assert!(load_snapshot(dir.path(), "s", 1).is_err());
        std::fs::write(snapshot_path(dir.path(), "s", 2), b"NOPE-not-a-snapshot").unwrap();
        assert!(load_snapshot(dir.path(), "s", 2).is_err());
        for gen in [1, 2] {
            assert!(load_indexed(dir.path(), "s", gen).is_err());
            assert!(peek_wal_offset(dir.path(), "s", gen).is_err());
        }
    }
}
