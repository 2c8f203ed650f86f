//! Segmented write-ahead logs: one logical, append-only frame stream split
//! across rotating segment files, so the prefix behind a snapshot can be
//! **deleted** instead of living forever.
//!
//! A single-file WAL can only grow: snapshots bound *recovery time* but not
//! *disk usage*, because nothing below the snapshot offset can be reclaimed
//! from a plain file.  A [`SegmentedWal`] addresses the log by a monotonic
//! **logical offset** — the byte position in the concatenation of every
//! frame ever committed — and maps it onto files:
//!
//! * the first segment keeps the legacy name `<base>.wal` (so logs written
//!   before segmentation existed open unchanged, as a one-segment WAL),
//! * every later segment is `<base>.<start:016x>.wal`, named by the logical
//!   offset at which it starts.
//!
//! Rotation happens at frame boundaries only (the caller rotates right
//! before capturing a snapshot, so snapshot offsets land exactly on
//! segment boundaries), the old segment is fsynced before the new one is
//! created, and segment starts are contiguous by construction:
//! `next.start = prev.start + prev.len`.  A chain gap therefore means
//! corruption and stops recovery at the last intact boundary — the same
//! "truncate, never resurrect" rule the frame scanner applies within one
//! file.
//!
//! Garbage collection ([`SegmentedWal::truncate_before`]) deletes segments
//! that lie **wholly** behind a caller-supplied boundary (the oldest kept
//! snapshot's offset).  The active segment is never deleted.  Because the
//! caller never passes a boundary above the oldest snapshot it intends to
//! keep, recovery from any kept snapshot always finds its starting offset
//! on disk.

use crate::frame::{self, FrameDefect};
use crate::wal::WalWriter;
use crate::FsyncPolicy;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// One segment file of a logical WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Logical offset of the segment's first byte.
    pub start: u64,
    /// Current file length in bytes.
    pub len: u64,
    /// The segment file's path.
    pub path: PathBuf,
}

impl SegmentInfo {
    /// Logical offset one past the segment's last byte.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// The path of the first (legacy-named) segment: `<base>.wal`.
pub fn first_segment_path(dir: &Path, base: &str) -> PathBuf {
    dir.join(format!("{base}.wal"))
}

/// The path of the segment starting at logical offset `start`.
pub fn segment_path(dir: &Path, base: &str, start: u64) -> PathBuf {
    if start == 0 {
        first_segment_path(dir, base)
    } else {
        dir.join(format!("{base}.{start:016x}.wal"))
    }
}

/// Lists the on-disk segments of the series `base`, sorted by logical
/// start offset.  A directory with only a legacy `<base>.wal` lists as a
/// single segment starting at 0.
pub fn list_segments(dir: &Path, base: &str) -> io::Result<Vec<SegmentInfo>> {
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(base) else {
            continue;
        };
        let start = if rest == ".wal" {
            0
        } else {
            // ".{start:016x}.wal"
            let Some(hex) = rest
                .strip_prefix('.')
                .and_then(|r| r.strip_suffix(".wal"))
                .filter(|h| h.len() == 16)
            else {
                continue;
            };
            let Ok(start) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            start
        };
        segments.push(SegmentInfo {
            start,
            len: entry.metadata()?.len(),
            path: entry.path(),
        });
    }
    segments.sort_unstable_by_key(|s| s.start);
    Ok(segments)
}

/// The result of scanning a segmented WAL for frames.
#[derive(Debug)]
pub struct SegmentedWalScan {
    /// The payloads of every intact frame at or after the scan's starting
    /// offset, in logical order.
    pub frames: Vec<Vec<u8>>,
    /// Logical offset after the last intact frame; the append boundary.
    pub valid_len: u64,
    /// Why the scan stopped early, if it did (a torn tail, a checksum
    /// mismatch, or a broken segment chain).
    pub defect: Option<FrameDefect>,
}

/// Scans the series for frames starting at logical offset `from`, reading
/// only the bytes at or behind `from` (earlier segments are skipped
/// without being read, mid-segment starts are `seek`ed to).  Stops at the
/// first torn or corrupt frame, or at a break in the segment chain.
pub fn recover(dir: &Path, base: &str, from: u64) -> io::Result<SegmentedWalScan> {
    let segments = match list_segments(dir, base) {
        Ok(segments) => segments,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut frames = Vec::new();
    let mut valid = from;
    // `from` below the first surviving segment means the caller's snapshot
    // references GC'd bytes; nothing reachable from there is trustworthy.
    if let Some(first) = segments.first() {
        if from < first.start {
            return Ok(SegmentedWalScan {
                frames,
                valid_len: from,
                defect: Some(FrameDefect::Torn),
            });
        }
    } else if from > 0 {
        return Ok(SegmentedWalScan {
            frames,
            valid_len: from,
            defect: Some(FrameDefect::Torn),
        });
    }
    let mut expected_start: Option<u64> = None;
    for segment in &segments {
        if let Some(expected) = expected_start {
            if segment.start != expected {
                // Chain gap or overlap: everything from here is unreachable.
                return Ok(SegmentedWalScan {
                    frames,
                    valid_len: valid,
                    defect: Some(FrameDefect::Torn),
                });
            }
        }
        expected_start = Some(segment.end());
        if segment.end() <= from {
            continue; // wholly behind the starting offset: skip unread
        }
        let skip = from.saturating_sub(segment.start);
        let mut file = File::open(&segment.path)?;
        if skip > 0 {
            file.seek(SeekFrom::Start(skip))?;
        }
        let mut bytes = Vec::with_capacity((segment.len - skip) as usize);
        file.read_to_end(&mut bytes)?;
        let scan = frame::scan(&bytes, 0);
        frames.extend(scan.frames);
        valid = segment.start + skip + scan.valid_len;
        if scan.defect.is_some() {
            return Ok(SegmentedWalScan {
                frames,
                valid_len: valid,
                defect: scan.defect,
            });
        }
    }
    Ok(SegmentedWalScan {
        frames,
        valid_len: valid,
        defect: None,
    })
}

/// A segmented write-ahead log opened for appending.
#[derive(Debug)]
pub struct SegmentedWal {
    dir: PathBuf,
    base: String,
    active: WalWriter,
    active_start: u64,
    policy: FsyncPolicy,
}

impl SegmentedWal {
    /// Opens the series for appending at logical offset `committed` (the
    /// `valid_len` a [`recover`] scan reported).  Segments wholly beyond
    /// the boundary are deleted and the segment containing it is truncated
    /// to it — a torn or unreachable tail is physically removed.
    pub fn open(dir: &Path, base: &str, committed: u64, policy: FsyncPolicy) -> io::Result<Self> {
        let segments = list_segments(dir, base)?;
        // The segment that will become the active tail: the one containing
        // `committed`, or a fresh one starting exactly there.
        let mut active_start = 0;
        for segment in &segments {
            if segment.start <= committed {
                active_start = segment.start;
            }
            if segment.start > committed {
                // Beyond the valid boundary: unreachable, remove.
                std::fs::remove_file(&segment.path)?;
            }
        }
        let path = segment_path(dir, base, active_start);
        let active = WalWriter::open(&path, committed - active_start, policy)?;
        Ok(SegmentedWal {
            dir: dir.to_path_buf(),
            base: base.to_string(),
            active,
            active_start,
            policy,
        })
    }

    /// The series' base name.
    pub fn base(&self) -> &str {
        &self.base
    }

    /// Logical offset after the last committed frame.
    pub fn logical_len(&self) -> u64 {
        self.active_start + self.active.committed_len()
    }

    /// Appends one frame to the in-memory group (nothing reaches disk
    /// until [`Self::commit`]).
    pub fn append(&mut self, payload: &[u8]) {
        self.active.append(payload);
    }

    /// Commits the buffered group (one `write`, fsync per policy) and
    /// returns the new logical length.
    pub fn commit(&mut self) -> io::Result<u64> {
        Ok(self.active_start + self.active.commit()?)
    }

    /// Commits and fsyncs regardless of policy; returns the new logical
    /// length.
    pub fn sync(&mut self) -> io::Result<u64> {
        Ok(self.active_start + self.active.sync()?)
    }

    /// Closes the active segment and starts a new one at the current
    /// logical offset, so that offset becomes a segment boundary — the
    /// caller does this right before capturing a snapshot, which is what
    /// makes whole segments reclaimable once the snapshot is the oldest
    /// kept.  The outgoing segment is fsynced first (except under the
    /// `Never` policy, which keeps its no-fsync contract and only
    /// commits).  A no-op when the active segment is empty (the boundary
    /// already exists).  Returns the boundary offset.
    pub fn rotate(&mut self) -> io::Result<u64> {
        let boundary = if self.policy == FsyncPolicy::Never {
            self.commit()?
        } else {
            self.sync()?
        };
        if self.active.committed_len() == 0 {
            return Ok(boundary);
        }
        let path = segment_path(&self.dir, &self.base, boundary);
        self.active = WalWriter::open(&path, 0, self.policy)?;
        self.active_start = boundary;
        Ok(boundary)
    }

    /// Deletes every non-active segment lying **wholly** behind `boundary`
    /// (logical `end ≤ boundary`) — the WAL-segment GC.  The caller passes
    /// the oldest snapshot offset it must still be able to recover from;
    /// bytes at or above it are never touched.  Returns
    /// `(segments_deleted, bytes_freed)`.
    pub fn truncate_before(&mut self, boundary: u64) -> io::Result<(usize, u64)> {
        let mut deleted = 0;
        let mut freed = 0;
        for segment in list_segments(&self.dir, &self.base)? {
            if segment.end() <= boundary && segment.path != self.active.path() {
                std::fs::remove_file(&segment.path)?;
                deleted += 1;
                freed += segment.len;
            }
        }
        if deleted > 0 && self.policy != FsyncPolicy::Never {
            // Make the removals durable: a resurrected segment after a
            // power cut would re-enter the chain below kept snapshots.
            File::open(&self.dir)?.sync_all()?;
        }
        Ok((deleted, freed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;

    fn open_fresh(dir: &Path) -> SegmentedWal {
        SegmentedWal::open(dir, "s", 0, FsyncPolicy::Never).unwrap()
    }

    #[test]
    fn single_segment_round_trip_keeps_the_legacy_name() {
        let dir = test_dir("seg-basic");
        let mut wal = open_fresh(dir.path());
        wal.append(b"one");
        wal.append(b"two");
        wal.commit().unwrap();
        drop(wal);
        let scan = recover(dir.path(), "s", 0).unwrap();
        assert_eq!(scan.frames, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(scan.defect.is_none());
    }

    #[test]
    fn rotation_chains_segments_and_recovery_spans_them() {
        let dir = test_dir("seg-rotate");
        let mut wal = open_fresh(dir.path());
        wal.append(b"alpha");
        wal.commit().unwrap();
        let b1 = wal.rotate().unwrap();
        wal.append(b"beta");
        wal.commit().unwrap();
        let b2 = wal.rotate().unwrap();
        // Rotating an empty active segment is a no-op.
        assert_eq!(wal.rotate().unwrap(), b2);
        wal.append(b"gamma");
        wal.commit().unwrap();
        let end = wal.logical_len();
        drop(wal);

        let segments = list_segments(dir.path(), "s").unwrap();
        assert_eq!(segments.len(), 3);
        assert_eq!(segments[0].start, 0);
        assert_eq!(segments[1].start, b1);
        assert_eq!(segments[2].start, b2);
        assert_eq!(segments[1].start, segments[0].end());
        assert_eq!(segments[2].start, segments[1].end());

        // Full replay.
        let scan = recover(dir.path(), "s", 0).unwrap();
        assert_eq!(
            scan.frames,
            vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()]
        );
        assert_eq!(scan.valid_len, end);
        // Tail replay from each boundary.
        let scan = recover(dir.path(), "s", b1).unwrap();
        assert_eq!(scan.frames, vec![b"beta".to_vec(), b"gamma".to_vec()]);
        let scan = recover(dir.path(), "s", b2).unwrap();
        assert_eq!(scan.frames, vec![b"gamma".to_vec()]);
        let scan = recover(dir.path(), "s", end).unwrap();
        assert!(scan.frames.is_empty());
        assert!(scan.defect.is_none());
    }

    #[test]
    fn gc_deletes_only_segments_wholly_behind_the_boundary() {
        let dir = test_dir("seg-gc");
        let mut wal = open_fresh(dir.path());
        wal.append(b"old-1");
        wal.commit().unwrap();
        let b1 = wal.rotate().unwrap();
        wal.append(b"old-2");
        wal.commit().unwrap();
        let b2 = wal.rotate().unwrap();
        wal.append(b"live");
        wal.commit().unwrap();

        // A boundary inside segment 2 frees only segment 1.
        let (deleted, freed) = wal.truncate_before((b1 + b2) / 2).unwrap();
        assert_eq!(deleted, 1);
        assert!(freed > 0);
        // Everything from b2 is still recoverable.
        let scan = recover(dir.path(), "s", b2).unwrap();
        assert_eq!(scan.frames, vec![b"live".to_vec()]);
        // And from b1 too (segment 2 survived).
        let scan = recover(dir.path(), "s", b1).unwrap();
        assert_eq!(scan.frames, vec![b"old-2".to_vec(), b"live".to_vec()]);

        // A boundary at b2 frees segment 2; the active segment survives
        // even when wholly behind the boundary.
        let (deleted, _) = wal.truncate_before(wal.logical_len()).unwrap();
        assert_eq!(deleted, 1);
        let scan = recover(dir.path(), "s", b2).unwrap();
        assert_eq!(scan.frames, vec![b"live".to_vec()]);

        // Recovery from an offset below the first surviving segment
        // reports a defect instead of inventing data.
        let scan = recover(dir.path(), "s", 0).unwrap();
        assert!(scan.frames.is_empty());
        assert_eq!(scan.defect, Some(FrameDefect::Torn));
    }

    #[test]
    fn open_truncates_torn_tails_and_drops_unreachable_segments() {
        let dir = test_dir("seg-torn");
        let mut wal = open_fresh(dir.path());
        wal.append(b"keep");
        wal.commit().unwrap();
        let b1 = wal.rotate().unwrap();
        wal.append(b"later");
        wal.commit().unwrap();
        drop(wal);

        // Tear the first segment's frame: the whole second segment becomes
        // unreachable ("truncate, never resurrect").
        let first = first_segment_path(dir.path(), "s");
        let bytes = std::fs::read(&first).unwrap();
        std::fs::write(&first, &bytes[..bytes.len() - 2]).unwrap();
        let scan = recover(dir.path(), "s", 0).unwrap();
        assert!(scan.frames.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert!(scan.defect.is_some());

        let wal = SegmentedWal::open(dir.path(), "s", scan.valid_len, FsyncPolicy::Never).unwrap();
        assert_eq!(wal.logical_len(), 0);
        drop(wal);
        // The later segment was deleted, the torn one truncated.
        let segments = list_segments(dir.path(), "s").unwrap();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].len, 0);
        let _ = b1;
    }

    #[test]
    fn chain_gaps_stop_recovery_at_the_last_intact_boundary() {
        let dir = test_dir("seg-gap");
        let mut wal = open_fresh(dir.path());
        wal.append(b"a");
        wal.commit().unwrap();
        let b1 = wal.rotate().unwrap();
        wal.append(b"b");
        wal.commit().unwrap();
        let b2 = wal.rotate().unwrap();
        wal.append(b"c");
        wal.commit().unwrap();
        drop(wal);
        // Delete the middle segment: frames after the gap must not be
        // resurrected.
        std::fs::remove_file(segment_path(dir.path(), "s", b1)).unwrap();
        let scan = recover(dir.path(), "s", 0).unwrap();
        assert_eq!(scan.frames, vec![b"a".to_vec()]);
        assert_eq!(scan.valid_len, b1);
        assert_eq!(scan.defect, Some(FrameDefect::Torn));
        let _ = b2;
    }

    #[test]
    fn missing_series_is_an_empty_log() {
        let dir = test_dir("seg-missing");
        let scan = recover(dir.path(), "nope", 0).unwrap();
        assert!(scan.frames.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert!(scan.defect.is_none());
    }
}
