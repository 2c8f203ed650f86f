//! The encrypted PHR store — the "database" the patient outsources storage to.
//!
//! The store only ever sees ciphertexts (hybrid ciphertexts of `tibpre-core`);
//! the paper's point is that the patient needs to trust it *only* to keep the
//! blobs available, not to keep them confidential.  It is safe to share one
//! store between the patient, several proxies and many providers.
//!
//! # Sharding
//!
//! The store is **lock-striped**: records are distributed over `N` shards by
//! a hash of their [`RecordId`], each shard behind its own `parking_lot`
//! `RwLock`.  Every operation on a single record (`put`, `get`, `delete`,
//! `log_disclosure`) touches exactly one shard, so writers to different
//! records never contend and readers of the same record proceed in parallel;
//! per-record operations are linearizable because that one shard lock orders
//! them.  Cross-record reads (`list_for_patient*`, `record_count`,
//! `audit_snapshot`) take the shard *read* locks one at a time — they never
//! hold more than one lock and never block writers on other shards.
//!
//! Identifiers and audit timestamps come from store-global atomic counters,
//! so ids stay unique and the audit trail keeps one strictly increasing
//! logical clock across all shards; each shard appends to its own audit
//! segment and [`EncryptedPhrStore::audit_snapshot`] merges the segments by
//! timestamp.
//!
//! # Wire residency
//!
//! Shards do not hold decoded record structs — they hold each record's
//! **encoded bytes**, validated once at the API boundary (see the private
//! `resident` module and the "In-memory representation" section of
//! `ARCHITECTURE.md`):
//!
//! * `put` encodes the record exactly once; on a durable store the shard
//!   retains *the same buffer* the WAL appended, so persisting costs
//!   validate + memcpy + CRC and zero extra codec round trips
//!   ([`crate::metrics`] counts them),
//! * `get` decodes lazily, returning `Arc<StoredRecord>`s through a small
//!   per-shard LRU of hot records,
//! * the `by_patient` / category indexes and delete's ownership check run
//!   on lightweight headers parsed from the encoding's prefix — never a
//!   full decode,
//! * records recovered from an indexed (`TBS2`) snapshot stay backed by the
//!   **memory-mapped** snapshot file: reopening is O(index), and a record's
//!   pages fault in only when it is first read (CRC-checked at that moment).
//!
//! Every resident body is the v1 encoding, in-memory and durable stores
//! alike; every store therefore holds the pairing parameters it decodes
//! with.
//!
//! # Durability
//!
//! A store is either **in-memory**
//! ([`EncryptedPhrStore::in_memory_with_params`]) — no hidden I/O — or
//! **durable** ([`EncryptedPhrStore::open`]): each shard
//! additionally owns a write-ahead log segment and a generational snapshot
//! series in the store directory (see [`crate::durable`] for the frame
//! contents and [`tibpre_storage`] for the envelope).  Every mutation is
//! appended to the owning shard's WAL *before* it is applied in memory, both
//! under the same shard write lock the in-memory path already takes, so
//! durability introduces no extra synchronization and no cross-shard locks.
//! `open` replays `newest valid snapshot + WAL tail` per shard — in parallel
//! across shards on a [`ReEncryptEngine`] — truncating each log at the first
//! torn or corrupt frame.  Bytes in an older format are read there, once, by
//! the private `legacy` module, and `open` re-persists the store as v1
//! before returning.
//!
//! Durable writes are **fail-stop**: an I/O error while appending to a WAL
//! panics rather than silently continuing with a log that no longer matches
//! memory.  That is the standard correctness posture for write-ahead
//! logging; a process that cannot log can no longer promise recoverability.

use crate::audit::AuditEvent;
use crate::category::Category;
use crate::durable::{
    self, Durability, ShardLog, StoreDurability, WalOp, SNAPSHOT_GENERATIONS_KEPT,
};
use crate::legacy;
use crate::record::RecordId;
use crate::resident::{DecodedCache, EncodedRecord, RecordHeader};
use crate::{PhrError, Result};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tibpre_core::HybridCiphertext;
use tibpre_engine::ReEncryptEngine;
use tibpre_ibe::Identity;
use tibpre_pairing::{DecodeCtx, PairingParams};
use tibpre_storage::{
    frame, segment, snapshot, ChunkOutcome, CommitNotifier, FsyncPolicy, ReplicationLog,
    SegmentedWal,
};
use tibpre_wire::{put_u32, Reader, WireDecode, WireEncode, WireVersion};

/// Default shard count.  Sixteen stripes keep the per-shard contention
/// negligible for any worker count this workspace's engine will realistically
/// run, while the merge-style reads stay cheap.
pub const DEFAULT_SHARDS: usize = 16;

/// One encrypted record at rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredRecord {
    /// Identifier assigned by the store.
    pub id: RecordId,
    /// The owning patient (non-secret metadata; it is also bound into the AEAD
    /// associated data, so the store cannot re-attribute blobs undetected).
    pub patient: Identity,
    /// The record category (non-secret; equals the scheme's type tag).
    pub category: Category,
    /// The non-secret title.
    pub title: String,
    /// The hybrid ciphertext (typed KEM header + AEAD body).
    pub ciphertext: HybridCiphertext,
}

/// What snapshot recovery hands back per shard: the resident record map and
/// the audit trail.
pub(crate) type RecoveredShardState = (BTreeMap<RecordId, EncodedRecord>, Vec<Arc<AuditEvent>>);

/// One lock stripe: the records whose id hashes here (as wire-resident
/// bodies), the per-patient index restricted to those records, this stripe's
/// audit segment, the LRU of hot decoded records, and — on a durable store —
/// its write-ahead log handle.
#[derive(Default)]
struct Shard {
    records: BTreeMap<RecordId, EncodedRecord>,
    by_patient: HashMap<Vec<u8>, BTreeSet<RecordId>>,
    audit: Vec<Arc<AuditEvent>>,
    log: Option<ShardLog>,
    /// Hot decoded records.  A `Mutex` inside the shard because `get` must
    /// update LRU recency while holding only the shard *read* lock.
    cache: Mutex<DecodedCache>,
}

impl Shard {
    /// Replaces the shard's records and audit trail with a snapshot's and
    /// rebuilds the per-patient index (derived state, never persisted) from
    /// the record headers — no record is decoded.
    fn load(&mut self, (records, audit): RecoveredShardState) {
        self.records = records;
        self.audit = audit;
        *self.cache.get_mut() = DecodedCache::default();
        self.by_patient.clear();
        for (&id, enc) in &self.records {
            self.by_patient
                .entry(enc.header.patient.as_bytes().to_vec())
                .or_default()
                .insert(id);
        }
    }

    /// Inserts a resident record and indexes it under its patient.
    fn insert(&mut self, enc: EncodedRecord) {
        let id = enc.header.id;
        self.by_patient
            .entry(enc.header.patient.as_bytes().to_vec())
            .or_default()
            .insert(id);
        self.records.insert(id, enc);
    }

    /// Removes a record from the map, the index and the read cache.
    fn remove(&mut self, id: RecordId) {
        if let Some(enc) = self.records.remove(&id) {
            if let Some(set) = self.by_patient.get_mut(enc.header.patient.as_bytes()) {
                set.remove(&id);
            }
        }
        self.cache.get_mut().remove(id);
    }

    /// Applies one WAL op — the one step a live write, crash recovery and
    /// replica apply share, maintaining the index as it goes.  `frame` is
    /// the op's v1 payload (a live write on an in-memory store encodes only
    /// a `Put`'s); a `Put` keeps it as the record's resident bytes, and a
    /// live `Put` (`cache`) also primes the read cache with its record.
    /// Returns the record id and timestamp the op carries, for the store's
    /// id allocator and clock.
    fn apply(&mut self, op: WalOp, frame: Vec<u8>, cache: bool) -> (u64, u64) {
        let event = match op {
            WalOp::Put { record, at } => {
                let header = RecordHeader {
                    id: record.id,
                    patient: record.patient.clone(),
                    category: record.category.clone(),
                };
                let event = AuditEvent::RecordStored {
                    id: record.id,
                    patient: header.patient.clone(),
                    category: header.category.clone(),
                    at,
                };
                self.insert(EncodedRecord::from_owned(
                    frame.into(),
                    durable::PUT_BODY_START,
                    header,
                ));
                if cache {
                    self.cache.get_mut().insert(record.id, Arc::from(record));
                }
                event
            }
            WalOp::Delete { id, at } => {
                self.remove(id);
                AuditEvent::RecordDeleted { id, at }
            }
            WalOp::Audit { event } => event,
        };
        let folded = (event.record_id().map_or(0, |id| id.0), event.at());
        self.audit.push(Arc::new(event));
        folded
    }

    /// The highest record id and timestamp the shard's state mentions —
    /// audit events included, so ids of since-deleted records (which still
    /// appear in the trail) are never reissued.
    fn high_water(&self) -> (u64, u64) {
        let mut id = self.records.keys().next_back().map_or(0, |id| id.0);
        let mut at = 0;
        for event in &self.audit {
            id = id.max(event.record_id().map_or(0, |id| id.0));
            at = at.max(event.at());
        }
        (id, at)
    }
}

/// A concurrent, sharded, indexed, append-audited store of encrypted PHR
/// records, optionally durable (see the [module docs](self)).
pub struct EncryptedPhrStore {
    name: String,
    shards: Box<[RwLock<Shard>]>,
    next_id: AtomicU64,
    clock: AtomicU64,
    durability: Option<StoreDurability>,
    /// The pairing parameters resident record bytes are decoded with.
    ctx: DecodeCtx,
    /// Bumped after every durable commit (and every replicated apply) —
    /// the subscription point replication shipping loops block on.
    notifier: Arc<CommitNotifier>,
}

/// Name of the store metadata file inside a durable store's directory.
const META_FILE: &str = "store.meta";

/// Version number of the store metadata format.
const META_VERSION: u32 = 1;

impl EncryptedPhrStore {
    /// Creates an empty in-memory store with [`DEFAULT_SHARDS`] lock
    /// stripes, keeping records *wire-resident* (encoded bytes, decoded
    /// lazily with `params` through the per-shard LRU).
    pub fn in_memory_with_params(name: impl AsRef<str>, params: Arc<PairingParams>) -> Self {
        Self::with_shards_and_params(name, DEFAULT_SHARDS, params)
    }

    /// [`Self::in_memory_with_params`] with an explicit shard count (clamped
    /// to ≥ 1).
    pub fn with_shards_and_params(
        name: impl AsRef<str>,
        shards: usize,
        params: Arc<PairingParams>,
    ) -> Self {
        EncryptedPhrStore {
            name: name.as_ref().to_string(),
            shards: (0..shards.max(1)).map(|_| RwLock::default()).collect(),
            next_id: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            durability: None,
            ctx: DecodeCtx::from(&params),
            notifier: Arc::new(CommitNotifier::new()),
        }
    }

    /// Opens (or creates) a durable store in directory `dir`, recovering any
    /// existing state by replaying each shard's `newest valid snapshot + WAL
    /// tail` and truncating each log at the first torn or corrupt frame.
    ///
    /// The store's display name is the directory's final path component.  A
    /// fresh store uses the shard count from `durability`; an existing store
    /// keeps the count persisted in its `store.meta` file (the id→shard
    /// mapping depends on it).  Shards are recovered in parallel on a
    /// [`ReEncryptEngine::from_env`] worker pool, which also parallelizes
    /// the per-shard index rebuild from snapshot trailer metadata.
    ///
    /// Indexed (`TBS2`) snapshots are served through a memory map: the open
    /// validates and parses only the trailer — O(index), not O(data) — and
    /// record bytes fault in when first read.  A store written in an older
    /// format (monolithic `TBS1` snapshots, v0 or pre-envelope WAL frames)
    /// is read through the private `legacy` module and migrated before this
    /// returns: two forced snapshots re-persist it as v1 and let segment GC
    /// delete the legacy log.
    ///
    /// Recovery never panics on corrupt input: a damaged snapshot generation
    /// falls back to the previous generation (or a full log replay), and a
    /// damaged log frame truncates the log at the last intact boundary.  A
    /// frame that passes its checksum but does not *decode* (wrong pairing
    /// parameters, unknown tag from a newer format) fails the open instead —
    /// that is an operator error, and truncating there would destroy intact
    /// data.
    ///
    /// The directory is guarded by an advisory `LOCK` file: a second
    /// concurrent open (which would truncate WAL tails the first process is
    /// appending to) fails with [`PhrError::Storage`].  The lock is released
    /// by the OS on process exit, crashes included.
    pub fn open(dir: impl AsRef<Path>, durability: Durability) -> Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let lock = tibpre_storage::DirLock::acquire(&dir.join("LOCK"))?;
        let shards = Self::read_or_create_meta(dir, &durability)?;
        let name = dir
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "phr-store".to_string());

        let engine = ReEncryptEngine::from_env();
        let recovered: Vec<(Shard, bool)> = engine.try_par_map_indices(shards, |i| {
            Self::recover_shard(dir, i, &durability, &engine)
        })?;
        let migrate = recovered.iter().any(|(_, legacy)| *legacy);
        let (next_id, clock) = recovered
            .iter()
            .map(|(shard, _)| shard.high_water())
            .fold((0, 0), |(i, c), (id, at)| (i.max(id), c.max(at)));

        let store = EncryptedPhrStore {
            name,
            shards: recovered
                .into_iter()
                .map(|(shard, _)| RwLock::new(shard))
                .collect(),
            next_id: AtomicU64::new(next_id),
            clock: AtomicU64::new(clock),
            durability: Some(StoreDurability {
                dir: dir.to_path_buf(),
                fsync: durability.fsync_policy(),
                snapshot_every: durability.snapshot_cadence(),
                lock,
            }),
            ctx: DecodeCtx::from(durability.params()),
            notifier: Arc::new(CommitNotifier::new()),
        };
        if migrate {
            // The first snapshot rotates every WAL past its legacy frames
            // and writes TBS2; the second makes that rotation the oldest
            // kept offset, so segment GC deletes the legacy segments and
            // pruning retires every TBS1 generation.
            store.force_snapshot()?;
            store.force_snapshot()?;
        }
        Ok(store)
    }

    /// Reads the persisted shard count, or persists the configured one on
    /// first open.  The meta file is one CRC frame, so a torn first open is
    /// detected rather than silently mis-sharding every id.
    fn read_or_create_meta(dir: &Path, durability: &Durability) -> Result<usize> {
        let path = dir.join(META_FILE);
        match std::fs::read(&path) {
            Ok(bytes) => {
                let payload = frame::decode_single_frame(&bytes)
                    .ok_or(PhrError::CorruptedRecord("store meta file torn or corrupt"))?;
                let mut r = Reader::new(&payload);
                if r.u32()? != META_VERSION {
                    return Err(PhrError::CorruptedRecord("unsupported store meta version"));
                }
                let shards = r.u32()? as usize;
                r.finish()?;
                Ok(shards.max(1))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let shards = durability.shard_count();
                let mut payload = Vec::new();
                put_u32(&mut payload, META_VERSION);
                put_u32(&mut payload, shards as u32);
                // Meta determines the id→shard mapping forever, so it is
                // made durable unconditionally — losing it to a power cut and
                // silently recreating it with a different shard count would
                // orphan every record.
                tibpre_storage::replace_file(dir, &path, &frame::encode_frame(&payload))?;
                Ok(shards)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Recovers one shard: newest valid snapshot (falling back through the
    /// generations, then to empty), then the WAL tail from the snapshot's
    /// offset, truncated at the first torn or corrupt frame.  Only the tail
    /// behind the chosen snapshot is read from disk — earlier WAL segments
    /// are skipped entirely (and may already have been garbage-collected).
    /// The flag reports whether any legacy artifact was read.
    fn recover_shard(
        dir: &Path,
        index: usize,
        durability: &Durability,
        engine: &ReEncryptEngine,
    ) -> Result<(Shard, bool)> {
        let ctx = DecodeCtx::from(durability.params());
        let base = durable::shard_base(index);
        let segments = match segment::list_segments(dir, &base) {
            Ok(segments) => segments,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let wal_floor = segments.first().map(|s| s.start).unwrap_or(0);
        let wal_end = segments.last().map(|s| s.end()).unwrap_or(0);
        let in_range = |offset: u64| (wal_floor..=wal_end).contains(&offset);

        let mut shard = Shard::default();
        let mut legacy = false;
        let mut start = 0u64;
        let mut gen = 0u64;
        let mut have_state = false;
        let mut snap_offsets = std::collections::BTreeMap::new();
        for candidate in snapshot::list_generations(dir, &base)? {
            if have_state {
                // A later (older-generation) pass only harvests the offset
                // for the GC map; the trailer-level peek validates enough.
                let offset = match snapshot::peek_wal_offset(dir, &base, candidate) {
                    Ok(offset) => offset,
                    Err(_) => match legacy::snapshot_offset(dir, &base, candidate) {
                        Some(offset) => {
                            legacy = true;
                            offset
                        }
                        None => continue, // checksum/torn: pruning retires it
                    },
                };
                if in_range(offset) {
                    snap_offsets.insert(candidate, offset);
                }
                continue;
            }
            // The indexed (TBS2) layout is tried first; anything else goes to
            // the legacy (TBS1) loader.  Any validation or decode failure
            // falls back to an older generation, per the recovery contract.
            let (offset, state) = match snapshot::load_indexed(dir, &base, candidate) {
                Ok(snap) => {
                    let offset = snap.wal_offset();
                    let Ok(state) = Self::state_from_indexed(engine, snap) else {
                        continue; // trailer decodes, metadata does not
                    };
                    (offset, state)
                }
                Err(_) => {
                    let Ok(loaded) = legacy::load_snapshot(&ctx, dir, &base, candidate) else {
                        continue; // neither layout: fall back a generation
                    };
                    legacy = true;
                    loaded
                }
            };
            if !in_range(offset) {
                continue; // references log bytes that no longer exist
            }
            shard.load(state);
            start = offset;
            gen = candidate;
            have_state = true;
            snap_offsets.insert(candidate, offset);
        }

        // A WAL whose prefix was garbage-collected can only be opened
        // through a snapshot at or above the surviving floor.  If no kept
        // generation is usable, refuse to open instead of replaying a
        // partial tail (silent data loss) or truncating segments a repair
        // might still need — compaction trades the old "all snapshots
        // corrupt → full log replay" fallback for bounded disk usage, so
        // this failure is surfaced, not papered over.
        if start < wal_floor {
            return Err(PhrError::CorruptedRecord(
                "no usable snapshot at or above the oldest surviving WAL segment — \
                 the log prefix was compacted away; refusing to open with partial state",
            ));
        }

        let scan = segment::recover(dir, &base, start)?;
        for payload in scan.frames {
            // A frame that passes its checksum but fails to *decode* is not
            // storage corruption (the CRC vouches for the bytes) — it means
            // the wrong pairing parameters or an unknown format tag.
            // Truncating would destroy intact data, so refuse to open.
            let (op, frame) = legacy::read_frame(payload, &ctx, &mut legacy).map_err(|_| {
                PhrError::CorruptedRecord(
                    "CRC-valid WAL frame failed to decode; check pairing parameters \
                     and binary version — refusing to truncate intact data",
                )
            })?;
            shard.apply(op, frame, false);
        }

        // The truncation boundary is the scanner's: every frame decoded (a
        // failure returned above), so the valid prefix ends where the scan
        // stopped.
        let wal = SegmentedWal::open(dir, &base, scan.valid_len, durability.fsync_policy())?;
        shard.log = Some(ShardLog {
            wal,
            base,
            gen,
            ops_since_snapshot: 0,
            snap_offsets,
        });
        Ok((shard, legacy))
    }

    /// Turns a mapped indexed snapshot into shard state: the audit trail
    /// from the trailer metadata, and one [`EncodedRecord`] per blob whose
    /// header comes from the blob's trailer-resident index metadata — no
    /// data page is touched, which is what keeps reopening O(index).  The
    /// metadata parse fans out over the engine's workers.
    fn state_from_indexed(
        engine: &ReEncryptEngine,
        snap: snapshot::IndexedSnapshot,
    ) -> Result<RecoveredShardState> {
        let audit = durable::decode_audit_meta(snap.meta())?;
        let snap = Arc::new(snap);
        let parsed: Vec<RecordHeader> = engine.try_par_map_indices(snap.blob_count(), |i| {
            let meta = snap.index_meta(i).ok_or(PhrError::CorruptedRecord(
                "snapshot blob index out of range",
            ))?;
            crate::resident::decode_index_meta(meta)
        })?;
        let mut records = BTreeMap::new();
        for (i, header) in parsed.into_iter().enumerate() {
            let id = header.id;
            let enc = EncodedRecord::from_mapped(snap.clone(), i, header);
            if records.insert(id, enc).is_some() {
                return Err(PhrError::CorruptedRecord(
                    "duplicate record id in snapshot index",
                ));
            }
        }
        Ok((records, audit.into_iter().map(Arc::new).collect()))
    }

    /// The one write step of `put`, `delete` and the audit appends, run
    /// under the shard's write lock: encodes `op` once, appends the frame to
    /// the shard's WAL when the store is durable, then applies it exactly
    /// as recovery and replicas do.  An in-memory store encodes only a
    /// `Put`, whose frame becomes the record's resident bytes.
    fn commit(&self, shard: &mut Shard, op: WalOp) {
        let frame = if self.is_durable() || matches!(op, WalOp::Put { .. }) {
            op.to_wire_bytes()
        } else {
            Vec::new()
        };
        self.log_encoded(shard, &frame);
        shard.apply(op, frame, true);
    }

    /// Appends one encoded frame payload to a shard's WAL (no-op on
    /// in-memory stores).  Fail-stop: an I/O failure here panics, see the
    /// [module docs](self).
    fn log_encoded(&self, shard: &mut Shard, payload: &[u8]) {
        let Some(d) = self.durability.as_ref() else {
            return;
        };
        // Snapshot *before* appending the new frame: logging runs ahead of
        // the in-memory apply (write-ahead), so right now the shard state is
        // consistent with exactly `committed_len()` bytes of log — the only
        // moment a `(state, wal_offset)` pair can be captured without
        // including a frame the state does not yet reflect.
        let snapshot_due = shard
            .log
            .as_ref()
            .is_some_and(|log| d.snapshot_every > 0 && log.ops_since_snapshot >= d.snapshot_every);
        if snapshot_due {
            self.snapshot_shard(shard)
                .expect("snapshot write failed; cannot continue without durability (fail-stop)");
        }
        let Some(log) = shard.log.as_mut() else {
            return;
        };
        log.wal.append(payload);
        log.wal
            .commit()
            .expect("WAL append failed; cannot continue without durability (fail-stop)");
        log.ops_since_snapshot += 1;
        self.notifier.notify();
    }

    /// Streams a shard's state into the next indexed (`TBS2`) snapshot
    /// generation — resident record bytes are *copied*, not re-encoded; the
    /// audit trail and per-record headers go into the trailer — then prunes
    /// old generations (keeping [`SNAPSHOT_GENERATIONS_KEPT`]) and
    /// garbage-collects WAL segments wholly behind the oldest kept
    /// snapshot — the compaction that bounds disk usage by churn since the
    /// last snapshot instead of store lifetime.
    fn snapshot_shard(&self, shard: &mut Shard) -> Result<()> {
        let d = self
            .durability
            .as_ref()
            .expect("snapshotting a durable store");
        let meta = durable::encode_audit_meta(&shard.audit);
        let log = shard.log.as_mut().expect("snapshotting a durable shard");
        // Rotate so the snapshot's offset lands on a segment boundary —
        // that is what makes the prefix reclaimable as whole files once
        // this snapshot is the oldest kept.  Rotation syncs the old
        // segment first (under `Never` it only commits, keeping that
        // policy's no-fsync contract), so the snapshot never references
        // WAL bytes less durable than itself.
        let wal_offset = log.wal.rotate()?;
        log.gen += 1;
        snapshot::write_indexed_snapshot(
            &d.dir,
            &log.base,
            log.gen,
            wal_offset,
            &meta,
            // A mapped body is read (and CRC-checked) here; a corrupt blob
            // fails the snapshot instead of being re-persisted under a fresh
            // checksum.
            shard.records.values().map(|enc| {
                Ok(snapshot::IndexedBlob {
                    body: enc.body()?,
                    index_meta: enc.header.to_wire_bytes(),
                })
            }),
            !matches!(d.fsync, FsyncPolicy::Never),
        )?;
        snapshot::prune(&d.dir, &log.base, SNAPSHOT_GENERATIONS_KEPT)?;
        log.snap_offsets.insert(log.gen, wal_offset);
        // Segment GC: safe only when a full complement of generations is
        // on disk and the offset of *every* one of them is known — the
        // boundary is the smallest of those offsets, so no kept snapshot
        // can ever reference a deleted segment, and losing the newest
        // generation still leaves an older one whose log suffix survives.
        // An unknown generation (e.g. a corrupt newer file surviving from
        // a previous run) simply defers GC until pruning retires it.
        let kept = snapshot::list_generations(&d.dir, &log.base)?;
        log.snap_offsets.retain(|g, _| kept.contains(g));
        if kept.len() >= SNAPSHOT_GENERATIONS_KEPT
            && kept.iter().all(|g| log.snap_offsets.contains_key(g))
        {
            if let Some(&oldest) = log.snap_offsets.values().min() {
                log.wal.truncate_before(oldest)?;
            }
        }
        log.ops_since_snapshot = 0;
        Ok(())
    }

    /// Whether this store persists to disk.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Forces every shard's WAL to stable storage regardless of the fsync
    /// policy (clean shutdown).  No-op on in-memory stores.
    pub fn sync(&self) -> Result<()> {
        for shard in self.shards.iter() {
            let mut shard = shard.write();
            if let Some(log) = shard.log.as_mut() {
                log.wal.sync()?;
            }
        }
        Ok(())
    }

    /// Writes a fresh snapshot of every shard immediately (e.g. before a
    /// planned shutdown, to make the next recovery O(1) in the log length).
    /// No-op on in-memory stores.
    pub fn force_snapshot(&self) -> Result<()> {
        if self.durability.is_none() {
            return Ok(());
        }
        for shard in self.shards.iter() {
            let mut shard = shard.write();
            if shard.log.is_some() {
                self.snapshot_shard(&mut shard)?;
            }
        }
        Ok(())
    }

    /// The store's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total encoded record-payload bytes resident across all shards — the
    /// store's record memory footprint (mapped snapshot blobs count at
    /// their on-disk size).  This is the numerator of the bytes-per-record
    /// gate `codec_gate` checks.
    pub fn encoded_payload_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .read()
                    .records
                    .values()
                    .map(|enc| enc.encoded_len() as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    /// The shard a record id lives on.  Sequential ids are spread with a
    /// Fibonacci multiplicative hash so bursts of fresh records do not all
    /// land on neighbouring stripes.
    fn shard_for_id(&self, id: RecordId) -> &RwLock<Shard> {
        let hashed = id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(hashed >> 32) as usize % self.shards.len()]
    }

    /// The shard that hosts audit events not tied to any record (policy
    /// changes), chosen by patient so one patient's policy history stays on
    /// one stripe.
    fn shard_for_patient(&self, patient: &Identity) -> &RwLock<Shard> {
        let mut hash = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        for &byte in patient.as_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        &self.shards[(hash >> 32) as usize % self.shards.len()]
    }

    /// Advances the store-global logical clock.  Called while holding the
    /// destination shard's write lock, so events within a shard are appended
    /// in timestamp order and timestamps are unique across the store.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Inserts an encrypted record and returns its identifier.  On a durable
    /// store the record is logged to the owning shard's WAL before it becomes
    /// visible in memory — and the shard then retains *the same encoded
    /// buffer* the WAL appended: one encode total, no decoded copy kept
    /// (the freshly built struct primes the read cache instead).
    pub fn put(
        &self,
        patient: &Identity,
        category: &Category,
        title: &str,
        ciphertext: HybridCiphertext,
    ) -> RecordId {
        let id = RecordId(self.next_id.fetch_add(1, Ordering::Relaxed) + 1);
        let record = Box::new(StoredRecord {
            id,
            patient: patient.clone(),
            category: category.clone(),
            title: title.to_string(),
            ciphertext,
        });
        let mut shard = self.shard_for_id(id).write();
        let at = self.tick();
        self.commit(&mut shard, WalOp::Put { at, record });
        id
    }

    /// Fetches one record by identifier.  Takes only the owning shard's read
    /// lock, so lookups on different shards run fully in parallel.
    ///
    /// Returns a shared handle, not a copy: a hit in the per-shard LRU of
    /// hot decoded records costs one `Arc` clone.  On a miss the resident
    /// bytes are decoded (faulting in and CRC-checking mapped snapshot
    /// pages on first touch) and the result is cached.
    pub fn get(&self, id: RecordId) -> Result<Arc<StoredRecord>> {
        let shard = self.shard_for_id(id).read();
        let enc = shard.records.get(&id).ok_or(PhrError::RecordNotFound)?;
        let mut cache = shard.cache.lock();
        if let Some(hit) = cache.get(id) {
            return Ok(hit);
        }
        let record = Arc::new(enc.decode(&self.ctx)?);
        cache.insert(id, record.clone());
        Ok(record)
    }

    /// Deletes a record.  Only the owning patient may delete.  The check
    /// runs on the record's header — no decode.
    pub fn delete(&self, id: RecordId, requester: &Identity) -> Result<()> {
        let mut shard = self.shard_for_id(id).write();
        let header = &shard
            .records
            .get(&id)
            .ok_or(PhrError::RecordNotFound)?
            .header;
        if &header.patient != requester {
            return Err(PhrError::AccessDenied {
                category: header.category.label(),
                requester: requester.display(),
            });
        }
        let at = self.tick();
        self.commit(&mut shard, WalOp::Delete { at, id });
        Ok(())
    }

    /// Lists the identifiers of all records owned by a patient, in ascending
    /// id order, merged from every shard's per-patient index.
    pub fn list_for_patient(&self, patient: &Identity) -> Vec<RecordId> {
        let mut ids: Vec<RecordId> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .read()
                    .by_patient
                    .get(patient.as_bytes())
                    .map(|set| set.iter().copied().collect::<Vec<_>>())
                    .unwrap_or_default()
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Lists the identifiers of a patient's records in one category, in
    /// ascending id order.  The category filter reads record headers, so no
    /// record is decoded.
    pub fn list_for_patient_category(
        &self,
        patient: &Identity,
        category: &Category,
    ) -> Vec<RecordId> {
        let mut ids: Vec<RecordId> = self
            .shards
            .iter()
            .flat_map(|shard| {
                let shard = shard.read();
                shard
                    .by_patient
                    .get(patient.as_bytes())
                    .map(|set| {
                        set.iter()
                            .filter(|id| {
                                shard
                                    .records
                                    .get(id)
                                    .map(|enc| &enc.header.category == category)
                                    .unwrap_or(false)
                            })
                            .copied()
                            .collect::<Vec<_>>()
                    })
                    .unwrap_or_default()
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Total number of stored records.
    pub fn record_count(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.read().records.len())
            .sum()
    }

    /// Number of records owned by one patient.
    pub fn count_for_patient(&self, patient: &Identity) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .read()
                    .by_patient
                    .get(patient.as_bytes())
                    .map(|s| s.len())
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Records a disclosure event in the store's audit trail (called by
    /// proxies).  The event lands on the record's shard.
    pub fn log_disclosure(&self, id: RecordId, requester: &Identity, granted: bool) {
        let mut shard = self.shard_for_id(id).write();
        let at = self.tick();
        let requester = requester.clone();
        let event = if granted {
            AuditEvent::DisclosurePerformed { id, requester, at }
        } else {
            AuditEvent::DisclosureDenied { id, requester, at }
        };
        self.commit(&mut shard, WalOp::Audit { event });
    }

    /// Records a grant / revoke event in the store's audit trail.  The event
    /// lands on the patient's policy shard.
    pub fn log_policy_change(
        &self,
        patient: &Identity,
        category: &Category,
        grantee: &Identity,
        granted: bool,
    ) {
        let mut shard = self.shard_for_patient(patient).write();
        let event = AuditEvent::policy_change(patient, category, grantee, granted, self.tick());
        self.commit(&mut shard, WalOp::Audit { event });
    }

    /// A snapshot of the audit trail: every shard's segment, merged into one
    /// sequence ordered by the store-global logical clock.  Events are
    /// shared handles — no event is copied.
    pub fn audit_snapshot(&self) -> Vec<Arc<AuditEvent>> {
        let mut events: Vec<Arc<AuditEvent>> = self
            .shards
            .iter()
            .flat_map(|shard| shard.read().audit.clone())
            .collect();
        events.sort_by_key(|event| event.at());
        events
    }

    // --- Replication -----------------------------------------------------
    //
    // The primary side reads committed WAL bytes per shard
    // ([`Self::replication_chunk`]) and ships whole snapshot files
    // ([`Self::replication_snapshot`]) when a replica's offset was
    // garbage-collected; the replica side applies shipped frames through
    // the same code path crash recovery replays them
    // ([`Self::apply_replication_frame`]).  Per-patient policy events land
    // on one shard (`shard_for_patient`), so in-order per-shard apply
    // preserves every grant/revoke ordering — replication cannot resurrect
    // a revoked key.

    /// The subscription point for log shipping: bumped after every durable
    /// commit and every replicated apply.  A shipping loop that has caught
    /// up waits on it instead of polling.
    pub fn commit_notifier(&self) -> Arc<CommitNotifier> {
        Arc::clone(&self.notifier)
    }

    /// Per-shard committed logical WAL positions, read under each shard's
    /// read lock — the safe upper bounds for [`Self::replication_chunk`]
    /// reads (a group commit is one `write(2)` under the shard write lock,
    /// so committed positions never expose a torn frame).  In-memory shards
    /// report 0.
    pub fn replication_positions(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .read()
                    .log
                    .as_ref()
                    .map_or(0, |log| log.wal.logical_len())
            })
            .collect()
    }

    /// Reads up to `max` committed WAL bytes of one shard starting at
    /// logical offset `from` — raw log bytes, cut at segment ends, with no
    /// frame alignment promised (receivers reassemble frames with
    /// [`tibpre_storage::frame::scan`]).  `Gone` means the prefix behind
    /// `from` was garbage-collected and the replica must bootstrap from
    /// [`Self::replication_snapshot`].
    pub fn replication_chunk(
        &self,
        shard_index: usize,
        from: u64,
        max: usize,
    ) -> Result<ChunkOutcome> {
        let d = self.durability.as_ref().ok_or(PhrError::CorruptedRecord(
            "replication source must be a durable store",
        ))?;
        let shard = self
            .shards
            .get(shard_index)
            .ok_or(PhrError::CorruptedRecord("shard index out of range"))?;
        let committed = shard
            .read()
            .log
            .as_ref()
            .map_or(0, |log| log.wal.logical_len());
        let log = ReplicationLog::new(&d.dir, &durable::shard_base(shard_index));
        Ok(log.read_chunk(from, committed, max)?)
    }

    /// The newest intact snapshot generation of one shard as raw file
    /// bytes, with its generation number and WAL offset — what a primary
    /// ships to bootstrap a replica whose requested offset lies behind the
    /// garbage-collected log floor.  `None` when the shard has never
    /// snapshotted (replicas then stream the log from offset 0).
    pub fn replication_snapshot(&self, shard_index: usize) -> Result<Option<(u64, u64, Vec<u8>)>> {
        let d = self.durability.as_ref().ok_or(PhrError::CorruptedRecord(
            "replication source must be a durable store",
        ))?;
        let shard = self
            .shards
            .get(shard_index)
            .ok_or(PhrError::CorruptedRecord("shard index out of range"))?;
        let base = durable::shard_base(shard_index);
        // Snapshot files are immutable once renamed into place; the shard
        // read lock only excludes pruning (which runs under the write
        // lock) between listing a generation and reading its bytes.
        let _guard = shard.read();
        for gen in snapshot::list_generations(&d.dir, &base)? {
            let Ok(offset) = snapshot::peek_wal_offset(&d.dir, &base, gen) else {
                continue; // torn or corrupt: fall back a generation
            };
            let Ok(bytes) = std::fs::read(snapshot::snapshot_path(&d.dir, &base, gen)) else {
                continue;
            };
            return Ok(Some((gen, offset, bytes)));
        }
        Ok(None)
    }

    /// Applies one replicated WAL frame payload to a shard — the same
    /// replay step crash recovery runs, incremental instead of batch.
    /// Frames must arrive in per-shard log order; that ordering is exactly
    /// what makes the revocation invariant hold, since one patient's grants
    /// and revocations all live on one shard.  Only v1 frames are accepted:
    /// a primary re-persists legacy bytes at open, so anything else from a
    /// peer is refused with [`PhrError::CorruptedRecord`].
    pub fn apply_replication_frame(&self, shard_index: usize, payload: &[u8]) -> Result<()> {
        if payload.first() != Some(&WireVersion::DEFAULT.tag()) {
            return Err(PhrError::CorruptedRecord("replicated WAL frame is not v1"));
        }
        let op = WalOp::from_wire_bytes(payload, &self.ctx)?;
        let shard = self
            .shards
            .get(shard_index)
            .ok_or(PhrError::CorruptedRecord("shard index out of range"))?;
        let (id, at) = shard.write().apply(op, payload.to_vec(), false);
        self.next_id.fetch_max(id, Ordering::Relaxed);
        self.clock.fetch_max(at, Ordering::Relaxed);
        self.notifier.notify();
        Ok(())
    }

    /// Replaces one shard's state with a shipped snapshot generation (the
    /// raw file bytes a primary's [`Self::replication_snapshot`] produced)
    /// and returns the snapshot's WAL offset — where the replica resumes
    /// applying chunks.  Works on in-memory replicas: the bytes are
    /// materialized under the snapshot's canonical name in a scratch
    /// directory so the memory-mapped `TBS2` loader reads them unchanged;
    /// the mapping outlives the unlinked scratch file.  Anything but a valid
    /// `TBS2` generation is refused with [`PhrError::CorruptedRecord`].
    pub fn install_replica_snapshot(
        &self,
        shard_index: usize,
        gen: u64,
        bytes: &[u8],
    ) -> Result<u64> {
        let shard = self
            .shards
            .get(shard_index)
            .ok_or(PhrError::CorruptedRecord("shard index out of range"))?;
        let base = durable::shard_base(shard_index);
        let scratch = tibpre_storage::TempDir::new("replica-snap")?;
        std::fs::write(snapshot::snapshot_path(scratch.path(), &base, gen), bytes)?;
        let snap = snapshot::load_indexed(scratch.path(), &base, gen).map_err(|_| {
            PhrError::CorruptedRecord("shipped snapshot is not a valid TBS2 generation")
        })?;
        let offset = snap.wal_offset();
        let state = Self::state_from_indexed(&ReEncryptEngine::from_env(), snap)?;
        let mut shard = shard.write();
        shard.load(state);
        // Resume the id allocator and logical clock above everything the
        // snapshot carries, exactly as `open` does after recovery.
        let (id, at) = shard.high_water();
        self.next_id.fetch_max(id, Ordering::Relaxed);
        self.clock.fetch_max(at, Ordering::Relaxed);
        drop(shard);
        self.notifier.notify();
        Ok(offset)
    }
}

impl core::fmt::Debug for EncryptedPhrStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "EncryptedPhrStore(name={}, records={}, shards={}, durable={})",
            self.name,
            self.record_count(),
            self.shards.len(),
            self.durability.is_some()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tibpre_core::{Delegator, TypeTag};
    use tibpre_ibe::Kgc;
    use tibpre_pairing::PairingParams;

    fn sample_ciphertext(rng: &mut StdRng) -> HybridCiphertext {
        let params = PairingParams::insecure_toy();
        let kgc = Kgc::setup(params, "kgc", rng);
        let delegator = Delegator::new(
            kgc.public_params().clone(),
            kgc.extract(&Identity::new("alice")),
        );
        delegator.encrypt_bytes(b"payload", b"", &TypeTag::new("t"), rng)
    }

    #[test]
    fn put_get_list_delete() {
        let mut rng = StdRng::seed_from_u64(131);
        let store = EncryptedPhrStore::in_memory_with_params("db", toy_params());
        let alice = Identity::new("alice");
        let bob = Identity::new("bob");
        let ct = sample_ciphertext(&mut rng);

        let id1 = store.put(&alice, &Category::Emergency, "r1", ct.clone());
        let id2 = store.put(&alice, &Category::LabResults, "r2", ct.clone());
        let id3 = store.put(&bob, &Category::Emergency, "r3", ct.clone());
        assert_ne!(id1, id2);
        assert_eq!(store.record_count(), 3);
        assert_eq!(store.count_for_patient(&alice), 2);
        assert_eq!(store.count_for_patient(&bob), 1);

        assert_eq!(store.get(id1).unwrap().title, "r1");
        assert_eq!(store.list_for_patient(&alice), vec![id1, id2]);
        assert_eq!(
            store.list_for_patient_category(&alice, &Category::Emergency),
            vec![id1]
        );
        assert!(store
            .list_for_patient_category(&bob, &Category::LabResults)
            .is_empty());

        // Only the owner can delete.
        assert!(matches!(
            store.delete(id1, &bob),
            Err(PhrError::AccessDenied { .. })
        ));
        store.delete(id1, &alice).unwrap();
        assert!(matches!(store.get(id1), Err(PhrError::RecordNotFound)));
        assert_eq!(store.count_for_patient(&alice), 1);
        assert!(matches!(
            store.delete(id1, &alice),
            Err(PhrError::RecordNotFound)
        ));
        let _ = id3;
    }

    #[test]
    fn audit_trail_records_everything() {
        let mut rng = StdRng::seed_from_u64(132);
        let store = EncryptedPhrStore::in_memory_with_params("db", toy_params());
        let alice = Identity::new("alice");
        let doctor = Identity::new("doctor");
        let ct = sample_ciphertext(&mut rng);
        let id = store.put(&alice, &Category::Emergency, "r", ct);
        store.log_policy_change(&alice, &Category::Emergency, &doctor, true);
        store.log_disclosure(id, &doctor, true);
        store.log_disclosure(id, &Identity::new("employer"), false);
        store.log_policy_change(&alice, &Category::Emergency, &doctor, false);
        store.delete(id, &alice).unwrap();

        let audit = store.audit_snapshot();
        assert_eq!(audit.len(), 6);
        assert!(matches!(*audit[0], AuditEvent::RecordStored { .. }));
        assert!(matches!(*audit[1], AuditEvent::AccessGranted { .. }));
        assert!(matches!(*audit[2], AuditEvent::DisclosurePerformed { .. }));
        assert!(matches!(*audit[3], AuditEvent::DisclosureDenied { .. }));
        assert!(matches!(*audit[4], AuditEvent::AccessRevoked { .. }));
        assert!(matches!(*audit[5], AuditEvent::RecordDeleted { .. }));
        // Timestamps are strictly increasing.
        for pair in audit.windows(2) {
            assert!(pair[0].at() < pair[1].at());
        }
    }

    #[test]
    fn single_shard_store_still_works() {
        let mut rng = StdRng::seed_from_u64(134);
        let store = EncryptedPhrStore::with_shards_and_params("db", 1, toy_params());
        assert_eq!(store.shard_count(), 1);
        let alice = Identity::new("alice");
        let ct = sample_ciphertext(&mut rng);
        let ids: Vec<_> = (0..5)
            .map(|i| store.put(&alice, &Category::Medication, &format!("r{i}"), ct.clone()))
            .collect();
        assert_eq!(store.list_for_patient(&alice), ids);
        store.delete(ids[2], &alice).unwrap();
        assert_eq!(store.count_for_patient(&alice), 4);
        assert_eq!(store.audit_snapshot().len(), 6);
    }

    #[test]
    fn records_spread_across_shards() {
        let mut rng = StdRng::seed_from_u64(135);
        let store = EncryptedPhrStore::in_memory_with_params("db", toy_params());
        let alice = Identity::new("alice");
        let ct = sample_ciphertext(&mut rng);
        let ids: Vec<_> = (0..64)
            .map(|i| store.put(&alice, &Category::LabResults, &format!("r{i}"), ct.clone()))
            .collect();
        // The Fibonacci hash must not funnel a sequential id burst onto one
        // stripe: with 64 records over 16 shards, several shards must be hit.
        let hit: std::collections::BTreeSet<usize> = ids
            .iter()
            .map(|id| {
                (id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % store.shard_count()
            })
            .collect();
        assert!(hit.len() >= store.shard_count() / 2, "hit {hit:?}");
        // And every record is still found.
        assert_eq!(store.list_for_patient(&alice), ids);
        for id in ids {
            assert!(store.get(id).is_ok());
        }
    }

    #[test]
    fn encoded_stores_serve_hot_gets_from_the_lru() {
        let mut rng = StdRng::seed_from_u64(150);
        let store = EncryptedPhrStore::in_memory_with_params("ram-enc", toy_params());
        let alice = Identity::new("alice");
        let ct = sample_ciphertext(&mut rng);
        let id = store.put(&alice, &Category::Emergency, "r", ct);
        // Wire-resident: the record is held encoded...
        assert!(store.encoded_payload_bytes() > 0);
        // ...and repeated reads share one decoded instance through the LRU.
        let a = store.get(id).unwrap();
        let b = store.get(id).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second read must hit the cache");
        assert_eq!(a.title, "r");
    }

    #[test]
    fn encoded_in_memory_store_matches_the_pinned_oracle() {
        // The oracle pins the decoded structs the store was handed.
        let mut rng = StdRng::seed_from_u64(151);
        let encoded = EncryptedPhrStore::with_shards_and_params("enc", 4, toy_params());
        let mut oracle = BTreeMap::new();
        let alice = Identity::new("alice");
        let bob = Identity::new("bob");
        let ct = sample_ciphertext(&mut rng);
        for i in 0..10 {
            let patient = if i % 2 == 0 { &alice } else { &bob };
            let (category, title) = (Category::LabResults, format!("r{i}"));
            let id = encoded.put(patient, &category, &title, ct.clone());
            let patient = patient.clone();
            let ciphertext = ct.clone();
            oracle.insert(
                id,
                StoredRecord {
                    id,
                    patient,
                    category,
                    title,
                    ciphertext,
                },
            );
        }
        encoded.delete(RecordId(3), &alice).unwrap();
        oracle.remove(&RecordId(3));
        // Drop the caches `put` primed, so every read decodes resident bytes.
        for shard in encoded.shards.iter() {
            *shard.write().cache.get_mut() = DecodedCache::default();
        }
        assert_eq!(encoded.record_count(), oracle.len());
        for patient in [&alice, &bob] {
            let ids: Vec<RecordId> = oracle
                .values()
                .filter(|r| &r.patient == patient)
                .map(|r| r.id)
                .collect();
            assert_eq!(encoded.list_for_patient(patient), ids);
        }
        for (id, want) in &oracle {
            assert_eq!(*encoded.get(*id).unwrap(), *want);
        }
    }

    fn toy_params() -> std::sync::Arc<PairingParams> {
        PairingParams::insecure_toy()
    }

    /// Compares every observable of two stores: records (byte-identical via
    /// `PartialEq` on the ciphertexts), per-patient indexes and the merged
    /// audit trail.
    fn assert_stores_equal(a: &EncryptedPhrStore, b: &EncryptedPhrStore, patients: &[Identity]) {
        assert_eq!(a.record_count(), b.record_count());
        assert_eq!(a.audit_snapshot(), b.audit_snapshot());
        for patient in patients {
            assert_eq!(a.list_for_patient(patient), b.list_for_patient(patient));
            for id in a.list_for_patient(patient) {
                assert_eq!(a.get(id).unwrap(), b.get(id).unwrap());
            }
        }
    }

    #[test]
    fn durable_store_round_trips_across_reopen() {
        let mut rng = StdRng::seed_from_u64(140);
        let params = toy_params();
        let tmp = tibpre_storage::TempDir::new("store-reopen").unwrap();
        let dir = tmp.path().join("phr-db");
        let alice = Identity::new("alice");
        let bob = Identity::new("bob");
        let doctor = Identity::new("doctor");
        let ct = sample_ciphertext(&mut rng);

        let durability = || {
            Durability::new(params.clone())
                .shards(4)
                .fsync(FsyncPolicy::Never)
        };
        let (id1, id3) = {
            let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
            assert!(store.is_durable());
            assert_eq!(store.name(), "phr-db");
            assert_eq!(store.shard_count(), 4);
            let id1 = store.put(&alice, &Category::Emergency, "r1", ct.clone());
            let id2 = store.put(&alice, &Category::LabResults, "r2", ct.clone());
            let id3 = store.put(&bob, &Category::Medication, "r3", ct.clone());
            store.log_policy_change(&alice, &Category::Emergency, &doctor, true);
            store.log_disclosure(id1, &doctor, true);
            store.delete(id2, &alice).unwrap();
            (id1, id3)
        };

        let reopened = EncryptedPhrStore::open(&dir, durability()).unwrap();
        // The persisted shard count wins over the configured one.
        assert_eq!(reopened.shard_count(), 4);
        assert_eq!(reopened.record_count(), 2);
        assert_eq!(reopened.get(id1).unwrap().title, "r1");
        assert_eq!(reopened.get(id3).unwrap().patient, bob);
        assert_eq!(reopened.list_for_patient(&alice), vec![id1]);
        let audit = reopened.audit_snapshot();
        assert_eq!(audit.len(), 6);
        for pair in audit.windows(2) {
            assert!(pair[0].at() < pair[1].at());
        }
        // Fresh ids and timestamps continue above everything ever logged —
        // including the deleted record's id.
        let id4 = reopened.put(&alice, &Category::Emergency, "r4", ct.clone());
        assert!(id4.0 > id3.0);
        let audit = reopened.audit_snapshot();
        assert_eq!(audit.len(), 7);
        assert!(audit[6].at() > audit[5].at());

        // The recovered store equals an in-memory oracle fed the same ops.
        let oracle = EncryptedPhrStore::with_shards_and_params("oracle", 4, toy_params());
        let o1 = oracle.put(&alice, &Category::Emergency, "r1", ct.clone());
        let o2 = oracle.put(&alice, &Category::LabResults, "r2", ct.clone());
        oracle.put(&bob, &Category::Medication, "r3", ct.clone());
        oracle.log_policy_change(&alice, &Category::Emergency, &doctor, true);
        oracle.log_disclosure(o1, &doctor, true);
        oracle.delete(o2, &alice).unwrap();
        oracle.put(&alice, &Category::Emergency, "r4", ct);
        assert_stores_equal(&reopened, &oracle, &[alice, bob]);
    }

    #[test]
    fn torn_wal_tail_is_truncated_on_open() {
        let mut rng = StdRng::seed_from_u64(141);
        let params = toy_params();
        let tmp = tibpre_storage::TempDir::new("store-torn").unwrap();
        let dir = tmp.path().join("db");
        let alice = Identity::new("alice");
        let ct = sample_ciphertext(&mut rng);
        let durability = || {
            Durability::new(params.clone())
                .shards(1)
                .fsync(FsyncPolicy::Never)
        };
        {
            let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
            store.put(&alice, &Category::Emergency, "r1", ct.clone());
            store.put(&alice, &Category::Emergency, "r2", ct.clone());
        }
        // Tear the last frame mid-payload.
        let wal = crate::durable::shard_wal_path(&dir, 0);
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();

        let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
        assert_eq!(store.record_count(), 1);
        assert_eq!(store.audit_snapshot().len(), 1);
        // The torn tail is physically gone and the log accepts new writes.
        assert!(std::fs::metadata(&wal).unwrap().len() < bytes.len() as u64);
        let id = store.put(&alice, &Category::Emergency, "r2-again", ct);
        drop(store);
        let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
        assert_eq!(store.record_count(), 2);
        assert_eq!(store.get(id).unwrap().title, "r2-again");
    }

    #[test]
    fn snapshots_bound_recovery_to_the_wal_tail() {
        let mut rng = StdRng::seed_from_u64(142);
        let params = toy_params();
        let tmp = tibpre_storage::TempDir::new("store-snap").unwrap();
        let dir = tmp.path().join("db");
        let alice = Identity::new("alice");
        let ct = sample_ciphertext(&mut rng);
        let durability = || {
            Durability::new(params.clone())
                .shards(1)
                .fsync(FsyncPolicy::Never)
                .snapshot_every(4)
        };
        {
            let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
            for i in 0..10 {
                store.put(&alice, &Category::LabResults, &format!("r{i}"), ct.clone());
            }
        }
        // Snapshots were written (10 ops, cadence 4 → generations 1 and 2),
        // in the indexed layout.
        let gens = tibpre_storage::snapshot::list_generations(&dir, "shard-00").unwrap();
        assert_eq!(gens, vec![2, 1]);
        let newest = tibpre_storage::snapshot::load_indexed(&dir, "shard-00", 2).unwrap();
        assert_eq!(newest.blob_count(), 8, "snapshot 2 captured puts 1..=8");

        let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
        assert_eq!(store.record_count(), 10);
        assert_eq!(store.audit_snapshot().len(), 10);
        assert_eq!(store.list_for_patient(&alice).len(), 10);
        // Every record decodes — snapshot-mapped blobs and WAL-tail frames
        // alike.
        for (i, id) in store.list_for_patient(&alice).into_iter().enumerate() {
            assert_eq!(store.get(id).unwrap().title, format!("r{i}"));
        }
        // force_snapshot writes a fresh generation and prunes to two.
        store.force_snapshot().unwrap();
        let gens = tibpre_storage::snapshot::list_generations(&dir, "shard-00").unwrap();
        assert_eq!(gens, vec![3, 2]);
        store.sync().unwrap();
    }

    #[test]
    fn mapped_snapshot_corruption_is_contained() {
        let mut rng = StdRng::seed_from_u64(152);
        let params = toy_params();
        let tmp = tibpre_storage::TempDir::new("store-mmap-corrupt").unwrap();
        let dir = tmp.path().join("db");
        let alice = Identity::new("alice");
        let ct = sample_ciphertext(&mut rng);
        let durability = || {
            Durability::new(params.clone())
                .shards(1)
                .fsync(FsyncPolicy::Never)
                .snapshot_every(4)
        };
        {
            let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
            for i in 0..10 {
                store.put(&alice, &Category::LabResults, &format!("r{i}"), ct.clone());
            }
        }
        let newest = tibpre_storage::snapshot::snapshot_path(&dir, "shard-00", 2);
        let pristine = std::fs::read(&newest).unwrap();

        // Truncation (torn write of the newest generation): the open falls
        // back to the previous generation plus a longer WAL replay, and
        // recovers everything.
        std::fs::write(&newest, &pristine[..pristine.len() / 2]).unwrap();
        {
            let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
            assert_eq!(store.record_count(), 10);
            for id in store.list_for_patient(&alice) {
                assert!(store.get(id).is_ok());
            }
        }

        // A bit flip inside the *data region* of the mapped snapshot: the
        // open still succeeds (it validates only the trailer — that is what
        // makes reopening O(index)), every intact record is served, and the
        // damaged record surfaces as an error on read — never as corrupt
        // plaintext bytes.
        let mut flipped = pristine.clone();
        flipped[10] ^= 0x40; // inside blob 0 (the data region starts at 4)
        std::fs::write(&newest, &flipped).unwrap();
        {
            let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
            assert_eq!(store.record_count(), 10);
            let mut failures = 0;
            let mut served = 0;
            for id in store.list_for_patient(&alice) {
                match store.get(id) {
                    Ok(_) => served += 1,
                    Err(PhrError::CorruptedRecord(_)) => failures += 1,
                    Err(other) => panic!("unexpected error: {other:?}"),
                }
            }
            assert_eq!(failures, 1, "exactly the flipped blob fails");
            assert_eq!(served, 9);
        }
    }

    #[test]
    fn second_concurrent_open_of_the_same_directory_is_refused() {
        let params = toy_params();
        let tmp = tibpre_storage::TempDir::new("store-lock").unwrap();
        let dir = tmp.path().join("db");
        let durability = || {
            Durability::new(params.clone())
                .shards(1)
                .fsync(FsyncPolicy::Never)
        };
        let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
        // A second open would truncate WAL tails the first holder is still
        // appending to — it must fail while the first store lives...
        assert!(matches!(
            EncryptedPhrStore::open(&dir, durability()),
            Err(PhrError::Storage(_))
        ));
        // ...and succeed once it is gone (the OS releases the lock).
        drop(store);
        EncryptedPhrStore::open(&dir, durability()).unwrap();
    }

    #[test]
    fn crc_valid_but_undecodable_frame_fails_open_instead_of_truncating() {
        let mut rng = StdRng::seed_from_u64(143);
        let params = toy_params();
        let tmp = tibpre_storage::TempDir::new("store-undecodable").unwrap();
        let dir = tmp.path().join("db");
        let alice = Identity::new("alice");
        let ct = sample_ciphertext(&mut rng);
        let durability = || {
            Durability::new(params.clone())
                .shards(1)
                .fsync(FsyncPolicy::Never)
        };
        {
            let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
            store.put(&alice, &Category::Emergency, "r1", ct);
        }
        // Append a frame that passes its checksum but carries an unknown op
        // tag — e.g. written by a future format version.
        let wal_path = crate::durable::shard_wal_path(&dir, 0);
        let before = std::fs::metadata(&wal_path).unwrap().len();
        let mut wal =
            tibpre_storage::WalWriter::open(&wal_path, before, tibpre_storage::FsyncPolicy::Never)
                .unwrap();
        wal.append(&[0xEE, 1, 2, 3]);
        wal.sync().unwrap();
        drop(wal);
        let after = std::fs::metadata(&wal_path).unwrap().len();

        // The open refuses: this is an operator error, not corruption, and
        // truncating would destroy intact data.
        assert!(matches!(
            EncryptedPhrStore::open(&dir, durability()),
            Err(PhrError::CorruptedRecord(_))
        ));
        // Nothing was truncated by the failed open.
        assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), after);
        let _ = before;
    }

    #[test]
    fn legacy_monolithic_snapshots_recover_and_repersist_indexed() {
        // Fabricate a store whose only snapshot is a legacy TBS1 monolith —
        // what a pre-indexed version would have left behind — and check the
        // wire-resident store recovers it and converges to TBS2.
        let mut rng = StdRng::seed_from_u64(153);
        let params = toy_params();
        let tmp = tibpre_storage::TempDir::new("store-tbs1").unwrap();
        let dir = tmp.path().join("db");
        let alice = Identity::new("alice");
        let ct = sample_ciphertext(&mut rng);
        let durability = || {
            Durability::new(params.clone())
                .shards(1)
                .fsync(FsyncPolicy::Never)
                .snapshot_every(4)
        };
        {
            let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
            for i in 0..6 {
                store.put(&alice, &Category::Medication, &format!("r{i}"), ct.clone());
            }
        }
        // Rewrite the newest generation in the legacy monolithic layout,
        // from the same records and audit trail the store would persist.
        let reopened = EncryptedPhrStore::open(&dir, durability()).unwrap();
        let records: Vec<StoredRecord> = reopened
            .list_for_patient(&alice)
            .into_iter()
            .map(|id| reopened.get(id).unwrap().as_ref().clone())
            .collect();
        let audit: Vec<AuditEvent> = reopened
            .audit_snapshot()
            .iter()
            .map(|e| e.as_ref().clone())
            .collect();
        drop(reopened);
        let newest = tibpre_storage::snapshot::load_indexed(&dir, "shard-00", 1).unwrap();
        let wal_offset = newest.wal_offset();
        drop(newest);
        let mut body = wal_offset.to_be_bytes().to_vec();
        body.extend(durable::tests::encode_shard_state(
            records.iter().take(4),
            &audit[..4],
        ));
        let mut tbs1 = b"TBS1".to_vec();
        tbs1.extend(frame::encode_frame(&body));
        std::fs::write(snapshot::snapshot_path(&dir, "shard-00", 1), tbs1).unwrap();

        let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
        assert_eq!(store.record_count(), 6);
        for (i, id) in store.list_for_patient(&alice).into_iter().enumerate() {
            assert_eq!(store.get(id).unwrap().title, format!("r{i}"));
        }
        // The next snapshot repersists everything in the indexed layout.
        store.force_snapshot().unwrap();
        let gens = tibpre_storage::snapshot::list_generations(&dir, "shard-00").unwrap();
        let repersisted =
            tibpre_storage::snapshot::load_indexed(&dir, "shard-00", gens[0]).unwrap();
        assert_eq!(repersisted.blob_count(), 6);
    }

    /// Streams every shard of a durable primary into an in-memory replica
    /// through the public replication API: snapshot bootstrap when the log
    /// floor was GC'd, then chunked frame application.
    fn replicate_all(primary: &EncryptedPhrStore, replica: &EncryptedPhrStore) {
        let positions = primary.replication_positions();
        for (shard, &want) in positions.iter().enumerate() {
            let mut from = 0u64;
            let mut buffer: Vec<u8> = Vec::new();
            loop {
                match primary
                    .replication_chunk(shard, from + buffer.len() as u64, 64)
                    .unwrap()
                {
                    ChunkOutcome::Bytes(chunk) => {
                        buffer.extend(chunk);
                        let scan = frame::scan(&buffer, 0);
                        for payload in &scan.frames {
                            replica.apply_replication_frame(shard, payload).unwrap();
                        }
                        from += scan.valid_len;
                        buffer.drain(..scan.valid_len as usize);
                    }
                    ChunkOutcome::Gone => {
                        assert!(buffer.is_empty(), "GC below an already-read offset");
                        let (gen, offset, bytes) = primary
                            .replication_snapshot(shard)
                            .unwrap()
                            .expect("a GC'd log floor implies a kept snapshot");
                        let resumed = replica
                            .install_replica_snapshot(shard, gen, &bytes)
                            .unwrap();
                        assert_eq!(resumed, offset);
                        from = resumed;
                    }
                    ChunkOutcome::CaughtUp => break,
                    ChunkOutcome::Ahead => panic!("replica ahead of primary"),
                }
            }
            assert_eq!(from, want, "shard {shard} fully applied");
        }
    }

    #[test]
    fn replication_chunks_rebuild_an_identical_replica() {
        let mut rng = StdRng::seed_from_u64(160);
        let params = toy_params();
        let tmp = tibpre_storage::TempDir::new("store-repl").unwrap();
        let dir = tmp.path().join("db");
        let alice = Identity::new("alice");
        let bob = Identity::new("bob");
        let doctor = Identity::new("doctor");
        let ct = sample_ciphertext(&mut rng);
        let primary = EncryptedPhrStore::open(
            &dir,
            Durability::new(params.clone())
                .shards(4)
                .fsync(FsyncPolicy::Never),
        )
        .unwrap();
        let mut kept = Vec::new();
        for i in 0..12 {
            let patient = if i % 2 == 0 { &alice } else { &bob };
            kept.push(primary.put(patient, &Category::LabResults, &format!("r{i}"), ct.clone()));
        }
        primary.log_policy_change(&alice, &Category::LabResults, &doctor, true);
        primary.log_disclosure(kept[0], &doctor, true);
        primary.log_policy_change(&alice, &Category::LabResults, &doctor, false);
        primary.delete(kept[3], &bob).unwrap();

        let replica = EncryptedPhrStore::with_shards_and_params("replica", 4, params.clone());
        replicate_all(&primary, &replica);
        assert_stores_equal(&replica, &primary, &[alice.clone(), bob.clone()]);
        // The revocation landed behind the grant on the replica too — the
        // merged audit trail preserves log order per patient.
        let audit = replica.audit_snapshot();
        let granted = audit
            .iter()
            .position(|e| matches!(e.as_ref(), AuditEvent::AccessGranted { .. }))
            .unwrap();
        let revoked = audit
            .iter()
            .position(|e| matches!(e.as_ref(), AuditEvent::AccessRevoked { .. }))
            .unwrap();
        assert!(granted < revoked);
    }

    #[test]
    fn replication_bootstraps_from_a_snapshot_when_the_log_floor_moved() {
        let mut rng = StdRng::seed_from_u64(161);
        let params = toy_params();
        let tmp = tibpre_storage::TempDir::new("store-repl-snap").unwrap();
        let dir = tmp.path().join("db");
        let alice = Identity::new("alice");
        let ct = sample_ciphertext(&mut rng);
        // One shard with an aggressive snapshot cadence: after enough puts
        // the oldest segments are GC'd and offset 0 is Gone.
        let primary = EncryptedPhrStore::open(
            &dir,
            Durability::new(params.clone())
                .shards(1)
                .fsync(FsyncPolicy::Never)
                .snapshot_every(4),
        )
        .unwrap();
        for i in 0..20 {
            primary.put(&alice, &Category::Medication, &format!("r{i}"), ct.clone());
        }
        assert_eq!(
            primary.replication_chunk(0, 0, 1 << 20).unwrap(),
            ChunkOutcome::Gone,
            "the log prefix must have been garbage-collected"
        );
        let replica = EncryptedPhrStore::with_shards_and_params("replica", 1, params.clone());
        replicate_all(&primary, &replica);
        assert_stores_equal(&replica, &primary, &[alice]);
    }

    #[test]
    fn replica_path_accepts_only_v1_frames_and_tbs2_snapshots() {
        // Legacy bytes are read only at open, never from a peer: a v0 store's
        // TBS1 snapshot and its bare pre-envelope WAL frames are refused.
        let fixture =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/v0-store/store");
        let replica = EncryptedPhrStore::with_shards_and_params("replica", 2, toy_params());
        let tbs1 = std::fs::read(fixture.join("shard-00.0000000000000001.snap")).unwrap();
        assert_eq!(&tbs1[..4], b"TBS1");
        assert!(matches!(
            replica.install_replica_snapshot(0, 1, &tbs1),
            Err(PhrError::CorruptedRecord(_))
        ));
        let wal = std::fs::read(fixture.join("shard-00.wal")).unwrap();
        let frames = frame::scan(&wal, 0).frames;
        assert!(!frames.is_empty());
        for payload in &frames {
            assert!(!WireVersion::is_envelope_tag(payload[0]), "a bare v0 frame");
            assert!(matches!(
                replica.apply_replication_frame(0, payload),
                Err(PhrError::CorruptedRecord(_))
            ));
        }
        assert_eq!(replica.record_count(), 0);
        assert!(replica.audit_snapshot().is_empty());
    }

    #[test]
    fn in_memory_alias_and_accessors() {
        let store = EncryptedPhrStore::in_memory_with_params("ram", toy_params());
        assert!(!store.is_durable());
        // Durable no-ops on the in-memory store.
        store.sync().unwrap();
        store.force_snapshot().unwrap();
    }

    #[test]
    fn concurrent_access_is_safe() {
        let mut rng = StdRng::seed_from_u64(133);
        let store =
            std::sync::Arc::new(EncryptedPhrStore::in_memory_with_params("db", toy_params()));
        let ct = sample_ciphertext(&mut rng);
        let mut handles = Vec::new();
        for thread_id in 0..4u64 {
            let store = store.clone();
            let ct = ct.clone();
            handles.push(std::thread::spawn(move || {
                let patient = Identity::new(format!("patient-{thread_id}"));
                for i in 0..25 {
                    store.put(
                        &patient,
                        &Category::LabResults,
                        &format!("r{i}"),
                        ct.clone(),
                    );
                }
                store.count_for_patient(&patient)
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 25);
        }
        assert_eq!(store.record_count(), 100);
    }
}
