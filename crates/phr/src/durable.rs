//! The durable backend of the PHR store: operation framing, shard snapshots,
//! and the [`Durability`] configuration.
//!
//! The paper's storage server keeps encrypted records and audit trails
//! *long-term*; this module makes a restart a supported scenario.  Every
//! mutation of a durable [`EncryptedPhrStore`](crate::store::EncryptedPhrStore)
//! is first appended to the owning shard's write-ahead log as one
//! self-contained frame (see [`tibpre_storage::frame`] for the envelope),
//! then applied in memory by the same step crash recovery and replicas run
//! — both under the shard's existing write lock, so durability adds no new
//! synchronization.  Periodically a shard serializes its full state into a
//! generational snapshot so recovery replays `snapshot + WAL tail` instead
//! of the whole history.
//!
//! The frame kinds, [`WalOp`] for a store and [`ProxyWalOp`] for a proxy,
//! are each declared once with [`tibpre_wire::message!`]: tags, fields and
//! field order live in the declaration, and both codec directions derive
//! from it.  Each frame replays to exactly the state transition the original
//! call made, so a store recovered from a prefix of the log equals the store
//! that would have existed had the process stopped cleanly after that
//! prefix — the invariant `tests/tests/recovery_props.rs` checks at every
//! byte boundary; `tests/tests/disk_frames.rs` pins the bytes.
//!
//! Every frame payload is a v1 envelope (see `tibpre-wire`): the live paths
//! — replay after a snapshot, replica apply — accept nothing else.  Frames
//! written in older formats are read once, at open, by `crate::legacy`,
//! which rewrites them as v1.  Record ciphertexts go through the
//! workspace's single `WireEncode`/`WireDecode` codec; no second
//! serialization of any cryptographic object is introduced here.

use crate::audit::AuditEvent;
use crate::category::Category;
use crate::record::RecordId;
use crate::resident::RecordHeader;
use crate::store::StoredRecord;
use crate::{PhrError, Result};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use tibpre_core::ReEncryptionKey;
use tibpre_ibe::Identity;
use tibpre_pairing::{DecodeCtx, PairingParams};
use tibpre_storage::{segment, FsyncPolicy, SegmentedWal};
use tibpre_wire::{
    Codec, DecodeError, Field, Inline, Nested, Reader, WireDecode, WireEncode, WireVersion, Writer,
};

/// Default number of logged operations between two snapshots of one shard.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 256;

/// Snapshot generations kept per shard: the newest plus one fallback, so a
/// corrupt newest snapshot degrades to a longer log replay, never to data
/// loss.
pub const SNAPSHOT_GENERATIONS_KEPT: usize = 2;

/// Configuration of the durable backend, passed to
/// [`EncryptedPhrStore::open`](crate::store::EncryptedPhrStore::open).
///
/// The pairing parameters are needed to deserialize the stored ciphertexts
/// during recovery; everything else tunes the durability/throughput
/// trade-off.
#[derive(Debug, Clone)]
pub struct Durability {
    params: Arc<PairingParams>,
    shards: usize,
    fsync: FsyncPolicy,
    snapshot_every: u64,
}

impl Durability {
    /// A durable configuration with the store's default shard count, the
    /// fsync policy from the `TIBPRE_FSYNC` environment variable (default:
    /// fsync on every commit) and the default snapshot cadence.
    pub fn new(params: Arc<PairingParams>) -> Self {
        Durability {
            params,
            shards: crate::store::DEFAULT_SHARDS,
            fsync: FsyncPolicy::from_env(),
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
        }
    }

    /// Sets the shard count used when *creating* a store (an existing store
    /// keeps the count persisted in its meta file).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Overrides the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Sets the per-shard operation count between snapshots (`0` disables
    /// periodic snapshots; recovery then always replays the full log).
    pub fn snapshot_every(mut self, ops: u64) -> Self {
        self.snapshot_every = ops;
        self
    }

    /// The pairing parameters used to decode stored ciphertexts.
    pub fn params(&self) -> &Arc<PairingParams> {
        &self.params
    }

    /// The configured shard count for fresh stores.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The configured fsync policy.
    pub(crate) fn fsync_policy(&self) -> FsyncPolicy {
        self.fsync
    }

    /// The configured snapshot cadence.
    pub(crate) fn snapshot_cadence(&self) -> u64 {
        self.snapshot_every
    }
}

tibpre_wire::message! {
    /// One logged store mutation — the unit of atomicity of the WAL.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum WalOp: "WAL op", DecodeCtx {
        /// A record was stored (carries the `RecordStored` audit timestamp).
        1 => Put {
            /// The logical timestamp of the accompanying audit event.
            at: u64,
            /// The record exactly as it entered the store (boxed: a full record
            /// dwarfs the other variants), written in place: a v1 frame's
            /// bytes from [`PUT_BODY_START`] on are the bare record.
            record: Box<StoredRecord> as Inline,
        },
        /// A record was deleted (carries the `RecordDeleted` audit timestamp).
        2 => Delete {
            /// The logical timestamp of the accompanying audit event.
            at: u64,
            /// The deleted record's id.
            id: RecordId,
        },
        /// A bare audit append (disclosures, policy changes).
        3 => Audit {
            /// The appended event.
            event: AuditEvent,
        },
    }
}

impl WireEncode for StoredRecord {
    /// The `RecordHeader` prefix `id ‖ patient ‖ category`, then the title
    /// and the ciphertext nested bare (inheriting the container's version).
    ///
    /// The index fields come *first*, before the title and the (dominant)
    /// ciphertext, so a header parse of the prefix rebuilds indexes without
    /// decoding records.  This codec is hand-written only to count: it is
    /// the choke point of [`crate::metrics`].
    fn encode(&self, w: &mut Writer) {
        crate::metrics::note_record_encode();
        RecordHeader::put_fields(w, &self.id, &self.patient, &self.category);
        w.put_bytes(self.title.as_bytes());
        Nested::put(&self.ciphertext, w);
    }
}

impl WireDecode for StoredRecord {
    type Ctx = DecodeCtx;

    fn decode(r: &mut Reader<'_>, ctx: &DecodeCtx) -> core::result::Result<Self, DecodeError> {
        crate::metrics::note_record_decode();
        let RecordHeader {
            id,
            patient,
            category,
        } = RecordHeader::decode(r, &())?;
        Ok(StoredRecord {
            id,
            patient,
            category,
            title: r.string()?,
            ciphertext: Nested::read(r, ctx)?,
        })
    }
}

impl WalOp {
    /// `WalOp::Put { .. }.to_wire_bytes()` for a borrowed record (cloned;
    /// the store's own writes encode the op they apply).
    pub fn encode_put(record: &StoredRecord, at: u64) -> Vec<u8> {
        let record = Box::new(record.clone());
        WalOp::Put { record, at }.to_wire_bytes()
    }
}

/// The record-body offset inside a v1 `Put` frame payload, which prefixes
/// the record with `version ‖ op ‖ at`.  Keeping it here, next to the
/// encoder it mirrors, is what lets the store retain a validated frame's
/// own buffer as a record's resident bytes — the WAL appends and the shard
/// keeps *the same allocation*.
pub(crate) const PUT_BODY_START: usize = 10;

/// Serializes a shard's audit trail into the `meta` region of an indexed
/// (`TBS2`) snapshot: one envelope byte, then the counted, length-prefixed
/// events.  Records do *not* appear here — they live in the snapshot's
/// blob region, indexed by each record's `RecordHeader` as index metadata.
pub(crate) fn encode_audit_meta(audit: &[Arc<AuditEvent>]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(WireVersion::DEFAULT.tag());
    w.put_u64(audit.len() as u64);
    audit
        .iter()
        .for_each(|event| Nested::put(event.as_ref(), &mut w));
    w.into_bytes()
}

/// Parses the audit trail written by [`encode_audit_meta`].
pub(crate) fn decode_audit_meta(meta: &[u8]) -> Result<Vec<AuditEvent>> {
    if meta.first() != Some(&WireVersion::DEFAULT.tag()) {
        return Err(PhrError::CorruptedRecord(
            "snapshot audit metadata lacks the v1 envelope",
        ));
    }
    let mut r = Reader::new(&meta[1..]);
    let event_count = r.u64()? as usize;
    let mut audit = Vec::with_capacity(event_count.min(1024));
    for _ in 0..event_count {
        audit.push(AuditEvent::read(&mut r, &())?);
    }
    r.finish()?;
    Ok(audit)
}

tibpre_wire::message! {
    /// One logged proxy mutation: audit appends plus the re-encryption-key
    /// install/revoke history, so a restarted proxy still holds exactly the
    /// grants the patients installed (the paper's proxy is the long-lived party
    /// *entrusted* with those keys — losing them on restart would force every
    /// patient to re-delegate).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ProxyWalOp: "proxy WAL op", DecodeCtx {
        /// An entry of the proxy's own audit log.
        1 => Audit {
            /// The appended event.
            event: AuditEvent,
        },
        /// A re-encryption key was installed.
        2 => InstallKey {
            /// The installed key (serialized with [`ReEncryptionKey`]'s wire
            /// format; boxed because a key dwarfs the other variants).
            key: Box<ReEncryptionKey>,
        },
        /// A re-encryption key was revoked.
        3 => RevokeKey {
            /// The delegating patient.
            patient: Identity,
            /// The revoked category.
            category: Category,
            /// The grantee whose key is removed.
            grantee: Identity,
        },
    }
}

/// The WAL path of the proxy named `name` under `dir`.  The name is escaped
/// to a filesystem-safe alphabet *injectively* (every unsafe byte, and the
/// escape character itself, becomes `_XX` hex), so two distinct proxy names
/// can never collide on one log file and silently share keys.
pub fn proxy_wal_path(dir: &Path, name: &str) -> std::path::PathBuf {
    let mut safe = String::with_capacity(name.len());
    for &byte in name.as_bytes() {
        match byte {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' => safe.push(byte as char),
            other => safe.push_str(&format!("_{other:02x}")),
        }
    }
    dir.join(format!("proxy-{safe}.wal"))
}

/// The per-shard durable state, owned by the shard and mutated only under
/// its write lock.
#[derive(Debug)]
pub(crate) struct ShardLog {
    pub wal: SegmentedWal,
    /// Snapshot series base name (`shard-NN`).
    pub base: String,
    /// Latest snapshot generation written or recovered.
    pub gen: u64,
    /// Operations logged since the last snapshot.
    pub ops_since_snapshot: u64,
    /// WAL offsets of the snapshot generations currently on disk, as far
    /// as this process knows them (gen → offset).  Segment GC only runs
    /// when *every* listed generation's offset is known, and never deletes
    /// bytes at or above the oldest kept offset — so recovery from any
    /// kept snapshot always finds its starting offset on disk.
    pub snap_offsets: BTreeMap<u64, u64>,
}

/// The store-wide durable context.
#[derive(Debug)]
pub(crate) struct StoreDurability {
    pub dir: std::path::PathBuf,
    pub fsync: FsyncPolicy,
    pub snapshot_every: u64,
    /// Advisory lock excluding concurrent opens of the same directory; held
    /// for the store's lifetime, released by the OS on exit or crash.
    #[allow(dead_code)] // held for its Drop side effect
    pub lock: tibpre_storage::DirLock,
}

/// The path of shard `index`'s *first* WAL segment under `dir` (the
/// legacy single-file name; rotated segments live beside it, named by
/// their starting logical offset — see [`tibpre_storage::segment`]).
pub fn shard_wal_path(dir: &Path, index: usize) -> std::path::PathBuf {
    segment::first_segment_path(dir, &shard_base(index))
}

/// The snapshot series base name of shard `index`.
pub(crate) fn shard_base(index: usize) -> String {
    format!("shard-{index:02}")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tibpre_core::{Delegator, TypeTag};
    use tibpre_ibe::Kgc;

    /// Serializes one shard's full state (records in id order, then the
    /// audit segment) into a monolithic (`TBS1`) snapshot payload: one
    /// envelope byte, then the counted, length-prefixed records and events.
    /// Only `crate::legacy` reads this layout; tests fabricate it here.
    pub(crate) fn encode_shard_state<'a>(
        records: impl ExactSizeIterator<Item = &'a StoredRecord>,
        audit: &[AuditEvent],
    ) -> Vec<u8> {
        let version = WireVersion::DEFAULT;
        let mut w = Writer::with_version(version);
        w.put_u8(version.tag());
        w.put_u64(records.len() as u64);
        for record in records {
            w.put_nested(|w| record.encode(w));
        }
        w.put_u64(audit.len() as u64);
        for event in audit {
            w.put_nested(|w| event.encode(w));
        }
        w.into_bytes()
    }

    /// Parses a `TBS1` payload back into decoded `(records, audit)` — the
    /// decoded-struct oracle `crate::legacy::shard_state` is checked
    /// against.  Accepts the envelope and the bare legacy layout (which
    /// opens with the high byte of a `u64` record count).
    fn decode_shard_state(
        params: &Arc<PairingParams>,
        payload: &[u8],
    ) -> Result<(Vec<StoredRecord>, Vec<AuditEvent>)> {
        let ctx = DecodeCtx::from(params);
        let mut r = match payload.first().and_then(|&b| WireVersion::from_tag(b)) {
            Some(version) => Reader::with_version(&payload[1..], version),
            None => Reader::with_version(payload, WireVersion::V0),
        };
        let mut records = Vec::new();
        for _ in 0..r.u64()? {
            let mut field = Reader::with_version(r.bytes()?, r.version());
            records.push(StoredRecord::decode(&mut field, &ctx)?);
            field.finish()?;
        }
        let mut audit = Vec::new();
        for _ in 0..r.u64()? {
            audit.push(AuditEvent::read(&mut r, &())?);
        }
        r.finish()?;
        Ok((records, audit))
    }

    fn sample_record(seed: u64, id: u64) -> (Arc<PairingParams>, StoredRecord) {
        let params = PairingParams::insecure_toy();
        let mut rng = StdRng::seed_from_u64(seed);
        let kgc = Kgc::setup(params.clone(), "kgc", &mut rng);
        let delegator = Delegator::new(
            kgc.public_params().clone(),
            kgc.extract(&Identity::new("alice")),
        );
        let ciphertext = delegator.encrypt_bytes(b"payload", b"", &TypeTag::new("t"), &mut rng);
        (
            params,
            StoredRecord {
                id: RecordId(id),
                patient: Identity::new("alice"),
                category: Category::Custom("genomics".into()),
                title: "exome".into(),
                ciphertext,
            },
        )
    }

    #[test]
    fn wal_ops_round_trip() {
        let (params, record) = sample_record(7, 3);
        let ops = vec![
            WalOp::Put {
                record: Box::new(record.clone()),
                at: 11,
            },
            WalOp::Delete {
                id: RecordId(3),
                at: 12,
            },
            WalOp::Audit {
                event: AuditEvent::DisclosureDenied {
                    id: RecordId(3),
                    requester: Identity::new("eve"),
                    at: 13,
                },
            },
        ];
        let ctx = DecodeCtx::from(&params);
        for op in ops {
            let bytes = op.to_wire_bytes();
            assert_eq!(WalOp::from_wire_bytes(&bytes, &ctx).unwrap(), op);
            // Every strict prefix fails cleanly.
            for cut in 0..bytes.len() {
                assert!(
                    WalOp::from_wire_bytes(&bytes[..cut], &ctx).is_err(),
                    "cut {cut}"
                );
            }
            // Trailing garbage fails cleanly.
            let mut longer = bytes.clone();
            longer.push(0);
            assert!(WalOp::from_wire_bytes(&longer, &ctx).is_err());
        }
        assert!(WalOp::from_wire_bytes(&[99], &ctx).is_err());
    }

    #[test]
    fn shard_state_round_trips() {
        let (params, record) = sample_record(8, 1);
        let (_, record2) = sample_record(8, 2);
        let audit = vec![
            AuditEvent::RecordStored {
                id: RecordId(1),
                patient: Identity::new("alice"),
                category: record.category.clone(),
                at: 1,
            },
            AuditEvent::AccessGranted {
                patient: Identity::new("alice"),
                category: Category::Emergency,
                grantee: Identity::new("doctor"),
                at: 2,
            },
        ];
        let records = vec![record, record2];
        let payload = encode_shard_state(records.iter(), &audit);
        let (decoded_records, decoded_audit) = decode_shard_state(&params, &payload).unwrap();
        assert_eq!(decoded_records, records);
        assert_eq!(decoded_audit, audit);
        // Truncations are rejected, never panic.
        for cut in [0, 1, 7, payload.len() / 2, payload.len() - 1] {
            assert!(
                decode_shard_state(&params, &payload[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn borrowed_encoders_match_the_owned_ops() {
        let params = PairingParams::insecure_toy();
        let mut rng = StdRng::seed_from_u64(21);
        let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
        let delegator = Delegator::new(
            kgc1.public_params().clone(),
            kgc1.extract(&Identity::new("alice")),
        );
        let (_, record) = sample_record(21, 4);
        assert_eq!(
            WalOp::encode_put(&record, 9),
            WalOp::Put {
                record: Box::new(record),
                at: 9
            }
            .to_wire_bytes()
        );
        let key = delegator
            .make_reencryption_key(
                &Identity::new("bob"),
                kgc2.public_params(),
                &TypeTag::new("t"),
                &mut rng,
            )
            .unwrap();
        // The layout the deleted borrowed twin wrote: `v1 ‖ 2 ‖ nested key`.
        let mut install = Writer::new();
        install.put_u8(WireVersion::DEFAULT.tag());
        install.put_u8(2);
        install.put_nested(|w| key.encode(w));
        assert_eq!(
            install.into_bytes(),
            ProxyWalOp::InstallKey { key: Box::new(key) }.to_wire_bytes()
        );
    }

    #[test]
    fn put_body_layout_recovers_the_bare_record_encoding() {
        let (params, record) = sample_record(31, 6);
        let framed = WalOp::encode_put(&record, 17);
        assert_eq!(framed[0], WireVersion::DEFAULT.tag());
        assert_eq!(
            &framed[PUT_BODY_START..],
            &tibpre_wire::encode_bare(&record, WireVersion::DEFAULT)[..],
            "the frame suffix IS the bare record encoding"
        );
        // A bare legacy frame (op ‖ at ‖ record, all at v0) is read once,
        // at open, into the v1 frame whose suffix is the v1 record.
        let mut legacy = Writer::with_version(WireVersion::V0);
        legacy.put_u8(1); // Put
        legacy.put_u64(17);
        record.encode(&mut legacy);
        let mut migrated = false;
        let ctx = DecodeCtx::from(&params);
        let (op, v1) =
            crate::legacy::read_frame::<WalOp>(legacy.into_bytes(), &ctx, &mut migrated).unwrap();
        assert!(migrated);
        assert_eq!(v1, framed);
        assert_eq!(
            op,
            WalOp::Put {
                record: Box::new(record),
                at: 17
            }
        );
    }

    #[test]
    fn audit_encoders_and_meta_round_trip() {
        let event = AuditEvent::DisclosurePerformed {
            id: RecordId(5),
            requester: Identity::new("doctor"),
            at: 44,
        };
        // The layout the deleted borrowed twin wrote: `v1 ‖ 3 ‖ nested event`.
        let mut frame = Writer::new();
        frame.put_u8(WireVersion::DEFAULT.tag());
        frame.put_u8(3);
        frame.put_nested(|w| event.encode(w));
        assert_eq!(
            frame.into_bytes(),
            WalOp::Audit {
                event: event.clone()
            }
            .to_wire_bytes()
        );

        let audit = vec![
            Arc::new(event),
            Arc::new(AuditEvent::RecordDeleted {
                id: RecordId(5),
                at: 45,
            }),
        ];
        let meta = encode_audit_meta(&audit);
        let decoded = decode_audit_meta(&meta).unwrap();
        assert_eq!(decoded.len(), 2);
        for (arc, plain) in audit.iter().zip(&decoded) {
            assert_eq!(arc.as_ref(), plain);
        }
        assert!(decode_audit_meta(&[]).is_err());
        assert!(decode_audit_meta(&[0x00]).is_err(), "no envelope");
        for cut in 1..meta.len() {
            assert!(decode_audit_meta(&meta[..cut]).is_err(), "cut {cut}");
        }
        assert_eq!(decode_audit_meta(&encode_audit_meta(&[])).unwrap(), vec![]);
    }

    #[test]
    fn resident_shard_state_matches_the_decoded_oracle() {
        let (params, record) = sample_record(8, 1);
        let (_, record2) = sample_record(8, 2);
        let audit = vec![AuditEvent::RecordStored {
            id: RecordId(1),
            patient: Identity::new("alice"),
            category: record.category.clone(),
            at: 1,
        }];
        let records = [record, record2];
        let payload = encode_shard_state(records.iter(), &audit);
        let (oracle_records, oracle_audit) = decode_shard_state(&params, &payload).unwrap();
        let ctx = DecodeCtx::from(&params);
        let (resident, resident_audit) = crate::legacy::shard_state(&ctx, &payload).unwrap();
        assert!(resident_audit.iter().map(|e| e.as_ref()).eq(&oracle_audit));
        assert_eq!(resident.len(), oracle_records.len());
        for (enc, oracle) in resident.values().zip(&oracle_records) {
            assert_eq!(enc.header.id, oracle.id);
            assert_eq!(enc.header.patient, oracle.patient);
            assert_eq!(enc.header.category, oracle.category);
            assert_eq!(&enc.decode(&ctx).unwrap(), oracle);
        }
        for cut in [0, 1, 7, payload.len() / 2, payload.len() - 1] {
            assert!(
                crate::legacy::shard_state(&ctx, &payload[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn proxy_wal_paths_never_collide_for_distinct_names() {
        let dir = Path::new("/store");
        // The historic failure shape: '.' and '-' both mapping to '-'.
        assert_ne!(
            proxy_wal_path(dir, "dr.alice"),
            proxy_wal_path(dir, "dr-alice")
        );
        // The escape character itself is escaped, so 'a_b' cannot forge the
        // escape sequence of 'a.b' etc.
        let names = ["a_b", "a.b", "a_2eb", "a/b", "a b", "ab", "a-b"];
        let paths: std::collections::HashSet<_> =
            names.iter().map(|n| proxy_wal_path(dir, n)).collect();
        assert_eq!(paths.len(), names.len());
        // Safe names stay readable.
        assert_eq!(
            proxy_wal_path(dir, "hospital-proxy"),
            dir.join("proxy-hospital-proxy.wal")
        );
    }

    #[test]
    fn durability_builder() {
        let params = PairingParams::insecure_toy();
        let d = Durability::new(params)
            .shards(0)
            .fsync(FsyncPolicy::Never)
            .snapshot_every(9);
        assert_eq!(d.shard_count(), 1);
        assert_eq!(d.fsync_policy(), FsyncPolicy::Never);
        assert_eq!(d.snapshot_cadence(), 9);
    }
}
