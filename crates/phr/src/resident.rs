//! The wire-resident record representation: shards keep records as encoded
//! bytes and decode lazily.
//!
//! The paper's storage server relays ciphertexts it can never read, so the
//! natural resident form of a record is its *wire encoding* — validated once
//! at the API boundary and then treated as opaque bytes.  This module holds
//! the machinery the store builds on:
//!
//! * [`RecordHeader`] — the cheap, non-secret prefix of a record's encoding
//!   (id, patient, category), parsed without touching the title or the
//!   ciphertext.  `StoredRecord`'s wire layout deliberately puts these
//!   fields first (see `durable.rs`) so indexes rebuild from a few dozen
//!   bytes per record.
//! * [`EncodedRecord`] — what a shard slot holds: the record's v1 encoding
//!   plus its parsed header.  The bytes are either owned (`Arc<[u8]>`,
//!   shared with the WAL frame that persisted them — zero re-encode on
//!   `put`) or a blob of a loaded indexed snapshot (CRC-checked on its
//!   first read).  Every resident body is v1:
//!   legacy bytes are converted once, at open, by `crate::legacy`.
//! * [`DecodedCache`] — a small per-shard LRU of hot decoded records
//!   ([`DEFAULT_CACHE_PER_SHARD`] of them), so repeated reads of the same
//!   record cost one pointer clone instead of a ciphertext decode.

use crate::category::Category;
use crate::record::RecordId;
use crate::store::StoredRecord;
use crate::{PhrError, Result};
use std::collections::HashMap;
use std::sync::Arc;
use tibpre_ibe::Identity;
use tibpre_pairing::DecodeCtx;
use tibpre_storage::{IndexedSnapshot, StorageError};
use tibpre_wire::{DecodeError, Reader, WireDecode, WireVersion};

/// Decoded-record LRU capacity per shard.
pub(crate) const DEFAULT_CACHE_PER_SHARD: usize = 64;

tibpre_wire::message! {
    /// The index-bearing prefix of a record's wire encoding: everything the
    /// store's `by_patient` / category filters and audit bookkeeping need,
    /// without the title or the ciphertext.  `StoredRecord`'s codec writes
    /// and reads its prefix through this declaration, and the header's v1
    /// envelope is a snapshot blob's trailer-resident index metadata — what
    /// lets a loaded snapshot rebuild every index at open time without
    /// reading one blob.
    #[derive(Debug, Clone)]
    pub(crate) struct RecordHeader: () {
        /// Identifier assigned by the store.
        pub id: RecordId,
        /// The owning patient.
        pub patient: Identity,
        /// The record category.
        pub category: Category,
    }
}

/// Parses a snapshot blob's index metadata (see [`RecordHeader`]); any
/// envelope but v1's is refused.
pub(crate) fn decode_index_meta(meta: &[u8]) -> Result<RecordHeader> {
    match meta.first() {
        Some(&tag) if tag != WireVersion::DEFAULT.tag() => Err(PhrError::Decode(
            DecodeError::invalid_tag(0, "index-meta version", tag),
        )),
        _ => Ok(RecordHeader::from_wire_bytes(meta, &())?),
    }
}

/// Where an encoded record's bytes live.
#[derive(Debug)]
enum BlobBytes {
    /// Heap bytes, shared by `Arc` — on the put path this is *the same
    /// allocation* the WAL appended, so persisting and retaining a record
    /// costs one encode total.
    Owned(Arc<[u8]>),
    /// Blob `index` of a loaded indexed snapshot, CRC-verified by the
    /// snapshot when the record is first read.
    Mapped {
        snap: Arc<IndexedSnapshot>,
        index: usize,
    },
}

/// One record held as validated v1 wire bytes plus its parsed
/// [`RecordHeader`].
#[derive(Debug)]
pub(crate) struct EncodedRecord {
    bytes: BlobBytes,
    /// Offset of the bare record encoding inside `bytes` (a WAL `Put` frame
    /// carries an envelope/op/timestamp prefix; snapshot blobs start at 0).
    body_start: usize,
    /// The parsed index fields.
    pub header: RecordHeader,
}

impl EncodedRecord {
    /// Wraps owned bytes whose v1 record body starts at `body_start`.
    pub(crate) fn from_owned(bytes: Arc<[u8]>, body_start: usize, header: RecordHeader) -> Self {
        // The handed header must be the one the body's prefix encodes —
        // everything that never decodes the body (indexes, ownership
        // checks, snapshot index metadata) trusts this.
        debug_assert!(
            RecordHeader::decode(&mut Reader::new(&bytes[body_start..]), &())
                .is_ok_and(|p| p.id == header.id && p.patient == header.patient),
            "encoded body disagrees with its header"
        );
        EncodedRecord {
            bytes: BlobBytes::Owned(bytes),
            body_start,
            header,
        }
    }

    /// Wraps blob `index` of a loaded snapshot (blobs are bare record
    /// bodies, so the body starts at 0).
    pub(crate) fn from_snapshot(
        snap: Arc<IndexedSnapshot>,
        index: usize,
        header: RecordHeader,
    ) -> Self {
        EncodedRecord {
            bytes: BlobBytes::Mapped { snap, index },
            body_start: 0,
            header,
        }
    }

    /// The bare encoded record body.  For snapshot bytes this verifies the
    /// blob CRC on first read — a bit-flip in a snapshot's data region
    /// surfaces here, as an error, never as corrupt bytes.
    pub fn body(&self) -> core::result::Result<&[u8], StorageError> {
        match &self.bytes {
            BlobBytes::Owned(bytes) => Ok(&bytes[self.body_start..]),
            BlobBytes::Mapped { snap, index } => Ok(&snap.blob(*index)?[self.body_start..]),
        }
    }

    /// The body's length in bytes, without reading it.
    ///
    /// Saturating: a blob shorter than `body_start` (or an index a snapshot
    /// no longer covers) reports `0` rather than underflowing — the read
    /// path ([`body`](Self::body)) is where such damage surfaces as an
    /// error.
    pub(crate) fn encoded_len(&self) -> usize {
        match &self.bytes {
            BlobBytes::Owned(bytes) => bytes.len().saturating_sub(self.body_start),
            BlobBytes::Mapped { snap, index } => snap
                .blob_len(*index)
                .unwrap_or(0)
                .saturating_sub(self.body_start),
        }
    }

    /// Decodes the full record (the lazy half of `get`).
    pub fn decode(&self, ctx: &DecodeCtx) -> Result<StoredRecord> {
        let mut r = Reader::new(self.body()?);
        let record = StoredRecord::decode(&mut r, ctx)?;
        r.finish()?;
        Ok(record)
    }
}

/// A small LRU of hot decoded records, one per shard, sitting behind the
/// shard's read lock (in a `Mutex`, since `get` must update recency).
///
/// Capacity is per shard and small by design — the cache exists to make
/// *repeated* reads of a hot record cost an `Arc` clone, not to hold the
/// working set; [`DEFAULT_CACHE_PER_SHARD`] × shards records is the store's
/// decoded-memory ceiling.  Eviction scans for the least-recent entry,
/// O(capacity), which at 64 is noise next to one ciphertext decode.
#[derive(Debug, Default)]
pub(crate) struct DecodedCache {
    tick: u64,
    map: HashMap<RecordId, (u64, Arc<StoredRecord>)>,
}

impl DecodedCache {
    /// The cached record, freshened to most-recently-used.
    pub fn get(&mut self, id: RecordId) -> Option<Arc<StoredRecord>> {
        let (at, record) = self.map.get_mut(&id)?;
        self.tick += 1;
        *at = self.tick;
        Some(record.clone())
    }

    /// Inserts (or freshens) a record, evicting the least-recently-used
    /// entry when full.
    pub fn insert(&mut self, id: RecordId, record: Arc<StoredRecord>) {
        if self.map.len() >= DEFAULT_CACHE_PER_SHARD && !self.map.contains_key(&id) {
            if let Some(&victim) = self
                .map
                .iter()
                .min_by_key(|(_, (at, _))| *at)
                .map(|(id, _)| id)
            {
                self.map.remove(&victim);
            }
        }
        self.tick += 1;
        self.map.insert(id, (self.tick, record));
    }

    /// Drops a record (called on delete, so a re-used id can never serve a
    /// stale cached body).
    pub fn remove(&mut self, id: RecordId) {
        self.map.remove(&id);
    }

    /// Number of resident decoded records.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.map.len()
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
    use tibpre_wire::WireEncode;

    fn sample_record(id: u64) -> (Arc<PairingParams>, StoredRecord) {
        let params = PairingParams::insecure_toy();
        let mut rng = StdRng::seed_from_u64(id ^ 0xA5A5);
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
    fn header_peek_matches_the_full_decode_and_skips_the_tail() {
        let (params, record) = sample_record(7);
        let body = tibpre_wire::encode_bare(&record, WireVersion::DEFAULT);
        let header = RecordHeader::decode(&mut Reader::new(&body), &()).unwrap();
        assert_eq!(header.id, record.id);
        assert_eq!(header.patient, record.patient);
        assert_eq!(header.category, record.category);

        // The peek parses only the prefix: chopping the body right after
        // the category still yields the same header.
        let mut r = Reader::new(&body);
        RecordHeader::decode(&mut r, &()).unwrap();
        let header_len = r.offset();
        assert!(header_len < body.len() / 4, "header dwarfed by the body");
        let header2 = RecordHeader::decode(&mut Reader::new(&body[..header_len]), &()).unwrap();
        assert_eq!(header2.id, record.id);

        // Round trip through the snapshot index-meta form, which is the
        // body's own header prefix behind the v1 tag.
        let meta = header.to_wire_bytes();
        assert_eq!(&meta[1..], &body[..header_len]);
        let parsed = decode_index_meta(&meta).unwrap();
        assert_eq!(parsed.id, header.id);
        assert_eq!(parsed.patient, header.patient);
        assert_eq!(parsed.category, header.category);
        for cut in 0..meta.len() {
            assert!(decode_index_meta(&meta[..cut]).is_err(), "cut {cut}");
        }
        assert!(decode_index_meta(&[0x42]).is_err(), "not a version tag");
        let mut v0_tagged = meta.clone();
        v0_tagged[0] = WireVersion::V0.tag();
        assert!(
            decode_index_meta(&v0_tagged).is_err(),
            "only v1 is resident"
        );
        let _ = params;
    }

    #[test]
    fn encoded_record_decodes_and_upgrades_versions() {
        let (params, record) = sample_record(9);
        let ctx = DecodeCtx::from(&params);
        let v0 = tibpre_wire::encode_bare(&record, WireVersion::V0);
        let v1 = tibpre_wire::encode_bare(&record, WireVersion::V1);
        // A v0 body is read once, by the legacy converter, into v1
        // resident bytes — which v1 compression makes smaller.
        let enc = crate::legacy::upgrade_record(&v0, WireVersion::V0, &ctx).unwrap();
        assert_eq!(enc.body().unwrap(), &v1[..]);
        assert!(enc.encoded_len() < v0.len());
        assert_eq!(enc.decode(&ctx).unwrap(), record);
        assert_eq!(enc.header.id, record.id);
        assert_eq!(enc.header.patient, record.patient);
        // Converting an already-current body reproduces it byte for byte.
        let again = crate::legacy::upgrade_record(&v1, WireVersion::V1, &ctx).unwrap();
        assert_eq!(again.body().unwrap(), &v1[..]);
    }

    #[test]
    fn encoded_len_saturates_instead_of_underflowing() {
        let (_, record) = sample_record(11);
        let body = tibpre_wire::encode_bare(&record, WireVersion::DEFAULT);
        let header = RecordHeader::decode(&mut Reader::new(&body), &()).unwrap();

        // An owned body behind a nonzero prefix reports the body length.
        let mut framed = vec![0u8; 3];
        framed.extend_from_slice(&body);
        let enc = EncodedRecord::from_owned(framed.into(), 3, header.clone());
        assert_eq!(enc.encoded_len(), body.len());

        // The mapped arms are built directly because the public constructor
        // pins `body_start = 0` — this pins the saturating behaviour for a
        // future caller that does not.
        let tmp = tibpre_storage::TempDir::new("resident-len").unwrap();
        tibpre_storage::snapshot::write_indexed_snapshot(
            tmp.path(),
            "s",
            1,
            0,
            b"",
            [Ok(tibpre_storage::snapshot::IndexedBlob {
                body: body.as_slice(),
                index_meta: Vec::new(),
            })],
            true,
        )
        .unwrap();
        let snap = Arc::new(tibpre_storage::snapshot::load_indexed(tmp.path(), "s", 1).unwrap());

        // In-range body_start subtracts normally.
        let mapped = EncodedRecord {
            bytes: BlobBytes::Mapped {
                snap: snap.clone(),
                index: 0,
            },
            body_start: 2,
            header: header.clone(),
        };
        assert_eq!(mapped.encoded_len(), body.len() - 2);

        // body_start beyond the blob saturates to 0 (this used to
        // underflow: debug panic, release wrap to ~usize::MAX).
        let beyond = EncodedRecord {
            bytes: BlobBytes::Mapped {
                snap: snap.clone(),
                index: 0,
            },
            body_start: body.len() + 10,
            header: header.clone(),
        };
        assert_eq!(beyond.encoded_len(), 0);

        // An out-of-range blob index reports 0 even with a nonzero
        // body_start (this used to underflow too); the read path still
        // surfaces the damage as an error.
        let stale = EncodedRecord {
            bytes: BlobBytes::Mapped { snap, index: 7 },
            body_start: 4,
            header,
        };
        assert_eq!(stale.encoded_len(), 0);
        assert!(stale.body().is_err());
    }

    #[test]
    fn lru_cache_evicts_the_least_recent() {
        let mut cache = DecodedCache::default();
        let (_, record) = sample_record(1);
        let record = Arc::new(record);
        for id in 1..=DEFAULT_CACHE_PER_SHARD as u64 {
            cache.insert(RecordId(id), record.clone());
        }
        // Touch 1, making 2 the eviction victim.
        assert!(Arc::ptr_eq(&cache.get(RecordId(1)).unwrap(), &record));
        cache.insert(RecordId(1000), record.clone());
        assert_eq!(cache.len(), DEFAULT_CACHE_PER_SHARD);
        assert!(cache.get(RecordId(2)).is_none());
        assert!(cache.get(RecordId(1)).is_some());
        assert!(cache.get(RecordId(1000)).is_some());
        // Re-inserting a resident id freshens without evicting.
        cache.insert(RecordId(1), record.clone());
        assert_eq!(cache.len(), DEFAULT_CACHE_PER_SHARD);
        cache.remove(RecordId(1));
        assert!(cache.get(RecordId(1)).is_none());
        assert_eq!(cache.len(), DEFAULT_CACHE_PER_SHARD - 1);
    }
}
