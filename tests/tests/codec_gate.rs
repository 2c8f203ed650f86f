//! The wire-residency **codec gate** — CI-enforced counters for the claims
//! the wire-resident store makes:
//!
//! * `put` on a durable store performs exactly **one** record encode (shared
//!   by the WAL frame and the shard's resident bytes) and **zero** decodes;
//! * snapshotting copies resident bytes — zero codec round trips;
//! * reopening from an indexed snapshot decodes **zero** records (O(index));
//!   reads decode lazily, once, and then hit the per-shard cache;
//! * resident bytes per record stay within 1.05× of the record's v1 encoded
//!   size (they are in fact identical — the shard shares the WAL frame's
//!   buffer or the snapshot blob).
//!
//! The counters are [`OpCounts`]' `record_encode` / `record_decode` cells,
//! which count on the calling thread; a reopen charges its recovery
//! workers' counts to the thread that opens the store.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tibpre_core::{Delegator, TypeTag};
use tibpre_ibe::{Identity, Kgc};
use tibpre_pairing::{OpCounts, PairingParams};
use tibpre_phr::category::Category;
use tibpre_phr::durable::Durability;
use tibpre_phr::store::EncryptedPhrStore;
use tibpre_phr::FsyncPolicy;
use tibpre_storage::TempDir;
use tibpre_wire::WireVersion;

const RECORDS: u64 = 24;

#[test]
fn put_path_is_zero_round_trip_and_resident_bytes_stay_at_wire_size() {
    let params = PairingParams::insecure_toy();
    let mut rng = StdRng::seed_from_u64(0xE12);
    let kgc = Kgc::setup(params.clone(), "kgc", &mut rng);
    let delegator = Delegator::new(
        kgc.public_params().clone(),
        kgc.extract(&Identity::new("alice")),
    );
    let ciphertext = delegator.encrypt_bytes(b"payload", b"", &TypeTag::new("t"), &mut rng);
    let alice = Identity::new("alice");
    let tmp = TempDir::new("codec-gate").unwrap();
    let dir = tmp.path().join("db");
    let durability = || {
        Durability::new(params.clone())
            .shards(2)
            .fsync(FsyncPolicy::Never)
            .snapshot_every(0)
    };

    // --- Gate 1: the put path is one encode, zero decodes, per record. ---
    let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
    let (enc0, dec0) = (OpCounts::now().record_encode, OpCounts::now().record_decode);
    let ids: Vec<_> = (0..RECORDS)
        .map(|i| {
            store.put(
                &alice,
                &Category::LabResults,
                &format!("r{i}"),
                ciphertext.clone(),
            )
        })
        .collect();
    assert_eq!(
        OpCounts::now().record_encode - enc0,
        RECORDS,
        "put must encode exactly once per record (WAL frame == resident bytes)"
    );
    assert_eq!(
        OpCounts::now().record_decode - dec0,
        0,
        "put must never decode"
    );

    // Read-after-write hits the cache primed by put: still zero decodes.
    for &id in &ids {
        assert_eq!(store.get(id).unwrap().patient, alice);
    }
    assert_eq!(
        OpCounts::now().record_decode - dec0,
        0,
        "primed reads must not decode"
    );

    // --- Gate 2: resident bytes per record ≤ 1.05× the v1 encoded size. ---
    let resident = store.encoded_payload_bytes();
    let reference: u64 = ids
        .iter()
        .map(|&id| {
            tibpre_wire::encode_bare(store.get(id).unwrap().as_ref(), WireVersion::V1).len() as u64
        })
        .sum();
    assert!(resident > 0 && reference > 0);
    assert!(
        resident * 100 <= reference * 105,
        "resident bytes {resident} exceed 1.05x the v1 wire size {reference}"
    );

    // --- Gate 3: snapshot + reopen decode nothing; reads decode lazily. ---
    store.force_snapshot().unwrap();
    let enc_snap = OpCounts::now().record_encode;
    drop(store);
    let dec1 = OpCounts::now().record_decode;
    let reopened = EncryptedPhrStore::open(&dir, durability()).unwrap();
    assert_eq!(reopened.record_count(), RECORDS as usize);
    assert_eq!(
        OpCounts::now().record_decode - dec1,
        0,
        "reopening from an indexed snapshot must decode zero records"
    );
    assert_eq!(
        OpCounts::now().record_encode - enc_snap,
        0,
        "snapshot and reopen must not re-encode resident records"
    );

    // First (cold) read of each record decodes exactly once...
    for &id in &ids {
        assert_eq!(reopened.get(id).unwrap().title, format!("r{}", id.0 - 1));
    }
    assert_eq!(
        OpCounts::now().record_decode - dec1,
        RECORDS,
        "cold reads decode lazily, once per record"
    );
    // ...and hot re-reads are pure cache hits.
    for &id in &ids {
        reopened.get(id).unwrap();
    }
    assert_eq!(
        OpCounts::now().record_decode - dec1,
        RECORDS,
        "hot reads must hit the per-shard LRU"
    );
    // The mapped resident footprint equals the owned one (same bare bytes).
    assert_eq!(reopened.encoded_payload_bytes(), resident);
}
