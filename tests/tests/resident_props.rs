//! Property tests for the **wire-resident** store: shards hold encoded
//! record bytes (shared with the WAL frame, or mapped from an indexed
//! snapshot) and decode lazily through a per-shard LRU.  The residency is an
//! invisible representation change, and these properties pin exactly that:
//!
//! * an in-memory wire-resident store is observably identical to the
//!   decoded-struct ("pinned") oracle — the test-side `StoreModel` — under
//!   random put/get/delete interleavings — gets included, so the LRU's
//!   hit/evict/invalidate behaviour is exercised inside the equivalence,
//!   not around it;
//! * a durable store recovered across restarts and snapshot boundaries —
//!   serving a mix of mapped snapshot blobs and WAL-tail frames — still
//!   equals the oracle, before and after post-recovery writes;
//! * randomly mutating the newest snapshot (truncation or a bit flip at an
//!   arbitrary offset) never makes the store serve wrong bytes: the open
//!   either refuses, falls back to an older generation and fully recovers,
//!   or opens O(index) and surfaces the damaged record as an error on read.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tibpre_core::{Delegator, HybridCiphertext, TypeTag};
use tibpre_ibe::{Identity, Kgc};
use tibpre_pairing::PairingParams;
use tibpre_phr::category::Category;
use tibpre_phr::durable::Durability;
use tibpre_phr::record::RecordId;
use tibpre_phr::store::EncryptedPhrStore;
use tibpre_phr::{FsyncPolicy, PhrError};
use tibpre_storage::{snapshot, TempDir};
use tibpre_tests::model::{StoreModel, StoreOracle};
use tibpre_wire::WireEncode;

struct Harness {
    params: Arc<PairingParams>,
    ciphertext: HybridCiphertext,
    patients: Vec<Identity>,
    categories: Vec<Category>,
}

fn harness(seed: u64) -> Harness {
    let params = PairingParams::insecure_toy();
    let mut rng = StdRng::seed_from_u64(seed);
    let kgc = Kgc::setup(params.clone(), "kgc", &mut rng);
    let delegator = Delegator::new(
        kgc.public_params().clone(),
        kgc.extract(&Identity::new("alice")),
    );
    Harness {
        params,
        ciphertext: delegator.encrypt_bytes(b"payload", b"", &TypeTag::new("t"), &mut rng),
        patients: ["alice", "bob", "carol"]
            .iter()
            .map(Identity::new)
            .collect(),
        categories: vec![
            Category::Emergency,
            Category::LabResults,
            Category::Custom("genomics".into()),
        ],
    }
}

/// Mutable op-stream state shared by both stores (ids and timestamps are
/// assigned by deterministic counters, so identical streams stay aligned).
#[derive(Default)]
struct OpState {
    issued: Vec<(RecordId, usize)>,
    live: Vec<(RecordId, usize)>,
}

/// Applies the op encoded by `word` to *both* stores and asserts every
/// observable of the op itself matches: returned ids, success/error shape,
/// and — for gets — the full decoded record.
fn apply_both(
    resident: &EncryptedPhrStore,
    oracle: &impl StoreOracle,
    h: &Harness,
    state: &mut OpState,
    word: u32,
) {
    let [kind, a, b, c] = word.to_be_bytes();
    match kind % 6 {
        0 | 1 => {
            let patient = a as usize % h.patients.len();
            let category = &h.categories[b as usize % h.categories.len()];
            let id_r = resident.put(
                &h.patients[patient],
                category,
                &format!("t{c}"),
                h.ciphertext.clone(),
            );
            let id_o = oracle.put(
                &h.patients[patient],
                category,
                &format!("t{c}"),
                h.ciphertext.clone(),
            );
            assert_eq!(id_r, id_o, "id allocators diverged");
            state.issued.push((id_r, patient));
            state.live.push((id_r, patient));
        }
        2 => {
            if !state.live.is_empty() {
                let idx = a as usize % state.live.len();
                let (id, owner) = state.live.remove(idx);
                resident.delete(id, &h.patients[owner]).unwrap();
                oracle.delete(id, &h.patients[owner]).unwrap();
            }
        }
        3 => {
            // Read an id that was issued at some point (it may be deleted by
            // now): both stores must agree on found/not-found, and on every
            // field of a found record.
            if !state.issued.is_empty() {
                let (id, _) = state.issued[a as usize % state.issued.len()];
                match (resident.get(id), oracle.get(id)) {
                    (Ok(r), Ok(o)) => assert_eq!(*r, *o, "record {id} diverged"),
                    (Err(PhrError::RecordNotFound), Err(PhrError::RecordNotFound)) => {}
                    (r, o) => panic!("get({id}) diverged: {r:?} vs {o:?}"),
                }
            }
        }
        4 => {
            // A delete by a non-owner must be denied by both — the resident
            // store answers this from the record *header*, never decoding.
            if !state.live.is_empty() {
                let idx = a as usize % state.live.len();
                let (id, owner) = state.live[idx];
                let thief = (owner + 1 + b as usize % (h.patients.len() - 1)) % h.patients.len();
                assert!(matches!(
                    resident.delete(id, &h.patients[thief]),
                    Err(PhrError::AccessDenied { .. })
                ));
                assert!(matches!(
                    oracle.delete(id, &h.patients[thief]),
                    Err(PhrError::AccessDenied { .. })
                ));
            }
        }
        _ => {
            if !state.issued.is_empty() {
                let (id, _) = state.issued[a as usize % state.issued.len()];
                let requester = &h.patients[b as usize % h.patients.len()];
                resident.log_disclosure(id, requester, c & 1 == 0);
                oracle.log_disclosure(id, requester, c & 1 == 0);
            }
        }
    }
}

/// Full observable equality: counts, per-patient and per-category indexes,
/// byte-identical records, identical merged audit trail.
fn assert_equals_oracle(resident: &EncryptedPhrStore, oracle: &impl StoreOracle, h: &Harness) {
    assert_eq!(resident.record_count(), oracle.record_count());
    assert_eq!(resident.audit_snapshot(), oracle.audit_snapshot());
    for patient in &h.patients {
        let ids = resident.list_for_patient(patient);
        assert_eq!(ids, oracle.list_for_patient(patient));
        for category in &h.categories {
            assert_eq!(
                resident.list_for_patient_category(patient, category),
                oracle.list_for_patient_category(patient, category),
            );
        }
        for id in ids {
            let got = resident.get(id).unwrap();
            let want = oracle.get(id).unwrap();
            assert_eq!(*got, *want);
            assert_eq!(
                got.ciphertext.to_wire_bytes(),
                want.ciphertext.to_wire_bytes(),
                "record {id} ciphertext bytes diverged"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// In-memory equivalence: the wire-resident store (encoded bytes + LRU)
    /// against the pinned decoded-struct oracle, interleaving reads with
    /// writes so cache hits, misses, evictions and delete-invalidation all
    /// happen mid-stream.
    #[test]
    fn resident_in_memory_store_equals_the_pinned_oracle(
        seed in any::<u64>(),
        shards in 1usize..4,
        words in proptest::collection::vec(any::<u32>(), 8..24),
    ) {
        let h = harness(seed);
        let resident =
            EncryptedPhrStore::with_shards_and_params("resident", shards, h.params.clone());
        let oracle = StoreModel::default();
        let mut state = OpState::default();
        for &word in &words {
            apply_both(&resident, &oracle, &h, &mut state, word);
        }
        assert_equals_oracle(&resident, &oracle, &h);
    }

    /// Durable equivalence across restarts: after every reopen the store
    /// serves a mix of memory-mapped snapshot blobs and WAL-tail frames,
    /// and must stay observably identical to the oracle — including for
    /// writes issued *after* a recovery.
    #[test]
    fn recovered_resident_store_equals_the_oracle_across_snapshots(
        seed in any::<u64>(),
        cadence in 1u64..5,
        first in proptest::collection::vec(any::<u32>(), 6..14),
        second in proptest::collection::vec(any::<u32>(), 4..10),
    ) {
        let h = harness(seed);
        let tmp = TempDir::new("resident-props").unwrap();
        let dir = tmp.path().join("db");
        let durability = || {
            Durability::new(h.params.clone())
                .shards(2)
                .fsync(FsyncPolicy::Never)
                .snapshot_every(cadence)
        };
        let oracle = EncryptedPhrStore::with_shards_and_params("oracle", 2, h.params.clone());
        let mut state = OpState::default();
        {
            let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
            for &word in &first {
                apply_both(&store, &oracle, &h, &mut state, word);
            }
        }
        let reopened = EncryptedPhrStore::open(&dir, durability()).unwrap();
        assert_equals_oracle(&reopened, &oracle, &h);
        for &word in &second {
            apply_both(&reopened, &oracle, &h, &mut state, word);
        }
        assert_equals_oracle(&reopened, &oracle, &h);
        drop(reopened);
        let reopened = EncryptedPhrStore::open(&dir, durability()).unwrap();
        assert_equals_oracle(&reopened, &oracle, &h);
    }

    /// Snapshot failure injection: truncate or bit-flip the newest snapshot
    /// at a random position.  Whatever the damage hits (magic, data region,
    /// trailer, length suffix), the open must refuse or fall back — and if
    /// it opens, every read returns either exactly the oracle's record or a
    /// corruption error.  Wrong bytes are never served.
    #[test]
    fn mutated_snapshot_never_serves_wrong_bytes(
        seed in any::<u64>(),
        words in proptest::collection::vec(any::<u32>(), 8..16),
        damage_at in any::<u64>(),
        flip in any::<u8>(),
        truncate in any::<bool>(),
    ) {
        let h = harness(seed);
        let tmp = TempDir::new("resident-inject").unwrap();
        let dir = tmp.path().join("db");
        let durability = || {
            Durability::new(h.params.clone())
                .shards(1)
                .fsync(FsyncPolicy::Never)
                .snapshot_every(3)
        };
        let oracle = EncryptedPhrStore::with_shards_and_params("oracle", 1, h.params.clone());
        let mut state = OpState::default();
        {
            let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
            for &word in &words {
                apply_both(&store, &oracle, &h, &mut state, word);
            }
        }
        let gens = snapshot::list_generations(&dir, "shard-00").unwrap();
        prop_assume!(!gens.is_empty());
        let path = snapshot::snapshot_path(&dir, "shard-00", gens[0]);
        let pristine = std::fs::read(&path).unwrap();
        let at = (damage_at as usize) % pristine.len();
        if truncate {
            std::fs::write(&path, &pristine[..at]).unwrap();
        } else {
            let mut bytes = pristine.clone();
            bytes[at] ^= flip | 0x01; // never a no-op flip
            std::fs::write(&path, &bytes).unwrap();
        }

        match EncryptedPhrStore::open(&dir, durability()) {
            // Refusal is an accepted outcome (e.g. damage elsewhere is
            // indistinguishable from an operator error) — the contract is
            // only that nothing wrong is ever *served*.
            Err(PhrError::CorruptedRecord(_)) | Err(PhrError::Storage(_)) => {}
            Err(other) => panic!("unexpected open error: {other:?}"),
            Ok(store) => {
                assert_eq!(store.record_count(), oracle.record_count());
                assert_eq!(store.audit_snapshot(), oracle.audit_snapshot());
                for patient in &h.patients {
                    for id in oracle.list_for_patient(patient) {
                        match store.get(id) {
                            Ok(got) => {
                                let want = oracle.get(id).unwrap();
                                assert_eq!(*got, *want, "served wrong bytes for {id}");
                            }
                            Err(PhrError::CorruptedRecord(_)) => {}
                            Err(other) => panic!("unexpected get error: {other:?}"),
                        }
                    }
                }
            }
        }
    }
}
