//! Crash-recovery property tests for the durable PHR store — the executable
//! contract of the WAL + snapshot subsystem:
//!
//! * killing a store at **any byte offset** of its WAL and recovering yields
//!   exactly the store an in-memory oracle produces from the longest
//!   committed prefix of operations (byte-identical records, strictly
//!   ordered audit trail), with zero panics across the corpus;
//! * a corrupt-CRC frame truncates the log at the last intact boundary and
//!   never resurrects later frames;
//! * a recovered durable store and durable proxy still serve the paper's
//!   emergency-disclosure scenario, including revocations performed before
//!   the crash;
//! * recovery of a large generated WAL stays within a wall-clock bound
//!   (nightly, `TIBPRE_LARGE_WAL`).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use tibpre_core::{Delegator, HybridCiphertext, TypeTag};
use tibpre_ibe::{Identity, Kgc};
use tibpre_pairing::PairingParams;
use tibpre_phr::category::Category;
use tibpre_phr::durable::{self, Durability};
use tibpre_phr::emergency::{emergency_disclosure, provision_travel_access};
use tibpre_phr::patient::Patient;
use tibpre_phr::provider::HealthcareProvider;
use tibpre_phr::proxy_service::ProxyService;
use tibpre_phr::record::{HealthRecord, RecordId};
use tibpre_phr::store::EncryptedPhrStore;
use tibpre_phr::{FsyncPolicy, PhrError};
use tibpre_storage::TempDir;
use tibpre_wire::WireEncode;

/// Shared fixture: toy parameters, one reusable ciphertext, small identity
/// and category pools.
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

/// Mutable op-stream state: all ids ever issued (disclosure targets) and the
/// currently live ids with their owners (delete targets).
#[derive(Default)]
struct OpState {
    issued: Vec<(RecordId, usize)>,
    live: Vec<(RecordId, usize)>,
}

/// Applies the op encoded by `word` to `store`.  The mapping depends only on
/// `word` and the evolving `state`, and both evolve identically on the
/// durable store and on every oracle replay — which is what makes
/// prefix-for-prefix comparison meaningful.
fn apply_op(store: &EncryptedPhrStore, h: &Harness, state: &mut OpState, word: u32) {
    let [kind, a, b, c] = word.to_be_bytes();
    match kind % 5 {
        // Two of five kinds are puts, so streams keep a healthy record mix.
        0 | 1 => {
            let patient = a as usize % h.patients.len();
            let category = &h.categories[b as usize % h.categories.len()];
            let id = store.put(
                &h.patients[patient],
                category,
                &format!("t{c}"),
                h.ciphertext.clone(),
            );
            state.issued.push((id, patient));
            state.live.push((id, patient));
        }
        2 => {
            if !state.live.is_empty() {
                let idx = a as usize % state.live.len();
                let (id, owner) = state.live.remove(idx);
                store.delete(id, &h.patients[owner]).unwrap();
            }
        }
        3 => {
            if !state.issued.is_empty() {
                let (id, _) = state.issued[a as usize % state.issued.len()];
                let requester = &h.patients[b as usize % h.patients.len()];
                store.log_disclosure(id, requester, c & 1 == 0);
            }
        }
        _ => {
            let patient = &h.patients[a as usize % h.patients.len()];
            let category = &h.categories[b as usize % h.categories.len()];
            let grantee = &h.patients[c as usize % h.patients.len()];
            store.log_policy_change(patient, category, grantee, word & 1 == 0);
        }
    }
}

/// The in-memory oracle after the first `k` ops: a fresh single-shard store
/// fed the identical op stream.  Ids and logical timestamps are assigned by
/// deterministic counters, so the oracle is comparable field by field.
fn oracle_after(h: &Harness, words: &[u32], k: usize) -> EncryptedPhrStore {
    let store = EncryptedPhrStore::with_shards_and_params("oracle", 1, h.params.clone());
    let mut state = OpState::default();
    for &word in &words[..k] {
        apply_op(&store, h, &mut state, word);
    }
    store
}

/// Full observable equality: record count, byte-identical records, identical
/// per-patient indexes, identical (and strictly ordered) merged audit.
fn assert_equals_oracle(recovered: &EncryptedPhrStore, oracle: &EncryptedPhrStore, h: &Harness) {
    assert_eq!(recovered.record_count(), oracle.record_count());
    let audit = recovered.audit_snapshot();
    assert_eq!(audit, oracle.audit_snapshot());
    for pair in audit.windows(2) {
        assert!(
            pair[0].at() < pair[1].at(),
            "audit clock not strictly ordered"
        );
    }
    for patient in &h.patients {
        let ids = recovered.list_for_patient(patient);
        assert_eq!(ids, oracle.list_for_patient(patient));
        for id in ids {
            let got = recovered.get(id).unwrap();
            let want = oracle.get(id).unwrap();
            assert_eq!(got, want);
            // Byte-identical, not merely structurally equal.
            assert_eq!(
                got.ciphertext.to_wire_bytes(),
                want.ciphertext.to_wire_bytes(),
                "record {id} ciphertext bytes diverged"
            );
        }
    }
}

/// A single-shard durable configuration with snapshots disabled, so the WAL
/// alone carries the history and byte-level truncation is exhaustive.
fn wal_only(h: &Harness) -> Durability {
    Durability::new(h.params.clone())
        .shards(1)
        .fsync(FsyncPolicy::Never)
        .snapshot_every(0)
}

/// Runs the op stream against a durable store in `dir`, returning the WAL
/// byte boundary after each op (duplicates mean the op wrote no frame).
fn run_durable(h: &Harness, dir: &Path, words: &[u32]) -> Vec<u64> {
    let store = EncryptedPhrStore::open(dir, wal_only(h)).unwrap();
    let wal = durable::shard_wal_path(dir, 0);
    let mut state = OpState::default();
    let mut boundaries = Vec::with_capacity(words.len());
    for &word in words {
        apply_op(&store, h, &mut state, word);
        boundaries.push(std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0));
    }
    boundaries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole acceptance property: for a random op sequence, kill the
    /// store at EVERY byte offset of its WAL; recovery must equal the
    /// prefix-replayed oracle, without a single panic.
    #[test]
    fn recovery_equals_prefix_oracle_at_every_byte_boundary(
        seed in any::<u64>(),
        words in proptest::collection::vec(any::<u32>(), 6..12),
    ) {
        let h = harness(seed);
        let tmp = TempDir::new("recovery-props").unwrap();
        let dir = tmp.path().join("db");
        let boundaries = run_durable(&h, &dir, &words);
        let wal = durable::shard_wal_path(&dir, 0);
        let bytes = std::fs::read(&wal).unwrap();
        prop_assert_eq!(bytes.len() as u64, *boundaries.last().unwrap());

        for cut in 0..=bytes.len() {
            // Simulate the kill: the log is exactly `cut` bytes long.
            std::fs::write(&wal, &bytes[..cut]).unwrap();
            let recovered = EncryptedPhrStore::open(&dir, wal_only(&h)).unwrap();
            // The longest committed prefix: every op whose final WAL
            // boundary fits inside the cut.
            let k = boundaries.iter().take_while(|&&b| b <= cut as u64).count();
            let oracle = oracle_after(&h, &words, k);
            assert_equals_oracle(&recovered, &oracle, &h);
            // Recovery must also have truncated the torn tail physically.
            let on_disk = std::fs::metadata(&wal).unwrap().len();
            let boundary = boundaries[..k].last().copied().unwrap_or(0);
            assert_eq!(on_disk, boundary, "cut {cut}");
        }
    }

    /// A corrupt frame (bit flip anywhere inside it) truncates the log at
    /// the previous boundary and never resurrects the frames behind it —
    /// even though those frames are individually intact.
    #[test]
    fn corrupt_crc_frame_truncates_cleanly_and_never_resurrects(
        seed in any::<u64>(),
        words in proptest::collection::vec(any::<u32>(), 6..10),
        flip_bit in 0u8..8,
    ) {
        let h = harness(seed);
        let tmp = TempDir::new("recovery-crc").unwrap();
        let dir = tmp.path().join("db");
        let boundaries = run_durable(&h, &dir, &words);
        let wal = durable::shard_wal_path(&dir, 0);
        let bytes = std::fs::read(&wal).unwrap();

        // The distinct frame boundaries, i.e. the ops that actually wrote.
        let mut frame_ends: Vec<(usize, u64)> = Vec::new(); // (op index, end)
        let mut prev = 0u64;
        for (i, &b) in boundaries.iter().enumerate() {
            if b > prev {
                frame_ends.push((i, b));
                prev = b;
            }
        }

        for (j, &(op_idx, end)) in frame_ends.iter().enumerate() {
            let start = if j == 0 { 0 } else { frame_ends[j - 1].1 };
            // Flip one bit mid-frame.
            let target = (start + (end - start) / 2) as usize;
            let mut corrupted = bytes.clone();
            corrupted[target] ^= 1 << flip_bit;
            std::fs::write(&wal, &corrupted).unwrap();

            let recovered = EncryptedPhrStore::open(&dir, wal_only(&h)).unwrap();
            let oracle = oracle_after(&h, &words, op_idx);
            assert_equals_oracle(&recovered, &oracle, &h);
            // The log was cut at the last intact boundary: frames after the
            // corruption are gone even though their checksums still match.
            prop_assert_eq!(std::fs::metadata(&wal).unwrap().len(), start);
        }
    }
}

/// After a crash, a recovered durable store and durable proxy still serve
/// the paper's emergency scenario — and a revocation performed before the
/// crash is still in force afterwards (the revoked-rekey edge case).
#[test]
fn recovered_store_and_proxy_support_emergency_access() {
    let mut rng = StdRng::seed_from_u64(0xEC0);
    let params = PairingParams::insecure_toy();
    let patient_kgc = Kgc::setup(params.clone(), "patients", &mut rng);
    let us_kgc = Kgc::setup(params.clone(), "us-providers", &mut rng);
    let tmp = TempDir::new("recovery-emergency").unwrap();
    let store_dir = tmp.path().join("us-mirror");
    let proxy_dir = tmp.path().join("proxies");
    let durability = || {
        Durability::new(params.clone())
            .shards(2)
            .fsync(FsyncPolicy::Never)
    };

    let mut alice = Patient::new("alice@phr.example", &patient_kgc);
    let er_team = Identity::new("er@us-hospital.example");
    let er_provider = HealthcareProvider::new(us_kgc.extract(&er_team));
    let onlooker = Identity::new("onlooker@us-hospital.example");
    let onlooker_provider = HealthcareProvider::new(us_kgc.extract(&onlooker));

    // Before the trip: provision the mirror durably, then "crash".
    {
        let store = Arc::new(EncryptedPhrStore::open(&store_dir, durability()).unwrap());
        let proxy =
            ProxyService::open("us-proxy", store.clone(), &proxy_dir, &durability()).unwrap();
        assert!(proxy.is_durable());
        // A second concurrent open of the same proxy log is refused (two
        // writers would interleave frames); a different proxy name in the
        // same directory is fine.
        assert!(ProxyService::open("us-proxy", store.clone(), &proxy_dir, &durability()).is_err());
        ProxyService::open("other-proxy", store.clone(), &proxy_dir, &durability()).unwrap();
        let record = HealthRecord::new(
            alice.identity().clone(),
            Category::Emergency,
            "blood group",
            b"O negative".to_vec(),
        );
        alice.store_record(&store, &record, &mut rng).unwrap();
        provision_travel_access(
            &mut alice,
            &er_team,
            us_kgc.public_params(),
            &proxy,
            &mut rng,
        )
        .unwrap();
        // A second grant that is revoked again before the crash.
        provision_travel_access(
            &mut alice,
            &onlooker,
            us_kgc.public_params(),
            &proxy,
            &mut rng,
        )
        .unwrap();
        alice
            .revoke_access(&Category::Emergency, &onlooker, &proxy)
            .unwrap();
        assert_eq!(proxy.key_count(), 1);
    }

    // The emergency: everything is recovered from disk.
    let store = Arc::new(EncryptedPhrStore::open(&store_dir, durability()).unwrap());
    let proxy = ProxyService::open("us-proxy", store.clone(), &proxy_dir, &durability()).unwrap();
    assert_eq!(proxy.key_count(), 1);
    assert!(proxy.has_grant(alice.identity(), &Category::Emergency, &er_team));
    let disclosed = emergency_disclosure(&proxy, alice.identity(), &er_provider).unwrap();
    assert_eq!(disclosed.len(), 1);
    assert_eq!(disclosed[0].body, b"O negative");
    // The pre-crash revocation is still in force.
    assert!(matches!(
        emergency_disclosure(&proxy, alice.identity(), &onlooker_provider),
        Err(PhrError::AccessDenied { .. })
    ));
    // The proxy's own audit trail survived too: grant, grant, revoke, plus
    // the post-recovery disclosure events.
    let audit = proxy.audit_snapshot();
    assert!(audit.len() >= 4);
    for pair in audit.windows(2) {
        assert!(pair[0].at() < pair[1].at());
    }
}

/// Corruption in one shard's WAL must not disturb the other shards: the
/// damaged shard recovers its longest committed prefix, everything else is
/// complete, and the merged audit stays strictly ordered.
#[test]
fn multi_shard_recovery_confines_damage_to_one_shard() {
    let h = harness(0x5AD);
    let tmp = TempDir::new("recovery-multishard").unwrap();
    let dir = tmp.path().join("db");
    let durability = || {
        Durability::new(h.params.clone())
            .shards(4)
            .fsync(FsyncPolicy::Never)
            .snapshot_every(0)
    };
    let mut originals = Vec::new();
    {
        let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
        for i in 0..24 {
            let id = store.put(
                &h.patients[0],
                &h.categories[i % h.categories.len()],
                &format!("r{i}"),
                h.ciphertext.clone(),
            );
            originals.push((id, store.get(id).unwrap()));
        }
    }
    // Corrupt the middle of the first non-empty shard log.
    let damaged = (0..4)
        .map(|i| durable::shard_wal_path(&dir, i))
        .find(|p| std::fs::metadata(p).map(|m| m.len() > 0).unwrap_or(false))
        .expect("some shard has records");
    let bytes = std::fs::read(&damaged).unwrap();
    let mut corrupted = bytes.clone();
    let mid = corrupted.len() / 2;
    corrupted[mid] ^= 0x40;
    std::fs::write(&damaged, &corrupted).unwrap();

    let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
    // Some records on the damaged shard are gone, no others.
    assert!(store.record_count() < 24);
    let surviving = store.list_for_patient(&h.patients[0]);
    assert_eq!(surviving.len(), store.record_count());
    for id in surviving {
        let got = store.get(id).unwrap();
        let (_, want) = originals.iter().find(|(oid, _)| *oid == id).unwrap();
        assert_eq!(&got, want);
    }
    // Every record NOT hosted on the damaged shard survived.
    let lost: Vec<RecordId> = originals
        .iter()
        .map(|(id, _)| *id)
        .filter(|id| store.get(*id).is_err())
        .collect();
    assert!(!lost.is_empty());
    // The merged audit is still strictly ordered despite the gap.
    let audit = store.audit_snapshot();
    for pair in audit.windows(2) {
        assert!(pair[0].at() < pair[1].at());
    }
    // The damaged shard was truncated at an intact boundary and keeps
    // accepting writes.
    assert!(std::fs::metadata(&damaged).unwrap().len() < bytes.len() as u64);
    let id = store.put(
        &h.patients[1],
        &h.categories[0],
        "after",
        h.ciphertext.clone(),
    );
    drop(store);
    let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
    assert_eq!(store.get(id).unwrap().title, "after");
}

/// Nightly guard (set `TIBPRE_LARGE_WAL=<ops>`): recovery time of a large
/// generated WAL must stay within a generous wall-clock bound, i.e. linear
/// replay, no accidental quadratic behaviour.
#[test]
fn large_wal_recovery_time_is_bounded() {
    let Ok(spec) = std::env::var("TIBPRE_LARGE_WAL") else {
        return; // not requested; the nightly CI job sets it
    };
    let ops: usize = spec.parse().unwrap_or(20_000);
    let h = harness(0x1A26E);
    let tmp = TempDir::new("recovery-large").unwrap();
    let dir = tmp.path().join("db");
    let durability = || {
        Durability::new(h.params.clone())
            .shards(4)
            .fsync(FsyncPolicy::Never)
            .snapshot_every(0)
    };
    {
        let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
        let mut state = OpState::default();
        for i in 0..ops {
            // A deterministic generator standing in for proptest at scale.
            let word = (i as u32).wrapping_mul(0x9E37_79B9) ^ 0x5EED;
            apply_op(&store, &h, &mut state, word);
        }
    }
    let start = std::time::Instant::now();
    let store = EncryptedPhrStore::open(&dir, durability()).unwrap();
    let elapsed = start.elapsed();
    assert!(store.record_count() > 0);
    assert_eq!(store.audit_snapshot().len(), {
        // Every op that wrote a frame produced exactly one audit event.
        let oracle = EncryptedPhrStore::with_shards_and_params("oracle", 4, h.params.clone());
        let mut state = OpState::default();
        for i in 0..ops {
            let word = (i as u32).wrapping_mul(0x9E37_79B9) ^ 0x5EED;
            apply_op(&oracle, &h, &mut state, word);
        }
        oracle.audit_snapshot().len()
    });
    let bound = std::time::Duration::from_secs(120);
    assert!(
        elapsed < bound,
        "recovering a {ops}-op WAL took {elapsed:?} (bound {bound:?})"
    );
    println!("recovered {ops}-op WAL in {elapsed:?}");
}
