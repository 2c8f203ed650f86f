//! Backward-compatibility harness for the versioned wire formats: a golden
//! durable store written by the **pre-`tibpre-wire`** code (PR 4, commit
//! `e2b7967`, via the `gen_v0_fixture` example) is committed under
//! `tests/fixtures/v0-store` and must keep opening forever.
//!
//! The fixture was produced with the cached deterministic toy parameters
//! and fixed RNG seeds, so this harness can re-derive the same KGCs and
//! end-to-end **decrypt** a legacy record — proving not just that the bytes
//! parse but that the recovered ciphertexts are cryptographically intact.
//!
//! On top of plain decoding, the harness pins the v0→v1 migration story:
//! opening a legacy store, forcing snapshots, and compacting must shrink
//! the on-disk footprint (new snapshots are written compressed, WAL
//! segments wholly behind the oldest kept snapshot are deleted) while a
//! subsequent recovery replays only the post-snapshot tail.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tibpre_core::Delegator;
use tibpre_ibe::{Identity, Kgc};
use tibpre_pairing::PairingParams;
use tibpre_phr::audit::AuditEvent;
use tibpre_phr::category::Category;
use tibpre_phr::durable::Durability;
use tibpre_phr::proxy_service::ProxyService;
use tibpre_phr::store::EncryptedPhrStore;
use tibpre_phr::{FsyncPolicy, PhrError};
use tibpre_storage::TempDir;

/// Recursively copies the committed fixture into a scratch directory (the
/// store mutates its directory on open: lock files, truncation, meta).
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/v0-store")
}

struct FixtureWorld {
    _tmp: TempDir,
    store_dir: PathBuf,
    proxy_dir: PathBuf,
    params: Arc<PairingParams>,
    alice_keys: Delegator,
    alice: Identity,
    bob: Identity,
    doctor: Identity,
}

impl FixtureWorld {
    /// Copies the fixture and re-derives the deterministic key material the
    /// generator used (toy params are cached with a fixed seed; the KGCs
    /// were set up from `StdRng::seed_from_u64(4242)`).
    fn new(tag: &str) -> Self {
        let tmp = TempDir::new(tag).unwrap();
        copy_dir(&fixture_dir(), tmp.path());
        let params = PairingParams::insecure_toy();
        let mut rng = StdRng::seed_from_u64(4242);
        let patient_kgc = Kgc::setup(params.clone(), "patients", &mut rng);
        let _provider_kgc = Kgc::setup(params.clone(), "providers", &mut rng);
        let alice = Identity::new("alice@phr.example");
        let alice_keys = Delegator::new(
            patient_kgc.public_params().clone(),
            patient_kgc.extract(&alice),
        );
        FixtureWorld {
            store_dir: tmp.path().join("store"),
            proxy_dir: tmp.path().join("proxy"),
            _tmp: tmp,
            params,
            alice_keys,
            alice,
            bob: Identity::new("bob@phr.example"),
            doctor: Identity::new("dr.smith@clinic.example"),
        }
    }

    fn durability(&self) -> Durability {
        Durability::new(self.params.clone())
            .shards(2)
            .fsync(FsyncPolicy::Never)
            .snapshot_every(3)
    }

    /// Total bytes and file count of the store directory, split into
    /// (wal_segment_count, wal_bytes, snapshot_bytes).
    fn disk_usage(&self) -> (usize, u64, u64) {
        let mut wal_files = 0usize;
        let mut wal_bytes = 0u64;
        let mut snap_bytes = 0u64;
        for entry in std::fs::read_dir(&self.store_dir).unwrap() {
            let entry = entry.unwrap();
            let name = entry.file_name().to_string_lossy().into_owned();
            let len = entry.metadata().unwrap().len();
            if name.ends_with(".wal") {
                wal_files += 1;
                wal_bytes += len;
            } else if name.ends_with(".snap") {
                snap_bytes += len;
            }
        }
        (wal_files, wal_bytes, snap_bytes)
    }

    /// Asserts the legacy store's full contents: five surviving records
    /// (one was deleted pre-commit), their payloads decryptable with the
    /// re-derived keys, and a strictly ordered audit trail.
    fn assert_fixture_contents(&self, store: &EncryptedPhrStore) {
        assert_eq!(store.shard_count(), 2, "meta file must win over config");
        assert_eq!(store.record_count(), 5);
        assert_eq!(store.count_for_patient(&self.alice), 3);
        assert_eq!(store.count_for_patient(&self.bob), 2);

        // Record 1 decrypts end-to-end with the re-derived delegator key.
        let record = store.get(tibpre_phr::record::RecordId(1)).unwrap();
        assert_eq!(record.title, "blood-type");
        assert_eq!(record.category, Category::Emergency);
        let aad = format!(
            "{}|{}|{}",
            self.alice.display(),
            record.category.label(),
            record.title
        );
        let plaintext = self
            .alice_keys
            .decrypt_bytes(&record.ciphertext, aad.as_bytes())
            .unwrap();
        assert_eq!(plaintext, b"O-; allergies: penicillin");

        // The deleted record stays deleted; its id is never reused.
        assert!(store.get(tibpre_phr::record::RecordId(3)).is_err());

        // The audit trail survived: 6 stores, 1 delete, 2 grants, 1 revoke,
        // 1 disclosure = 11 events, strictly ordered.
        let audit = store.audit_snapshot();
        assert_eq!(audit.len(), 11);
        for pair in audit.windows(2) {
            assert!(pair[0].at() < pair[1].at());
        }
        assert_eq!(
            audit
                .iter()
                .filter(|e| matches!(e.as_ref(), AuditEvent::RecordStored { .. }))
                .count(),
            6
        );
        assert_eq!(
            audit
                .iter()
                .filter(|e| matches!(e.as_ref(), AuditEvent::DisclosurePerformed { .. }))
                .count(),
            1
        );
    }
}

#[test]
fn golden_v0_store_opens_and_decrypts() {
    let w = FixtureWorld::new("compat-open");
    let store = EncryptedPhrStore::open(&w.store_dir, w.durability()).unwrap();
    w.assert_fixture_contents(&store);
}

#[test]
fn golden_v0_proxy_wal_replays_grants_and_revocations() {
    let w = FixtureWorld::new("compat-proxy");
    let store = Arc::new(EncryptedPhrStore::open(&w.store_dir, w.durability()).unwrap());
    let proxy = ProxyService::open(
        "fixture-proxy",
        store.clone(),
        &w.proxy_dir,
        &w.durability(),
    )
    .unwrap();
    // One active grant (emergency) and one revoked (illness history).
    assert_eq!(proxy.key_count(), 1);
    assert!(proxy.has_grant(&w.alice, &Category::Emergency, &w.doctor));
    assert!(!proxy.has_grant(&w.alice, &Category::IllnessHistory, &w.doctor));
    // The surviving legacy re-encryption key still converts: disclose the
    // emergency record to the doctor and decrypt it with a fresh delegatee
    // key from the re-derived provider KGC.
    let mut rng = StdRng::seed_from_u64(4242);
    let _patients = Kgc::setup(w.params.clone(), "patients", &mut rng);
    let providers = Kgc::setup(w.params.clone(), "providers", &mut rng);
    let doctor_keys = tibpre_core::Delegatee::new(providers.extract(&w.doctor));
    let bundle = proxy
        .disclose(&w.alice, tibpre_phr::record::RecordId(1), &w.doctor)
        .unwrap();
    let aad = format!("{}|{}|{}", w.alice.display(), "emergency", "blood-type");
    assert_eq!(
        doctor_keys
            .decrypt_bytes(&bundle.ciphertext, aad.as_bytes())
            .unwrap(),
        b"O-; allergies: penicillin"
    );
}

#[test]
fn legacy_store_compacts_and_repersists_as_v1() {
    let w = FixtureWorld::new("compat-compact");
    let (files_before, wal_before, _snap_before) = w.disk_usage();
    assert!(wal_before > 0);

    let store = EncryptedPhrStore::open(&w.store_dir, w.durability()).unwrap();
    // Two forced snapshots: the first rotates each shard's WAL and writes a
    // compressed (v1) snapshot; the second makes that rotation boundary the
    // oldest kept offset, at which point every legacy segment lies wholly
    // behind it and is deleted.
    store.force_snapshot().unwrap();
    store.force_snapshot().unwrap();
    let (files_after, wal_after, _snap_after) = w.disk_usage();
    assert!(
        wal_after < wal_before,
        "WAL bytes must shrink: {wal_before} -> {wal_after}"
    );
    assert!(
        wal_after == 0 || files_after <= files_before,
        "legacy segments must be collected: {files_before} files -> {files_after}"
    );

    // New snapshots use the indexed (TBS2) layout, and every migrated
    // record is re-persisted under the v1 envelope: the trailer's audit
    // metadata and each blob's index metadata carry the v1 tag.
    let gens = tibpre_storage::snapshot::list_generations(&w.store_dir, "shard-00").unwrap();
    let newest = tibpre_storage::snapshot::load_indexed(&w.store_dir, "shard-00", gens[0]).unwrap();
    assert_eq!(newest.meta()[0], 0xE1, "audit metadata must be v1");
    assert!(newest.blob_count() > 0);
    for i in 0..newest.blob_count() {
        assert_eq!(
            newest.index_meta(i).unwrap()[0],
            0xE1,
            "migrated record {i} must be resident as v1"
        );
    }

    // Everything still recovers from the compacted, re-persisted state —
    // and the replayed tail is only what came after the snapshot (the WAL
    // was emptied by compaction, so recovery is snapshot-only).
    drop(store);
    let reopened = EncryptedPhrStore::open(&w.store_dir, w.durability()).unwrap();
    w.assert_fixture_contents(&reopened);

    // Post-migration writes land in v1 segments and keep round-tripping.
    let mut rng = StdRng::seed_from_u64(99);
    let ct = w
        .alice_keys
        .encrypt_bytes(b"new-era", b"", &Category::Emergency.type_tag(), &mut rng);
    let id = reopened.put(&w.alice, &Category::Emergency, "post-migration", ct);
    drop(reopened);
    let reopened = EncryptedPhrStore::open(&w.store_dir, w.durability()).unwrap();
    assert_eq!(reopened.get(id).unwrap().title, "post-migration");
    assert_eq!(reopened.record_count(), 6);
}

#[test]
fn v0_and_v1_artifacts_interconvert() {
    // A value serialized under v0 decodes and re-serializes under v1 (and
    // back), bit-identically at the object level.
    use tibpre_core::{HybridCiphertext, TypeTag};
    use tibpre_wire::{WireDecode, WireEncode, WireVersion};

    let w = FixtureWorld::new("compat-interconvert");
    let mut rng = StdRng::seed_from_u64(7);
    let ct = w
        .alice_keys
        .encrypt_bytes(b"payload", b"aad", &TypeTag::new("t"), &mut rng);
    let ctx = tibpre_pairing::DecodeCtx::from(&w.params);

    let v0 = ct.to_wire_bytes_versioned(WireVersion::V0);
    let v1 = ct.to_wire_bytes_versioned(WireVersion::V1);
    assert!(v1.len() < v0.len());
    let from_v0 = HybridCiphertext::from_wire_bytes(&v0, &ctx).unwrap();
    let from_v1 = HybridCiphertext::from_wire_bytes(&v1, &ctx).unwrap();
    assert_eq!(from_v0, ct);
    assert_eq!(from_v1, ct);
    assert_eq!(from_v0.to_wire_bytes_versioned(WireVersion::V1), v1);
    assert_eq!(from_v1.to_wire_bytes_versioned(WireVersion::V0), v0);
}

/// The fixture's payloads by (patient, title), re-derived from the
/// generator's seeds (see `examples/gen_v0_fixture.rs`), with the delegator
/// that decrypts each.  Record 3 ("diet") was deleted at the end of the
/// generator's run, so it appears only in recovered prefixes.
struct FixturePlaintexts {
    alice: Delegator,
    bob: Delegator,
}

impl FixturePlaintexts {
    fn new(w: &FixtureWorld) -> Self {
        let mut rng = StdRng::seed_from_u64(4242);
        let patient_kgc = Kgc::setup(w.params.clone(), "patients", &mut rng);
        let keys = |id: &Identity| {
            Delegator::new(patient_kgc.public_params().clone(), patient_kgc.extract(id))
        };
        FixturePlaintexts {
            alice: keys(&w.alice),
            bob: keys(&w.bob),
        }
    }

    /// Asserts `record` decrypts to the fixture plaintext of its title.
    fn assert_intact(&self, w: &FixtureWorld, record: &tibpre_phr::store::StoredRecord) {
        let (keys, expected): (&Delegator, &[u8]) =
            match (record.patient == w.alice, record.title.as_str()) {
                (true, "blood-type") => (&self.alice, b"O-; allergies: penicillin"),
                (true, "2007") => (&self.alice, b"angioplasty"),
                (true, "diet") => (&self.alice, b"low sodium"),
                (true, "implant") => (&self.alice, b"pacemaker model X"),
                (false, "blood-type") => (&self.bob, b"AB+"),
                (false, "lipids") => (&self.bob, b"ldl 130"),
                other => panic!("record {} is not a fixture record: {other:?}", record.id),
            };
        let aad = format!(
            "{}|{}|{}",
            record.patient.display(),
            record.category.label(),
            record.title
        );
        assert_eq!(
            keys.decrypt_bytes(&record.ciphertext, aad.as_bytes())
                .unwrap(),
            expected
        );
    }
}

/// Every record and audit event of a store, for whole-store comparisons.
fn contents(
    w: &FixtureWorld,
    store: &EncryptedPhrStore,
) -> (
    Vec<Arc<tibpre_phr::store::StoredRecord>>,
    Vec<Arc<AuditEvent>>,
) {
    let mut ids = store.list_for_patient(&w.alice);
    ids.extend(store.list_for_patient(&w.bob));
    ids.sort();
    let records = ids.into_iter().map(|id| store.get(id).unwrap()).collect();
    (records, store.audit_snapshot())
}

/// Asserts every frame of a log file opens with the v1 envelope tag.
fn assert_v1_frames(path: &Path) {
    let bytes = std::fs::read(path).unwrap();
    let scan = tibpre_storage::frame::scan(&bytes, 0);
    assert_eq!(
        scan.valid_len,
        bytes.len() as u64,
        "{} has a torn tail",
        path.display()
    );
    for payload in &scan.frames {
        assert_eq!(payload[0], 0xE1, "legacy frame left in {}", path.display());
    }
}

#[test]
fn open_alone_migrates_store_and_proxy_to_v1() {
    let w = FixtureWorld::new("compat-open-migrates");
    let store = Arc::new(EncryptedPhrStore::open(&w.store_dir, w.durability()).unwrap());
    let proxy = ProxyService::open(
        "fixture-proxy",
        store.clone(),
        &w.proxy_dir,
        &w.durability(),
    )
    .unwrap();
    w.assert_fixture_contents(&store);
    let before = contents(&w, &store);
    let grants = proxy.key_count();

    // No force_snapshot call: the opens alone left nothing legacy behind.
    for base in ["shard-00", "shard-01"] {
        let gens = tibpre_storage::snapshot::list_generations(&w.store_dir, base).unwrap();
        assert!(!gens.is_empty());
        for gen in gens {
            let path = tibpre_storage::snapshot::snapshot_path(&w.store_dir, base, gen);
            assert_eq!(
                &std::fs::read(&path).unwrap()[..4],
                b"TBS2",
                "{}",
                path.display()
            );
        }
        for segment in tibpre_storage::segment::list_segments(&w.store_dir, base).unwrap() {
            assert_v1_frames(&segment.path);
        }
    }
    let proxy_wal = tibpre_phr::durable::proxy_wal_path(&w.proxy_dir, "fixture-proxy");
    assert_v1_frames(&proxy_wal);
    assert!(std::fs::metadata(&proxy_wal).unwrap().len() > 0);

    // A reopen of the migrated files serves identical contents.
    drop(proxy);
    drop(store);
    let store = Arc::new(EncryptedPhrStore::open(&w.store_dir, w.durability()).unwrap());
    let proxy = ProxyService::open(
        "fixture-proxy",
        store.clone(),
        &w.proxy_dir,
        &w.durability(),
    )
    .unwrap();
    w.assert_fixture_contents(&store);
    assert_eq!(contents(&w, &store), before);
    assert_eq!(proxy.key_count(), grants);
    assert!(proxy.has_grant(&w.alice, &Category::Emergency, &w.doctor));
    assert!(!proxy.has_grant(&w.alice, &Category::IllnessHistory, &w.doctor));
}

#[test]
fn crash_between_the_two_migration_snapshots_loses_nothing() {
    // A migrated copy's first TBS2 generation per shard, dropped beside the
    // untouched fixture files: the state a crash between the two
    // migration snapshots leaves.
    let migrated = FixtureWorld::new("compat-crash-src");
    drop(EncryptedPhrStore::open(&migrated.store_dir, migrated.durability()).unwrap());
    let w = FixtureWorld::new("compat-crash");
    for base in ["shard-00", "shard-01"] {
        let gens = tibpre_storage::snapshot::list_generations(&migrated.store_dir, base).unwrap();
        let first = *gens.last().unwrap();
        std::fs::copy(
            tibpre_storage::snapshot::snapshot_path(&migrated.store_dir, base, first),
            tibpre_storage::snapshot::snapshot_path(&w.store_dir, base, first),
        )
        .unwrap();
    }
    let store = EncryptedPhrStore::open(&w.store_dir, w.durability()).unwrap();
    w.assert_fixture_contents(&store);
    drop(store);
    let store = EncryptedPhrStore::open(&w.store_dir, w.durability()).unwrap();
    w.assert_fixture_contents(&store);
}

#[test]
fn hostile_legacy_bytes_never_panic_or_serve_wrong_plaintext() {
    let w = FixtureWorld::new("compat-hostile");
    let plaintexts = FixturePlaintexts::new(&w);
    let full_audit = {
        let store = EncryptedPhrStore::open(&w.store_dir, w.durability()).unwrap();
        store.audit_snapshot()
    };
    let store_files = fixture_dir().join("store");
    let reset = || {
        std::fs::remove_dir_all(&w.store_dir).unwrap();
        copy_dir(&store_files, &w.store_dir);
    };
    // Either a typed refusal or a recovered prefix whose every record
    // decrypts to the fixture plaintext and whose every event is one the
    // intact fixture logged.
    let check = |what: &str| match EncryptedPhrStore::open(&w.store_dir, w.durability()) {
        Err(PhrError::CorruptedRecord(_)) | Err(PhrError::Storage(_)) => {}
        Err(other) => panic!("{what}: unexpected open error {other:?}"),
        Ok(store) => {
            let (records, audit) = contents(&w, &store);
            for record in &records {
                plaintexts.assert_intact(&w, record);
            }
            for event in &audit {
                assert!(
                    full_audit.contains(event),
                    "{what}: invented event {event:?}"
                );
            }
        }
    };

    let wal = std::fs::read(store_files.join("shard-00.wal")).unwrap();
    for cut in 0..=wal.len() {
        reset();
        std::fs::write(w.store_dir.join("shard-00.wal"), &wal[..cut]).unwrap();
        check(&format!("WAL cut at {cut}"));
    }
    for name in [
        "shard-00.0000000000000001.snap",
        "shard-01.0000000000000001.snap",
        "shard-01.0000000000000002.snap",
    ] {
        let snap = std::fs::read(store_files.join(name)).unwrap();
        for at in (0..snap.len()).step_by(13).chain([snap.len() - 1]) {
            reset();
            let mut bytes = snap.clone();
            bytes[at] ^= 1 << (at % 8);
            std::fs::write(w.store_dir.join(name), &bytes).unwrap();
            check(&format!("{name} bit flip at {at}"));
        }
    }
}
