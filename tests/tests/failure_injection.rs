//! Failure-injection tests: corrupted ciphertexts, truncated serializations,
//! wrong keys, cross-patient confusion, revoked grants, and corrupted or
//! torn snapshot files of the durable store.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;
use tibpre_bigint::Uint;
use tibpre_core::{
    proxy, Delegatee, Delegator, PreError, ReEncryptionKey, TypeTag, TypedCiphertext,
};
use tibpre_ibe::{EncodedIbeCiphertext, IbeCiphertext, Identity, Kgc};
use tibpre_pairing::{DecodeCtx, G1Affine, Gt, PairingParams};
use tibpre_phr::{
    audit::AuditEvent,
    category::Category,
    durable::Durability,
    patient::Patient,
    provider::HealthcareProvider,
    proxy_service::{DisclosureBundle, ProxyService},
    record::{HealthRecord, RecordId},
    source::RecordSource,
    store::{EncryptedPhrStore, StoredRecord},
    FsyncPolicy, PhrError,
};
use tibpre_storage::{snapshot, TempDir};
use tibpre_wire::{decode_bare, encode_bare, WireDecode, WireEncode, WireVersion};

fn setup() -> (Arc<PairingParams>, Kgc, Kgc, StdRng) {
    let mut rng = StdRng::seed_from_u64(0xFA11);
    let params = PairingParams::insecure_toy();
    let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
    let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
    (params, kgc1, kgc2, rng)
}

#[test]
fn truncated_and_garbled_wire_formats_are_rejected() {
    let (params, kgc1, kgc2, mut rng) = setup();
    let alice = Identity::new("alice");
    let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
    let t = TypeTag::new("t");
    let m = params.random_gt(&mut rng);
    let ct = delegator.encrypt_typed(&m, &t, &mut rng);
    let rk = delegator
        .make_reencryption_key(&Identity::new("bob"), kgc2.public_params(), &t, &mut rng)
        .unwrap();
    let transformed = proxy::re_encrypt(&ct, &rk).unwrap();

    let ct_bytes = ct.to_wire_bytes();
    let rk_bytes = rk.to_wire_bytes();
    let re_bytes = transformed.to_wire_bytes();
    let ibe_bytes = rk.encrypted_x().to_wire_bytes();

    for cut in [0usize, 1, 5, 10] {
        if cut < ct_bytes.len() {
            assert!(
                TypedCiphertext::from_wire_bytes(&ct_bytes[..cut], &DecodeCtx::from(&params))
                    .is_err()
            );
        }
        if cut < rk_bytes.len() {
            assert!(
                ReEncryptionKey::from_wire_bytes(&rk_bytes[..cut], &DecodeCtx::from(&params))
                    .is_err()
            );
        }
        if cut < re_bytes.len() {
            assert!(tibpre_core::ReEncryptedCiphertext::from_wire_bytes(
                &re_bytes[..cut],
                &DecodeCtx::from(&params)
            )
            .is_err());
        }
        if cut < ibe_bytes.len() {
            assert!(
                IbeCiphertext::from_wire_bytes(&ibe_bytes[..cut], &DecodeCtx::from(&params))
                    .is_err()
            );
        }
    }

    // Flipping bytes inside the point encodings is caught by the curve check
    // (probability of landing on another valid point is negligible).
    let mut bad_point = ct_bytes.clone();
    bad_point[5] ^= 0xFF;
    bad_point[6] ^= 0xA5;
    assert!(TypedCiphertext::from_wire_bytes(&bad_point, &DecodeCtx::from(&params)).is_err());
}

#[test]
fn ciphertexts_with_out_of_subgroup_points_are_rejected() {
    let (params, kgc1, _kgc2, mut rng) = setup();
    let alice = Identity::new("alice");
    let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
    let t = TypeTag::new("t");
    let m = params.random_gt(&mut rng);
    let ct = delegator.encrypt_typed(&m, &t, &mut rng);

    // Swap c1 for a curve point of the wrong order (a random point on the full
    // curve, which almost surely is not in the order-q subgroup).  c1 sits
    // right behind the one-byte envelope; compressed rogue and honest points
    // encode to the same length, so the splice is surgical.
    let rogue = loop {
        let candidate = tibpre_pairing::curve::random_curve_point(params.fp_ctx(), &mut rng);
        if !candidate.is_in_subgroup(params.q()) {
            break candidate;
        }
    };
    let rogue_enc = tibpre_wire::encode_bare(&rogue, tibpre_wire::WireVersion::V1);
    let mut bytes = ct.to_wire_bytes();
    bytes[1..1 + rogue_enc.len()].copy_from_slice(&rogue_enc);
    assert!(matches!(
        TypedCiphertext::from_wire_bytes(&bytes, &DecodeCtx::from(&params)).map_err(PreError::from),
        Err(PreError::Decode(_)) | Err(PreError::Pairing(_))
    ));
}

#[test]
fn wrong_private_keys_never_recover_the_message() {
    let (params, kgc1, kgc2, mut rng) = setup();
    let alice = Identity::new("alice");
    let bob = Identity::new("bob");
    let eve = Identity::new("eve");
    let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
    let t = TypeTag::new("t");
    let m = params.random_gt(&mut rng);
    let ct = delegator.encrypt_typed(&m, &t, &mut rng);
    let rk = delegator
        .make_reencryption_key(&bob, kgc2.public_params(), &t, &mut rng)
        .unwrap();
    let transformed = proxy::re_encrypt(&ct, &rk).unwrap();

    // Eve with a key from the delegatee domain (wrong identity).
    let eve_delegatee = Delegatee::new(kgc2.extract(&eve));
    assert_ne!(eve_delegatee.decrypt_reencrypted(&transformed).unwrap(), m);
    // Eve with a key for the right identity from the *wrong* domain.
    let eve_wrong_domain = Delegatee::new(kgc1.extract(&bob));
    assert_ne!(
        eve_wrong_domain.decrypt_reencrypted(&transformed).unwrap(),
        m
    );
    // Another delegator in the same domain cannot decrypt the typed ciphertext.
    let mallory = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&eve));
    assert_ne!(mallory.decrypt_typed(&ct).unwrap(), m);
}

#[test]
fn tampering_with_reencrypted_components_breaks_decryption() {
    let (params, kgc1, kgc2, mut rng) = setup();
    let alice = Identity::new("alice");
    let bob = Identity::new("bob");
    let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
    let delegatee = Delegatee::new(kgc2.extract(&bob));
    let t = TypeTag::new("t");
    let m = params.random_gt(&mut rng);
    let ct = delegator.encrypt_typed(&m, &t, &mut rng);
    let rk = delegator
        .make_reencryption_key(&bob, kgc2.public_params(), &t, &mut rng)
        .unwrap();
    let good = proxy::re_encrypt(&ct, &rk).unwrap();
    assert_eq!(delegatee.decrypt_reencrypted(&good).unwrap(), m);

    // Tamper with c1 (replace with the generator).
    let mut bad = good.clone();
    bad.c1 = params.generator().clone();
    assert_ne!(delegatee.decrypt_reencrypted(&bad).unwrap(), m);

    // Tamper with c2.
    let mut bad = good.clone();
    bad.c2 = bad.c2.mul(params.gt_generator());
    assert_ne!(delegatee.decrypt_reencrypted(&bad).unwrap(), m);

    // Tamper with the encapsulated X (swap c1 of the inner IBE ciphertext
    // for the generator), as the bytes a peer would send.
    let forged = IbeCiphertext {
        c1: params.generator().clone(),
        c2: good.encrypted_x.to_ciphertext().unwrap().c2,
    };
    let mut bad = good.clone();
    bad.encrypted_x = decode_bare(
        &encode_bare(&forged, WireVersion::V1),
        WireVersion::V1,
        &DecodeCtx::from(&params),
    )
    .unwrap();
    assert_ne!(delegatee.decrypt_reencrypted(&bad).unwrap(), m);
}

/// A granted disclosure, the provider it is for, and the decode context.
fn disclosed_bundle() -> (DisclosureBundle, Kgc, Identity, DecodeCtx) {
    let mut rng = StdRng::seed_from_u64(0xC3);
    let params = PairingParams::insecure_toy();
    let patient_kgc = Kgc::setup(params.clone(), "patients", &mut rng);
    let provider_kgc = Kgc::setup(params.clone(), "providers", &mut rng);
    let store = Arc::new(EncryptedPhrStore::in_memory_with_params(
        "db",
        params.clone(),
    ));
    let mut proxy_service = ProxyService::new("proxy", store.clone());
    let mut alice = Patient::new("alice", &patient_kgc);
    let doctor = Identity::new("doctor");
    let record = HealthRecord::new(
        alice.identity().clone(),
        Category::LabResults,
        "ferritin",
        b"ferritin 80 ng/mL".to_vec(),
    );
    let id = alice.store_record(&store, &record, &mut rng).unwrap();
    alice
        .grant_access(
            Category::LabResults,
            &doctor,
            provider_kgc.public_params(),
            &mut proxy_service,
            &mut rng,
        )
        .unwrap();
    let bundle = proxy_service
        .disclose(alice.identity(), id, &doctor)
        .unwrap();
    (bundle, provider_kgc, doctor, DecodeCtx::from(&params))
}

/// `c'₃` is only framed when a bundle is decoded, so it must be validated
/// where it is first used: a malformed one decodes, and every provider —
/// cold, or warm on the honest `c'₃` — refuses to open it before any
/// pairing runs.
#[test]
fn a_malformed_c3_decodes_but_never_opens() {
    let (bundle, provider_kgc, doctor, ctx) = disclosed_bundle();
    let params = ctx.params().clone();
    let bytes = bundle.to_wire_bytes();
    let decoded = DisclosureBundle::from_wire_bytes(&bytes, &ctx).unwrap();
    assert_eq!(
        decoded.to_wire_bytes(),
        bytes,
        "decode → encode is the identity"
    );

    let warm = HealthcareProvider::new(provider_kgc.extract(&doctor));
    assert_eq!(warm.open(&decoded).unwrap().body, b"ferritin 80 ng/mL");

    let honest = bundle
        .ciphertext
        .header
        .encrypted_x
        .to_ciphertext()
        .unwrap();
    let honest_g1 = encode_bare(&honest.c1, WireVersion::V1);
    let honest_gt = encode_bare(&honest.c2, WireVersion::V1);
    let flen = params.fp_ctx().byte_len();
    let off_curve = (1u64..)
        .map(|x| {
            let mut enc = vec![0x02; 1 + flen];
            enc[1..].copy_from_slice(&Uint::from_u64(x).to_be_bytes(flen).unwrap());
            enc
        })
        .find(|enc| decode_bare::<G1Affine>(enc, WireVersion::V1, params.fp_ctx()).is_err())
        .unwrap();
    let mut rng = StdRng::seed_from_u64(0xC4);
    let outside_subgroup = loop {
        let candidate = tibpre_pairing::curve::random_curve_point(params.fp_ctx(), &mut rng);
        if !candidate.is_in_subgroup(params.q()) {
            break encode_bare(&candidate, WireVersion::V1);
        }
    };
    // A torus member in the uncompressed fallback layout.
    let mut full_gt = vec![0x04];
    full_gt.extend(honest.c2.as_fp2().c0.to_bytes());
    full_gt.extend(honest.c2.as_fp2().c1.to_bytes());

    for (what, c3) in [
        ("off-curve x", [off_curve, honest_gt.clone()]),
        ("point outside the subgroup", [outside_subgroup, honest_gt]),
        ("non-canonical Gt tag", [honest_g1, full_gt]),
    ]
    .map(|(what, parts)| (what, parts.concat()))
    {
        let mut tampered = bundle.clone();
        tampered.ciphertext.header.encrypted_x = decode_bare(&c3, WireVersion::V1, &ctx)
            .unwrap_or_else(|e| panic!("{what}: framing must not validate: {e}"));
        let decoded = DisclosureBundle::from_wire_bytes(&tampered.to_wire_bytes(), &ctx)
            .unwrap_or_else(|e| panic!("{what}: bundle decode must be lazy: {e}"));
        let cold = HealthcareProvider::new(provider_kgc.extract(&doctor));
        for provider in [&cold, &warm] {
            assert!(
                matches!(
                    provider.open(&decoded),
                    Err(PhrError::Pre(PreError::Decode(_)))
                ),
                "{what}"
            );
        }
    }

    // One flipped byte is another cache key: a warm provider misses,
    // validates, and gets no plaintext either.
    let c3 = bundle.ciphertext.header.encrypted_x.as_bytes();
    for at in [0, 1, flen, 1 + flen, 2 + flen, c3.len() - 1] {
        let mut flipped = c3.to_vec();
        flipped[at] ^= 0x01;
        let mut tampered = bundle.clone();
        tampered.ciphertext.header.encrypted_x =
            decode_bare(&flipped, WireVersion::V1, &ctx).unwrap();
        assert!(warm.open(&tampered).is_err(), "flip at {at}");
    }
    assert_eq!(warm.open(&decoded).unwrap().body, b"ferritin 80 ng/mL");
}

/// Framing `c'₃` still requires all of its bytes.
#[test]
fn a_bundle_truncated_inside_c3_fails_to_decode() {
    let (bundle, _, _, ctx) = disclosed_bundle();
    let bytes = bundle.to_wire_bytes();
    let c3 = bundle.ciphertext.header.encrypted_x.as_bytes();
    let start = bytes
        .windows(c3.len())
        .position(|w| w == c3)
        .expect("the bundle carries c'3 verbatim");
    for cut in start..start + c3.len() {
        assert!(DisclosureBundle::from_wire_bytes(&bytes[..cut], &ctx).is_err());
        let prefix = &c3[..cut - start];
        assert!(decode_bare::<EncodedIbeCiphertext>(prefix, WireVersion::V1, &ctx).is_err());
    }
}

#[test]
fn gt_deserialization_validates_subgroup_membership() {
    let (params, _kgc1, _kgc2, mut rng) = setup();
    // A random Fp2 element is essentially never in the order-q subgroup.
    let random_fp2 = tibpre_pairing::Fp2::random(params.fp_ctx(), &mut rng);
    let fake_gt = Gt::from_fp2_unchecked(random_fp2);
    let bytes = fake_gt.to_bytes();
    assert!(Gt::from_bytes(params.fp_ctx(), params.q(), &bytes).is_err());
    // A genuine pairing output passes.
    let genuine = params.random_gt(&mut rng);
    assert!(Gt::from_bytes(params.fp_ctx(), params.q(), &genuine.to_bytes()).is_ok());
}

#[test]
fn g1_deserialization_validates_the_curve_equation() {
    let (params, _kgc1, _kgc2, mut rng) = setup();
    let p = params.random_g1(&mut rng);
    let mut bytes = p.to_bytes();
    // Corrupt the y-coordinate: almost surely off the curve.
    let len = bytes.len();
    bytes[len - 1] ^= 0x01;
    bytes[len - 2] ^= 0x80;
    assert!(G1Affine::from_bytes(params.fp_ctx(), &bytes).is_err());
}

/// A populated single-shard durable store with two snapshot generations on
/// disk, plus everything needed to reopen and check it.
struct SnapshotFixture {
    _tmp: TempDir,
    dir: std::path::PathBuf,
    params: Arc<PairingParams>,
    alice: Identity,
    titles: Vec<String>,
}

impl SnapshotFixture {
    fn new(tag: &str, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = PairingParams::insecure_toy();
        let kgc = Kgc::setup(params.clone(), "kgc", &mut rng);
        let delegator = Delegator::new(
            kgc.public_params().clone(),
            kgc.extract(&Identity::new("alice")),
        );
        let ciphertext = delegator.encrypt_bytes(b"payload", b"", &TypeTag::new("t"), &mut rng);
        let tmp = TempDir::new(tag).unwrap();
        let dir = tmp.path().join("db");
        let alice = Identity::new("alice");
        let titles: Vec<String> = (0..10).map(|i| format!("r{i}")).collect();
        {
            let store = EncryptedPhrStore::open(&dir, Self::durability(&params)).unwrap();
            for title in &titles {
                store.put(&alice, &Category::LabResults, title, ciphertext.clone());
            }
        }
        // Cadence 4 over 10 puts leaves generations 1 and 2 on disk.
        assert_eq!(
            snapshot::list_generations(&dir, "shard-00").unwrap(),
            vec![2, 1]
        );
        SnapshotFixture {
            _tmp: tmp,
            dir,
            params,
            alice,
            titles,
        }
    }

    fn durability(params: &Arc<PairingParams>) -> Durability {
        Durability::new(params.clone())
            .shards(1)
            .fsync(FsyncPolicy::Never)
            .snapshot_every(4)
    }

    /// Reopens the store and asserts nothing was lost: a damaged snapshot
    /// must only cost recovery time (longer log replay), never data.
    fn assert_fully_recovered(&self) -> EncryptedPhrStore {
        let store = EncryptedPhrStore::open(&self.dir, Self::durability(&self.params)).unwrap();
        assert_eq!(store.record_count(), self.titles.len());
        let ids = store.list_for_patient(&self.alice);
        assert_eq!(ids.len(), self.titles.len());
        let got: Vec<String> = ids
            .iter()
            .map(|&id| store.get(id).unwrap().title.clone())
            .collect();
        assert_eq!(got, self.titles);
        assert_eq!(store.audit_snapshot().len(), self.titles.len());
        store
    }
}

#[test]
fn bit_flipped_snapshot_falls_back_to_previous_generation() {
    let f = SnapshotFixture::new("snap-bitflip", 0xB17);
    // Flip one bit inside the newest snapshot's *trailer* — the index the
    // O(index) open validates.  (A flip in the data region is instead
    // detected lazily, on the first read of the damaged record; the store's
    // unit tests and `bit_flipped_snapshot_blob_fails_only_that_record`
    // below pin that half of the contract.)
    let newest = snapshot::snapshot_path(&f.dir, "shard-00", 2);
    let mut bytes = std::fs::read(&newest).unwrap();
    let target = bytes.len() - 12;
    bytes[target] ^= 0x08;
    std::fs::write(&newest, &bytes).unwrap();
    assert!(snapshot::load_indexed(&f.dir, "shard-00", 2).is_err());
    assert!(snapshot::load_indexed(&f.dir, "shard-00", 1).is_ok());

    // Recovery silently falls back to generation 1 + the longer WAL tail.
    let store = f.assert_fully_recovered();

    // The next snapshot supersedes the corrupt generation with valid data.
    store.force_snapshot().unwrap();
    drop(store);
    let snap = snapshot::load_indexed(&f.dir, "shard-00", 2).unwrap();
    assert_eq!(snap.gen(), 2);
    f.assert_fully_recovered();
}

#[test]
fn bit_flipped_snapshot_blob_fails_only_that_record() {
    let f = SnapshotFixture::new("snap-blobflip", 0xB18);
    // Flip one bit inside the newest snapshot's *data region* (the blobs
    // start right after the 4-byte magic).  The open still succeeds — it
    // reads only the trailer — and the damage surfaces as an error on the
    // first read of that record, never as corrupt ciphertext bytes.
    let newest = snapshot::snapshot_path(&f.dir, "shard-00", 2);
    let mut bytes = std::fs::read(&newest).unwrap();
    bytes[10] ^= 0x08; // inside blob 0
    std::fs::write(&newest, &bytes).unwrap();

    let store = EncryptedPhrStore::open(&f.dir, SnapshotFixture::durability(&f.params)).unwrap();
    assert_eq!(store.record_count(), f.titles.len());
    let ids = store.list_for_patient(&f.alice);
    let mut corrupt = 0;
    for &id in &ids {
        match store.get(id) {
            Ok(_) => {}
            Err(PhrError::CorruptedRecord(_)) => corrupt += 1,
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
    assert_eq!(corrupt, 1, "exactly the damaged record fails");
}

#[test]
fn mid_frame_truncated_snapshot_falls_back_to_previous_generation() {
    let f = SnapshotFixture::new("snap-torn", 0x70A);
    // Tear the newest snapshot mid-frame (half the file is gone).
    let newest = snapshot::snapshot_path(&f.dir, "shard-00", 2);
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
    assert!(snapshot::load_indexed(&f.dir, "shard-00", 2).is_err());

    f.assert_fully_recovered();
}

#[test]
fn all_snapshots_corrupt_refuses_to_open_without_destroying_the_log() {
    let f = SnapshotFixture::new("snap-all-bad", 0xA11);
    // Since segment GC, the WAL prefix behind the oldest kept snapshot is
    // deleted, so the pre-compaction fallback ("all generations corrupt →
    // full log replay from offset 0") no longer exists.  The store must
    // surface that as a refused open — never replay a partial tail as if
    // it were the whole history, and never truncate segments a repair
    // might still need.
    let wal_segments = || {
        let mut segs: Vec<(std::path::PathBuf, u64)> = std::fs::read_dir(&f.dir)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".wal"))
            .map(|e| (e.path(), e.metadata().unwrap().len()))
            .collect();
        segs.sort();
        segs
    };
    // GC ran during the fixture's lifetime: the log no longer starts at 0.
    assert!(!wal_segments().is_empty());

    // Damage BOTH generations differently: one bit-flip, one truncation.
    let gen2 = snapshot::snapshot_path(&f.dir, "shard-00", 2);
    let mut bytes = std::fs::read(&gen2).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&gen2, &bytes).unwrap();
    let gen1 = snapshot::snapshot_path(&f.dir, "shard-00", 1);
    let bytes = std::fs::read(&gen1).unwrap();
    std::fs::write(&gen1, &bytes[..7.min(bytes.len())]).unwrap();

    let before = wal_segments();
    assert!(matches!(
        EncryptedPhrStore::open(&f.dir, SnapshotFixture::durability(&f.params)),
        Err(PhrError::CorruptedRecord(_))
    ));
    // The refused open left every surviving WAL segment byte-identical.
    assert_eq!(wal_segments(), before);

    // Restoring one snapshot generation makes the store fully recoverable
    // again (gen1's offset is the GC boundary, so its log suffix is intact).
    std::fs::write(&gen2, {
        let mut fixed = std::fs::read(&gen2).unwrap();
        let last = fixed.len() - 1;
        fixed[last] ^= 0x01;
        fixed
    })
    .unwrap();
    f.assert_fully_recovered();
}

#[test]
fn phr_store_cross_patient_and_revocation_failures() {
    let mut rng = StdRng::seed_from_u64(0xFA12);
    let params = PairingParams::insecure_toy();
    let patient_kgc = Kgc::setup(params.clone(), "patients", &mut rng);
    let provider_kgc = Kgc::setup(params.clone(), "providers", &mut rng);
    let store = Arc::new(EncryptedPhrStore::in_memory_with_params(
        "db",
        params.clone(),
    ));
    let mut proxy_service = ProxyService::new("proxy", store.clone());

    let mut alice = Patient::new("alice", &patient_kgc);
    let mallory = Patient::new("mallory", &patient_kgc);
    let doctor = Identity::new("doctor");
    let doctor_provider = HealthcareProvider::new(provider_kgc.extract(&doctor));

    let record = HealthRecord::new(
        alice.identity().clone(),
        Category::LabResults,
        "cholesterol",
        b"LDL 95 mg/dL".to_vec(),
    );
    let id = alice.store_record(&store, &record, &mut rng).unwrap();

    // Mallory cannot store records in Alice's name.
    let fake = HealthRecord::new(
        alice.identity().clone(),
        Category::LabResults,
        "forged",
        b"bogus".to_vec(),
    );
    assert!(matches!(
        mallory.store_record(&store, &fake, &mut rng),
        Err(PhrError::PolicyConflict(_))
    ));
    // Mallory cannot read Alice's record directly either.
    assert!(mallory.read_own_record(&store, id).is_err());

    // The doctor is denied before any grant exists.
    assert!(matches!(
        proxy_service.disclose(alice.identity(), id, &doctor),
        Err(PhrError::AccessDenied { .. })
    ));

    // Grant, disclose, revoke, and observe the denial again.
    alice
        .grant_access(
            Category::LabResults,
            &doctor,
            provider_kgc.public_params(),
            &mut proxy_service,
            &mut rng,
        )
        .unwrap();
    let bundle = proxy_service
        .disclose(alice.identity(), id, &doctor)
        .unwrap();
    assert_eq!(doctor_provider.open(&bundle).unwrap().body, b"LDL 95 mg/dL");
    // Granting the same thing twice is reported as a conflict.
    assert!(matches!(
        alice.grant_access(
            Category::LabResults,
            &doctor,
            provider_kgc.public_params(),
            &mut proxy_service,
            &mut rng,
        ),
        Err(PhrError::PolicyConflict(_))
    ));
    alice
        .revoke_access(&Category::LabResults, &doctor, &mut proxy_service)
        .unwrap();
    assert!(matches!(
        proxy_service.disclose(alice.identity(), id, &doctor),
        Err(PhrError::AccessDenied { .. })
    ));
    // Revoking a non-existent grant is an error.
    assert!(alice
        .revoke_access(&Category::Emergency, &doctor, &mut proxy_service)
        .is_err());
    // Requests for non-existent records are reported as such.
    assert!(matches!(
        proxy_service.disclose(alice.identity(), tibpre_phr::RecordId(999), &doctor),
        Err(PhrError::RecordNotFound)
    ));
}

/// A record source that answers every fetch with the one record it holds,
/// whatever id was asked for, and keeps the disclosures it is told to log.
struct Misaddressed {
    record: Arc<StoredRecord>,
    logged: Mutex<Vec<(RecordId, Identity, bool)>>,
}

impl RecordSource for Misaddressed {
    fn get_many(&self, ids: &[RecordId]) -> Vec<tibpre_phr::Result<Arc<StoredRecord>>> {
        ids.iter().map(|_| Ok(Arc::clone(&self.record))).collect()
    }

    fn list_for_patient(&self, _: &Identity) -> tibpre_phr::Result<Vec<RecordId>> {
        Ok(vec![self.record.id])
    }

    fn list_for_patient_category(
        &self,
        _: &Identity,
        _: &Category,
    ) -> tibpre_phr::Result<Vec<RecordId>> {
        Ok(vec![self.record.id])
    }

    fn log_disclosures(&self, entries: &[(RecordId, Identity, bool)]) {
        self.logged.lock().unwrap().extend_from_slice(entries);
    }

    fn log_policy_change(&self, _: &Identity, _: &Category, _: &Identity, _: bool) {}
}

#[test]
fn a_proxy_refuses_a_record_fetched_under_another_id() {
    let mut rng = StdRng::seed_from_u64(0xFA13);
    let params = PairingParams::insecure_toy();
    let patient_kgc = Kgc::setup(params.clone(), "patients", &mut rng);
    let provider_kgc = Kgc::setup(params.clone(), "providers", &mut rng);
    let store = EncryptedPhrStore::in_memory_with_params("db", params.clone());
    let mut alice = Patient::new("alice", &patient_kgc);
    let doctor = Identity::new("doctor");
    let record = HealthRecord::new(
        alice.identity().clone(),
        Category::LabResults,
        "cholesterol",
        b"LDL 95 mg/dL".to_vec(),
    );
    let b = alice.store_record(&store, &record, &mut rng).unwrap();
    let source = Arc::new(Misaddressed {
        record: store.get(b).unwrap(),
        logged: Mutex::new(Vec::new()),
    });
    let mut proxy_service = ProxyService::new("proxy", source.clone());
    alice
        .grant_access(
            Category::LabResults,
            &doctor,
            provider_kgc.public_params(),
            &mut proxy_service,
            &mut rng,
        )
        .unwrap();

    // Asked for `a`, handed `b`: a failed fetch, which logs nothing.
    let a = RecordId(b.0 + 1);
    let before = proxy_service.audit_snapshot();
    assert!(matches!(
        proxy_service.disclose(alice.identity(), a, &doctor),
        Err(PhrError::Storage(_))
    ));
    assert_eq!(proxy_service.audit_snapshot(), before);
    assert!(source.logged.lock().unwrap().is_empty());

    // Asked for `b`, handed `b`: disclosed and logged under `b`.
    let bundle = proxy_service
        .disclose(alice.identity(), b, &doctor)
        .unwrap();
    assert_eq!(bundle.id, b);
    assert_eq!(*source.logged.lock().unwrap(), vec![(b, doctor, true)]);
}

/// A record source over an in-process store whose first `get_many` after
/// [`ParkingSource::park_next_fetch`] parks: it reports on the gate's first
/// channel and waits on its second before fetching.  It keeps the audit
/// calls it is asked to make, in call order.
struct ParkingSource {
    inner: Arc<EncryptedPhrStore>,
    gate: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
    logged: Mutex<Vec<&'static str>>,
}

impl ParkingSource {
    /// Returns (parked, release): the next fetch signals the first and
    /// waits for the second.
    fn park_next_fetch(&self) -> (mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (parked_tx, parked) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        *self.gate.lock().unwrap() = Some((parked_tx, release_rx));
        (parked, release)
    }
}

impl RecordSource for ParkingSource {
    fn get_many(&self, ids: &[RecordId]) -> Vec<tibpre_phr::Result<Arc<StoredRecord>>> {
        let gate = self.gate.lock().unwrap().take();
        if let Some((parked, release)) = gate {
            parked.send(()).unwrap();
            // A dropped sender (the test failed) releases the fetch too.
            let _ = release.recv();
        }
        RecordSource::get_many(&*self.inner, ids)
    }

    fn list_for_patient(&self, patient: &Identity) -> tibpre_phr::Result<Vec<RecordId>> {
        RecordSource::list_for_patient(&*self.inner, patient)
    }

    fn list_for_patient_category(
        &self,
        patient: &Identity,
        category: &Category,
    ) -> tibpre_phr::Result<Vec<RecordId>> {
        RecordSource::list_for_patient_category(&*self.inner, patient, category)
    }

    fn log_disclosures(&self, entries: &[(RecordId, Identity, bool)]) {
        let mut logged = self.logged.lock().unwrap();
        for (_, _, granted) in entries {
            logged.push(match granted {
                true => "DisclosurePerformed",
                false => "DisclosureDenied",
            });
        }
    }

    fn log_policy_change(&self, _: &Identity, _: &Category, _: &Identity, granted: bool) {
        self.logged.lock().unwrap().push(match granted {
            true => "AccessGranted",
            false => "AccessRevoked",
        });
    }
}

/// A run fetches its records before it takes the key lock: a revocation
/// issued while the run waits on the store returns at once, and the run,
/// released afterwards, is refused — after the revocation on both trails.
#[test]
fn a_revocation_does_not_wait_on_a_run_parked_in_its_fetch() {
    let mut rng = StdRng::seed_from_u64(0xFA14);
    let params = PairingParams::insecure_toy();
    let patient_kgc = Kgc::setup(params.clone(), "patients", &mut rng);
    let provider_kgc = Kgc::setup(params.clone(), "providers", &mut rng);
    let store = Arc::new(EncryptedPhrStore::in_memory_with_params("db", params));
    let mut alice = Patient::new("alice", &patient_kgc);
    let doctor = Identity::new("doctor");
    let record = HealthRecord::new(
        alice.identity().clone(),
        Category::LabResults,
        "cholesterol",
        b"LDL 95 mg/dL".to_vec(),
    );
    let id = alice.store_record(&store, &record, &mut rng).unwrap();
    let source = Arc::new(ParkingSource {
        inner: store,
        gate: Mutex::new(None),
        logged: Mutex::new(Vec::new()),
    });
    let mut proxy_service = ProxyService::new("proxy", source.clone());
    alice
        .grant_access(
            Category::LabResults,
            &doctor,
            provider_kgc.public_params(),
            &mut proxy_service,
            &mut rng,
        )
        .unwrap();
    let proxy_service = Arc::new(proxy_service);
    let (parked, release) = source.park_next_fetch();

    // A: one disclosure, parked inside its fetch.
    let a = {
        let (proxy, item) = (
            Arc::clone(&proxy_service),
            (alice.identity().clone(), id, doctor.clone()),
        );
        thread::spawn(move || proxy.disclose_batch(&[item]).pop().unwrap())
    };
    parked.recv().unwrap();

    // B: the revocation.  Were the fetch under the key lock, B would wait
    // for a release that only follows B's answer; the deadline turns that
    // deadlock into a failure instead of a hang.
    let (revoked_tx, revoked) = mpsc::channel();
    let b = {
        let (proxy, patient, doctor) = (
            Arc::clone(&proxy_service),
            alice.identity().clone(),
            doctor.clone(),
        );
        thread::spawn(move || {
            let removed = proxy.revoke_key(&patient, &Category::LabResults, &doctor);
            revoked_tx.send(removed).unwrap();
        })
    };
    let removed = revoked
        .recv_timeout(Duration::from_secs(60))
        .expect("revoke_key waited on a disclosure parked in its record fetch");
    assert!(removed);
    b.join().unwrap();

    release.send(()).unwrap();
    assert!(matches!(
        a.join().unwrap(),
        Err(PhrError::AccessDenied { .. })
    ));
    let proxy_trail: Vec<&str> = proxy_service
        .audit_snapshot()
        .iter()
        .map(|event| match event {
            AuditEvent::AccessGranted { .. } => "AccessGranted",
            AuditEvent::AccessRevoked { .. } => "AccessRevoked",
            AuditEvent::DisclosurePerformed { .. } => "DisclosurePerformed",
            AuditEvent::DisclosureDenied { .. } => "DisclosureDenied",
            other => panic!("unexpected proxy audit event {other:?}"),
        })
        .collect();
    let expected = ["AccessGranted", "AccessRevoked", "DisclosureDenied"];
    assert_eq!(proxy_trail, expected);
    assert_eq!(*source.logged.lock().unwrap(), expected);
}
