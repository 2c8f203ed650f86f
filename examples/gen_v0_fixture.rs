//! One-shot generator of the golden legacy-format store fixture.
//!
//! This binary was run **once, at the PR-4 tree** (commit `e2b7967`, before
//! `tibpre-wire` existed), to produce `tests/fixtures/v0-store`: a durable
//! PHR store plus a proxy WAL in the pre-envelope byte formats.  The
//! committed fixture is the artifact; the source is kept for provenance
//! and as documentation of exactly what the fixture contains (the
//! deterministic seeds here are what `tests/tests/format_compat.rs` uses
//! to re-derive the key material and decrypt the fixture's records).
//!
//! Running it against the *current* tree would serialize in the current
//! default format and therefore NOT reproduce a v0 fixture — so it refuses
//! to overwrite an existing fixture directory.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tibpre_core::Delegator;
use tibpre_ibe::{Identity, Kgc};
use tibpre_pairing::PairingParams;
use tibpre_phr::category::Category;
use tibpre_phr::durable::Durability;
use tibpre_phr::proxy_service::ProxyService;
use tibpre_phr::store::EncryptedPhrStore;
use tibpre_storage::FsyncPolicy;

fn main() {
    let out = std::path::PathBuf::from("tests/fixtures/v0-store");
    if out.exists() {
        eprintln!(
            "refusing to overwrite {}: the golden fixture must stay in the \
             legacy format it was generated in (see the module docs)",
            out.display()
        );
        std::process::exit(1);
    }
    std::fs::create_dir_all(&out).unwrap();

    let params = PairingParams::insecure_toy();
    let mut rng = StdRng::seed_from_u64(4242);
    let patient_kgc = Kgc::setup(params.clone(), "patients", &mut rng);
    let provider_kgc = Kgc::setup(params.clone(), "providers", &mut rng);

    let alice = Identity::new("alice@phr.example");
    let bob = Identity::new("bob@phr.example");
    let doctor = Identity::new("dr.smith@clinic.example");
    let alice_keys = Delegator::new(
        patient_kgc.public_params().clone(),
        patient_kgc.extract(&alice),
    );
    let bob_keys = Delegator::new(
        patient_kgc.public_params().clone(),
        patient_kgc.extract(&bob),
    );

    let durability = Durability::new(params.clone())
        .shards(2)
        .fsync(FsyncPolicy::Never)
        .snapshot_every(3);
    let store = Arc::new(EncryptedPhrStore::open(out.join("store"), durability.clone()).unwrap());

    let payloads: [(&Delegator, &Identity, Category, &str, &[u8]); 6] = [
        (
            &alice_keys,
            &alice,
            Category::Emergency,
            "blood-type",
            b"O-; allergies: penicillin",
        ),
        (
            &alice_keys,
            &alice,
            Category::IllnessHistory,
            "2007",
            b"angioplasty",
        ),
        (
            &alice_keys,
            &alice,
            Category::FoodStatistics,
            "diet",
            b"low sodium",
        ),
        (&bob_keys, &bob, Category::Emergency, "blood-type", b"AB+"),
        (&bob_keys, &bob, Category::LabResults, "lipids", b"ldl 130"),
        (
            &alice_keys,
            &alice,
            Category::Emergency,
            "implant",
            b"pacemaker model X",
        ),
    ];
    let mut ids = Vec::new();
    for (keys, patient, category, title, body) in payloads {
        let aad = format!("{}|{}|{}", patient.display(), category.label(), title);
        let ct = keys.encrypt_bytes(body, aad.as_bytes(), &category.type_tag(), &mut rng);
        ids.push(store.put(patient, &category, title, ct));
    }
    // A delete, so recovery must not resurrect the record.
    store.delete(ids[2], &alice).unwrap();

    // A durable proxy with one active and one revoked grant.
    let proxy = ProxyService::open(
        "fixture-proxy",
        store.clone(),
        out.join("proxy"),
        &durability,
    )
    .unwrap();
    let rk_emergency = alice_keys
        .make_reencryption_key(
            &doctor,
            provider_kgc.public_params(),
            &Category::Emergency.type_tag(),
            &mut rng,
        )
        .unwrap();
    let rk_illness = alice_keys
        .make_reencryption_key(
            &doctor,
            provider_kgc.public_params(),
            &Category::IllnessHistory.type_tag(),
            &mut rng,
        )
        .unwrap();
    proxy.install_key(rk_emergency);
    proxy.install_key(rk_illness);
    proxy.revoke_key(&alice, &Category::IllnessHistory, &doctor);
    proxy.disclose(&alice, ids[0], &doctor).unwrap();

    store.sync().unwrap();
    println!("fixture written to {}", out.display());
    println!("record ids: {ids:?}");
}
