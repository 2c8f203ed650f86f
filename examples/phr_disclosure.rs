//! Fine-grained PHR disclosure (Section 5 of the paper).
//!
//! Alice categorises her personal health record, stores everything encrypted
//! at an outsourced store, and grants each caregiver access to exactly the
//! categories they need, each through a different proxy.  The example prints
//! who can read what, and shows the audit trail at the end.
//!
//! Run with: `cargo run --bin phr_disclosure`
//!
//! The same flow, assertion-checked on every `cargo test`, lives as the
//! crate-root doctest of `tibpre_phr`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tibpre_examples::{banner, human_bytes};
use tibpre_ibe::{Identity, Kgc};
use tibpre_pairing::PairingParams;
use tibpre_phr::{
    category::Category, patient::Patient, provider::HealthcareProvider,
    proxy_service::ProxyService, record::HealthRecord, store::EncryptedPhrStore, PhrError,
};

fn main() {
    let mut rng = StdRng::seed_from_u64(5);
    let params = PairingParams::insecure_toy();

    banner("Domains and infrastructure");
    let patient_kgc = Kgc::setup(params.clone(), "national-phr-kgc", &mut rng);
    let provider_kgc = Kgc::setup(params.clone(), "care-provider-kgc", &mut rng);
    let store = Arc::new(EncryptedPhrStore::in_memory_with_params(
        "outsourced-phr-store",
        params.clone(),
    ));
    let hospital_proxy = ProxyService::new("hospital-proxy", store.clone());
    let wellness_proxy = ProxyService::new("wellness-proxy", store.clone());
    println!("store: {store:?}");
    println!("proxies: {hospital_proxy:?}, {wellness_proxy:?}");

    banner("Alice fills her PHR");
    let mut alice = Patient::new("alice@phr.example", &patient_kgc);
    let records = vec![
        (
            Category::IllnessHistory,
            "2007 angioplasty",
            "stent placed in LAD, no complications",
        ),
        (
            Category::IllnessHistory,
            "hypertension",
            "diagnosed 2005, on lisinopril",
        ),
        (
            Category::Medication,
            "current prescriptions",
            "lisinopril 10mg, aspirin 80mg",
        ),
        (
            Category::FoodStatistics,
            "2008-W14 food diary",
            "2100 kcal/day average, low sodium",
        ),
        (Category::Emergency, "blood group", "O negative"),
        (Category::Emergency, "allergies", "penicillin"),
        (
            Category::MentalHealth,
            "therapy notes",
            "…strictly private…",
        ),
    ];
    let mut stored = Vec::new();
    for (category, title, body) in &records {
        let record = HealthRecord::new(
            alice.identity().clone(),
            category.clone(),
            *title,
            body.as_bytes().to_vec(),
        );
        let id = alice.store_record(&store, &record, &mut rng).unwrap();
        stored.push((id, category.clone(), title.to_string()));
        println!(
            "  stored {id} [{category}] '{title}' ({})",
            human_bytes(body.len())
        );
    }
    println!(
        "the store only ever sees ciphertexts: {} records",
        store.record_count()
    );

    banner("Care team");
    let cardiologist = Identity::new("dr.smith@heart-clinic.example");
    let dietician = Identity::new("j.doe@wellness.example");
    let cardiologist_provider = HealthcareProvider::new(provider_kgc.extract(&cardiologist));
    let dietician_provider = HealthcareProvider::new(provider_kgc.extract(&dietician));
    println!("cardiologist: {cardiologist}");
    println!("dietician   : {dietician}");

    banner("Alice's disclosure policy (one key pair, per-category grants)");
    alice
        .grant_access(
            Category::IllnessHistory,
            &cardiologist,
            provider_kgc.public_params(),
            &hospital_proxy,
            &mut rng,
        )
        .unwrap();
    alice
        .grant_access(
            Category::Medication,
            &cardiologist,
            provider_kgc.public_params(),
            &hospital_proxy,
            &mut rng,
        )
        .unwrap();
    alice
        .grant_access(
            Category::FoodStatistics,
            &dietician,
            provider_kgc.public_params(),
            &wellness_proxy,
            &mut rng,
        )
        .unwrap();
    for grant in alice.policy().grants() {
        println!(
            "  grant: {} → {} via {}",
            grant.category, grant.grantee, grant.proxy
        );
    }

    banner("Disclosures");
    for (id, category, title) in &stored {
        let attempt = |proxy: &ProxyService, provider: &HealthcareProvider| {
            proxy
                .disclose(alice.identity(), *id, provider.identity())
                .map(|bundle| provider.open(&bundle).unwrap())
        };
        match attempt(&hospital_proxy, &cardiologist_provider) {
            Ok(rec) => println!(
                "  cardiologist read {id} [{category}] '{title}': \"{}\"",
                String::from_utf8_lossy(&rec.body)
            ),
            Err(PhrError::AccessDenied { .. }) => {
                println!("  cardiologist DENIED on {id} [{category}] '{title}'")
            }
            Err(e) => println!("  cardiologist error on {id}: {e}"),
        }
        match attempt(&wellness_proxy, &dietician_provider) {
            Ok(rec) => println!(
                "  dietician    read {id} [{category}] '{title}': \"{}\"",
                String::from_utf8_lossy(&rec.body)
            ),
            Err(PhrError::AccessDenied { .. }) => {
                println!("  dietician    DENIED on {id} [{category}] '{title}'")
            }
            Err(e) => println!("  dietician    error on {id}: {e}"),
        }
    }

    banner("Alice reads her own mental-health notes directly");
    let mental_ids = store.list_for_patient_category(alice.identity(), &Category::MentalHealth);
    let own = alice.read_own_record(&store, mental_ids[0]).unwrap();
    println!(
        "  '{}' -> \"{}\"",
        own.title,
        String::from_utf8_lossy(&own.body)
    );

    banner("Revocation");
    alice
        .revoke_access(&Category::Medication, &cardiologist, &hospital_proxy)
        .unwrap();
    let medication_id = stored
        .iter()
        .find(|(_, c, _)| *c == Category::Medication)
        .map(|(id, _, _)| *id)
        .unwrap();
    match hospital_proxy.disclose(alice.identity(), medication_id, &cardiologist) {
        Err(PhrError::AccessDenied { .. }) => {
            println!("  medication access revoked: further requests are denied ✓")
        }
        other => println!("  unexpected: {other:?}"),
    }

    banner("Audit trail (store)");
    for event in store.audit_snapshot() {
        println!("  {event:?}");
    }
}
