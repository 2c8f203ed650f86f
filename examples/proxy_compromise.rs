//! Proxy compromise: what does an attacker actually get?
//!
//! The paper's central security argument (Section 1.1 and Section 5) is that a
//! corrupted proxy — or a proxy colluding with the delegatee it serves — can
//! expose at most the categories whose re-encryption keys it holds.  This
//! example makes that concrete by simulating the same compromise against
//!
//! 1. the **type-and-identity-based scheme** (one proxy per category), and
//! 2. the **identity-only PRE baseline** (one key converts everything),
//!
//! and counting how many of the patient's records each attacker can recover.
//!
//! Run with: `cargo run --bin proxy_compromise`
//!
//! The same containment claim, assertion-checked on every `cargo test`,
//! lives as the doctest on `tibpre_phr::ProxyService::simulate_compromise`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tibpre_core::Delegatee;
use tibpre_examples::banner;
use tibpre_examples::baseline::identity_pre;
use tibpre_ibe::{Identity, Kgc};
use tibpre_pairing::PairingParams;
use tibpre_phr::{
    category::Category, patient::Patient, proxy_service::ProxyService, record::HealthRecord,
    store::EncryptedPhrStore,
};

fn main() {
    let mut rng = StdRng::seed_from_u64(13);
    let params = PairingParams::insecure_toy();
    let patient_kgc = Kgc::setup(params.clone(), "patients", &mut rng);
    let provider_kgc = Kgc::setup(params.clone(), "providers", &mut rng);

    let categories = [
        Category::IllnessHistory,
        Category::Medication,
        Category::LabResults,
        Category::FoodStatistics,
        Category::Emergency,
    ];
    let records_per_category = 4usize;

    banner("Scenario");
    println!(
        "Alice stores {} records in {} categories; the attacker fully corrupts the proxy \
         serving the 'food-statistics' grantee.",
        records_per_category * categories.len(),
        categories.len()
    );

    // ---------------------------------------------------------------- TIB-PRE
    banner("Type-and-identity-based PRE (this paper)");
    let store = Arc::new(EncryptedPhrStore::in_memory_with_params(
        "phr-store",
        params.clone(),
    ));
    let mut alice = Patient::new("alice@phr.example", &patient_kgc);
    // One proxy per category, as the paper suggests.
    let proxies: Vec<ProxyService> = categories
        .iter()
        .map(|c| ProxyService::new(format!("proxy-{c}"), store.clone()))
        .collect();

    for category in &categories {
        for i in 0..records_per_category {
            let record = HealthRecord::new(
                alice.identity().clone(),
                category.clone(),
                format!("{category} #{i}"),
                format!("secret payload {category}/{i}").into_bytes(),
            );
            alice.store_record(&store, &record, &mut rng).unwrap();
        }
    }

    // Each category is granted to a different provider via its own proxy.
    let grantees: Vec<Identity> = categories
        .iter()
        .map(|c| Identity::new(format!("provider-for-{c}@example")))
        .collect();
    for ((category, grantee), proxy) in categories.iter().zip(&grantees).zip(proxies.iter()) {
        alice
            .grant_access(
                category.clone(),
                grantee,
                provider_kgc.public_params(),
                proxy,
                &mut rng,
            )
            .unwrap();
    }

    // The attacker corrupts the proxy holding the food-statistics key and also
    // controls that category's grantee (worst case: full collusion).
    let corrupted_index = categories
        .iter()
        .position(|c| *c == Category::FoodStatistics)
        .unwrap();
    let corrupted_proxy = &proxies[corrupted_index];
    let colluding_grantee = &grantees[corrupted_index];
    let exposed = corrupted_proxy.simulate_compromise(alice.identity(), colluding_grantee);
    let total = store.count_for_patient(alice.identity());
    println!(
        "records exposed: {} / {}  ({:.0}%)",
        exposed.len(),
        total,
        100.0 * exposed.len() as f64 / total as f64
    );
    println!("only the corrupted category leaks; every other category stays sealed ✓");

    // ------------------------------------------------- identity-only baseline
    banner("Identity-only PRE baseline (no types)");
    println!(
        "With a traditional IBE-PRE there is a single re-encryption key for the \
         delegatee; the corrupted proxy can convert every ciphertext."
    );
    let delegator = identity_pre::IdentityPreDelegator::new(
        patient_kgc.public_params().clone(),
        patient_kgc.extract(&Identity::new("alice@phr.example")),
    );
    let colluder = Identity::new("colluding-provider@example");
    let colluder_key = provider_kgc.extract(&colluder);
    let rk = delegator
        .make_reencryption_key(&colluder, provider_kgc.public_params(), &mut rng)
        .unwrap();

    let mut exposed_baseline = 0usize;
    let total_baseline = records_per_category * categories.len();
    let delegatee = Delegatee::new(colluder_key);
    for category in &categories {
        for i in 0..records_per_category {
            let secret = params.random_gt(&mut rng);
            let ct = delegator.encrypt(&secret, &mut rng);
            let converted = identity_pre::re_encrypt(&ct, &rk);
            if delegatee.decrypt_reencrypted(&converted).unwrap() == secret {
                exposed_baseline += 1;
            }
            let _ = (category, i);
        }
    }
    println!(
        "records exposed: {} / {}  ({:.0}%)",
        exposed_baseline,
        total_baseline,
        100.0 * exposed_baseline as f64 / total_baseline as f64
    );

    banner("Conclusion");
    println!(
        "TIB-PRE contains the breach to one category ({}/{} records); the identity-only \
         baseline loses everything ({}/{}).  This is Figure-3-style evidence for the paper's claim.",
        exposed.len(),
        total,
        exposed_baseline,
        total_baseline
    );
}
