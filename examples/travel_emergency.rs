//! The paper's travelling / emergency scenario (Section 5, step 2).
//!
//! "If Alice wishes to travel to the US, she can find a proxy there and store
//! her encrypted PHR data for the emergency case (type t3) there.  Then if
//! Alice needs emergency help in the US, the PHR data can be disclosed on
//! demand by the proxy."
//!
//! The example provisions exactly that, triggers an emergency, shows that the
//! US emergency team obtains only the emergency data set, and finally lets
//! Alice revoke the access after the trip.
//!
//! Run with: `cargo run --bin travel_emergency`
//!
//! The same flow, assertion-checked on every `cargo test`, lives as the
//! module doctest of `tibpre_phr::emergency`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tibpre_examples::banner;
use tibpre_ibe::{Identity, Kgc};
use tibpre_pairing::PairingParams;
use tibpre_phr::{
    category::Category,
    emergency::{emergency_disclosure, provision_travel_access, standard_emergency_titles},
    patient::Patient,
    provider::HealthcareProvider,
    proxy_service::ProxyService,
    record::HealthRecord,
    store::EncryptedPhrStore,
    PhrError,
};

fn main() {
    let mut rng = StdRng::seed_from_u64(1492);
    let params = PairingParams::insecure_toy();

    banner("Domains");
    let dutch_kgc = Kgc::setup(params.clone(), "nl-phr-kgc", &mut rng);
    let us_kgc = Kgc::setup(params.clone(), "us-provider-kgc", &mut rng);
    println!("Alice's KGC (NL) and the US provider KGC share public parameters only.");

    banner("Before the trip");
    let us_store = Arc::new(EncryptedPhrStore::in_memory_with_params(
        "us-hospital-store",
        params.clone(),
    ));
    let us_proxy = ProxyService::new("us-hospital-proxy", us_store.clone());
    let mut alice = Patient::new("alice@nl-phr.example", &dutch_kgc);

    // Alice mirrors the standing emergency data set to the US store.
    for title in standard_emergency_titles() {
        let record = HealthRecord::new(
            alice.identity().clone(),
            Category::Emergency,
            title,
            format!("[{title}] — see wallet card").into_bytes(),
        );
        let id = alice.store_record(&us_store, &record, &mut rng).unwrap();
        println!("  mirrored emergency record {id}: '{title}'");
    }
    // She also happens to keep some non-emergency data in the same store.
    let oncology = HealthRecord::new(
        alice.identity().clone(),
        Category::IllnessHistory,
        "oncology follow-up",
        b"remission since 2006".to_vec(),
    );
    let oncology_id = alice.store_record(&us_store, &oncology, &mut rng).unwrap();
    println!("  also stored illness-history record {oncology_id} (NOT for emergencies)");

    let er_team = Identity::new("er-team@us-hospital.example");
    let er_provider = HealthcareProvider::new(us_kgc.extract(&er_team));
    provision_travel_access(
        &mut alice,
        &er_team,
        us_kgc.public_params(),
        &us_proxy,
        &mut rng,
    )
    .unwrap();
    println!(
        "  emergency access provisioned for {er_team} via {}",
        us_proxy.name()
    );

    banner("Emergency in the US");
    let disclosed = emergency_disclosure(&us_proxy, alice.identity(), &er_provider).unwrap();
    println!(
        "the emergency team obtained {} records on demand:",
        disclosed.len()
    );
    for record in &disclosed {
        println!(
            "  [{}] {} -> \"{}\"",
            record.category,
            record.title,
            String::from_utf8_lossy(&record.body)
        );
    }
    // The oncology record stays sealed, even though it sits in the same store
    // behind the same proxy.
    match us_proxy.disclose(alice.identity(), oncology_id, &er_team) {
        Err(PhrError::AccessDenied { .. }) => {
            println!("the illness-history record remained sealed ✓")
        }
        other => println!("unexpected: {other:?}"),
    }

    banner("After the trip");
    alice
        .revoke_access(&Category::Emergency, &er_team, &us_proxy)
        .unwrap();
    match emergency_disclosure(&us_proxy, alice.identity(), &er_provider) {
        Err(PhrError::AccessDenied { .. }) => println!("access revoked; the proxy now refuses ✓"),
        other => println!("unexpected: {other:?}"),
    }

    banner("Audit trail kept by the US store");
    for event in us_store.audit_snapshot() {
        println!("  {event:?}");
    }
}
