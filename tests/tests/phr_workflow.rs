//! Healthcare-workflow integration tests spanning `tibpre-phr`, `tibpre-core`
//! and the substrates: multiple patients, several proxies and providers,
//! auditability, and the proxy-compromise containment claim.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use tibpre_ibe::{Identity, Kgc};
use tibpre_pairing::PairingParams;
use tibpre_phr::{
    audit::AuditEvent, category::Category, patient::Patient, provider::HealthcareProvider,
    proxy_service::ProxyService, record::HealthRecord, store::EncryptedPhrStore, Durability,
    PhrError, RecordSource,
};
use tibpre_storage::TempDir;
use tibpre_wire::WireEncode;

struct Clinic {
    patient_kgc: Kgc,
    provider_kgc: Kgc,
    store: Arc<EncryptedPhrStore>,
    rng: StdRng,
}

fn clinic(seed: u64) -> Clinic {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = PairingParams::insecure_toy();
    let patient_kgc = Kgc::setup(params.clone(), "patients", &mut rng);
    let provider_kgc = Kgc::setup(params.clone(), "providers", &mut rng);
    Clinic {
        patient_kgc,
        provider_kgc,
        store: Arc::new(EncryptedPhrStore::in_memory_with_params(
            "regional-phr-store",
            params,
        )),
        rng,
    }
}

fn add_record(
    clinic: &mut Clinic,
    patient: &Patient,
    category: Category,
    title: &str,
    body: &str,
) -> tibpre_phr::RecordId {
    let record = HealthRecord::new(
        patient.identity().clone(),
        category,
        title,
        body.as_bytes().to_vec(),
    );
    patient
        .store_record(&clinic.store, &record, &mut clinic.rng)
        .unwrap()
}

#[test]
fn multi_patient_multi_provider_workflow() {
    let mut c = clinic(1);
    let mut alice = Patient::new("alice@phr.example", &c.patient_kgc);
    let mut bob = Patient::new("bob@phr.example", &c.patient_kgc);

    let cardiologist = Identity::new("cardiologist@clinic");
    let dietician = Identity::new("dietician@wellness");
    let cardiologist_provider = HealthcareProvider::new(c.provider_kgc.extract(&cardiologist));
    let dietician_provider = HealthcareProvider::new(c.provider_kgc.extract(&dietician));

    let hospital_proxy = ProxyService::new("hospital-proxy", c.store.clone());
    let wellness_proxy = ProxyService::new("wellness-proxy", c.store.clone());

    // Records for both patients across categories.
    let alice_illness = add_record(&mut c, &alice, Category::IllnessHistory, "angina", "stable");
    let alice_diet = add_record(
        &mut c,
        &alice,
        Category::FoodStatistics,
        "diary",
        "2100 kcal",
    );
    let bob_illness = add_record(&mut c, &bob, Category::IllnessHistory, "asthma", "mild");

    // Alice shares illness history with the cardiologist, diet with the dietician.
    let pp = c.provider_kgc.public_params().clone();
    alice
        .grant_access(
            Category::IllnessHistory,
            &cardiologist,
            &pp,
            &hospital_proxy,
            &mut c.rng,
        )
        .unwrap();
    alice
        .grant_access(
            Category::FoodStatistics,
            &dietician,
            &pp,
            &wellness_proxy,
            &mut c.rng,
        )
        .unwrap();
    // Bob shares nothing.

    // Entitled requests succeed.
    let bundle = hospital_proxy
        .disclose(alice.identity(), alice_illness, &cardiologist)
        .unwrap();
    assert_eq!(cardiologist_provider.open(&bundle).unwrap().body, b"stable");
    let bundle = wellness_proxy
        .disclose(alice.identity(), alice_diet, &dietician)
        .unwrap();
    assert_eq!(dietician_provider.open(&bundle).unwrap().body, b"2100 kcal");

    // Cross-category and cross-patient requests fail.
    assert!(matches!(
        hospital_proxy.disclose(alice.identity(), alice_diet, &cardiologist),
        Err(PhrError::AccessDenied { .. })
    ));
    assert!(matches!(
        hospital_proxy.disclose(bob.identity(), bob_illness, &cardiologist),
        Err(PhrError::AccessDenied { .. })
    ));
    // Asking the wrong proxy for an otherwise-entitled record also fails
    // (the wellness proxy never received the illness-history key).
    assert!(matches!(
        wellness_proxy.disclose(alice.identity(), alice_illness, &cardiologist),
        Err(PhrError::AccessDenied { .. })
    ));

    // Each patient reads their own data directly.
    assert_eq!(
        alice.read_own_record(&c.store, alice_diet).unwrap().body,
        b"2100 kcal"
    );
    assert_eq!(
        bob.read_own_record(&c.store, bob_illness).unwrap().body,
        b"mild"
    );
    // But not each other's.
    assert!(bob.read_own_record(&c.store, alice_illness).is_err());

    // Bob later decides to share his illness history with the cardiologist too.
    bob.grant_access(
        Category::IllnessHistory,
        &cardiologist,
        &pp,
        &hospital_proxy,
        &mut c.rng,
    )
    .unwrap();
    let bundle = hospital_proxy
        .disclose(bob.identity(), bob_illness, &cardiologist)
        .unwrap();
    assert_eq!(cardiologist_provider.open(&bundle).unwrap().body, b"mild");

    // Policy bookkeeping matches.
    assert_eq!(alice.policy().grant_count(), 2);
    assert_eq!(bob.policy().grant_count(), 1);
    assert_eq!(hospital_proxy.key_count(), 2);
    assert_eq!(wellness_proxy.key_count(), 1);
}

#[test]
fn audit_trail_is_complete_and_ordered() {
    let mut c = clinic(2);
    let mut alice = Patient::new("alice", &c.patient_kgc);
    let doctor = Identity::new("doctor");
    let provider = HealthcareProvider::new(c.provider_kgc.extract(&doctor));
    let proxy = ProxyService::new("proxy", c.store.clone());
    let pp = c.provider_kgc.public_params().clone();

    let id = add_record(&mut c, &alice, Category::Medication, "rx", "aspirin");
    // Denied request (before grant), then grant, disclose, revoke.
    assert!(proxy.disclose(alice.identity(), id, &doctor).is_err());
    alice
        .grant_access(Category::Medication, &doctor, &pp, &proxy, &mut c.rng)
        .unwrap();
    let bundle = proxy.disclose(alice.identity(), id, &doctor).unwrap();
    assert_eq!(provider.open(&bundle).unwrap().body, b"aspirin");
    alice
        .revoke_access(&Category::Medication, &doctor, &proxy)
        .unwrap();

    let audit = c.store.audit_snapshot();
    // Stored, denied, granted, disclosed, revoked — in that order.
    let kinds: Vec<&'static str> = audit
        .iter()
        .map(|e| match e.as_ref() {
            AuditEvent::RecordStored { .. } => "stored",
            AuditEvent::RecordDeleted { .. } => "deleted",
            AuditEvent::AccessGranted { .. } => "granted",
            AuditEvent::AccessRevoked { .. } => "revoked",
            AuditEvent::DisclosurePerformed { .. } => "disclosed",
            AuditEvent::DisclosureDenied { .. } => "denied",
        })
        .collect();
    assert_eq!(
        kinds,
        vec!["stored", "denied", "granted", "disclosed", "revoked"]
    );
    for pair in audit.windows(2) {
        assert!(pair[0].at() < pair[1].at());
    }
    // The proxy kept its own trail of the disclosure decisions.
    let proxy_audit = proxy.audit_snapshot();
    assert!(proxy_audit
        .iter()
        .any(|e| matches!(e, AuditEvent::DisclosurePerformed { .. })));
    assert!(proxy_audit
        .iter()
        .any(|e| matches!(e, AuditEvent::DisclosureDenied { .. })));
}

#[test]
fn proxy_compromise_is_contained_to_delegated_categories() {
    // Quantified version of the paper's Section 5 argument, mirroring
    // experiment E6: corrupting one per-category proxy exposes only that
    // category's records.
    let mut c = clinic(3);
    let mut alice = Patient::new("alice", &c.patient_kgc);
    let categories = [
        Category::IllnessHistory,
        Category::FoodStatistics,
        Category::Emergency,
        Category::LabResults,
    ];
    let records_per_category = 3usize;
    for category in &categories {
        for i in 0..records_per_category {
            add_record(
                &mut c,
                &alice,
                category.clone(),
                &format!("{category} #{i}"),
                "secret",
            );
        }
    }

    // One proxy and one grantee per category.
    let pp = c.provider_kgc.public_params().clone();
    let mut proxies = Vec::new();
    let mut grantees = Vec::new();
    for category in &categories {
        let grantee = Identity::new(format!("provider-{category}"));
        let proxy = ProxyService::new(format!("proxy-{category}"), c.store.clone());
        alice
            .grant_access(category.clone(), &grantee, &pp, &proxy, &mut c.rng)
            .unwrap();
        proxies.push(proxy);
        grantees.push(grantee);
    }

    let total = c.store.count_for_patient(alice.identity());
    assert_eq!(total, categories.len() * records_per_category);

    // Compromise each proxy in turn: the breach is always exactly one category.
    for (proxy, grantee) in proxies.iter().zip(&grantees) {
        let exposed = proxy.simulate_compromise(alice.identity(), grantee);
        assert_eq!(exposed.len(), records_per_category);
    }
    // A compromised proxy plus a grantee it does NOT serve exposes nothing.
    let exposed = proxies[0].simulate_compromise(alice.identity(), &grantees[1]);
    assert!(exposed.is_empty());
}

#[test]
fn simulate_compromise_edge_cases() {
    // The containment claim's boundary conditions: no keys, an empty
    // delegated category, an unknown patient, and a revoked grant must all
    // expose exactly nothing.
    let mut c = clinic(17);
    let mut alice = Patient::new("alice", &c.patient_kgc);
    add_record(&mut c, &alice, Category::IllnessHistory, "angio", "2007");
    let pp = c.provider_kgc.public_params().clone();
    let proxy = ProxyService::new("proxy", c.store.clone());
    let dietician = Identity::new("dietician");

    // A key-less proxy exposes nothing, whoever the attacker colludes with.
    assert!(proxy
        .simulate_compromise(alice.identity(), &dietician)
        .is_empty());

    // A grant for a category the patient has NO records in: still nothing.
    alice
        .grant_access(
            Category::FoodStatistics,
            &dietician,
            &pp,
            &proxy,
            &mut c.rng,
        )
        .unwrap();
    assert!(proxy
        .simulate_compromise(alice.identity(), &dietician)
        .is_empty());

    // Records arrive in the delegated category: the breach is exactly those.
    let id = add_record(
        &mut c,
        &alice,
        Category::FoodStatistics,
        "diary",
        "low sodium",
    );
    assert_eq!(
        proxy.simulate_compromise(alice.identity(), &dietician),
        vec![id]
    );
    // An unknown patient yields nothing, delegated key or not.
    assert!(proxy
        .simulate_compromise(&Identity::new("nobody"), &dietician)
        .is_empty());

    // After revocation the same collusion exposes nothing again — the
    // revoked-rekey edge: the key is gone from the proxy, not merely unused.
    alice
        .revoke_access(&Category::FoodStatistics, &dietician, &proxy)
        .unwrap();
    assert_eq!(proxy.key_count(), 0);
    assert!(proxy
        .simulate_compromise(alice.identity(), &dietician)
        .is_empty());
}

#[test]
fn emergency_disclosure_edge_cases() {
    use tibpre_phr::emergency::{emergency_disclosure, provision_travel_access};

    let mut c = clinic(18);
    let mut alice = Patient::new("alice", &c.patient_kgc);
    let team_id = Identity::new("er-team");
    let team = HealthcareProvider::new(c.provider_kgc.extract(&team_id));
    let pp = c.provider_kgc.public_params().clone();
    let proxy = ProxyService::new("er-proxy", c.store.clone());

    // Empty category: provisioning succeeds, but a disclosure against zero
    // emergency records reports RecordNotFound (records in *other*
    // categories must not leak into the answer).
    add_record(&mut c, &alice, Category::IllnessHistory, "angio", "2007");
    provision_travel_access(&mut alice, &team_id, &pp, &proxy, &mut c.rng).unwrap();
    assert!(matches!(
        emergency_disclosure(&proxy, alice.identity(), &team),
        Err(PhrError::RecordNotFound)
    ));

    // With emergency records present the disclosure works...
    add_record(&mut c, &alice, Category::Emergency, "blood group", "O-");
    let disclosed = emergency_disclosure(&proxy, alice.identity(), &team).unwrap();
    assert_eq!(disclosed.len(), 1);
    assert_eq!(disclosed[0].body, b"O-".to_vec());

    // ...and a revoked rekey turns it back into AccessDenied, even though
    // the records are still in the store.
    alice
        .revoke_access(&Category::Emergency, &team_id, &proxy)
        .unwrap();
    assert!(matches!(
        emergency_disclosure(&proxy, alice.identity(), &team),
        Err(PhrError::AccessDenied { .. })
    ));
    // Re-provisioning restores access (grant → revoke → grant is a normal
    // travel pattern, not a conflict).
    provision_travel_access(&mut alice, &team_id, &pp, &proxy, &mut c.rng).unwrap();
    assert_eq!(
        emergency_disclosure(&proxy, alice.identity(), &team)
            .unwrap()
            .len(),
        1
    );
}

#[test]
fn large_record_bodies_survive_the_full_path() {
    let mut c = clinic(4);
    let mut alice = Patient::new("alice", &c.patient_kgc);
    let radiologist = Identity::new("radiologist");
    let provider = HealthcareProvider::new(c.provider_kgc.extract(&radiologist));
    let proxy = ProxyService::new("imaging-proxy", c.store.clone());
    let pp = c.provider_kgc.public_params().clone();

    // A 256 KiB "imaging" payload.
    let body: Vec<u8> = (0..256 * 1024).map(|i| (i * 31 % 251) as u8).collect();
    let record = HealthRecord::new(
        alice.identity().clone(),
        Category::Custom("imaging".into()),
        "chest x-ray 2008-02",
        body.clone(),
    );
    let id = alice.store_record(&c.store, &record, &mut c.rng).unwrap();
    alice
        .grant_access(
            Category::Custom("imaging".into()),
            &radiologist,
            &pp,
            &proxy,
            &mut c.rng,
        )
        .unwrap();
    let bundle = proxy.disclose(alice.identity(), id, &radiologist).unwrap();
    let disclosed = provider.open(&bundle).unwrap();
    assert_eq!(disclosed.body, body);
    assert_eq!(disclosed.title, "chest x-ray 2008-02");
}

/// Files a record under `category` whose header was encrypted under another
/// type — what a buggy or malicious uploader can leave in the store.
fn add_mislabelled(
    clinic: &mut Clinic,
    patient: &Patient,
    category: Category,
) -> tibpre_phr::RecordId {
    let aad = HealthRecord::associated_data(patient.identity(), &category, "mislabelled");
    let foreign_header = patient.delegator().encrypt_bytes(
        b"filed under the wrong type",
        &aad,
        &Category::Medication.type_tag(),
        &mut clinic.rng,
    );
    clinic
        .store
        .put(patient.identity(), &category, "mislabelled", foreign_header)
}

/// One request of a disclosure run: `(patient, record, requester)`.
type Item = (Identity, tibpre_phr::RecordId, Identity);

/// A result reduced to what can be compared across runs: the bundle's wire
/// bytes, or the error.
type Outcome = Result<Vec<u8>, PhrError>;

/// A deterministic clinic whose request mix takes every branch of a
/// disclosure: two patients and two providers (three different keys,
/// interleaved), a category nobody was granted, an id that belongs to
/// another patient, an id that does not exist, and a record filed under a
/// granted category whose header was encrypted under another type.
fn mixed_clinic(proxy_dir: Option<&Path>) -> (Arc<EncryptedPhrStore>, ProxyService, Vec<Item>) {
    let mut c = clinic(31);
    let mut alice = Patient::new("alice", &c.patient_kgc);
    let mut bob = Patient::new("bob", &c.patient_kgc);
    let cardiologist = Identity::new("cardiologist");
    let dietician = Identity::new("dietician");
    let proxy = match proxy_dir {
        Some(dir) => ProxyService::open(
            "mixed",
            c.store.clone(),
            dir,
            &Durability::new(PairingParams::insecure_toy()),
        )
        .unwrap(),
        None => ProxyService::new("mixed", c.store.clone()),
    };

    let a1 = add_record(&mut c, &alice, Category::IllnessHistory, "angina", "stable");
    let a2 = add_record(&mut c, &alice, Category::IllnessHistory, "flu", "2008");
    let a_food = add_record(&mut c, &alice, Category::FoodStatistics, "diary", "kcal");
    let b1 = add_record(&mut c, &bob, Category::IllnessHistory, "asthma", "mild");
    let odd = add_mislabelled(&mut c, &alice, Category::IllnessHistory);

    let pp = c.provider_kgc.public_params().clone();
    let mut grant = |patient: &mut Patient, category, grantee| {
        patient
            .grant_access(category, grantee, &pp, &proxy, &mut c.rng)
            .unwrap();
    };
    grant(&mut alice, Category::IllnessHistory, &cardiologist);
    grant(&mut bob, Category::IllnessHistory, &cardiologist);
    grant(&mut alice, Category::FoodStatistics, &dietician);

    let (alice, bob) = (alice.identity().clone(), bob.identity().clone());
    let items = vec![
        (alice.clone(), a1, cardiologist.clone()), // granted, alice's key
        (bob.clone(), b1, cardiologist.clone()),   // granted, bob's key
        (alice.clone(), a_food, cardiologist.clone()), // no key
        (alice.clone(), a2, cardiologist.clone()), // alice's key again
        (alice.clone(), b1, cardiologist.clone()), // someone else's id
        (
            alice.clone(),
            tibpre_phr::RecordId(9_999),
            cardiologist.clone(),
        ), // no such id
        (alice.clone(), odd, cardiologist.clone()), // header type is not the key's
        (bob, b1, cardiologist),                   // bob's key again
        (alice, a_food, dietician),                // a third key
    ];
    (c.store.clone(), proxy, items)
}

/// Runs the mixed clinic's requests cut into runs of the given sizes (a run
/// of one goes through `disclose`) and returns the results and both audit
/// trails.  With a directory the proxy is durable, and its trail is the one
/// a reopen recovers.
fn run_cut(
    cuts: &[usize],
    proxy_dir: Option<&Path>,
) -> (Vec<Outcome>, Vec<AuditEvent>, Vec<AuditEvent>) {
    let (store, proxy, items) = mixed_clinic(proxy_dir);
    assert_eq!(cuts.iter().sum::<usize>(), items.len());
    let mut outcomes = Vec::new();
    let mut rest = &items[..];
    for &cut in cuts {
        let (run, tail) = rest.split_at(cut);
        rest = tail;
        let results = match run {
            [(patient, id, requester)] => vec![proxy.disclose(patient, *id, requester)],
            _ => proxy.disclose_batch(run),
        };
        assert_eq!(results.len(), run.len());
        outcomes.extend(
            results
                .into_iter()
                .map(|result| result.map(|bundle| bundle.to_wire_bytes())),
        );
    }
    let mut proxy_trail = proxy.audit_snapshot();
    if let Some(dir) = proxy_dir {
        drop(proxy);
        let durability = Durability::new(PairingParams::insecure_toy());
        let reopened = ProxyService::open("mixed", store.clone(), dir, &durability).unwrap();
        assert_eq!(reopened.audit_snapshot(), proxy_trail);
        proxy_trail = reopened.audit_snapshot();
    }
    let store_trail = store
        .audit_snapshot()
        .iter()
        .map(|event| (**event).clone())
        .collect();
    (outcomes, proxy_trail, store_trail)
}

#[test]
fn disclosure_is_invariant_under_batch_splitting() {
    let whole = run_cut(&[9], None);
    // The mix really takes every branch.
    let kinds: Vec<&str> = whole
        .0
        .iter()
        .map(|outcome| match outcome {
            Ok(_) => "granted",
            Err(PhrError::AccessDenied { .. }) => "no key",
            Err(PhrError::RecordNotFound) => "not found",
            Err(PhrError::Pre(_)) => "refused",
            Err(_) => "other",
        })
        .collect();
    assert_eq!(
        kinds,
        [
            "granted",
            "granted",
            "no key",
            "granted",
            "not found",
            "not found",
            "refused",
            "granted",
            "granted"
        ]
    );
    let denials = |trail: &[AuditEvent]| {
        trail
            .iter()
            .filter(|e| matches!(e, AuditEvent::DisclosureDenied { .. }))
            .count()
    };
    // No key and refused are denials in both trails; someone else's id is
    // logged by the store only; a missing id by nobody.
    assert_eq!(denials(&whole.1), 2);
    assert_eq!(denials(&whole.2), 3);

    for cuts in [&[4, 1, 2, 2][..], &[2, 7], &[1; 9]] {
        assert_eq!(run_cut(cuts, None), whole, "cuts {cuts:?}");
    }

    // A durable proxy logs the same trail, and recovers it, however the
    // requests were cut.
    for cuts in [&[9][..], &[3, 3, 3], &[1; 9]] {
        let dir = TempDir::new("phr-workflow-split").unwrap();
        assert_eq!(run_cut(cuts, Some(dir.path())), whole, "cuts {cuts:?}");
    }
}

/// A `RecordSource` that counts the calls a proxy makes and, at each
/// disclosure-log run, notes how long the proxy's own log already is.
struct CountingSource {
    inner: Arc<EncryptedPhrStore>,
    proxy_wal: PathBuf,
    fetch_runs: AtomicUsize,
    log_runs: AtomicUsize,
    proxy_wal_len_at_log: AtomicU64,
}

impl RecordSource for CountingSource {
    fn get_many(
        &self,
        ids: &[tibpre_phr::RecordId],
    ) -> Vec<tibpre_phr::Result<Arc<tibpre_phr::store::StoredRecord>>> {
        self.fetch_runs.fetch_add(1, Ordering::SeqCst);
        self.inner.get_many(ids)
    }

    fn list_for_patient(
        &self,
        patient: &Identity,
    ) -> tibpre_phr::Result<Vec<tibpre_phr::RecordId>> {
        RecordSource::list_for_patient(&*self.inner, patient)
    }

    fn list_for_patient_category(
        &self,
        patient: &Identity,
        category: &Category,
    ) -> tibpre_phr::Result<Vec<tibpre_phr::RecordId>> {
        RecordSource::list_for_patient_category(&*self.inner, patient, category)
    }

    fn log_disclosures(&self, entries: &[(tibpre_phr::RecordId, Identity, bool)]) {
        self.log_runs.fetch_add(1, Ordering::SeqCst);
        let len = std::fs::metadata(&self.proxy_wal).unwrap().len();
        self.proxy_wal_len_at_log.store(len, Ordering::SeqCst);
        self.inner.log_disclosures(entries)
    }

    fn log_policy_change(
        &self,
        patient: &Identity,
        category: &Category,
        grantee: &Identity,
        granted: bool,
    ) {
        RecordSource::log_policy_change(&*self.inner, patient, category, grantee, granted)
    }
}

#[test]
fn category_disclosure_is_one_fetch_one_commit_one_log_run() {
    let mut c = clinic(32);
    let mut alice = Patient::new("alice", &c.patient_kgc);
    let team = Identity::new("er-team");
    let dir = TempDir::new("phr-workflow-category").unwrap();
    let source = Arc::new(CountingSource {
        inner: c.store.clone(),
        proxy_wal: tibpre_phr::durable::proxy_wal_path(dir.path(), "er-proxy"),
        fetch_runs: AtomicUsize::new(0),
        log_runs: AtomicUsize::new(0),
        proxy_wal_len_at_log: AtomicU64::new(0),
    });
    let durability = Durability::new(PairingParams::insecure_toy());
    let proxy = ProxyService::open("er-proxy", source.clone(), dir.path(), &durability).unwrap();
    let ids: Vec<_> = (0..4)
        .map(|i| {
            add_record(
                &mut c,
                &alice,
                Category::Emergency,
                &format!("entry {i}"),
                "O-",
            )
        })
        .collect();
    let wal_len = || std::fs::metadata(&source.proxy_wal).unwrap().len();
    let calls = || {
        (
            source.fetch_runs.swap(0, Ordering::SeqCst),
            source.log_runs.swap(0, Ordering::SeqCst),
        )
    };
    let disclosure_events = |trail: Vec<AuditEvent>| -> Vec<(tibpre_phr::RecordId, bool)> {
        trail
            .iter()
            .filter_map(|event| match event {
                AuditEvent::DisclosurePerformed { id, .. } => Some((*id, true)),
                AuditEvent::DisclosureDenied { id, .. } => Some((*id, false)),
                _ => None,
            })
            .collect()
    };
    let store_events = |c: &Clinic| {
        disclosure_events(
            c.store
                .audit_snapshot()
                .iter()
                .map(|event| (**event).clone())
                .collect(),
        )
    };

    // Nobody was granted anything yet: refused whole, and the denial names
    // the first record.
    assert!(matches!(
        proxy.disclose_category(alice.identity(), &Category::Emergency, &team),
        Err(PhrError::AccessDenied { .. })
    ));
    assert_eq!(calls(), (1, 1));
    assert_eq!(disclosure_events(proxy.audit_snapshot()), [(ids[0], false)]);
    assert_eq!(store_events(&c), [(ids[0], false)]);

    // Granted: the four records cost one fetch run, one proxy-log commit
    // (every frame is on disk before the one store-side log run starts) and
    // one log run; both trails name every record, in order.
    let pp = c.provider_kgc.public_params().clone();
    alice
        .grant_access(Category::Emergency, &team, &pp, &proxy, &mut c.rng)
        .unwrap();
    let before = wal_len();
    let bundles = proxy
        .disclose_category(alice.identity(), &Category::Emergency, &team)
        .unwrap();
    assert_eq!(bundles.iter().map(|b| b.id).collect::<Vec<_>>(), ids);
    assert_eq!(calls(), (1, 1));
    assert!(wal_len() > before);
    assert_eq!(
        source.proxy_wal_len_at_log.load(Ordering::SeqCst),
        wal_len()
    );
    let mut expected = vec![(ids[0], false)];
    expected.extend(ids.iter().map(|id| (*id, true)));
    assert_eq!(disclosure_events(proxy.audit_snapshot()), expected);
    assert_eq!(store_events(&c), expected);

    // One record whose header is of another type refuses the whole request;
    // the denial names that record and nothing else is logged.
    let odd = add_mislabelled(&mut c, &alice, Category::Emergency);
    add_record(&mut c, &alice, Category::Emergency, "entry 5", "O-");
    assert!(matches!(
        proxy.disclose_category(alice.identity(), &Category::Emergency, &team),
        Err(PhrError::Pre(_))
    ));
    assert_eq!(calls(), (1, 1));
    expected.push((odd, false));
    assert_eq!(disclosure_events(proxy.audit_snapshot()), expected);
    assert_eq!(store_events(&c), expected);
}
