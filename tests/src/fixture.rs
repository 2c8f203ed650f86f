//! One seeded world of scheme artifacts, the input of the digest suites.
//!
//! [`World::new`] runs the whole scheme once from a fixed
//! `StdRng::seed_from_u64` seed: Setup of two KGCs, Extract for a patient
//! and a provider, Encrypt under two types, Pextract, Preenc, Decrypt1 and
//! the provider's decryption, one hybrid record stored and disclosed through
//! an in-memory [`ProxyService`], and `hash_to_g1` of fixed strings.  Every
//! value is a deterministic function of the parameter set, so a digest of
//! any artifact moves only when the scheme's output moves.
//! `scheme_digests` pins the artifacts themselves; `protocol_frames` builds
//! its golden protocol frames from the same world.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tibpre_core::{
    proxy, Delegatee, Delegator, HybridCiphertext, ReEncryptedCiphertext, ReEncryptionKey,
    TypedCiphertext,
};
use tibpre_ibe::{IbePrivateKey, IbePublicParams, Identity, Kgc};
use tibpre_pairing::{G1Affine, Gt, PairingParams};
use tibpre_phr::proxy_service::DisclosureBundle;
use tibpre_phr::store::StoredRecord;
use tibpre_phr::{AuditEvent, Category, EncryptedPhrStore, HealthRecord, ProxyService};

/// The seed every artifact is drawn from.
pub const SEED: u64 = 0x5EED_D16E_5715;

/// The strings hashed to `G1`.
pub const HASHED: [&str; 2] = ["alice", "tibpre-fixture"];

/// The hybrid record's title.
pub const TITLE: &str = "blood type";
/// The hybrid record's plaintext.
pub const PLAINTEXT: &[u8] = b"AB negative";

/// Every artifact of one run of the scheme at one parameter level.
pub struct World {
    /// The patient's identity (the delegator).
    pub alice: Identity,
    /// The provider's identity (the delegatee).
    pub doctor: Identity,
    /// KGC1's public parameters (patients' domain).
    pub patients: IbePublicParams,
    /// KGC2's public parameters (providers' domain).
    pub providers: IbePublicParams,
    /// `Extract` for the patient in KGC1.
    pub alice_key: IbePrivateKey,
    /// `Extract` for the provider in KGC2.
    pub doctor_key: IbePrivateKey,
    /// The target-group message encrypted under both types.
    pub message: Gt,
    /// `Encrypt1(message)` under `Emergency` and under `Medication`.
    pub typed: [TypedCiphertext; 2],
    /// `Pextract` for the provider and the `Emergency` type.
    pub rekey: ReEncryptionKey,
    /// `Preenc` of `typed[0]` with `rekey`.
    pub reencrypted: ReEncryptedCiphertext,
    /// `Decrypt1` of `typed[1]` by the patient.
    pub decrypted_by_owner: Gt,
    /// The provider's decryption of `reencrypted`.
    pub decrypted_by_delegatee: Gt,
    /// A hybrid `Emergency` record over [`PLAINTEXT`].
    pub hybrid: HybridCiphertext,
    /// The hybrid record as the store holds it.
    pub record: StoredRecord,
    /// The hybrid record disclosed to the provider by an in-memory proxy.
    pub bundle: DisclosureBundle,
    /// The provider's plaintext of `bundle`.
    pub opened: Vec<u8>,
    /// The store's audit trail after the upload and the disclosure.
    pub audit: Vec<AuditEvent>,
    /// `hash_to_g1` of each of [`HASHED`] under the `H1` domain.
    pub hashes: Vec<G1Affine>,
}

impl World {
    /// Runs the scheme at `params` from [`SEED`].
    pub fn new(params: Arc<PairingParams>) -> World {
        let mut rng = StdRng::seed_from_u64(SEED);
        let patients_kgc = Kgc::setup(params.clone(), "patients", &mut rng);
        let providers_kgc = Kgc::setup(params.clone(), "providers", &mut rng);
        let (alice, doctor) = (Identity::new("alice"), Identity::new("doctor"));
        let alice_key = patients_kgc.extract(&alice);
        let doctor_key = providers_kgc.extract(&doctor);
        let delegator = Delegator::new(patients_kgc.public_params().clone(), alice_key.clone());
        let delegatee = Delegatee::new(doctor_key.clone());

        let message = params.random_gt(&mut rng);
        let types = [Category::Emergency, Category::Medication].map(|c| c.type_tag());
        let typed = types
            .clone()
            .map(|t| delegator.encrypt_typed(&message, &t, &mut rng));
        let rekey = delegator
            .make_reencryption_key(&doctor, providers_kgc.public_params(), &types[0], &mut rng)
            .expect("Pextract");
        let reencrypted = proxy::re_encrypt(&typed[0], &rekey).expect("Preenc");
        let decrypted_by_owner = delegator.decrypt_typed(&typed[1]).expect("Decrypt1");
        let decrypted_by_delegatee = delegatee
            .decrypt_reencrypted(&reencrypted)
            .expect("delegatee decryption");

        let category = Category::Emergency;
        let aad = HealthRecord::associated_data(&alice, &category, TITLE);
        let hybrid = delegator.encrypt_bytes(PLAINTEXT, &aad, &category.type_tag(), &mut rng);
        let store = Arc::new(EncryptedPhrStore::in_memory_with_params(
            "fixture",
            params.clone(),
        ));
        let id = store.put(&alice, &category, TITLE, hybrid.clone());
        let record = StoredRecord::clone(&store.get(id).expect("stored record"));
        let mut proxy_service = ProxyService::new("fixture", store.clone());
        proxy_service.install_key(rekey.clone());
        let bundle = proxy_service
            .disclose(&alice, id, &doctor)
            .expect("disclosure");
        let opened = delegatee
            .decrypt_bytes(&bundle.ciphertext, &aad)
            .expect("provider opens the bundle");
        let audit = store
            .audit_snapshot()
            .iter()
            .map(|e| (**e).clone())
            .collect();

        let hashes = HASHED
            .iter()
            .map(|s| {
                params
                    .hash_to_g1(tibpre_ibe::H1_DOMAIN, &[s.as_bytes()])
                    .expect("hash to G1")
            })
            .collect();

        World {
            alice,
            doctor,
            patients: patients_kgc.public_params().clone(),
            providers: providers_kgc.public_params().clone(),
            alice_key,
            doctor_key,
            message,
            typed,
            rekey,
            reencrypted,
            decrypted_by_owner,
            decrypted_by_delegatee,
            hybrid,
            record,
            bundle,
            opened,
            audit,
            hashes,
        }
    }
}
