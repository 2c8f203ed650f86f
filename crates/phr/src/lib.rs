//! Fine-grained Personal Health Record (PHR) disclosure — Section 5 of the paper.
//!
//! The paper's healthcare scenario: a patient (Alice) owns her PHR, stores it
//! *encrypted* at third parties she only partially trusts, and wants to
//! disclose each category of data (illness history, food statistics, emergency
//! data, …) to different parties through different proxies — such that a
//! corrupted proxy or storage server can expose at most the one category it
//! was entrusted with.
//!
//! This crate builds that application on top of `tibpre-core`:
//!
//! * [`category`] — the record categories, mapped to the scheme's type tags,
//! * [`record`] — plaintext health records and their metadata,
//! * [`store`] — an encrypted record store (the "database" the patient
//!   outsources storage to): sharded for concurrency, indexed by patient and
//!   category, with an append-only audit log,
//! * [`patient`] — the patient agent: encrypts records, manages her disclosure
//!   policy, issues and revokes re-encryption keys,
//! * [`policy`] — the disclosure policy (category → grantees → proxy),
//! * [`proxy_service`] — per-category proxy services that transform
//!   ciphertexts on request and log every disclosure,
//! * [`provider`] — healthcare providers (delegatees) who receive and decrypt
//!   re-encrypted records,
//! * [`audit`] — the audit-trail types shared by the store and the proxies,
//! * [`emergency`] — the paper's travelling / emergency-access scenario,
//! * [`durable`] — the optional write-ahead-log + snapshot backend that
//!   makes stores and proxies survive restarts and crashes
//!   ([`EncryptedPhrStore::open`], [`ProxyService::open`]).
//!
//! The store keeps records *wire-resident*: shards hold validated encoded
//! bytes (shared with the WAL frame that persisted them, or held in a
//! loaded snapshot) and decode lazily through a small per-shard cache of
//! hot records — see the private `resident` module and `ARCHITECTURE.md`.
//!
//! # Example
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//! use tibpre_ibe::{Identity, Kgc};
//! use tibpre_pairing::PairingParams;
//! use tibpre_phr::category::Category;
//! use tibpre_phr::patient::Patient;
//! use tibpre_phr::provider::HealthcareProvider;
//! use tibpre_phr::proxy_service::ProxyService;
//! use tibpre_phr::record::HealthRecord;
//! use tibpre_phr::store::EncryptedPhrStore;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let params = PairingParams::insecure_toy();
//! let patient_kgc = Kgc::setup(params.clone(), "patients", &mut rng);
//! let provider_kgc = Kgc::setup(params.clone(), "providers", &mut rng);
//!
//! // Alice, her encrypted store, and one proxy for her illness history.
//! let store = Arc::new(EncryptedPhrStore::in_memory_with_params("phr-db", params));
//! let mut alice = Patient::new("alice@phr.example", &patient_kgc);
//! let proxy = ProxyService::new("hospital-proxy", store.clone());
//!
//! // Her cardiologist is a delegatee in the provider domain.
//! let cardiologist = Identity::new("dr.smith@heart.example");
//! let provider = HealthcareProvider::new(provider_kgc.extract(&cardiologist));
//!
//! // Store an encrypted record and grant access to the illness-history category.
//! let record = HealthRecord::new(
//!     alice.identity().clone(),
//!     Category::IllnessHistory,
//!     "2007 angioplasty",
//!     b"stent placed in LAD, no complications".to_vec(),
//! );
//! let record_id = alice.store_record(&store, &record, &mut rng).unwrap();
//! alice
//!     .grant_access(
//!         Category::IllnessHistory,
//!         &cardiologist,
//!         provider_kgc.public_params(),
//!         &proxy,
//!         &mut rng,
//!     )
//!     .unwrap();
//!
//! // The cardiologist requests the record through the proxy and decrypts it.
//! let disclosed = proxy
//!     .disclose(alice.identity(), record_id, &cardiologist)
//!     .unwrap();
//! let plaintext = provider.open(&disclosed).unwrap();
//! assert_eq!(plaintext.body, record.body);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod category;
pub mod durable;
pub mod emergency;
pub mod error;
pub(crate) mod legacy;
pub mod patient;
pub mod policy;
pub mod provider;
pub mod proxy_service;
pub mod record;
pub(crate) mod resident;
pub mod source;
pub mod store;

pub use audit::AuditEvent;
pub use category::Category;
pub use durable::Durability;
pub use error::PhrError;
pub use patient::Patient;
pub use policy::DisclosurePolicy;
pub use provider::HealthcareProvider;
pub use proxy_service::ProxyService;
pub use record::{HealthRecord, RecordId};
pub use source::RecordSource;
pub use store::EncryptedPhrStore;
pub use tibpre_storage::FsyncPolicy;

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, PhrError>;
