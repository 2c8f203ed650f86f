//! The patient agent: owns the delegator key pair, encrypts records, and
//! manages her disclosure policy.

use crate::category::Category;
use crate::policy::DisclosurePolicy;
use crate::proxy_service::ProxyService;
use crate::record::{DisclosedRecord, HealthRecord, RecordId};
use crate::store::EncryptedPhrStore;
use crate::{PhrError, Result};
use rand::{CryptoRng, RngCore};
use tibpre_core::Delegator;
use tibpre_ibe::{IbePublicParams, Identity, Kgc};

/// A patient: the owner (and delegator) of a personal health record.
pub struct Patient {
    delegator: Delegator,
    policy: DisclosurePolicy,
}

impl Patient {
    /// Registers a patient at her KGC (the paper's `KGC1`) and extracts her
    /// single key pair.
    pub fn new(identity: impl AsRef<str>, kgc: &Kgc) -> Self {
        let id = Identity::new(identity);
        Patient {
            delegator: Delegator::new(kgc.public_params().clone(), kgc.extract(&id)),
            policy: DisclosurePolicy::new(),
        }
    }

    /// The patient's identity.
    pub fn identity(&self) -> &Identity {
        self.delegator.identity()
    }

    /// The underlying delegator (exposed for the benchmark harness).
    pub fn delegator(&self) -> &Delegator {
        &self.delegator
    }

    /// The patient's current disclosure policy.
    pub fn policy(&self) -> &DisclosurePolicy {
        &self.policy
    }

    /// Encrypts a record under its category's type tag and stores it.
    ///
    /// The record's patient field must be the patient herself — she is the only
    /// party able to run `Encrypt1` under her identity.
    pub fn store_record<R: RngCore + CryptoRng>(
        &self,
        store: &EncryptedPhrStore,
        record: &HealthRecord,
        rng: &mut R,
    ) -> Result<RecordId> {
        if &record.patient != self.identity() {
            return Err(PhrError::PolicyConflict(
                "a patient can only store records she owns",
            ));
        }
        let ciphertext = self.delegator.encrypt_bytes(
            &record.body,
            &record.aad(),
            &record.category.type_tag(),
            rng,
        );
        Ok(store.put(&record.patient, &record.category, &record.title, ciphertext))
    }

    /// Reads back and decrypts one of her own records directly (no proxy involved).
    pub fn read_own_record(
        &self,
        store: &EncryptedPhrStore,
        id: RecordId,
    ) -> Result<DisclosedRecord> {
        let stored = store.get(id)?;
        if &stored.patient != self.identity() {
            return Err(PhrError::AccessDenied {
                category: stored.category.label(),
                requester: self.identity().display(),
            });
        }
        let aad = HealthRecord::associated_data(&stored.patient, &stored.category, &stored.title);
        let body = self
            .delegator
            .decrypt_bytes(&stored.ciphertext, &aad)
            .map_err(PhrError::Pre)?;
        Ok(DisclosedRecord {
            id: stored.id,
            patient: stored.patient.clone(),
            category: stored.category.clone(),
            title: stored.title.clone(),
            body,
        })
    }

    /// Grants a healthcare provider access to one category: creates the
    /// re-encryption key (`Pextract`), installs it at the chosen proxy, and
    /// records the grant in the local policy.
    pub fn grant_access<R: RngCore + CryptoRng>(
        &mut self,
        category: Category,
        grantee: &Identity,
        grantee_domain: &IbePublicParams,
        proxy: &ProxyService,
        rng: &mut R,
    ) -> Result<()> {
        if self.policy.is_granted(&category, grantee)
            && proxy.has_grant(self.identity(), &category, grantee)
        {
            return Err(PhrError::PolicyConflict("this grant already exists"));
        }
        let rekey = self
            .delegator
            .make_reencryption_key(grantee, grantee_domain, &category.type_tag(), rng)
            .map_err(PhrError::Pre)?;
        proxy.install_key(rekey);
        self.policy
            .add_grant(category, grantee.clone(), proxy.name());
        Ok(())
    }

    /// Revokes a previously granted delegation: removes the key from the proxy
    /// and the grant from the policy.
    pub fn revoke_access(
        &mut self,
        category: &Category,
        grantee: &Identity,
        proxy: &ProxyService,
    ) -> Result<()> {
        let removed_from_proxy = proxy.revoke_key(self.identity(), category, grantee);
        let removed_from_policy = self.policy.remove_grant(category, grantee, proxy.name());
        if removed_from_proxy || removed_from_policy {
            Ok(())
        } else {
            Err(PhrError::PolicyConflict("no such grant to revoke"))
        }
    }
}

impl core::fmt::Debug for Patient {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Patient(identity={}, grants={})",
            self.identity(),
            self.policy.grant_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy_service::ProxyService;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use tibpre_ibe::Kgc;
    use tibpre_pairing::PairingParams;

    struct Fixture {
        patient_kgc: Kgc,
        provider_kgc: Kgc,
        store: Arc<EncryptedPhrStore>,
        rng: StdRng,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(151);
        let params = PairingParams::insecure_toy();
        Fixture {
            patient_kgc: Kgc::setup(params.clone(), "patients", &mut rng),
            provider_kgc: Kgc::setup(params.clone(), "providers", &mut rng),
            store: Arc::new(EncryptedPhrStore::in_memory_with_params("db", params)),
            rng,
        }
    }

    #[test]
    fn store_and_read_own_records() {
        let mut f = fixture();
        let alice = Patient::new("alice", &f.patient_kgc);
        let record = HealthRecord::new(
            alice.identity().clone(),
            Category::Vaccinations,
            "tetanus booster",
            b"2008-01-15".to_vec(),
        );
        let id = alice.store_record(&f.store, &record, &mut f.rng).unwrap();
        let read = alice.read_own_record(&f.store, id).unwrap();
        assert_eq!(read.body, b"2008-01-15");
        assert_eq!(read.category, Category::Vaccinations);
        assert_eq!(read.title, "tetanus booster");
        assert_eq!(read.id, id);
    }

    #[test]
    fn cannot_store_records_for_someone_else() {
        let mut f = fixture();
        let alice = Patient::new("alice", &f.patient_kgc);
        let foreign = HealthRecord::new(
            Identity::new("bob"),
            Category::Emergency,
            "not mine",
            b"x".to_vec(),
        );
        assert!(matches!(
            alice.store_record(&f.store, &foreign, &mut f.rng),
            Err(PhrError::PolicyConflict(_))
        ));
    }

    #[test]
    fn cannot_read_other_patients_records() {
        let mut f = fixture();
        let alice = Patient::new("alice", &f.patient_kgc);
        let bob = Patient::new("bob", &f.patient_kgc);
        let record = HealthRecord::new(
            alice.identity().clone(),
            Category::LabResults,
            "glucose",
            b"5.1 mmol/L".to_vec(),
        );
        let id = alice.store_record(&f.store, &record, &mut f.rng).unwrap();
        assert!(matches!(
            bob.read_own_record(&f.store, id),
            Err(PhrError::AccessDenied { .. })
        ));
    }

    #[test]
    fn grant_updates_policy_and_proxy() {
        let mut f = fixture();
        let mut alice = Patient::new("alice", &f.patient_kgc);
        let proxy = ProxyService::new("proxy", f.store.clone());
        let doctor = Identity::new("doctor");

        assert_eq!(alice.policy().grant_count(), 0);
        alice
            .grant_access(
                Category::Medication,
                &doctor,
                f.provider_kgc.public_params(),
                &proxy,
                &mut f.rng,
            )
            .unwrap();
        assert_eq!(alice.policy().grant_count(), 1);
        assert!(alice.policy().is_granted(&Category::Medication, &doctor));
        assert!(proxy.has_grant(alice.identity(), &Category::Medication, &doctor));
        assert_eq!(proxy.key_count(), 1);

        alice
            .revoke_access(&Category::Medication, &doctor, &proxy)
            .unwrap();
        assert_eq!(alice.policy().grant_count(), 0);
        assert!(!proxy.has_grant(alice.identity(), &Category::Medication, &doctor));
        assert_eq!(proxy.key_count(), 0);
    }

    #[test]
    fn duplicate_grant_is_a_conflict_and_missing_revoke_is_an_error() {
        let mut f = fixture();
        let mut alice = Patient::new("alice", &f.patient_kgc);
        let proxy = ProxyService::new("proxy", f.store.clone());
        let doctor = Identity::new("doctor");
        alice
            .grant_access(
                Category::Emergency,
                &doctor,
                f.provider_kgc.public_params(),
                &proxy,
                &mut f.rng,
            )
            .unwrap();
        assert!(matches!(
            alice.grant_access(
                Category::Emergency,
                &doctor,
                f.provider_kgc.public_params(),
                &proxy,
                &mut f.rng,
            ),
            Err(PhrError::PolicyConflict(_))
        ));
        assert!(alice
            .revoke_access(&Category::LabResults, &doctor, &proxy)
            .is_err());
    }
}
