//! Healthcare providers — the delegatees of the PHR scenario.

use crate::proxy_service::DisclosureBundle;
use crate::record::{DisclosedRecord, HealthRecord};
use crate::{PhrError, Result};
use tibpre_core::Delegatee;
use tibpre_ibe::{IbePrivateKey, Identity};

/// A healthcare provider (doctor, dietician, emergency team, …) holding a key
/// extracted by *their own* KGC (the paper's `KGC2`).
pub struct HealthcareProvider {
    delegatee: Delegatee,
}

impl HealthcareProvider {
    /// Wraps the provider's extracted private key.
    pub fn new(private_key: IbePrivateKey) -> Self {
        HealthcareProvider {
            delegatee: Delegatee::new(private_key),
        }
    }

    /// The provider's identity.
    pub fn identity(&self) -> &Identity {
        self.delegatee.identity()
    }

    /// The underlying delegatee (exposed for the benchmark harness).
    pub fn delegatee(&self) -> &Delegatee {
        &self.delegatee
    }

    /// Opens a disclosure bundle received from a proxy.
    pub fn open(&self, bundle: &DisclosureBundle) -> Result<DisclosedRecord> {
        let aad = HealthRecord::associated_data(&bundle.patient, &bundle.category, &bundle.title);
        let body = self
            .delegatee
            .decrypt_bytes(&bundle.ciphertext, &aad)
            .map_err(PhrError::Pre)?;
        Ok(DisclosedRecord {
            id: bundle.id,
            patient: bundle.patient.clone(),
            category: bundle.category.clone(),
            title: bundle.title.clone(),
            body,
        })
    }
}

impl core::fmt::Debug for HealthcareProvider {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "HealthcareProvider(identity={})", self.identity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::Category;
    use crate::patient::Patient;
    use crate::proxy_service::ProxyService;
    use crate::store::EncryptedPhrStore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use tibpre_ibe::Kgc;
    use tibpre_pairing::PairingParams;

    #[test]
    fn provider_opens_entitled_bundles_and_detects_metadata_tampering() {
        let mut rng = StdRng::seed_from_u64(161);
        let params = PairingParams::insecure_toy();
        let patient_kgc = Kgc::setup(params.clone(), "patients", &mut rng);
        let provider_kgc = Kgc::setup(params.clone(), "providers", &mut rng);
        let store = Arc::new(EncryptedPhrStore::in_memory_with_params("db", params));
        let proxy = ProxyService::new("proxy", store.clone());
        let mut alice = Patient::new("alice", &patient_kgc);
        let doctor = Identity::new("doctor");
        let provider = HealthcareProvider::new(provider_kgc.extract(&doctor));
        assert_eq!(provider.identity(), &doctor);

        let record = HealthRecord::new(
            alice.identity().clone(),
            Category::Medication,
            "rx-2008-03",
            b"metformin 500mg".to_vec(),
        );
        let id = alice.store_record(&store, &record, &mut rng).unwrap();
        alice
            .grant_access(
                Category::Medication,
                &doctor,
                provider_kgc.public_params(),
                &proxy,
                &mut rng,
            )
            .unwrap();
        let bundle = proxy.disclose(alice.identity(), id, &doctor).unwrap();
        let opened = provider.open(&bundle).unwrap();
        assert_eq!(opened.body, b"metformin 500mg");

        // If the proxy (or the store) tampers with the bundle metadata, the
        // AEAD associated data no longer matches and decryption fails.
        let mut forged = bundle.clone();
        forged.title = "rx-2008-04".to_string();
        assert!(provider.open(&forged).is_err());
        let mut forged = bundle.clone();
        forged.category = Category::Emergency;
        assert!(provider.open(&forged).is_err());
        let mut forged = bundle;
        forged.patient = Identity::new("mallory");
        assert!(provider.open(&forged).is_err());
    }
}
