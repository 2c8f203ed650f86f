//! The travelling / emergency-access scenario of Section 5.
//!
//! The paper's example: before travelling, Alice finds a proxy in the country
//! she visits, stores (or mirrors) her *emergency* category there and installs
//! a re-encryption key for the local emergency service.  If something happens,
//! the emergency team obtains exactly that category on demand — and nothing
//! else, even if the foreign proxy is later found to be corrupt.
//!
//! The whole trip, end to end (the `travel_emergency` example binary walks
//! the same flow with narration):
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//! use tibpre_ibe::{Identity, Kgc};
//! use tibpre_pairing::PairingParams;
//! use tibpre_phr::category::Category;
//! use tibpre_phr::emergency::{emergency_disclosure, provision_travel_access};
//! use tibpre_phr::patient::Patient;
//! use tibpre_phr::provider::HealthcareProvider;
//! use tibpre_phr::proxy_service::ProxyService;
//! use tibpre_phr::record::HealthRecord;
//! use tibpre_phr::store::EncryptedPhrStore;
//! use tibpre_phr::PhrError;
//!
//! let mut rng = StdRng::seed_from_u64(1492);
//! let params = PairingParams::insecure_toy();
//! let dutch_kgc = Kgc::setup(params.clone(), "nl-phr-kgc", &mut rng);
//! let us_kgc = Kgc::setup(params.clone(), "us-provider-kgc", &mut rng);
//!
//! // Before the trip: Alice mirrors her emergency data to a US store and
//! // provisions access for the US emergency service through a local proxy.
//! let us_store = Arc::new(EncryptedPhrStore::in_memory_with_params("us-mirror", params.clone()));
//! let us_proxy = ProxyService::new("us-proxy", us_store.clone());
//! let mut alice = Patient::new("alice@phr.example", &dutch_kgc);
//! let record = HealthRecord::new(
//!     alice.identity().clone(),
//!     Category::Emergency,
//!     "blood group",
//!     b"O negative".to_vec(),
//! );
//! alice.store_record(&us_store, &record, &mut rng).unwrap();
//!
//! let team_id = Identity::new("er@us-hospital.example");
//! let team = HealthcareProvider::new(us_kgc.extract(&team_id));
//! provision_travel_access(
//!     &mut alice,
//!     &team_id,
//!     us_kgc.public_params(),
//!     &us_proxy,
//!     &mut rng,
//! )
//! .unwrap();
//!
//! // The emergency: the team pulls exactly the emergency category.
//! let disclosed = emergency_disclosure(&us_proxy, alice.identity(), &team).unwrap();
//! assert_eq!(disclosed.len(), 1);
//! assert_eq!(disclosed[0].body, b"O negative");
//!
//! // After the trip: revocation closes the capability again.
//! alice
//!     .revoke_access(&Category::Emergency, &team_id, &us_proxy)
//!     .unwrap();
//! assert!(matches!(
//!     emergency_disclosure(&us_proxy, alice.identity(), &team),
//!     Err(PhrError::AccessDenied { .. })
//! ));
//! ```

use crate::category::Category;
use crate::patient::Patient;
use crate::provider::HealthcareProvider;
use crate::proxy_service::ProxyService;
use crate::record::DisclosedRecord;
use crate::{PhrError, Result};
use rand::{CryptoRng, RngCore};
use tibpre_ibe::{IbePublicParams, Identity};

/// The standing emergency data set the paper suggests keeping available:
/// blood group, allergies, current medication, emergency contact.
pub fn standard_emergency_titles() -> Vec<&'static str> {
    vec![
        "blood group",
        "allergies",
        "current medication",
        "emergency contact",
    ]
}

/// Provisions emergency access for a trip: grants the destination's emergency
/// team access to the [`Category::Emergency`] records through the local proxy.
pub fn provision_travel_access<R: RngCore + CryptoRng>(
    patient: &mut Patient,
    emergency_team: &Identity,
    team_domain: &IbePublicParams,
    local_proxy: &ProxyService,
    rng: &mut R,
) -> Result<()> {
    patient.grant_access(
        Category::Emergency,
        emergency_team,
        team_domain,
        local_proxy,
        rng,
    )
}

/// Executes an emergency disclosure: the team requests every emergency record
/// of the patient through the proxy and decrypts them.
///
/// Fails with [`PhrError::AccessDenied`] if access was never provisioned (or
/// has been revoked), and with [`PhrError::RecordNotFound`] if the patient has
/// no emergency records at the proxy's store.
pub fn emergency_disclosure(
    proxy: &ProxyService,
    patient: &Identity,
    team: &HealthcareProvider,
) -> Result<Vec<DisclosedRecord>> {
    let bundles = proxy.disclose_category(patient, &Category::Emergency, team.identity())?;
    if bundles.is_empty() {
        return Err(PhrError::RecordNotFound);
    }
    bundles.iter().map(|b| team.open(b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::HealthRecord;
    use crate::store::EncryptedPhrStore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use tibpre_ibe::Kgc;
    use tibpre_pairing::PairingParams;

    #[test]
    fn travel_scenario_end_to_end() {
        let mut rng = StdRng::seed_from_u64(141);
        let params = PairingParams::insecure_toy();
        let patient_kgc = Kgc::setup(params.clone(), "nl-patients", &mut rng);
        let us_kgc = Kgc::setup(params.clone(), "us-providers", &mut rng);

        let us_store = Arc::new(EncryptedPhrStore::in_memory_with_params(
            "us-hospital-db",
            params.clone(),
        ));
        let us_proxy = ProxyService::new("us-proxy", us_store.clone());

        let mut alice = Patient::new("alice@nl.example", &patient_kgc);
        let er_team = Identity::new("er-team@us-hospital.example");
        let er_provider = HealthcareProvider::new(us_kgc.extract(&er_team));

        // Alice mirrors her emergency data set to the US store before the trip.
        for title in standard_emergency_titles() {
            let record = HealthRecord::new(
                alice.identity().clone(),
                Category::Emergency,
                title,
                format!("value of {title}").into_bytes(),
            );
            alice.store_record(&us_store, &record, &mut rng).unwrap();
        }
        // She also keeps an illness-history record there — which must stay sealed.
        let private = HealthRecord::new(
            alice.identity().clone(),
            Category::IllnessHistory,
            "oncology notes",
            b"not for the ER".to_vec(),
        );
        alice.store_record(&us_store, &private, &mut rng).unwrap();

        // Before provisioning, the ER team gets nothing.
        assert!(matches!(
            emergency_disclosure(&us_proxy, alice.identity(), &er_provider),
            Err(PhrError::AccessDenied { .. })
        ));

        provision_travel_access(
            &mut alice,
            &er_team,
            us_kgc.public_params(),
            &us_proxy,
            &mut rng,
        )
        .unwrap();

        // Emergency: the team recovers exactly the emergency data set.
        let records = emergency_disclosure(&us_proxy, alice.identity(), &er_provider).unwrap();
        assert_eq!(records.len(), standard_emergency_titles().len());
        for record in &records {
            assert_eq!(record.category, Category::Emergency);
            assert!(record.body.starts_with(b"value of"));
        }

        // The illness-history record remains inaccessible through this proxy.
        let illness_ids =
            us_store.list_for_patient_category(alice.identity(), &Category::IllnessHistory);
        assert_eq!(illness_ids.len(), 1);
        assert!(matches!(
            us_proxy.disclose(alice.identity(), illness_ids[0], &er_team),
            Err(PhrError::AccessDenied { .. })
        ));

        // After the trip Alice revokes the grant; further requests fail.
        alice
            .revoke_access(&Category::Emergency, &er_team, &us_proxy)
            .unwrap();
        assert!(matches!(
            emergency_disclosure(&us_proxy, alice.identity(), &er_provider),
            Err(PhrError::AccessDenied { .. })
        ));
    }

    #[test]
    fn emergency_disclosure_without_records_reports_not_found() {
        let mut rng = StdRng::seed_from_u64(142);
        let params = PairingParams::insecure_toy();
        let patient_kgc = Kgc::setup(params.clone(), "patients", &mut rng);
        let provider_kgc = Kgc::setup(params.clone(), "providers", &mut rng);
        let store = Arc::new(EncryptedPhrStore::in_memory_with_params(
            "db",
            params.clone(),
        ));
        let proxy = ProxyService::new("proxy", store);
        let mut alice = Patient::new("alice", &patient_kgc);
        let team = Identity::new("er");
        let provider = HealthcareProvider::new(provider_kgc.extract(&team));
        provision_travel_access(
            &mut alice,
            &team,
            provider_kgc.public_params(),
            &proxy,
            &mut rng,
        )
        .unwrap();
        assert!(matches!(
            emergency_disclosure(&proxy, alice.identity(), &provider),
            Err(PhrError::RecordNotFound)
        ));
    }
}
