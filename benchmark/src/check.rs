//! Output checks: an operation only counts when its result was verified.
//! A failed operation is counted, never timed.

use tibpre_client::{RemoteError, Response};
use tibpre_phr::{HealthcareProvider, RecordId};

/// Why an operation did not count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The socket, the framing or the decoding failed, or the node answered
    /// with a variant the request cannot produce.
    Transport,
    /// The bundle did not open, or opened to other bytes than were uploaded.
    BadPlaintext,
    /// A pipelined response carried another record than its slot asked for.
    Reordered,
    /// A disclosure under an installed grant was denied.
    UnexpectedDenial,
    /// A disclosure under a revoked grant was served.
    ProbeNotDenied,
    /// An acknowledged upload was missing or unreadable after the restart.
    LostUpload,
}

const KINDS: [Failure; 6] = [
    Failure::Transport,
    Failure::BadPlaintext,
    Failure::Reordered,
    Failure::UnexpectedDenial,
    Failure::ProbeNotDenied,
    Failure::LostUpload,
];

/// Failures by kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Failures([u64; KINDS.len()]);

impl Failures {
    pub fn record(&mut self, failure: Failure) {
        self.0[failure as usize] += 1;
    }

    pub fn merge(&mut self, other: &Failures) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine += theirs;
        }
    }

    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// `kind=count` for every kind that occurred.
    pub fn describe(&self) -> String {
        let parts: Vec<String> = KINDS
            .iter()
            .zip(self.0)
            .filter(|(_, count)| *count > 0)
            .map(|(kind, count)| format!("{kind:?}={count}"))
            .collect();
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join(" ")
        }
    }
}

/// Checks one disclosure response against the slot that requested it: the
/// bundle must be for the slot's record, must open under the provider's key,
/// and must equal the uploaded plaintext byte for byte.
pub fn check_disclosure(
    provider: &HealthcareProvider,
    response: &Response,
    want: RecordId,
    uploaded: &[u8],
) -> Result<(), Failure> {
    match response {
        Response::Bundle(bundle) if bundle.id != want => Err(Failure::Reordered),
        Response::Bundle(bundle) => match provider.open(bundle) {
            Ok(opened) if opened.body == uploaded => Ok(()),
            _ => Err(Failure::BadPlaintext),
        },
        Response::Error(RemoteError::AccessDenied { .. }) => Err(Failure::UnexpectedDenial),
        _ => Err(Failure::Transport),
    }
}

/// Checks the probe sent between a revocation and the re-installation: only
/// a policy denial is correct.
pub fn check_denied(response: &Response) -> Result<(), Failure> {
    match response {
        Response::Error(RemoteError::AccessDenied { .. }) => Ok(()),
        Response::Bundle(_) => Err(Failure::ProbeNotDenied),
        _ => Err(Failure::Transport),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use tibpre_core::Delegator;
    use tibpre_ibe::{Identity, Kgc};
    use tibpre_pairing::PairingParams;
    use tibpre_phr::{Category, EncryptedPhrStore, HealthRecord, ProxyService};

    /// One slot of a burst: the response, the record asked for, its upload.
    type Slot = (Response, RecordId, Vec<u8>);

    /// Two records of one patient, disclosed in process to one provider, and
    /// the denial the provider got before the grant.
    fn two_bundles() -> (HealthcareProvider, Vec<Slot>, Response) {
        let mut rng = StdRng::seed_from_u64(5);
        let params = PairingParams::insecure_toy();
        let kgc = Kgc::setup(params.clone(), "check", &mut rng);
        let patient = Identity::new("patient");
        let doctor = Identity::new("doctor");
        let category = Category::LabResults;
        let delegator = Delegator::new(kgc.public_params().clone(), kgc.extract(&patient));
        let store = Arc::new(EncryptedPhrStore::in_memory_with_params("db", params));
        let mut proxy = ProxyService::new("proxy", store.clone());

        let bodies = [b"first body".to_vec(), b"second body".to_vec()];
        let ids: Vec<RecordId> = bodies
            .iter()
            .enumerate()
            .map(|(i, body)| {
                let title = format!("t{i}");
                let aad = HealthRecord::associated_data(&patient, &category, &title);
                let ct = delegator.encrypt_bytes(body, &aad, &category.type_tag(), &mut rng);
                store.put(&patient, &category, &title, ct)
            })
            .collect();
        let denied = Response::Error(tibpre_client::RemoteError::from_phr(
            &proxy.disclose(&patient, ids[0], &doctor).unwrap_err(),
        ));
        let key = delegator
            .make_reencryption_key(&doctor, kgc.public_params(), &category.type_tag(), &mut rng)
            .unwrap();
        proxy.install_key(key);
        let slots = ids
            .iter()
            .zip(bodies)
            .map(|(id, body)| {
                let bundle = proxy.disclose(&patient, *id, &doctor).unwrap();
                (Response::Bundle(Box::new(bundle)), *id, body)
            })
            .collect();
        (HealthcareProvider::new(kgc.extract(&doctor)), slots, denied)
    }

    #[test]
    fn checker_accepts_right_and_rejects_wrong_outputs() {
        let (provider, slots, denied) = two_bundles();
        let (first, first_id, first_body) = &slots[0];
        let (second, second_id, second_body) = &slots[1];

        assert_eq!(
            check_disclosure(&provider, first, *first_id, first_body),
            Ok(())
        );
        assert_eq!(
            check_disclosure(&provider, second, *second_id, second_body),
            Ok(())
        );

        // A wrong plaintext: the bundle opens, to other bytes than uploaded.
        let mut wrong = first_body.clone();
        wrong[0] ^= 1;
        assert_eq!(
            check_disclosure(&provider, first, *first_id, &wrong),
            Err(Failure::BadPlaintext)
        );
        // A swapped response: the second slot's bundle in the first slot.
        assert_eq!(
            check_disclosure(&provider, second, *first_id, first_body),
            Err(Failure::Reordered)
        );
        // A bundle that was tampered with does not open at all.
        let Response::Bundle(bundle) = first else {
            unreachable!()
        };
        let mut forged = bundle.clone();
        forged.title.push('x');
        assert_eq!(
            check_disclosure(&provider, &Response::Bundle(forged), *first_id, first_body),
            Err(Failure::BadPlaintext)
        );

        // Denials: wrong under a grant, required of a probe.
        assert_eq!(
            check_disclosure(&provider, &denied, *first_id, first_body),
            Err(Failure::UnexpectedDenial)
        );
        assert_eq!(check_denied(&denied), Ok(()));
        assert_eq!(check_denied(first), Err(Failure::ProbeNotDenied));
        assert_eq!(check_denied(&Response::Ok), Err(Failure::Transport));
        assert_eq!(
            check_disclosure(&provider, &Response::Ok, *first_id, first_body),
            Err(Failure::Transport)
        );
    }

    #[test]
    fn failures_are_counted_by_kind() {
        let mut a = Failures::default();
        assert_eq!(a.describe(), "none");
        a.record(Failure::Reordered);
        a.record(Failure::Reordered);
        let mut b = Failures::default();
        b.record(Failure::LostUpload);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.describe(), "Reordered=2 LostUpload=1");
    }
}
