//! The record-access boundary a proxy works through.
//!
//! In-process, a [`ProxyService`](crate::ProxyService) reads records straight
//! out of an [`EncryptedPhrStore`].  In the deployed topology the proxy and
//! the store are *different nodes* — the proxy holds re-encryption keys, the
//! store holds ciphertexts — so the proxy's record access goes through this
//! trait instead of the concrete store.  `tibpre-client` implements it over a
//! TCP connection to a store node; the store itself implements it trivially.
//!
//! Reads are fallible (a remote store can be unreachable); the audit hooks
//! are best-effort fire-and-forget, mirroring the store's own infallible
//! logging — a proxy must not refuse a disclosure because the audit channel
//! hiccuped, and the proxy keeps its *own* durable audit trail regardless.

use crate::category::Category;
use crate::record::RecordId;
use crate::store::{EncryptedPhrStore, StoredRecord};
use crate::Result;
use std::sync::Arc;
use tibpre_ibe::Identity;

/// Read (and audit-log) access to an encrypted record collection, local or
/// remote.  Reads and disclosure logging are run-shaped — one call, one
/// remote round of pipelined frames — and the single-item forms are runs of
/// one.
pub trait RecordSource: Send + Sync {
    /// Fetches a run of records by id, one result per input id in input
    /// order.
    fn get_many(&self, ids: &[RecordId]) -> Vec<Result<Arc<StoredRecord>>>;

    /// Fetches one record by id.
    fn get(&self, id: RecordId) -> Result<Arc<StoredRecord>> {
        self.get_many(&[id]).pop().expect("one result per id")
    }

    /// All record ids owned by `patient`, in insertion order.
    fn list_for_patient(&self, patient: &Identity) -> Result<Vec<RecordId>>;

    /// The patient's record ids in one category, in insertion order.
    fn list_for_patient_category(
        &self,
        patient: &Identity,
        category: &Category,
    ) -> Result<Vec<RecordId>>;

    /// Records a run of disclosure attempts in the source's audit trail, in
    /// order (best-effort).
    fn log_disclosures(&self, entries: &[(RecordId, Identity, bool)]);

    /// Records one disclosure attempt (best-effort).
    fn log_disclosure(&self, id: RecordId, requester: &Identity, granted: bool) {
        self.log_disclosures(&[(id, requester.clone(), granted)]);
    }

    /// Records a policy change in the source's audit trail (best-effort).
    fn log_policy_change(
        &self,
        patient: &Identity,
        category: &Category,
        grantee: &Identity,
        granted: bool,
    );
}

impl RecordSource for EncryptedPhrStore {
    fn get_many(&self, ids: &[RecordId]) -> Vec<Result<Arc<StoredRecord>>> {
        ids.iter()
            .map(|id| EncryptedPhrStore::get(self, *id))
            .collect()
    }

    fn list_for_patient(&self, patient: &Identity) -> Result<Vec<RecordId>> {
        Ok(EncryptedPhrStore::list_for_patient(self, patient))
    }

    fn list_for_patient_category(
        &self,
        patient: &Identity,
        category: &Category,
    ) -> Result<Vec<RecordId>> {
        Ok(EncryptedPhrStore::list_for_patient_category(
            self, patient, category,
        ))
    }

    fn log_disclosures(&self, entries: &[(RecordId, Identity, bool)]) {
        for (id, requester, granted) in entries {
            EncryptedPhrStore::log_disclosure(self, *id, requester, *granted);
        }
    }

    fn log_policy_change(
        &self,
        patient: &Identity,
        category: &Category,
        grantee: &Identity,
        granted: bool,
    ) {
        EncryptedPhrStore::log_policy_change(self, patient, category, grantee, granted)
    }
}
