//! The test-side model of an [`EncryptedPhrStore`]: decoded records in a
//! `BTreeMap` plus the audit events the store is expected to log.  It is the
//! oracle the resident-store properties compare a real store against, so the
//! product crates carry no second record representation for tests to use.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use tibpre_core::HybridCiphertext;
use tibpre_ibe::Identity;
use tibpre_phr::store::{EncryptedPhrStore, StoredRecord};
use tibpre_phr::{AuditEvent, Category, PhrError, RecordId};

/// The store operations an oracle suite drives and observes, implemented by
/// the real store and by [`StoreModel`] alike.
pub trait StoreOracle {
    /// Stores a record and returns its id.
    fn put(
        &self,
        patient: &Identity,
        category: &Category,
        title: &str,
        ciphertext: HybridCiphertext,
    ) -> RecordId;
    /// Fetches one record.
    fn get(&self, id: RecordId) -> Result<Arc<StoredRecord>, PhrError>;
    /// Deletes a record on behalf of `requester` (the owner only).
    fn delete(&self, id: RecordId, requester: &Identity) -> Result<(), PhrError>;
    /// Logs one disclosure attempt.
    fn log_disclosure(&self, id: RecordId, requester: &Identity, granted: bool);
    /// Number of stored records.
    fn record_count(&self) -> usize;
    /// The audit trail in timestamp order.
    fn audit_snapshot(&self) -> Vec<Arc<AuditEvent>>;
    /// A patient's record ids, ascending.
    fn list_for_patient(&self, patient: &Identity) -> Vec<RecordId>;
    /// A patient's record ids in one category, ascending.
    fn list_for_patient_category(&self, patient: &Identity, category: &Category) -> Vec<RecordId>;
}

impl StoreOracle for EncryptedPhrStore {
    fn put(
        &self,
        patient: &Identity,
        category: &Category,
        title: &str,
        ciphertext: HybridCiphertext,
    ) -> RecordId {
        EncryptedPhrStore::put(self, patient, category, title, ciphertext)
    }
    fn get(&self, id: RecordId) -> Result<Arc<StoredRecord>, PhrError> {
        EncryptedPhrStore::get(self, id)
    }
    fn delete(&self, id: RecordId, requester: &Identity) -> Result<(), PhrError> {
        EncryptedPhrStore::delete(self, id, requester)
    }
    fn log_disclosure(&self, id: RecordId, requester: &Identity, granted: bool) {
        EncryptedPhrStore::log_disclosure(self, id, requester, granted)
    }
    fn record_count(&self) -> usize {
        EncryptedPhrStore::record_count(self)
    }
    fn audit_snapshot(&self) -> Vec<Arc<AuditEvent>> {
        EncryptedPhrStore::audit_snapshot(self)
    }
    fn list_for_patient(&self, patient: &Identity) -> Vec<RecordId> {
        EncryptedPhrStore::list_for_patient(self, patient)
    }
    fn list_for_patient_category(&self, patient: &Identity, category: &Category) -> Vec<RecordId> {
        EncryptedPhrStore::list_for_patient_category(self, patient, category)
    }
}

/// Decoded records by id and the expected audit trail, under the store's
/// id and clock rules: ids count up from 1, and every put, delete and
/// disclosure takes the next timestamp.
#[derive(Debug, Default)]
pub struct StoreModel {
    state: Mutex<ModelState>,
}

#[derive(Debug, Default)]
struct ModelState {
    records: BTreeMap<RecordId, StoredRecord>,
    audit: Vec<AuditEvent>,
    next_id: u64,
    clock: u64,
}

impl ModelState {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn ids_where(&self, keep: impl Fn(&StoredRecord) -> bool) -> Vec<RecordId> {
        self.records
            .values()
            .filter(|r| keep(r))
            .map(|r| r.id)
            .collect()
    }
}

impl StoreModel {
    fn state(&self) -> std::sync::MutexGuard<'_, ModelState> {
        self.state.lock().unwrap()
    }
}

impl StoreOracle for StoreModel {
    fn put(
        &self,
        patient: &Identity,
        category: &Category,
        title: &str,
        ciphertext: HybridCiphertext,
    ) -> RecordId {
        let mut state = self.state();
        state.next_id += 1;
        let id = RecordId(state.next_id);
        let at = state.tick();
        let record = StoredRecord {
            id,
            patient: patient.clone(),
            category: category.clone(),
            title: title.to_string(),
            ciphertext,
        };
        state.records.insert(id, record);
        state.audit.push(AuditEvent::RecordStored {
            id,
            patient: patient.clone(),
            category: category.clone(),
            at,
        });
        id
    }

    fn get(&self, id: RecordId) -> Result<Arc<StoredRecord>, PhrError> {
        let state = self.state();
        let record = state.records.get(&id).ok_or(PhrError::RecordNotFound)?;
        Ok(Arc::new(record.clone()))
    }

    fn delete(&self, id: RecordId, requester: &Identity) -> Result<(), PhrError> {
        let mut state = self.state();
        let record = state.records.get(&id).ok_or(PhrError::RecordNotFound)?;
        if &record.patient != requester {
            return Err(PhrError::AccessDenied {
                category: record.category.label(),
                requester: requester.display(),
            });
        }
        let at = state.tick();
        state.records.remove(&id);
        state.audit.push(AuditEvent::RecordDeleted { id, at });
        Ok(())
    }

    fn log_disclosure(&self, id: RecordId, requester: &Identity, granted: bool) {
        let mut state = self.state();
        let (requester, at) = (requester.clone(), state.tick());
        state.audit.push(if granted {
            AuditEvent::DisclosurePerformed { id, requester, at }
        } else {
            AuditEvent::DisclosureDenied { id, requester, at }
        });
    }

    fn record_count(&self) -> usize {
        self.state().records.len()
    }

    fn audit_snapshot(&self) -> Vec<Arc<AuditEvent>> {
        self.state().audit.iter().cloned().map(Arc::new).collect()
    }

    fn list_for_patient(&self, patient: &Identity) -> Vec<RecordId> {
        self.state().ids_where(|r| &r.patient == patient)
    }

    fn list_for_patient_category(&self, patient: &Identity, category: &Category) -> Vec<RecordId> {
        self.state()
            .ids_where(|r| &r.patient == patient && &r.category == category)
    }
}
