//! Plaintext health records and their metadata.

use crate::category::Category;
use core::fmt;
use tibpre_ibe::Identity;

/// An opaque record identifier assigned by the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub u64);

tibpre_wire::message! {
    fields {
        RecordId: |w, v| w.put_u64(v.0), |r| Ok(RecordId(r.u64()?));
    }
}

impl tibpre_wire::Elem for RecordId {
    const MIN_LEN: usize = 8;
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "record-{}", self.0)
    }
}

/// A plaintext personal health record as the patient (or her care providers)
/// author it, before encryption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthRecord {
    /// The patient this record belongs to.
    pub patient: Identity,
    /// The privacy category (maps to the scheme's type tag).
    pub category: Category,
    /// A short human-readable title.  The title is treated as non-secret
    /// metadata and bound to the ciphertext as associated data.
    pub title: String,
    /// The confidential payload (free-form bytes: text, DICOM, PDF, …).
    pub body: Vec<u8>,
}

impl HealthRecord {
    /// Creates a record.
    pub fn new(
        patient: Identity,
        category: Category,
        title: impl AsRef<str>,
        body: Vec<u8>,
    ) -> Self {
        HealthRecord {
            patient,
            category,
            title: title.as_ref().to_string(),
            body,
        }
    }

    /// The associated data bound to the ciphertext: patient, category and title.
    ///
    /// Binding this metadata means a storage server cannot silently move a
    /// ciphertext to a different patient, category or title without the
    /// decryption failing.
    pub fn associated_data(patient: &Identity, category: &Category, title: &str) -> Vec<u8> {
        let mut aad = Vec::new();
        for field in [
            patient.as_bytes(),
            category.label().as_bytes(),
            title.as_bytes(),
        ] {
            aad.extend((field.len() as u32).to_be_bytes());
            aad.extend(field);
        }
        aad
    }

    /// The associated data for this record.
    pub fn aad(&self) -> Vec<u8> {
        Self::associated_data(&self.patient, &self.category, &self.title)
    }
}

/// A record disclosed to a healthcare provider after decryption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisclosedRecord {
    /// The record identifier in the store.
    pub id: RecordId,
    /// The patient the record belongs to.
    pub patient: Identity,
    /// The category it was filed under.
    pub category: Category,
    /// The non-secret title.
    pub title: String,
    /// The decrypted payload.
    pub body: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aad_binds_all_metadata() {
        let alice = Identity::new("alice");
        let r = HealthRecord::new(
            alice.clone(),
            Category::LabResults,
            "HbA1c 2008-03",
            b"5.4%".to_vec(),
        );
        let aad = r.aad();
        // Changing any metadata field changes the associated data.
        assert_ne!(
            aad,
            HealthRecord::associated_data(&Identity::new("bob"), &r.category, &r.title)
        );
        assert_ne!(
            aad,
            HealthRecord::associated_data(&alice, &Category::Emergency, &r.title)
        );
        assert_ne!(
            aad,
            HealthRecord::associated_data(&alice, &r.category, "HbA1c 2008-04")
        );
        // Field boundaries are unambiguous.
        assert_ne!(
            HealthRecord::associated_data(&Identity::new("ab"), &r.category, "c"),
            HealthRecord::associated_data(&Identity::new("a"), &r.category, "bc")
        );
    }

    #[test]
    fn record_id_display() {
        assert_eq!(RecordId(42).to_string(), "record-42");
        assert!(RecordId(1) < RecordId(2));
    }
}
