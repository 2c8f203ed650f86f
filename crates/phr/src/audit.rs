//! Append-only audit trail shared by the store and the proxy services.
//!
//! Regulations such as HIPAA (which the paper cites as the motivation for
//! patient-controlled disclosure) require an account of disclosures; every
//! store and proxy operation therefore appends an event here.
//!
//! Two holders keep these events differently: each [`ProxyService`] keeps
//! its own trail in its journal (one writer, its private logical clock,
//! committed to the proxy's log when it is durable), while the sharded
//! [`EncryptedPhrStore`] keeps a plain event segment *per shard*
//! under a store-global atomic clock and merges the segments by timestamp in
//! `audit_snapshot` — so one store-wide, strictly ordered trail survives the
//! lock striping.
//!
//! Each event kind is declared once, tag and fields, with
//! [`tibpre_wire::message!`]; its codec derives from that declaration, and
//! an event inside a WAL frame, a snapshot's metadata or a response is
//! nested (a `u32` length, then the event).
//!
//! [`ProxyService`]: crate::proxy_service::ProxyService
//! [`EncryptedPhrStore`]: crate::store::EncryptedPhrStore

use crate::category::Category;
use crate::record::RecordId;
use tibpre_ibe::Identity;
use tibpre_wire::{Codec, DecodeError, Elem, Field, Nested, Reader, Writer};

tibpre_wire::message! {
    /// One entry of the audit trail.  A tag byte, then the fields in order —
    /// identical in every wire version (events carry no group elements).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum AuditEvent: "audit event", () {
        /// An encrypted record was stored.
        1 => RecordStored {
            /// Identifier assigned by the store.
            id: RecordId,
            /// Owning patient.
            patient: Identity,
            /// Category of the record.
            category: Category,
            /// Logical timestamp.
            at: u64,
        },
        /// An encrypted record was deleted by its owner.
        2 => RecordDeleted {
            /// Identifier of the deleted record.
            id: RecordId,
            /// Logical timestamp.
            at: u64,
        },
        /// A re-encryption key was installed at a proxy.
        3 => AccessGranted {
            /// The patient who delegated.
            patient: Identity,
            /// The category that was delegated.
            category: Category,
            /// The grantee (delegatee).
            grantee: Identity,
            /// Logical timestamp.
            at: u64,
        },
        /// A re-encryption key was removed from a proxy.
        4 => AccessRevoked {
            /// The patient who revoked.
            patient: Identity,
            /// The category that was revoked.
            category: Category,
            /// The grantee whose access was revoked.
            grantee: Identity,
            /// Logical timestamp.
            at: u64,
        },
        /// A record was re-encrypted and handed to a requester.
        5 => DisclosurePerformed {
            /// The record that was disclosed.
            id: RecordId,
            /// The requesting identity.
            requester: Identity,
            /// Logical timestamp.
            at: u64,
        },
        /// A disclosure request was refused (no matching re-encryption key).
        6 => DisclosureDenied {
            /// The record that was requested.
            id: RecordId,
            /// The requesting identity.
            requester: Identity,
            /// Logical timestamp.
            at: u64,
        },
    }
}

/// An event inside another message (a WAL op, a response) is nested.
impl<C> Field<C> for AuditEvent {
    fn put(&self, w: &mut Writer) {
        Nested::put(self, w);
    }
    fn read(r: &mut Reader<'_>, _: &C) -> Result<Self, DecodeError> {
        Nested::read(r, &())
    }
}

impl Elem for AuditEvent {}

impl AuditEvent {
    /// The logical timestamp of the event.
    pub fn at(&self) -> u64 {
        match self {
            AuditEvent::RecordStored { at, .. }
            | AuditEvent::RecordDeleted { at, .. }
            | AuditEvent::AccessGranted { at, .. }
            | AuditEvent::AccessRevoked { at, .. }
            | AuditEvent::DisclosurePerformed { at, .. }
            | AuditEvent::DisclosureDenied { at, .. } => *at,
        }
    }

    /// The record the event concerns (`None` for policy changes).
    pub(crate) fn record_id(&self) -> Option<RecordId> {
        match self {
            AuditEvent::RecordStored { id, .. }
            | AuditEvent::RecordDeleted { id, .. }
            | AuditEvent::DisclosurePerformed { id, .. }
            | AuditEvent::DisclosureDenied { id, .. } => Some(*id),
            AuditEvent::AccessGranted { .. } | AuditEvent::AccessRevoked { .. } => None,
        }
    }

    /// The entry of a grant (`granted`) or a revocation.
    pub(crate) fn policy_change(
        patient: &Identity,
        category: &Category,
        grantee: &Identity,
        granted: bool,
        at: u64,
    ) -> Self {
        let (patient, category, grantee) = (patient.clone(), category.clone(), grantee.clone());
        match granted {
            true => AuditEvent::AccessGranted {
                patient,
                category,
                grantee,
                at,
            },
            false => AuditEvent::AccessRevoked {
                patient,
                category,
                grantee,
                at,
            },
        }
    }
}
