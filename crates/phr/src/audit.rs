//! Append-only audit trail shared by the store and the proxy services.
//!
//! Regulations such as HIPAA (which the paper cites as the motivation for
//! patient-controlled disclosure) require an account of disclosures; every
//! store and proxy operation therefore appends an event here.
//!
//! Two holders use these types differently: each [`ProxyService`] keeps its
//! own [`AuditLog`] (one writer, its private logical clock), while the
//! sharded [`EncryptedPhrStore`] keeps a plain event segment *per shard*
//! under a store-global atomic clock and merges the segments by timestamp in
//! `audit_snapshot` — so one store-wide, strictly ordered trail survives the
//! lock striping.
//!
//! [`ProxyService`]: crate::proxy_service::ProxyService
//! [`EncryptedPhrStore`]: crate::store::EncryptedPhrStore

use crate::category::Category;
use crate::record::RecordId;
use tibpre_ibe::Identity;
use tibpre_wire::{DecodeError, Reader, WireDecode, WireEncode, Writer};

/// Wire tags of the [`AuditEvent`] variants (stable on-disk format).
mod tag {
    pub const RECORD_STORED: u8 = 1;
    pub const RECORD_DELETED: u8 = 2;
    pub const ACCESS_GRANTED: u8 = 3;
    pub const ACCESS_REVOKED: u8 = 4;
    pub const DISCLOSURE_PERFORMED: u8 = 5;
    pub const DISCLOSURE_DENIED: u8 = 6;
}

/// One entry of the audit trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditEvent {
    /// An encrypted record was stored.
    RecordStored {
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
    RecordDeleted {
        /// Identifier of the deleted record.
        id: RecordId,
        /// Logical timestamp.
        at: u64,
    },
    /// A re-encryption key was installed at a proxy.
    AccessGranted {
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
    AccessRevoked {
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
    DisclosurePerformed {
        /// The record that was disclosed.
        id: RecordId,
        /// The requesting identity.
        requester: Identity,
        /// Logical timestamp.
        at: u64,
    },
    /// A disclosure request was refused (no matching re-encryption key).
    DisclosureDenied {
        /// The record that was requested.
        id: RecordId,
        /// The requesting identity.
        requester: Identity,
        /// Logical timestamp.
        at: u64,
    },
}

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
}

impl WireEncode for AuditEvent {
    /// A tag byte, then length-prefixed fields — identical in every wire
    /// version (events carry no group elements).
    fn encode(&self, w: &mut Writer) {
        match self {
            AuditEvent::RecordStored {
                id,
                patient,
                category,
                at,
            } => {
                w.put_u8(tag::RECORD_STORED);
                w.put_u64(id.0);
                w.put_bytes(patient.as_bytes());
                w.put_bytes(category.label().as_bytes());
                w.put_u64(*at);
            }
            AuditEvent::RecordDeleted { id, at } => {
                w.put_u8(tag::RECORD_DELETED);
                w.put_u64(id.0);
                w.put_u64(*at);
            }
            AuditEvent::AccessGranted {
                patient,
                category,
                grantee,
                at,
            }
            | AuditEvent::AccessRevoked {
                patient,
                category,
                grantee,
                at,
            } => {
                w.put_u8(if matches!(self, AuditEvent::AccessGranted { .. }) {
                    tag::ACCESS_GRANTED
                } else {
                    tag::ACCESS_REVOKED
                });
                w.put_bytes(patient.as_bytes());
                w.put_bytes(category.label().as_bytes());
                w.put_bytes(grantee.as_bytes());
                w.put_u64(*at);
            }
            AuditEvent::DisclosurePerformed { id, requester, at }
            | AuditEvent::DisclosureDenied { id, requester, at } => {
                w.put_u8(if matches!(self, AuditEvent::DisclosurePerformed { .. }) {
                    tag::DISCLOSURE_PERFORMED
                } else {
                    tag::DISCLOSURE_DENIED
                });
                w.put_u64(id.0);
                w.put_bytes(requester.as_bytes());
                w.put_u64(*at);
            }
        }
    }
}

impl WireDecode for AuditEvent {
    type Ctx = ();

    fn decode(r: &mut Reader<'_>, _ctx: &()) -> core::result::Result<Self, DecodeError> {
        let start = r.offset();
        let event = match r.u8()? {
            tag::RECORD_STORED => AuditEvent::RecordStored {
                id: RecordId(r.u64()?),
                patient: Identity::from_bytes(r.bytes()?.to_vec()),
                category: Category::from_label(&r.string()?),
                at: r.u64()?,
            },
            tag::RECORD_DELETED => AuditEvent::RecordDeleted {
                id: RecordId(r.u64()?),
                at: r.u64()?,
            },
            t @ (tag::ACCESS_GRANTED | tag::ACCESS_REVOKED) => {
                let patient = Identity::from_bytes(r.bytes()?.to_vec());
                let category = Category::from_label(&r.string()?);
                let grantee = Identity::from_bytes(r.bytes()?.to_vec());
                let at = r.u64()?;
                if t == tag::ACCESS_GRANTED {
                    AuditEvent::AccessGranted {
                        patient,
                        category,
                        grantee,
                        at,
                    }
                } else {
                    AuditEvent::AccessRevoked {
                        patient,
                        category,
                        grantee,
                        at,
                    }
                }
            }
            t @ (tag::DISCLOSURE_PERFORMED | tag::DISCLOSURE_DENIED) => {
                let id = RecordId(r.u64()?);
                let requester = Identity::from_bytes(r.bytes()?.to_vec());
                let at = r.u64()?;
                if t == tag::DISCLOSURE_PERFORMED {
                    AuditEvent::DisclosurePerformed { id, requester, at }
                } else {
                    AuditEvent::DisclosureDenied { id, requester, at }
                }
            }
            other => return Err(DecodeError::invalid_tag(start, "audit event", other)),
        };
        Ok(event)
    }
}

/// An append-only audit log with a logical clock.
#[derive(Debug, Default, Clone)]
pub struct AuditLog {
    events: Vec<AuditEvent>,
    clock: u64,
}

impl AuditLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the logical clock and returns the new timestamp.
    pub fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Appends an event.
    pub fn append(&mut self, event: AuditEvent) {
        self.events.push(event);
    }

    /// Re-appends an event recovered from a durable log, advancing the clock
    /// to at least the event's timestamp so post-recovery ticks stay strictly
    /// increasing.
    pub fn replay(&mut self, event: AuditEvent) {
        self.clock = self.clock.max(event.at());
        self.events.push(event);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A snapshot of all events, in order.
    pub fn events(&self) -> &[AuditEvent] {
        &self.events
    }

    /// Events concerning one record.
    pub fn events_for_record(&self, id: RecordId) -> Vec<&AuditEvent> {
        self.events
            .iter()
            .filter(|e| e.record_id() == Some(id))
            .collect()
    }

    /// Count of disclosures performed for one requester.
    pub fn disclosures_to(&self, requester: &Identity) -> usize {
        self.events
            .iter()
            .filter(|e| {
                matches!(e, AuditEvent::DisclosurePerformed { requester: r, .. } if r == requester)
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_orders_and_filters_events() {
        let mut log = AuditLog::new();
        let alice = Identity::new("alice");
        let doctor = Identity::new("doctor");
        let at1 = log.tick();
        log.append(AuditEvent::RecordStored {
            id: RecordId(1),
            patient: alice.clone(),
            category: Category::Emergency,
            at: at1,
        });
        let at2 = log.tick();
        log.append(AuditEvent::DisclosurePerformed {
            id: RecordId(1),
            requester: doctor.clone(),
            at: at2,
        });
        let at3 = log.tick();
        log.append(AuditEvent::DisclosureDenied {
            id: RecordId(2),
            requester: doctor.clone(),
            at: at3,
        });

        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
        assert!(at1 < at2 && at2 < at3);
        assert_eq!(log.events_for_record(RecordId(1)).len(), 2);
        assert_eq!(log.events_for_record(RecordId(2)).len(), 1);
        assert_eq!(log.disclosures_to(&doctor), 1);
        assert_eq!(log.disclosures_to(&alice), 0);
        assert_eq!(log.events()[0].at(), at1);
    }

    #[test]
    fn disclosures_to_counts_only_performed_disclosures_per_requester() {
        let mut log = AuditLog::new();
        let doctor = Identity::new("doctor");
        let nurse = Identity::new("nurse");
        // Empty log: everyone is at zero.
        assert_eq!(log.disclosures_to(&doctor), 0);

        for id in 1..=3 {
            let at = log.tick();
            log.append(AuditEvent::DisclosurePerformed {
                id: RecordId(id),
                requester: doctor.clone(),
                at,
            });
        }
        let at = log.tick();
        log.append(AuditEvent::DisclosurePerformed {
            id: RecordId(9),
            requester: nurse.clone(),
            at,
        });
        // Denials and grants mentioning the doctor must NOT count.
        let at = log.tick();
        log.append(AuditEvent::DisclosureDenied {
            id: RecordId(4),
            requester: doctor.clone(),
            at,
        });
        let at = log.tick();
        log.append(AuditEvent::AccessGranted {
            patient: Identity::new("alice"),
            category: Category::Emergency,
            grantee: doctor.clone(),
            at,
        });

        assert_eq!(log.disclosures_to(&doctor), 3);
        assert_eq!(log.disclosures_to(&nurse), 1);
        assert_eq!(log.disclosures_to(&Identity::new("stranger")), 0);
        assert_eq!(log.len(), 6);
    }
}
