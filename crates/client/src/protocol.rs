//! The node protocol: every request a client can put on the wire and every
//! response a node can send back.
//!
//! One protocol serves all three roles — a KGC node answers the key requests,
//! a store node the record requests, a proxy node the disclosure requests —
//! and every role answers [`Request::Ping`], [`Request::Stats`] and
//! [`Request::Shutdown`].  A request outside a node's role draws
//! [`RemoteError::WrongRole`], never a closed connection, so a misconfigured
//! client gets a diagnosis instead of a hangup.
//!
//! Messages travel as length-prefixed frames ([`tibpre_wire::framing`])
//! whose payload is the versioned-envelope encoding of one `Request` or
//! `Response`.  Pairing parameters never travel: client and node are
//! configured with the same [`SecurityLevel`] and reconstruct them from the
//! deterministic cache ([`PairingParams::cached`]); the level travels in
//! [`Response::Pong`] so a mismatch is caught by the first health check
//! rather than by a point failing subgroup validation mid-workflow.
//!
//! Each message kind is declared once, in a [`tibpre_wire::message!`]
//! invocation: its tag, its variant and its fields.  The enum, `WireEncode`,
//! `WireDecode` and `kind()` all derive from that declaration.  A body is the
//! fields in order, each written by its type's codec (see
//! [`tibpre_wire::Field`]): scheme values nested (a `u32` length, then their
//! bare body), `Vec<u8>` as a blob, any other `Vec` as a `u64` count checked
//! against the bytes left before anything is reserved.  Each field type's
//! codec lives in the crate that owns the type; the table below holds this
//! crate's own.

use std::sync::Arc;
use tibpre_core::{HybridCiphertext, ReEncryptionKey};
use tibpre_ibe::{IbePrivateKey, IbePublicParams, Identity};
use tibpre_pairing::{DecodeCtx, PairingParams, SecurityLevel};
use tibpre_phr::proxy_service::DisclosureBundle;
use tibpre_phr::store::StoredRecord;
use tibpre_phr::{AuditEvent, Category, PhrError, RecordId};
use tibpre_wire::{DecodeError, WireDecode, WireEncode};

/// The three service roles a node can run as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Key Generation Centre: `Setup`/`Extract` of one KGC domain.
    Kgc,
    /// Semi-trusted proxy: holds re-encryption keys, transforms ciphertexts.
    Proxy,
    /// Encrypted record store: the outsourced PHR database.
    Store,
}

/// Each role with its wire tag and its CLI / wire name, in declaration
/// order, so a role indexes its own row.
const ROLES: [(NodeRole, u8, &str); 3] = [
    (NodeRole::Kgc, 1, "kgc"),
    (NodeRole::Proxy, 2, "proxy"),
    (NodeRole::Store, 3, "store"),
];

impl NodeRole {
    /// The role's CLI / wire name.
    pub fn name(self) -> &'static str {
        ROLES[self as usize].2
    }

    /// Parses a role name (the inverse of [`Self::name`]).
    pub fn from_name(name: &str) -> Option<Self> {
        ROLES.iter().find(|role| role.2 == name).map(|role| role.0)
    }
}

/// The configured security level's wire/CLI name.
pub fn level_name(level: SecurityLevel) -> &'static str {
    match level {
        SecurityLevel::Toy => "toy",
        SecurityLevel::Low80 => "low80",
        SecurityLevel::Medium112 => "medium112",
        SecurityLevel::High128 => "high128",
    }
}

/// Parses a security-level name (the inverse of [`level_name`]).
pub fn level_from_name(name: &str) -> Option<SecurityLevel> {
    match name {
        "toy" => Some(SecurityLevel::Toy),
        "low80" => Some(SecurityLevel::Low80),
        "medium112" => Some(SecurityLevel::Medium112),
        "high128" => Some(SecurityLevel::High128),
        _ => None,
    }
}

/// The pairing parameters for a named level: [`PairingParams::cached`].
pub fn params_for_level(level: SecurityLevel) -> Arc<PairingParams> {
    PairingParams::cached(level)
}

tibpre_wire::message! {
    /// One request frame, client → node.
    #[derive(Debug, Clone)]
    pub enum Request: "request", DecodeCtx {
        /// Health check; every role answers with [`Response::Pong`].
        1 => Ping,
        /// Ask the node to drain and exit; answered with
        /// [`Response::ShuttingDown`] before the listener closes.
        2 => Shutdown,
        /// (KGC) The domain's public parameters.
        3 => PublicParams,
        /// (KGC) `Extract`: the private key for an identity.
        4 => Extract {
            /// The identity to extract for.
            identity: Identity,
        },
        /// (Store) Store an encrypted record; the node assigns the id.
        10 => PutRecord {
            /// The owning patient.
            patient: Identity,
            /// The record category.
            category: Category,
            /// The non-secret title.
            title: String,
            /// The category-typed hybrid ciphertext.
            ciphertext: Box<HybridCiphertext>,
        },
        /// (Store) Fetch one record by id.
        11 => GetRecord {
            /// The record to fetch.
            id: RecordId,
        },
        /// (Store) Delete one record.
        12 => DeleteRecord {
            /// The record to delete.
            id: RecordId,
            /// Who asked (for the audit trail).
            requester: Identity,
        },
        /// (Store) List a patient's record ids, optionally per category.
        13 => ListRecords {
            /// The owning patient.
            patient: Identity,
            /// `None` lists every category.
            category: Option<Category>,
        },
        /// (Store) Total number of records.
        14 => RecordCount,
        /// (Store) Force WAL durability for everything accepted so far.
        15 => Sync,
        /// (Store) The store's audit trail.
        16 => AuditSnapshot,
        /// (Store) Record a disclosure attempt in the audit trail.
        17 => LogDisclosure {
            /// The disclosed record.
            id: RecordId,
            /// Who asked.
            requester: Identity,
            /// Whether the disclosure was granted.
            granted: bool,
        },
        /// (Store) Record a policy change in the audit trail.
        18 => LogPolicyChange {
            /// The owning patient.
            patient: Identity,
            /// The category granted or revoked.
            category: Category,
            /// The grantee.
            grantee: Identity,
            /// `true` for a grant, `false` for a revocation.
            granted: bool,
        },
        /// (Proxy) Install a re-encryption key (a patient granting access).
        30 => InstallKey {
            /// The key to install.
            key: Box<ReEncryptionKey>,
        },
        /// (Proxy) Remove a re-encryption key (revocation).
        31 => RevokeKey {
            /// The delegating patient.
            patient: Identity,
            /// The delegated category.
            category: Category,
            /// The grantee losing access.
            grantee: Identity,
        },
        /// (Proxy) Whether a grant is active.
        32 => HasGrant {
            /// The delegating patient.
            patient: Identity,
            /// The delegated category.
            category: Category,
            /// The grantee.
            grantee: Identity,
        },
        /// (Proxy) Number of installed re-encryption keys.
        33 => KeyCount,
        /// (Proxy) Re-encrypt one record for a requester.
        34 => Disclose {
            /// The owning patient.
            patient: Identity,
            /// The record to disclose.
            id: RecordId,
            /// The requesting provider.
            requester: Identity,
        },
        /// (Proxy) Re-encrypt every record of one category for a requester.
        35 => DiscloseCategory {
            /// The owning patient.
            patient: Identity,
            /// The category to disclose.
            category: Category,
            /// The requesting provider.
            requester: Identity,
        },
        /// (Store) Turn this connection into a replication stream: the node
        /// pushes [`Response::ReplicaStatus`], [`Response::SnapshotGeneration`]
        /// and [`Response::SegmentChunk`] frames until the connection drops.
        40 => SubscribeReplication {
            /// Per-shard applied logical WAL offsets to resume from.  Empty
            /// means a fresh replica, streamed from offset 0 (or the newest
            /// snapshot when the log prefix was garbage-collected).
            applied: Vec<u64>,
        },
        // Tag 41 (once `ReplicationStatus`) is retired: never reuse it.
        /// (Store) Promote a replica so it accepts writes (no-op on a primary).
        42 => Promote,
        // Tag 43 (once `SchedStats`) is retired: never reuse it.
        /// What the node reports about itself; every role answers with
        /// [`Response::Stats`].
        44 => Stats,
    }
}

tibpre_wire::message! {
    /// A failure a node reports back to the client, as a value — never by
    /// dropping the connection.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum RemoteError: "remote error", () {
        /// No such record (or a record the requester may not even learn exists).
        1 => NotFound,
        /// The proxy holds no matching re-encryption key.
        2 => AccessDenied {
            /// The category that was requested.
            category: String,
            /// Who requested it.
            requester: String,
        },
        /// A policy invariant was violated (duplicate grant, missing revoke…).
        3 => PolicyConflict(msg: String),
        /// The request was structurally fine but semantically unusable.
        4 => BadRequest(msg: String),
        /// The request is not served by this node's role; carries the role name.
        5 => WrongRole(role: String),
        /// The node is draining for shutdown and accepts no new work.
        6 => ShuttingDown,
        /// Anything else (storage failures, crypto failures…).
        7 => Internal(msg: String),
    }
}

impl RemoteError {
    /// Maps an application error onto its wire form.
    pub fn from_phr(err: &PhrError) -> Self {
        match err {
            PhrError::RecordNotFound => RemoteError::NotFound,
            PhrError::AccessDenied {
                category,
                requester,
            } => RemoteError::AccessDenied {
                category: category.clone(),
                requester: requester.clone(),
            },
            PhrError::PolicyConflict(msg) => RemoteError::PolicyConflict((*msg).to_string()),
            PhrError::NoProxyForCategory(category) => {
                RemoteError::BadRequest(format!("no proxy for category {category}"))
            }
            other => RemoteError::Internal(other.to_string()),
        }
    }

    /// Maps the wire form back onto an application error — the client half
    /// of [`Self::from_phr`].  Variants `PhrError` cannot carry verbatim
    /// (its `PolicyConflict` holds a `&'static str`) land in
    /// `PhrError::Storage` with the message preserved.
    pub(crate) fn into_phr(self) -> PhrError {
        match self {
            RemoteError::NotFound => PhrError::RecordNotFound,
            RemoteError::AccessDenied {
                category,
                requester,
            } => PhrError::AccessDenied {
                category,
                requester,
            },
            other => PhrError::Storage(other.to_string()),
        }
    }
}

impl core::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RemoteError::NotFound => write!(f, "record not found"),
            RemoteError::AccessDenied {
                category,
                requester,
            } => write!(f, "access to {category} denied for {requester}"),
            RemoteError::PolicyConflict(msg) => write!(f, "policy conflict: {msg}"),
            RemoteError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            RemoteError::WrongRole(role) => write!(f, "request not served by a {role} node"),
            RemoteError::ShuttingDown => write!(f, "node is shutting down"),
            RemoteError::Internal(msg) => write!(f, "internal node error: {msg}"),
        }
    }
}

tibpre_wire::message! {
    /// What one node reports about itself, answering `Stats`.  The counters
    /// are the node's own, cumulative since it started.  A proxy cuts each
    /// connection's pipelined backlog into runs (consecutive `Disclose`
    /// requests, at most `batch_max` long; a `DiscloseCategory` is a run of
    /// one); the run counters stay zero on the other roles.  The histogram
    /// buckets run lengths as `1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, 65+`
    /// (index 0 through 7).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct StatsReport: () {
        /// Disclosure runs executed.
        pub batches: u64,
        /// Requests executed inside disclosure runs.
        pub batched_requests: u64,
        /// Proxy requests executed outside a disclosure run.
        pub bypass: u64,
        /// Requests read from connections and not yet answered (sampled).
        pub queue_depth: u64,
        /// Highest `queue_depth` observed.
        pub queue_peak: u64,
        /// Run-length histogram (buckets documented above).
        pub hist: [u64; 8],
        /// A store's per-shard logical WAL positions: applied offsets on a
        /// replica, committed offsets on a primary.  Empty on a kgc or
        /// proxy node.
        pub positions: Vec<u64>,
        /// Whether the node accepts writes: anything but an unpromoted
        /// replica.
        pub writable: bool,
    }
}

tibpre_wire::message! {
    /// One response frame, node → client.
    #[derive(Debug, Clone)]
    pub enum Response: "response", DecodeCtx {
        /// Health-check answer: the node's role and configured security level.
        1 => Pong {
            /// The node's role.
            role: NodeRole,
            /// The node's security-level name ([`level_name`]).
            level: String,
        },
        /// The request succeeded and carries no payload.
        2 => Ok,
        /// A boolean result (`RevokeKey`, `HasGrant`).
        3 => Bool(value: bool),
        /// A count (`RecordCount`, `KeyCount`).
        4 => Count(count: u64),
        /// The id assigned by `PutRecord`.
        5 => RecordId(id: RecordId),
        /// The ids from `ListRecords`.
        6 => RecordIds(ids: Vec<RecordId>),
        /// The record from `GetRecord`.
        7 => Record(record: Box<StoredRecord>),
        /// The KGC's public parameters.
        8 => PublicParams(params: Box<IbePublicParams>),
        /// An extracted private key.
        9 => PrivateKey(key: Box<IbePrivateKey>),
        /// A single re-encrypted record.
        10 => Bundle(bundle: Box<DisclosureBundle>),
        /// A category's worth of re-encrypted records.
        11 => Bundles(bundles: Vec<DisclosureBundle>),
        /// The audit trail from `AuditSnapshot`.
        12 => AuditEvents(events: Vec<AuditEvent>),
        /// Shutdown acknowledged; the node drains and exits.
        13 => ShuttingDown,
        /// The request failed; the error travels as a value.
        14 => Error(err: RemoteError),
        /// Per-shard logical WAL positions and whether the node accepts writes:
        /// the first frame of a replication stream, repeated as a heartbeat.
        15 => ReplicaStatus {
            /// One position per shard; the vector length *is* the shard count.
            positions: Vec<u64>,
            /// Whether this node accepts writes (primary, or promoted replica).
            writable: bool,
        },
        /// A whole snapshot generation file, shipped to bootstrap a replica
        /// shard whose requested offset was garbage-collected.
        16 => SnapshotGeneration {
            /// The shard this snapshot belongs to.
            shard: u64,
            /// The snapshot's generation number.
            gen: u64,
            /// The logical WAL offset the snapshot captured (chunks resume there).
            wal_offset: u64,
            /// The raw snapshot file bytes.
            bytes: Vec<u8>,
        },
        /// Raw committed WAL bytes of one shard from `start`, not necessarily
        /// frame-aligned: receivers reassemble frames as crash recovery does.
        17 => SegmentChunk {
            /// The shard these bytes belong to.
            shard: u64,
            /// Logical offset of the first byte.
            start: u64,
            /// The raw log bytes (never empty).
            bytes: Vec<u8>,
        },
        // Tag 18 (once `SchedStats`) is retired: never reuse it.
        /// The node's own report, answering `Stats`.
        19 => Stats(report: StatsReport),
    }
}

tibpre_wire::message! {
    fields {
        NodeRole: |w, v| w.put_u8(ROLES[*v as usize].1), |r| {
            let (offset, tag) = (r.offset(), r.u8()?);
            let role = ROLES.iter().find(|role| role.1 == tag).map(|role| role.0);
            role.ok_or_else(|| DecodeError::invalid_tag(offset, "node role", tag))
        };
        RemoteError: |w, v| v.encode(w), |r| Self::decode(r, &());
        StatsReport: |w, v| v.encode(w), |r| Self::decode(r, &());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tibpre_core::{Delegator, TypeTag};
    use tibpre_ibe::Kgc;
    use tibpre_wire::{DecodeErrorKind, WireVersion, Writer};

    fn round_trip_request(req: &Request, ctx: &DecodeCtx) -> Request {
        let bytes = req.to_wire_bytes();
        for cut in 1..bytes.len() {
            assert!(
                Request::from_wire_bytes(&bytes[..cut], ctx).is_err(),
                "cut {cut}"
            );
        }
        Request::from_wire_bytes(&bytes, ctx).unwrap()
    }

    fn round_trip_response(resp: &Response, ctx: &DecodeCtx) -> Response {
        let bytes = resp.to_wire_bytes();
        for cut in 1..bytes.len() {
            assert!(
                Response::from_wire_bytes(&bytes[..cut], ctx).is_err(),
                "cut {cut}"
            );
        }
        Response::from_wire_bytes(&bytes, ctx).unwrap()
    }

    #[test]
    fn requests_round_trip_under_both_versions() {
        let params = tibpre_pairing::PairingParams::insecure_toy();
        let mut rng = StdRng::seed_from_u64(41);
        let kgc = Kgc::setup(params.clone(), "patients", &mut rng);
        let provider_kgc = Kgc::setup(params.clone(), "providers", &mut rng);
        let alice = Identity::new("alice");
        let doctor = Identity::new("doctor");
        let delegator = Delegator::new(kgc.public_params().clone(), kgc.extract(&alice));
        let ciphertext =
            delegator.encrypt_bytes(b"vitals", b"aad", &Category::Emergency.type_tag(), &mut rng);
        let key = delegator
            .make_reencryption_key(
                &doctor,
                provider_kgc.public_params(),
                &TypeTag::new(Category::Emergency.label()),
                &mut rng,
            )
            .unwrap();
        let ctx = DecodeCtx::from(&params);

        let requests = vec![
            Request::Ping,
            Request::Shutdown,
            Request::PublicParams,
            Request::Extract {
                identity: alice.clone(),
            },
            Request::PutRecord {
                patient: alice.clone(),
                category: Category::Emergency,
                title: "blood type".into(),
                ciphertext: Box::new(ciphertext),
            },
            Request::GetRecord { id: RecordId(7) },
            Request::DeleteRecord {
                id: RecordId(8),
                requester: alice.clone(),
            },
            Request::ListRecords {
                patient: alice.clone(),
                category: None,
            },
            Request::ListRecords {
                patient: alice.clone(),
                category: Some(Category::Custom("genomics".into())),
            },
            Request::RecordCount,
            Request::Sync,
            Request::AuditSnapshot,
            Request::LogDisclosure {
                id: RecordId(9),
                requester: doctor.clone(),
                granted: true,
            },
            Request::LogPolicyChange {
                patient: alice.clone(),
                category: Category::Medication,
                grantee: doctor.clone(),
                granted: false,
            },
            Request::InstallKey { key: Box::new(key) },
            Request::RevokeKey {
                patient: alice.clone(),
                category: Category::Emergency,
                grantee: doctor.clone(),
            },
            Request::HasGrant {
                patient: alice.clone(),
                category: Category::Emergency,
                grantee: doctor.clone(),
            },
            Request::KeyCount,
            Request::Disclose {
                patient: alice.clone(),
                id: RecordId(7),
                requester: doctor.clone(),
            },
            Request::DiscloseCategory {
                patient: alice,
                category: Category::Emergency,
                requester: doctor,
            },
            Request::SubscribeReplication {
                applied: Vec::new(),
            },
            Request::SubscribeReplication {
                applied: vec![0, 4096, u64::MAX],
            },
            Request::Promote,
            Request::Stats,
        ];
        for req in &requests {
            let back = round_trip_request(req, &ctx);
            // Spot-check the discriminant survives; payload equality is
            // covered by each type's own wire tests.
            assert_eq!(
                std::mem::discriminant(&back),
                std::mem::discriminant(req),
                "{req:?}"
            );
            // The v0 envelope parses too.
            let v0 = req.to_wire_bytes_versioned(WireVersion::V0);
            Request::from_wire_bytes(&v0, &ctx).unwrap();
        }
    }

    #[test]
    fn responses_round_trip_and_preserve_payloads() {
        let params = tibpre_pairing::PairingParams::insecure_toy();
        let ctx = DecodeCtx::from(&params);
        let responses = vec![
            Response::Pong {
                role: NodeRole::Store,
                level: "toy".into(),
            },
            Response::Ok,
            Response::Bool(true),
            Response::Count(42),
            Response::RecordId(RecordId(3)),
            Response::RecordIds(vec![RecordId(1), RecordId(2), RecordId(9)]),
            Response::ShuttingDown,
            Response::Error(RemoteError::NotFound),
            Response::Error(RemoteError::AccessDenied {
                category: "emergency".into(),
                requester: "mallory".into(),
            }),
            Response::Error(RemoteError::WrongRole("kgc".into())),
            Response::AuditEvents(Vec::new()),
            Response::Bundles(Vec::new()),
            Response::ReplicaStatus {
                positions: vec![10, 0, 7],
                writable: false,
            },
            Response::SnapshotGeneration {
                shard: 3,
                gen: 9,
                wal_offset: 4096,
                bytes: vec![0xAB; 32],
            },
            Response::SegmentChunk {
                shard: 1,
                start: 128,
                bytes: vec![0xCD; 16],
            },
            Response::Stats(StatsReport::default()),
        ];
        for resp in &responses {
            let back = round_trip_response(resp, &ctx);
            assert_eq!(
                std::mem::discriminant(&back),
                std::mem::discriminant(resp),
                "{resp:?}"
            );
        }
        match round_trip_response(&Response::RecordIds(vec![RecordId(5), RecordId(6)]), &ctx) {
            Response::RecordIds(ids) => assert_eq!(ids, vec![RecordId(5), RecordId(6)]),
            other => panic!("wrong variant: {other:?}"),
        }
        match round_trip_response(
            &Response::Error(RemoteError::AccessDenied {
                category: "emergency".into(),
                requester: "mallory".into(),
            }),
            &ctx,
        ) {
            Response::Error(err) => assert_eq!(
                err,
                RemoteError::AccessDenied {
                    category: "emergency".into(),
                    requester: "mallory".into(),
                }
            ),
            other => panic!("wrong variant: {other:?}"),
        }
        // Replication frames carry raw log bytes — those must survive
        // verbatim, not just by discriminant.
        match round_trip_response(
            &Response::SegmentChunk {
                shard: 2,
                start: 777,
                bytes: vec![1, 2, 3, 4, 5],
            },
            &ctx,
        ) {
            Response::SegmentChunk {
                shard,
                start,
                bytes,
            } => {
                assert_eq!((shard, start), (2, 777));
                assert_eq!(bytes, vec![1, 2, 3, 4, 5]);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        match round_trip_response(
            &Response::ReplicaStatus {
                positions: vec![64, 0, u64::MAX],
                writable: true,
            },
            &ctx,
        ) {
            Response::ReplicaStatus {
                positions,
                writable,
            } => {
                assert_eq!(positions, vec![64, 0, u64::MAX]);
                assert!(writable);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let report = StatsReport {
            batches: 5,
            batched_requests: 40,
            bypass: 12,
            queue_depth: 3,
            queue_peak: 17,
            hist: [1, 2, 3, 4, 5, 6, 7, 8],
            positions: vec![64, 0, u64::MAX],
            writable: true,
        };
        match round_trip_response(&Response::Stats(report.clone()), &ctx) {
            Response::Stats(back) => assert_eq!(back, report),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn hostile_counts_fail_before_allocating() {
        let params = tibpre_pairing::PairingParams::insecure_toy();
        let ctx = DecodeCtx::from(&params);
        // A RecordIds frame claiming u64::MAX elements with no bytes behind
        // the claim must fail on the count, not attempt the allocation.
        let mut w = Writer::with_version(WireVersion::V1);
        w.put_u8(WireVersion::V1.tag());
        w.put_u8(6); // Response::RecordIds
        w.put_u64(u64::MAX);
        assert!(Response::from_wire_bytes(&w.into_bytes(), &ctx).is_err());
    }

    #[test]
    fn retired_tags_decode_as_invalid_tags() {
        let ctx = DecodeCtx::from(&tibpre_pairing::PairingParams::insecure_toy());
        let frame = |tag| vec![WireVersion::V1.tag(), tag];
        let invalid = |err: DecodeError, tag| {
            assert!(
                matches!(err.kind, DecodeErrorKind::InvalidTag { tag: t, .. } if t == tag),
                "tag {tag}: {err:?}"
            );
        };
        for tag in [41, 43] {
            invalid(
                Request::from_wire_bytes(&frame(tag), &ctx).unwrap_err(),
                tag,
            );
        }
        invalid(Response::from_wire_bytes(&frame(18), &ctx).unwrap_err(), 18);
    }

    #[test]
    fn error_mapping_round_trips_through_phr() {
        let not_found = RemoteError::from_phr(&PhrError::RecordNotFound);
        assert_eq!(not_found, RemoteError::NotFound);
        assert!(matches!(not_found.into_phr(), PhrError::RecordNotFound));
        let denied = RemoteError::from_phr(&PhrError::AccessDenied {
            category: "emergency".into(),
            requester: "mallory".into(),
        });
        assert!(matches!(
            denied.into_phr(),
            PhrError::AccessDenied { category, requester }
                if category == "emergency" && requester == "mallory"
        ));
        assert!(matches!(
            RemoteError::from_phr(&PhrError::PolicyConflict("dup")).into_phr(),
            PhrError::Storage(_)
        ));
    }

    #[test]
    fn role_and_level_names_round_trip() {
        for role in [NodeRole::Kgc, NodeRole::Proxy, NodeRole::Store] {
            assert_eq!(NodeRole::from_name(role.name()), Some(role));
        }
        assert_eq!(NodeRole::from_name("coordinator"), None);
        for level in [
            SecurityLevel::Toy,
            SecurityLevel::Low80,
            SecurityLevel::Medium112,
            SecurityLevel::High128,
        ] {
            assert_eq!(level_from_name(level_name(level)), Some(level));
        }
        assert_eq!(level_from_name("256bit"), None);
    }
}
