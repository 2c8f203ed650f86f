//! # tibpre-client — the node protocol and its TCP clients
//!
//! The deployment story of Ibraimi et al. is a *service*: patients,
//! providers, and the semi-trusted proxy are network principals.  This crate
//! defines the protocol those principals speak — typed [`Request`] /
//! [`Response`] enums carried as length-prefixed
//! ([`tibpre_wire::framing`]) versioned-envelope frames — and the blocking
//! TCP clients for each node role:
//!
//! * [`KgcClient`] — `PublicParams` / `Extract` against a KGC node,
//! * [`StoreClient`] — record CRUD, listing, audit, and sync against a
//!   store node,
//! * [`ProxyClient`] — grant/revoke and disclosure against a proxy node,
//! * [`RemoteStore`] — a store node seen through
//!   [`tibpre_phr::RecordSource`], which is how a *proxy node* reads the
//!   records it re-encrypts without holding them.
//!
//! Each message kind is declared once in [`protocol`] — its tag, variant
//! and fields — and the enums, their wire codecs and `kind()` names are
//! derived from that declaration.
//!
//! The protocol types live here (not in `tibpre-wire`) because they carry
//! scheme-level payloads — ciphertexts, re-encryption keys, disclosure
//! bundles — and the wire crate sits *below* those layers.  The server crate
//! depends on this one for the shared protocol.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod conn;
pub mod protocol;
pub mod remote;

pub use conn::{ClientConfig, ClientError, Connection};
pub use protocol::{
    level_from_name, level_name, params_for_level, NodeRole, RemoteError, Request, Response,
    StatsReport,
};
pub use remote::{KgcClient, ProxyClient, RemoteStore, StoreClient};
