//! # tibpre-server — the TIB-PRE network node
//!
//! Puts a socket in front of the scheme: one binary (`tibpre-node`) serving
//! any of the three deployment roles of Ibraimi et al. over a hand-rolled
//! blocking TCP listener —
//!
//! * **kgc** — the key generation centre ([`tibpre_ibe::Kgc`]),
//! * **store** — the durable encrypted record store
//!   ([`tibpre_phr::EncryptedPhrStore`]), optionally a read replica of a
//!   durable primary,
//! * **proxy** — the semi-trusted re-encryption proxy
//!   ([`tibpre_phr::ProxyService`]), reading records from a store node via
//!   [`tibpre_client::RemoteStore`].
//!
//! The protocol (typed [`tibpre_client::Request`] /
//! [`tibpre_client::Response`] frames under the versioned wire envelope)
//! lives in `tibpre-client`; this crate adds the listener, one thread per
//! connection that executes the connection's pipelined requests in request
//! order (a proxy serves each run of consecutive `Disclose` requests as one
//! batch; see [`node`]), per-role dispatch and graceful shutdown.  Callers
//! boot a node in process with [`start`]; `tests/real_binaries.rs` drives
//! the shipped binary.

#![deny(unsafe_code)] // signal.rs carves out its own file-scoped allow
#![deny(missing_docs)]

pub mod config;
mod metrics;
pub mod node;
mod replica;
mod service;
pub mod signal;

pub use config::NodeConfig;
pub use node::{start, NodeHandle, ServerError};
