//! Symmetric primitives for the TIB-PRE hybrid (KEM/DEM) mode.
//!
//! The paper encrypts messages that are elements of the pairing target group.
//! Real personal-health-record payloads are byte strings, so `tibpre-core`
//! exposes a hybrid mode: the scheme encapsulates a random group element, a KDF
//! turns it into symmetric keys, and this crate's data-encapsulation mechanism
//! (DEM) encrypts the payload:
//!
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 7539 flavour: 256-bit key,
//!   96-bit nonce, 32-bit block counter), implemented from scratch,
//! * [`aead`] — encrypt-then-MAC authenticated encryption combining ChaCha20
//!   with HMAC-SHA-256, with associated data support.
//!
//! [`AeadCiphertext`] is declared with [`tibpre_wire::message!`]: the nonce
//! and tag as fixed byte arrays, the body as a blob with a `u64` length, in
//! that order in every wire version.
//!
//! As with the rest of the workspace, implementations favour clarity; the DEM
//! is never the bottleneck next to pairing operations, yet still processes
//! megabytes per second, which is plenty for the PHR workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod chacha20;
pub mod error;

pub use aead::{AeadCiphertext, AeadKey};
pub use chacha20::ChaCha20;
pub use error::SymmetricError;

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, SymmetricError>;
