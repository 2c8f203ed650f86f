//! From-scratch cryptographic hash primitives for the TIB-PRE workspace.
//!
//! The proxy re-encryption scheme of Ibraimi et al. models two hash functions
//! as random oracles — `H1 : {0,1}* → G` (hash onto the pairing group) and
//! `H2 : {0,1}* → Z_q*` — and the healthcare application additionally needs a
//! key-derivation function and a MAC for its data-encapsulation layer.  Because
//! no external crypto crates are permitted for the reproduction, this crate
//! implements the required primitives directly:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (constants derived from integer square /
//!   cube roots at start-up, verified against published test vectors),
//! * [`sha3`] — the Keccak-f\[1600\] permutation and the SHAKE-256
//!   extendable-output function that feeds the oracles,
//! * [`hmac`] — HMAC-SHA-256,
//! * [`kdf`] — an HKDF-style extract-and-expand construction over HMAC-SHA-256,
//! * [`oracle`] — domain-separated helpers that the pairing / scheme layers use
//!   to instantiate `H1`, `H2` and related random oracles.
//!
//! The implementations favour clarity over speed; hashing is never the
//! bottleneck next to pairing computation.
//!
//! # Example
//!
//! ```
//! use tibpre_hash::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     hex(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//!
//! fn hex(bytes: &[u8]) -> String {
//!     bytes.iter().map(|b| format!("{b:02x}")).collect()
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hmac;
pub mod kdf;
pub mod oracle;
pub mod sha256;
pub mod sha3;

pub use hmac::HmacSha256;
pub use kdf::Hkdf;
pub use oracle::DomainSeparatedHasher;
pub use sha256::Sha256;
pub use sha3::Shake256;
