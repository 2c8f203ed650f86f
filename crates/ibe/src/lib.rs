//! Boneh–Franklin identity-based encryption on the TIB-PRE pairing substrate.
//!
//! Section 3.2 of Ibraimi et al. reviews the Boneh–Franklin scheme in a
//! slightly modified form — the message space is the pairing target group and
//! the mask is multiplicative (`c2 = m · ê(pk_id, pk)^r`) instead of the
//! original XOR mask — because that modification is what makes the proxy
//! re-encryption algebra work.  This crate implements that multiplicative
//! variant ([`bf`], the scheme's `Encrypt2` / `Decrypt2`) together with the
//! key-generation-centre abstraction ([`kgc::Kgc`]) that the paper's two
//! domains (`KGC1` for the delegator, `KGC2` for the delegatee) instantiate
//! over *shared* pairing parameters but independent master keys.
//!
//! Ciphertexts, public parameters and private keys are each declared once
//! with [`tibpre_wire::message!`], in wire order.  Their `G1` fields are
//! subgroup-checked on decode (the field codec in `tibpre_pairing::wire`),
//! the pairing parameters never travel (the decode context supplies them),
//! and the lazily built pairing tables are never written.
//! [`EncodedIbeCiphertext`] keeps a hand-written codec: it only frames its
//! two elements, and validates them on first use.
//!
//! # Example
//!
//! ```
//! use tibpre_ibe::{Identity, Kgc};
//! use tibpre_pairing::PairingParams;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let params = PairingParams::insecure_toy();
//! let kgc = Kgc::setup(params.clone(), "hospital-kgc", &mut rng);
//! let pp = kgc.public_params().clone();
//!
//! let alice = Identity::new("alice@example.org");
//! let sk_alice = kgc.extract(&alice);
//!
//! let message = params.random_gt(&mut rng);
//! let ct = tibpre_ibe::bf::encrypt_gt(&pp, &alice, &message, &mut rng);
//! let recovered = tibpre_ibe::bf::decrypt_gt(&sk_alice, &ct).unwrap();
//! assert_eq!(recovered, message);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bf;
pub mod error;
pub mod identity;
pub mod kgc;

pub use bf::{EncodedIbeCiphertext, IbeCiphertext};
pub use error::IbeError;
pub use identity::Identity;
pub use kgc::{IbePrivateKey, IbePublicParams, Kgc};

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, IbeError>;

/// Domain-separation tag of the paper's `H1 : {0,1}* → G` oracle.
///
/// `H1` is part of the *shared* public parameters, so it deliberately does not
/// depend on which KGC extracts the key.
pub const H1_DOMAIN: &str = "TIBPRE-BF-H1";
