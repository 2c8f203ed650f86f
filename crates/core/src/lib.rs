//! # tibpre-core — the type-and-identity-based proxy re-encryption scheme
//!
//! This crate implements the primary contribution of
//! *"A Type-and-Identity-based Proxy Re-Encryption Scheme and its Application
//! in Healthcare"* (Ibraimi, Tang, Hartel, Jonker; Secure Data Management
//! workshop at VLDB 2008): a proxy re-encryption scheme in which the delegator
//! tags every ciphertext with a **type** and can hand a proxy a re-encryption
//! key that converts ciphertexts of *that type only* for a chosen delegatee —
//! all with a single key pair.
//!
//! ## The scheme (Section 4 of the paper)
//!
//! The delegator (identity `id_i`, registered at `KGC1`) categorises messages
//! into types `t` and encrypts to himself with
//!
//! ```text
//! Encrypt1(m, t, id_i):  r ∈R Z_q^*,
//!     c = ( g^r,  m · ê(pk_idi, pk₁)^{ r · H2(sk_idi ‖ t) },  t )
//! ```
//!
//! Note that `Encrypt1` uses the delegator's own *private* key inside `H2`, so
//! nobody else can create ciphertexts of a given type under his identity, and
//! each type effectively lives under an independent "virtual key"
//! `H2(sk_idi ‖ t)` — this is what makes per-type delegation possible without
//! per-type key pairs.
//!
//! To delegate type `t` to a delegatee (identity `id_j`, registered at `KGC2`,
//! sharing the pairing parameters), the delegator runs
//!
//! ```text
//! Pextract(id_i, id_j, t, sk_idi):  X ∈R G_1,
//!     rk_{i→j} = ( t,  sk_idi^{ −H2(sk_idi ‖ t) } · H1(X),  Encrypt2(X, id_j) )
//! ```
//!
//! and gives `rk` to a proxy.  The proxy converts a type-`t` ciphertext with
//!
//! ```text
//! Preenc(c, rk):  c' = ( c1,  c2 · ê(c1, rk₂),  Encrypt2(X, id_j) )
//! ```
//!
//! after which the mask collapses to `ê(g^r, H1(X))` and the delegatee recovers
//! `m = c'₂ / ê(c'₁, H1(Decrypt2(c'₃, sk_idj)))` — without ever talking to the
//! delegator and without the proxy learning anything about `m`.
//!
//! ## Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`types`] | [`TypeTag`] — the message categories (`t`) |
//! | [`delegator`] | [`Delegator`], [`TypedCiphertext`] — `Encrypt1` / `Decrypt1` |
//! | [`rekey`] | [`ReEncryptionKey`] — `Pextract` output |
//! | [`proxy`] | [`proxy::re_encrypt_batch`] — `Preenc`, the one conversion; [`Proxy`] (key table), [`ReEncryptedCiphertext`] |
//! | [`delegatee`] | [`Delegatee`] — decryption of re-encrypted ciphertexts |
//! | [`hybrid`] | KEM/DEM mode for byte payloads (PHR records) |
//!
//! ## Wire form
//!
//! Each ciphertext and key here is declared once with
//! [`tibpre_wire::message!`]: its wire order is its field order, and each
//! field travels by its type's codec.  A `G1` field (`c₁`, `rk₂`) is always
//! subgroup-checked on decode and a `Gt` field range/torus-checked (the
//! field codecs of `tibpre_pairing::wire`); a [`TypeTag`] is a
//! length-prefixed blob; a hybrid ciphertext nests its header and writes
//! its AEAD body in place.  A re-encryption key's `rk₃` is fully validated
//! on decode and then kept as bytes, while a re-encrypted ciphertext's
//! `c'₃` is only framed until a delegatee opens it.
//!
//! ## Quick start
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use tibpre_core::{Delegatee, Delegator, Proxy, TypeTag};
//! use tibpre_ibe::{Identity, Kgc};
//! use tibpre_pairing::PairingParams;
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let params = PairingParams::insecure_toy();
//!
//! // Two domains sharing the pairing parameters (the paper's KGC1 / KGC2).
//! let kgc1 = Kgc::setup(params.clone(), "patients", &mut rng);
//! let kgc2 = Kgc::setup(params.clone(), "clinicians", &mut rng);
//!
//! // Alice (delegator) and her cardiologist (delegatee).
//! let alice = Identity::new("alice@phr.example");
//! let cardiologist = Identity::new("dr.smith@heart-clinic.example");
//! let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
//! let delegatee = Delegatee::new(kgc2.extract(&cardiologist));
//!
//! // Alice encrypts a message of type "illness-history" to herself.
//! let illness = TypeTag::new("illness-history");
//! let m = params.random_gt(&mut rng);
//! let ct = delegator.encrypt_typed(&m, &illness, &mut rng);
//!
//! // She delegates that type (and only that type) through a proxy.
//! let rk = delegator
//!     .make_reencryption_key(&cardiologist, kgc2.public_params(), &illness, &mut rng)
//!     .unwrap();
//! let mut proxy = Proxy::new("hospital-gateway");
//! proxy.install_key(rk);
//! let transformed = proxy.re_encrypt_for(&ct, &alice, &cardiologist).unwrap();
//!
//! // The cardiologist decrypts with his own key — Alice stayed offline.
//! assert_eq!(delegatee.decrypt_reencrypted(&transformed).unwrap(), m);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod delegatee;
pub mod delegator;
pub mod error;
pub mod hybrid;
pub mod proxy;
pub mod rekey;
pub mod types;

pub use delegatee::Delegatee;
pub use delegator::{Delegator, TypedCiphertext};
pub use error::PreError;
pub use hybrid::{HybridCiphertext, ReEncryptedHybridCiphertext};
pub use proxy::{Proxy, ReEncryptedCiphertext};
pub use rekey::ReEncryptionKey;
pub use types::TypeTag;

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, PreError>;

/// Domain-separation tag of the paper's `H2 : {0,1}* → Z_q^*` oracle
/// (the per-type exponent `H2(sk_id ‖ t)`).
pub const H2_DOMAIN: &str = "TIBPRE-H2";
