//! Boneh–Franklin encryption, multiplicative ("modified") variant.
//!
//! This is the `Encrypt` / `Decrypt` of Section 3.2 of the paper: the message
//! space is the pairing target group and the mask is multiplicative,
//!
//! ```text
//! Encrypt(m, id):  r ∈R Z_q^*,  c = (g^r,  m · ê(pk_id, pk)^r)
//! Decrypt(c, sk):  m = c2 / ê(sk_id, c1)
//! ```
//!
//! which is exactly the form the proxy re-encryption algebra of Section 4
//! builds on (the same modification appears in Green–Ateniese).  The PRE layer
//! uses this module as its `Encrypt2` / `Decrypt2`.

use crate::identity::Identity;
use crate::kgc::{IbePrivateKey, IbePublicParams};
use crate::{IbeError, Result};
use rand::{CryptoRng, RngCore};
use std::sync::Arc;
use tibpre_pairing::{wire, DecodeCtx, G1Affine, Gt, PairingParams};
use tibpre_wire::{
    decode_bare, encode_bare, DecodeError, Field, Reader, WireDecode, WireEncode, WireVersion,
    Writer,
};

tibpre_wire::message! {
    /// A Boneh–Franklin ciphertext `(c1, c2) = (g^r, m · ê(pk_id, pk)^r)`.
    /// Decoding validates `c1` against the curve *and* the prime-order
    /// subgroup; `c2` is range/torus-validated only (see the pairing crate's
    /// wire docs for why the full `Gt` subgroup check is skipped).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct IbeCiphertext: DecodeCtx {
        /// `c1 = g^r`.
        pub c1: G1Affine,
        /// `c2 = m · ê(pk_id, pk)^r`.
        pub c2: Gt,
    }
}

impl IbeCiphertext {
    /// Total standalone serialized length (envelope byte included) under the
    /// default wire version.
    pub fn serialized_len(params: &PairingParams) -> usize {
        1 + params.g1_byte_len() + params.gt_byte_len()
    }
}

/// An [`IbeCiphertext`] kept as its default-version wire bytes: a
/// re-encrypted ciphertext's `c'₃`, which the proxy copies and the mask
/// cache is keyed by.  Decoding only frames the two elements, so it is
/// **unvalidated** until [`Self::to_ciphertext`] succeeds.  Equality is
/// equality of the bytes.
#[derive(Clone)]
pub struct EncodedIbeCiphertext {
    bytes: Arc<[u8]>,
    /// The parameters the bytes are opened under.
    ctx: DecodeCtx,
}

impl EncodedIbeCiphertext {
    /// The canonical encoding of `ciphertext`.
    pub fn new(ciphertext: &IbeCiphertext, ctx: &DecodeCtx) -> Self {
        let bytes = encode_bare(ciphertext, WireVersion::DEFAULT).into();
        let ctx = ctx.clone();
        EncodedIbeCiphertext { bytes, ctx }
    }

    /// The bare default-version encoding.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Decodes the bytes with [`IbeCiphertext`]'s full boundary validation.
    pub fn to_ciphertext(&self) -> core::result::Result<IbeCiphertext, DecodeError> {
        decode_bare(&self.bytes, WireVersion::DEFAULT, &self.ctx)
    }
}

impl PartialEq for EncodedIbeCiphertext {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for EncodedIbeCiphertext {}

impl core::fmt::Debug for EncodedIbeCiphertext {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "EncodedIbeCiphertext({:02x?})", &self.bytes[..])
    }
}

impl WireEncode for EncodedIbeCiphertext {
    /// The bytes, or under another version (which no production path
    /// writes) the ciphertext they encode; panics if they do not decode.
    fn encode(&self, w: &mut Writer) {
        if w.version() == WireVersion::DEFAULT {
            w.put_slice(&self.bytes);
        } else {
            self.to_ciphertext()
                .expect("only validated c'3 bytes are re-encoded")
                .encode(w);
        }
    }
}

impl WireDecode for EncodedIbeCiphertext {
    type Ctx = DecodeCtx;

    /// Frames the two elements by their tags (other versions: decodes).
    fn decode(r: &mut Reader<'_>, ctx: &DecodeCtx) -> core::result::Result<Self, DecodeError> {
        if r.version() != WireVersion::DEFAULT {
            return Ok(Self::new(&IbeCiphertext::decode(r, ctx)?, ctx));
        }
        let start = r.offset();
        wire::skip_g1(r, ctx.fp_ctx())?;
        wire::skip_gt(r, ctx.fp_ctx())?;
        let (bytes, ctx) = (r.window(start).into(), ctx.clone());
        Ok(EncodedIbeCiphertext { bytes, ctx })
    }
}

/// A declared `c'₃` field: framed only, like the bare decode.
impl Field<DecodeCtx> for EncodedIbeCiphertext {
    fn put(&self, w: &mut Writer) {
        self.encode(w);
    }
    fn read(r: &mut Reader<'_>, ctx: &DecodeCtx) -> core::result::Result<Self, DecodeError> {
        Self::decode(r, ctx)
    }
}

/// Encrypts a target-group element `m` to the identity `id`.
pub fn encrypt_gt<R: RngCore + CryptoRng>(
    pp: &IbePublicParams,
    id: &Identity,
    message: &Gt,
    rng: &mut R,
) -> IbeCiphertext {
    let params = pp.pairing();
    let r = params.random_nonzero_scalar(rng);
    encrypt_gt_with_randomness(pp, id, message, &r)
}

/// Deterministic encryption with caller-supplied randomness `r`.
///
/// Exposed for the security-game harness (which must re-encrypt challenge
/// messages with known coins) and for tests; normal callers use [`encrypt_gt`].
pub fn encrypt_gt_with_randomness(
    pp: &IbePublicParams,
    id: &Identity,
    message: &Gt,
    r: &tibpre_pairing::Scalar,
) -> IbeCiphertext {
    let params = pp.pairing();
    // g^r through the cached fixed-base table for g.
    let c1 = params.mul_generator(r);
    // ê(pk_id, pk)^r through the Miller loop prepared for the fixed pk.
    let pk_id = pp.identity_public_key(id);
    let shared = pp.prepared_kgc_key().pairing(&pk_id).pow_scalar(r);
    let c2 = message.mul(&shared);
    IbeCiphertext { c1, c2 }
}

/// Decrypts a ciphertext with the private key of the recipient identity:
/// `m = c2 / ê(sk_id, c1)` — the pairing runs over the Miller loop prepared
/// for the fixed `sk_id`.
pub fn decrypt_gt(sk: &IbePrivateKey, ciphertext: &IbeCiphertext) -> Result<Gt> {
    let shared = sk.prepared_key().pairing(&ciphertext.c1);
    ciphertext
        .c2
        .div(&shared)
        .map_err(|_| IbeError::InvalidCiphertext("degenerate mask"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kgc::Kgc;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Kgc, IbePublicParams, StdRng) {
        let mut rng = StdRng::seed_from_u64(21);
        let params = PairingParams::insecure_toy();
        let kgc = Kgc::setup(params, "bf-test", &mut rng);
        let pp = kgc.public_params().clone();
        (kgc, pp, rng)
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let (kgc, pp, mut rng) = setup();
        let id = Identity::new("alice@example.org");
        let sk = kgc.extract(&id);
        for _ in 0..5 {
            let m = pp.pairing().random_gt(&mut rng);
            let ct = encrypt_gt(&pp, &id, &m, &mut rng);
            assert_eq!(decrypt_gt(&sk, &ct).unwrap(), m);
        }
    }

    #[test]
    fn decryption_with_wrong_key_fails_to_recover() {
        let (kgc, pp, mut rng) = setup();
        let alice = Identity::new("alice");
        let bob = Identity::new("bob");
        let sk_bob = kgc.extract(&bob);
        let m = pp.pairing().random_gt(&mut rng);
        let ct = encrypt_gt(&pp, &alice, &m, &mut rng);
        let recovered = decrypt_gt(&sk_bob, &ct).unwrap();
        assert_ne!(recovered, m);
    }

    #[test]
    fn ciphertexts_are_randomised() {
        let (_kgc, pp, mut rng) = setup();
        let id = Identity::new("alice");
        let m = pp.pairing().random_gt(&mut rng);
        let c1 = encrypt_gt(&pp, &id, &m, &mut rng);
        let c2 = encrypt_gt(&pp, &id, &m, &mut rng);
        assert_ne!(c1, c2);
    }

    #[test]
    fn deterministic_with_fixed_randomness() {
        let (_kgc, pp, mut rng) = setup();
        let id = Identity::new("alice");
        let m = pp.pairing().random_gt(&mut rng);
        let r = pp.pairing().random_nonzero_scalar(&mut rng);
        let c1 = encrypt_gt_with_randomness(&pp, &id, &m, &r);
        let c2 = encrypt_gt_with_randomness(&pp, &id, &m, &r);
        assert_eq!(c1, c2);
        assert_eq!(c1.c1, pp.pairing().generator().mul_scalar(&r));
    }

    #[test]
    fn serialization_round_trip() {
        let (kgc, pp, mut rng) = setup();
        let id = Identity::new("alice");
        let sk = kgc.extract(&id);
        let m = pp.pairing().random_gt(&mut rng);
        let ct = encrypt_gt(&pp, &id, &m, &mut rng);
        let ctx = DecodeCtx::from(pp.pairing());
        let bytes = ct.to_wire_bytes();
        assert_eq!(bytes.len(), IbeCiphertext::serialized_len(pp.pairing()));
        let parsed = IbeCiphertext::from_wire_bytes(&bytes, &ctx).unwrap();
        assert_eq!(parsed, ct);
        assert_eq!(decrypt_gt(&sk, &parsed).unwrap(), m);
        // Corrupted encodings are rejected or fail to decrypt to m.
        assert!(IbeCiphertext::from_wire_bytes(&bytes[..10], &ctx).is_err());
        let mut truncated = bytes.clone();
        truncated.pop();
        assert!(IbeCiphertext::from_wire_bytes(&truncated, &ctx).is_err());
    }

    #[test]
    fn encoded_ciphertexts_frame_lazily_and_validate_on_demand() {
        let (kgc, pp, mut rng) = setup();
        let id = Identity::new("alice");
        let m = pp.pairing().random_gt(&mut rng);
        let ct = encrypt_gt(&pp, &id, &m, &mut rng);
        let ctx = DecodeCtx::from(pp.pairing());
        let encoded = EncodedIbeCiphertext::new(&ct, &ctx);
        assert_eq!(encoded.as_bytes(), &ct.to_wire_bytes()[1..]);
        assert_eq!(encoded.to_ciphertext().unwrap(), ct);
        for version in [WireVersion::V0, WireVersion::V1] {
            let bytes = encode_bare(&encoded, version);
            assert_eq!(bytes, encode_bare(&ct, version));
            let decoded: EncodedIbeCiphertext = decode_bare(&bytes, version, &ctx).unwrap();
            assert_eq!(decoded, encoded);
        }
        for cut in 0..encoded.as_bytes().len() {
            let prefix = &encoded.as_bytes()[..cut];
            assert!(decode_bare::<EncodedIbeCiphertext>(prefix, WireVersion::V1, &ctx).is_err());
        }

        // A point off the curve is framed like any other, and refused
        // when opened.
        let mut off_curve = encoded.as_bytes().to_vec();
        let flen = pp.pairing().fp_ctx().byte_len();
        let lazy = (0..=u8::MAX)
            .find_map(|b| {
                off_curve[flen] = b;
                let framed: EncodedIbeCiphertext =
                    decode_bare(&off_curve, WireVersion::V1, &ctx).unwrap();
                framed.to_ciphertext().is_err().then_some(framed)
            })
            .expect("about half of all x have no point");
        assert_ne!(lazy, encoded);
        let sk = kgc.extract(&id);
        assert_eq!(
            decrypt_gt(&sk, &encoded.to_ciphertext().unwrap()).unwrap(),
            m
        );
    }

    #[test]
    fn keys_from_a_different_domain_decrypt_to_garbage() {
        // Same pairing parameters, different KGC master keys: decryption
        // "succeeds" algebraically but yields a different message.
        let mut rng = StdRng::seed_from_u64(22);
        let params = PairingParams::insecure_toy();
        let kgc1 = Kgc::setup(params.clone(), "kgc-1", &mut rng);
        let kgc2 = Kgc::setup(params.clone(), "kgc-2", &mut rng);
        let id = Identity::new("carol");
        let m = params.random_gt(&mut rng);
        let ct = encrypt_gt(kgc1.public_params(), &id, &m, &mut rng);
        let wrong = decrypt_gt(&kgc2.extract(&id), &ct).unwrap();
        assert_ne!(wrong, m);
        let right = decrypt_gt(&kgc1.extract(&id), &ct).unwrap();
        assert_eq!(right, m);
    }
}
