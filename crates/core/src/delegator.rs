//! The delegator role: typed self-encryption (`Encrypt1` / `Decrypt1`) and
//! re-encryption-key generation (`Pextract`).

use crate::rekey::ReEncryptionKey;
use crate::types::TypeTag;
use crate::{PreError, Result, H2_DOMAIN};
use rand::{CryptoRng, RngCore};
use std::sync::{Arc, OnceLock};
use tibpre_ibe::{bf, IbePrivateKey, IbePublicParams, Identity, H1_DOMAIN};
use tibpre_pairing::{DecodeCtx, G1Affine, G1Precomp, Gt, PairingParams, Scalar};

tibpre_wire::message! {
    /// A typed ciphertext `(c1, c2, c3) = (g^r, m · ê(pk_id, pk₁)^{r·H2(sk‖t)}, t)`.
    ///
    /// Only the delegator himself can produce (or directly decrypt) these
    /// ciphertexts, because the exponent involves his private key.  Decoding
    /// validates `c1` against the curve and the prime-order subgroup; `c2` is
    /// range/torus-validated only (the mask never needs the full subgroup
    /// check — see the pairing crate's wire docs).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct TypedCiphertext: DecodeCtx {
        /// `c1 = g^r`.
        pub c1: G1Affine,
        /// `c2 = m · ê(pk_id, pk₁)^{r·H2(sk_id ‖ t)}`.
        pub c2: Gt,
        /// `c3 = t`, the message type (sent in the clear, as in the paper).
        pub type_tag: TypeTag,
    }
}

impl TypedCiphertext {
    /// Total standalone serialized length (envelope byte included) under the
    /// default wire version.
    pub fn serialized_len(params: &PairingParams, type_len: usize) -> usize {
        1 + params.g1_byte_len() + params.gt_byte_len() + 4 + type_len
    }
}

/// Per-delegator precomputation, built lazily because most delegators only
/// ever exercise one or two of the three hot paths.
#[derive(Default)]
struct DelegatorCache {
    /// `ê(pk_id, pk)` — the delegator's own identity and the KGC key are both
    /// fixed, so the whole encryption pairing is one constant `G_1` element;
    /// `Encrypt1` reduces to `g^r` plus one `G_1` exponentiation.
    encryption_base: OnceLock<Gt>,
    /// Fixed-base table for `sk_id`, used by `Pextract`'s
    /// `sk_id^{−H2(sk_id ‖ t)}`.
    sk_table: OnceLock<Arc<G1Precomp>>,
}

/// The delegator: owns a private key in the `KGC1` domain and categorises his
/// messages into types.
pub struct Delegator {
    domain: IbePublicParams,
    private_key: IbePrivateKey,
    cache: DelegatorCache,
}

impl Delegator {
    /// Binds a delegator to his domain parameters and extracted private key.
    pub fn new(domain: IbePublicParams, private_key: IbePrivateKey) -> Self {
        Delegator {
            domain,
            private_key,
            cache: DelegatorCache::default(),
        }
    }

    /// The delegator's identity.
    pub fn identity(&self) -> &Identity {
        self.private_key.identity()
    }

    /// The delegator's domain (KGC1) public parameters.
    pub fn domain(&self) -> &IbePublicParams {
        &self.domain
    }

    /// The shared pairing parameters.
    pub fn params(&self) -> &Arc<PairingParams> {
        self.domain.pairing()
    }

    /// Access to the private key (needed by the security-game harness).
    pub fn private_key(&self) -> &IbePrivateKey {
        &self.private_key
    }

    /// The paper's per-type exponent `H2(sk_id ‖ t)`.
    ///
    /// Each type tag yields an independent "virtual key", which is exactly what
    /// lets one key pair support many independent delegations.
    pub fn type_exponent(&self, type_tag: &TypeTag) -> Scalar {
        self.params().hash_to_zq(
            H2_DOMAIN,
            &[&self.private_key.to_bytes(), type_tag.as_bytes()],
        )
    }

    /// `Encrypt1(m, t, id)`: encrypts a target-group element to the delegator
    /// himself under the given type.
    pub fn encrypt_typed<R: RngCore + CryptoRng>(
        &self,
        message: &Gt,
        type_tag: &TypeTag,
        rng: &mut R,
    ) -> TypedCiphertext {
        let r = self.params().random_nonzero_scalar(rng);
        self.encrypt_typed_with_randomness(message, type_tag, &r)
    }

    /// Deterministic variant of [`Self::encrypt_typed`] with caller-supplied `r`
    /// (used by the security-game harness).
    pub fn encrypt_typed_with_randomness(
        &self,
        message: &Gt,
        type_tag: &TypeTag,
        r: &Scalar,
    ) -> TypedCiphertext {
        let params = self.params();
        // g^r through the cached fixed-base table for g.
        let c1 = params.mul_generator(r);
        // Both pairing arguments are fixed for this delegator, so the base
        // mask ê(pk_id, pk) is computed once and cached; each encryption
        // then costs a single G_1 exponentiation.
        let base = self.cache.encryption_base.get_or_init(|| {
            let pk_id = self.domain.identity_public_key(self.identity());
            self.domain.prepared_kgc_key().pairing(&pk_id)
        });
        let exponent = r.mul(&self.type_exponent(type_tag));
        let mask = base.pow_scalar(&exponent);
        TypedCiphertext {
            c1,
            c2: message.mul(&mask),
            type_tag: type_tag.clone(),
        }
    }

    /// `Decrypt1(c, sk_id)`: direct decryption by the delegator,
    /// `m = c2 / ê(sk_id, c1)^{H2(sk_id ‖ c3)}` — the pairing runs over the
    /// Miller loop prepared for the fixed `sk_id`.
    pub fn decrypt_typed(&self, ciphertext: &TypedCiphertext) -> Result<Gt> {
        let exponent = self.type_exponent(&ciphertext.type_tag);
        let mask = self
            .private_key
            .prepared_key()
            .pairing(&ciphertext.c1)
            .pow_scalar(&exponent);
        ciphertext
            .c2
            .div(&mask)
            .map_err(|_| PreError::InvalidEncoding("degenerate decryption mask"))
    }

    /// `Pextract(id_i, id_j, t, sk_idi)`: creates the re-encryption key that
    /// lets a proxy convert the delegator's type-`t` ciphertexts for the
    /// delegatee `id_j` registered in `delegatee_domain` (the paper's `KGC2`).
    ///
    /// The two domains must share pairing parameters; the delegatee's domain
    /// may otherwise be completely independent (different master key).
    pub fn make_reencryption_key<R: RngCore + CryptoRng>(
        &self,
        delegatee: &Identity,
        delegatee_domain: &IbePublicParams,
        type_tag: &TypeTag,
        rng: &mut R,
    ) -> Result<ReEncryptionKey> {
        if !self.domain.shares_parameters_with(delegatee_domain) {
            return Err(PreError::IncompatibleDomains);
        }
        let params = self.params();
        // X ∈R G_1 (the target group), encrypted to the delegatee under KGC2.
        let x = params.random_gt(rng);
        let encrypted_x = bf::encrypt_gt(delegatee_domain, delegatee, &x, rng);
        // rk₂ = sk_idi^{−H2(sk_idi ‖ t)} · H1(X), with the sk_idi power taken
        // through a fixed-base table cached across Pextract calls.
        let exponent = self.type_exponent(type_tag).neg();
        let h1_of_x = params.hash_to_g1(H1_DOMAIN, &[&x.to_bytes()])?;
        let sk_table = self
            .cache
            .sk_table
            .get_or_init(|| Arc::new(G1Precomp::new(self.private_key.key(), params.q().bits())));
        let rk_point = sk_table.mul_scalar(&exponent).add(&h1_of_x);
        Ok(ReEncryptionKey::new(
            self.identity().clone(),
            delegatee.clone(),
            type_tag.clone(),
            rk_point,
            encrypted_x,
            Arc::clone(params),
        ))
    }
}

impl core::fmt::Debug for Delegator {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Delegator(identity={})", self.identity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tibpre_ibe::Kgc;
    use tibpre_wire::{WireDecode, WireEncode};

    fn setup() -> (Delegator, Arc<PairingParams>, StdRng) {
        let mut rng = StdRng::seed_from_u64(51);
        let params = PairingParams::insecure_toy();
        let kgc = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let alice = Identity::new("alice@phr.example");
        let delegator = Delegator::new(kgc.public_params().clone(), kgc.extract(&alice));
        (delegator, params, rng)
    }

    #[test]
    fn typed_encrypt_decrypt_round_trip() {
        let (delegator, params, mut rng) = setup();
        for label in ["illness-history", "food-statistics", "emergency"] {
            let t = TypeTag::new(label);
            let m = params.random_gt(&mut rng);
            let ct = delegator.encrypt_typed(&m, &t, &mut rng);
            assert_eq!(ct.type_tag, t);
            assert_eq!(delegator.decrypt_typed(&ct).unwrap(), m);
        }
    }

    #[test]
    fn decrypting_with_wrong_type_tag_gives_garbage() {
        let (delegator, params, mut rng) = setup();
        let m = params.random_gt(&mut rng);
        let ct = delegator.encrypt_typed(&m, &TypeTag::new("t1"), &mut rng);
        // Tamper with the type tag: the decryption exponent changes.
        let mut tampered = ct.clone();
        tampered.type_tag = TypeTag::new("t2");
        assert_ne!(delegator.decrypt_typed(&tampered).unwrap(), m);
    }

    #[test]
    fn type_exponents_are_distinct_per_type() {
        let (delegator, _params, _rng) = setup();
        let e1 = delegator.type_exponent(&TypeTag::new("t1"));
        let e2 = delegator.type_exponent(&TypeTag::new("t2"));
        let e1_again = delegator.type_exponent(&TypeTag::new("t1"));
        assert_ne!(e1, e2);
        assert_eq!(e1, e1_again);
        assert!(!e1.is_zero());
    }

    #[test]
    fn ciphertexts_are_randomised() {
        let (delegator, params, mut rng) = setup();
        let t = TypeTag::new("t");
        let m = params.random_gt(&mut rng);
        let c1 = delegator.encrypt_typed(&m, &t, &mut rng);
        let c2 = delegator.encrypt_typed(&m, &t, &mut rng);
        assert_ne!(c1, c2);
    }

    #[test]
    fn serialization_round_trip() {
        let (delegator, params, mut rng) = setup();
        let t = TypeTag::new("illness-history");
        let m = params.random_gt(&mut rng);
        let ct = delegator.encrypt_typed(&m, &t, &mut rng);
        let bytes = ct.to_wire_bytes();
        assert_eq!(
            bytes.len(),
            TypedCiphertext::serialized_len(&params, t.as_bytes().len())
        );
        let parsed = TypedCiphertext::from_wire_bytes(&bytes, &DecodeCtx::from(&params)).unwrap();
        assert_eq!(parsed, ct);
        assert_eq!(delegator.decrypt_typed(&parsed).unwrap(), m);
        // Corrupted encodings are rejected.
        assert!(TypedCiphertext::from_wire_bytes(&bytes[..10], &DecodeCtx::from(&params)).is_err());
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(TypedCiphertext::from_wire_bytes(&longer, &DecodeCtx::from(&params)).is_err());
    }

    #[test]
    fn another_user_cannot_impersonate_the_delegator() {
        // A second user in the same domain cannot create ciphertexts that the
        // delegator would decrypt to the intended message, because Encrypt1
        // requires the delegator's own private key.
        let mut rng = StdRng::seed_from_u64(52);
        let params = PairingParams::insecure_toy();
        let kgc = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let alice = Identity::new("alice");
        let mallory = Identity::new("mallory");
        let alice_delegator = Delegator::new(kgc.public_params().clone(), kgc.extract(&alice));
        let mallory_delegator = Delegator::new(kgc.public_params().clone(), kgc.extract(&mallory));
        let m = params.random_gt(&mut rng);
        let forged = mallory_delegator.encrypt_typed(&m, &TypeTag::new("t"), &mut rng);
        // Alice's decryption of Mallory's ciphertext does not yield m.
        assert_ne!(alice_delegator.decrypt_typed(&forged).unwrap(), m);
    }

    #[test]
    fn rekey_generation_requires_shared_parameters() {
        let (delegator, _params, mut rng) = setup();
        // A domain over *different* pairing parameters must be rejected.
        let mut other_rng = StdRng::seed_from_u64(53);
        let other_params =
            PairingParams::generate(tibpre_pairing::SecurityLevel::Toy, &mut other_rng).unwrap();
        let other_kgc = Kgc::setup(other_params, "foreign", &mut other_rng);
        let result = delegator.make_reencryption_key(
            &Identity::new("bob"),
            other_kgc.public_params(),
            &TypeTag::new("t"),
            &mut rng,
        );
        assert_eq!(result.unwrap_err(), PreError::IncompatibleDomains);
    }
}
