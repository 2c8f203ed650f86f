//! The Key Generation Centre (KGC) and its keys.
//!
//! `Setup` and `Extract` of the Boneh–Franklin scheme (Section 3.2 of the
//! paper).  The TIB-PRE construction uses two KGCs — `KGC1` for the delegator
//! and `KGC2` for the delegatee — that share the pairing parameters but hold
//! independent master keys `α₁`, `α₂`; both are instances of this type.

use crate::identity::Identity;
use crate::H1_DOMAIN;
use rand::{CryptoRng, RngCore};
use std::sync::{Arc, OnceLock};
use tibpre_pairing::wire::FromCtx;
use tibpre_pairing::{DecodeCtx, G1Affine, PairingParams, PreparedPairing, Scalar};
use tibpre_wire::Unsent;

/// Lazily-built pairing precomputation for one KGC domain, shared by every
/// clone of the public parameters (the `Arc` makes the cache survive the
/// pervasive `IbePublicParams::clone` calls in the scheme layers).
#[derive(Debug, Default)]
struct DomainCache {
    /// Prepared Miller loop for `pk = g^α` — the fixed argument of every
    /// `ê(pk_id, pk)` encryption pairing in this domain.
    prepared_pk: OnceLock<Arc<PreparedPairing>>,
}

tibpre_wire::message! {
    /// Public parameters of one KGC domain: the shared pairing parameters
    /// plus the KGC public key `pk = g^α`.
    ///
    /// Transport form: `label ‖ pk` (the point compressed under `v1`).  The
    /// pairing parameters are *not* encoded — peers reconstruct them from a
    /// shared security level, and the decode context supplies them.  A
    /// public key outside the prime-order subgroup is refused: these
    /// parameters decide which KGC every encryption trusts.
    #[derive(Clone, Debug)]
    pub struct IbePublicParams: DecodeCtx {
        label: String,
        kgc_public_key: G1Affine,
        pairing: Arc<PairingParams> as FromCtx,
        cache: Arc<DomainCache> as Unsent,
    }
}

impl IbePublicParams {
    /// The shared pairing parameters.
    pub fn pairing(&self) -> &Arc<PairingParams> {
        &self.pairing
    }

    /// The KGC public key `pk = g^α`.
    pub fn kgc_public_key(&self) -> &G1Affine {
        &self.kgc_public_key
    }

    /// Human-readable label of the KGC (e.g. `"national-phr-kgc"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The paper's `pk_id = H1(id)`: the public key associated with an identity.
    ///
    /// `H1` is part of the shared parameters, so this value is the same in
    /// every domain; only the extracted private keys differ.
    pub fn identity_public_key(&self, id: &Identity) -> G1Affine {
        self.pairing
            .hash_to_g1(H1_DOMAIN, &[id.as_bytes()])
            .expect("hash-to-curve budget is astronomically unlikely to be exceeded")
    }

    /// Checks that two domains share the same pairing parameters (required by
    /// the delegation algebra).
    pub fn shares_parameters_with(&self, other: &IbePublicParams) -> bool {
        Arc::ptr_eq(&self.pairing, &other.pairing) || self.pairing.p() == other.pairing.p()
    }

    /// The Miller loop prepared for `pk = g^α`, built on first use and shared
    /// by every clone of these parameters.  Encryption pairings
    /// `ê(pk_id, pk)` against the fixed KGC key go through this table.
    pub fn prepared_kgc_key(&self) -> Arc<PreparedPairing> {
        Arc::clone(
            self.cache
                .prepared_pk
                .get_or_init(|| Arc::new(self.pairing.prepare(&self.kgc_public_key))),
        )
    }
}

/// Lazily-built precomputation for one private key, shared across clones.
#[derive(Default)]
struct KeyCache {
    /// Prepared Miller loop for `sk_id` — the fixed argument of the
    /// decryption pairing `ê(sk_id, c1)`.
    prepared: OnceLock<Arc<PreparedPairing>>,
}

tibpre_wire::message! {
    /// The private key extracted for an identity: `sk_id = pk_id^α = H1(id)^α`.
    ///
    /// Transport form of the full key material:
    /// `identity ‖ kgc_label ‖ key point` (length-prefixed strings, the
    /// point compressed under `v1`, subgroup-checked on decode).  The
    /// hashing-preimage form is [`IbePrivateKey::to_bytes`].
    #[derive(Clone)]
    pub struct IbePrivateKey: DecodeCtx {
        identity: Identity,
        /// The label of the KGC that extracted this key (for diagnostics only).
        kgc_label: String,
        key: G1Affine,
        /// The shared pairing parameters, kept so decryption does not need a
        /// separate parameter handle.
        params: Arc<PairingParams> as FromCtx,
        cache: Arc<KeyCache> as Unsent,
    }
}

impl IbePrivateKey {
    /// The identity this key belongs to.
    pub fn identity(&self) -> &Identity {
        &self.identity
    }

    /// The group element `H1(id)^α`.
    pub fn key(&self) -> &G1Affine {
        &self.key
    }

    /// Label of the extracting KGC.
    pub fn kgc_label(&self) -> &str {
        &self.kgc_label
    }

    /// The shared pairing parameters.
    pub fn params(&self) -> &Arc<PairingParams> {
        &self.params
    }

    /// The Miller loop prepared for `sk_id`, built on first use and shared by
    /// every clone of this key.  The decryption pairing `ê(sk_id, c1)` goes
    /// through this table.
    pub fn prepared_key(&self) -> Arc<PreparedPairing> {
        Arc::clone(
            self.cache
                .prepared
                .get_or_init(|| Arc::new(self.params.prepare(&self.key))),
        )
    }

    /// Canonical serialization of the key material: the *uncompressed*
    /// group element, always.
    ///
    /// This is deliberately **not** the versioned wire format: these bytes
    /// are the preimage of the paper's `H2(sk_id ‖ t)` type exponent, so
    /// they must stay byte-stable across wire-format generations —
    /// re-encoding the key compressed would silently change every derived
    /// virtual key and orphan all previously encrypted data.  Use the
    /// declared wire codec for transport instead.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.key.to_bytes()
    }
}

impl PartialEq for IbePrivateKey {
    /// Compares the key material and its provenance; the lazily-built
    /// pairing cache and the parameter handle are not part of identity.
    fn eq(&self, other: &Self) -> bool {
        self.identity == other.identity
            && self.key == other.key
            && self.kgc_label == other.kgc_label
    }
}

impl Eq for IbePrivateKey {}

impl core::fmt::Debug for IbePrivateKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print `sk_id`, nor the table prepared from it.
        f.debug_struct("IbePrivateKey")
            .field("identity", &self.identity)
            .field("kgc_label", &self.kgc_label)
            .field("prepared", &self.cache.prepared.get().is_some())
            .finish_non_exhaustive()
    }
}

/// A Key Generation Centre: holds the master key `α` and answers `Extract` queries.
pub struct Kgc {
    master_key: Scalar,
    public: IbePublicParams,
}

impl Kgc {
    /// `Setup`: samples a master key `α ∈ Z_q^*` and publishes `pk = g^α`.
    pub fn setup<R: RngCore + CryptoRng>(
        pairing: Arc<PairingParams>,
        label: &str,
        rng: &mut R,
    ) -> Self {
        let master_key = pairing.random_nonzero_scalar(rng);
        let kgc_public_key = pairing.mul_generator(&master_key);
        Kgc {
            master_key,
            public: IbePublicParams {
                pairing,
                kgc_public_key,
                label: label.to_string(),
                cache: Arc::default(),
            },
        }
    }

    /// The public parameters of this domain.
    pub fn public_params(&self) -> &IbePublicParams {
        &self.public
    }

    /// The master secret `α`.  Exposed for the security-game harness and for
    /// tests; production code never needs it outside the KGC.
    pub fn master_key(&self) -> &Scalar {
        &self.master_key
    }

    /// `Extract`: computes `sk_id = H1(id)^α`.
    pub fn extract(&self, id: &Identity) -> IbePrivateKey {
        let pk_id = self.public.identity_public_key(id);
        IbePrivateKey {
            identity: id.clone(),
            key: pk_id.mul_scalar(&self.master_key),
            kgc_label: self.public.label.clone(),
            params: Arc::clone(&self.public.pairing),
            cache: Arc::default(),
        }
    }
}

impl core::fmt::Debug for Kgc {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print the master key.
        write!(f, "Kgc(label={})", self.public.label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tibpre_pairing::PairingParams;
    use tibpre_wire::{WireDecode, WireEncode};

    fn setup() -> (Kgc, StdRng) {
        let mut rng = StdRng::seed_from_u64(11);
        let params = PairingParams::insecure_toy();
        let kgc = Kgc::setup(params, "test-kgc", &mut rng);
        (kgc, rng)
    }

    #[test]
    fn setup_produces_consistent_public_key() {
        let (kgc, _) = setup();
        let pp = kgc.public_params();
        let expect = pp.pairing().generator().mul_scalar(kgc.master_key());
        assert_eq!(pp.kgc_public_key(), &expect);
        assert_eq!(pp.label(), "test-kgc");
    }

    #[test]
    fn debug_does_not_leak_the_private_key() {
        let (kgc, _) = setup();
        let sk = kgc.extract(&Identity::new("alice"));
        let secret = [sk.key().x(), sk.key().y()].map(|c| c.to_uint().to_hex());
        // Before and after the table derived from the key exists.
        for prepared in [false, true] {
            let dbg = format!("{sk:?}");
            assert!(dbg.contains("alice") && dbg.contains("test-kgc"));
            assert!(dbg.contains(&format!("prepared: {prepared}")));
            assert!(secret.iter().all(|hex| !dbg.contains(hex)), "{dbg}");
            sk.prepared_key();
        }
    }

    #[test]
    fn extract_satisfies_the_key_equation() {
        let (kgc, _) = setup();
        let pp = kgc.public_params();
        let id = Identity::new("alice@example.org");
        let sk = kgc.extract(&id);
        // ê(sk_id, g) == ê(H1(id), pk): both equal ê(H1(id), g)^α.
        let params = pp.pairing();
        let lhs = params.pairing(sk.key(), params.generator());
        let rhs = params.pairing(&pp.identity_public_key(&id), pp.kgc_public_key());
        assert_eq!(lhs, rhs);
        assert_eq!(sk.identity(), &id);
        assert_eq!(sk.kgc_label(), "test-kgc");
    }

    #[test]
    fn different_identities_get_different_keys() {
        let (kgc, _) = setup();
        let a = kgc.extract(&Identity::new("alice"));
        let b = kgc.extract(&Identity::new("bob"));
        assert_ne!(a.key(), b.key());
        // Extraction is deterministic.
        let a2 = kgc.extract(&Identity::new("alice"));
        assert_eq!(a.key(), a2.key());
    }

    #[test]
    fn different_kgcs_share_identity_public_keys_but_not_private_keys() {
        let mut rng = StdRng::seed_from_u64(12);
        let params = PairingParams::insecure_toy();
        let kgc1 = Kgc::setup(params.clone(), "domain-1", &mut rng);
        let kgc2 = Kgc::setup(params, "domain-2", &mut rng);
        let id = Identity::new("carol");
        assert_eq!(
            kgc1.public_params().identity_public_key(&id),
            kgc2.public_params().identity_public_key(&id)
        );
        assert_ne!(kgc1.extract(&id).key(), kgc2.extract(&id).key());
        assert!(kgc1
            .public_params()
            .shares_parameters_with(kgc2.public_params()));
    }

    #[test]
    fn private_key_serialization_round_trip() {
        let (kgc, _) = setup();
        let id = Identity::new("erin");
        let sk = kgc.extract(&id);
        // The hash preimage is the uncompressed point, whatever the wire says.
        assert_eq!(sk.to_bytes(), sk.key().to_bytes());
        let ctx = DecodeCtx::from(kgc.public_params().pairing());
        let bytes = sk.to_wire_bytes();
        let restored = IbePrivateKey::from_wire_bytes(&bytes, &ctx).unwrap();
        assert_eq!(restored, sk);
        assert_eq!(restored.kgc_label(), "test-kgc");
        for cut in 0..bytes.len() {
            assert!(IbePrivateKey::from_wire_bytes(&bytes[..cut], &ctx).is_err());
        }
    }

    #[test]
    fn public_params_wire_round_trip() {
        let (kgc, _) = setup();
        let pp = kgc.public_params();
        let ctx = DecodeCtx::from(pp.pairing());
        let bytes = pp.to_wire_bytes();
        let restored = IbePublicParams::from_wire_bytes(&bytes, &ctx).unwrap();
        assert_eq!(restored.kgc_public_key(), pp.kgc_public_key());
        assert_eq!(restored.label(), pp.label());
        // The restored parameters encrypt against the same KGC: extraction
        // by the original KGC still satisfies the key equation.
        let id = Identity::new("frank");
        let sk = kgc.extract(&id);
        let params = restored.pairing();
        assert_eq!(
            params.pairing(sk.key(), params.generator()),
            params.pairing(
                &restored.identity_public_key(&id),
                restored.kgc_public_key()
            )
        );
        for cut in 0..bytes.len() {
            assert!(IbePublicParams::from_wire_bytes(&bytes[..cut], &ctx).is_err());
        }
    }

    #[test]
    fn debug_output_hides_master_key() {
        let (kgc, _) = setup();
        let dbg = format!("{kgc:?}");
        assert!(dbg.contains("test-kgc"));
        assert!(!dbg.contains(&kgc.master_key().to_uint().to_hex()));
    }
}
