//! Re-encryption keys (`Pextract` output).

use crate::types::TypeTag;
use std::sync::{Arc, OnceLock};
use tibpre_ibe::{EncodedIbeCiphertext, IbeCiphertext, Identity};
use tibpre_pairing::wire::FromCtx;
use tibpre_pairing::{DecodeCtx, G1Affine, PairingParams, PreparedPairing};
use tibpre_wire::{Codec, DecodeError, Field, Reader, Unsent, WireDecode, Writer};

/// Lazily-built pairing precomputation for one re-encryption key, shared
/// across clones (a proxy clones keys freely; the Miller-loop table must not
/// be rebuilt per copy).
#[derive(Default)]
struct RekeyCache {
    prepared_rk: OnceLock<Arc<PreparedPairing>>,
}

tibpre_wire::message! {
    /// A re-encryption key `rk_{i→j} = (t, sk_i^{−H2(sk_i‖t)}·H1(X), Encrypt2(X, id_j))`.
    ///
    /// The key is bound to one (delegator, delegatee, type) triple.  Holding
    /// it, the proxy can convert the delegator's ciphertexts *of that type
    /// only*; by Theorem 1 of the paper it learns nothing that helps with any
    /// other type.  Decoding validates `rk₂` against the curve and the
    /// prime-order subgroup (an out-of-subgroup key point could leak
    /// information through the proxy's pairings), and `rk₃` fully.
    #[derive(Clone)]
    pub struct ReEncryptionKey: DecodeCtx {
        delegator: Identity,
        delegatee: Identity,
        type_tag: TypeTag,
        /// `rk₂ = sk_i^{−H2(sk_i ‖ t)} · H1(X)`.
        rk_point: G1Affine,
        /// `rk₃ = Encrypt2(X, id_j)` — the random element `X` encrypted to
        /// the delegatee under the delegatee's KGC; validated, encoded once.
        encrypted_x: EncodedIbeCiphertext as Validated,
        /// The shared pairing parameters, carried so the proxy can
        /// re-encrypt without a separate parameter handle.
        params: Arc<PairingParams> as FromCtx,
        /// Pairing precomputation for `rk₂` (not part of the key material;
        /// never serialized or compared).
        cache: Arc<RekeyCache> as Unsent,
    }
}

/// The codec of `rk₃`: decoded with [`IbeCiphertext`]'s full validation,
/// then kept as its canonical bytes.
struct Validated;

impl Codec<EncodedIbeCiphertext, DecodeCtx> for Validated {
    fn put(value: &EncodedIbeCiphertext, w: &mut Writer) {
        value.put(w);
    }
    fn read(r: &mut Reader<'_>, ctx: &DecodeCtx) -> Result<EncodedIbeCiphertext, DecodeError> {
        Ok(EncodedIbeCiphertext::new(
            &IbeCiphertext::decode(r, ctx)?,
            ctx,
        ))
    }
}

impl PartialEq for ReEncryptionKey {
    fn eq(&self, other: &Self) -> bool {
        self.delegator == other.delegator
            && self.delegatee == other.delegatee
            && self.type_tag == other.type_tag
            && self.rk_point == other.rk_point
            && self.encrypted_x == other.encrypted_x
    }
}

impl Eq for ReEncryptionKey {}

impl core::fmt::Debug for ReEncryptionKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print `rk₂`, nor the table prepared from it.
        f.debug_struct("ReEncryptionKey")
            .field("delegator", &self.delegator)
            .field("delegatee", &self.delegatee)
            .field("type_tag", &self.type_tag)
            .field("prepared", &self.cache.prepared_rk.get().is_some())
            .finish_non_exhaustive()
    }
}

impl ReEncryptionKey {
    /// Assembles a re-encryption key from its parts (called by
    /// [`crate::Delegator::make_reencryption_key`]).
    pub(crate) fn new(
        delegator: Identity,
        delegatee: Identity,
        type_tag: TypeTag,
        rk_point: G1Affine,
        encrypted_x: IbeCiphertext,
        params: Arc<PairingParams>,
    ) -> Self {
        ReEncryptionKey {
            delegator,
            delegatee,
            type_tag,
            rk_point,
            encrypted_x: EncodedIbeCiphertext::new(&encrypted_x, &DecodeCtx::from(&params)),
            params,
            cache: Arc::default(),
        }
    }

    /// The shared pairing parameters.
    pub fn params(&self) -> &Arc<PairingParams> {
        &self.params
    }

    /// The delegator this key re-encrypts *from*.
    pub fn delegator(&self) -> &Identity {
        &self.delegator
    }

    /// The delegatee this key re-encrypts *to*.
    pub fn delegatee(&self) -> &Identity {
        &self.delegatee
    }

    /// The message type this key is restricted to.
    pub fn type_tag(&self) -> &TypeTag {
        &self.type_tag
    }

    /// The group element `rk₂` used by the proxy's pairing.
    pub fn rk_point(&self) -> &G1Affine {
        &self.rk_point
    }

    /// The Miller loop prepared for `rk₂`, built on the first conversion and
    /// shared by every clone of this key.  `Preenc`'s `ê(c1, rk₂)` goes
    /// through this table, so converting many ciphertexts with one key pays
    /// the Miller-loop tabulation once.
    ///
    /// The table is immutable once built and safe to read from any number of
    /// threads; a parallel batch converter should call this once *before*
    /// fanning out, so the one-time build happens on the dispatching thread
    /// instead of being raced (and its cost unevenly borne) by the workers.
    pub fn prepared_rk_point(&self) -> Arc<PreparedPairing> {
        Arc::clone(
            self.cache
                .prepared_rk
                .get_or_init(|| Arc::new(self.params.prepare(&self.rk_point))),
        )
    }

    /// The encrypted random element `rk₃`, as every conversion carries it.
    pub fn encrypted_x(&self) -> &EncodedIbeCiphertext {
        &self.encrypted_x
    }

    /// Total standalone serialized length (envelope byte included) under
    /// the default wire version — bookkeeping for the size experiment.
    pub fn serialized_len(&self, params: &PairingParams) -> usize {
        let strings = 12
            + self.delegator.as_bytes().len()
            + self.delegatee.as_bytes().len()
            + self.type_tag.as_bytes().len();
        1 + strings + params.g1_byte_len() + self.encrypted_x.as_bytes().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delegator::Delegator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tibpre_ibe::Kgc;
    use tibpre_pairing::PairingParams;
    use tibpre_wire::{WireDecode, WireEncode};

    fn make_rekey() -> (ReEncryptionKey, Arc<PairingParams>) {
        let mut rng = StdRng::seed_from_u64(61);
        let params = PairingParams::insecure_toy();
        let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
        let alice = Identity::new("alice");
        let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
        let rk = delegator
            .make_reencryption_key(
                &Identity::new("bob"),
                kgc2.public_params(),
                &TypeTag::new("illness-history"),
                &mut rng,
            )
            .unwrap();
        (rk, params)
    }

    #[test]
    fn debug_does_not_leak_the_rekey_point() {
        let (rk, _) = make_rekey();
        let secret = [rk.rk_point().x(), rk.rk_point().y()].map(|c| c.to_uint().to_hex());
        // Before and after the table derived from the key exists.
        for prepared in [false, true] {
            let dbg = format!("{rk:?}");
            assert!(dbg.contains("alice") && dbg.contains("bob"));
            assert!(dbg.contains("illness-history"));
            assert!(dbg.contains(&format!("prepared: {prepared}")));
            assert!(secret.iter().all(|hex| !dbg.contains(hex)), "{dbg}");
            rk.prepared_rk_point();
        }
    }

    #[test]
    fn accessors_reflect_the_delegation() {
        let (rk, params) = make_rekey();
        assert_eq!(rk.delegator(), &Identity::new("alice"));
        assert_eq!(rk.delegatee(), &Identity::new("bob"));
        assert_eq!(rk.type_tag(), &TypeTag::new("illness-history"));
        assert!(rk.rk_point().is_on_curve());
        assert!(rk.rk_point().is_in_subgroup(params.q()));
    }

    #[test]
    fn serialization_round_trip() {
        let (rk, params) = make_rekey();
        let bytes = rk.to_wire_bytes();
        assert_eq!(bytes.len(), rk.serialized_len(&params));
        let parsed = ReEncryptionKey::from_wire_bytes(&bytes, &DecodeCtx::from(&params)).unwrap();
        assert_eq!(parsed, rk);
    }

    #[test]
    fn malformed_encodings_rejected() {
        let (rk, params) = make_rekey();
        let ctx = DecodeCtx::from(&params);
        let bytes = rk.to_wire_bytes();
        assert!(ReEncryptionKey::from_wire_bytes(&bytes[..3], &ctx).is_err());
        assert!(ReEncryptionKey::from_wire_bytes(&bytes[..bytes.len() - 1], &ctx).is_err());
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(ReEncryptionKey::from_wire_bytes(&longer, &ctx).is_err());
        assert!(ReEncryptionKey::from_wire_bytes(&[], &ctx).is_err());
    }

    #[test]
    fn distinct_delegations_produce_distinct_keys() {
        let mut rng = StdRng::seed_from_u64(62);
        let params = PairingParams::insecure_toy();
        let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
        let delegator = Delegator::new(
            kgc1.public_params().clone(),
            kgc1.extract(&Identity::new("alice")),
        );
        let t = TypeTag::new("t");
        let rk1 = delegator
            .make_reencryption_key(&Identity::new("bob"), kgc2.public_params(), &t, &mut rng)
            .unwrap();
        let rk2 = delegator
            .make_reencryption_key(&Identity::new("bob"), kgc2.public_params(), &t, &mut rng)
            .unwrap();
        // Even for the same triple, the random X makes the keys differ.
        assert_ne!(rk1, rk2);
    }
}
