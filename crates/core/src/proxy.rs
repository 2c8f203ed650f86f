//! The proxy role: re-encryption (`Preenc`) and re-encryption-key management.

use crate::delegator::TypedCiphertext;
use crate::rekey::ReEncryptionKey;
use crate::types::TypeTag;
use crate::{PreError, Result};
use std::collections::HashMap;
use tibpre_ibe::{EncodedIbeCiphertext, Identity};
use tibpre_pairing::{DecodeCtx, G1Affine, Gt};

tibpre_wire::message! {
    /// A re-encrypted ciphertext `(c1, c2·ê(c1, rk₂), Encrypt2(X, id_j))`.
    ///
    /// After `Preenc` the mask has collapsed to `ê(g^r, H1(X))`: the
    /// ciphertext no longer depends on the delegator's key at all, only on
    /// the random `X` that is itself encrypted to the delegatee.  Decoding
    /// validates `c1` against the curve and the prime-order subgroup; `c2` is
    /// range/torus-validated only; `c'3` is only framed — the delegatee
    /// validates it on a miss of both its mask tiers.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ReEncryptedCiphertext: DecodeCtx {
        /// `c'1 = c1 = g^r`.
        pub c1: G1Affine,
        /// `c'2 = m · ê(g^r, H1(X))`.
        pub c2: Gt,
        /// `c'3 = Encrypt2(X, id_j)`: the key's bytes, validated on first use.
        pub encrypted_x: EncodedIbeCiphertext,
        /// The message type, carried along for bookkeeping (the delegatee
        /// does not need it for decryption).
        pub type_tag: TypeTag,
        /// The intended delegatee (bookkeeping; the ciphertext only opens
        /// under this identity's key anyway).
        pub delegatee: Identity,
    }
}

/// `Preenc(c, rk)`: converts one typed ciphertext with one re-encryption key
/// — a run of one through [`re_encrypt_batch`].
///
/// The proxy refuses to convert a ciphertext whose type does not match the
/// key's type — and even a malicious proxy that skipped this check would only
/// produce garbage, because the key algebraically cancels the wrong exponent.
pub fn re_encrypt(
    ciphertext: &TypedCiphertext,
    rekey: &ReEncryptionKey,
) -> Result<ReEncryptedCiphertext> {
    let mut converted = re_encrypt_batch([ciphertext], rekey)?;
    Ok(converted.pop().expect("one output per input"))
}

/// `Preenc` over a run of same-type ciphertexts with one key:
/// `c'₁ = c₁`, `c'₂ = c₂ · ê(c₁, rk₂)`, `c'₃ = Encrypt2(X)` from the key.
///
/// This is the one place a `Preenc` pairing is computed.  Every ciphertext's
/// type is checked against the key *before* any pairing work, so a mixed run
/// fails atomically, with the error of the lowest offending index and no
/// partial output.  Then each `c₁` takes one stored-line Miller loop against
/// the key's shared tabulation (built on the key's first use), and one
/// *batched* final exponentiation collapses the easy-part inversions into a
/// single GCD.  The hybrid functions and the parallel engine's per-chunk jobs
/// all convert through here.
pub fn re_encrypt_batch<'a, I>(
    ciphertexts: I,
    rekey: &ReEncryptionKey,
) -> Result<Vec<ReEncryptedCiphertext>>
where
    I: IntoIterator<Item = &'a TypedCiphertext>,
{
    let ciphertexts: Vec<&TypedCiphertext> = ciphertexts.into_iter().collect();
    if let Some(odd) = ciphertexts
        .iter()
        .find(|ct| ct.type_tag != *rekey.type_tag())
    {
        return Err(PreError::TypeMismatch {
            ciphertext_type: odd.type_tag.display(),
            key_type: rekey.type_tag().display(),
        });
    }
    let c1s: Vec<&G1Affine> = ciphertexts.iter().map(|ct| &ct.c1).collect();
    let adjustments = rekey.prepared_rk_point().pairing_batch(&c1s);
    Ok(ciphertexts
        .into_iter()
        .zip(adjustments)
        .map(|(ciphertext, adjustment)| ReEncryptedCiphertext {
            c1: ciphertext.c1.clone(),
            c2: ciphertext.c2.mul(&adjustment),
            encrypted_x: rekey.encrypted_x().clone(),
            type_tag: ciphertext.type_tag.clone(),
            delegatee: rekey.delegatee().clone(),
        })
        .collect())
}

/// A stateful proxy service holding re-encryption keys for many
/// (delegator, type, delegatee) triples.
///
/// This models the semi-trusted party of the paper's threat model: it converts
/// ciphertexts honestly using the keys it was given, and the scheme guarantees
/// that even a corrupted proxy learns nothing about the plaintexts and cannot
/// convert types it holds no key for.
pub struct Proxy {
    name: String,
    keys: HashMap<ProxyKeyIndex, ReEncryptionKey>,
}

/// The lookup index of an installed re-encryption key:
/// serialized (delegator identity, type tag, delegatee identity).
type ProxyKeyIndex = (Vec<u8>, Vec<u8>, Vec<u8>);

impl Proxy {
    /// Creates an empty proxy service.
    pub fn new(name: impl AsRef<str>) -> Self {
        Proxy {
            name: name.as_ref().to_string(),
            keys: HashMap::new(),
        }
    }

    /// The proxy's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Installs a re-encryption key.  Replaces any previous key for the same
    /// (delegator, type, delegatee) triple and returns the old one.
    pub fn install_key(&mut self, key: ReEncryptionKey) -> Option<ReEncryptionKey> {
        self.keys.insert(Self::index_of(&key), key)
    }

    /// Removes (revokes) the key for one (delegator, type, delegatee) triple.
    pub fn revoke_key(
        &mut self,
        delegator: &Identity,
        type_tag: &TypeTag,
        delegatee: &Identity,
    ) -> Option<ReEncryptionKey> {
        self.keys.remove(&(
            delegator.as_bytes().to_vec(),
            type_tag.as_bytes().to_vec(),
            delegatee.as_bytes().to_vec(),
        ))
    }

    /// Number of installed keys.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// All installed keys (e.g. what an adversary obtains when the proxy is compromised).
    pub fn installed_keys(&self) -> impl Iterator<Item = &ReEncryptionKey> {
        self.keys.values()
    }

    /// Looks up the installed key for one (delegator, type, delegatee) triple.
    pub fn key_for(
        &self,
        delegator: &Identity,
        type_tag: &TypeTag,
        delegatee: &Identity,
    ) -> Option<&ReEncryptionKey> {
        self.keys.get(&(
            delegator.as_bytes().to_vec(),
            type_tag.as_bytes().to_vec(),
            delegatee.as_bytes().to_vec(),
        ))
    }

    /// Returns `true` if a key for the triple is installed.
    pub fn has_key(&self, delegator: &Identity, type_tag: &TypeTag, delegatee: &Identity) -> bool {
        self.key_for(delegator, type_tag, delegatee).is_some()
    }

    /// Converts a ciphertext for the given delegatee using an installed key.
    pub fn re_encrypt_for(
        &self,
        ciphertext: &TypedCiphertext,
        delegator: &Identity,
        delegatee: &Identity,
    ) -> Result<ReEncryptedCiphertext> {
        let key = self
            .key_for(delegator, &ciphertext.type_tag, delegatee)
            .ok_or(PreError::NoMatchingKey)?;
        re_encrypt(ciphertext, key)
    }

    fn index_of(key: &ReEncryptionKey) -> ProxyKeyIndex {
        (
            key.delegator().as_bytes().to_vec(),
            key.type_tag().as_bytes().to_vec(),
            key.delegatee().as_bytes().to_vec(),
        )
    }
}

impl core::fmt::Debug for Proxy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Proxy(name={}, keys={})", self.name, self.keys.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delegatee::Delegatee;
    use crate::delegator::Delegator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use tibpre_ibe::Kgc;
    use tibpre_pairing::PairingParams;
    use tibpre_wire::{WireDecode, WireEncode};

    struct Fixture {
        params: Arc<PairingParams>,
        delegator: Delegator,
        delegatee_id: Identity,
        delegatee: Delegatee,
        kgc2_pp: tibpre_ibe::IbePublicParams,
        rng: StdRng,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(71);
        let params = PairingParams::insecure_toy();
        let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
        let alice = Identity::new("alice");
        let bob = Identity::new("bob");
        Fixture {
            params: params.clone(),
            delegator: Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice)),
            delegatee_id: bob.clone(),
            delegatee: Delegatee::new(kgc2.extract(&bob)),
            kgc2_pp: kgc2.public_params().clone(),
            rng,
        }
    }

    #[test]
    fn full_delegation_round_trip() {
        let mut f = fixture();
        let t = TypeTag::new("illness-history");
        let m = f.params.random_gt(&mut f.rng);
        let ct = f.delegator.encrypt_typed(&m, &t, &mut f.rng);
        let rk = f
            .delegator
            .make_reencryption_key(&f.delegatee_id, &f.kgc2_pp, &t, &mut f.rng)
            .unwrap();
        let transformed = re_encrypt(&ct, &rk).unwrap();
        assert_eq!(transformed.type_tag, t);
        assert_eq!(transformed.delegatee, f.delegatee_id);
        assert_eq!(f.delegatee.decrypt_reencrypted(&transformed).unwrap(), m);
    }

    #[test]
    fn type_mismatch_is_refused() {
        let mut f = fixture();
        let m = f.params.random_gt(&mut f.rng);
        let ct = f
            .delegator
            .encrypt_typed(&m, &TypeTag::new("diet"), &mut f.rng);
        let rk = f
            .delegator
            .make_reencryption_key(
                &f.delegatee_id,
                &f.kgc2_pp,
                &TypeTag::new("illness-history"),
                &mut f.rng,
            )
            .unwrap();
        match re_encrypt(&ct, &rk) {
            Err(PreError::TypeMismatch { .. }) => {}
            other => panic!("expected a type mismatch, got {other:?}"),
        }
    }

    #[test]
    fn forcing_a_wrong_type_key_yields_garbage() {
        // Even if a malicious proxy relabels the ciphertext to bypass the type
        // check, the algebra does not cooperate: the delegatee gets garbage.
        let mut f = fixture();
        let m = f.params.random_gt(&mut f.rng);
        let mut ct = f
            .delegator
            .encrypt_typed(&m, &TypeTag::new("diet"), &mut f.rng);
        let rk = f
            .delegator
            .make_reencryption_key(
                &f.delegatee_id,
                &f.kgc2_pp,
                &TypeTag::new("illness-history"),
                &mut f.rng,
            )
            .unwrap();
        ct.type_tag = TypeTag::new("illness-history"); // adversarial relabel
        let transformed = re_encrypt(&ct, &rk).unwrap();
        assert_ne!(f.delegatee.decrypt_reencrypted(&transformed).unwrap(), m);
    }

    /// The reference is the paper's `Preenc` equation evaluated with the
    /// naive pairing, not a sibling code path.
    #[test]
    fn batch_reencryption_satisfies_the_paper_equation() {
        let mut f = fixture();
        let t = TypeTag::new("illness-history");
        let rk = f
            .delegator
            .make_reencryption_key(&f.delegatee_id, &f.kgc2_pp, &t, &mut f.rng)
            .unwrap();
        let messages: Vec<Gt> = (0..5).map(|_| f.params.random_gt(&mut f.rng)).collect();
        let cts: Vec<TypedCiphertext> = messages
            .iter()
            .map(|m| f.delegator.encrypt_typed(m, &t, &mut f.rng))
            .collect();
        let batch = re_encrypt_batch(&cts, &rk).unwrap();
        assert_eq!(batch.len(), cts.len());
        for ((got, ct), m) in batch.iter().zip(&cts).zip(&messages) {
            // c'1 = c1, c'2 = c2 · ê(c1, rk2), c'3 = the key's Encrypt2(X).
            assert_eq!(got.c1, ct.c1);
            assert_eq!(got.c2, ct.c2.mul(&f.params.pairing(&ct.c1, rk.rk_point())));
            assert_eq!(&got.encrypted_x, rk.encrypted_x());
            assert_eq!(got.type_tag, t);
            assert_eq!(got.delegatee, f.delegatee_id);
            assert_eq!(&f.delegatee.decrypt_reencrypted(got).unwrap(), m);
        }
        assert!(re_encrypt_batch(&[], &rk).unwrap().is_empty());

        // A mixed batch fails atomically, reporting the mismatching type.
        let mut mixed = cts;
        mixed[3].type_tag = TypeTag::new("diet");
        match re_encrypt_batch(&mixed, &rk) {
            Err(PreError::TypeMismatch { .. }) => {}
            other => panic!("expected a type mismatch, got {other:?}"),
        }
    }

    #[test]
    fn proxy_key_store_lookup_and_revocation() {
        let mut f = fixture();
        let t = TypeTag::new("emergency");
        let rk = f
            .delegator
            .make_reencryption_key(&f.delegatee_id, &f.kgc2_pp, &t, &mut f.rng)
            .unwrap();
        let mut proxy = Proxy::new("gateway");
        assert_eq!(proxy.key_count(), 0);
        assert!(proxy.install_key(rk.clone()).is_none());
        assert_eq!(proxy.key_count(), 1);

        let m = f.params.random_gt(&mut f.rng);
        let ct = f.delegator.encrypt_typed(&m, &t, &mut f.rng);
        let out = proxy
            .re_encrypt_for(&ct, f.delegator.identity(), &f.delegatee_id)
            .unwrap();
        assert_eq!(f.delegatee.decrypt_reencrypted(&out).unwrap(), m);

        // No key for another type.
        let other_ct = f
            .delegator
            .encrypt_typed(&m, &TypeTag::new("diet"), &mut f.rng);
        assert_eq!(
            proxy
                .re_encrypt_for(&other_ct, f.delegator.identity(), &f.delegatee_id)
                .unwrap_err(),
            PreError::NoMatchingKey
        );

        // Revocation removes the capability.
        assert!(proxy
            .revoke_key(f.delegator.identity(), &t, &f.delegatee_id)
            .is_some());
        assert_eq!(
            proxy
                .re_encrypt_for(&ct, f.delegator.identity(), &f.delegatee_id)
                .unwrap_err(),
            PreError::NoMatchingKey
        );
        assert_eq!(proxy.key_count(), 0);
    }

    #[test]
    fn reencrypted_ciphertext_serialization_round_trip() {
        let mut f = fixture();
        let t = TypeTag::new("illness-history");
        let m = f.params.random_gt(&mut f.rng);
        let ct = f.delegator.encrypt_typed(&m, &t, &mut f.rng);
        let rk = f
            .delegator
            .make_reencryption_key(&f.delegatee_id, &f.kgc2_pp, &t, &mut f.rng)
            .unwrap();
        let transformed = re_encrypt(&ct, &rk).unwrap();
        let ctx = DecodeCtx::from(&f.params);
        let bytes = transformed.to_wire_bytes();
        let parsed = ReEncryptedCiphertext::from_wire_bytes(&bytes, &ctx).unwrap();
        assert_eq!(parsed, transformed);
        assert_eq!(f.delegatee.decrypt_reencrypted(&parsed).unwrap(), m);
        assert!(ReEncryptedCiphertext::from_wire_bytes(&bytes[..12], &ctx).is_err());
        let mut longer = bytes;
        longer.push(7);
        assert!(ReEncryptedCiphertext::from_wire_bytes(&longer, &ctx).is_err());
    }

    #[test]
    fn reencryption_does_not_help_other_delegatees() {
        // A ciphertext re-encrypted for Bob is useless to Carol.
        let mut f = fixture();
        let carol_kgc = Kgc::setup(f.params.clone(), "kgc3", &mut f.rng);
        let carol = Delegatee::new(carol_kgc.extract(&Identity::new("carol")));
        let t = TypeTag::new("illness-history");
        let m = f.params.random_gt(&mut f.rng);
        let ct = f.delegator.encrypt_typed(&m, &t, &mut f.rng);
        let rk = f
            .delegator
            .make_reencryption_key(&f.delegatee_id, &f.kgc2_pp, &t, &mut f.rng)
            .unwrap();
        let transformed = re_encrypt(&ct, &rk).unwrap();
        assert_ne!(carol.decrypt_reencrypted(&transformed).unwrap(), m);
    }
}
