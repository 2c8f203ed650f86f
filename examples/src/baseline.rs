//! Baseline schemes the paper argues against, implemented for comparison.
//!
//! Section 1.1 and Section 5 of the paper motivate the type-based scheme by
//! contrasting it with what was available at the time:
//!
//! 1. **Identity-based PRE without types** ([`identity_pre`], in the style of
//!    Green–Ateniese): a single re-encryption key converts *every* ciphertext
//!    of the delegator, so a corrupted proxy (or a delegatee the proxy
//!    colludes with) exposes the delegator's entire archive.
//! 2. **One key pair per category** ([`multikey`]): fine-grained control is
//!    recovered by giving the delegator a separate (virtual) identity per
//!    category, at the cost of managing `T` private keys instead of one.
//! 3. **Plain IBE, no delegation** (just `tibpre-ibe`): the delegator must be
//!    online and decrypt every request himself.
//!
//! The `proxy_compromise` and `paper_tables` binaries quantify these
//! comparisons; the types here expose exactly the operations they need.

use rand::{CryptoRng, RngCore};
use std::collections::HashMap;
use std::sync::Arc;
use tibpre_core::{PreError, ReEncryptedCiphertext, Result, TypeTag};
use tibpre_ibe::{
    bf, EncodedIbeCiphertext, IbePrivateKey, IbePublicParams, Identity, Kgc, H1_DOMAIN,
};
use tibpre_pairing::{DecodeCtx, Gt, PairingParams};

/// Identity-based proxy re-encryption **without** types (Green–Ateniese style).
pub mod identity_pre {
    use super::*;

    /// A re-encryption key that converts *all* of the delegator's ciphertexts.
    #[derive(Clone, Debug)]
    pub struct IdentityReKey {
        delegator: Identity,
        delegatee: Identity,
        rk_point: tibpre_pairing::G1Affine,
        encrypted_x: EncodedIbeCiphertext,
        params: Arc<PairingParams>,
    }

    impl IdentityReKey {
        /// The delegator this key re-encrypts from.
        pub fn delegator(&self) -> &Identity {
            &self.delegator
        }

        /// The delegatee this key re-encrypts to.
        pub fn delegatee(&self) -> &Identity {
            &self.delegatee
        }
    }

    /// The delegator role of the identity-only baseline.
    pub struct IdentityPreDelegator {
        domain: IbePublicParams,
        private_key: IbePrivateKey,
    }

    impl IdentityPreDelegator {
        /// Binds the delegator to his domain and private key.
        pub fn new(domain: IbePublicParams, private_key: IbePrivateKey) -> Self {
            IdentityPreDelegator {
                domain,
                private_key,
            }
        }

        /// The delegator's identity.
        pub fn identity(&self) -> &Identity {
            self.private_key.identity()
        }

        /// The shared pairing parameters.
        pub fn params(&self) -> &Arc<PairingParams> {
            self.domain.pairing()
        }

        /// Standard Boneh–Franklin encryption to the delegator himself
        /// (no type tag — that is the point of this baseline).
        pub fn encrypt<R: RngCore + CryptoRng>(
            &self,
            message: &Gt,
            rng: &mut R,
        ) -> bf::IbeCiphertext {
            bf::encrypt_gt(&self.domain, self.identity(), message, rng)
        }

        /// Direct decryption by the delegator.
        pub fn decrypt(&self, ciphertext: &bf::IbeCiphertext) -> Result<Gt> {
            Ok(bf::decrypt_gt(&self.private_key, ciphertext)?)
        }

        /// Creates the single re-encryption key
        /// `rk = (sk_i^{-1} · H1(X), Encrypt2(X, id_j))` that converts **all**
        /// of the delegator's ciphertexts for the delegatee.
        pub fn make_reencryption_key<R: RngCore + CryptoRng>(
            &self,
            delegatee: &Identity,
            delegatee_domain: &IbePublicParams,
            rng: &mut R,
        ) -> Result<IdentityReKey> {
            if !self.domain.shares_parameters_with(delegatee_domain) {
                return Err(PreError::IncompatibleDomains);
            }
            let params = self.params();
            let x = params.random_gt(rng);
            let encrypted_x = bf::encrypt_gt(delegatee_domain, delegatee, &x, rng);
            let h1_of_x = params.hash_to_g1(H1_DOMAIN, &[&x.to_bytes()])?;
            // Exponent −1: the proxy will cancel the whole mask, not a typed one.
            let rk_point = self.private_key.key().neg().add(&h1_of_x);
            Ok(IdentityReKey {
                delegator: self.identity().clone(),
                delegatee: delegatee.clone(),
                rk_point,
                encrypted_x: EncodedIbeCiphertext::new(&encrypted_x, &DecodeCtx::from(params)),
                params: Arc::clone(params),
            })
        }
    }

    /// Proxy conversion: `c'2 = c2 · ê(c1, rk)`.
    ///
    /// The output re-uses [`ReEncryptedCiphertext`] (with a wildcard type tag)
    /// so the delegatee-side decryption is shared with the typed scheme.
    pub fn re_encrypt(
        ciphertext: &bf::IbeCiphertext,
        rekey: &IdentityReKey,
    ) -> ReEncryptedCiphertext {
        let adjustment = rekey.params.pairing(&ciphertext.c1, &rekey.rk_point);
        ReEncryptedCiphertext {
            c1: ciphertext.c1.clone(),
            c2: ciphertext.c2.mul(&adjustment),
            encrypted_x: rekey.encrypted_x.clone(),
            type_tag: TypeTag::new("*"),
            delegatee: rekey.delegatee.clone(),
        }
    }
}

/// The "one key pair per category" baseline: the delegator registers a
/// *virtual identity* `id ‖ '#' ‖ t` per type and manages one private key per
/// type.
pub mod multikey {
    use super::*;

    /// The delegator role of the per-type-identity baseline.
    pub struct MultiKeyDelegator {
        domain: IbePublicParams,
        base_identity: Identity,
        per_type_keys: HashMap<Vec<u8>, IbePrivateKey>,
    }

    impl MultiKeyDelegator {
        /// Creates a delegator with no per-type keys yet.
        pub fn new(domain: IbePublicParams, base_identity: Identity) -> Self {
            MultiKeyDelegator {
                domain,
                base_identity,
                per_type_keys: HashMap::new(),
            }
        }

        /// The virtual identity used for one type.
        pub fn virtual_identity(&self, type_tag: &TypeTag) -> Identity {
            let mut bytes = self.base_identity.as_bytes().to_vec();
            bytes.push(b'#');
            bytes.extend_from_slice(type_tag.as_bytes());
            Identity::from_bytes(bytes)
        }

        /// Registers a type by extracting (from the KGC) and storing the key of
        /// its virtual identity.  This is the key-management cost the paper's
        /// scheme avoids.
        pub fn register_type(&mut self, kgc: &Kgc, type_tag: &TypeTag) {
            let vid = self.virtual_identity(type_tag);
            self.per_type_keys
                .insert(type_tag.as_bytes().to_vec(), kgc.extract(&vid));
        }

        /// Number of private keys the delegator must store.
        pub fn stored_key_count(&self) -> usize {
            self.per_type_keys.len()
        }

        /// Total size of the stored private-key material, in bytes.
        pub fn stored_key_bytes(&self) -> usize {
            self.per_type_keys
                .values()
                .map(|k| k.to_bytes().len())
                .sum()
        }

        /// Encrypts a message under the virtual identity of the given type.
        pub fn encrypt<R: RngCore + CryptoRng>(
            &self,
            message: &Gt,
            type_tag: &TypeTag,
            rng: &mut R,
        ) -> bf::IbeCiphertext {
            bf::encrypt_gt(&self.domain, &self.virtual_identity(type_tag), message, rng)
        }

        /// Direct decryption (requires the per-type key to be registered).
        pub fn decrypt(&self, ciphertext: &bf::IbeCiphertext, type_tag: &TypeTag) -> Result<Gt> {
            let key = self
                .per_type_keys
                .get(type_tag.as_bytes())
                .ok_or(PreError::NoMatchingKey)?;
            Ok(bf::decrypt_gt(key, ciphertext)?)
        }

        /// Per-type delegation: an identity-PRE re-encryption key for the
        /// virtual identity of `type_tag`.
        pub fn make_reencryption_key<R: RngCore + CryptoRng>(
            &self,
            delegatee: &Identity,
            delegatee_domain: &IbePublicParams,
            type_tag: &TypeTag,
            rng: &mut R,
        ) -> Result<identity_pre::IdentityReKey> {
            let key = self
                .per_type_keys
                .get(type_tag.as_bytes())
                .ok_or(PreError::NoMatchingKey)?;
            let inner = identity_pre::IdentityPreDelegator::new(self.domain.clone(), key.clone());
            inner.make_reencryption_key(delegatee, delegatee_domain, rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tibpre_core::Delegatee;

    fn domains() -> (Kgc, Kgc, Arc<PairingParams>, StdRng) {
        let mut rng = StdRng::seed_from_u64(101);
        let params = PairingParams::insecure_toy();
        let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
        (kgc1, kgc2, params, rng)
    }

    #[test]
    fn identity_pre_round_trip() {
        let (kgc1, kgc2, params, mut rng) = domains();
        let alice = Identity::new("alice");
        let bob = Identity::new("bob");
        let delegator = identity_pre::IdentityPreDelegator::new(
            kgc1.public_params().clone(),
            kgc1.extract(&alice),
        );
        let delegatee = Delegatee::new(kgc2.extract(&bob));
        let m = params.random_gt(&mut rng);
        let ct = delegator.encrypt(&m, &mut rng);
        assert_eq!(delegator.decrypt(&ct).unwrap(), m);
        let rk = delegator
            .make_reencryption_key(&bob, kgc2.public_params(), &mut rng)
            .unwrap();
        let transformed = identity_pre::re_encrypt(&ct, &rk);
        assert_eq!(delegatee.decrypt_reencrypted(&transformed).unwrap(), m);
    }

    #[test]
    fn identity_pre_key_converts_everything() {
        // The coarse-grained property the paper criticises: one key converts
        // every ciphertext of the delegator, whatever its category.
        let (kgc1, kgc2, params, mut rng) = domains();
        let alice = Identity::new("alice");
        let bob = Identity::new("bob");
        let delegator = identity_pre::IdentityPreDelegator::new(
            kgc1.public_params().clone(),
            kgc1.extract(&alice),
        );
        let delegatee = Delegatee::new(kgc2.extract(&bob));
        let rk = delegator
            .make_reencryption_key(&bob, kgc2.public_params(), &mut rng)
            .unwrap();
        for _ in 0..5 {
            let m = params.random_gt(&mut rng);
            let ct = delegator.encrypt(&m, &mut rng);
            let transformed = identity_pre::re_encrypt(&ct, &rk);
            assert_eq!(delegatee.decrypt_reencrypted(&transformed).unwrap(), m);
        }
    }

    #[test]
    fn multikey_round_trip_and_key_count() {
        let (kgc1, kgc2, params, mut rng) = domains();
        let alice = Identity::new("alice");
        let bob = Identity::new("bob");
        let mut delegator =
            multikey::MultiKeyDelegator::new(kgc1.public_params().clone(), alice.clone());
        let delegatee = Delegatee::new(kgc2.extract(&bob));

        let types: Vec<TypeTag> = ["illness", "diet", "emergency"]
            .iter()
            .map(|l| TypeTag::new(*l))
            .collect();
        for t in &types {
            delegator.register_type(&kgc1, t);
        }
        assert_eq!(delegator.stored_key_count(), 3);
        assert!(delegator.stored_key_bytes() > 0);

        for t in &types {
            let m = params.random_gt(&mut rng);
            let ct = delegator.encrypt(&m, t, &mut rng);
            assert_eq!(delegator.decrypt(&ct, t).unwrap(), m);
            let rk = delegator
                .make_reencryption_key(&bob, kgc2.public_params(), t, &mut rng)
                .unwrap();
            let transformed = identity_pre::re_encrypt(&ct, &rk);
            assert_eq!(delegatee.decrypt_reencrypted(&transformed).unwrap(), m);
        }
    }

    #[test]
    fn multikey_requires_registration() {
        let (kgc1, kgc2, params, mut rng) = domains();
        let alice = Identity::new("alice");
        let mut delegator = multikey::MultiKeyDelegator::new(kgc1.public_params().clone(), alice);
        let t = TypeTag::new("unregistered");
        let m = params.random_gt(&mut rng);
        let ct = delegator.encrypt(&m, &t, &mut rng);
        assert_eq!(
            delegator.decrypt(&ct, &t).unwrap_err(),
            PreError::NoMatchingKey
        );
        assert_eq!(
            delegator
                .make_reencryption_key(&Identity::new("bob"), kgc2.public_params(), &t, &mut rng)
                .unwrap_err(),
            PreError::NoMatchingKey
        );
        delegator.register_type(&kgc1, &t);
        assert_eq!(delegator.decrypt(&ct, &t).unwrap(), m);
    }

    #[test]
    fn multikey_types_are_isolated_by_virtual_identity() {
        let (kgc1, _kgc2, params, mut rng) = domains();
        let alice = Identity::new("alice");
        let mut delegator = multikey::MultiKeyDelegator::new(kgc1.public_params().clone(), alice);
        let t1 = TypeTag::new("t1");
        let t2 = TypeTag::new("t2");
        delegator.register_type(&kgc1, &t1);
        delegator.register_type(&kgc1, &t2);
        assert_ne!(
            delegator.virtual_identity(&t1),
            delegator.virtual_identity(&t2)
        );
        let m = params.random_gt(&mut rng);
        let ct = delegator.encrypt(&m, &t1, &mut rng);
        // Decrypting a t1 ciphertext with the t2 key yields garbage.
        assert_ne!(delegator.decrypt(&ct, &t2).unwrap(), m);
    }
}
