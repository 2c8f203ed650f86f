//! The delegatee role: decryption of re-encrypted ciphertexts.

use crate::proxy::ReEncryptedCiphertext;
use crate::{PreError, Result};
use std::sync::{Arc, Mutex, MutexGuard};
use tibpre_ibe::{bf, IbePrivateKey, Identity, H1_DOMAIN};
use tibpre_pairing::{G1Affine, Generations, Gt, PairingParams, PreparedPairing};

/// The delegatee: holds a private key extracted by *their own* KGC (the
/// paper's `KGC2`) and can open ciphertexts a proxy re-encrypted for them.
pub struct Delegatee {
    private_key: IbePrivateKey,
    mask_cache: Mutex<Masks>,
}

/// Cached prepared masks per delegatee (distinct re-encryption keys seen).
const MASK_CACHE_CAP: usize = 256;

/// Cached mask points per delegatee: at most `4096 × (|c'₃| + 1 + 2·|p|)`
/// bytes of payload, ≈ 1.3 MiB at 80 bits (every entry has one size).
const POINT_CACHE_CAP: usize = 4096;

/// `c'₃ ↦ prepared Miller loop for H1(Decrypt2(c'₃))`, keyed by the exact
/// wire bytes `c'₃` arrives as.  Every ciphertext re-encrypted under one
/// re-encryption key carries the *same* `c'₃ = Encrypt2(X, id_j)`, so a
/// delegatee opening a run of disclosures pays the IBE decryption, the
/// hash-to-curve, and the Miller-loop tabulation once per key instead of
/// once per record.  Identical bytes decrypt to the identical `X`, and the
/// prepared pairing is bit-identical to the direct one, so the cache cannot
/// change any output.
///
/// Bounded by [`Generations`]: a mask in use is never evicted by the
/// arrival of others, however many.
type MaskCache = Generations<Box<[u8]>, Arc<PreparedPairing>, MASK_CACHE_CAP>;

/// `c'₃ ↦ H1(Decrypt2(c'₃))` as its uncompressed encoding, under the same
/// keys: a grant whose table was evicted reopens with one `prepare`, not a
/// decode, an IBE pairing and a hash.
type PointCache = Generations<Box<[u8]>, Box<[u8]>, POINT_CACHE_CAP>;

/// Both tiers, under one lock that is never held across a pairing.
#[derive(Default)]
struct Masks {
    points: PointCache,
    tables: MaskCache,
}

impl Delegatee {
    /// Binds a delegatee to their extracted private key.
    pub fn new(private_key: IbePrivateKey) -> Self {
        Delegatee {
            private_key,
            mask_cache: Mutex::default(),
        }
    }

    fn mask_cache(&self) -> MutexGuard<'_, Masks> {
        self.mask_cache.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The prepared Miller loop for `H1(Decrypt2(c'₃))`, served from the
    /// table tier when this exact `c'₃` has been opened before, else built
    /// from the point tier's `H1(X)` if it still holds one.
    ///
    /// A hit in either tier is not validated again: its bytes equal a `c'₃`
    /// that decoded and decrypted, and both tiers are filled only then.
    fn prepared_mask(&self, ciphertext: &ReEncryptedCiphertext) -> Result<Arc<PreparedPairing>> {
        let key = ciphertext.encrypted_x.as_bytes();
        let point = {
            let mut masks = self.mask_cache();
            if let Some(hit) = masks.tables.get(key) {
                return Ok(hit);
            }
            masks.points.get(key)
        };
        let params = self.params();
        let h1_of_x = match &point {
            Some(bytes) => G1Affine::from_bytes(params.fp_ctx(), bytes)?,
            None => {
                let encrypted_x = ciphertext.encrypted_x.to_ciphertext()?;
                let x = bf::decrypt_gt(&self.private_key, &encrypted_x)?;
                params.hash_to_g1(H1_DOMAIN, &[&x.to_bytes()])?
            }
        };
        let prepared = Arc::new(params.prepare(&h1_of_x));
        let mut masks = self.mask_cache();
        if point.is_none() {
            masks.points.insert(key.into(), h1_of_x.to_bytes().into());
        }
        masks.tables.insert(key.into(), Arc::clone(&prepared));
        Ok(prepared)
    }

    /// The delegatee's identity.
    pub fn identity(&self) -> &Identity {
        self.private_key.identity()
    }

    /// The shared pairing parameters.
    pub fn params(&self) -> &Arc<PairingParams> {
        self.private_key.params()
    }

    /// Access to the private key (needed by the security-game harness).
    pub fn private_key(&self) -> &IbePrivateKey {
        &self.private_key
    }

    /// Decrypts a re-encrypted ciphertext:
    /// `m = c'₂ / ê(c'₁, H1(Decrypt2(c'₃, sk_idj)))`.
    pub fn decrypt_reencrypted(&self, ciphertext: &ReEncryptedCiphertext) -> Result<Gt> {
        // Recover the random element X with the delegatee's own IBE key and
        // remove the mask ê(g^r, H1(X)); the prepared loop for H1(X) comes
        // from the per-key cache (bit-identical to the direct pairing).
        let mask = self.prepared_mask(ciphertext)?.pairing(&ciphertext.c1);
        ciphertext
            .c2
            .div(&mask)
            .map_err(|_| PreError::InvalidEncoding("degenerate re-encryption mask"))
    }
}

impl core::fmt::Debug for Delegatee {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Delegatee(identity={})", self.identity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delegator::Delegator;
    use crate::proxy::re_encrypt;
    use crate::types::TypeTag;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tibpre_ibe::{EncodedIbeCiphertext, Kgc};
    use tibpre_pairing::DecodeCtx;
    use tibpre_wire::{decode_bare, WireVersion};

    impl Masks {
        /// Entries in the table tier, the one the bound test counts.
        fn len(&self) -> usize {
            self.tables.len()
        }
    }

    #[test]
    fn tampered_reencrypted_ciphertexts_do_not_decrypt_to_m() {
        let mut rng = StdRng::seed_from_u64(81);
        let params = PairingParams::insecure_toy();
        let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
        let alice = Identity::new("alice");
        let bob = Identity::new("bob");
        let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
        let delegatee = Delegatee::new(kgc2.extract(&bob));
        let t = TypeTag::new("t");
        let m = params.random_gt(&mut rng);
        let ct = delegator.encrypt_typed(&m, &t, &mut rng);
        let rk = delegator
            .make_reencryption_key(&bob, kgc2.public_params(), &t, &mut rng)
            .unwrap();
        let good = re_encrypt(&ct, &rk).unwrap();
        assert_eq!(delegatee.decrypt_reencrypted(&good).unwrap(), m);

        // Tamper with c2: decryption yields a different element.
        let mut bad = good.clone();
        bad.c2 = bad.c2.mul(params.gt_generator());
        assert_ne!(delegatee.decrypt_reencrypted(&bad).unwrap(), m);

        // Swap in a different encrypted X: the mask no longer matches.
        let other_rk = delegator
            .make_reencryption_key(&bob, kgc2.public_params(), &t, &mut rng)
            .unwrap();
        let mut bad = good.clone();
        bad.encrypted_x = other_rk.encrypted_x().clone();
        assert_ne!(delegatee.decrypt_reencrypted(&bad).unwrap(), m);
    }

    #[test]
    fn repeated_opens_hit_the_mask_cache_and_stay_bit_identical() {
        let mut rng = StdRng::seed_from_u64(84);
        let params = PairingParams::insecure_toy();
        let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
        let alice = Identity::new("alice");
        let bob = Identity::new("bob");
        let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
        let warm = Delegatee::new(kgc2.extract(&bob));
        let t = TypeTag::new("t");
        let rk = delegator
            .make_reencryption_key(&bob, kgc2.public_params(), &t, &mut rng)
            .unwrap();
        let m = params.random_gt(&mut rng);
        let ct = re_encrypt(&delegator.encrypt_typed(&m, &t, &mut rng), &rk).unwrap();

        // Second open is served from the per-key mask cache; a fresh
        // delegatee (cold cache) must agree byte-for-byte, so the cache
        // is unobservable except in time.
        let first = warm.decrypt_reencrypted(&ct).unwrap();
        let second = warm.decrypt_reencrypted(&ct).unwrap();
        assert_eq!(first.to_bytes(), second.to_bytes());
        let cold = Delegatee::new(kgc2.extract(&bob));
        assert_eq!(
            first.to_bytes(),
            cold.decrypt_reencrypted(&ct).unwrap().to_bytes()
        );
        assert_eq!(first, m);
    }

    /// A delegatee and `n` re-encrypted ciphertexts with pairwise distinct
    /// `c'₃` — what disclosures under `n` different grants look like to
    /// the mask cache.
    fn distinct_grants(n: usize) -> (Delegatee, Vec<ReEncryptedCiphertext>) {
        let mut rng = StdRng::seed_from_u64(85);
        let params = PairingParams::insecure_toy();
        let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
        let bob = Identity::new("bob");
        let grants = (0..n)
            .map(|_| ReEncryptedCiphertext {
                c1: params.random_g1(&mut rng),
                c2: params.random_gt(&mut rng),
                encrypted_x: EncodedIbeCiphertext::new(
                    &bf::encrypt_gt(
                        kgc2.public_params(),
                        &bob,
                        &params.random_gt(&mut rng),
                        &mut rng,
                    ),
                    &DecodeCtx::from(&params),
                ),
                type_tag: TypeTag::new("t"),
                delegatee: bob.clone(),
            })
            .collect();
        (Delegatee::new(kgc2.extract(&bob)), grants)
    }

    #[test]
    fn mask_cache_stays_within_its_bound() {
        let (delegatee, grants) = distinct_grants(300);
        for grant in &grants {
            delegatee.prepared_mask(grant).unwrap();
            assert!(delegatee.mask_cache().len() <= MASK_CACHE_CAP);
        }
    }

    #[test]
    fn a_mask_in_use_survives_any_number_of_other_grants() {
        let (delegatee, grants) = distinct_grants(301);
        let (hot, others) = grants.split_first().unwrap();
        let mask = delegatee.prepared_mask(hot).unwrap();
        for other in others {
            delegatee.prepared_mask(other).unwrap();
            let served = delegatee.prepared_mask(hot).unwrap();
            assert!(Arc::ptr_eq(&mask, &served), "the hot mask was rebuilt");
        }
    }

    #[test]
    fn an_evicted_grant_reopens_from_its_point() {
        let (delegatee, grants) = distinct_grants(301);
        let (evicted, others) = grants.split_first().unwrap();
        let key = evicted.encrypted_x.as_bytes();
        let first = delegatee.prepared_mask(evicted).unwrap();
        for other in others {
            delegatee.prepared_mask(other).unwrap();
        }
        {
            let mut masks = delegatee.mask_cache();
            assert!(
                masks.tables.get(key).is_none(),
                "the table outlived 300 grants"
            );
            assert!(masks.points.get(key).is_some(), "the point was evicted");
        }
        let reopened = delegatee.prepared_mask(evicted).unwrap();
        assert!(
            !Arc::ptr_eq(&first, &reopened),
            "the table was never evicted"
        );
        let cold = Delegatee::new(delegatee.private_key().clone());
        assert_eq!(
            delegatee.decrypt_reencrypted(evicted).unwrap().to_bytes(),
            cold.decrypt_reencrypted(evicted).unwrap().to_bytes()
        );

        // The reopen read the point tier: a planted point is what it prepares.
        let params = delegatee.params();
        let planted = params.generator();
        {
            let mut masks = delegatee.mask_cache();
            masks.tables = MaskCache::default();
            masks.points.insert(key.into(), planted.to_bytes().into());
        }
        let served = delegatee.prepared_mask(evicted).unwrap();
        assert_eq!(
            served.pairing(&evicted.c1),
            params.prepare(planted).pairing(&evicted.c1)
        );
    }

    #[test]
    fn a_failed_open_caches_nothing() {
        let (_, grants) = distinct_grants(1);
        let grant = &grants[0];
        let c3 = grant.encrypted_x.as_bytes();
        let params = PairingParams::insecure_toy();
        let flen = params.fp_ctx().byte_len();
        let ctx = DecodeCtx::from(&params);
        let flipped = |at: usize| {
            let mut bytes = c3.to_vec();
            bytes[at] ^= 0x01;
            decode_bare::<EncodedIbeCiphertext>(&bytes, WireVersion::DEFAULT, &ctx).unwrap()
        };
        // The first byte of each coordinate of the point whose flip fails
        // validation (a flipped torus coordinate names another element).
        for part in [1..1 + flen, 1 + flen..1 + 2 * flen] {
            let at = part
                .clone()
                .find(|&at| flipped(at).to_ciphertext().is_err())
                .unwrap_or_else(|| panic!("no flip in {part:?} fails validation"));
            let (fresh, _) = distinct_grants(0);
            let mut tampered = grant.clone();
            tampered.encrypted_x = flipped(at);
            assert!(
                fresh.decrypt_reencrypted(&tampered).is_err(),
                "flip at {at}"
            );
            let masks = fresh.mask_cache();
            assert!(
                masks.points.is_empty() && masks.tables.is_empty(),
                "flip at {at}"
            );
        }
    }

    #[test]
    fn a_delegatees_caches_serve_only_that_delegatee() {
        let mut rng = StdRng::seed_from_u64(86);
        let params = PairingParams::insecure_toy();
        let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
        let alice = Identity::new("alice");
        let bob = Identity::new("bob");
        let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
        let t = TypeTag::new("t");
        let rk = delegator
            .make_reencryption_key(&bob, kgc2.public_params(), &t, &mut rng)
            .unwrap();
        let m = params.random_gt(&mut rng);
        let ct = re_encrypt(&delegator.encrypt_typed(&m, &t, &mut rng), &rk).unwrap();

        let bob = Delegatee::new(kgc2.extract(&bob));
        assert_eq!(bob.decrypt_reencrypted(&ct).unwrap(), m);
        {
            let masks = bob.mask_cache();
            assert_eq!((masks.points.len(), masks.tables.len()), (1, 1));
        }
        // Same KGC, same c'₃ bytes: Carol decrypts her own X, not Bob's.
        let carol = Delegatee::new(kgc2.extract(&Identity::new("carol")));
        assert!(carol
            .decrypt_reencrypted(&ct)
            .map_or(true, |opened| opened != m));
    }

    #[test]
    fn delegatee_metadata() {
        let mut rng = StdRng::seed_from_u64(82);
        let params = PairingParams::insecure_toy();
        let kgc = Kgc::setup(params, "kgc2", &mut rng);
        let bob = Identity::new("bob@clinic.example");
        let delegatee = Delegatee::new(kgc.extract(&bob));
        assert_eq!(delegatee.identity(), &bob);
        assert!(format!("{delegatee:?}").contains("bob@clinic.example"));
    }
}
