//! Security-property integration tests: the paper's claimed properties
//! (uni-directionality, non-interactivity, collusion-safety) and the
//! executable IND-ID-DR-CPA game.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tibpre_core::{proxy, Delegatee, Delegator, TypeTag};
use tibpre_ibe::{bf, Identity, Kgc, H1_DOMAIN};
use tibpre_pairing::PairingParams;
use tibpre_tests::game::{
    win_rate, Adversary, BlindAdversary, Challenger, GameError, KeyHoldingAdversary,
    OracleUsingAdversary,
};

fn setup() -> (Arc<PairingParams>, Kgc, Kgc, StdRng) {
    let mut rng = StdRng::seed_from_u64(0x5EC);
    let params = PairingParams::insecure_toy();
    let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
    let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
    (params, kgc1, kgc2, rng)
}

#[test]
fn non_interactive_delegation() {
    // The delegator creates the re-encryption key entirely on his own: no
    // message from (or key material of) the delegatee is involved.  We check
    // that the key is created before the delegatee's key is ever extracted and
    // still works afterwards.
    let (params, kgc1, kgc2, mut rng) = setup();
    let alice = Identity::new("alice");
    let bob = Identity::new("bob");
    let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
    let t = TypeTag::new("t");
    let rk = delegator
        .make_reencryption_key(&bob, kgc2.public_params(), &t, &mut rng)
        .unwrap();
    // Only now does Bob obtain his key.
    let delegatee = Delegatee::new(kgc2.extract(&bob));
    let m = params.random_gt(&mut rng);
    let ct = delegator.encrypt_typed(&m, &t, &mut rng);
    let transformed = proxy::re_encrypt(&ct, &rk).unwrap();
    assert_eq!(delegatee.decrypt_reencrypted(&transformed).unwrap(), m);
}

#[test]
fn uni_directional_delegation() {
    // A re-encryption key from Alice to Bob does not convert Bob's ciphertexts
    // towards Alice.  (Bob's typed ciphertexts live under his own identity and
    // exponent, so applying Alice's key produces garbage for everyone.)
    let (params, kgc1, kgc2, mut rng) = setup();
    let alice = Identity::new("alice");
    let bob = Identity::new("bob");
    let alice_delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
    let bob_delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&bob));
    let alice_delegatee = Delegatee::new(kgc2.extract(&alice));
    let t = TypeTag::new("t");

    let rk_alice_to_bob = alice_delegator
        .make_reencryption_key(&bob, kgc2.public_params(), &t, &mut rng)
        .unwrap();

    let bob_secret = params.random_gt(&mut rng);
    let bob_ct = bob_delegator.encrypt_typed(&bob_secret, &t, &mut rng);
    // The proxy can mechanically apply the key (same type tag), but nobody —
    // in particular not Alice — recovers Bob's message from the result.
    let converted = proxy::re_encrypt(&bob_ct, &rk_alice_to_bob).unwrap();
    assert_ne!(
        alice_delegatee.decrypt_reencrypted(&converted).unwrap(),
        bob_secret
    );
    // And Bob himself still can decrypt his own ciphertext directly.
    assert_eq!(bob_delegator.decrypt_typed(&bob_ct).unwrap(), bob_secret);
}

#[test]
fn collusion_exposes_only_the_delegated_type() {
    // The paper's "collusion safe" discussion: the proxy and the delegatee
    // together can reconstruct the *per-type virtual key*
    // sk^{-H2(sk‖t)}·H1(X) − H1(X) = sk^{-H2(sk‖t)}, which lets them decrypt
    // every type-t ciphertext (they are allowed to see those anyway), but it
    // does not help with any other type, nor does it reveal sk itself.
    let (params, kgc1, kgc2, mut rng) = setup();
    let alice = Identity::new("alice");
    let bob = Identity::new("bob");
    let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
    let bob_key = kgc2.extract(&bob);
    let t = TypeTag::new("delegated-type");
    let t_other = TypeTag::new("other-type");

    let rk = delegator
        .make_reencryption_key(&bob, kgc2.public_params(), &t, &mut rng)
        .unwrap();

    // --- What the colluding pair computes ---
    // Bob decrypts X from the re-encryption key, hashes it to the curve, and
    // subtracts it from the proxy's rk point:
    let x = bf::decrypt_gt(&bob_key, &rk.encrypted_x().to_ciphertext().unwrap()).unwrap();
    let h1_of_x = params.hash_to_g1(H1_DOMAIN, &[&x.to_bytes()]).unwrap();
    let virtual_key_neg = rk.rk_point().sub(&h1_of_x); // = sk^{-H2(sk‖t)}

    // The pair can now decrypt ANY type-t ciphertext of Alice without the proxy:
    let m = params.random_gt(&mut rng);
    let ct = delegator.encrypt_typed(&m, &t, &mut rng);
    let mask = params.pairing(&ct.c1, &virtual_key_neg); // ê(g^r, sk^{-H2})
    let recovered = ct.c2.mul(&mask);
    assert_eq!(recovered, m, "collusion does recover the delegated type");

    // But the same virtual key is useless for a different type:
    let m_other = params.random_gt(&mut rng);
    let ct_other = delegator.encrypt_typed(&m_other, &t_other, &mut rng);
    let mask_other = params.pairing(&ct_other.c1, &virtual_key_neg);
    assert_ne!(ct_other.c2.mul(&mask_other), m_other);

    // ... and it is not the delegator's actual private key.
    assert_ne!(&virtual_key_neg, delegator.private_key().key());
    assert_ne!(virtual_key_neg, delegator.private_key().key().neg());
}

#[test]
fn reencryption_keys_leak_nothing_to_the_proxy_alone() {
    // Without the delegatee's private key, the proxy cannot even recover X,
    // let alone use the rk point: re-encrypting and then trying to decrypt
    // with a random key fails.
    let (params, kgc1, kgc2, mut rng) = setup();
    let alice = Identity::new("alice");
    let bob = Identity::new("bob");
    let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
    let t = TypeTag::new("t");
    let rk = delegator
        .make_reencryption_key(&bob, kgc2.public_params(), &t, &mut rng)
        .unwrap();
    let m = params.random_gt(&mut rng);
    let ct = delegator.encrypt_typed(&m, &t, &mut rng);
    let transformed = proxy::re_encrypt(&ct, &rk).unwrap();

    // A "proxy" that guesses X at random gets nowhere.
    let guessed_x = params.random_gt(&mut rng);
    let h1_guess = params
        .hash_to_g1(H1_DOMAIN, &[&guessed_x.to_bytes()])
        .unwrap();
    let mask_guess = params.pairing(&transformed.c1, &h1_guess);
    assert_ne!(transformed.c2.div(&mask_guess).unwrap(), m);
}

#[test]
fn ind_id_dr_cpa_game_sanity() {
    let params = PairingParams::insecure_toy();
    let mut rng = StdRng::seed_from_u64(0x6A3E);
    // A blind adversary hovers around 1/2 ...
    let blind = win_rate(|| BlindAdversary, &params, 40, &mut rng);
    assert!(blind > 0.2 && blind < 0.8, "blind win rate {blind}");
    // ... an adversary using its allowed oracles gains nothing ...
    let oracle = win_rate(|| OracleUsingAdversary, &params, 30, &mut rng);
    assert!(oracle > 0.2 && oracle < 0.8, "oracle win rate {oracle}");
    // ... and an adversary holding the target key wins always (the harness
    // actually measures distinguishing power).
    let keyed = win_rate(|| KeyHoldingAdversary, &params, 8, &mut rng);
    assert_eq!(keyed, 1.0);
}

#[test]
fn game_rejects_trivially_winning_query_patterns() {
    // An adversary that tries to extract the challenge identity's key, or to
    // obtain both the re-encryption key and the delegatee's key for the
    // challenge pair, is stopped by the challenger.
    struct CheatingAdversary;
    impl Adversary for CheatingAdversary {
        fn play<R: rand::RngCore + rand::CryptoRng>(
            &mut self,
            challenger: &mut Challenger,
            rng: &mut R,
        ) -> tibpre_tests::game::Result<bool> {
            let params = Arc::clone(challenger.params());
            let target = Identity::new("target");
            let helper = Identity::new("helper");
            let t = TypeTag::new("t*");
            let m0 = params.random_gt(rng);
            let m1 = params.random_gt(rng);
            let ct = challenger.challenge(&m0, &m1, &t, &target, rng)?;

            // Attempt 1: extract the challenge identity directly.
            assert!(matches!(
                challenger.extract1(&target),
                Err(GameError::ConstraintViolated(_))
            ));
            // Attempt 2: pextract towards a helper, then extract the helper.
            let _rk = challenger.pextract(&target, &helper, &t)?;
            assert!(matches!(
                challenger.extract2(&helper),
                Err(GameError::ConstraintViolated(_))
            ));
            let _ = ct;
            Ok(rng.next_u32() & 1 == 1)
        }
    }

    let params = PairingParams::insecure_toy();
    let mut rng = StdRng::seed_from_u64(0x6A3F);
    let rate = win_rate(|| CheatingAdversary, &params, 20, &mut rng);
    assert!(
        rate > 0.1 && rate < 0.9,
        "cheater reduced to guessing: {rate}"
    );
}
