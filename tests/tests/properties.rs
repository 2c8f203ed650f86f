//! Property-based tests spanning the pairing substrate and the PRE scheme.
//!
//! Uses the cached toy parameter set (generation is done once per process) and
//! modest case counts, since every case performs several pairings.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tibpre_core::{proxy, Delegatee, Delegator, TypeTag};
use tibpre_ibe::{bf, Identity, Kgc};
use tibpre_pairing::{PairingParams, Scalar};
use tibpre_tests::compressed;

fn rng_from(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// ê(aG, bG) = ê(G, G)^{ab} for random a, b.
    #[test]
    fn pairing_bilinearity(seed in any::<u64>()) {
        let params = PairingParams::insecure_toy();
        let mut rng = rng_from(seed);
        let a = params.random_nonzero_scalar(&mut rng);
        let b = params.random_nonzero_scalar(&mut rng);
        let g = params.generator();
        let lhs = params.pairing(&g.mul_scalar(&a), &g.mul_scalar(&b));
        let rhs = params.gt_generator().pow_scalar(&a.mul(&b));
        prop_assert_eq!(lhs, rhs);
    }

    /// ê(P, Q) = ê(Q, P): the Type-1 pairing is symmetric.
    #[test]
    fn pairing_symmetry(seed in any::<u64>()) {
        let params = PairingParams::insecure_toy();
        let mut rng = rng_from(seed);
        let p = params.random_g1(&mut rng);
        let q = params.random_g1(&mut rng);
        prop_assert_eq!(params.pairing(&p, &q), params.pairing(&q, &p));
    }

    /// Scalar multiplication in G1 is a group homomorphism from Z_q.
    #[test]
    fn scalar_mul_homomorphism(seed in any::<u64>()) {
        let params = PairingParams::insecure_toy();
        let mut rng = rng_from(seed);
        let a = params.random_scalar(&mut rng);
        let b = params.random_scalar(&mut rng);
        let g = params.generator();
        prop_assert_eq!(
            g.mul_scalar(&a).add(&g.mul_scalar(&b)),
            g.mul_scalar(&a.add(&b))
        );
        prop_assert_eq!(
            g.mul_scalar(&a).mul_scalar(&b),
            g.mul_scalar(&a.mul(&b))
        );
    }

    /// Boneh–Franklin round trip for arbitrary identities.
    #[test]
    fn ibe_round_trip(seed in any::<u64>(), id in "[a-z0-9@.-]{1,40}") {
        let params = PairingParams::insecure_toy();
        let mut rng = rng_from(seed);
        let kgc = Kgc::setup(params.clone(), "kgc", &mut rng);
        let identity = Identity::new(&id);
        let sk = kgc.extract(&identity);
        let m = params.random_gt(&mut rng);
        let ct = bf::encrypt_gt(kgc.public_params(), &identity, &m, &mut rng);
        prop_assert_eq!(bf::decrypt_gt(&sk, &ct).unwrap(), m);
    }

    /// Typed encryption round-trips for arbitrary type tags, and delegation
    /// through a proxy recovers the message at the delegatee.
    #[test]
    fn scheme_round_trip(seed in any::<u64>(), type_label in ".{0,24}") {
        let params = PairingParams::insecure_toy();
        let mut rng = rng_from(seed);
        let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
        let alice = Identity::new("alice");
        let bob = Identity::new("bob");
        let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
        let delegatee = Delegatee::new(kgc2.extract(&bob));
        let t = TypeTag::new(&type_label);
        let m = params.random_gt(&mut rng);

        let ct = delegator.encrypt_typed(&m, &t, &mut rng);
        prop_assert_eq!(delegator.decrypt_typed(&ct).unwrap(), m.clone());

        let rk = delegator
            .make_reencryption_key(&bob, kgc2.public_params(), &t, &mut rng)
            .unwrap();
        let transformed = proxy::re_encrypt(&ct, &rk).unwrap();
        prop_assert_eq!(delegatee.decrypt_reencrypted(&transformed).unwrap(), m);
    }

    /// A re-encryption key never helps with a *different* type, whatever the
    /// two labels are (as long as they differ).
    #[test]
    fn type_isolation(seed in any::<u64>(), label_a in "[a-z]{1,12}", label_b in "[a-z]{1,12}") {
        prop_assume!(label_a != label_b);
        let params = PairingParams::insecure_toy();
        let mut rng = rng_from(seed);
        let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
        let alice = Identity::new("alice");
        let bob = Identity::new("bob");
        let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
        let delegatee = Delegatee::new(kgc2.extract(&bob));
        let t_a = TypeTag::new(&label_a);
        let t_b = TypeTag::new(&label_b);
        let m = params.random_gt(&mut rng);

        let ct_b = delegator.encrypt_typed(&m, &t_b, &mut rng);
        let rk_a = delegator
            .make_reencryption_key(&bob, kgc2.public_params(), &t_a, &mut rng)
            .unwrap();
        // Honest proxy refuses.
        prop_assert!(proxy::re_encrypt(&ct_b, &rk_a).is_err());
        // Dishonest proxy relabels — and produces garbage.
        let mut relabelled = ct_b;
        relabelled.type_tag = t_a;
        let forced = proxy::re_encrypt(&relabelled, &rk_a).unwrap();
        prop_assert_ne!(delegatee.decrypt_reencrypted(&forced).unwrap(), m);
    }

    /// Hybrid round trip for random payloads and associated data.
    #[test]
    fn hybrid_round_trip(seed in any::<u64>(), payload in proptest::collection::vec(any::<u8>(), 0..512), aad in proptest::collection::vec(any::<u8>(), 0..32)) {
        let params = PairingParams::insecure_toy();
        let mut rng = rng_from(seed);
        let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
        let delegator = Delegator::new(
            kgc1.public_params().clone(),
            kgc1.extract(&Identity::new("alice")),
        );
        let delegatee = Delegatee::new(kgc2.extract(&Identity::new("bob")));
        let t = TypeTag::new("payload-type");
        let ct = delegator.encrypt_bytes(&payload, &aad, &t, &mut rng);
        prop_assert_eq!(delegator.decrypt_bytes(&ct, &aad).unwrap(), payload.clone());
        let rk = delegator
            .make_reencryption_key(&Identity::new("bob"), kgc2.public_params(), &t, &mut rng)
            .unwrap();
        let transformed = tibpre_core::hybrid::re_encrypt_hybrid(&ct, &rk).unwrap();
        prop_assert_eq!(delegatee.decrypt_bytes(&transformed, &aad).unwrap(), payload);
    }

    /// Serialization of every wire object round-trips for random instances.
    #[test]
    fn wire_formats_round_trip(seed in any::<u64>()) {
        let params = PairingParams::insecure_toy();
        let mut rng = rng_from(seed);
        // Scalars.
        let s = params.random_scalar(&mut rng);
        prop_assert_eq!(
            Scalar::from_bytes(params.scalar_ctx(), &s.to_bytes()).unwrap(),
            s
        );
        // Curve points, both encodings (the compressed one older writers
        // emitted).
        let p = params.random_g1(&mut rng);
        prop_assert_eq!(
            tibpre_pairing::G1Affine::from_bytes(params.fp_ctx(), &p.to_bytes()).unwrap(),
            p.clone()
        );
        prop_assert_eq!(
            tibpre_pairing::G1Affine::from_bytes(params.fp_ctx(), &compressed::g1(&p)).unwrap(),
            p
        );
        // Target-group elements, with subgroup validation.
        let g = params.random_gt(&mut rng);
        prop_assert_eq!(
            tibpre_pairing::Gt::from_bytes(params.fp_ctx(), params.q(), &g.to_bytes()).unwrap(),
            g
        );
    }
}
