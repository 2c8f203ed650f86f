//! Oracle-equivalence suite for the precomputation subsystem.
//!
//! Every precomputed fast path — fixed-base multiplication tables, prepared
//! (fixed-argument) pairings, cached scheme-layer tables, and batched
//! re-encryption — must produce **bit-identical** results to the naive path
//! it replaces.  The naive paths are the generic ladder
//! `G1Affine::mul_scalar`, the affine reference pairing
//! `tibpre_tests::oracle::pairing` (which shares no line with the prepared
//! Miller loop or the final exponentiation), and per-ciphertext algebra
//! spelled out by hand.
//!
//! The suite always runs at the toy level.  Setting `TIBPRE_TEST_LEVELS` to
//! a list containing `80` (as the scheduled CI job does) additionally runs
//! every check at the paper-era 80-bit parameter level; `112` and `128` are
//! honoured too for manual deep soaks.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tibpre_bigint::Uint;
use tibpre_core::{hybrid, proxy, Delegatee, Delegator, TypeTag};
use tibpre_ibe::{bf, Identity, Kgc};
use tibpre_pairing::curve::random_curve_point;
use tibpre_pairing::pairing::final_exponentiation;
use tibpre_pairing::{Fp, Fp2, G1Affine, G1Precomp};
use tibpre_tests::oracle;
use tibpre_tests::test_levels as levels;

#[test]
fn fixed_base_tables_match_naive_scalar_multiplication() {
    for params in levels() {
        let mut rng = StdRng::seed_from_u64(0xFB01);
        // The cached generator table and a fresh table for a random point.
        let bases = [params.generator().clone(), params.random_g1(&mut rng)];
        for base in &bases {
            let table = G1Precomp::new(base, params.q().bits());
            for _ in 0..6 {
                let k = params.random_scalar(&mut rng);
                let fast = table.mul_scalar(&k);
                let naive = base.mul_scalar(&k);
                assert_eq!(fast, naive);
                assert_eq!(
                    fast.to_bytes(),
                    naive.to_bytes(),
                    "encodings must match bit for bit"
                );
            }
        }
        // The params-level cached table and convenience multiplier.
        let k = params.random_scalar(&mut rng);
        assert_eq!(params.mul_generator(&k), params.generator().mul_scalar(&k));
        assert_eq!(
            params.generator_precomp().mul_scalar(&k),
            params.generator().mul_scalar(&k)
        );
    }
}

#[test]
fn prepared_pairings_match_naive_pairings() {
    for params in levels() {
        let mut rng = StdRng::seed_from_u64(0xFB02);
        for _ in 0..3 {
            let fixed = params.random_g1(&mut rng);
            let prepared = params.prepare(&fixed);
            for _ in 0..3 {
                let other = params.random_g1(&mut rng);
                let fast = prepared.pairing(&other);
                let naive = oracle::pairing(&params, &fixed, &other);
                assert_eq!(fast, naive);
                assert_eq!(
                    fast.to_bytes(),
                    naive.to_bytes(),
                    "encodings must match bit for bit"
                );
                // Symmetry: the prepared argument may sit in either slot.
                assert_eq!(fast, oracle::pairing(&params, &other, &fixed));
            }
            assert!(prepared.pairing(&params.g1_identity()).is_one());
        }
        // The prepared generator reproduces ê(g, g).
        assert_eq!(
            &params
                .prepare(params.generator())
                .pairing(params.generator()),
            params.gt_generator()
        );
    }
}

#[test]
fn final_exponentiation_matches_the_plain_power() {
    // The Lucas-ladder reduction against `f^{(p²−1)/q} = (f^{p−1})^h` by
    // plain square-and-multiply (`(p − 1)·h` outgrows a `Uint` at 112
    // bits), for random `f` and for `f` with `f₀f₁ = 0`.
    for params in levels() {
        let mut rng = StdRng::seed_from_u64(0xFB0B);
        let ctx = params.fp_ctx();
        let p_minus_1 = params.p().wrapping_sub(&Uint::ONE);
        let real = Fp::random(ctx, &mut rng);
        let mut fs: Vec<Fp2> = (0..4).map(|_| Fp2::random(ctx, &mut rng)).collect();
        fs.push(Fp2::new(real.clone(), Fp::zero(ctx)));
        fs.push(Fp2::new(Fp::zero(ctx), real));
        for f in &fs {
            assert_eq!(
                final_exponentiation(f, params.cofactor()).expect("f is not zero"),
                f.pow(&p_minus_1).pow(params.cofactor()),
                "f = {f:?}"
            );
        }
    }
}

#[test]
fn identity_arguments_pair_to_one() {
    for params in levels() {
        let id = params.g1_identity();
        let g = params.generator();
        for (a, b) in [(&id, g), (g, &id), (&id, &id)] {
            assert!(oracle::pairing(&params, a, b).is_one());
            assert!(params.prepare(a).pairing(b).is_one());
        }
    }
}

#[test]
fn same_point_pairings_match_the_oracle() {
    // The distortion map keeps ê(P, P) ≠ 1.
    for params in levels() {
        let mut rng = StdRng::seed_from_u64(0xFB08);
        let g = params.generator();
        assert_eq!(&oracle::pairing(&params, g, g), params.gt_generator());
        for point in [g.clone(), params.random_g1(&mut rng)] {
            let fast = params.prepare(&point).pairing(&point);
            assert_eq!(fast, oracle::pairing(&params, &point, &point));
            assert!(!fast.is_one(), "pairing must stay non-degenerate");
        }
    }
}

#[test]
fn two_torsion_arguments_match_the_oracle() {
    // (0, 0) drives the vertical-tangent branch on either side.
    for params in levels() {
        let mut rng = StdRng::seed_from_u64(0xFB09);
        let two_torsion = G1Affine::new(Fp::zero(params.fp_ctx()), Fp::zero(params.fp_ctx()))
            .expect("(0, 0) lies on y² = x³ + x");
        for other in [params.generator().clone(), params.random_g1(&mut rng)] {
            assert_eq!(
                params.prepare(&two_torsion).pairing(&other),
                oracle::pairing(&params, &two_torsion, &other)
            );
            assert_eq!(
                params.prepare(&other).pairing(&two_torsion),
                oracle::pairing(&params, &other, &two_torsion)
            );
        }
    }
}

#[test]
fn non_subgroup_arguments_match_the_oracle() {
    // Points outside the prime-order subgroup, where the 2-torsion and
    // T = ±P special cases can actually fire, in either slot.
    for params in levels() {
        let mut rng = StdRng::seed_from_u64(0xFB0A);
        for _ in 0..3 {
            let a = random_curve_point(params.fp_ctx(), &mut rng);
            let b = random_curve_point(params.fp_ctx(), &mut rng);
            let g = params.random_g1(&mut rng);
            for (x, y) in [(&a, &b), (&a, &g), (&g, &a)] {
                assert_eq!(params.prepare(x).pairing(y), oracle::pairing(&params, x, y));
            }
        }
    }
}

#[test]
fn ibe_encryption_matches_naive_algebra() {
    for params in levels() {
        let mut rng = StdRng::seed_from_u64(0xFB03);
        let kgc = Kgc::setup(params.clone(), "oracle-kgc", &mut rng);
        let pp = kgc.public_params();
        let id = Identity::new("oracle@example.org");
        let sk = kgc.extract(&id);
        let m = params.random_gt(&mut rng);
        let r = params.random_nonzero_scalar(&mut rng);

        // Precomputed path.
        let ct = bf::encrypt_gt_with_randomness(pp, &id, &m, &r);
        // Naive algebra, spelled out with the oracle primitives.
        let pk_id = pp.identity_public_key(&id);
        let naive_c1 = params.generator().mul_scalar(&r);
        let naive_shared = oracle::pairing(&params, &pk_id, pp.kgc_public_key()).pow_scalar(&r);
        assert_eq!(ct.c1.to_bytes(), naive_c1.to_bytes());
        assert_eq!(ct.c2.to_bytes(), m.mul(&naive_shared).to_bytes());

        // Precomputed decryption equals the naive mask removal.
        let fast = bf::decrypt_gt(&sk, &ct).unwrap();
        let naive_mask = oracle::pairing(&params, sk.key(), &ct.c1);
        assert_eq!(fast, ct.c2.div(&naive_mask).unwrap());
        assert_eq!(fast, m);
    }
}

#[test]
fn typed_encryption_matches_naive_algebra() {
    for params in levels() {
        let mut rng = StdRng::seed_from_u64(0xFB04);
        let kgc = Kgc::setup(params.clone(), "oracle-kgc1", &mut rng);
        let alice = Identity::new("alice");
        let delegator = Delegator::new(kgc.public_params().clone(), kgc.extract(&alice));
        let t = TypeTag::new("illness-history");
        let m = params.random_gt(&mut rng);
        let r = params.random_nonzero_scalar(&mut rng);

        let ct = delegator.encrypt_typed_with_randomness(&m, &t, &r);
        // Naive Encrypt1: c1 = g^r, c2 = m · ê(pk_id, pk)^{r·H2(sk‖t)}.
        let pk_id = kgc.public_params().identity_public_key(&alice);
        let exponent = r.mul(&delegator.type_exponent(&t));
        let naive_mask = oracle::pairing(&params, &pk_id, kgc.public_params().kgc_public_key())
            .pow_scalar(&exponent);
        assert_eq!(
            ct.c1.to_bytes(),
            params.generator().mul_scalar(&r).to_bytes()
        );
        assert_eq!(ct.c2.to_bytes(), m.mul(&naive_mask).to_bytes());

        // Precomputed Decrypt1 equals the naive mask removal and round-trips.
        let naive_mask = oracle::pairing(&params, delegator.private_key().key(), &ct.c1)
            .pow_scalar(&delegator.type_exponent(&t));
        assert_eq!(
            delegator.decrypt_typed(&ct).unwrap(),
            ct.c2.div(&naive_mask).unwrap()
        );
        assert_eq!(delegator.decrypt_typed(&ct).unwrap(), m);
    }
}

#[test]
fn reencrypt_batch_matches_naive_per_ciphertext_conversion() {
    for params in levels() {
        let mut rng = StdRng::seed_from_u64(0xFB05);
        let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
        let alice = Identity::new("alice");
        let bob = Identity::new("bob");
        let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
        let delegatee = Delegatee::new(kgc2.extract(&bob));
        let t = TypeTag::new("emergency");
        let rekey = delegator
            .make_reencryption_key(&bob, kgc2.public_params(), &t, &mut rng)
            .unwrap();

        let messages: Vec<_> = (0..5).map(|_| params.random_gt(&mut rng)).collect();
        let ciphertexts: Vec<_> = messages
            .iter()
            .map(|m| delegator.encrypt_typed(m, &t, &mut rng))
            .collect();

        let batch = proxy::re_encrypt_batch(&ciphertexts, &rekey).unwrap();
        assert_eq!(batch.len(), ciphertexts.len());
        for ((ct, converted), m) in ciphertexts.iter().zip(&batch).zip(&messages) {
            // The naive Preenc algebra: c'2 = c2 · ê(c1, rk₂).
            let adjustment = oracle::pairing(&params, &ct.c1, rekey.rk_point());
            assert_eq!(converted.c2.to_bytes(), ct.c2.mul(&adjustment).to_bytes());
            assert_eq!(converted.c1.to_bytes(), ct.c1.to_bytes());
            // Single-ciphertext conversion produces the identical result.
            assert_eq!(&proxy::re_encrypt(ct, &rekey).unwrap(), converted);
            // And the delegatee recovers the message.
            assert_eq!(&delegatee.decrypt_reencrypted(converted).unwrap(), m);
        }

        // Mixed-type batches fail atomically.
        let mut mixed = ciphertexts.clone();
        mixed.push(delegator.encrypt_typed(&messages[0], &TypeTag::new("diet"), &mut rng));
        assert!(proxy::re_encrypt_batch(&mixed, &rekey).is_err());
        // Empty batches are fine.
        assert!(proxy::re_encrypt_batch(&[], &rekey).unwrap().is_empty());
    }
}

#[test]
fn hybrid_batch_matches_single_conversions() {
    for params in levels() {
        let mut rng = StdRng::seed_from_u64(0xFB06);
        let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
        let alice = Identity::new("alice");
        let bob = Identity::new("bob");
        let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
        let delegatee = Delegatee::new(kgc2.extract(&bob));
        let t = TypeTag::new("lab-results");
        let rekey = delegator
            .make_reencryption_key(&bob, kgc2.public_params(), &t, &mut rng)
            .unwrap();

        let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 64 + usize::from(i)]).collect();
        let ciphertexts: Vec<_> = payloads
            .iter()
            .map(|p| delegator.encrypt_bytes(p, b"aad", &t, &mut rng))
            .collect();

        let batch = hybrid::re_encrypt_hybrid_batch(&ciphertexts, &rekey).unwrap();
        for ((ct, converted), payload) in ciphertexts.iter().zip(&batch).zip(&payloads) {
            assert_eq!(converted, &hybrid::re_encrypt_hybrid(ct, &rekey).unwrap());
            assert_eq!(converted.body, ct.body, "bodies are forwarded untouched");
            assert_eq!(
                &delegatee.decrypt_bytes(converted, b"aad").unwrap(),
                payload
            );
        }
    }
}

#[test]
fn rekey_generation_is_oracle_consistent() {
    // Pextract's sk-table path must satisfy the re-encryption equation it is
    // specified by: decrypting a converted ciphertext recovers the message.
    for params in levels() {
        let mut rng = StdRng::seed_from_u64(0xFB07);
        let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
        let alice = Identity::new("alice");
        let bob = Identity::new("bob");
        let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
        let delegatee = Delegatee::new(kgc2.extract(&bob));
        for label in ["t1", "t2"] {
            let t = TypeTag::new(label);
            let rekey = delegator
                .make_reencryption_key(&bob, kgc2.public_params(), &t, &mut rng)
                .unwrap();
            // rk₂ must equal sk^{−H2(sk‖t)} · H1(X) computed with the naive
            // scalar multiplication; verify through the algebra, which only
            // holds when rk₂ is exactly right.
            let m = params.random_gt(&mut rng);
            let ct = delegator.encrypt_typed(&m, &t, &mut rng);
            let converted = proxy::re_encrypt(&ct, &rekey).unwrap();
            assert_eq!(delegatee.decrypt_reencrypted(&converted).unwrap(), m);
        }
    }
}
