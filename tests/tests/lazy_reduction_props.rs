//! Oracle-equivalence suite for the lazy-reduction fast paths.
//!
//! The hot field layers keep products *unreduced* across additions — one
//! Montgomery reduction per `Fp::sum_of_products` call instead of one per
//! multiplication — and the multi-pairing entry point shares one Miller
//! accumulator and one final exponentiation across a whole batch.  Every one
//! of those shortcuts must be **bit-identical** to the strict path it
//! replaces; this suite pins that on random operands *and* on the
//! adversarial corners where a missed carry or a skipped reduction would
//! actually show: values at `p − k` for tiny `k`, all-ones limb patterns
//! (maximum carry chains), zero, and one.
//!
//! The strict oracles live here, not in the API: Karatsuba `Fp2`
//! multiplication with every product reduced immediately ([`mul_strict`]),
//! a reduce-every-step fold, and the affine reference pairing
//! `tibpre_tests::oracle::pairing` (one Miller loop + one plain `Fp2::pow`
//! per pair).
//!
//! The suite always runs at the toy level.  Setting `TIBPRE_TEST_LEVELS`
//! to a list containing `80` (as the scheduled CI job does) additionally
//! runs every check at the paper-era 80-bit parameter level; `112` and
//! `128` are honoured too for manual deep soaks.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tibpre_bigint::Uint;
use tibpre_pairing::{multi_pairing, Fp, Fp2, FpCtx, PairingParams, SecurityLevel};
use tibpre_tests::oracle;
use tibpre_tests::test_levels as levels;

/// Strict-reduction Karatsuba multiplication (3 base-field multiplications,
/// every product reduced immediately) — the historical shape of the hot
/// path and the oracle for the lazy `Fp2::mul`.
fn mul_strict(a: &Fp2, b: &Fp2) -> Fp2 {
    let a0b0 = &a.c0 * &b.c0;
    let a1b1 = &a.c1 * &b.c1;
    let cross = &(&(&a.c0 + &a.c1) * &(&b.c0 + &b.c1)) - &(&a0b0 + &a1b1);
    Fp2::new(&a0b0 - &a1b1, cross)
}

/// Adversarial `Fp` operands for a given context: the reduction-boundary
/// values a lazy accumulator is most likely to get wrong.
fn corner_elements(ctx: &Arc<FpCtx>) -> Vec<Fp> {
    let p = *ctx.modulus();
    let limbs = p.limb_len();
    let mut corners = vec![
        Fp::zero(ctx),
        Fp::one(ctx),
        Fp::one(ctx).neg(), // p − 1
        Fp::from_u64(ctx, 2).neg(),
        Fp::from_u64(ctx, u64::MAX),
    ];
    // p − k for small k, via Uint subtraction (reduces to itself).
    for k in [3u64, 17, 255] {
        corners.push(Fp::from_uint(ctx, &p.wrapping_sub(&Uint::from_u64(k))));
    }
    // All-ones limb patterns of every width up to the modulus width: the
    // longest possible carry chains through the wide accumulator.
    for width in 1..=limbs {
        let ones = Uint::from_limbs_le(&vec![u64::MAX; width]).unwrap();
        corners.push(Fp::from_uint(ctx, &ones));
    }
    corners
}

/// The strict oracle for `sum_of_products`: reduce after every single
/// multiplication, then fold with reduced additions.
fn strict_sum_of_products(pairs: &[(&Fp, &Fp)]) -> Fp {
    let ctx = pairs[0].0.ctx();
    pairs
        .iter()
        .fold(Fp::zero(ctx), |acc, (a, b)| acc.add(&a.mul(b)))
}

#[test]
fn sum_of_products_matches_the_strict_fold_on_corners() {
    for params in levels() {
        let ctx = params.fp_ctx();
        let corners = corner_elements(ctx);
        // Every pair of corners as a 1-term sum (pure lazy mul)...
        for a in &corners {
            for b in &corners {
                let lazy = Fp::sum_of_products(&[(a, b)]);
                assert_eq!(lazy.to_bytes(), a.mul(b).to_bytes());
            }
        }
        // ...and longer sums sliding over the corner list, including
        // subtraction spelled as negation (the documented calling idiom).
        for len in [2usize, 3, 5, corners.len()] {
            for start in 0..corners.len() {
                let terms: Vec<(&Fp, &Fp)> = (0..len)
                    .map(|i| {
                        let a = &corners[(start + i) % corners.len()];
                        let b = &corners[(start + 2 * i + 1) % corners.len()];
                        (a, b)
                    })
                    .collect();
                let lazy = Fp::sum_of_products(&terms);
                assert_eq!(
                    lazy.to_bytes(),
                    strict_sum_of_products(&terms).to_bytes(),
                    "len={len} start={start} level={:?}",
                    params.level()
                );
            }
        }
        // a·b − c·d via negation, on the nastiest corner (p − 1).
        let near = Fp::one(ctx).neg();
        let diff = Fp::sum_of_products(&[(&near, &near), (&near.neg(), &near)]);
        assert_eq!(
            diff.to_bytes(),
            near.mul(&near).sub(&near.mul(&near)).to_bytes()
        );
        assert!(diff.is_zero());
    }
}

#[test]
fn fp2_lazy_mul_matches_strict_on_corners_and_random() {
    for params in levels() {
        let ctx = params.fp_ctx();
        let corners = corner_elements(ctx);
        let mut rng = StdRng::seed_from_u64(0x1A2);
        // Corner × corner products in both components.
        let mut elements: Vec<Fp2> = Vec::new();
        for i in 0..corners.len() {
            let j = (i * 3 + 1) % corners.len();
            elements.push(Fp2::new(corners[i].clone(), corners[j].clone()));
        }
        for _ in 0..8 {
            elements.push(Fp2::random(ctx, &mut rng));
        }
        for a in &elements {
            for b in &elements {
                assert_eq!(a.mul(b).to_bytes(), mul_strict(a, b).to_bytes());
            }
            // Squaring stays strict internally but must agree with lazy mul.
            assert_eq!(a.square().to_bytes(), a.mul(a).to_bytes());
        }
        // Line values `real + y·i` with both coefficients drawn from the
        // corner set, against the same strict oracle.
        for a in &elements {
            for (real, y) in corners.iter().zip(corners.iter().rev()) {
                let line = Fp2::new(real.clone(), y.clone());
                assert_eq!(a.mul(&line).to_bytes(), mul_strict(a, &line).to_bytes());
            }
        }
    }
}

#[test]
fn multi_pairing_matches_independent_pairings_at_each_level() {
    for params in levels() {
        let mut rng = StdRng::seed_from_u64(0x1A3);
        for k in [1usize, 2, 5] {
            let pairs: Vec<_> = (0..k)
                .map(|_| (params.random_g1(&mut rng), params.random_g1(&mut rng)))
                .collect();
            // Oracle: k fully independent naive pairings, folded in Gt.
            let expected = pairs.iter().fold(params.gt_identity(), |acc, (a, b)| {
                acc.mul(&oracle::pairing(&params, a, b))
            });
            // Fast path: shared Miller accumulator, one final exponentiation.
            let prepared: Vec<_> = pairs.iter().map(|(a, _)| params.prepare(a)).collect();
            let refs: Vec<_> = prepared
                .iter()
                .zip(pairs.iter())
                .map(|(prep, (_, b))| (prep, b))
                .collect();
            let fast = multi_pairing(&refs).unwrap();
            assert_eq!(
                fast.to_bytes(),
                expected.to_bytes(),
                "k={k} level={:?}",
                params.level()
            );
            // The element-wise batched final exponentiation, too.
            let bs: Vec<_> = pairs.iter().map(|(_, b)| b).collect();
            let batch = prepared[0].pairing_batch(&bs);
            for (b, gt) in bs.iter().zip(&batch) {
                assert_eq!(
                    gt.to_bytes(),
                    oracle::pairing(&params, &pairs[0].0, b).to_bytes()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random-operand property: lazy `sum_of_products` equals the strict
    /// reduce-after-every-step fold, with random signs (negation) mixed in.
    /// Proptest drives the toy level only — the corner tests above cover the
    /// heavier levels under `TIBPRE_TEST_LEVELS` without 64× repetition.
    #[test]
    fn prop_sum_of_products_matches_strict(seed in any::<u64>(), len in 1usize..9) {
        let params = PairingParams::cached(SecurityLevel::Toy);
        let ctx = params.fp_ctx();
        let mut rng = StdRng::seed_from_u64(seed);
        let elems: Vec<(Fp, Fp)> = (0..len)
            .map(|i| {
                let a = Fp::random(ctx, &mut rng);
                let a = if i % 2 == 0 { a } else { a.neg() };
                (a, Fp::random(ctx, &mut rng))
            })
            .collect();
        let refs: Vec<(&Fp, &Fp)> = elems.iter().map(|(a, b)| (a, b)).collect();
        prop_assert_eq!(
            Fp::sum_of_products(&refs).to_bytes(),
            strict_sum_of_products(&refs).to_bytes()
        );
    }

    /// Random-operand property: lazy `Fp2` multiplication equals its strict
    /// oracle, on a random element and on a random line value.
    #[test]
    fn prop_fp2_lazy_matches_strict(seed in any::<u64>()) {
        let params = PairingParams::cached(SecurityLevel::Toy);
        let ctx = params.fp_ctx();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Fp2::random(ctx, &mut rng);
        let b = Fp2::random(ctx, &mut rng);
        prop_assert_eq!(a.mul(&b).to_bytes(), mul_strict(&a, &b).to_bytes());
        let real = Fp::random(ctx, &mut rng);
        let y = Fp::random(ctx, &mut rng);
        let line = Fp2::new(real, y);
        prop_assert_eq!(a.mul(&line).to_bytes(), mul_strict(&a, &line).to_bytes());
    }
}
