//! `Fp::sqrt` at every parameter level the oracle suites run at.
//!
//! One square root opens every compressed `G1` point and `Gt` element, and
//! one more runs inside every `hash_to_g1`; all of them go through the
//! windowed `MontCtx::mont_pow`, whose limb kernels differ per level (3, 8,
//! 16 and 24 limbs).  The suite always runs at the toy level; setting
//! `TIBPRE_TEST_LEVELS` (see `tibpre_tests::test_levels`) adds the others.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tibpre_pairing::Fp;
use tibpre_tests::test_levels;

#[test]
fn squares_have_their_roots_and_non_squares_have_none() {
    for params in test_levels() {
        let level = params.level();
        let ctx = params.fp_ctx();
        let mut rng = StdRng::seed_from_u64(0x5172);
        // −1 is a non-square because p ≡ 3 (mod 4), so −a² is one for
        // every non-zero a.
        let minus_one = Fp::one(ctx).neg();
        let near_p = Fp::zero(ctx) - Fp::from_u64(ctx, 2);
        let randoms = (0..12).map(|_| Fp::random(ctx, &mut rng));
        for a in [Fp::one(ctx), minus_one.clone(), near_p]
            .into_iter()
            .chain(randoms)
        {
            let square = a.square();
            let root = square.sqrt().expect("a square has a root");
            assert!(
                root == a || root == a.neg(),
                "{level:?}: wrong root of {square:?}"
            );
            assert!(square.is_square(), "{level:?}");
            let non_square = &square * &minus_one;
            assert!(
                non_square.sqrt().is_none(),
                "{level:?}: root of {non_square:?}"
            );
            assert!(!non_square.is_square(), "{level:?}");
        }
        let zero = Fp::zero(ctx);
        assert_eq!(zero.sqrt(), Some(zero.clone()), "{level:?}");
        assert!(zero.is_square());
    }
}
