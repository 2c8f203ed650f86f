//! Property-based tests for the big-integer layer.
//!
//! Small values are cross-checked against native `u128` arithmetic; larger
//! values are checked against algebraic identities (ring axioms, division
//! identity, Montgomery round trips, Fermat vs. extended-GCD inversion).

use proptest::prelude::*;
use tibpre_bigint::{MontCtx, Uint};

fn uint_from_u128(v: u128) -> Uint {
    Uint::from_u128(v)
}

/// Arbitrary `Uint` of up to 512 bits built from 8 random limbs.
fn arb_uint_512() -> impl Strategy<Value = Uint> {
    proptest::collection::vec(any::<u64>(), 1..=8)
        .prop_map(|limbs| Uint::from_limbs_le(&limbs).expect("at most 8 limbs"))
}

/// An odd three-limb modulus of 165–192 bits (three limbs is a width
/// `MontCtx` runs at, and the field width of the toy level).
fn arb_odd_modulus() -> impl Strategy<Value = Uint> {
    proptest::collection::vec(any::<u64>(), 3..=3).prop_map(|limbs| {
        // odd, top limb at least 2^36
        Uint::from_limbs_le(&[limbs[0] | 1, limbs[1], limbs[2] | 1 << 36]).expect("three limbs")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let sum = uint_from_u128(a as u128).checked_add(&uint_from_u128(b as u128)).unwrap();
        prop_assert_eq!(sum.low_u128(), a as u128 + b as u128);
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = uint_from_u128(a as u128).mul_wide(&uint_from_u128(b as u128));
        prop_assert!(hi.is_zero());
        prop_assert_eq!(lo.low_u128(), a as u128 * b as u128);
    }

    #[test]
    fn addition_commutes_and_associates(a in arb_uint_512(), b in arb_uint_512(), c in arb_uint_512()) {
        prop_assert_eq!(a.wrapping_add(&b), b.wrapping_add(&a));
        prop_assert_eq!(
            a.wrapping_add(&b).wrapping_add(&c),
            a.wrapping_add(&b.wrapping_add(&c))
        );
    }

    #[test]
    fn multiplication_commutes(a in arb_uint_512(), b in arb_uint_512()) {
        prop_assert_eq!(a.mul_wide(&b), b.mul_wide(&a));
    }

    #[test]
    fn multiplication_distributes(a in arb_uint_512(), b in arb_uint_512(), c in arb_uint_512()) {
        // (a + b) * c == a*c + b*c, all well within the 1664-bit capacity
        // because the operands are at most 512 bits.
        let sum = a.checked_add(&b).unwrap();
        let (lhs, lhs_hi) = sum.mul_wide(&c);
        prop_assert!(lhs_hi.is_zero());
        let (ac, ac_hi) = a.mul_wide(&c);
        let (bc, bc_hi) = b.mul_wide(&c);
        prop_assert!(ac_hi.is_zero() && bc_hi.is_zero());
        prop_assert_eq!(lhs, ac.checked_add(&bc).unwrap());
    }

    #[test]
    fn subtraction_inverts_addition(a in arb_uint_512(), b in arb_uint_512()) {
        let sum = a.checked_add(&b).unwrap();
        prop_assert_eq!(sum.checked_sub(&b).unwrap(), a);
        prop_assert_eq!(sum.checked_sub(&a).unwrap(), b);
    }

    #[test]
    fn division_identity(n in arb_uint_512(), d in arb_uint_512()) {
        prop_assume!(!d.is_zero());
        let (q, r) = n.div_rem(&d).unwrap();
        prop_assert!(r < d);
        let (qd, hi) = q.mul_wide(&d);
        prop_assert!(hi.is_zero());
        prop_assert_eq!(qd.checked_add(&r).unwrap(), n);
    }

    #[test]
    fn shifts_are_mul_div_by_powers_of_two(a in any::<u64>(), s in 0usize..60) {
        let v = Uint::from_u64(a);
        prop_assert_eq!(v.shl(s).low_u128(), (a as u128) << s);
        prop_assert_eq!(v.shr(s), Uint::from_u64(a >> s));
        prop_assert_eq!(v.shl(s).shr(s), v);
    }

    #[test]
    fn hex_and_bytes_round_trip(a in arb_uint_512()) {
        prop_assert_eq!(Uint::from_hex(&a.to_hex()).unwrap(), a);
        prop_assert_eq!(Uint::from_be_bytes(&a.to_be_bytes_minimal()).unwrap(), a);
        let fixed = a.to_be_bytes(64).unwrap();
        prop_assert_eq!(fixed.len(), 64);
        prop_assert_eq!(Uint::from_be_bytes(&fixed).unwrap(), a);
    }

    #[test]
    fn montgomery_round_trip(a in any::<u128>(), m in arb_odd_modulus()) {
        let ctx = MontCtx::new(&m).unwrap();
        let a_red = ctx.reduce(&Uint::from_u128(a));
        let mont = ctx.to_mont(&a_red);
        prop_assert_eq!(ctx.from_mont(&mont), a_red);
    }

    #[test]
    fn montgomery_mul_matches_reference(a in any::<u128>(), b in any::<u128>(), m in arb_odd_modulus()) {
        let ctx = MontCtx::new(&m).unwrap();
        let a_red = ctx.reduce(&Uint::from_u128(a));
        let b_red = ctx.reduce(&Uint::from_u128(b));
        let got = ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&a_red), &ctx.to_mont(&b_red)));
        let (lo, hi) = a_red.mul_wide(&b_red);
        let expect = Uint::rem_wide(&lo, &hi, &m).unwrap();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn montgomery_pow_small_exponents(a in 1u64..u64::MAX, e in 0u32..40, m in arb_odd_modulus()) {
        let ctx = MontCtx::new(&m).unwrap();
        let base = ctx.reduce(&Uint::from_u64(a));
        let got = ctx.from_mont(&ctx.mont_pow(&ctx.to_mont(&base), &Uint::from_u64(e as u64)));
        // Naive reference with repeated Montgomery multiplication.
        let base_m = ctx.to_mont(&base);
        let mut acc = ctx.one_mont();
        for _ in 0..e {
            acc = ctx.mont_mul(&acc, &base_m);
        }
        prop_assert_eq!(got, ctx.from_mont(&acc));
    }

    #[test]
    fn inversion_really_inverts(a in any::<u128>()) {
        // P-192's prime 2^192 − 2^64 − 1: every non-zero residue is invertible.
        let m = Uint::ONE.shl(192).wrapping_sub(&Uint::ONE.shl(64)).wrapping_sub(&Uint::ONE);
        let ctx = MontCtx::new(&m).unwrap();
        let a_red = ctx.reduce(&Uint::from_u128(a));
        prop_assume!(!a_red.is_zero());
        let a_mont = ctx.to_mont(&a_red);
        let inv_gcd = ctx.mont_inv(&a_mont).unwrap();
        // Fermat: a^(m − 2) is the inverse modulo the prime m.
        let inv_fermat = ctx.mont_pow(&a_mont, &m.wrapping_sub(&Uint::from_u64(2)));
        prop_assert_eq!(inv_gcd, inv_fermat);
        prop_assert!(ctx.from_mont(&ctx.mont_mul(&a_mont, &inv_gcd)).is_one());
    }

    #[test]
    fn gcd_divides_both(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != 0 && b != 0);
        let g = Uint::from_u64(a).gcd(&Uint::from_u64(b));
        prop_assert!(!g.is_zero());
        prop_assert!(Uint::from_u64(a).rem(&g).unwrap().is_zero());
        prop_assert!(Uint::from_u64(b).rem(&g).unwrap().is_zero());
        // Cross-check with the Euclidean gcd on native integers.
        let mut x = a;
        let mut y = b;
        while y != 0 {
            let t = x % y;
            x = y;
            y = t;
        }
        prop_assert_eq!(g, Uint::from_u64(x));
    }
}
