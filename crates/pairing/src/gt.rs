//! The pairing target group `G_1` of the paper (written `Gt` here).
//!
//! `Gt` is the order-`q` subgroup of `F_{p²}^*` that the reduced Tate pairing
//! maps into.  Because `q | p + 1`, the Frobenius (= conjugation) acts as
//! inversion on this subgroup, which gives a very cheap inverse.

use crate::error::PairingError;
use crate::fp::FpCtx;
use crate::fp2::Fp2;
use crate::scalar::Scalar;
use crate::Result;
use std::sync::Arc;
use tibpre_bigint::Uint;

/// An element of the pairing target group (order-`q` subgroup of `F_{p²}^*`).
#[derive(Clone, PartialEq, Eq)]
pub struct Gt {
    value: Fp2,
}

impl Gt {
    /// Wraps a raw `F_{p²}` value *without* checking subgroup membership.
    ///
    /// Only the pairing and deserialisation-with-validation paths should call
    /// this; it is exposed crate-internally and to the scheme layers through
    /// [`Gt::from_fp2_unchecked`].
    pub fn from_fp2_unchecked(value: Fp2) -> Self {
        Gt { value }
    }

    /// The multiplicative identity.
    pub fn one(ctx: &Arc<FpCtx>) -> Self {
        Gt {
            value: Fp2::one(ctx),
        }
    }

    /// The underlying `F_{p²}` value.
    pub fn as_fp2(&self) -> &Fp2 {
        &self.value
    }

    /// Returns `true` for the identity.
    pub fn is_one(&self) -> bool {
        self.value.is_one()
    }

    /// Group operation (multiplication in `F_{p²}`).
    pub fn mul(&self, other: &Gt) -> Gt {
        Gt {
            value: self.value.mul(&other.value),
        }
    }

    /// Division: `self · other^{-1}`.
    pub fn div(&self, other: &Gt) -> Result<Gt> {
        Ok(self.mul(&other.invert()?))
    }

    /// Inversion.
    ///
    /// For genuine subgroup elements the conjugate *is* the inverse (because
    /// `p ≡ −1 (mod q)`), but to stay correct on unchecked values this method
    /// performs a real field inversion; the conjugate fast path is used only
    /// when it verifies.
    pub fn invert(&self) -> Result<Gt> {
        if self.value.is_zero() {
            return Err(PairingError::NotInvertible);
        }
        let conj = self.value.conjugate();
        if self.value.mul(&conj).is_one() {
            return Ok(Gt { value: conj });
        }
        Ok(Gt {
            value: self.value.invert()?,
        })
    }

    /// Exponentiation by an arbitrary integer.
    pub fn pow(&self, exp: &Uint) -> Gt {
        Gt {
            value: self.value.pow(exp),
        }
    }

    /// Exponentiation by a scalar in `Z_q`.
    pub fn pow_scalar(&self, exp: &Scalar) -> Gt {
        self.pow(&exp.to_uint())
    }

    /// Checks membership in the order-`q` subgroup (`self^q = 1`).
    pub fn is_in_subgroup(&self, order: &Uint) -> bool {
        !self.value.is_zero() && self.pow(order).is_one()
    }

    /// Canonical byte encoding (the encoding of the underlying `F_{p²}` value).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.value.to_bytes()
    }

    /// Decodes an element and validates subgroup membership.
    pub fn from_bytes(ctx: &Arc<FpCtx>, order: &Uint, bytes: &[u8]) -> Result<Gt> {
        let value = Fp2::from_bytes(ctx, bytes)?;
        let gt = Gt { value };
        if !gt.is_in_subgroup(order) {
            return Err(PairingError::NotInSubgroup);
        }
        Ok(gt)
    }
}

impl core::fmt::Debug for Gt {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Gt({:?})", self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::Fp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> Arc<FpCtx> {
        // P-192's 2^192 − 2^64 − 1 ≡ 3 (mod 4), prime, three limbs.
        FpCtx::new(&Uint::from_hex("fffffffffffffffffffffffffffffffeffffffffffffffff").unwrap())
            .unwrap()
    }

    #[test]
    fn identity_and_multiplication() {
        let c = ctx();
        let one = Gt::one(&c);
        assert!(one.is_one());
        assert_eq!(one.mul(&one), one);
        assert!(one.invert().unwrap().is_one());
        assert!(one.pow(&Uint::from_u64(1234)).is_one());
    }

    #[test]
    fn inversion_of_general_values() {
        // Even non-subgroup values must invert correctly (safe fallback path).
        let c = ctx();
        let mut r = StdRng::seed_from_u64(5);
        let raw = Fp2::random(&c, &mut r);
        let gt = Gt::from_fp2_unchecked(raw);
        let inv = gt.invert().unwrap();
        assert!(gt.mul(&inv).is_one());
    }

    #[test]
    fn zero_is_not_invertible() {
        let c = ctx();
        let zero = Gt::from_fp2_unchecked(Fp2::zero(&c));
        assert!(zero.invert().is_err());
        assert!(!zero.is_in_subgroup(&Uint::from_u64(7)));
    }

    #[test]
    fn the_order_two_torus_element_behaves() {
        // (−1, 0) is the unique order-2 element of F_{p²}^*: its own inverse
        // (via the conjugate fast path — it lies on the norm-1 torus) and a
        // member of exactly the even-order subgroups.
        let c = ctx();
        let g = Gt::from_fp2_unchecked(Fp2::new(Fp::one(&c).neg(), Fp::zero(&c)));
        assert!(!g.is_one());
        assert!(g.mul(&g).is_one());
        assert_eq!(g.invert().unwrap(), g);
        assert!(g.is_in_subgroup(&Uint::from_u64(2)));
        assert!(g.is_in_subgroup(&Uint::from_u64(8)));
        assert!(!g.is_in_subgroup(&Uint::from_u64(7)));
    }

    #[test]
    fn pow_behaves_like_repeated_multiplication() {
        let c = ctx();
        let mut r = StdRng::seed_from_u64(6);
        let g = Gt::from_fp2_unchecked(Fp2::random(&c, &mut r));
        let mut acc = Gt::one(&c);
        for k in 0u64..8 {
            assert_eq!(g.pow(&Uint::from_u64(k)), acc, "k = {k}");
            acc = acc.mul(&g);
        }
    }

    #[test]
    fn byte_round_trip_through_the_wire_codec() {
        // The unchecked decode path now lives behind the `WireDecode` impl
        // (`tibpre_wire::decode_bare`); the legacy `from_bytes_unchecked`
        // public bypass is gone.
        let c = ctx();
        let mut r = StdRng::seed_from_u64(7);
        let g = Gt::from_fp2_unchecked(Fp2::random(&c, &mut r));
        let bytes = g.to_bytes();
        use tibpre_wire::WireVersion;
        assert_eq!(
            tibpre_wire::decode_bare::<Gt>(&bytes, WireVersion::V0, &c).unwrap(),
            g
        );
        assert!(tibpre_wire::decode_bare::<Gt>(&bytes[1..], WireVersion::V0, &c).is_err());
    }

    #[test]
    fn subgroup_check_rejects_random_values() {
        // A random Fp2 element is in the tiny order-7 "subgroup" only with
        // negligible probability.
        let c = ctx();
        let mut r = StdRng::seed_from_u64(8);
        let g = Gt::from_fp2_unchecked(Fp2::random(&c, &mut r));
        assert!(!g.is_in_subgroup(&Uint::from_u64(7)));
        let bytes = g.to_bytes();
        assert!(Gt::from_bytes(&c, &Uint::from_u64(7), &bytes).is_err());
        // The identity is in every subgroup.
        assert!(Gt::one(&c).is_in_subgroup(&Uint::from_u64(7)));
        let _ = Fp::one(&c); // silence unused-import lint paths in some configs
    }
}
