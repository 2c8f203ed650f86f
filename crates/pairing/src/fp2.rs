//! The quadratic extension `F_{p²} = F_p[i] / (i² + 1)`.
//!
//! Because the field prime satisfies `p ≡ 3 (mod 4)`, `−1` is a non-residue
//! and the polynomial `i² + 1` is irreducible.  The Frobenius endomorphism is
//! plain conjugation, which the final exponentiation of the Tate pairing
//! exploits: `z^p = conj(z)`.

use crate::error::PairingError;
use crate::fp::{Fp, FpCtx};
use crate::Result;
use rand::{CryptoRng, RngCore};
use std::sync::Arc;
use tibpre_bigint::Uint;

/// An element `c0 + c1·i` of `F_{p²}`.
#[derive(Clone, PartialEq, Eq)]
pub struct Fp2 {
    /// The coefficient of 1.
    pub c0: Fp,
    /// The coefficient of `i`.
    pub c1: Fp,
}

impl Fp2 {
    /// Constructs an element from its two coefficients.
    pub fn new(c0: Fp, c1: Fp) -> Self {
        Fp2 { c0, c1 }
    }

    /// The additive identity.
    pub fn zero(ctx: &Arc<FpCtx>) -> Self {
        Fp2 {
            c0: Fp::zero(ctx),
            c1: Fp::zero(ctx),
        }
    }

    /// The multiplicative identity.
    pub fn one(ctx: &Arc<FpCtx>) -> Self {
        Fp2 {
            c0: Fp::one(ctx),
            c1: Fp::zero(ctx),
        }
    }

    /// Embeds a base-field element.
    pub(crate) fn from_fp(value: Fp) -> Self {
        let zero = Fp::zero(value.ctx());
        Fp2 {
            c0: value,
            c1: zero,
        }
    }

    /// The imaginary unit `i`.
    pub fn i(ctx: &Arc<FpCtx>) -> Self {
        Fp2 {
            c0: Fp::zero(ctx),
            c1: Fp::one(ctx),
        }
    }

    /// Samples a uniformly random element.
    pub fn random<R: RngCore + CryptoRng>(ctx: &Arc<FpCtx>, rng: &mut R) -> Self {
        Fp2 {
            c0: Fp::random(ctx, rng),
            c1: Fp::random(ctx, rng),
        }
    }

    /// The field context of the coefficients.
    pub fn ctx(&self) -> &Arc<FpCtx> {
        self.c0.ctx()
    }

    /// Returns `true` for the additive identity.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    /// Returns `true` for the multiplicative identity.
    pub fn is_one(&self) -> bool {
        self.c0.is_one() && self.c1.is_zero()
    }

    /// Addition.
    pub fn add(&self, other: &Fp2) -> Fp2 {
        Fp2 {
            c0: &self.c0 + &other.c0,
            c1: &self.c1 + &other.c1,
        }
    }

    /// Subtraction.
    pub fn sub(&self, other: &Fp2) -> Fp2 {
        Fp2 {
            c0: &self.c0 - &other.c0,
            c1: &self.c1 - &other.c1,
        }
    }

    /// Negation.
    pub fn neg(&self) -> Fp2 {
        Fp2 {
            c0: self.c0.neg(),
            c1: self.c1.neg(),
        }
    }

    /// Multiplication: `(a0 + a1 i)(b0 + b1 i) = (a0 b0 − a1 b1) + (a0 b1 + a1 b0) i`.
    ///
    /// Lazy-reduction schoolbook: each output coefficient accumulates its
    /// two cross products into one stack buffer and reduces it once (two
    /// Montgomery reductions total) instead of once per base-field
    /// multiplication.  Karatsuba does not compose
    /// with lazy reduction — its `(a0+a1)(b0+b1) − a0b0 − a1b1` cross term
    /// needs the *reduced* partial products — which is why the strict
    /// oracle in the test suites keeps that shape.  Results are
    /// bit-identical to the oracle.
    pub fn mul(&self, other: &Fp2) -> Fp2 {
        Fp2 {
            c0: Fp::mul_sub(&self.c0, &other.c0, &self.c1, &other.c1),
            c1: Fp::sum_of_products(&[(&self.c0, &other.c1), (&self.c1, &other.c0)]),
        }
    }

    /// Squaring: `(a0 + a1 i)² = (a0+a1)(a0−a1) + 2 a0 a1 i`.
    ///
    /// Stays on the strict two-multiplication form: lazy schoolbook for a
    /// square costs three wide products plus two deferred reductions,
    /// which is strictly more limb work than these two reduced products —
    /// the lazy win exists only where the naive form needs ≥ 4 products
    /// ([`Self::mul`], the fused line evaluations).
    pub fn square(&self) -> Fp2 {
        let plus = &self.c0 + &self.c1;
        let minus = &self.c0 - &self.c1;
        let cross = &self.c0 * &self.c1;
        Fp2 {
            c0: &plus * &minus,
            c1: cross.double(),
        }
    }

    /// Complex conjugation `a0 − a1 i`, which equals the Frobenius map `z ↦ z^p`.
    pub(crate) fn conjugate(&self) -> Fp2 {
        Fp2 {
            c0: self.c0.clone(),
            c1: self.c1.neg(),
        }
    }

    /// The norm `a0² + a1²` (an element of `F_p`).
    pub fn norm(&self) -> Fp {
        &self.c0.square() + &self.c1.square()
    }

    /// Multiplicative inverse via the norm map.  Fails for zero.
    pub fn invert(&self) -> Result<Fp2> {
        if self.is_zero() {
            return Err(PairingError::NotInvertible);
        }
        let norm_inv = self.norm().invert()?;
        Ok(Fp2 {
            c0: &self.c0 * &norm_inv,
            c1: &self.c1.neg() * &norm_inv,
        })
    }

    /// Exponentiation by an arbitrary integer exponent (square-and-multiply).
    pub fn pow(&self, exp: &Uint) -> Fp2 {
        let bits = exp.bits();
        let mut acc = Fp2::one(self.ctx());
        if bits == 0 {
            return acc;
        }
        for i in (0..bits).rev() {
            acc = acc.square();
            if exp.bit(i) {
                acc = acc.mul(self);
            }
        }
        acc
    }

    /// Canonical encoding `c0 || c1` (fixed length).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.c0.to_bytes();
        out.extend(self.c1.to_bytes());
        out
    }

    /// Decodes the canonical encoding.
    pub fn from_bytes(ctx: &Arc<FpCtx>, bytes: &[u8]) -> Result<Fp2> {
        let field_len = ctx.byte_len();
        if bytes.len() != 2 * field_len {
            return Err(PairingError::InvalidEncoding("wrong Fp2 length"));
        }
        Ok(Fp2 {
            c0: Fp::from_bytes(ctx, &bytes[..field_len])?,
            c1: Fp::from_bytes(ctx, &bytes[field_len..])?,
        })
    }
}

impl core::fmt::Debug for Fp2 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fp2({:?} + {:?}·i)", self.c0, self.c1)
    }
}

macro_rules! impl_fp2_binop {
    ($trait:ident, $method:ident, $inner:ident) => {
        impl core::ops::$trait<&Fp2> for &Fp2 {
            type Output = Fp2;
            fn $method(self, rhs: &Fp2) -> Fp2 {
                Fp2::$inner(self, rhs)
            }
        }
        impl core::ops::$trait<Fp2> for Fp2 {
            type Output = Fp2;
            fn $method(self, rhs: Fp2) -> Fp2 {
                Fp2::$inner(&self, &rhs)
            }
        }
    };
}

impl_fp2_binop!(Add, add, add);
impl_fp2_binop!(Sub, sub, sub);
impl_fp2_binop!(Mul, mul, mul);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> Arc<FpCtx> {
        // P-192's 2^192 − 2^64 − 1 ≡ 3 (mod 4), prime, three limbs.
        FpCtx::new(&Uint::from_hex("fffffffffffffffffffffffffffffffeffffffffffffffff").unwrap())
            .unwrap()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn i_squared_is_minus_one() {
        let c = ctx();
        let i = Fp2::i(&c);
        let minus_one = Fp2::from_fp(Fp::one(&c).neg());
        assert_eq!(i.square(), minus_one);
        assert_eq!(i.mul(&i), minus_one);
    }

    #[test]
    fn field_axioms_spot_checks() {
        let c = ctx();
        let mut r = rng();
        for _ in 0..20 {
            let a = Fp2::random(&c, &mut r);
            let b = Fp2::random(&c, &mut r);
            let d = Fp2::random(&c, &mut r);
            // Commutativity and associativity.
            assert_eq!(a.add(&b), b.add(&a));
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&b).mul(&d), a.mul(&b.mul(&d)));
            // Distributivity.
            assert_eq!(a.mul(&b.add(&d)), a.mul(&b).add(&a.mul(&d)));
            // Identities.
            assert_eq!(a.add(&Fp2::zero(&c)), a);
            assert_eq!(a.mul(&Fp2::one(&c)), a);
            // Squaring consistency.
            assert_eq!(a.square(), a.mul(&a));
            // Negation.
            assert!(a.add(&a.neg()).is_zero());
        }
    }

    #[test]
    fn inversion_round_trip() {
        let c = ctx();
        let mut r = rng();
        for _ in 0..10 {
            let a = Fp2::random(&c, &mut r);
            if a.is_zero() {
                continue;
            }
            let inv = a.invert().unwrap();
            assert!(a.mul(&inv).is_one());
        }
        assert!(Fp2::zero(&c).invert().is_err());
    }

    #[test]
    fn conjugation_is_frobenius() {
        let c = ctx();
        let mut r = rng();
        let a = Fp2::random(&c, &mut r);
        // z^p == conj(z)
        assert_eq!(a.pow(c.modulus()), a.conjugate());
        // conj(conj(z)) == z and conj is multiplicative.
        assert_eq!(a.conjugate().conjugate(), a);
        let b = Fp2::random(&c, &mut r);
        assert_eq!(a.mul(&b).conjugate(), a.conjugate().mul(&b.conjugate()));
    }

    #[test]
    fn norm_is_multiplicative() {
        let c = ctx();
        let mut r = rng();
        let a = Fp2::random(&c, &mut r);
        let b = Fp2::random(&c, &mut r);
        assert_eq!(a.mul(&b).norm(), &a.norm() * &b.norm());
        // norm(z) = z * conj(z)
        assert_eq!(Fp2::from_fp(a.norm()), a.mul(&a.conjugate()));
    }

    #[test]
    fn pow_edge_cases() {
        let c = ctx();
        let mut r = rng();
        let a = Fp2::random(&c, &mut r);
        assert!(a.pow(&Uint::ZERO).is_one());
        assert_eq!(a.pow(&Uint::ONE), a);
        assert_eq!(a.pow(&Uint::from_u64(2)), a.square());
        assert_eq!(a.pow(&Uint::from_u64(5)), a.square().square().mul(&a));
        // Lagrange: the multiplicative group has order p² − 1.
        let p = c.modulus();
        let (lo, hi) = p.mul_wide(p);
        assert!(hi.is_zero());
        let group_order = lo.wrapping_sub(&Uint::ONE);
        assert!(a.pow(&group_order).is_one() || a.is_zero());
    }

    #[test]
    fn byte_round_trip() {
        let c = ctx();
        let mut r = rng();
        let a = Fp2::random(&c, &mut r);
        let bytes = a.to_bytes();
        assert_eq!(bytes.len(), 2 * c.byte_len());
        assert_eq!(Fp2::from_bytes(&c, &bytes).unwrap(), a);
        assert!(Fp2::from_bytes(&c, &bytes[1..]).is_err());
    }

    /// Strict-reduction Karatsuba multiplication (3 base-field
    /// multiplications, every product reduced immediately): the oracle the
    /// lazy [`Fp2::mul`] is bit-identical to.
    fn mul_strict(a: &Fp2, b: &Fp2) -> Fp2 {
        let a0b0 = &a.c0 * &b.c0;
        let a1b1 = &a.c1 * &b.c1;
        let cross = &(&(&a.c0 + &a.c1) * &(&b.c0 + &b.c1)) - &(&a0b0 + &a1b1);
        Fp2::new(&a0b0 - &a1b1, cross)
    }

    #[test]
    fn lazy_mul_is_bit_identical_to_strict_karatsuba() {
        let c = ctx();
        let mut r = rng();
        // Random operands plus the adversarial corners: zero, one, i,
        // near-p coefficients, and all-ones-limb coefficients.
        let near_p = Fp::from_uint(&c, &c.modulus().wrapping_sub(&Uint::ONE));
        let ones = Fp::from_uint(&c, &Uint::from_u128(u128::MAX));
        let mut cases = vec![
            Fp2::zero(&c),
            Fp2::one(&c),
            Fp2::i(&c),
            Fp2::new(near_p.clone(), near_p.clone()),
            Fp2::new(ones.clone(), near_p),
        ];
        for _ in 0..20 {
            cases.push(Fp2::random(&c, &mut r));
        }
        for a in &cases {
            for b in &cases {
                let strict = mul_strict(a, b);
                assert_eq!(a.mul(b).to_bytes(), strict.to_bytes());
            }
        }
    }

    #[test]
    fn mul_fp_matches_embedding() {
        let c = ctx();
        let mut r = rng();
        let a = Fp2::random(&c, &mut r);
        let k = Fp::from_u64(&c, 12345);
        let scaled = Fp2 {
            c0: &a.c0 * &k,
            c1: &a.c1 * &k,
        };
        assert_eq!(a.mul(&Fp2::from_fp(k)), scaled);
    }
}
