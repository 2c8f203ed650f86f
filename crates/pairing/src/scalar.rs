//! The scalar field `Z_q` where `q` is the prime order of the pairing groups.
//!
//! In the paper's notation the groups have prime order *p*; throughout this
//! workspace we call the group order `q` and reserve `p` for the field prime
//! of the curve, to avoid overloading the symbol.  Scalars are the exponents
//! of the scheme: the KGC master keys, encryption randomness `r`, and the
//! outputs of the paper's `H2` hash.

use crate::error::PairingError;
use crate::Result;
use rand::{CryptoRng, RngCore};
use std::sync::Arc;
use tibpre_bigint::random::{random_below, random_nonzero_below};
use tibpre_bigint::{MontCtx, Uint};

/// Shared context for the scalar field `Z_q`.
#[derive(Debug)]
pub struct ScalarCtx {
    mont: MontCtx,
    byte_len: usize,
}

impl ScalarCtx {
    /// Creates a scalar context for the prime group order `q`.
    pub fn new(q: &Uint) -> Result<Arc<Self>> {
        let mont = MontCtx::new(q)?;
        let byte_len = q.bits().div_ceil(8);
        Ok(Arc::new(ScalarCtx { mont, byte_len }))
    }

    /// The group order `q`.
    pub fn order(&self) -> &Uint {
        self.mont.modulus()
    }

    /// Length of the canonical byte encoding of one scalar.
    pub fn byte_len(&self) -> usize {
        self.byte_len
    }
}

/// An element of `Z_q` (Montgomery form internally).
#[derive(Clone)]
pub struct Scalar {
    ctx: Arc<ScalarCtx>,
    mont_repr: Uint,
}

impl Scalar {
    /// The additive identity.
    pub fn zero(ctx: &Arc<ScalarCtx>) -> Self {
        Scalar {
            ctx: Arc::clone(ctx),
            mont_repr: Uint::ZERO,
        }
    }

    /// The multiplicative identity.
    pub fn one(ctx: &Arc<ScalarCtx>) -> Self {
        Scalar {
            ctx: Arc::clone(ctx),
            mont_repr: ctx.mont.one_mont(),
        }
    }

    /// Constructs a scalar from an arbitrary integer (reduced modulo `q`).
    pub fn from_uint(ctx: &Arc<ScalarCtx>, value: &Uint) -> Self {
        let reduced = ctx.mont.reduce(value);
        Scalar {
            ctx: Arc::clone(ctx),
            mont_repr: ctx.mont.to_mont(&reduced),
        }
    }

    /// Constructs a scalar from a small integer.
    pub fn from_u64(ctx: &Arc<ScalarCtx>, value: u64) -> Self {
        Self::from_uint(ctx, &Uint::from_u64(value))
    }

    /// Samples a uniformly random scalar (possibly zero).
    pub fn random<R: RngCore + CryptoRng>(ctx: &Arc<ScalarCtx>, rng: &mut R) -> Self {
        Self::from_uint(ctx, &random_below(rng, ctx.order()))
    }

    /// Samples a uniformly random *non-zero* scalar, as required for
    /// encryption randomness and master keys (`r, α ∈ Z_q^*`).
    pub(crate) fn random_nonzero<R: RngCore + CryptoRng>(
        ctx: &Arc<ScalarCtx>,
        rng: &mut R,
    ) -> Self {
        Self::from_uint(ctx, &random_nonzero_below(rng, ctx.order()))
    }

    /// The plain integer representative in `[0, q)`.
    pub fn to_uint(&self) -> Uint {
        self.ctx.mont.from_mont(&self.mont_repr)
    }

    /// The scalar context.
    pub fn ctx(&self) -> &Arc<ScalarCtx> {
        &self.ctx
    }

    /// Returns `true` for the additive identity.
    pub fn is_zero(&self) -> bool {
        self.mont_repr.is_zero()
    }

    /// Addition modulo `q`.
    pub fn add(&self, other: &Scalar) -> Scalar {
        Scalar {
            ctx: Arc::clone(&self.ctx),
            mont_repr: self.ctx.mont.add(&self.mont_repr, &other.mont_repr),
        }
    }

    /// Subtraction modulo `q`.
    pub fn sub(&self, other: &Scalar) -> Scalar {
        Scalar {
            ctx: Arc::clone(&self.ctx),
            mont_repr: self.ctx.mont.sub(&self.mont_repr, &other.mont_repr),
        }
    }

    /// Negation modulo `q`.
    pub fn neg(&self) -> Scalar {
        Scalar {
            ctx: Arc::clone(&self.ctx),
            mont_repr: self.ctx.mont.neg(&self.mont_repr),
        }
    }

    /// Multiplication modulo `q`.
    pub fn mul(&self, other: &Scalar) -> Scalar {
        Scalar {
            ctx: Arc::clone(&self.ctx),
            mont_repr: self.ctx.mont.mont_mul(&self.mont_repr, &other.mont_repr),
        }
    }

    /// Multiplicative inverse modulo `q`.  Fails for zero.
    pub fn invert(&self) -> Result<Scalar> {
        let inv = self
            .ctx
            .mont
            .mont_inv(&self.mont_repr)
            .map_err(|_| PairingError::NotInvertible)?;
        Ok(Scalar {
            ctx: Arc::clone(&self.ctx),
            mont_repr: inv,
        })
    }

    /// Canonical fixed-length big-endian encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_uint()
            .to_be_bytes(self.ctx.byte_len)
            .expect("reduced scalar always fits")
    }

    /// Decodes the canonical encoding (rejects non-reduced values).
    pub fn from_bytes(ctx: &Arc<ScalarCtx>, bytes: &[u8]) -> Result<Scalar> {
        if bytes.len() != ctx.byte_len {
            return Err(PairingError::InvalidEncoding("wrong scalar length"));
        }
        let value = Uint::from_be_bytes(bytes)
            .map_err(|_| PairingError::InvalidEncoding("scalar does not parse"))?;
        if &value >= ctx.order() {
            return Err(PairingError::InvalidEncoding("scalar not reduced modulo q"));
        }
        Ok(Scalar::from_uint(ctx, &value))
    }
}

impl PartialEq for Scalar {
    fn eq(&self, other: &Self) -> bool {
        self.mont_repr == other.mont_repr && self.ctx.order() == other.ctx.order()
    }
}

impl Eq for Scalar {}

impl core::fmt::Debug for Scalar {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Scalar(0x{})", self.to_uint().to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> Arc<ScalarCtx> {
        // A 61-bit Mersenne prime keeps reference computation easy.
        ScalarCtx::new(&Uint::from_u64((1u64 << 61) - 1)).unwrap()
    }

    #[test]
    fn arithmetic_matches_u128_reference() {
        let q = (1u128 << 61) - 1;
        let c = ctx();
        let a = 0x0123_4567_89AB_CDEF_u64;
        let b = 0x00FE_DCBA_9876_5432_u64;
        let sa = Scalar::from_u64(&c, a);
        let sb = Scalar::from_u64(&c, b);
        assert_eq!(
            sa.add(&sb).to_uint(),
            Uint::from_u128((a as u128 + b as u128) % q)
        );
        assert_eq!(
            sa.mul(&sb).to_uint(),
            Uint::from_u128((a as u128 * b as u128) % q)
        );
        assert_eq!(
            sa.sub(&sb).to_uint(),
            Uint::from_u128((a as u128 + q - b as u128) % q)
        );
        assert_eq!(sa.neg().to_uint(), Uint::from_u128(q - a as u128));
    }

    #[test]
    fn inversion_and_identities() {
        let c = ctx();
        let a = Scalar::from_u64(&c, 987_654_321);
        let inv = a.invert().unwrap();
        assert_eq!(a.mul(&inv), Scalar::one(&c));
        assert!(Scalar::zero(&c).invert().is_err());
        assert_eq!(a.add(&Scalar::zero(&c)), a);
        assert_eq!(a.mul(&Scalar::one(&c)), a);
    }

    #[test]
    fn random_nonzero_is_nonzero() {
        let c = ctx();
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            assert!(!Scalar::random_nonzero(&c, &mut r).is_zero());
        }
    }

    #[test]
    fn byte_round_trip_and_validation() {
        let c = ctx();
        let a = Scalar::from_u64(&c, 0xDEADBEEF);
        let bytes = a.to_bytes();
        assert_eq!(bytes.len(), c.byte_len());
        assert_eq!(Scalar::from_bytes(&c, &bytes).unwrap(), a);
        assert!(Scalar::from_bytes(&c, &bytes[1..]).is_err());
        let order_bytes = c.order().to_be_bytes(c.byte_len()).unwrap();
        assert!(Scalar::from_bytes(&c, &order_bytes).is_err());
    }

    #[test]
    fn reduction_on_construction() {
        let c = ctx();
        let q = c.order();
        let big = q.wrapping_add(&Uint::from_u64(5));
        assert_eq!(Scalar::from_uint(&c, &big), Scalar::from_u64(&c, 5));
    }

    #[test]
    fn a_four_limb_field_multiplies_and_inverts() {
        // 2^255 − 19: a prime as wide as the 112- and 128-bit levels' q.
        let q = Uint::ONE.shl(255).wrapping_sub(&Uint::from_u64(19));
        let c = ScalarCtx::new(&q).unwrap();
        let mut r = StdRng::seed_from_u64(4);
        let mut values: Vec<Scalar> = (0..6).map(|_| Scalar::random_nonzero(&c, &mut r)).collect();
        values.push(Scalar::one(&c));
        values.push(Scalar::from_uint(&c, &q.wrapping_sub(&Uint::ONE)));
        for a in &values {
            for b in &values {
                let (lo, hi) = a.to_uint().mul_wide(&b.to_uint());
                assert_eq!(a.mul(b).to_uint(), Uint::rem_wide(&lo, &hi, &q).unwrap());
            }
            // Fermat: a^(q − 2) by square-and-multiply.
            let e = q.wrapping_sub(&Uint::from_u64(2));
            let fermat = (0..e.bits()).rev().fold(Scalar::one(&c), |acc, i| {
                let acc = acc.mul(&acc);
                if e.bit(i) {
                    acc.mul(a)
                } else {
                    acc
                }
            });
            assert_eq!(a.invert().unwrap(), fermat);
        }
    }
}
