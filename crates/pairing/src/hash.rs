//! Hash-to-scalar and hash-to-curve random oracles.
//!
//! These instantiate the paper's `H1 : {0,1}* → G` and `H2 : {0,1}* → Z_q^*`
//! (and the auxiliary oracles the scheme layers need) from the SHAKE-256 based
//! domain-separated hasher of `tibpre-hash`:
//!
//! * **hash-to-scalar** — squeeze `len(q) + 16` bytes and
//!   reduce; the 128 extra bits make the reduction bias negligible.
//! * **hash-to-curve** — try-and-increment: derive candidate x-coordinates
//!   from `(domain, message, counter)`, pick the first one on the curve, fix
//!   the sign of `y` with one more hash bit, and multiply by the cofactor to
//!   land in the order-`q` subgroup.  This is the `MapToPoint` approach of the
//!   original Boneh–Franklin paper adapted to the curve `y² = x³ + x`.

use crate::curve::G1Affine;
use crate::error::PairingError;
use crate::fp::Fp;
use crate::params::PairingParams;
use crate::scalar::{Scalar, ScalarCtx};
use crate::Result;
use std::sync::Arc;
use tibpre_bigint::Uint;
use tibpre_hash::DomainSeparatedHasher;

/// Iteration budget for the try-and-increment loops.
const HASH_TO_CURVE_BUDGET: u64 = 1000;

/// Hashes the given fields into `Z_q^*` (never returns zero).
///
/// This is the paper's `H2` when invoked with the `"TIBPRE-H2"` domain.
pub fn hash_to_scalar(ctx: &Arc<ScalarCtx>, domain: &str, fields: &[&[u8]]) -> Scalar {
    let out_len = ctx.byte_len() + 16;
    for counter in 0..HASH_TO_CURVE_BUDGET {
        let mut hasher = DomainSeparatedHasher::new(domain);
        for f in fields {
            hasher.absorb(f);
        }
        hasher.absorb_u64(counter);
        let bytes = hasher.finalize(out_len);
        let wide = Uint::from_be_bytes(&bytes).expect("output fits the Uint capacity");
        let reduced = wide.rem(ctx.order()).expect("order is non-zero");
        if !reduced.is_zero() {
            return Scalar::from_uint(ctx, &reduced);
        }
    }
    // The probability of reaching this point is ~ q^{-1000}; treat it as
    // logically unreachable rather than plumbing an error everywhere.
    unreachable!("hash_to_scalar failed to find a non-zero value")
}

/// Hashes the given fields onto the order-`q` subgroup of the curve.
///
/// This is the paper's `H1` when invoked with the `"TIBPRE-H1"` domain.
pub fn hash_to_curve(params: &PairingParams, domain: &str, fields: &[&[u8]]) -> Result<G1Affine> {
    let ctx = params.fp_ctx();
    for counter in 0..HASH_TO_CURVE_BUDGET {
        let mut hasher = DomainSeparatedHasher::new(domain);
        for f in fields {
            hasher.absorb(f);
        }
        hasher.absorb_u64(counter);
        // One extra byte decides the sign of y.
        let bytes = hasher.finalize(ctx.byte_len() + 17);
        let (sign_byte, x_bytes) = bytes.split_first().expect("non-empty output");
        let wide = Uint::from_be_bytes(x_bytes).expect("output fits the Uint capacity");
        let x = Fp::from_uint(ctx, &wide.rem(ctx.modulus())?);
        // y² = x³ + x
        let rhs = &x.square().mul(&x) + &x;
        let Some(y) = rhs.sqrt() else {
            continue;
        };
        let y = if (sign_byte & 1) == 1 { y.neg() } else { y };
        if x.is_zero() && y.is_zero() {
            // The 2-torsion point maps to the identity after cofactor clearing.
            continue;
        }
        let point = G1Affine::new_unchecked(x, y);
        // Clear the cofactor to land in the order-q subgroup.
        let in_subgroup = point.mul_uint(params.cofactor());
        if in_subgroup.is_identity() {
            continue;
        }
        debug_assert!(in_subgroup.is_on_curve());
        debug_assert!(in_subgroup.is_in_subgroup(params.q()));
        return Ok(in_subgroup);
    }
    Err(PairingError::HashToGroupFailed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SecurityLevel;
    use tibpre_bigint::Uint;

    fn scalar_ctx() -> Arc<ScalarCtx> {
        ScalarCtx::new(&Uint::from_u64((1u64 << 61) - 1)).unwrap()
    }

    /// `hash_to_curve` reads `byte_len(p) + 16` squeezed bytes as one
    /// `Uint`, so `MAX_LIMBS` must hold them at every level: 26 limbs at
    /// 128 bits, one more than the widest prime's 24 + 1.
    #[test]
    fn every_level_squeezes_an_x_candidate_that_fits_a_uint() {
        for level in SecurityLevel::all() {
            let bits = (level.p_bits() / 8 + 16) * 8;
            assert!(
                bits <= tibpre_bigint::MAX_BITS,
                "{level:?}: {bits} bits per x-candidate"
            );
        }
    }

    #[test]
    fn hash_to_scalar_is_nonzero_and_reduced() {
        let c = scalar_ctx();
        for i in 0..50u64 {
            let s = hash_to_scalar(&c, "H2", &[&i.to_be_bytes()]);
            assert!(!s.is_zero());
            assert!(&s.to_uint() < c.order());
        }
    }

    #[test]
    fn hash_to_scalar_field_separation() {
        let c = scalar_ctx();
        let a = hash_to_scalar(&c, "H2", &[b"ab", b"c"]);
        let b = hash_to_scalar(&c, "H2", &[b"a", b"bc"]);
        assert_ne!(a, b);
    }

    // hash_to_curve needs full pairing parameters; its tests live in params.rs
    // and the crate integration tests.
}
