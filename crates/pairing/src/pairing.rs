//! The final exponentiation of the modified Tate pairing
//! `ê(P, Q) = e(P, φ(Q))` on the supersingular curve, and the signed-digit
//! recodings the pairing runs on.
//!
//! * `e` is the Tate pairing of order `q` computed with Miller's algorithm in
//!   the BKLS form: because the embedding degree is 2 and the second argument's
//!   x-coordinate `−x_Q` lies in the base field, every vertical-line factor is
//!   an element of `F_p^*` and is annihilated by the final exponentiation
//!   `(p² − 1)/q = (p − 1)·h`, so denominators are simply dropped.
//! * `φ(x, y) = (−x, i·y)` is the distortion map, which moves the second
//!   argument off the base-field subgroup and makes the pairing non-degenerate
//!   even when both inputs are the *same* point — giving the symmetric
//!   ("Type 1") pairing `ê : G × G → G_1` the paper requires.
//!
//! The one Miller loop is [`crate::precomp::PreparedPairing`]: it tabulates
//! the lines of a fixed first argument in Jacobian coordinates (no inversion
//! per step) and folds them at `φ(Q)`.  Every pairing — a single one, a
//! batch, a product — then reduces through `final_exponentiation_batch`,
//! a single pairing being a batch of one.  An independent affine Miller loop
//! with a plain `Fp2::pow` reduction lives in the test package
//! (`tibpre_tests::oracle`) as the reference every path is checked against.

use crate::error::PairingError;
use crate::fp::Fp;
use crate::fp2::Fp2;
use crate::Result;
use tibpre_bigint::Uint;

/// The final exponentiation `f ↦ f^{(p² − 1)/q}`, with `(p² − 1)/q` given
/// by the cofactor `h = (p + 1)/q`.
///
/// A batch of one through the crate's batched final exponentiation, which
/// the prepared pairing paths call directly with the parameter set's cached
/// recoding of `h`.
pub fn final_exponentiation(f: &Fp2, cofactor: &Uint) -> Result<Fp2> {
    let digits = wnaf_digits(cofactor, WNAF_WINDOW);
    let mut reduced = final_exponentiation_batch(core::slice::from_ref(f), &digits)?;
    Ok(reduced.remove(0))
}

/// The final exponentiation of every element of `fs`, given the cofactor
/// recoded into wNAF digits (`wnaf_digits(cofactor, WNAF_WINDOW)`), with
/// one shared field inversion for the whole slice.
///
/// The easy part `f^{p−1} = conj(f)·f^{−1}` uses that the Frobenius on
/// `F_{p²}` is conjugation.  It needs `f^{−1} = conj(f)·norm(f)^{−1}`, and the
/// base-field GCD inversion inside `norm(f)^{−1}` dominates it.  The batch
/// computes the k norms, inverts them with **one** GCD via
/// [`Fp::batch_invert`], and finishes each element as
/// `conj(f)²·norm(f)^{−1}`.
///
/// After the easy part every value lies in the norm-1 ("cyclotomic")
/// subgroup, where conjugation *is* inversion; the hard part, exponentiation
/// by the cofactor, therefore uses a signed-digit window (wNAF) whose
/// negative digits cost only a conjugation — about a third fewer
/// multiplications than plain square-and-multiply.  It stays per element;
/// it is all squarings and cheap conjugations.  Each output is exactly
/// `f^{(p²−1)/q}`, so a batch is element-wise bit-identical to batches of
/// one.
///
/// Fails with [`PairingError::NotInvertible`] if *any* input is zero (a
/// zero Miller value, impossible for well-formed curve inputs) — see
/// [`Fp::batch_invert`] for the zero-mid-batch semantics.
pub(crate) fn final_exponentiation_batch(fs: &[Fp2], cofactor_digits: &[i8]) -> Result<Vec<Fp2>> {
    if fs.is_empty() {
        return Ok(Vec::new());
    }
    for f in fs {
        if f.is_zero() {
            return Err(PairingError::NotInvertible);
        }
    }
    let norms: Vec<Fp> = fs.iter().map(|f| f.norm()).collect();
    let inv_norms = Fp::batch_invert(&norms)?;
    Ok(fs
        .iter()
        .zip(&inv_norms)
        .map(|(f, norm_inv)| {
            let conj = f.conjugate();
            let easy = conj.square().mul_fp(norm_inv);
            debug_assert!(easy.norm().is_one(), "f^(p-1) must have norm 1");
            cyclotomic_pow_wnaf(&easy, cofactor_digits)
        })
        .collect())
}

/// Width of the signed-digit window used for the cofactor exponentiation.
pub(crate) const WNAF_WINDOW: u32 = 4;

/// Exponentiation of a *norm-1* element by the exponent recoded as
/// width-[`WNAF_WINDOW`] wNAF digits.  Negative digits multiply by the
/// conjugate of a table entry, which is the inverse for norm-1 inputs — so
/// the whole exponentiation needs no field inversion and roughly `bits/5`
/// multiplies on top of the unavoidable squarings.
///
/// Produces exactly `base^exp` (the algorithm only re-associates the
/// product), so callers may treat it as a drop-in for [`Fp2::pow`].
fn cyclotomic_pow_wnaf(base: &Fp2, digits: &[i8]) -> Fp2 {
    // Odd powers base^1, base^3, …, base^(2^{w−1} − 1): the full wNAF digit
    // range.
    let base_sq = base.square();
    let mut odd_powers = Vec::with_capacity(1 << (WNAF_WINDOW - 2));
    odd_powers.push(base.clone());
    for i in 1..(1usize << (WNAF_WINDOW - 2)) {
        odd_powers.push(odd_powers[i - 1].mul(&base_sq));
    }
    let mut acc = Fp2::one(base.ctx());
    for &digit in digits.iter().rev() {
        acc = acc.square();
        if digit > 0 {
            acc = acc.mul(&odd_powers[digit.unsigned_abs() as usize / 2]);
        } else if digit < 0 {
            acc = acc.mul(&odd_powers[digit.unsigned_abs() as usize / 2].conjugate());
        }
    }
    acc
}

/// Width-`window` non-adjacent-form recoding: returns digits (least
/// significant first) in `{0, ±1, ±3, …, ±(2^{window−1} − 1)}` such that
/// `exp = Σ digits[i]·2^i`, with every non-zero digit odd and non-zero
/// digits at least `window − 1` positions apart.
///
/// `window = 2` gives the plain NAF (digits `±1`) used by the prepared
/// Miller loop's addition-subtraction chain; `window = 4` serves the
/// cofactor exponentiation.
pub(crate) fn wnaf_digits(exp: &Uint, window: u32) -> Vec<i8> {
    debug_assert!((2..=7).contains(&window));
    let mut digits = Vec::with_capacity(exp.bits() + 1);
    let mut e = *exp;
    let full = 1i16 << window;
    while !e.is_zero() {
        if e.is_odd() {
            // Centred remainder mod 2^window in (−2^{window−1}, 2^{window−1}].
            let rem = (e.limbs()[0] & ((1 << window) - 1)) as i16;
            let digit = if rem > full / 2 { rem - full } else { rem };
            digits.push(digit as i8);
            if digit < 0 {
                // e -= digit  (digit negative: add its magnitude).
                let (sum, _) = e.overflowing_add_u64(digit.unsigned_abs() as u64);
                e = sum;
            } else {
                e = e.wrapping_sub(&Uint::from_u64(digit as u64));
            }
        } else {
            digits.push(0);
        }
        e = e.shr1();
    }
    digits
}

#[cfg(test)]
mod tests {
    // The pairing itself (bilinearity, non-degeneracy, symmetry, degenerate
    // inputs) is tested in `params.rs`, `precomp.rs` and, against the
    // independent affine oracle, in the test package's `precomp_oracle`.
    // Here the final exponentiation is checked against a plain `Fp2::pow`,
    // and the Miller loop against that same oracle on random subgroup pairs.
    use super::*;
    use crate::fp::FpCtx;
    use crate::params::PairingParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn ctx() -> Arc<FpCtx> {
        FpCtx::new(&Uint::from_u128((1u128 << 127) - 1)).unwrap()
    }

    #[test]
    fn final_exponentiation_rejects_zero() {
        let c = ctx();
        let zero = Fp2::zero(&c);
        assert!(final_exponentiation(&zero, &Uint::from_u64(12)).is_err());
    }

    #[test]
    fn final_exponentiation_of_one_is_one() {
        let c = ctx();
        let one = Fp2::one(&c);
        let out = final_exponentiation(&one, &Uint::from_u64(123456)).unwrap();
        assert!(out.is_one());
    }

    /// The one Miller loop — inversion-free Jacobian steps over the NAF of
    /// `q`, tabulated, then the batched final exponentiation — must equal
    /// the affine textbook loop reduced by plain `Fp2::pow`.
    #[test]
    fn projective_miller_loop_matches_affine_oracle() {
        let pp = PairingParams::insecure_toy();
        let mut rng = StdRng::seed_from_u64(0x4A43);
        for _ in 0..5 {
            let a = pp.random_g1(&mut rng);
            let b = pp.random_g1(&mut rng);
            let projective = pp.prepare(&a).pairing(&b);
            assert_eq!(projective, crate::oracle::pairing(&pp, &a, &b));
            assert!(!projective.is_one(), "pairing must stay non-degenerate");
        }
        // Same-point input (the distortion map keeps ê(P, P) ≠ 1).
        let g = pp.generator();
        assert_eq!(pp.prepare(g).pairing(g), crate::oracle::pairing(&pp, g, g));
    }

    /// The batched easy part (one shared GCD inversion) must give every
    /// element exactly `f^{(p²−1)/q} = (f^{p−1})^h`, by plain `Fp2::pow`.
    #[test]
    fn batched_final_exponentiation_matches_per_element() {
        let pp = PairingParams::insecure_toy();
        let mut rng = StdRng::seed_from_u64(0x6B17);
        let digits = wnaf_digits(pp.cofactor(), WNAF_WINDOW);
        let p_minus_1 = pp.p().wrapping_sub(&Uint::ONE);
        let fs: Vec<Fp2> = (0..7)
            .map(|_| {
                let a = pp.random_g1(&mut rng);
                let b = pp.random_g1(&mut rng);
                pp.prepare(&a).miller_loop(&b)
            })
            .collect();
        let batched = final_exponentiation_batch(&fs, &digits).unwrap();
        assert_eq!(batched.len(), fs.len());
        for (f, out) in fs.iter().zip(&batched) {
            let individual = f.pow(&p_minus_1).pow(pp.cofactor());
            assert_eq!(out.to_bytes(), individual.to_bytes());
            assert_eq!(final_exponentiation(f, pp.cofactor()).unwrap(), individual);
        }
        // Empty batch and zero rejection.
        assert!(final_exponentiation_batch(&[], &digits).unwrap().is_empty());
        let with_zero = vec![fs[0].clone(), Fp2::zero(pp.fp_ctx())];
        assert!(final_exponentiation_batch(&with_zero, &digits).is_err());
    }

    /// The signed-digit cyclotomic exponentiation must agree with plain
    /// square-and-multiply on norm-1 bases for arbitrary exponents.
    #[test]
    fn cyclotomic_wnaf_pow_matches_plain_pow() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(0x77AF);
        for _ in 0..5 {
            let f = Fp2::random(&c, &mut rng);
            if f.is_zero() {
                continue;
            }
            // conj(f)/f always has norm 1.
            let base = f.conjugate().mul(&f.invert().unwrap());
            assert!(base.norm().is_one());
            for exp in [
                Uint::ZERO,
                Uint::ONE,
                Uint::from_u64(2),
                Uint::from_u64(0xDEAD_BEEF),
                Uint::from_u128(0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEFu128),
            ] {
                assert_eq!(
                    cyclotomic_pow_wnaf(&base, &wnaf_digits(&exp, WNAF_WINDOW)),
                    base.pow(&exp)
                );
            }
        }
    }

    /// Every wNAF digit sequence must re-encode the original exponent with
    /// odd digits bounded by the window.
    #[test]
    fn wnaf_recoding_is_faithful() {
        for window in [2u32, 4] {
            for exp in [0u64, 1, 2, 15, 16, 0xF0F0, 0xDEAD_BEEF_CAFE_F00D] {
                let digits = wnaf_digits(&Uint::from_u64(exp), window);
                let mut acc: i128 = 0;
                for (i, &d) in digits.iter().enumerate() {
                    assert!(d == 0 || (d % 2 != 0 && d.unsigned_abs() < 1 << (window - 1)));
                    acc += i128::from(d) << i;
                }
                assert_eq!(
                    acc,
                    i128::from(exp),
                    "digits must re-encode {exp} (w={window})"
                );
            }
        }
    }
}
