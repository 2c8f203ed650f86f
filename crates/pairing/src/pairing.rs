//! The final exponentiation of the modified Tate pairing
//! `ê(P, Q) = e(P, φ(Q))` on the supersingular curve, and the signed-digit
//! recoding its Miller loop runs on.
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
//! per step) and folds them at `φ(Q)` on registers of the field's width.
//! Every pairing — a single one, a batch, a product — then reduces through
//! `final_exponentiation_batch`, a single pairing being a batch of one: an
//! easy part with one shared inversion, and the cofactor power as a Lucas
//! ladder on the trace, which recovers the full `F_{p²}` element.  An
//! independent affine Miller loop with a plain `Fp2::pow` reduction lives
//! in the test package (`tibpre_tests::oracle`) as the reference every path
//! is checked against.

use crate::error::PairingError;
use crate::fp::Fp;
use crate::fp2::Fp2;
use crate::Result;
use tibpre_bigint::Uint;

/// The final exponentiation `f ↦ f^{(p² − 1)/q}`, with `(p² − 1)/q` given
/// by the cofactor `h = (p + 1)/q`: a batch of one through the crate's
/// batched final exponentiation, which the prepared pairing paths call
/// directly.
pub fn final_exponentiation(f: &Fp2, cofactor: &Uint) -> Result<Fp2> {
    let mut reduced = final_exponentiation_batch(core::slice::from_ref(f), cofactor)?;
    Ok(reduced.remove(0))
}

/// The final exponentiation of every element of `fs` by
/// `(p² − 1)/q = (p − 1)·h`, with one shared field inversion for the whole
/// slice.
///
/// The easy part `f^{p−1} = conj(f)²/N(f) = a + b·i` uses that the
/// Frobenius on `F_{p²}` is conjugation; for `f = f₀ + f₁·i`,
/// `a = (f₀² − f₁²)/N` and `b = −2f₀f₁/N` with `N = f₀² + f₁²`.  The
/// result has norm 1, so its trace `2a` determines its powers: with
/// `V_k = g^k + g^{−k}`, the hard part `g^h` is
/// `V_h/2 + ((V_h·a − V_{h+1})/(2b))·i`, and `(V_h, V_{h+1})` is the
/// Lucas ladder [`Fp::lucas_v`] from `V₁ = 2a` — one base-field
/// multiplication and one squaring per bit of `h`.
///
/// Both divisions come from one inverse per element, of
/// `D = N·4f₀f₁`: `1/N = D⁻¹·4f₀f₁` and `1/(2b) = −N²·D⁻¹`.  The batch
/// inverts every `D` with **one** GCD via [`Fp::batch_invert`].  When
/// `f₀f₁ = 0`, `D` is `N` alone, the easy part is `±1` and the result
/// `(±1)^h`.  Each output is exactly `f^{(p²−1)/q}`, so a batch is
/// element-wise bit-identical to batches of one.
///
/// Fails with [`PairingError::NotInvertible`] if *any* input is zero (a
/// zero Miller value, impossible for well-formed curve inputs).
pub(crate) fn final_exponentiation_batch(fs: &[Fp2], cofactor: &Uint) -> Result<Vec<Fp2>> {
    if fs.iter().any(Fp2::is_zero) {
        return Err(PairingError::NotInvertible);
    }
    let Some(first) = fs.first() else {
        return Ok(Vec::new());
    };
    let ctx = first.ctx();
    let norms: Vec<Fp> = fs.iter().map(Fp2::norm).collect();
    let cross: Vec<Fp> = fs
        .iter()
        .map(|f| f.c0.mul(&f.c1).double().double())
        .collect();
    let ds: Vec<Fp> = norms
        .iter()
        .zip(&cross)
        .map(|(n, c)| if c.is_zero() { n.clone() } else { n * c })
        .collect();
    let d_invs = Fp::batch_invert(&ds)?;
    let half = Fp::from_uint(ctx, &ctx.modulus().shr1().wrapping_add(&Uint::ONE));
    let mut out = Vec::with_capacity(fs.len());
    for (((f, n), c), d_inv) in fs.iter().zip(&norms).zip(&cross).zip(&d_invs) {
        let real = (&f.c0 + &f.c1).mul(&(&f.c0 - &f.c1)); // f₀² − f₁²
        if c.is_zero() {
            let easy = real.mul(d_inv); // ±1
            out.push(Fp2::from_fp(if cofactor.is_odd() {
                easy
            } else {
                Fp::one(ctx)
            }));
            continue;
        }
        let a = real.mul(&d_inv.mul(c));
        let (v, w) = a.double().lucas_v(cofactor);
        let im = (&v.mul(&a) - &w).mul(&n.square().mul(d_inv).neg());
        out.push(Fp2::new(v.mul(&half), im));
    }
    Ok(out)
}

/// The non-adjacent form of `exp`: digits in `{0, ±1}`, least significant
/// first, with `exp = Σ digits[i]·2^i` and no two adjacent digits non-zero
/// — the prepared Miller loop's addition-subtraction chain.
pub(crate) fn naf_digits(exp: &Uint) -> Vec<i8> {
    let mut digits = Vec::with_capacity(exp.bits() + 1);
    let mut e = *exp;
    while !e.is_zero() {
        // The remainder mod 4, centred: 1 → +1, 3 → −1.
        let digit = match e.limbs()[0] & 3 {
            1 => 1,
            3 => -1,
            _ => 0,
        };
        e = match digit {
            1 => e.wrapping_sub(&Uint::ONE),
            -1 => e.overflowing_add_u64(1).0,
            _ => e,
        };
        digits.push(digit);
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
        // P-192's 2^192 − 2^64 − 1 ≡ 3 (mod 4), prime, three limbs.
        FpCtx::new(&Uint::from_hex("fffffffffffffffffffffffffffffffeffffffffffffffff").unwrap())
            .unwrap()
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
        let p_minus_1 = pp.p().wrapping_sub(&Uint::ONE);
        let fs: Vec<Fp2> = (0..7)
            .map(|_| {
                let a = pp.random_g1(&mut rng);
                let b = pp.random_g1(&mut rng);
                pp.prepare(&a).miller_loop(&b)
            })
            .collect();
        let batched = final_exponentiation_batch(&fs, pp.cofactor()).unwrap();
        assert_eq!(batched.len(), fs.len());
        for (f, out) in fs.iter().zip(&batched) {
            let individual = f.pow(&p_minus_1).pow(pp.cofactor());
            assert_eq!(out.to_bytes(), individual.to_bytes());
            assert_eq!(final_exponentiation(f, pp.cofactor()).unwrap(), individual);
        }
        // Empty batch and zero rejection.
        assert!(final_exponentiation_batch(&[], pp.cofactor())
            .unwrap()
            .is_empty());
        let with_zero = vec![fs[0].clone(), Fp2::zero(pp.fp_ctx())];
        assert!(final_exponentiation_batch(&with_zero, pp.cofactor()).is_err());
    }

    /// The inputs whose `f₀f₁` is zero take the `(±1)^h` branch, beside
    /// ordinary ones in the same batch: `f ∈ F_p*`, `f ∈ i·F_p*` and `±1`,
    /// for the parameter set's even cofactor and for odd ones.  Each must
    /// equal its batch of one and `Fp2::pow(f, (p² − 1)/q)`; a zero
    /// anywhere fails the whole batch.
    #[test]
    fn final_exponentiation_batch_handles_edge_inputs() {
        let pp = PairingParams::insecure_toy();
        let c = pp.fp_ctx();
        let mut rng = StdRng::seed_from_u64(0xED6E);
        let mut ordinary = || Fp2::random(c, &mut rng);
        let real = Fp::from_u64(c, 12345);
        let fs = vec![
            ordinary(),
            Fp2::new(real.clone(), Fp::zero(c)),
            ordinary(),
            Fp2::new(Fp::zero(c), real.neg()),
            Fp2::one(c),
            Fp2::one(c).neg(),
            Fp2::i(c),
            ordinary(),
        ];
        let p_minus_1 = pp.p().wrapping_sub(&Uint::ONE);
        for h in [*pp.cofactor(), Uint::from_u64(7), Uint::ONE, Uint::ZERO] {
            let (exponent, overflow) = p_minus_1.mul_wide(&h);
            assert!(overflow.is_zero());
            let batched = final_exponentiation_batch(&fs, &h).unwrap();
            for (f, out) in fs.iter().zip(&batched) {
                assert_eq!(out, &f.pow(&exponent), "f = {f:?}, h = {h}");
                assert_eq!(
                    out,
                    &final_exponentiation_batch(core::slice::from_ref(f), &h).unwrap()[0]
                );
            }
            for at in [0, 3, fs.len()] {
                let mut with_zero = fs.clone();
                with_zero.insert(at, Fp2::zero(c));
                assert_eq!(
                    final_exponentiation_batch(&with_zero, &h).unwrap_err(),
                    PairingError::NotInvertible
                );
            }
        }
    }

    /// Every NAF digit sequence must re-encode the original exponent with
    /// digits in `{0, ±1}`, no two adjacent ones non-zero.
    #[test]
    fn naf_recoding_is_faithful() {
        for exp in [
            0u64,
            1,
            2,
            3,
            7,
            15,
            16,
            0xF0F0,
            0xDEAD_BEEF_CAFE_F00D,
            u64::MAX,
        ] {
            let digits = naf_digits(&Uint::from_u64(exp));
            let mut acc: i128 = 0;
            for (i, &d) in digits.iter().enumerate() {
                assert!(d.abs() <= 1, "digit {d} of {exp}");
                assert!(
                    d == 0 || i == 0 || digits[i - 1] == 0,
                    "adjacent digits of {exp}"
                );
                acc += i128::from(d) << i;
            }
            assert_eq!(acc, i128::from(exp), "digits must re-encode {exp}");
        }
    }
}
