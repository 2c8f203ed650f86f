//! The modified Tate pairing `ê(P, Q) = e(P, φ(Q))` on the supersingular curve.
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
//! The Miller loop tracks the running point in **Jacobian coordinates** and
//! evaluates the doubling / addition lines directly from the projective
//! variables, so the whole loop is inversion-free: the affine formulas cost a
//! full Fermat inversion (`pow(p − 2)`, hundreds of multiplications) per step,
//! while the projective step is a dozen multiplications.  The line values are
//! only scaled by elements of `F_p^*` relative to their affine counterparts,
//! which the final exponentiation annihilates — the classic BKLS/GHS
//! denominator-elimination argument, applied once more to the projective
//! scaling factors.  An affine reference implementation is kept under
//! `#[cfg(test)]` as a cross-checking oracle.
//!
//! The functions here are the low-level building blocks; the convenient entry
//! point is [`crate::params::PairingParams::pairing`], which returns a [`crate::Gt`].

use crate::curve::G1Affine;
use crate::error::PairingError;
use crate::fp::Fp;
use crate::fp2::Fp2;
use crate::Result;
use tibpre_bigint::Uint;

/// The running Miller-loop point `T` in Jacobian coordinates: the affine point
/// is `(X/Z², Y/Z³)`, and `Z = 0` encodes the group identity.
///
/// Crate-visible so [`crate::precomp::PreparedPairing`] can replay the exact
/// same step sequence while collecting line *coefficients* instead of
/// evaluated line values.
pub(crate) struct MillerPoint {
    x: Fp,
    y: Fp,
    z: Fp,
}

impl MillerPoint {
    pub(crate) fn from_affine(p: &G1Affine) -> Self {
        MillerPoint {
            x: p.x().clone(),
            y: p.y().clone(),
            z: Fp::one(p.ctx()),
        }
    }

    pub(crate) fn identity(template: &G1Affine) -> Self {
        let ctx = template.ctx();
        MillerPoint {
            x: Fp::one(ctx),
            y: Fp::one(ctx),
            z: Fp::zero(ctx),
        }
    }

    pub(crate) fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// `true` when the running point is 2-torsion (vertical tangent).
    pub(crate) fn y_is_zero(&self) -> bool {
        self.y.is_zero()
    }

    /// Fused Jacobian doubling and tangent-line evaluation at
    /// `φ(Q) = (−x_Q, i·y_Q)`.
    ///
    /// Doubling (curve coefficient `a = 1`): `S = 4XY²`, `M = 3X² + Z⁴`,
    /// `X' = M² − 2S`, `Y' = M(S − X') − 8Y⁴`, `Z' = 2YZ`.
    ///
    /// The affine tangent at `T` evaluated at `φ(Q)`, scaled by
    /// `2YZ³ ∈ F_p^*`, is
    /// `(M·(X + x_Q·Z²) − 2Y²)  +  (Z'·Z²·y_Q)·i`,
    /// which reuses the doubling intermediates and needs no inversion.
    ///
    /// The caller must ensure `Y ≠ 0` (no 2-torsion).
    ///
    /// Lazy reduction: `M = X·3X + Z²·Z²` and `Y' = M(S − X') − Y²·8Y²`
    /// each accumulate their two products into one stack buffer and reduce
    /// once per output instead of once per multiplication.  (The line
    /// itself stays strict: `M·(X + x_Q·Z²)` is a nested product whose
    /// inner factor must be reduced anyway, so there is nothing to defer.)
    fn double_with_line(&mut self, xq: &Fp, yq: &Fp) -> Fp2 {
        debug_assert!(!self.is_identity() && !self.y.is_zero());
        let yy = self.y.square();
        let zz = self.z.square();
        let s = self.x.mul(&yy).double().double();
        let m = Fp::sum_of_products(&[(&self.x, &self.x.triple()), (&zz, &zz)]);
        let x3 = &m.square() - &s.double();
        let s_minus_x3 = &s - &x3;
        let yy8 = yy.double().double().double();
        let y3 = Fp::mul_sub(&m, &s_minus_x3, &yy, &yy8);
        let z3 = self.y.double().mul(&self.z);

        let two_yy = yy.double();
        let line_real = &m.mul(&(&self.x + &xq.mul(&zz))) - &two_yy;
        let line_imag = z3.mul(&zz).mul(yq);

        self.x = x3;
        self.y = y3;
        self.z = z3;
        Fp2::new(line_real, line_imag)
    }

    /// Fused mixed addition `T ← T + P` (with `P` affine) and chord-line
    /// evaluation at `φ(Q)`.
    ///
    /// Mixed Jacobian addition: `U₂ = x_P·Z²`, `S₂ = y_P·Z³`, `H = U₂ − X`,
    /// `r = S₂ − Y`, `X' = r² − H³ − 2XH²`, `Y' = r(XH² − X') − YH³`,
    /// `Z' = ZH`.
    ///
    /// The chord through `T` and `P` has slope `λ = r/(HZ) = r/Z'`; its value
    /// at `φ(Q)`, scaled by `Z' ∈ F_p^*`, is
    /// `(r·(x_Q + x_P) − Z'·y_P)  +  (Z'·y_Q)·i`.
    ///
    /// The degenerate cases fall out of the intermediates already computed
    /// (`H = 0 ⇔ x_T = x_P`, and then `r = 0 ⇔ T = P`), so the caller pays no
    /// separate normalised comparisons: they are reported instead of a line,
    /// and `T` is left untouched.
    /// Lazy reduction: `X' = r² − H·H² − 2V` and
    /// `Y' = r(V − X') − (Y·H)·H²` fold their products into one deferred
    /// reduction each (so `H³` is never materialised), and the chord value
    /// `r·(x_Q + x_P) − Z'·y_P` is a third sum-of-products.
    fn add_with_line(&mut self, p: &G1Affine, xq: &Fp, yq: &Fp) -> AddStep {
        debug_assert!(!self.is_identity());
        let zz = self.z.square();
        let u2 = p.x().mul(&zz);
        let s2 = p.y().mul(&zz.mul(&self.z));
        let h = &u2 - &self.x;
        let r = &s2 - &self.y;
        if h.is_zero() {
            return if r.is_zero() {
                AddStep::Tangent
            } else {
                AddStep::Vertical
            };
        }
        let hh = h.square();
        let v = self.x.mul(&hh);
        let x3 = &Fp::mul_sub(&r, &r, &h, &hh) - &v.double();
        let v_minus_x3 = &v - &x3;
        let y3 = Fp::mul_sub(&r, &v_minus_x3, &self.y.mul(&h), &hh);
        let z3 = self.z.mul(&h);

        let x_sum = xq + p.x();
        let line_real = Fp::mul_sub(&r, &x_sum, &z3, p.y());
        let line_imag = z3.mul(yq);

        self.x = x3;
        self.y = y3;
        self.z = z3;
        AddStep::Line(Box::new(Fp2::new(line_real, line_imag)))
    }

    /// Doubling step that returns the tangent line as *coefficients* in the
    /// second argument instead of an evaluated value:
    /// `ℓ(φ(Q)) = (c0 + cx·x_Q) + (cy·y_Q)·i` with
    /// `c0 = M·X − 2Y²`, `cx = M·Z²`, `cy = Z'·Z²`.
    ///
    /// The point update is identical to [`Self::double_with_line`] (the two
    /// must stay in sync; the oracle-equivalence tests enforce it) — the
    /// evaluated form is kept separate because it needs one multiplication
    /// fewer, which matters on the non-precomputed hot path.
    pub(crate) fn double_step_coeffs(&mut self) -> RawLine {
        debug_assert!(!self.is_identity() && !self.y.is_zero());
        let yy = self.y.square();
        let zz = self.z.square();
        let s = self.x.mul(&yy).double().double();
        let m = &self.x.square().triple() + &zz.square();
        let x3 = &m.square() - &s.double();
        let y3 = &m.mul(&(&s - &x3)) - &yy.square().double().double().double();
        let z3 = self.y.double().mul(&self.z);

        let c0 = &m.mul(&self.x) - &yy.double();
        let cx = m.mul(&zz);
        let cy = z3.mul(&zz);

        self.x = x3;
        self.y = y3;
        self.z = z3;
        RawLine { c0, cx, cy }
    }

    /// Mixed-addition step returning the chord line as coefficients:
    /// `c0 = r·x_P − Z'·y_P`, `cx = r`, `cy = Z'` (same degenerate cases as
    /// [`Self::add_with_line`], reported instead of a line).
    pub(crate) fn add_step_coeffs(&mut self, p: &G1Affine) -> RawAddStep {
        debug_assert!(!self.is_identity());
        let zz = self.z.square();
        let u2 = p.x().mul(&zz);
        let s2 = p.y().mul(&zz.mul(&self.z));
        let h = &u2 - &self.x;
        let r = &s2 - &self.y;
        if h.is_zero() {
            return if r.is_zero() {
                RawAddStep::Tangent
            } else {
                RawAddStep::Vertical
            };
        }
        let hh = h.square();
        let hhh = hh.mul(&h);
        let v = self.x.mul(&hh);
        let x3 = &(&r.square() - &hhh) - &v.double();
        let y3 = &r.mul(&(&v - &x3)) - &self.y.mul(&hhh);
        let z3 = self.z.mul(&h);

        let c0 = &r.mul(p.x()) - &z3.mul(p.y());
        let cy = z3.clone();

        self.x = x3;
        self.y = y3;
        self.z = z3;
        RawAddStep::Line(Box::new(RawLine { c0, cx: r, cy }))
    }
}

/// A Miller-loop line with the second argument left symbolic:
/// `ℓ(φ(Q)) = (c0 + cx·x_Q) + (cy·y_Q)·i`.
///
/// All three coefficients depend only on the first pairing argument, which is
/// what makes fixed-argument precomputation possible.  On the non-degenerate
/// path `cy = Z'·Z²` (doubling) or `cy = Z'` (addition) is never zero, so the
/// precomputation layer can normalise the line to `cy = 1` — a division by an
/// `F_p^*` constant that the final exponentiation annihilates.
pub(crate) struct RawLine {
    pub(crate) c0: Fp,
    pub(crate) cx: Fp,
    pub(crate) cy: Fp,
}

/// Outcome of [`MillerPoint::add_step_coeffs`], mirroring [`AddStep`].
pub(crate) enum RawAddStep {
    /// Generic case: `T` was updated and the chord coefficients are returned.
    /// (Boxed like [`AddStep::Line`] — clippy's `large_enum_variant`.)
    Line(Box<RawLine>),
    /// `T = P` (caller doubles instead).  Unreachable for prime-order inputs.
    Tangent,
    /// `T = −P`: vertical chord, eliminated by the final exponentiation.
    Vertical,
}

/// Outcome of [`MillerPoint::add_with_line`].
enum AddStep {
    /// The generic case: `T` was updated and the chord line is returned.
    /// (Boxed to keep the degenerate variants from carrying the full `Fp2`
    /// footprint — clippy's `large_enum_variant`.)
    Line(Box<Fp2>),
    /// `T = P`: the chord degenerates to the tangent at `T` (the caller
    /// doubles instead).  Unreachable for prime-order inputs.
    Tangent,
    /// `T = −P`: the chord is the vertical `X − x_P ∈ F_p`, eliminated by the
    /// final exponentiation (the caller sets `T` to the identity).
    Vertical,
}

/// Miller's algorithm computing `f_{q, P}(φ(Q))` without denominators (BKLS),
/// inversion-free: the running point stays in Jacobian coordinates and every
/// line is evaluated from the projective variables.
///
/// `order` must be the prime order of the subgroup both points belong to.
/// Returns the *unreduced* pairing value — well-defined only up to `F_p^*`
/// factors (the projective scaling), which the final exponentiation kills;
/// callers almost always want [`pairing_unreduced`] composed with
/// [`final_exponentiation`] (or simply
/// [`crate::params::PairingParams::pairing`]).
pub fn miller_loop(p: &G1Affine, q_point: &G1Affine, order: &Uint) -> Fp2 {
    let ctx = p.ctx();
    if p.is_identity() || q_point.is_identity() {
        return Fp2::one(ctx);
    }
    let xq = q_point.x();
    let yq = q_point.y();

    let mut f = Fp2::one(ctx);
    let mut t = MillerPoint::from_affine(p);
    let bits = order.bits();
    debug_assert!(bits >= 2, "the group order must be a large prime");

    for i in (0..bits - 1).rev() {
        // --- Doubling step: f <- f² · l_{T,T}(φ(Q)), T <- 2T ---
        f = f.square();
        if !t.is_identity() {
            if t.y.is_zero() {
                // Vertical tangent (2-torsion): the line is X − x_T ∈ F_p,
                // eliminated by the final exponentiation.
                t = MillerPoint::identity(p);
            } else {
                let line = t.double_with_line(xq, yq);
                f = f.mul(&line);
            }
        }

        // --- Addition step (when the bit is set): f <- f · l_{T,P}(φ(Q)), T <- T + P ---
        if order.bit(i) && !t.is_identity() {
            match t.add_with_line(p, xq, yq) {
                AddStep::Line(line) => f = f.mul(&line),
                AddStep::Tangent if t.y.is_zero() => {
                    // T = P with y = 0 (2-torsion): the tangent is vertical.
                    t = MillerPoint::identity(p);
                }
                AddStep::Tangent => {
                    let line = t.double_with_line(xq, yq);
                    f = f.mul(&line);
                }
                AddStep::Vertical => t = MillerPoint::identity(p),
            }
        }
    }
    f
}

/// Alias for [`miller_loop`], emphasising that the value still needs the final
/// exponentiation before it is a well-defined pairing value.
pub fn pairing_unreduced(p: &G1Affine, q_point: &G1Affine, order: &Uint) -> Fp2 {
    miller_loop(p, q_point, order)
}

/// The final exponentiation `f ↦ f^{(p² − 1)/q}`.
///
/// Decomposed as `f^{p−1} = conj(f)·f^{−1}` (the "easy" part, using that the
/// Frobenius on `F_{p²}` is conjugation) followed by exponentiation by the
/// cofactor `h = (p + 1)/q`.
///
/// After the easy part the value lies in the norm-1 ("cyclotomic") subgroup,
/// where conjugation *is* inversion; the cofactor exponentiation therefore
/// uses a signed-digit window (wNAF), whose negative digits cost only a
/// conjugation — about a third fewer multiplications than plain
/// square-and-multiply.  This sits on every pairing's critical path, naive
/// and prepared alike.
pub fn final_exponentiation(f: &Fp2, cofactor: &Uint) -> Result<Fp2> {
    final_exponentiation_with_digits(f, &wnaf_digits(cofactor, WNAF_WINDOW))
}

/// [`final_exponentiation`] with the cofactor already recoded into wNAF
/// digits (`wnaf_digits(cofactor, WNAF_WINDOW)`).
///
/// The digits are a pure function of the (fixed) cofactor, so
/// [`crate::params::PairingParams`] recodes once and every pairing —
/// naive and prepared — reuses the cached digits.
pub(crate) fn final_exponentiation_with_digits(f: &Fp2, cofactor_digits: &[i8]) -> Result<Fp2> {
    if f.is_zero() {
        return Err(PairingError::NotInvertible);
    }
    let easy = f.conjugate().mul(&f.invert()?);
    debug_assert!(easy.norm().is_one(), "f^(p-1) must have norm 1");
    Ok(cyclotomic_pow_wnaf(&easy, cofactor_digits))
}

/// Batched [`final_exponentiation_with_digits`]: one shared field inversion
/// for the whole slice.
///
/// The easy part needs `f^{−1} = conj(f)·norm(f)^{−1}`, and the base-field
/// GCD inversion inside `norm(f)^{−1}` dominates it.  Batching computes the
/// k norms, inverts them with **one** GCD via [`Fp::batch_invert`], and
/// finishes each element as `conj(f)²·norm(f)^{−1}` — mathematically the
/// same `conj(f)·f^{−1}`, so every output is bit-identical to the
/// per-element path.  The cyclotomic cofactor exponentiation (the hard
/// part) remains per element; it is all squarings and cheap conjugations.
///
/// Fails with [`PairingError::NotInvertible`] if *any* input is zero (a
/// zero Miller value, impossible for well-formed curve inputs), matching
/// the per-element contract — see [`Fp::batch_invert`] for the
/// zero-mid-batch semantics.
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

/// Full reduced pairing `ê(P, Q) = f_{q,P}(φ(Q))^{(p²−1)/q}` as a raw `F_{p²}` value.
///
/// Prefer [`crate::params::PairingParams::pairing`], which wraps the result in
/// the type-safe [`crate::Gt`].
pub fn pairing(p: &G1Affine, q_point: &G1Affine, order: &Uint, cofactor: &Uint) -> Result<Fp2> {
    let unreduced = miller_loop(p, q_point, order);
    final_exponentiation(&unreduced, cofactor)
}

/// The original affine-coordinate Miller loop, retained as a reference oracle
/// for the regression tests: one field inversion per doubling/addition step.
///
/// Its unreduced output differs from [`miller_loop`]'s by `F_p^*` factors, so
/// the two agree exactly *after* [`final_exponentiation`].
#[cfg(test)]
pub(crate) fn miller_loop_affine(p: &G1Affine, q_point: &G1Affine, order: &Uint) -> Fp2 {
    use crate::fp::FpCtx;
    use std::sync::Arc;

    /// Evaluates the (doubling or addition) line through `(x_0, y_0)` with
    /// slope `λ` at the distorted second argument `φ(Q) = (−x_Q, i·y_Q)`:
    /// `(λ(x_Q + x_0) − y_0) + y_Q·i`.
    fn line_at_distorted_q(lambda: &Fp, x0: &Fp, y0: &Fp, xq: &Fp, yq: &Fp) -> Fp2 {
        let real = &lambda.mul(&(xq + x0)) - y0;
        Fp2::new(real, yq.clone())
    }

    let ctx: &Arc<FpCtx> = p.ctx();
    if p.is_identity() || q_point.is_identity() {
        return Fp2::one(ctx);
    }
    let xq = q_point.x();
    let yq = q_point.y();
    let one = Fp::one(ctx);

    let mut f = Fp2::one(ctx);
    let mut t = p.clone();
    let bits = order.bits();

    for i in (0..bits - 1).rev() {
        f = f.square();
        if !t.is_identity() {
            if t.y().is_zero() {
                t = G1Affine::identity(ctx);
            } else {
                let lambda = (&t.x().square().triple() + &one)
                    .mul(&t.y().double().invert().expect("y ≠ 0 checked above"));
                let line = line_at_distorted_q(&lambda, t.x(), t.y(), xq, yq);
                f = f.mul(&line);
                t = t.double();
            }
        }

        if order.bit(i) && !t.is_identity() {
            if t.x() == p.x() {
                if t.y() == &p.y().neg() {
                    t = G1Affine::identity(ctx);
                } else {
                    let lambda = (&t.x().square().triple() + &one).mul(
                        &t.y()
                            .double()
                            .invert()
                            .expect("y ≠ 0 for T = P of odd order"),
                    );
                    let line = line_at_distorted_q(&lambda, t.x(), t.y(), xq, yq);
                    f = f.mul(&line);
                    t = t.double();
                }
            } else {
                let lambda = (t.y() - p.y())
                    .mul(&(t.x() - p.x()).invert().expect("x_T ≠ x_P checked above"));
                let line = line_at_distorted_q(&lambda, p.x(), p.y(), xq, yq);
                f = f.mul(&line);
                t = t.add(p);
            }
        }
    }
    f
}

#[cfg(test)]
mod tests {
    // The meaningful pairing tests (bilinearity, non-degeneracy, symmetry)
    // need properly generated parameters and therefore live in
    // `params.rs` and in the crate-level integration tests, where a cached
    // toy parameter set is available.  Here we exercise degenerate inputs and
    // cross-check the projective Miller loop against the affine oracle.
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
    fn pairing_with_identity_is_one() {
        let c = ctx();
        let id = G1Affine::identity(&c);
        let order = Uint::from_u64(1_000_003);
        let f = miller_loop(&id, &id, &order);
        assert!(f.is_one());
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

    /// The batched easy part (one shared GCD inversion) must be
    /// bit-identical to the per-element final exponentiation.
    #[test]
    fn batched_final_exponentiation_matches_per_element() {
        let pp = PairingParams::insecure_toy();
        let mut rng = StdRng::seed_from_u64(0x6B17);
        let digits = wnaf_digits(pp.cofactor(), WNAF_WINDOW);
        let fs: Vec<Fp2> = (0..7)
            .map(|_| {
                let a = pp.random_g1(&mut rng);
                let b = pp.random_g1(&mut rng);
                miller_loop(&a, &b, pp.q())
            })
            .collect();
        let batched = final_exponentiation_batch(&fs, &digits).unwrap();
        assert_eq!(batched.len(), fs.len());
        for (f, out) in fs.iter().zip(&batched) {
            let individual = final_exponentiation_with_digits(f, &digits).unwrap();
            assert_eq!(out.to_bytes(), individual.to_bytes());
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

    /// Regression oracle: the inversion-free projective Miller loop and the
    /// original affine loop produce the *same reduced pairing* for random
    /// inputs on the toy parameter set (their unreduced values differ by the
    /// projective `F_p^*` scaling, which the final exponentiation kills).
    #[test]
    fn projective_miller_loop_matches_affine_oracle() {
        let pp = PairingParams::insecure_toy();
        let mut rng = StdRng::seed_from_u64(0x4A43);
        for _ in 0..5 {
            let a = pp.random_g1(&mut rng);
            let b = pp.random_g1(&mut rng);
            let projective =
                final_exponentiation(&miller_loop(&a, &b, pp.q()), pp.cofactor()).unwrap();
            let affine =
                final_exponentiation(&miller_loop_affine(&a, &b, pp.q()), pp.cofactor()).unwrap();
            assert_eq!(projective, affine);
            assert!(!projective.is_one(), "pairing must stay non-degenerate");
        }
        // Same-point input (the distortion map keeps ê(P, P) ≠ 1).
        let g = pp.generator();
        let projective = final_exponentiation(&miller_loop(g, g, pp.q()), pp.cofactor()).unwrap();
        let affine =
            final_exponentiation(&miller_loop_affine(g, g, pp.q()), pp.cofactor()).unwrap();
        assert_eq!(projective, affine);
    }

    /// The projective loop must also agree on inputs *outside* the prime-order
    /// subgroup, where the 2-torsion / T = ±P special cases can actually fire.
    #[test]
    fn projective_matches_affine_on_non_subgroup_inputs() {
        use crate::curve::random_curve_point;

        let pp = PairingParams::insecure_toy();
        let mut rng = StdRng::seed_from_u64(0x4A44);
        for _ in 0..3 {
            let a = random_curve_point(pp.fp_ctx(), &mut rng);
            let b = random_curve_point(pp.fp_ctx(), &mut rng);
            // A composite "order" exercises the bit pattern; the result is not
            // a well-defined pairing but both loops must walk the same path.
            let fake_order = Uint::from_u64(0xDEAD_BEEF_CAFE);
            let projective =
                final_exponentiation(&miller_loop(&a, &b, &fake_order), pp.cofactor()).unwrap();
            let affine =
                final_exponentiation(&miller_loop_affine(&a, &b, &fake_order), pp.cofactor())
                    .unwrap();
            assert_eq!(projective, affine);
        }
    }

    /// The 2-torsion point (0, 0) drives the vertical-tangent branch.
    #[test]
    fn two_torsion_input_agrees_with_oracle() {
        let pp = PairingParams::insecure_toy();
        let two_torsion = G1Affine::new(Fp::zero(pp.fp_ctx()), Fp::zero(pp.fp_ctx())).unwrap();
        let g = pp.generator();
        let projective =
            final_exponentiation(&miller_loop(&two_torsion, g, pp.q()), pp.cofactor()).unwrap();
        let affine =
            final_exponentiation(&miller_loop_affine(&two_torsion, g, pp.q()), pp.cofactor())
                .unwrap();
        assert_eq!(projective, affine);
    }
}
