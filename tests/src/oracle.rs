//! The reference pairing every prepared, batched and multi-pairing result
//! is checked against.
//!
//! It shares no line with the production pairing in `tibpre-pairing`: an
//! affine Miller loop over the binary expansion of `q` (one field inversion
//! per step, where production runs inversion-free Jacobian steps over the
//! NAF of `q` into a stored table), reduced by plain `Fp2::pow` by
//! `(p² − 1)/q = (p − 1)·h` (where production runs a batched easy part and
//! a Lucas ladder on the trace).  The two agree bit for bit
//! because the reduced pairing is a well-defined field element: the chains
//! and scalings only change the unreduced value by `F_p^*` factors, which
//! the final exponentiation annihilates.
//!
//! `tibpre-pairing` compiles this same file into its unit tests, so it may
//! name only `tibpre_pairing` and `tibpre_bigint`.

use tibpre_bigint::Uint;
use tibpre_pairing::{Fp, Fp2, G1Affine, Gt, PairingParams};

/// The modified Tate pairing `ê(P, Q) = f_{q,P}(φ(Q))^{(p²−1)/q}`, with
/// `φ(x, y) = (−x, i·y)`, the textbook way.
///
/// Degenerate inputs take the textbook branches: the identity on either
/// side pairs to 1; a vertical tangent (2-torsion `T`) or chord (`T = −P`)
/// is an `F_p` factor and sends `T` to the identity, which absorbs the rest
/// of the loop; `T = P` in an addition step takes the tangent.
pub fn pairing(params: &PairingParams, p: &G1Affine, q: &G1Affine) -> Gt {
    /// The line through `(x_0, y_0)` with slope `λ` at `φ(Q)`:
    /// `(λ(x_Q + x_0) − y_0) + y_Q·i`.
    fn line_at_distorted_q(lambda: &Fp, x0: &Fp, y0: &Fp, q: &G1Affine) -> Fp2 {
        Fp2::new(&lambda.mul(&(q.x() + x0)) - y0, q.y().clone())
    }
    /// The tangent slope `(3x² + 1)/(2y)` of `y² = x³ + x` at `t`.
    fn tangent_slope(t: &G1Affine) -> Fp {
        let xx = t.x().square();
        let numerator = &(&(&xx + &xx) + &xx) + &Fp::one(t.ctx());
        numerator.mul(
            &t.y()
                .double()
                .invert()
                .expect("y ≠ 0 checked by the caller"),
        )
    }

    let ctx = params.fp_ctx();
    let mut f = Fp2::one(ctx);
    if !p.is_identity() && !q.is_identity() {
        let order = params.q();
        let mut t = p.clone();
        for i in (0..order.bits() - 1).rev() {
            f = f.square();
            if !t.is_identity() {
                if t.y().is_zero() {
                    t = G1Affine::identity(ctx);
                } else {
                    f = f.mul(&line_at_distorted_q(&tangent_slope(&t), t.x(), t.y(), q));
                    t = t.double();
                }
            }
            if order.bit(i) && !t.is_identity() {
                if t.x() != p.x() {
                    let lambda = (t.y() - p.y())
                        .mul(&(t.x() - p.x()).invert().expect("x_T ≠ x_P checked above"));
                    f = f.mul(&line_at_distorted_q(&lambda, p.x(), p.y(), q));
                    t = t.add(p);
                } else if t.y() == p.y() && !t.y().is_zero() {
                    f = f.mul(&line_at_distorted_q(&tangent_slope(&t), t.x(), t.y(), q));
                    t = t.double();
                } else {
                    t = G1Affine::identity(ctx);
                }
            }
        }
    }
    let p_minus_1 = params.p().wrapping_sub(&Uint::ONE);
    Gt::from_fp2_unchecked(f.pow(&p_minus_1).pow(params.cofactor()))
}
