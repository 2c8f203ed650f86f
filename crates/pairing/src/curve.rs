//! The supersingular curve `E : y² = x³ + x` over `F_p` and its prime-order subgroup.
//!
//! With `p ≡ 3 (mod 4)` the curve is supersingular and has exactly `p + 1`
//! points over `F_p`.  The parameter generator picks `p = h·q − 1`, so the
//! group of rational points contains a subgroup of prime order `q`; that
//! subgroup is the pairing group `G` of the paper.
//!
//! [`G1Affine`] is the public point: the canonical, serialisable form, whose
//! textbook chord-and-tangent `add`/`double` are the reference the tests
//! check everything else against.  Inside the crate every curve walk runs on
//! one Jacobian point, `G1Projective` (inversion-free): the variable-base
//! window walk, the fixed-base tables of [`crate::precomp`] and the Miller
//! table build, which asks the same doubling and mixed addition for the
//! lines of their tangents and chords.

use crate::error::PairingError;
use crate::fp::{Fp, FpCtx};
use crate::scalar::Scalar;
use crate::Result;
use rand::{CryptoRng, RngCore};
use std::sync::Arc;
use tibpre_bigint::Uint;

/// A point of `E(F_p)` in affine coordinates (plus the point at infinity).
#[derive(Clone, PartialEq, Eq)]
pub struct G1Affine {
    x: Fp,
    y: Fp,
    infinity: bool,
}

impl G1Affine {
    /// The point at infinity (group identity).
    pub fn identity(ctx: &Arc<FpCtx>) -> Self {
        G1Affine {
            x: Fp::zero(ctx),
            y: Fp::zero(ctx),
            infinity: true,
        }
    }

    /// Constructs a point from coordinates, verifying the curve equation.
    pub fn new(x: Fp, y: Fp) -> Result<Self> {
        let p = G1Affine {
            x,
            y,
            infinity: false,
        };
        if p.is_on_curve() {
            Ok(p)
        } else {
            Err(PairingError::NotOnCurve)
        }
    }

    /// Constructs a point without the curve check (internal fast path).
    pub(crate) fn new_unchecked(x: Fp, y: Fp) -> Self {
        G1Affine {
            x,
            y,
            infinity: false,
        }
    }

    /// The x-coordinate.  Meaningless for the identity.
    pub fn x(&self) -> &Fp {
        &self.x
    }

    /// The y-coordinate.  Meaningless for the identity.
    pub fn y(&self) -> &Fp {
        &self.y
    }

    /// Returns `true` for the point at infinity.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// The field context of the coordinates.
    pub fn ctx(&self) -> &Arc<FpCtx> {
        self.x.ctx()
    }

    /// Checks the curve equation `y² = x³ + x`.
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        let lhs = self.y.square();
        let x_cubed = self.x.square().mul(&self.x);
        let rhs = &x_cubed + &self.x;
        lhs == rhs
    }

    /// Checks membership in the order-`q` subgroup: `q·P = O`.
    pub fn is_in_subgroup(&self, q: &Uint) -> bool {
        self.mul_uint(q).is_identity()
    }

    /// Point negation.
    pub fn neg(&self) -> G1Affine {
        if self.infinity {
            return self.clone();
        }
        G1Affine {
            x: self.x.clone(),
            y: self.y.neg(),
            infinity: false,
        }
    }

    /// Affine point addition (textbook chord-and-tangent, reference implementation).
    pub fn add(&self, other: &G1Affine) -> G1Affine {
        if self.infinity {
            return other.clone();
        }
        if other.infinity {
            return self.clone();
        }
        let ctx = self.ctx();
        if self.x == other.x {
            if self.y == other.y.neg() {
                return G1Affine::identity(ctx);
            }
            return self.double();
        }
        // λ = (y2 − y1) / (x2 − x1)
        let lambda = (&other.y - &self.y).mul(&(&other.x - &self.x).invert().expect("x1 != x2"));
        let x3 = &(&lambda.square() - &self.x) - &other.x;
        let y3 = &lambda.mul(&(&self.x - &x3)) - &self.y;
        G1Affine {
            x: x3,
            y: y3,
            infinity: false,
        }
    }

    /// Affine point doubling.
    pub fn double(&self) -> G1Affine {
        if self.infinity {
            return self.clone();
        }
        let ctx = self.ctx();
        if self.y.is_zero() {
            // 2-torsion point; doubling gives the identity.
            return G1Affine::identity(ctx);
        }
        // λ = (3x² + 1) / (2y)   (the curve coefficient a is 1)
        let numerator = &self.x.square().triple() + &Fp::one(ctx);
        let lambda = numerator.mul(&self.y.double().invert().expect("y != 0"));
        let x3 = &lambda.square() - &self.x.double();
        let y3 = &lambda.mul(&(&self.x - &x3)) - &self.y;
        G1Affine {
            x: x3,
            y: y3,
            infinity: false,
        }
    }

    /// Subtraction convenience.
    pub fn sub(&self, other: &G1Affine) -> G1Affine {
        self.add(&other.neg())
    }

    /// Scalar multiplication by an arbitrary integer (via Jacobian coordinates).
    pub(crate) fn mul_uint(&self, k: &Uint) -> G1Affine {
        G1Projective::from_affine(self).mul_uint(k).to_affine()
    }

    /// Scalar multiplication by an element of `Z_q`.
    pub fn mul_scalar(&self, k: &Scalar) -> G1Affine {
        self.mul_uint(&k.to_uint())
    }

    /// Canonical uncompressed encoding: `0x00` for the identity (1 byte) or
    /// `0x04 || x || y`.
    pub fn to_bytes(&self) -> Vec<u8> {
        if self.infinity {
            return vec![0x00];
        }
        let mut out = Vec::with_capacity(1 + 2 * self.ctx().byte_len());
        out.push(0x04);
        out.extend(self.x.to_bytes());
        out.extend(self.y.to_bytes());
        out
    }

    /// Decodes an uncompressed coordinate pair, re-validating the curve
    /// equation.  Shared by [`Self::from_bytes`] and the wire codec.
    pub(crate) fn decode_uncompressed(
        ctx: &Arc<FpCtx>,
        x_bytes: &[u8],
        y_bytes: &[u8],
    ) -> Result<G1Affine> {
        let x = Fp::from_bytes(ctx, x_bytes)?;
        let y = Fp::from_bytes(ctx, y_bytes)?;
        G1Affine::new(x, y)
    }

    /// Decompresses an x-coordinate plus a y-parity bit (the form older
    /// writers emitted), re-validating the curve equation (an x with no
    /// square root on the right-hand side is rejected).  Shared by
    /// [`Self::from_bytes`] and the wire codec.
    pub(crate) fn decode_compressed(
        ctx: &Arc<FpCtx>,
        want_odd_y: bool,
        x_bytes: &[u8],
    ) -> Result<G1Affine> {
        let x = Fp::from_bytes(ctx, x_bytes)?;
        let rhs = &x.square().mul(&x) + &x;
        let mut y = rhs.sqrt().ok_or(PairingError::NotOnCurve)?;
        if y.is_odd_repr() != want_odd_y {
            y = y.neg();
        }
        G1Affine::new(x, y)
    }

    /// Decodes either encoding (`0x04 ‖ x ‖ y` or the compressed form older
    /// writers emitted), re-validating the curve equation.
    pub fn from_bytes(ctx: &Arc<FpCtx>, bytes: &[u8]) -> Result<G1Affine> {
        let field_len = ctx.byte_len();
        match bytes.first() {
            Some(0x00) if bytes.len() == 1 => Ok(G1Affine::identity(ctx)),
            Some(0x04) if bytes.len() == 1 + 2 * field_len => {
                Self::decode_uncompressed(ctx, &bytes[1..1 + field_len], &bytes[1 + field_len..])
            }
            Some(tag @ (0x02 | 0x03)) if bytes.len() == 1 + field_len => {
                Self::decode_compressed(ctx, *tag == 0x03, &bytes[1..])
            }
            _ => Err(PairingError::InvalidEncoding("unknown point encoding")),
        }
    }
}

impl core::fmt::Debug for G1Affine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.infinity {
            write!(f, "G1Affine(infinity)")
        } else {
            write!(f, "G1Affine(x={:?}, y={:?})", self.x, self.y)
        }
    }
}

/// Window width (bits) of both scalar walks: [`G1Projective::mul_uint`]
/// and the fixed-base tables of [`crate::precomp::G1Precomp`].
pub(crate) const WINDOW: usize = 4;
/// Non-zero digits per window: `2^WINDOW − 1`.
pub(crate) const TABLE_LEN: usize = (1 << WINDOW) - 1;

/// The digit of window `w` of `k`: bits `4w … 4w + 3`, most significant
/// first (bits past the top of `k` are zero).
pub(crate) fn window_digit(k: &Uint, w: usize) -> usize {
    (0..WINDOW).rev().fold(0, |digit, b| {
        (digit << 1) | usize::from(k.bit(w * WINDOW + b))
    })
}

/// A Miller-loop line with the second argument left symbolic:
/// `ℓ(φ(Q)) = (c0 + cx·x_Q) + (cy·y_Q)·i`.
///
/// A step of [`G1Projective`] returns the line of its tangent or chord
/// scaled by an element of `F_p^*`, which the final exponentiation
/// annihilates (BKLS/GHS denominator elimination, applied once more to the
/// projective scaling), so no step inverts.  A step returns a line only when
/// it leaves a non-identity point, so `cy` is never zero and the Miller
/// table normalises it to one.
pub(crate) struct Line {
    pub(crate) c0: Fp,
    pub(crate) cx: Fp,
    pub(crate) cy: Fp,
}

/// A point in Jacobian projective coordinates `(X : Y : Z)`, representing the
/// affine point `(X/Z², Y/Z³)`; the identity has `Z = 0`.
///
/// The crate's one Jacobian point: both scalar walks (this type's
/// [`Self::mul_uint`] and the fixed-base tables) and the Miller table build
/// run its doubling and mixed addition, and the table build asks the same
/// two steps for their lines.
#[derive(Clone)]
pub(crate) struct G1Projective {
    x: Fp,
    y: Fp,
    z: Fp,
}

impl G1Projective {
    /// The group identity.
    pub(crate) fn identity(ctx: &Arc<FpCtx>) -> Self {
        G1Projective {
            x: Fp::one(ctx),
            y: Fp::one(ctx),
            z: Fp::zero(ctx),
        }
    }

    /// Lifts an affine point.
    pub(crate) fn from_affine(p: &G1Affine) -> Self {
        if p.is_identity() {
            return Self::identity(p.ctx());
        }
        G1Projective {
            x: p.x.clone(),
            y: p.y.clone(),
            z: Fp::one(p.ctx()),
        }
    }

    /// Returns `true` for the identity.
    pub(crate) fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// The field context.
    pub(crate) fn ctx(&self) -> &Arc<FpCtx> {
        self.x.ctx()
    }

    /// Normalises back to affine coordinates (one field inversion).
    pub(crate) fn to_affine(&self) -> G1Affine {
        if self.is_identity() {
            return G1Affine::identity(self.ctx());
        }
        let z_inv = self.z.invert().expect("non-identity has z != 0");
        let z_inv_sq = z_inv.square();
        let x = self.x.mul(&z_inv_sq);
        let y = self.y.mul(&z_inv_sq.mul(&z_inv));
        G1Affine {
            x,
            y,
            infinity: false,
        }
    }

    /// `2·self`: [`Self::double_step`] on a copy.
    pub(crate) fn double(&self) -> G1Projective {
        let mut t = self.clone();
        t.double_step(false);
        t
    }

    /// Jacobian doubling in place (general formula with curve coefficient
    /// `a = 1`): `S = 4XY²`, `M = 3X² + Z⁴`, `X' = M² − 2S`,
    /// `Y' = M(S − X') − 8Y⁴`, `Z' = 2YZ`.
    ///
    /// With `want_line`, also returns the tangent at the old point, scaled
    /// by `2YZ³`: `c0 = M·X − 2Y²`, `cx = M·Z²`, `cy = Z'·Z²`.  The identity
    /// and a 2-torsion point (`Y = 0`, a vertical tangent) double to the
    /// identity with no line.
    pub(crate) fn double_step(&mut self, want_line: bool) -> Option<Line> {
        if self.is_identity() || self.y.is_zero() {
            self.z = Fp::zero(self.x.ctx());
            return None;
        }
        let y_sq = self.y.square();
        let s = self.x.mul(&y_sq).double().double();
        let z_sq = self.z.square();
        let m = &self.x.square().triple() + &z_sq.square();
        let x3 = &m.square() - &s.double();
        let y3 = &m.mul(&(&s - &x3)) - &y_sq.square().double().double().double();
        let z3 = self.y.double().mul(&self.z);
        let line = want_line.then(|| Line {
            c0: &m.mul(&self.x) - &y_sq.double(),
            cx: m.mul(&z_sq),
            cy: z3.mul(&z_sq),
        });
        self.x = x3;
        self.y = y3;
        self.z = z3;
        line
    }

    /// General Jacobian addition.
    pub(crate) fn add(&self, other: &G1Projective) -> G1Projective {
        if self.is_identity() {
            return other.clone();
        }
        if other.is_identity() {
            return self.clone();
        }
        let z1_sq = self.z.square();
        let z2_sq = other.z.square();
        let u1 = self.x.mul(&z2_sq);
        let u2 = other.x.mul(&z1_sq);
        let s1 = self.y.mul(&z2_sq.mul(&other.z));
        let s2 = other.y.mul(&z1_sq.mul(&self.z));
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Self::identity(self.ctx());
        }
        let h = &u2 - &u1;
        let r = &s2 - &s1;
        let h_sq = h.square();
        let h_cu = h_sq.mul(&h);
        let u1_h_sq = u1.mul(&h_sq);
        let x3 = &(&r.square() - &h_cu) - &u1_h_sq.double();
        let y3 = &r.mul(&(&u1_h_sq - &x3)) - &s1.mul(&h_cu);
        let z3 = self.z.mul(&other.z).mul(&h);
        G1Projective {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition in place with an affine point `P` (`Z₂ = 1`), which
    /// saves the general formula's four `Z₂` multiplications:
    /// `U₂ = x_P·Z²`, `S₂ = y_P·Z³`, `H = U₂ − X`, `r = S₂ − Y`,
    /// `X' = r² − H³ − 2XH²`, `Y' = r(XH² − X') − YH³`, `Z' = ZH`.
    ///
    /// With `want_line`, also returns the chord through the two points, of
    /// slope `r/Z'`, scaled by `Z'`: `c0 = r·x_P − Z'·y_P`, `cx = r`,
    /// `cy = Z'`.  The degenerate cases are the group law's: with either
    /// point the identity the sum is the other one, and no line; `self = P`
    /// is a doubling and takes its tangent; `self = −P` gives the identity,
    /// and its vertical chord no line.
    pub(crate) fn add_affine_step(&mut self, other: &G1Affine, want_line: bool) -> Option<Line> {
        if self.is_identity() {
            *self = G1Projective::from_affine(other);
            return None;
        }
        if other.is_identity() {
            return None;
        }
        let z1_sq = self.z.square();
        let u2 = other.x().mul(&z1_sq);
        let s2 = other.y().mul(&z1_sq.mul(&self.z));
        if u2 == self.x {
            if s2 == self.y {
                return self.double_step(want_line);
            }
            self.z = Fp::zero(self.x.ctx());
            return None;
        }
        let h = &u2 - &self.x;
        let r = &s2 - &self.y;
        let h_sq = h.square();
        let h_cu = h_sq.mul(&h);
        let v = self.x.mul(&h_sq);
        let x3 = &(&r.square() - &h_cu) - &v.double();
        let y3 = &r.mul(&(&v - &x3)) - &self.y.mul(&h_cu);
        let z3 = self.z.mul(&h);
        let line = want_line.then(|| Line {
            c0: &r.mul(other.x()) - &z3.mul(other.y()),
            cx: r,
            cy: z3.clone(),
        });
        self.x = x3;
        self.y = y3;
        self.z = z3;
        line
    }

    /// The multiples `1·P … 15·P` of this point, in order: even multiples
    /// from a doubling, odd ones from one addition.  The table of
    /// [`Self::mul_uint`], and of each window of a fixed-base table.
    pub(crate) fn multiples(&self) -> Vec<G1Projective> {
        let mut table = Vec::with_capacity(TABLE_LEN);
        table.push(self.clone());
        for j in 1..TABLE_LEN {
            let next = if (j + 1) % 2 == 0 {
                table[j.div_ceil(2) - 1].double()
            } else {
                table[j - 1].add(self)
            };
            table.push(next);
        }
        table
    }

    /// Scalar multiplication by a fixed 4-bit window over the bits of `k`:
    /// [`Self::multiples`] up front, then four doublings plus at most one
    /// table addition per window — roughly half the additions of plain
    /// double-and-add for the scalar sizes the scheme uses.
    pub(crate) fn mul_uint(&self, k: &Uint) -> G1Projective {
        let bits = k.bits();
        if bits == 0 || self.is_identity() {
            return Self::identity(self.ctx());
        }
        let table = self.multiples();
        let mut acc = Self::identity(self.ctx());
        for w in (0..bits.div_ceil(WINDOW)).rev() {
            for _ in 0..WINDOW {
                acc.double_step(false);
            }
            let digit = window_digit(k, w);
            if digit != 0 {
                acc = acc.add(&table[digit - 1]);
            }
        }
        acc
    }
}

impl PartialEq for G1Projective {
    fn eq(&self, other: &Self) -> bool {
        // Compare in affine coordinates to avoid the projective-class ambiguity.
        self.to_affine() == other.to_affine()
    }
}

impl Eq for G1Projective {}

impl core::fmt::Debug for G1Projective {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "G1Projective({:?})", self.to_affine())
    }
}

/// Normalises a slice of Jacobian points to affine coordinates with a
/// *single* field inversion (Montgomery's simultaneous-inversion trick on the
/// `Z` coordinates), instead of one inversion per point.
///
/// Used by the fixed-base table builder in [`crate::precomp`], where hundreds
/// of table entries are normalised at once.
pub(crate) fn batch_to_affine(points: &[G1Projective]) -> Vec<G1Affine> {
    let Some(first) = points.first() else {
        return Vec::new();
    };
    let ctx = first.ctx();
    let zs: Vec<Fp> = points
        .iter()
        .filter(|p| !p.is_identity())
        .map(|p| p.z.clone())
        .collect();
    let z_invs = Fp::batch_invert(&zs).expect("non-identity points have Z ≠ 0");
    let mut inv_iter = z_invs.into_iter();
    points
        .iter()
        .map(|p| {
            if p.is_identity() {
                return G1Affine::identity(ctx);
            }
            let z_inv = inv_iter.next().expect("one inverse per non-identity point");
            let z_inv_sq = z_inv.square();
            G1Affine::new_unchecked(p.x.mul(&z_inv_sq), p.y.mul(&z_inv_sq.mul(&z_inv)))
        })
        .collect()
}

/// Samples a uniformly random point of the full curve `E(F_p)` (not yet in the
/// prime-order subgroup) by try-and-increment on the x-coordinate.
pub fn random_curve_point<R: RngCore + CryptoRng>(ctx: &Arc<FpCtx>, rng: &mut R) -> G1Affine {
    loop {
        let x = Fp::random(ctx, rng);
        let rhs = &x.square().mul(&x) + &x;
        if let Some(y) = rhs.sqrt() {
            let y = if rng.next_u32() & 1 == 1 { y.neg() } else { y };
            if y.is_zero() && x.is_zero() {
                // (0, 0) is the 2-torsion point; skip it.
                continue;
            }
            return G1Affine::new_unchecked(x, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> Arc<FpCtx> {
        // P-192's p = 2^192 − 2^64 − 1 ≡ 3 (mod 4).  Fine for group-law
        // tests (the pairing tests use properly generated parameters).
        FpCtx::new(&Uint::from_hex("fffffffffffffffffffffffffffffffeffffffffffffffff").unwrap())
            .unwrap()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2024)
    }

    /// The compressed form older writers emitted: `0x00` for the identity
    /// or `0x02/0x03 ‖ x`, the tag carrying the parity of `y`.
    fn to_bytes_compressed(p: &G1Affine) -> Vec<u8> {
        if p.is_identity() {
            return vec![0x00];
        }
        let tag = if p.y().is_odd_repr() { 0x03 } else { 0x02 };
        [vec![tag], p.x().to_bytes()].concat()
    }

    #[test]
    fn random_points_are_on_curve() {
        let c = ctx();
        let mut r = rng();
        for _ in 0..10 {
            let p = random_curve_point(&c, &mut r);
            assert!(p.is_on_curve());
        }
    }

    #[test]
    fn identity_behaviour() {
        let c = ctx();
        let mut r = rng();
        let p = random_curve_point(&c, &mut r);
        let id = G1Affine::identity(&c);
        assert!(id.is_identity());
        assert!(id.is_on_curve());
        assert_eq!(id.add(&p), p);
        assert_eq!(p.add(&id), p);
        assert_eq!(id.add(&id), id);
        assert!(p.add(&p.neg()).is_identity());
        assert_eq!(id.neg(), id);
        assert!(id.double().is_identity());
    }

    #[test]
    fn group_law_spot_checks() {
        let c = ctx();
        let mut r = rng();
        for _ in 0..10 {
            let p = random_curve_point(&c, &mut r);
            let q = random_curve_point(&c, &mut r);
            let s = random_curve_point(&c, &mut r);
            // Commutativity.
            assert_eq!(p.add(&q), q.add(&p));
            // Associativity.
            assert_eq!(p.add(&q).add(&s), p.add(&q.add(&s)));
            // Doubling consistency.
            assert_eq!(p.add(&p), p.double());
            // Closure.
            assert!(p.add(&q).is_on_curve());
        }
    }

    #[test]
    fn projective_matches_affine() {
        let c = ctx();
        let mut r = rng();
        for _ in 0..10 {
            let p = random_curve_point(&c, &mut r);
            let q = random_curve_point(&c, &mut r);
            let pp = G1Projective::from_affine(&p);
            let qq = G1Projective::from_affine(&q);
            assert_eq!(pp.add(&qq).to_affine(), p.add(&q));
            assert_eq!(pp.double().to_affine(), p.double());
            assert_eq!(pp.add(&pp).to_affine(), p.double());
            assert_eq!(pp.add(&G1Projective::identity(&c)).to_affine(), p);
            // Adding the negation gives the identity.
            let neg = G1Projective::from_affine(&p.neg());
            assert!(pp.add(&neg).is_identity());
        }
    }

    /// `p + q` by the in-place mixed addition, on a copy.
    fn add_affine(p: &G1Projective, q: &G1Affine) -> G1Projective {
        let mut sum = p.clone();
        sum.add_affine_step(q, false);
        sum
    }

    #[test]
    fn mixed_addition_matches_general_addition() {
        let c = ctx();
        let mut r = rng();
        for _ in 0..10 {
            let p = random_curve_point(&c, &mut r);
            let q = random_curve_point(&c, &mut r);
            let pp = G1Projective::from_affine(&p);
            assert_eq!(add_affine(&pp, &q), pp.add(&G1Projective::from_affine(&q)));
            // Degenerate cases: doubling, inverse, and identities.
            assert_eq!(add_affine(&pp, &p), pp.double());
            assert!(add_affine(&pp, &p.neg()).is_identity());
            assert_eq!(add_affine(&pp, &G1Affine::identity(&c)), pp);
            assert_eq!(
                add_affine(&G1Projective::identity(&c), &p).to_affine(),
                p.clone()
            );
            // A non-trivial Z₁ (from a prior addition) exercises the real
            // mixed formula rather than the Z₁ = 1 shortcut.
            let shifted = pp.add(&G1Projective::from_affine(&q));
            assert_eq!(
                add_affine(&shifted, &p),
                shifted.add(&G1Projective::from_affine(&p))
            );
        }
    }

    #[test]
    fn batch_normalisation_matches_individual() {
        let c = ctx();
        let mut r = rng();
        let mut points: Vec<G1Projective> = (0..7)
            .map(|_| {
                let a = random_curve_point(&c, &mut r);
                let b = random_curve_point(&c, &mut r);
                // Additions give Z ≠ 1, exercising the real normalisation.
                G1Projective::from_affine(&a).add(&G1Projective::from_affine(&b))
            })
            .collect();
        points.insert(3, G1Projective::identity(&c));
        let affine = batch_to_affine(&points);
        assert_eq!(affine.len(), points.len());
        for (p, a) in points.iter().zip(&affine) {
            assert_eq!(&p.to_affine(), a);
        }
        assert!(affine[3].is_identity());
        assert!(batch_to_affine(&[]).is_empty());
    }

    #[test]
    fn scalar_multiplication_small_multiples() {
        let c = ctx();
        let mut r = rng();
        let p = random_curve_point(&c, &mut r);
        let mut acc = G1Affine::identity(&c);
        for k in 0u64..=12 {
            assert_eq!(p.mul_uint(&Uint::from_u64(k)), acc, "k = {k}");
            acc = acc.add(&p);
        }
    }

    #[test]
    fn scalar_multiplication_distributes() {
        let c = ctx();
        let mut r = rng();
        let p = random_curve_point(&c, &mut r);
        let a = Uint::from_u64(123456789);
        let b = Uint::from_u64(987654321);
        let sum = a.checked_add(&b).unwrap();
        assert_eq!(p.mul_uint(&a).add(&p.mul_uint(&b)), p.mul_uint(&sum));
        // (a*b)P == a(bP)
        let prod = a.checked_mul(&b).unwrap();
        assert_eq!(p.mul_uint(&b).mul_uint(&a), p.mul_uint(&prod));
    }

    #[test]
    fn two_torsion_point_doubles_to_identity() {
        let c = ctx();
        // (0, 0) satisfies y² = x³ + x and is the rational 2-torsion point.
        let p = G1Affine::new(Fp::zero(&c), Fp::zero(&c)).unwrap();
        assert!(p.is_on_curve());
        assert!(p.double().is_identity());
        assert_eq!(p.add(&p), G1Affine::identity(&c));
    }

    #[test]
    fn point_construction_validates() {
        let c = ctx();
        assert!(G1Affine::new(Fp::from_u64(&c, 1), Fp::from_u64(&c, 1)).is_err());
        let mut r = rng();
        let p = random_curve_point(&c, &mut r);
        assert!(G1Affine::new(p.x().clone(), p.y().clone()).is_ok());
        assert!(G1Affine::new(p.x().clone(), &p.y().clone() + &Fp::one(&c)).is_err());
    }

    #[test]
    fn serialization_round_trips() {
        let c = ctx();
        let mut r = rng();
        let p = random_curve_point(&c, &mut r);
        // Uncompressed.
        let bytes = p.to_bytes();
        assert_eq!(bytes.len(), 1 + 2 * c.byte_len());
        assert_eq!(G1Affine::from_bytes(&c, &bytes).unwrap(), p);
        // Compressed.
        let compressed = to_bytes_compressed(&p);
        assert_eq!(compressed.len(), 1 + c.byte_len());
        assert_eq!(G1Affine::from_bytes(&c, &compressed).unwrap(), p);
        // Identity.
        let id = G1Affine::identity(&c);
        assert_eq!(G1Affine::from_bytes(&c, &id.to_bytes()).unwrap(), id);
        assert_eq!(
            G1Affine::from_bytes(&c, &to_bytes_compressed(&id)).unwrap(),
            id
        );
    }

    #[test]
    fn serialization_rejects_garbage() {
        let c = ctx();
        assert!(G1Affine::from_bytes(&c, &[]).is_err());
        assert!(G1Affine::from_bytes(&c, &[0x05]).is_err());
        assert!(G1Affine::from_bytes(&c, &[0x04, 1, 2, 3]).is_err());
        // A valid-length uncompressed encoding that is not on the curve.
        let mut bad = vec![0x04];
        bad.extend(Fp::from_u64(&c, 1).to_bytes());
        bad.extend(Fp::from_u64(&c, 1).to_bytes());
        assert!(G1Affine::from_bytes(&c, &bad).is_err());
        // A compressed encoding whose x has no corresponding y.
        let mut r = rng();
        loop {
            let x = Fp::random(&c, &mut r);
            let rhs = &x.square().mul(&x) + &x;
            if rhs.sqrt().is_none() {
                let mut enc = vec![0x02];
                enc.extend(x.to_bytes());
                assert!(G1Affine::from_bytes(&c, &enc).is_err());
                break;
            }
        }
    }

    /// `(0, 0)` has order 2 and `(±1, √(x³ + x))` order 4, for the one
    /// sign whose `x³ + x = ±2` is a square (`p ≡ 3 (mod 4)`, so −1 is not):
    /// `x = −1` at toy, `x = 1` at 80 bits.  Both are on the curve and
    /// outside the subgroup; a walk that stops adding once its accumulator
    /// returns to the identity would admit them.
    #[test]
    fn small_order_points_are_outside_the_subgroup() {
        use crate::{PairingParams, SecurityLevel};
        for (level, x_is_one) in [(SecurityLevel::Toy, false), (SecurityLevel::Low80, true)] {
            let params = PairingParams::cached(level);
            let c = params.fp_ctx();
            let two = G1Affine::new(Fp::zero(c), Fp::zero(c)).unwrap();
            let four: Vec<G1Affine> = [Fp::one(c), Fp::one(c).neg()]
                .into_iter()
                .filter_map(|x| {
                    let y = (&x.square().mul(&x) + &x).sqrt()?;
                    Some(G1Affine::new(x, y).unwrap())
                })
                .collect();
            assert_eq!(four.len(), 1, "{level:?}");
            assert_eq!(four[0].x().is_one(), x_is_one, "{level:?}");
            assert_eq!(four[0].double(), two, "{level:?}");
            assert!(!two.is_in_subgroup(params.q()), "{level:?}");
            assert!(!four[0].is_in_subgroup(params.q()), "{level:?}");
        }
    }

    #[test]
    fn mul_by_zero_and_one() {
        let c = ctx();
        let mut r = rng();
        let p = random_curve_point(&c, &mut r);
        assert!(p.mul_uint(&Uint::ZERO).is_identity());
        assert_eq!(p.mul_uint(&Uint::ONE), p);
        let id = G1Affine::identity(&c);
        assert!(id.mul_uint(&Uint::from_u64(12345)).is_identity());
    }
}
