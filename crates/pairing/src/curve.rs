//! The supersingular curve `E : y² = x³ + x` over `F_p` and its prime-order subgroup.
//!
//! With `p ≡ 3 (mod 4)` the curve is supersingular and has exactly `p + 1`
//! points over `F_p`.  The parameter generator picks `p = h·q − 1`, so the
//! group of rational points contains a subgroup of prime order `q`; that
//! subgroup is the pairing group `G` of the paper.
//!
//! Two representations are provided: [`G1Affine`] (the canonical, serialisable
//! form, with simple textbook addition used as the reference implementation)
//! and [`G1Projective`] (Jacobian coordinates, inversion-free, used for scalar
//! multiplication).  The test-suite cross-checks the two against each other.

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
    pub fn mul_uint(&self, k: &Uint) -> G1Affine {
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

    /// Compressed encoding: `0x00` for the identity or `0x02/0x03 || x` with
    /// the tag carrying the parity of `y`.
    pub fn to_bytes_compressed(&self) -> Vec<u8> {
        if self.infinity {
            return vec![0x00];
        }
        let mut out = Vec::with_capacity(1 + self.ctx().byte_len());
        out.push(if self.y.is_odd_repr() { 0x03 } else { 0x02 });
        out.extend(self.x.to_bytes());
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

    /// Decompresses an x-coordinate plus a y-parity bit, re-validating the
    /// curve equation (an x with no square root on the right-hand side is
    /// rejected).  Shared by [`Self::from_bytes`] and the wire codec.
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

    /// Decodes either encoding, re-validating the curve equation.
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

/// A point in Jacobian projective coordinates `(X : Y : Z)`, representing the
/// affine point `(X/Z², Y/Z³)`; the identity has `Z = 0`.
#[derive(Clone)]
pub struct G1Projective {
    x: Fp,
    y: Fp,
    z: Fp,
}

impl G1Projective {
    /// The group identity.
    pub fn identity(ctx: &Arc<FpCtx>) -> Self {
        G1Projective {
            x: Fp::one(ctx),
            y: Fp::one(ctx),
            z: Fp::zero(ctx),
        }
    }

    /// Lifts an affine point.
    pub fn from_affine(p: &G1Affine) -> Self {
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
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// The field context.
    pub fn ctx(&self) -> &Arc<FpCtx> {
        self.x.ctx()
    }

    /// Normalises back to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> G1Affine {
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

    /// Jacobian doubling (general formula with curve coefficient `a = 1`):
    /// `S = 4XY²`, `M = 3X² + Z⁴`, `X' = M² − 2S`, `Y' = M(S − X') − 8Y⁴`, `Z' = 2YZ`.
    pub fn double(&self) -> G1Projective {
        if self.is_identity() || self.y.is_zero() {
            return Self::identity(self.ctx());
        }
        let y_sq = self.y.square();
        let s = self.x.mul(&y_sq).double().double();
        let z_sq = self.z.square();
        let m = &self.x.square().triple() + &z_sq.square();
        let x3 = &m.square() - &s.double();
        let y3 = &m.mul(&(&s - &x3)) - &y_sq.square().double().double().double();
        let z3 = self.y.double().mul(&self.z);
        G1Projective {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General Jacobian addition.
    pub fn add(&self, other: &G1Projective) -> G1Projective {
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

    /// Mixed addition with an affine point (`Z₂ = 1`), which saves the general
    /// formula's four `Z₂` multiplications: `U₂ = x₂Z₁²`, `S₂ = y₂Z₁³`,
    /// `H = U₂ − X₁`, `r = S₂ − Y₁`, `X₃ = r² − H³ − 2X₁H²`,
    /// `Y₃ = r(X₁H² − X₃) − Y₁H³`, `Z₃ = Z₁H`.
    ///
    /// This is the inner loop of the fixed-base tables in [`crate::precomp`],
    /// where every table entry is affine.
    pub fn add_affine(&self, other: &G1Affine) -> G1Projective {
        if self.is_identity() {
            return G1Projective::from_affine(other);
        }
        if other.is_identity() {
            return self.clone();
        }
        let z1_sq = self.z.square();
        let u2 = other.x().mul(&z1_sq);
        let s2 = other.y().mul(&z1_sq.mul(&self.z));
        if u2 == self.x {
            if s2 == self.y {
                return self.double();
            }
            return Self::identity(self.ctx());
        }
        let h = &u2 - &self.x;
        let r = &s2 - &self.y;
        let h_sq = h.square();
        let h_cu = h_sq.mul(&h);
        let v = self.x.mul(&h_sq);
        let x3 = &(&r.square() - &h_cu) - &v.double();
        let y3 = &r.mul(&(&v - &x3)) - &self.y.mul(&h_cu);
        let z3 = self.z.mul(&h);
        G1Projective {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Scalar multiplication by a fixed 4-bit window over the bits of `k`:
    /// one table of the odd-and-even multiples `1·P … 15·P` up front, then
    /// four doublings plus at most one table addition per window — roughly
    /// half the additions of plain double-and-add for the scalar sizes the
    /// scheme uses.
    pub fn mul_uint(&self, k: &Uint) -> G1Projective {
        const WINDOW: usize = 4;
        const TABLE_LEN: usize = (1 << WINDOW) - 1;

        let bits = k.bits();
        if bits == 0 || self.is_identity() {
            return Self::identity(self.ctx());
        }
        if bits <= WINDOW {
            // Tiny scalars: the table would cost more than it saves.
            let mut acc = Self::identity(self.ctx());
            for i in (0..bits).rev() {
                acc = acc.double();
                if k.bit(i) {
                    acc = acc.add(self);
                }
            }
            return acc;
        }

        // table[j] = (j + 1)·P; even multiples come from a doubling, odd ones
        // from one addition.
        let mut table: Vec<G1Projective> = Vec::with_capacity(TABLE_LEN);
        table.push(self.clone());
        for j in 1..TABLE_LEN {
            let next = if (j + 1) % 2 == 0 {
                table[j.div_ceil(2) - 1].double()
            } else {
                table[j - 1].add(self)
            };
            table.push(next);
        }

        let windows = bits.div_ceil(WINDOW);
        let mut acc = Self::identity(self.ctx());
        for w in (0..windows).rev() {
            for _ in 0..WINDOW {
                acc = acc.double();
            }
            let mut idx = 0usize;
            for b in (0..WINDOW).rev() {
                let i = w * WINDOW + b;
                idx = (idx << 1) | usize::from(i < bits && k.bit(i));
            }
            if idx != 0 {
                acc = acc.add(&table[idx - 1]);
            }
        }
        acc
    }

    /// Scalar multiplication by an element of `Z_q`.
    pub fn mul_scalar(&self, k: &Scalar) -> G1Projective {
        self.mul_uint(&k.to_uint())
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
pub fn batch_to_affine(points: &[G1Projective]) -> Vec<G1Affine> {
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

    #[test]
    fn mixed_addition_matches_general_addition() {
        let c = ctx();
        let mut r = rng();
        for _ in 0..10 {
            let p = random_curve_point(&c, &mut r);
            let q = random_curve_point(&c, &mut r);
            let pp = G1Projective::from_affine(&p);
            assert_eq!(pp.add_affine(&q), pp.add(&G1Projective::from_affine(&q)));
            // Degenerate cases: doubling, inverse, and identities.
            assert_eq!(pp.add_affine(&p), pp.double());
            assert!(pp.add_affine(&p.neg()).is_identity());
            assert_eq!(pp.add_affine(&G1Affine::identity(&c)), pp);
            assert_eq!(
                G1Projective::identity(&c).add_affine(&p).to_affine(),
                p.clone()
            );
            // A non-trivial Z₁ (from a prior addition) exercises the real
            // mixed formula rather than the Z₁ = 1 shortcut.
            let shifted = pp.add(&G1Projective::from_affine(&q));
            assert_eq!(
                shifted.add_affine(&p),
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
        let compressed = p.to_bytes_compressed();
        assert_eq!(compressed.len(), 1 + c.byte_len());
        assert_eq!(G1Affine::from_bytes(&c, &compressed).unwrap(), p);
        // Identity.
        let id = G1Affine::identity(&c);
        assert_eq!(G1Affine::from_bytes(&c, &id.to_bytes()).unwrap(), id);
        assert_eq!(
            G1Affine::from_bytes(&c, &id.to_bytes_compressed()).unwrap(),
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
