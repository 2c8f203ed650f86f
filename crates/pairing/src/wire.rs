//! [`WireEncode`] / [`WireDecode`] implementations for the pairing
//! primitives, the [`DecodeCtx`] the scheme layers decode under, and the
//! [`Field`] codecs a declared scheme value's elements travel by.
//!
//! # Layouts
//!
//! | type | v0 (legacy) | v1 (default) |
//! |---|---|---|
//! | [`Fp`] | fixed `len(p)` bytes BE | same |
//! | [`Fp2`] | `c0 ‖ c1` | same |
//! | [`Scalar`] | fixed `len(q)` bytes BE | same |
//! | [`G1Affine`] | `0x04 ‖ x ‖ y` (`0x00` = identity) | same |
//! | [`Gt`] | raw `c0 ‖ c1` | `0x05 ‖ t` on the norm-1 torus, `0x04 ‖ c0 ‖ c1` off it (and `−1`) |
//!
//! The `v0` layouts are byte-identical to the pre-`tibpre-wire` encodings,
//! which is what lets durable data written before this crate existed decode
//! through the same code path.  No `v1` decode solves a square root in
//! `Fp`: a `G1` point travels with both coordinates, so its decode *checks*
//! `y² = x³ + x`, and a torus element travels as its torus coordinate
//! `t = c1 / (1 + c0)`, so its decode *computes* `c0 = (1 − t²)/(1 + t²)`
//! and `c1 = 2t/(1 + t²)` with one inversion.  The compressed `v1` forms
//! older writers emitted, `0x02/0x03 ‖ x` and `0x02/0x03 ‖ c0` (the tag is
//! the parity of `y` or `c1`), are still read, so stored data is read as it
//! was written.
//!
//! # Validation at the boundary
//!
//! Decoding validates **canonical range** (every field element `< p`) and
//! **curve membership** for `G1` points.  The scheme values (ciphertexts,
//! keys, parameters) are declared with [`tibpre_wire::message!`], and their
//! elements travel by the [`Field`] codecs here:
//!
//! * A declared [`G1Affine`] field is **always subgroup-checked**
//!   (`q·P = O`, [`decode_g1_in_subgroup`]): an attacker-controlled `c₁`,
//!   `rk₂`, KGC key or private key outside the prime-order subgroup would
//!   leak key bits through the pairings the proxy and the holders compute.
//!   A bare [`G1Affine::decode`] checks only the curve.
//! * A declared [`Gt`] field is range/torus-validated only.  `Gt`
//!   **subgroup** membership (`v^q = 1`) costs a full exponentiation per
//!   element, and the scheme layers never needed it: a mask or message
//!   outside the subgroup decrypts to garbage but breaks nothing, which is
//!   why the legacy code used `Gt::from_bytes_unchecked` everywhere.  The
//!   `v1` layout does not change that acceptance policy (off-torus values
//!   still decode, under the `0x04` tag), but it makes torus membership
//!   *explicit*: the torus tag names norm-1 elements only, and the `0x04`
//!   tag refuses every element the torus tag names, so the tag never lies
//!   and a writer emits exactly one encoding per value.  Callers that do
//!   need the full subgroup check use [`Gt::from_bytes`].
//! * The pairing parameters never travel: a declared
//!   `Arc<PairingParams>` field is filled from the decode context
//!   ([`FromCtx`]).
//!
//! A re-encrypted ciphertext's `c'₃` is only framed ([`skip_g1`],
//! [`skip_gt`]) and decoded when both of a delegatee's mask tiers miss.

use crate::curve::G1Affine;
use crate::fp::{Fp, FpCtx};
use crate::fp2::Fp2;
use crate::gt::Gt;
use crate::params::PairingParams;
use crate::scalar::{Scalar, ScalarCtx};
use std::sync::Arc;
use tibpre_bigint::Uint;
use tibpre_wire::{Codec, DecodeError, Field, Reader, WireDecode, WireEncode, WireVersion, Writer};

/// The decode-time context of the scheme layers: the pairing parameters
/// every group element is validated against, exactly once, at the wire
/// boundary.
#[derive(Debug, Clone)]
pub struct DecodeCtx {
    params: Arc<PairingParams>,
}

impl DecodeCtx {
    /// Wraps the shared pairing parameters.
    pub fn new(params: Arc<PairingParams>) -> Self {
        DecodeCtx { params }
    }

    /// The pairing parameters.
    pub fn params(&self) -> &Arc<PairingParams> {
        &self.params
    }

    /// The base-field context.
    pub fn fp_ctx(&self) -> &Arc<FpCtx> {
        self.params.fp_ctx()
    }

    /// The scalar-field context.
    pub fn scalar_ctx(&self) -> &Arc<ScalarCtx> {
        self.params.scalar_ctx()
    }

    /// The prime group order `q`.
    pub fn q(&self) -> &Uint {
        self.params.q()
    }
}

impl From<&Arc<PairingParams>> for DecodeCtx {
    fn from(params: &Arc<PairingParams>) -> Self {
        DecodeCtx::new(Arc::clone(params))
    }
}

/// Maps a validation failure onto a [`DecodeError`] at the reader's
/// current offset.
fn invalid_at(r: &Reader<'_>, what: &'static str) -> DecodeError {
    DecodeError::invalid(r.offset(), what)
}

/// Decodes a `G1` point and checks prime-order subgroup membership
/// (`q·P = O`) — the decode of every declared `G1` field.  `what` names the
/// failure in the error.
pub fn decode_g1_in_subgroup(
    r: &mut Reader<'_>,
    ctx: &DecodeCtx,
    what: &'static str,
) -> Result<G1Affine, DecodeError> {
    let start = r.offset();
    let point = G1Affine::decode(r, ctx.fp_ctx())?;
    // The scalar multiplication `q·P` dominates hot-path decoding, and the
    // same few points recur constantly (a record's `c1` on every disclosure,
    // at the proxy and again in the bundle), so successful checks are memoised
    // process-wide by the exact canonical encoding.  Identical bytes decode
    // to the identical point, so a hit is as strong as a fresh check.
    let encoded = r.window(start);
    if ctx.params().g1_subgroup_memo_contains(encoded) {
        return Ok(point);
    }
    if !point.is_in_subgroup(ctx.q()) {
        return Err(DecodeError::invalid(start, what));
    }
    ctx.params().g1_subgroup_memo_insert(encoded);
    Ok(point)
}

/// A declared `G1` field: subgroup-checked on decode.
impl Field<DecodeCtx> for G1Affine {
    fn put(&self, w: &mut Writer) {
        self.encode(w);
    }
    fn read(r: &mut Reader<'_>, ctx: &DecodeCtx) -> Result<Self, DecodeError> {
        decode_g1_in_subgroup(r, ctx, "G1 point outside the prime-order subgroup")
    }
}

/// A declared `Gt` field: range/torus-validated on decode.
impl Field<DecodeCtx> for Gt {
    fn put(&self, w: &mut Writer) {
        self.encode(w);
    }
    fn read(r: &mut Reader<'_>, ctx: &DecodeCtx) -> Result<Self, DecodeError> {
        Gt::decode(r, ctx.fp_ctx())
    }
}

/// The codec of a declared `Arc<PairingParams>` field: nothing is written,
/// and a decode takes the parameters of its context.
pub struct FromCtx;

impl Codec<Arc<PairingParams>, DecodeCtx> for FromCtx {
    fn put(_: &Arc<PairingParams>, _: &mut Writer) {}
    fn read(_: &mut Reader<'_>, ctx: &DecodeCtx) -> Result<Arc<PairingParams>, DecodeError> {
        Ok(Arc::clone(ctx.params()))
    }
}

/// Advances `r` over one encoded `G1` point, checking only its tag.
pub fn skip_g1(r: &mut Reader<'_>, ctx: &FpCtx) -> Result<(), DecodeError> {
    let start = r.offset();
    let len = match r.u8()? {
        0x00 => 0,
        0x02 | 0x03 => ctx.byte_len(),
        0x04 => 2 * ctx.byte_len(),
        other => return Err(DecodeError::invalid_tag(start, "G1 point", other)),
    };
    r.skip(len)
}

/// [`skip_g1`] for a `Gt` element in the `v1` layout.
pub fn skip_gt(r: &mut Reader<'_>, ctx: &FpCtx) -> Result<(), DecodeError> {
    let start = r.offset();
    let len = match r.u8()? {
        gt_tag::EVEN | gt_tag::ODD | gt_tag::TORUS => ctx.byte_len(),
        gt_tag::FULL => 2 * ctx.byte_len(),
        other => return Err(DecodeError::invalid_tag(start, "Gt element", other)),
    };
    r.skip(len)
}

impl WireEncode for Fp {
    fn encode(&self, w: &mut Writer) {
        w.put_slice(&self.to_bytes());
    }
}

impl WireDecode for Fp {
    type Ctx = Arc<FpCtx>;

    fn decode(r: &mut Reader<'_>, ctx: &Self::Ctx) -> Result<Self, DecodeError> {
        let start = r.offset();
        let bytes = r.take(ctx.byte_len())?;
        Fp::from_bytes(ctx, bytes).map_err(|_| DecodeError::invalid(start, "field element"))
    }
}

impl WireEncode for Fp2 {
    fn encode(&self, w: &mut Writer) {
        self.c0.encode(w);
        self.c1.encode(w);
    }
}

impl WireDecode for Fp2 {
    type Ctx = Arc<FpCtx>;

    fn decode(r: &mut Reader<'_>, ctx: &Self::Ctx) -> Result<Self, DecodeError> {
        Ok(Fp2::new(Fp::decode(r, ctx)?, Fp::decode(r, ctx)?))
    }
}

impl WireEncode for Scalar {
    fn encode(&self, w: &mut Writer) {
        w.put_slice(&self.to_bytes());
    }
}

impl WireDecode for Scalar {
    type Ctx = Arc<ScalarCtx>;

    fn decode(r: &mut Reader<'_>, ctx: &Self::Ctx) -> Result<Self, DecodeError> {
        let start = r.offset();
        let bytes = r.take(ctx.byte_len())?;
        Scalar::from_bytes(ctx, bytes).map_err(|_| DecodeError::invalid(start, "scalar"))
    }
}

impl WireEncode for G1Affine {
    /// `0x04 ‖ x ‖ y` (`0x00` = identity) under either version.
    fn encode(&self, w: &mut Writer) {
        w.put_slice(&self.to_bytes());
    }
}

impl WireDecode for G1Affine {
    type Ctx = Arc<FpCtx>;

    /// The point tags are self-describing, so the decoder accepts both the
    /// uncompressed form and the compressed one older writers emitted,
    /// under either version.  Curve membership is
    /// validated here; a declared field adds the subgroup check (see the
    /// [module docs](self)).
    fn decode(r: &mut Reader<'_>, ctx: &Self::Ctx) -> Result<Self, DecodeError> {
        let start = r.offset();
        let tag = r.u8()?;
        let flen = ctx.byte_len();
        match tag {
            0x00 => Ok(G1Affine::identity(ctx)),
            0x04 => {
                let body = r.take(2 * flen)?;
                G1Affine::decode_uncompressed(ctx, &body[..flen], &body[flen..])
                    .map_err(|_| DecodeError::invalid(start, "uncompressed G1 point"))
            }
            0x02 | 0x03 => {
                let body = r.take(flen)?;
                G1Affine::decode_compressed(ctx, tag == 0x03, body)
                    .map_err(|_| DecodeError::invalid(start, "compressed G1 point"))
            }
            other => Err(DecodeError::invalid_tag(start, "G1 point", other)),
        }
    }
}

/// `Gt` tags (v1 only; v0 is the raw two-coordinate layout).
mod gt_tag {
    /// Compressed (read only), `c1` has an even canonical representative.
    pub const EVEN: u8 = 0x02;
    /// Compressed (read only), `c1` has an odd canonical representative.
    pub const ODD: u8 = 0x03;
    /// Both coordinates: values off the norm-1 torus (which never appear
    /// in honest protocol runs) and `−1`, the one torus member with no
    /// torus coordinate.
    pub const FULL: u8 = 0x04;
    /// The torus coordinate `t`: every other norm-1 element, every honest
    /// element among them.
    pub const TORUS: u8 = 0x05;
}

/// The torus coordinate `t = c1 / (1 + c0)` of a norm-1 element `v ≠ −1`
/// (`c0² + c1² = 1`), from which `v = (1 − t² + 2t·i) / (1 + t²)`.
/// Genuine subgroup elements have one (`q | p + 1`, so `v·v̄ = v^{p+1} = 1`,
/// and `q` is odd); others exist only through `from_fp2_unchecked`.
fn torus_coordinate(v: &Fp2) -> Option<Fp> {
    if !(&v.c0.square() + &v.c1.square()).is_one() {
        return None;
    }
    let denominator = (&v.c0 + &Fp::one(v.c0.ctx())).invert().ok()?;
    Some(v.c1.mul(&denominator))
}

impl WireEncode for Gt {
    /// Under v1, the torus tag and the torus coordinate, or `0x04` and
    /// both coordinates for a value without one.
    fn encode(&self, w: &mut Writer) {
        match w.version() {
            WireVersion::V0 => w.put_slice(&self.to_bytes()),
            WireVersion::V1 => match torus_coordinate(self.as_fp2()) {
                Some(t) => w.put_slice(&[&[gt_tag::TORUS][..], &t.to_bytes()].concat()),
                None => w.put_slice(&[&[gt_tag::FULL][..], &self.to_bytes()].concat()),
            },
        }
    }
}

impl WireDecode for Gt {
    type Ctx = Arc<FpCtx>;

    /// Validates canonical range always.  Under v1 the tag truthfully
    /// reports torus membership: every `t < p` under the torus tag names one
    /// torus member, the `0x04` tag *rejects* those members, and a
    /// compressed tag (read only) proves norm 1 by construction
    /// (decompression solves `c1² = 1 − c0²`).  Off-torus values are still
    /// accepted (a bad mask decrypts to garbage, nothing more); the full
    /// `v^q = 1` subgroup check is [`Gt::from_bytes`].
    fn decode(r: &mut Reader<'_>, ctx: &Self::Ctx) -> Result<Self, DecodeError> {
        match r.version() {
            WireVersion::V0 => {
                let value = Fp2::decode(r, ctx)?;
                Ok(Gt::from_fp2_unchecked(value))
            }
            WireVersion::V1 => {
                let start = r.offset();
                let tag = r.u8()?;
                match tag {
                    gt_tag::TORUS => {
                        let t = Fp::decode(r, ctx)?;
                        let (one, t2) = (Fp::one(ctx), t.square());
                        // Never zero: −1 is no square when p ≡ 3 (mod 4).
                        let inverse = (&one + &t2)
                            .invert()
                            .map_err(|_| invalid_at(r, "Gt torus coordinate with 1 + t² = 0"))?;
                        let c0 = (&one - &t2).mul(&inverse);
                        Ok(Gt::from_fp2_unchecked(Fp2::new(
                            c0,
                            t.double().mul(&inverse),
                        )))
                    }
                    gt_tag::EVEN | gt_tag::ODD => {
                        let c0 = Fp::decode(r, ctx)?;
                        // c1² = 1 − c0²; an x off the torus has no root.
                        let c1_sq = &Fp::one(ctx) - &c0.square();
                        let mut c1 = c1_sq
                            .sqrt()
                            .ok_or_else(|| invalid_at(r, "compressed Gt element"))?;
                        if c1.is_odd_repr() != (tag == gt_tag::ODD) {
                            c1 = c1.neg();
                        }
                        // Re-check after the fix-up: when c1 = 0 (c0 = ±1)
                        // negation cannot produce the requested odd parity,
                        // and accepting the mismatched tag would give those
                        // elements two encodings.
                        if c1.is_odd_repr() != (tag == gt_tag::ODD) {
                            return Err(invalid_at(
                                r,
                                "non-canonical Gt encoding (impossible c1 parity)",
                            ));
                        }
                        Ok(Gt::from_fp2_unchecked(Fp2::new(c0, c1)))
                    }
                    gt_tag::FULL => {
                        let value = Fp2::decode(r, ctx)?;
                        // A value the torus tag names must travel under it:
                        // otherwise one value would have two encodings and
                        // the tag would lie about torus membership.
                        if torus_coordinate(&value).is_some() {
                            return Err(DecodeError::invalid(
                                start,
                                "non-canonical Gt encoding (torus member in full layout)",
                            ));
                        }
                        Ok(Gt::from_fp2_unchecked(value))
                    }
                    other => Err(DecodeError::invalid_tag(start, "Gt element", other)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tibpre_wire::{decode_bare, encode_bare};

    fn params() -> Arc<PairingParams> {
        PairingParams::insecure_toy()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x31173)
    }

    /// The compressed `G1` form older writers emitted: `0x02/0x03 ‖ x`.
    fn g1_compressed(p: &G1Affine) -> Vec<u8> {
        let tag = if p.y().is_odd_repr() { 0x03 } else { 0x02 };
        [vec![tag], p.x().to_bytes()].concat()
    }

    /// The compressed `Gt` form older writers emitted for a torus member:
    /// the parity of `c1` as the tag, then `c0`.
    fn gt_compressed(g: &Gt) -> Vec<u8> {
        let v = g.as_fp2();
        let norm = &v.c0.square() + &v.c1.square();
        assert!(norm.is_one(), "only torus members were compressed");
        let tag = if v.c1.is_odd_repr() {
            gt_tag::ODD
        } else {
            gt_tag::EVEN
        };
        [vec![tag], v.c0.to_bytes()].concat()
    }

    #[test]
    fn g1_round_trips_both_versions() {
        let pp = params();
        let mut r = rng();
        let ctx = pp.fp_ctx().clone();
        for _ in 0..5 {
            let p = pp.random_g1(&mut r);
            let v0 = encode_bare(&p, WireVersion::V0);
            let v1 = encode_bare(&p, WireVersion::V1);
            assert_eq!(v0, p.to_bytes(), "v0 must match the legacy layout");
            assert_eq!(v1, v0, "both versions carry both coordinates");
            assert_eq!(v1.len(), 1 + 2 * ctx.byte_len());
            // Tags are self-describing: the compressed form older writers
            // emitted still decodes, under either version.
            let old = g1_compressed(&p);
            for (bytes, v) in [(&v0, WireVersion::V0), (&v1, WireVersion::V1)] {
                assert_eq!(decode_bare::<G1Affine>(bytes, v, &ctx).unwrap(), p);
                assert_eq!(decode_bare::<G1Affine>(&old, v, &ctx).unwrap(), p);
            }
        }
        // Identity round-trips in both versions.
        let id = pp.g1_identity();
        for v in [WireVersion::V0, WireVersion::V1] {
            let bytes = encode_bare(&id, v);
            assert_eq!(bytes, vec![0x00]);
            assert_eq!(decode_bare::<G1Affine>(&bytes, v, &ctx).unwrap(), id);
        }
    }

    #[test]
    fn g1_subgroup_memo_serves_repeats_and_never_admits_bad_points() {
        let pp = params();
        let mut r = rng();
        let ctx = DecodeCtx::from(&pp);
        let p = pp.random_g1(&mut r);
        let bytes = encode_bare(&p, WireVersion::V1);
        // The first decode pays the q·P check and memoises the encoding;
        // the repeat is a lookup with the identical result.
        let mut rd = Reader::with_version(&bytes, WireVersion::V1);
        assert_eq!(decode_g1_in_subgroup(&mut rd, &ctx, "p").unwrap(), p);
        assert!(pp.g1_subgroup_memo_contains(&bytes));
        let mut rd = Reader::with_version(&bytes, WireVersion::V1);
        assert_eq!(decode_g1_in_subgroup(&mut rd, &ctx, "p").unwrap(), p);

        // A curve point outside the order-q subgroup is rejected, and
        // rejected again on retry — failures are never memoised.
        let bad = loop {
            let cand = crate::curve::random_curve_point(pp.fp_ctx(), &mut r);
            if !cand.is_in_subgroup(pp.q()) {
                break cand;
            }
        };
        let bad_bytes = encode_bare(&bad, WireVersion::V1);
        for bytes in [bad_bytes, g1_compressed(&bad)] {
            for _ in 0..2 {
                let mut rd = Reader::with_version(&bytes, WireVersion::V1);
                assert!(decode_g1_in_subgroup(&mut rd, &ctx, "p").is_err());
                assert!(!pp.g1_subgroup_memo_contains(&bytes));
            }
        }

        // Old and new bytes of one point are two keys, each inserted only
        // after its own check, and both decode to the same point.  The
        // memo never serves a key for other bytes: `(x, −y)` is `−P`, and
        // an `x` shared with a memoised point is refused off the curve.
        let q = pp.random_g1(&mut r);
        let (new, old) = (encode_bare(&q, WireVersion::V1), g1_compressed(&q));
        for bytes in [&old, &new, &old, &new] {
            let mut rd = Reader::with_version(bytes, WireVersion::V1);
            assert_eq!(decode_g1_in_subgroup(&mut rd, &ctx, "p").unwrap(), q);
            assert!(pp.g1_subgroup_memo_contains(bytes));
        }
        let minus = encode_bare(&q.neg(), WireVersion::V1);
        assert_eq!(
            minus[..1 + pp.fp_ctx().byte_len()],
            new[..1 + pp.fp_ctx().byte_len()]
        );
        assert!(!pp.g1_subgroup_memo_contains(&minus));
        let mut rd = Reader::with_version(&minus, WireVersion::V1);
        assert_eq!(decode_g1_in_subgroup(&mut rd, &ctx, "p").unwrap(), q.neg());
        let mut off_curve = new.clone();
        *off_curve.last_mut().unwrap() ^= 1;
        let mut rd = Reader::with_version(&off_curve, WireVersion::V1);
        assert!(decode_g1_in_subgroup(&mut rd, &ctx, "p").is_err());

        // The memo is bounded: flooding it with distinct encodings evicts
        // old entries (two generations, see `params.rs`) instead of growing
        // without bound.
        pp.g1_subgroup_memo_insert(b"first");
        for i in 0u32..10_000 {
            pp.g1_subgroup_memo_insert(&i.to_be_bytes());
        }
        assert!(!pp.g1_subgroup_memo_contains(b"first"));
        assert!(pp.g1_subgroup_memo_contains(&9_999u32.to_be_bytes()));
    }

    #[test]
    fn gt_compresses_subgroup_elements() {
        let pp = params();
        let mut r = rng();
        let ctx = pp.fp_ctx().clone();
        for _ in 0..5 {
            let g = pp.random_gt(&mut r);
            let v0 = encode_bare(&g, WireVersion::V0);
            let v1 = encode_bare(&g, WireVersion::V1);
            assert_eq!(v0, g.to_bytes(), "v0 must match the legacy layout");
            let v = g.as_fp2();
            let t = v.c1.mul(&(&v.c0 + &Fp::one(&ctx)).invert().unwrap());
            assert_eq!(v1, [vec![gt_tag::TORUS], t.to_bytes()].concat());
            assert_eq!(v1.len(), 1 + ctx.byte_len());
            assert_eq!(decode_bare::<Gt>(&v0, WireVersion::V0, &ctx).unwrap(), g);
            assert_eq!(decode_bare::<Gt>(&v1, WireVersion::V1, &ctx).unwrap(), g);
            // The compressed form older writers emitted still decodes.
            let old = gt_compressed(&g);
            assert_eq!(decode_bare::<Gt>(&old, WireVersion::V1, &ctx).unwrap(), g);
        }
    }

    #[test]
    fn gt_off_torus_values_fall_back_to_the_full_layout() {
        let pp = params();
        let mut r = rng();
        let ctx = pp.fp_ctx().clone();
        // A random Fp2 element has norm 1 with negligible probability.
        let raw = Gt::from_fp2_unchecked(Fp2::random(&ctx, &mut r));
        let v1 = encode_bare(&raw, WireVersion::V1);
        assert_eq!(v1[0], gt_tag::FULL);
        assert_eq!(v1.len(), 1 + 2 * ctx.byte_len());
        assert_eq!(decode_bare::<Gt>(&v1, WireVersion::V1, &ctx).unwrap(), raw);
    }

    #[test]
    fn gt_v1_encoding_is_canonical() {
        // A torus member smuggled through the FULL fallback tag is
        // rejected: otherwise one value would have two accepted encodings
        // and the tag would lie about torus membership.
        let pp = params();
        let mut r = rng();
        let ctx = pp.fp_ctx().clone();
        let g = pp.random_gt(&mut r);
        let mut forged = vec![gt_tag::FULL];
        forged.extend(g.as_fp2().c0.to_bytes());
        forged.extend(g.as_fp2().c1.to_bytes());
        let err = decode_bare::<Gt>(&forged, WireVersion::V1, &ctx).unwrap_err();
        assert_eq!(
            err,
            DecodeError::invalid(0, "non-canonical Gt encoding (torus member in full layout)")
        );
        // The canonical (torus-tagged) form still round-trips, of course.
        let canonical = encode_bare(&g, WireVersion::V1);
        assert_eq!(
            decode_bare::<Gt>(&canonical, WireVersion::V1, &ctx).unwrap(),
            g
        );
        // Every canonical torus coordinate names one norm-1 element, which
        // travels under exactly those bytes; `t ≥ p` is refused.
        for _ in 0..8 {
            let t = encode_bare(&Fp::random(&ctx, &mut r), WireVersion::V1);
            let named = [vec![gt_tag::TORUS], t].concat();
            let v = decode_bare::<Gt>(&named, WireVersion::V1, &ctx).unwrap();
            let norm = &v.as_fp2().c0.square() + &v.as_fp2().c1.square();
            assert!(norm.is_one());
            assert_eq!(encode_bare(&v, WireVersion::V1), named);
        }
        let p = ctx.modulus().to_be_bytes(ctx.byte_len()).unwrap();
        let too_big = [vec![gt_tag::TORUS], p].concat();
        assert!(decode_bare::<Gt>(&too_big, WireVersion::V1, &ctx).is_err());
        // −1 is the torus member without a torus coordinate: it keeps both
        // coordinates under `0x04`, and is that tag's only torus member.
        let minus_one = Gt::from_fp2_unchecked(Fp2::new(Fp::one(&ctx).neg(), Fp::zero(&ctx)));
        let full = encode_bare(&minus_one, WireVersion::V1);
        assert_eq!(full[0], gt_tag::FULL);
        assert_eq!(
            decode_bare::<Gt>(&full, WireVersion::V1, &ctx).unwrap(),
            minus_one
        );

        // The c1 = 0 corner (identity, c0 = ±1) of the compressed form:
        // only the even-parity tag is accepted, so those elements too have
        // one compressed encoding.
        let one = Gt::one(&ctx);
        let canonical = gt_compressed(&one);
        assert_eq!(canonical[0], gt_tag::EVEN);
        assert_eq!(
            decode_bare::<Gt>(&canonical, WireVersion::V1, &ctx).unwrap(),
            one
        );
        let mut odd_forged = canonical.clone();
        odd_forged[0] = gt_tag::ODD;
        assert!(decode_bare::<Gt>(&odd_forged, WireVersion::V1, &ctx).is_err());
    }

    #[test]
    fn gt_v1_torus_corner_cases_round_trip_exhaustively() {
        let pp = params();
        let ctx = pp.fp_ctx().clone();
        let one = Fp::one(&ctx);
        let minus_one = one.neg();
        let zero = Fp::zero(&ctx);

        // The four torus points with a zero coordinate: c0 = ±1 (c1 = 0 —
        // the unit and the order-2 element, where decompression must take
        // the square root of zero) and c0 = 0 (c1 = ±1, one per parity).
        let corners = [
            Fp2::new(one.clone(), zero.clone()),
            Fp2::new(minus_one.clone(), zero.clone()),
            Fp2::new(zero.clone(), one.clone()),
            Fp2::new(zero.clone(), minus_one.clone()),
        ];
        for v in &corners {
            let gt = Gt::from_fp2_unchecked(v.clone());
            let enc = encode_bare(&gt, WireVersion::V1);
            let minus_one = v.c1.is_zero() && !v.c0.is_one();
            let tag = if minus_one {
                gt_tag::FULL
            } else {
                gt_tag::TORUS
            };
            assert_eq!(enc[0], tag, "corner {v:?}");
            let dec = decode_bare::<Gt>(&enc, WireVersion::V1, &ctx).unwrap();
            assert_eq!(dec.to_bytes(), gt.to_bytes(), "corner {v:?}");
            let enc = gt_compressed(&gt);
            let expected_tag = if v.c1.is_odd_repr() {
                gt_tag::ODD
            } else {
                gt_tag::EVEN
            };
            assert_eq!(enc[0], expected_tag, "corner {v:?}");
            assert_eq!(enc.len(), 1 + ctx.byte_len(), "corners compress");
            let dec = decode_bare::<Gt>(&enc, WireVersion::V1, &ctx).unwrap();
            assert_eq!(dec.to_bytes(), gt.to_bytes(), "corner {v:?}");
        }

        // The c1 = 0 corners are their own conjugates, so the flipped
        // parity tag encodes nothing and must be rejected.
        for c0 in [one, minus_one] {
            let gt = Gt::from_fp2_unchecked(Fp2::new(c0, zero.clone()));
            let mut enc = gt_compressed(&gt);
            assert_eq!(enc[0], gt_tag::EVEN);
            enc[0] = gt_tag::ODD;
            assert!(decode_bare::<Gt>(&enc, WireVersion::V1, &ctx).is_err());
        }

        // For c1 ≠ 0 both parity branches occur, each round-trips, and the
        // flipped tag is not an alias: it decodes the *conjugate* (the
        // inverse on the norm-1 torus), keeping encodings one-to-one.
        let (mut seen_even, mut seen_odd) = (false, false);
        let mut g = pp.gt_generator().clone();
        for _ in 0..16 {
            if !g.as_fp2().c1.is_zero() {
                let enc = gt_compressed(&g);
                match enc[0] {
                    gt_tag::ODD => seen_odd = true,
                    gt_tag::EVEN => seen_even = true,
                    other => panic!("unexpected tag {other:#x}"),
                }
                let dec = decode_bare::<Gt>(&enc, WireVersion::V1, &ctx).unwrap();
                assert_eq!(dec.to_bytes(), g.to_bytes());
                let mut flipped = enc;
                flipped[0] ^= 0x01; // EVEN <-> ODD
                let conj = decode_bare::<Gt>(&flipped, WireVersion::V1, &ctx).unwrap();
                assert_eq!(
                    conj.as_fp2().c1.to_bytes(),
                    g.as_fp2().c1.neg().to_bytes(),
                    "flipped parity is the conjugate"
                );
                assert!(conj.mul(&g).is_one(), "conjugate inverts on the torus");
            }
            g = g.mul(pp.gt_generator());
        }
        assert!(
            seen_even && seen_odd,
            "both parity branches must be exercised"
        );
    }

    #[test]
    fn corrupt_encodings_are_rejected_with_offsets() {
        let pp = params();
        let mut r = rng();
        let ctx = pp.fp_ctx().clone();
        let p = pp.random_g1(&mut r);
        let v1 = encode_bare(&p, WireVersion::V1);
        // Unknown tag.
        let mut bad = v1.clone();
        bad[0] = 0x07;
        assert!(decode_bare::<G1Affine>(&bad, WireVersion::V1, &ctx).is_err());
        // Truncation at every byte.
        for cut in 0..v1.len() {
            assert!(decode_bare::<G1Affine>(&v1[..cut], WireVersion::V1, &ctx).is_err());
        }
        // Trailing bytes.
        let mut longer = v1.clone();
        longer.push(0);
        assert!(decode_bare::<G1Affine>(&longer, WireVersion::V1, &ctx).is_err());
        // A flipped bit of a torus coordinate names another torus member
        // (no check can tell); a flipped bit of `0x04 ‖ x ‖ y` leaves the
        // curve.  Neither panics.
        let gt = pp.random_gt(&mut r);
        let mut enc = encode_bare(&gt, WireVersion::V1);
        let last = enc.len() - 1;
        enc[last] ^= 1;
        assert_ne!(decode_bare::<Gt>(&enc, WireVersion::V1, &ctx).unwrap(), gt);
        let mut enc = v1.clone();
        enc[last] ^= 1;
        let err = decode_bare::<G1Affine>(&enc, WireVersion::V1, &ctx).unwrap_err();
        assert_eq!(err, DecodeError::invalid(0, "uncompressed G1 point"));
    }

    #[test]
    fn skipping_an_element_consumes_exactly_what_decoding_does() {
        let pp = params();
        let mut r = rng();
        let ctx = pp.fp_ctx().clone();
        // G1 tags are self-describing, so both versions frame alike; Gt is
        // framed in the v1 layout only.  Every tag a reader accepts is
        // framed: both coordinates, the identity, the torus and `0x04` tags,
        // and the compressed forms older writers emitted.
        let p = pp.random_g1(&mut r);
        let g1s = [
            encode_bare(&p, WireVersion::V1),
            encode_bare(&pp.g1_identity(), WireVersion::V1),
            g1_compressed(&p),
        ];
        let (g, off_torus) = (
            pp.random_gt(&mut r),
            Gt::from_fp2_unchecked(Fp2::random(&ctx, &mut r)),
        );
        let gts = [
            encode_bare(&g, WireVersion::V1),
            encode_bare(&off_torus, WireVersion::V1),
            gt_compressed(&g),
        ];
        assert_eq!([gts[0][0], gts[1][0]], [gt_tag::TORUS, gt_tag::FULL]);
        let framed = g1s.into_iter().map(|b| (b, true));
        for (bytes, is_g1) in framed.chain(gts.into_iter().map(|b| (b, false))) {
            let skip = |bytes: &[u8]| {
                let mut rd = Reader::new(bytes);
                match is_g1 {
                    true => skip_g1(&mut rd, &ctx),
                    false => skip_gt(&mut rd, &ctx),
                }
                .and_then(|()| rd.finish())
            };
            skip(&bytes).unwrap();
            match is_g1 {
                true => decode_bare::<G1Affine>(&bytes, WireVersion::V1, &ctx).map(drop),
                false => decode_bare::<Gt>(&bytes, WireVersion::V1, &ctx).map(drop),
            }
            .unwrap();
            for cut in 0..bytes.len() {
                assert!(skip(&bytes[..cut]).is_err());
            }
        }
        // An unknown tag is refused with the decoder's error.
        let mut bad = encode_bare(&pp.random_g1(&mut r), WireVersion::V1);
        bad[0] = 0x07;
        let err = skip_g1(&mut Reader::new(&bad), &ctx).unwrap_err();
        assert_eq!(
            err,
            decode_bare::<G1Affine>(&bad, WireVersion::V1, &ctx).unwrap_err()
        );
        bad[0] = 0x00; // the G1 identity tag is no Gt tag
        assert!(skip_gt(&mut Reader::new(&bad), &ctx).is_err());
    }

    #[test]
    fn scalar_and_fp2_round_trip() {
        let pp = params();
        let mut r = rng();
        let s = pp.random_scalar(&mut r);
        for v in [WireVersion::V0, WireVersion::V1] {
            let bytes = encode_bare(&s, v);
            assert_eq!(bytes, s.to_bytes());
            assert_eq!(
                decode_bare::<Scalar>(&bytes, v, pp.scalar_ctx()).unwrap(),
                s
            );
        }
        let f2 = Fp2::random(pp.fp_ctx(), &mut r);
        let bytes = encode_bare(&f2, WireVersion::V1);
        assert_eq!(bytes, f2.to_bytes());
        assert_eq!(
            decode_bare::<Fp2>(&bytes, WireVersion::V1, pp.fp_ctx()).unwrap(),
            f2
        );
    }

    #[test]
    fn decode_ctx_exposes_the_parameter_handles() {
        let pp = params();
        let ctx = DecodeCtx::from(&pp);
        assert!(Arc::ptr_eq(ctx.params(), &pp));
        assert_eq!(ctx.q(), pp.q());
        assert_eq!(ctx.fp_ctx().byte_len(), pp.fp_ctx().byte_len());
        assert_eq!(ctx.scalar_ctx().byte_len(), pp.scalar_ctx().byte_len());
    }
}
