//! Pairing parameter sets ("Type A" curves) and their generation.
//!
//! A parameter set fixes the field prime `p = h·q − 1` (with `p ≡ 3 (mod 4)`),
//! the prime group order `q`, the cofactor `h`, a generator `g` of the
//! order-`q` subgroup of `E(F_p) : y² = x³ + x`, and the derived generator
//! `ê(g, g)` of the target group.  The delegator's and delegatee's KGCs in the
//! paper *share* these public parameters while holding independent master
//! keys, which is exactly how the IBE / PRE layers use this type.

use crate::curve::{random_curve_point, G1Affine};
use crate::error::PairingError;
use crate::fp::FpCtx;
use crate::generations::Generations;
use crate::gt::Gt;
use crate::hash::{hash_to_curve, hash_to_scalar};
use crate::precomp::{G1Precomp, PreparedPairing};
use crate::scalar::{Scalar, ScalarCtx};
use crate::Result;
use rand::rngs::StdRng;
use rand::{CryptoRng, RngCore, SeedableRng};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use tibpre_bigint::prime::{generate_cofactor_prime, generate_prime};
use tibpre_bigint::{MontCtx, Uint};

/// Security levels supported by the parameter generator.
///
/// The bit sizes follow the usual guidance for pairing-based systems built on
/// supersingular curves with embedding degree 2 (the discrete log in `F_{p²}`
/// is the limiting factor, so `p` must be large).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecurityLevel {
    /// Tiny parameters for unit tests only.  **Provides no security.**
    Toy,
    /// Legacy ~80-bit security: 160-bit group order, 512-bit field prime.
    Low80,
    /// ~112-bit security: 224-bit group order, 1024-bit field prime.
    Medium112,
    /// ~128-bit security: 256-bit group order, 1536-bit field prime.
    High128,
}

impl SecurityLevel {
    /// Bit length of the prime group order `q`.
    pub fn q_bits(self) -> usize {
        match self {
            SecurityLevel::Toy => 64,
            SecurityLevel::Low80 => 160,
            SecurityLevel::Medium112 => 224,
            SecurityLevel::High128 => 256,
        }
    }

    /// Bit length of the field prime `p`.
    pub fn p_bits(self) -> usize {
        match self {
            SecurityLevel::Toy => 192,
            SecurityLevel::Low80 => 512,
            SecurityLevel::Medium112 => 1024,
            SecurityLevel::High128 => 1536,
        }
    }

    /// A short human-readable label used in benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            SecurityLevel::Toy => "toy(64/192)",
            SecurityLevel::Low80 => "80-bit(160/512)",
            SecurityLevel::Medium112 => "112-bit(224/1024)",
            SecurityLevel::High128 => "128-bit(256/1536)",
        }
    }

    /// All levels, in increasing strength order.
    pub fn all() -> [SecurityLevel; 4] {
        [
            SecurityLevel::Toy,
            SecurityLevel::Low80,
            SecurityLevel::Medium112,
            SecurityLevel::High128,
        ]
    }
}

/// A complete symmetric-pairing parameter set.
#[derive(Debug)]
pub struct PairingParams {
    level: SecurityLevel,
    p: Uint,
    q: Uint,
    cofactor: Uint,
    fp_ctx: Arc<FpCtx>,
    scalar_ctx: Arc<ScalarCtx>,
    generator: G1Affine,
    gt_generator: Gt,
    /// Fixed-base table for `g`, built lazily on first use and shared by
    /// every holder of these parameters.
    generator_precomp: OnceLock<Arc<G1Precomp>>,
    /// Encodings of `G1` points already proven to lie in the prime-order
    /// subgroup.  The subgroup check (`q·P = O`) costs a full scalar
    /// multiplication, and real traffic re-presents the same few hot points
    /// over and over (a record's `c1` on every disclosure, at the proxy and
    /// again in the bundle), so the wire boundary memoises *successful*
    /// checks by their exact bytes.  Identical bytes decode to the
    /// identical point, so a hit can never admit a point a fresh check
    /// would reject; failures are never inserted.  A point read in both its
    /// `0x04 ‖ x ‖ y` form and the compressed form older writers emitted is
    /// two entries, each inserted after its own check.
    g1_validated: Mutex<SubgroupMemo>,
}

/// Whether a modulus of `bits` bits has a limb kernel, asked of the one
/// place that knows: [`MontCtx::new`] on an odd value of that size.
fn has_kernel(bits: usize) -> bool {
    let mut m = Uint::ONE.shl(bits.saturating_sub(1));
    m.set_bit(0);
    MontCtx::new(&m).is_ok()
}

const MEMO_CAP: usize = 8192; // encodings the subgroup memo holds at most

/// The validated encodings, as a set.
type SubgroupMemo = Generations<Box<[u8]>, (), MEMO_CAP>;

impl PairingParams {
    /// Generates a fresh parameter set at the given security level.
    pub fn generate<R: RngCore + CryptoRng>(
        level: SecurityLevel,
        rng: &mut R,
    ) -> Result<Arc<Self>> {
        Self::generate_custom(level, level.q_bits(), level.p_bits(), rng)
    }

    /// Generates a parameter set with custom bit sizes (exposed for tests).
    ///
    /// `q` takes `q_bits` bits and `p = h·q − 1` takes `p_bits − 1` or
    /// `p_bits`.  Each of those sizes must give a width a [`MontCtx`] runs
    /// at (1, 3, 4, 8, 16 or 24 limbs); any other is refused with
    /// [`PairingError::ParameterGeneration`] before the prime search starts.
    pub fn generate_custom<R: RngCore + CryptoRng>(
        level: SecurityLevel,
        q_bits: usize,
        p_bits: usize,
        rng: &mut R,
    ) -> Result<Arc<Self>> {
        if ![q_bits, p_bits.saturating_sub(1), p_bits]
            .into_iter()
            .all(has_kernel)
        {
            return Err(PairingError::ParameterGeneration(
                "no limb kernel at the width of q or p",
            ));
        }
        // Group order q, then field prime p = h·q − 1 ≡ 3 (mod 4).
        let q = generate_prime(q_bits, rng)
            .map_err(|_| PairingError::ParameterGeneration("group-order prime search failed"))?;
        let (p, cofactor) = generate_cofactor_prime(&q, p_bits, rng)
            .map_err(|_| PairingError::ParameterGeneration("field prime search failed"))?;
        let fp_ctx = FpCtx::new(&p)?;
        let scalar_ctx = ScalarCtx::new(&q)?;

        // Generator of the order-q subgroup: random curve point times the cofactor.
        let generator = loop {
            let candidate = random_curve_point(&fp_ctx, rng).mul_uint(&cofactor);
            if !candidate.is_identity() {
                break candidate;
            }
        };
        debug_assert!(generator.is_in_subgroup(&q));

        // Target-group generator ê(g, g), from a table dropped right after;
        // non-degeneracy of the distortion-map pairing guarantees it is not
        // 1 — checked anyway.
        let gt_generator = PreparedPairing::tabulate(&generator, &q, &cofactor).pairing(&generator);
        if gt_generator.is_one() {
            return Err(PairingError::ParameterGeneration(
                "degenerate pairing for the chosen generator",
            ));
        }

        Ok(Arc::new(PairingParams {
            level,
            p,
            q,
            cofactor,
            fp_ctx,
            scalar_ctx,
            generator,
            gt_generator,
            generator_precomp: OnceLock::new(),
            g1_validated: Mutex::default(),
        }))
    }

    /// A process-wide cached parameter set for the given level.
    ///
    /// Generation uses a fixed seed so test runs and benchmark tables are
    /// reproducible; real deployments must call [`PairingParams::generate`]
    /// with a fresh RNG instead.
    pub fn cached(level: SecurityLevel) -> Arc<Self> {
        static TOY: OnceLock<Arc<PairingParams>> = OnceLock::new();
        static LOW80: OnceLock<Arc<PairingParams>> = OnceLock::new();
        static MEDIUM112: OnceLock<Arc<PairingParams>> = OnceLock::new();
        static HIGH128: OnceLock<Arc<PairingParams>> = OnceLock::new();
        let (cell, seed) = match level {
            SecurityLevel::Toy => (&TOY, 0x7134_7079_u64),
            SecurityLevel::Low80 => (&LOW80, 0x8071_6272_u64),
            SecurityLevel::Medium112 => (&MEDIUM112, 0x1127_1193_u64),
            SecurityLevel::High128 => (&HIGH128, 0x1287_6553_u64),
        };
        Arc::clone(cell.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            PairingParams::generate(level, &mut rng)
                .expect("deterministic parameter generation must succeed")
        }))
    }

    /// Cached tiny parameters for unit tests.  **Provides no security.**
    pub fn insecure_toy() -> Arc<Self> {
        Self::cached(SecurityLevel::Toy)
    }

    /// The security level this set was generated for.
    pub fn level(&self) -> SecurityLevel {
        self.level
    }

    /// The field prime `p`.
    pub fn p(&self) -> &Uint {
        &self.p
    }

    /// The prime group order `q` (the paper's group order, written `p` there).
    pub fn q(&self) -> &Uint {
        &self.q
    }

    /// Whether a `G1` point with this exact encoding has already passed the
    /// subgroup check.  See the `g1_validated` field docs.
    pub(crate) fn g1_subgroup_memo_contains(&self, encoded: &[u8]) -> bool {
        self.g1_memo().get(encoded).is_some()
    }

    /// Records an encoding that passed the subgroup check.  The memo
    /// is bounded at `MEMO_CAP` (8 192) encodings in two generations; see
    /// the `g1_validated` field docs.
    pub(crate) fn g1_subgroup_memo_insert(&self, encoded: &[u8]) {
        self.g1_memo().insert(encoded.into(), ());
    }

    fn g1_memo(&self) -> MutexGuard<'_, SubgroupMemo> {
        self.g1_validated.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The cofactor `h = (p + 1)/q`.
    pub fn cofactor(&self) -> &Uint {
        &self.cofactor
    }

    /// The base-field context.
    pub fn fp_ctx(&self) -> &Arc<FpCtx> {
        &self.fp_ctx
    }

    /// The scalar-field context.
    pub fn scalar_ctx(&self) -> &Arc<ScalarCtx> {
        &self.scalar_ctx
    }

    /// The generator `g` of the order-`q` curve subgroup.
    pub fn generator(&self) -> &G1Affine {
        &self.generator
    }

    /// The target-group generator `ê(g, g)`.
    pub fn gt_generator(&self) -> &Gt {
        &self.gt_generator
    }

    /// The identity element of the curve group.
    pub fn g1_identity(&self) -> G1Affine {
        G1Affine::identity(&self.fp_ctx)
    }

    /// The identity element of the target group.
    pub fn gt_identity(&self) -> Gt {
        Gt::one(&self.fp_ctx)
    }

    /// Computes the symmetric pairing `ê(a, b) = e(a, φ(b))` by preparing
    /// `a` for this one call: `self.prepare(a).pairing(b)`.  When one
    /// argument is fixed across many calls, prepare it once with
    /// [`Self::prepare`] instead.
    pub fn pairing(&self, a: &G1Affine, b: &G1Affine) -> Gt {
        self.prepare(a).pairing(b)
    }

    /// Tabulates the Miller loop for a fixed pairing argument; subsequent
    /// pairings against `point` (in either position, by symmetry) only
    /// evaluate the stored lines.  See [`PreparedPairing`].
    pub fn prepare(&self, point: &G1Affine) -> PreparedPairing {
        PreparedPairing::new(self, point)
    }

    /// The fixed-base multiplication table for the generator `g`, built on
    /// first use and cached for the lifetime of the parameter set.
    pub fn generator_precomp(&self) -> Arc<G1Precomp> {
        Arc::clone(
            self.generator_precomp
                .get_or_init(|| Arc::new(G1Precomp::new(&self.generator, self.q.bits()))),
        )
    }

    /// `g^k` through the cached fixed-base table — the hot path behind every
    /// `c1 = g^r` and `pk = g^α` in the scheme layers.  Produces the exact
    /// same point as `self.generator().mul_scalar(k)`.
    pub fn mul_generator(&self, k: &Scalar) -> G1Affine {
        self.generator_precomp().mul_scalar(k)
    }

    /// Samples a uniformly random scalar in `Z_q`.
    pub fn random_scalar<R: RngCore + CryptoRng>(&self, rng: &mut R) -> Scalar {
        Scalar::random(&self.scalar_ctx, rng)
    }

    /// Samples a uniformly random non-zero scalar in `Z_q^*`.
    pub fn random_nonzero_scalar<R: RngCore + CryptoRng>(&self, rng: &mut R) -> Scalar {
        Scalar::random_nonzero(&self.scalar_ctx, rng)
    }

    /// Samples a uniformly random point of the order-`q` subgroup.
    pub fn random_g1<R: RngCore + CryptoRng>(&self, rng: &mut R) -> G1Affine {
        self.mul_generator(&Scalar::random_nonzero(&self.scalar_ctx, rng))
    }

    /// Samples a uniformly random element of the target group (the paper's
    /// "`X ∈_R G_1`" used by `Pextract`).
    pub fn random_gt<R: RngCore + CryptoRng>(&self, rng: &mut R) -> Gt {
        self.gt_generator
            .pow_scalar(&Scalar::random_nonzero(&self.scalar_ctx, rng))
    }

    /// The paper's `H1 : {0,1}* → G`, with an explicit domain string.
    pub fn hash_to_g1(&self, domain: &str, fields: &[&[u8]]) -> Result<G1Affine> {
        hash_to_curve(self, domain, fields)
    }

    /// The paper's `H2 : {0,1}* → Z_q^*`, with an explicit domain string.
    pub fn hash_to_zq(&self, domain: &str, fields: &[&[u8]]) -> Scalar {
        hash_to_scalar(&self.scalar_ctx, domain, fields)
    }

    /// Byte length of a non-identity curve point under `v1`: a tag and both
    /// coordinates.
    pub fn g1_byte_len(&self) -> usize {
        1 + 2 * self.fp_ctx.byte_len()
    }

    /// Byte length of a target-group subgroup element under `v1`: a tag and
    /// its torus coordinate.
    pub fn gt_byte_len(&self) -> usize {
        1 + self.fp_ctx.byte_len()
    }

    /// Byte length of a serialized scalar.
    pub fn scalar_byte_len(&self) -> usize {
        self.scalar_ctx.byte_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Arc<PairingParams> {
        PairingParams::insecure_toy()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xABCD)
    }

    #[test]
    fn structural_invariants() {
        let pp = params();
        // p = h·q − 1
        let (hq, overflow) = pp.cofactor().mul_wide(pp.q());
        assert!(overflow.is_zero());
        assert_eq!(hq.wrapping_sub(&Uint::ONE), *pp.p());
        // p ≡ 3 (mod 4)
        assert_eq!(pp.p().limbs()[0] & 3, 3);
        // Generator is on the curve, in the subgroup, and not the identity.
        assert!(pp.generator().is_on_curve());
        assert!(!pp.generator().is_identity());
        assert!(pp.generator().is_in_subgroup(pp.q()));
        // Sizes match the requested level.
        assert_eq!(pp.level(), SecurityLevel::Toy);
        assert_eq!(pp.q().bits(), SecurityLevel::Toy.q_bits());
    }

    #[test]
    fn pairing_is_non_degenerate_and_in_subgroup() {
        let pp = params();
        let e_gg = pp.pairing(pp.generator(), pp.generator());
        assert!(!e_gg.is_one());
        assert_eq!(&e_gg, pp.gt_generator());
        assert!(e_gg.is_in_subgroup(pp.q()));
    }

    #[test]
    fn pairing_is_bilinear() {
        let pp = params();
        let mut r = rng();
        let g = pp.generator();
        for _ in 0..3 {
            let a = pp.random_nonzero_scalar(&mut r);
            let b = pp.random_nonzero_scalar(&mut r);
            let ga = g.mul_scalar(&a);
            let gb = g.mul_scalar(&b);
            // ê(aG, bG) = ê(G, G)^{ab}
            let lhs = pp.pairing(&ga, &gb);
            let ab = a.mul(&b);
            let rhs = pp.gt_generator().pow_scalar(&ab);
            assert_eq!(lhs, rhs);
            // ê(aG, G) = ê(G, aG) = ê(G,G)^a  (symmetry)
            assert_eq!(pp.pairing(&ga, g), pp.pairing(g, &ga));
            assert_eq!(pp.pairing(&ga, g), pp.gt_generator().pow_scalar(&a));
        }
    }

    #[test]
    fn pairing_with_identity_is_one() {
        let pp = params();
        let id = pp.g1_identity();
        assert!(pp.pairing(&id, pp.generator()).is_one());
        assert!(pp.pairing(pp.generator(), &id).is_one());
        assert!(pp.pairing(&id, &id).is_one());
    }

    #[test]
    fn pairing_respects_group_structure() {
        let pp = params();
        let mut r = rng();
        let p1 = pp.random_g1(&mut r);
        let p2 = pp.random_g1(&mut r);
        let q = pp.random_g1(&mut r);
        // ê(P1 + P2, Q) = ê(P1, Q) · ê(P2, Q)
        let lhs = pp.pairing(&p1.add(&p2), &q);
        let rhs = pp.pairing(&p1, &q).mul(&pp.pairing(&p2, &q));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn params_multi_pairing_and_batch_match_naive_products() {
        use crate::precomp::multi_pairing;
        let pp = params();
        let mut r = rng();
        let fixed: Vec<G1Affine> = (0..3).map(|_| pp.random_g1(&mut r)).collect();
        let qs: Vec<G1Affine> = (0..3).map(|_| pp.random_g1(&mut r)).collect();
        let prepared: Vec<_> = fixed.iter().map(|p| pp.prepare(p)).collect();
        let pairs: Vec<_> = prepared.iter().zip(qs.iter()).collect();
        let product = multi_pairing(&pairs).expect("non-empty batch");
        let naive = fixed
            .iter()
            .zip(qs.iter())
            .fold(pp.gt_identity(), |acc, (p, q)| acc.mul(&pp.pairing(p, q)));
        assert_eq!(product.to_bytes(), naive.to_bytes());
        assert!(multi_pairing(&[]).is_none());

        let q_refs: Vec<&G1Affine> = qs.iter().collect();
        let batch = prepared[0].pairing_batch(&q_refs);
        for (got, b) in batch.iter().zip(&qs) {
            assert_eq!(got.to_bytes(), pp.pairing(&fixed[0], b).to_bytes());
        }
        assert!(prepared[0].pairing_batch(&[]).is_empty());
    }

    #[test]
    fn hash_to_g1_lands_in_subgroup() {
        let pp = params();
        let a = pp.hash_to_g1("TIBPRE-H1", &[b"alice@example.org"]).unwrap();
        let b = pp.hash_to_g1("TIBPRE-H1", &[b"bob@example.org"]).unwrap();
        let a_again = pp.hash_to_g1("TIBPRE-H1", &[b"alice@example.org"]).unwrap();
        assert!(a.is_on_curve());
        assert!(a.is_in_subgroup(pp.q()));
        assert!(!a.is_identity());
        assert_ne!(a, b);
        assert_eq!(a, a_again);
    }

    #[test]
    fn random_elements_have_the_right_order() {
        let pp = params();
        let mut r = rng();
        let g1 = pp.random_g1(&mut r);
        assert!(g1.is_in_subgroup(pp.q()));
        let gt = pp.random_gt(&mut r);
        assert!(gt.is_in_subgroup(pp.q()));
    }

    #[test]
    fn subgroup_memo_is_bounded_and_never_evicts_a_point_in_use() {
        let mut memo = SubgroupMemo::default();
        let hot: &[u8] = b"a point in use";
        memo.insert(hot.into(), ());
        for i in 0..=MEMO_CAP as u32 {
            memo.insert(i.to_be_bytes().into(), ());
            assert!(memo.len() <= MEMO_CAP);
            assert!(
                memo.get(hot).is_some(),
                "evicted after {} fresh inserts",
                i + 1
            );
        }
        // Nobody looking it up: the same flood does evict it.
        let mut memo = SubgroupMemo::default();
        memo.insert(hot.into(), ());
        for i in 0..=MEMO_CAP as u32 {
            memo.insert(i.to_be_bytes().into(), ());
        }
        assert!(memo.get(hot).is_none());
    }

    #[test]
    fn cached_parameters_are_shared() {
        let a = PairingParams::insecure_toy();
        let b = PairingParams::insecure_toy();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn level_metadata() {
        assert_eq!(SecurityLevel::Low80.q_bits(), 160);
        assert_eq!(SecurityLevel::Low80.p_bits(), 512);
        assert_eq!(SecurityLevel::all().len(), 4);
        assert!(SecurityLevel::High128.label().contains("128"));
    }

    #[test]
    fn byte_lengths_are_consistent() {
        let pp = params();
        let mut r = rng();
        let g1 = pp.random_g1(&mut r);
        let g1 = tibpre_wire::encode_bare(&g1, tibpre_wire::WireVersion::V1);
        assert_eq!(g1.len(), pp.g1_byte_len());
        let gt = tibpre_wire::encode_bare(&pp.random_gt(&mut r), tibpre_wire::WireVersion::V1);
        assert_eq!(gt.len(), pp.gt_byte_len());
        assert_eq!(
            pp.random_scalar(&mut r).to_bytes().len(),
            pp.scalar_byte_len()
        );
    }

    #[test]
    fn every_level_has_a_kernel_at_the_width_of_q_and_p() {
        // An odd modulus of exactly `bits` bits, through the public API.
        let odd_of = |bits: usize| {
            let mut m = Uint::ONE.shl(bits - 1);
            m.set_bit(0);
            m
        };
        for level in SecurityLevel::all() {
            // q has q_bits bits; p = h·q − 1 has p_bits − 1 or p_bits.
            for bits in [level.q_bits(), level.p_bits() - 1, level.p_bits()] {
                let ctx = MontCtx::new(&odd_of(bits));
                assert!(ctx.is_ok(), "{}: no kernel at {bits} bits", level.label());
            }
        }
    }

    #[test]
    fn a_width_without_a_kernel_is_refused_before_the_search() {
        // A 48-bit q is one limb, but p of 127 or 128 bits would be two.
        let mut r = rng();
        let refused = PairingParams::generate_custom(SecurityLevel::Toy, 48, 128, &mut r);
        assert!(matches!(refused, Err(PairingError::ParameterGeneration(_))));
        // No prime search drew from the generator.
        assert_eq!(r.next_u64(), rng().next_u64());
    }

    #[test]
    fn element_sizes_are_deliberate() {
        assert_eq!(core::mem::size_of::<Uint>(), 208);
        assert_eq!(core::mem::size_of::<crate::fp::Fp>(), 216);
        assert_eq!(core::mem::size_of::<G1Affine>(), 440);
    }
}
