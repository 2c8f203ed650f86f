//! Precomputation for fixed bases and fixed pairing arguments.
//!
//! The TIB-PRE scheme fixes `g` and `pk = g^α` at `Setup` and re-uses the
//! same pairing arguments (`H1(id)`, private keys, re-encryption keys) across
//! every `Encrypt` / `Preenc` call, yet the generic code paths recompute
//! windowed ladders and full Miller loops from scratch each time.  This module
//! provides the two classic amortisations:
//!
//! * [`G1Precomp`] — a fixed-base table holding every window multiple
//!   `(j · 2^{4w}) · P`, so a scalar multiplication by the fixed base needs
//!   only mixed *additions* (one per non-zero window digit) and no doublings
//!   at all.  In the paper's symmetric ("Type 1") setting there is a single
//!   source group, so the same type serves both `g` and `g^α` — the role a
//!   `G2Precomp` would play in an asymmetric pairing.
//! * [`PreparedPairing`] — BKLS-style fixed-argument pairing precomputation:
//!   the Miller loop for a fixed first argument `P` is executed once and the
//!   per-step *line coefficients* are stored, so each subsequent pairing
//!   `ê(P, Q)` only evaluates the stored lines at `φ(Q)` and runs the final
//!   exponentiation.  Because the pairing is symmetric (`ê(P, Q) = ê(Q, P)`,
//!   exercised by the test-suite), preparing `P` accelerates pairings with
//!   `P` in *either* position.
//!
//! [`PreparedPairing`] is the crate's one Miller loop: every pairing,
//! [`crate::params::PairingParams::pairing`] included, tabulates one
//! argument and folds the lines at the other.  Every stored line is
//! normalised to `ℓ(φ(Q)) = (a + b·x_Q) + y_Q·i` by dividing out the `y_Q`
//! coefficient (a batch inversion at preparation time); the dropped `F_p^*`
//! factor is annihilated by the final exponentiation.  The generic ladder
//! [`G1Affine::mul_scalar`] stays as the fixed-base tables' oracle, and an
//! affine Miller loop in the test package (`tibpre_tests::oracle`) as the
//! prepared pairing's.
//!
//! Both builds walk the curve on the crate's one Jacobian point
//! ([`crate::curve`]): a fixed-base table is that point's window chain of
//! `1·P … 15·P` once per window, the chain the variable-base walk uses, and
//! the Miller table runs its doubling and mixed addition, asking each step
//! for the line of its tangent or chord.  A unit test pins the SHA-256 of
//! what these walks produce.
//!
//! # Layout at rest
//!
//! [`Fp`] and [`G1Affine`] values are `MAX_LIMBS` wide; anything *kept* is
//! `nlimbs` wide.  Both tables are one `Box<[u64]>` of rows, two field
//! elements per row (`a ‖ b` for a line, `x ‖ y` for a table point), each
//! exactly the modulus' `nlimbs` Montgomery limbs: `lines · 2 · nlimbs · 8 +
//! steps` bytes per prepared loop (≈ 27 KiB at the 80-bit level, 8 limbs)
//! and `windows · 15 · 2 · nlimbs · 8` per fixed-base table (75 KiB).  The
//! Miller loop loads each row straight into `nlimbs`-wide registers
//! (`tibpre_bigint::Registers`); a fixed-base walk reads its rows back into
//! `Fp`s.  A node holds one table per grant; the workload that builds,
//! drops and rebuilds hundreds of them, and whose `peak_rss_mb` is mostly
//! these bytes:
//!
//! ```console
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!   --workload disclose_cold_churn_80 --seed 1 --seconds 2 --trace 0
//! ```
//!
//! # Thread safety
//!
//! Both table types are **immutable after construction** — evaluation only
//! reads the stored rows, through a cursor of its own — so a table behind an
//! `Arc` can be shared by any number of threads without locking.  This is the
//! contract the multi-threaded re-encryption engine (`tibpre-engine`) relies
//! on: it forces a key's lazy preparation *once*, on the dispatching thread,
//! then lets every worker evaluate the shared table concurrently.

use crate::curve::{
    batch_to_affine, window_digit, G1Affine, G1Projective, Line, TABLE_LEN, WINDOW,
};
use crate::fp::{Fp, FpCtx};
use crate::fp2::Fp2;
use crate::gt::Gt;
use crate::pairing::{final_exponentiation_batch, naf_digits};
use crate::params::PairingParams;
use crate::scalar::Scalar;
use core::slice::ChunksExact;
use std::sync::Arc;
use tibpre_bigint::{OnRegisters, Registers, Uint};

/// Splits a packed row into its two `nlimbs`-wide field elements.
fn unpack_row(ctx: &Arc<FpCtx>, row: &[u64]) -> (Fp, Fp) {
    let (first, second) = row.split_at(row.len() / 2);
    (Fp::unpack(ctx, first), Fp::unpack(ctx, second))
}

/// A fixed-base multiplication table for one point `P`.
///
/// Row `w·15 + j − 1` holds `j · 2^{4w} · P` in affine coordinates (`x ‖ y`,
/// packed), for every non-zero digit `j` of every 4-bit window `w` of a
/// scalar up to [`Self::max_bits`] bits.  A scalar multiplication then
/// reduces to at most one mixed addition per window — no doublings — which
/// is several times faster than the generic windowed ladder for the scalar
/// sizes the scheme uses.
///
/// Building the table costs one doubling/addition per entry plus a single
/// batched inversion to normalise everything to affine; it pays for itself
/// after a handful of multiplications by the same base.
#[derive(Clone)]
pub struct G1Precomp {
    point: G1Affine,
    /// Empty when some multiple is the identity, which a row cannot express
    /// (the identity base, or one of small order): those bases take the
    /// generic ladder.
    rows: Box<[u64]>,
    max_bits: usize,
}

impl G1Precomp {
    /// Tabulates the window multiples of `point` for scalars up to `max_bits`
    /// bits (rounded up to a whole number of windows).
    pub fn new(point: &G1Affine, max_bits: usize) -> Self {
        let windows = max_bits.div_ceil(WINDOW).max(1);
        let mut entries: Vec<G1Projective> = Vec::with_capacity(windows * TABLE_LEN);
        let mut base = G1Projective::from_affine(point);
        for _ in 0..windows {
            let multiples = base.multiples();
            // Next window's base is 2^WINDOW·base = 2 · (8·base).
            base = multiples[7].double();
            entries.extend(multiples);
        }
        let mut rows = Vec::new();
        if !entries.iter().any(G1Projective::is_identity) {
            rows.reserve_exact(entries.len() * 2 * point.ctx().nlimbs());
            for entry in batch_to_affine(&entries) {
                entry.x().pack_into(&mut rows);
                entry.y().pack_into(&mut rows);
            }
        }
        G1Precomp {
            point: point.clone(),
            rows: rows.into_boxed_slice(),
            max_bits: windows * WINDOW,
        }
    }

    /// The fixed base point this table belongs to.
    pub fn point(&self) -> &G1Affine {
        &self.point
    }

    /// Largest scalar bit-length the table covers; bigger scalars fall back
    /// to the generic ladder.
    pub fn max_bits(&self) -> usize {
        self.max_bits
    }

    /// Bytes the table keeps on the heap.
    fn resident_bytes(&self) -> usize {
        core::mem::size_of_val(&*self.rows)
    }

    /// Fixed-base scalar multiplication `k·P` via the table.
    ///
    /// Produces the exact same group element as the naive
    /// [`G1Affine::mul_uint`] (the oracle-equivalence suite asserts
    /// bit-identical encodings).
    pub fn mul_uint(&self, k: &Uint) -> G1Affine {
        if self.rows.is_empty() || k.bits() > self.max_bits {
            // No table, or an out-of-range scalar (never produced by Z_q
            // arithmetic): take the generic ladder rather than mis-computing.
            return self.point.mul_uint(k);
        }
        let ctx = self.point.ctx();
        let row_len = 2 * ctx.nlimbs();
        let mut acc = G1Projective::identity(ctx);
        for (w, window) in self.rows.chunks_exact(TABLE_LEN * row_len).enumerate() {
            let digit = window_digit(k, w);
            if digit != 0 {
                let (x, y) = unpack_row(ctx, &window[(digit - 1) * row_len..digit * row_len]);
                acc.add_affine_step(&G1Affine::new_unchecked(x, y), false);
            }
        }
        acc.to_affine()
    }

    /// Fixed-base scalar multiplication by an element of `Z_q`.
    pub fn mul_scalar(&self, k: &Scalar) -> G1Affine {
        self.mul_uint(&k.to_uint())
    }
}

impl core::fmt::Debug for G1Precomp {
    /// Shape only: a table of a secret base must not print it.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("G1Precomp")
            .field("max_bits", &self.max_bits)
            .field("resident_bytes", &self.resident_bytes())
            .finish_non_exhaustive()
    }
}

/// Step flag bits: the step stores the tangent line of its doubling, the
/// chord line of its addition.
const HAS_DBL: u8 = 1;
const HAS_ADD: u8 = 2;

/// A pairing with one argument fixed and its Miller loop pre-tabulated.
///
/// Preparation runs one Jacobian Miller loop over the *NAF*
/// addition-subtraction chain of the group order (about a third fewer
/// addition steps than the binary chain; a `−1` digit adds `−P`, whose
/// formal `f_{−1}` factor is a vertical annihilated by the final
/// exponentiation), plus one batched inversion to normalise the line
/// coefficients.  Every subsequent [`Self::pairing`] call against the fixed
/// argument only squares the accumulator, evaluates the stored lines at
/// `φ(Q)` (two base-field multiplications per line), and applies the final
/// exponentiation.
///
/// The *reduced* result is the textbook pairing for every input: a chain
/// other than the binary one (and the degenerate vertical/identity cases,
/// stored here as line-less steps) changes the unreduced Miller value only
/// by `F_p^*` factors, which the final exponentiation kills.
#[derive(Clone)]
pub struct PreparedPairing {
    point: G1Affine,
    /// One flag byte per digit of the loop: the tangent line of the doubling
    /// step ([`HAS_DBL`]), plus the chord line of the addition step when the
    /// NAF digit is non-zero ([`HAS_ADD`]; `+1` adds `P`, `−1` adds `−P`).
    ///
    /// Either line may be absent — exactly where the loop multiplies no
    /// line: zero digits, vertical tangents/chords (eliminated by the final
    /// exponentiation), and steps where the running point has reached the
    /// identity.  In particular the *last* addition step of any prime-order
    /// input lands on `±P` and produces a vertical chord, so a step without
    /// its addition line there is the normal case, not an anomaly.
    steps: Box<[u8]>,
    /// One row `a ‖ b` per stored line, in loop order, normalised so the
    /// `y_Q` coefficient is one: `ℓ(φ(Q)) = (a + b·x_Q) + y_Q·i`.
    rows: Box<[u64]>,
    /// The cofactor `h`, the final exponentiation's hard part.
    cofactor: Uint,
}

impl PreparedPairing {
    /// Runs the Miller loop for `point` (as the fixed argument) once and
    /// stores the per-step line coefficients.
    pub fn new(params: &PairingParams, point: &G1Affine) -> Self {
        Self::tabulate(point, params.q(), params.cofactor())
    }

    /// [`Self::new`] from the group order `q` and the cofactor — what
    /// parameter generation has before a [`PairingParams`] exists.
    pub(crate) fn tabulate(point: &G1Affine, q: &Uint, cofactor: &Uint) -> Self {
        if point.is_identity() {
            // ê(O, Q) = 1, which an empty step table evaluates to.
            return PreparedPairing {
                point: point.clone(),
                steps: Box::default(),
                rows: Box::default(),
                cofactor: *cofactor,
            };
        }

        // Run the Miller loop over the NAF digits of the order on the
        // crate's Jacobian point, whose steps hand back their lines.  The
        // degenerate cases (2-torsion, T = ±P) are the group law's and give
        // no line; once T is the identity it stays there, so no later step
        // stores a line either.  The test package's affine oracle checks the
        // reduced outputs.
        let digits = naf_digits(q);
        debug_assert_eq!(
            digits.last(),
            Some(&1),
            "NAF of a positive order starts with +1"
        );
        let neg_point = point.neg();
        let mut t = G1Projective::from_affine(point);
        let mut steps: Vec<u8> = Vec::with_capacity(digits.len());
        let mut raw: Vec<Line> = Vec::with_capacity(2 * digits.len());
        for &digit in digits.iter().rev().skip(1) {
            let mut flags = 0;
            if let Some(tangent) = t.double_step(true) {
                raw.push(tangent);
                flags |= HAS_DBL;
            }
            if digit != 0 && !t.is_identity() {
                let addend = if digit > 0 { point } else { &neg_point };
                if let Some(chord) = t.add_affine_step(addend, true) {
                    raw.push(chord);
                    flags |= HAS_ADD;
                }
            }
            steps.push(flags);
        }

        // Normalise every stored line so its y_Q coefficient is 1, with one
        // batched inversion for the whole loop.  Whenever a line *is* stored,
        // its denominator `cy` (`Z'·Z²` for tangents, `Z'` for chords) is
        // non-zero, because the producing step left a non-identity point.
        let cys: Vec<Fp> = raw.iter().map(|line| line.cy.clone()).collect();
        let cy_invs =
            Fp::batch_invert(&cys).expect("stored Miller lines have non-zero denominators");
        let mut rows = Vec::with_capacity(raw.len() * 2 * point.ctx().nlimbs());
        for (line, inv) in raw.iter().zip(&cy_invs) {
            line.c0.mul(inv).pack_into(&mut rows);
            line.cx.mul(inv).pack_into(&mut rows);
        }

        PreparedPairing {
            point: point.clone(),
            steps: steps.into_boxed_slice(),
            rows: rows.into_boxed_slice(),
            cofactor: *cofactor,
        }
    }

    /// The fixed pairing argument.
    pub fn point(&self) -> &G1Affine {
        &self.point
    }

    /// Bytes the table keeps on the heap.
    fn resident_bytes(&self) -> usize {
        core::mem::size_of_val(&*self.rows) + self.steps.len()
    }

    /// A cursor over the stored lines, in loop order.
    fn line_rows(&self) -> ChunksExact<'_, u64> {
        self.rows.chunks_exact(2 * self.point.ctx().nlimbs())
    }

    /// This table's walk through the Miller loop at `q`.
    fn walk<'a>(&'a self, q: &'a G1Affine) -> Walk<'a> {
        Walk {
            steps: &self.steps,
            rows: self.line_rows(),
            q,
        }
    }

    /// The unreduced Miller value `f_{q,P}(φ(Q))`, up to the `F_p^*` factors
    /// of the projective scaling and the line normalisation, which the final
    /// exponentiation kills: [`multi_pairing`]'s lockstep loop over this
    /// one table, on registers of the field's width.
    pub fn miller_loop(&self, q: &G1Affine) -> Fp2 {
        let ctx = self.point.ctx();
        if q.is_identity() {
            return Fp2::one(ctx);
        }
        miller(ctx, &mut [self.walk(q)])
    }

    /// The reduced pairing `ê(P, Q)` against the fixed argument (in either
    /// argument order, by symmetry): a [`Self::pairing_batch`] of one.
    pub fn pairing(&self, q: &G1Affine) -> Gt {
        self.pairing_batch(&[q]).remove(0)
    }

    /// Reduced pairings `ê(P, Qᵢ)` for a whole batch of second arguments.
    ///
    /// Runs one stored-line Miller loop per `Qᵢ`, then a *batched* final
    /// exponentiation: each element needs one base-field inversion (of
    /// `N(f)·4f₀f₁`, which serves both the easy part and the Lucas ladder's
    /// recovery of the second coordinate), and Montgomery's trick collapses
    /// all `k` of them into a single extended GCD.  The ladder over the
    /// cofactor is per element, so the win is the amortised inversion, not
    /// the whole final exponentiation.
    ///
    /// Element-wise bit-identical to `k` batches of one, [`Self::pairing`]
    /// (canonical representatives of equal field elements are unique).
    pub fn pairing_batch(&self, qs: &[&G1Affine]) -> Vec<Gt> {
        let fs: Vec<Fp2> = qs.iter().map(|q| self.miller_loop(q)).collect();
        reduce(&fs, &self.cofactor)
    }
}

impl core::fmt::Debug for PreparedPairing {
    /// Shape only: the table of a private or re-encryption key is as secret
    /// as the key, so neither the point nor a limb is printed.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PreparedPairing")
            .field("steps", &self.steps.len())
            .field("lines", &self.line_rows().len())
            .field("resident_bytes", &self.resident_bytes())
            .finish_non_exhaustive()
    }
}

/// The reduced pairings of Miller values: [`final_exponentiation_batch`],
/// wrapped in [`Gt`].
fn reduce(fs: &[Fp2], cofactor: &Uint) -> Vec<Gt> {
    final_exponentiation_batch(fs, cofactor)
        .expect("Miller values are never zero for points on the curve")
        .into_iter()
        .map(Gt::from_fp2_unchecked)
        .collect()
}

/// One table's walk through the Miller loop: its step flags, a cursor over
/// its rows and the second argument `Q` its lines are evaluated at.
struct Walk<'a> {
    steps: &'a [u8],
    rows: ChunksExact<'a, u64>,
    q: &'a G1Affine,
}

/// The Miller loop over tables of one field, walked in lockstep: the
/// product of their Miller values, by [`MillerLoop`] on registers of the
/// field's width.
fn miller(ctx: &Arc<FpCtx>, walks: &mut [Walk<'_>]) -> Fp2 {
    let [c0, c1] = ctx
        .mont()
        .on_registers(MillerLoop { ctx, walks })
        .map(|c| Fp::unpack(ctx, &c.limbs()[..ctx.nlimbs()]));
    Fp2::new(c0, c1)
}

/// The one Miller loop body, over any [`Registers`]: the accumulator
/// `f = f₀ + f₁·i` is two registers and each row `a ‖ b` is loaded straight
/// from its table.  Per step the accumulator is squared once, then every
/// walk folds in the lines its table stores for that step.
///
/// # Panics
///
/// If two walks differ in step count, which only tables of two different
/// parameter sets can.
struct MillerLoop<'w, 'a> {
    ctx: &'w Arc<FpCtx>,
    walks: &'w mut [Walk<'a>],
}

impl OnRegisters for MillerLoop<'_, '_> {
    type Output = [Uint; 2];

    fn run<R: Registers>(self, regs: &R) -> [Uint; 2] {
        let steps = self.walks.first().map_or(0, |walk| walk.steps.len());
        assert!(
            self.walks.iter().all(|walk| walk.steps.len() == steps),
            "multi_pairing over prepared tables of different parameter sets"
        );
        let n = self.ctx.nlimbs();
        let one = regs.load(Fp::one(self.ctx).mont_limbs());
        let zero = regs.sub(&one, &one);
        let mut f = [one, zero];
        for i in 0..steps {
            // f ← f² = (f₀ + f₁)(f₀ − f₁) + 2f₀f₁·i.
            let cross = regs.mul(&f[0], &f[1]);
            f = [
                regs.mul(&regs.add(&f[0], &f[1]), &regs.sub(&f[0], &f[1])),
                regs.add(&cross, &cross),
            ];
            for walk in self.walks.iter_mut() {
                let x = regs.load(walk.q.x().mont_limbs());
                let y = regs.load(walk.q.y().mont_limbs());
                for _ in 0..walk.steps[i].count_ones() {
                    // f ← f·(t + y_Q·i) with t = a + b·x_Q: one product for
                    // the line, then one reduction per coefficient.
                    let row = walk.rows.next().expect("one row per flagged line");
                    let (a, b) = row.split_at(n);
                    let t = regs.add(&regs.load(a), &regs.mul(&regs.load(b), &x));
                    f = [
                        regs.mul_sum(&f[0], &t, &regs.sub(&zero, &f[1]), &y),
                        regs.mul_sum(&f[0], &y, &f[1], &t),
                    ];
                }
            }
        }
        f.map(|c| regs.store(&c))
    }
}

/// The product of pairings `∏ᵢ ê(Pᵢ, Qᵢ)` over prepared first arguments, in
/// one shared Miller loop and **one** final exponentiation.
///
/// Every prepared table built from the same parameter set replays the same
/// NAF of the group order, so all the non-degenerate tables have the same
/// step count and the loops run in lockstep: per step the shared accumulator
/// is squared *once* and every pair folds in the lines its table stores for
/// that step, each table read through a row cursor of its own (a table with
/// line-less steps simply advances more slowly).  Squaring distributes over
/// products, so after the loop the accumulator is exactly `∏ᵢ fᵢ`; the final
/// exponentiation is a power map and hence multiplicative, so the reduced
/// result is bit-identical to multiplying the `k` individual
/// [`PreparedPairing::pairing`] outputs in [`Gt`].
///
/// Pairs whose fixed argument or `Qᵢ` is the identity contribute a factor `1`
/// and are skipped.
///
/// Returns `None` for an empty slice — there is no field context to build
/// the identity in.
///
/// # Panics
///
/// If two non-degenerate tables differ in step count, which only tables of
/// two different parameter sets (two different fields) can.
pub fn multi_pairing(pairs: &[(&PreparedPairing, &G1Affine)]) -> Option<Gt> {
    let (first, _) = pairs.first()?;
    // Degenerate pairs (identity on either side) pair to 1: skip them.
    let mut walks: Vec<Walk<'_>> = pairs
        .iter()
        .filter(|(prep, q)| !prep.steps.is_empty() && !q.is_identity())
        .map(|(prep, q)| prep.walk(q))
        .collect();
    let f = miller(first.point.ctx(), &mut walks);
    Some(reduce(&[f], &first.cofactor).remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x9E11)
    }

    #[test]
    fn fixed_base_table_matches_naive_ladder() {
        let pp = PairingParams::insecure_toy();
        let mut r = rng();
        let table = G1Precomp::new(pp.generator(), pp.q().bits());
        assert_eq!(table.point(), pp.generator());
        for _ in 0..8 {
            let k = pp.random_scalar(&mut r);
            let fast = table.mul_scalar(&k);
            let naive = pp.generator().mul_scalar(&k);
            assert_eq!(fast, naive);
            assert_eq!(fast.to_bytes(), naive.to_bytes());
        }
        // Edge scalars.
        assert!(table.mul_uint(&Uint::ZERO).is_identity());
        assert_eq!(&table.mul_uint(&Uint::ONE), pp.generator());
        let q_minus_1 = pp.q().wrapping_sub(&Uint::ONE);
        assert_eq!(
            table.mul_uint(&q_minus_1),
            pp.generator().mul_uint(&q_minus_1)
        );
        // Out-of-range scalars take the generic fallback.
        let huge = pp.q().shl(7);
        assert!(huge.bits() > table.max_bits());
        assert_eq!(table.mul_uint(&huge), pp.generator().mul_uint(&huge));
    }

    #[test]
    fn fixed_base_table_for_the_identity() {
        let pp = PairingParams::insecure_toy();
        let id = pp.g1_identity();
        let table = G1Precomp::new(&id, pp.q().bits());
        assert_eq!(table.resident_bytes(), 0);
        assert!(table.mul_uint(&Uint::ZERO).is_identity());
        assert!(table.mul_uint(&Uint::from_u64(12345)).is_identity());
        let huge = pp.q().shl(7);
        assert!(huge.bits() > table.max_bits());
        assert!(table.mul_uint(&huge).is_identity());
    }

    #[test]
    fn fixed_base_table_for_a_small_order_base() {
        // 2·(0, 0) is the identity, which a packed row cannot express: the
        // base keeps no table and multiplies through the generic ladder.
        let pp = PairingParams::insecure_toy();
        let two_torsion = G1Affine::new(Fp::zero(pp.fp_ctx()), Fp::zero(pp.fp_ctx())).unwrap();
        let table = G1Precomp::new(&two_torsion, pp.q().bits());
        assert_eq!(table.resident_bytes(), 0);
        for k in [0u64, 1, 2, 3, 0xFFFF] {
            let k = Uint::from_u64(k);
            assert_eq!(table.mul_uint(&k), two_torsion.mul_uint(&k));
        }
    }

    /// The toy set and one 8-limb set (the 80-bit level's shape).
    fn toy_and_eight_limb_params() -> [Arc<PairingParams>; 2] {
        use crate::params::SecurityLevel;
        let eight = PairingParams::generate_custom(SecurityLevel::Low80, 160, 512, &mut rng())
            .expect("parameter generation");
        assert_eq!(eight.fp_ctx().nlimbs(), 8);
        [PairingParams::insecure_toy(), eight]
    }

    #[test]
    fn tables_at_rest_weigh_what_the_layout_says() {
        let mut r = rng();
        for pp in toy_and_eight_limb_params() {
            let nlimbs = pp.fp_ctx().nlimbs();
            let fixed = pp.random_g1(&mut r);

            let prepared = PreparedPairing::new(&pp, &fixed);
            let steps = prepared.steps.len();
            let lines: usize = prepared.steps.iter().map(|f| f.count_ones() as usize).sum();
            assert_eq!(steps, naf_digits(pp.q()).len() - 1);
            assert_eq!(prepared.line_rows().len(), lines);
            assert_eq!(prepared.resident_bytes(), lines * 2 * nlimbs * 8 + steps);

            let table = G1Precomp::new(&fixed, pp.q().bits());
            let windows = pp.q().bits().div_ceil(WINDOW);
            assert_eq!(table.resident_bytes(), windows * 15 * 2 * nlimbs * 8);

            if nlimbs == 8 {
                // Against entries as wide as the registers (two `Fp` per
                // line or table point; 64 of an `Fp`'s 216 bytes are limbs
                // the 8-limb field uses): under 0.3 of them.
                let fp = core::mem::size_of::<Fp>();
                assert!(10 * prepared.resident_bytes() <= 3 * lines * 2 * fp);
                assert!(10 * table.resident_bytes() <= 3 * windows * 15 * 2 * fp);
                // What README's table quotes for the 80-bit level.
                assert!((26..=28).contains(&(prepared.resident_bytes() / 1024)));
                assert!((75..=78).contains(&(table.resident_bytes() / 1024)));
            }
        }
    }

    #[test]
    fn packed_rows_round_trip_every_coefficient() {
        let mut r = rng();
        for pp in toy_and_eight_limb_params() {
            let ctx = pp.fp_ctx();
            let p_minus_1 = Fp::from_uint(ctx, &ctx.modulus().wrapping_sub(&Uint::ONE));
            let mut values = vec![Fp::zero(ctx), Fp::one(ctx), p_minus_1];
            values.extend((0..32).map(|_| Fp::random(ctx, &mut r)));
            let mut packed = Vec::new();
            for v in &values {
                v.pack_into(&mut packed);
            }
            assert_eq!(packed.len(), values.len() * ctx.nlimbs());
            for (v, limbs) in values.iter().zip(packed.chunks_exact(ctx.nlimbs())) {
                assert_eq!(&Fp::unpack(ctx, limbs), v);
            }
            // A table hands back exactly the points it was built from.
            let base = pp.random_g1(&mut r);
            let table = G1Precomp::new(&base, pp.q().bits());
            let (x, y) = unpack_row(ctx, &table.rows[..2 * ctx.nlimbs()]);
            assert_eq!(G1Affine::new(x, y).unwrap(), base);
        }
    }

    /// `f^{(p²−1)/q} = (f^{p−1})^h` by plain `Fp2::pow`: the reduction the
    /// tests here check the prepared one against.  (The Miller values
    /// themselves are checked against the affine oracle in the test
    /// package's `precomp_oracle`.)
    fn reduce_by_pow(pp: &PairingParams, f: &Fp2) -> Gt {
        let p_minus_1 = pp.p().wrapping_sub(&Uint::ONE);
        Gt::from_fp2_unchecked(f.pow(&p_minus_1).pow(pp.cofactor()))
    }

    #[test]
    fn prepared_pairing_matches_naive_pairing() {
        let pp = PairingParams::insecure_toy();
        let mut r = rng();
        for _ in 0..4 {
            let fixed = pp.random_g1(&mut r);
            let prepared = PreparedPairing::new(&pp, &fixed);
            assert_eq!(prepared.point(), &fixed);
            for _ in 0..3 {
                let q = pp.random_g1(&mut r);
                let fast = prepared.pairing(&q);
                assert_eq!(fast, reduce_by_pow(&pp, &prepared.miller_loop(&q)));
                // Symmetry: the table of the "second" argument agrees.
                assert_eq!(fast, pp.pairing(&q, &fixed));
                assert_eq!(fast.to_bytes(), pp.prepare(&q).pairing(&fixed).to_bytes());
            }
            assert!(prepared.pairing(&pp.g1_identity()).is_one());
        }
    }

    /// `ê(g, g)` is computed at parameter generation from a crate-private
    /// table; the public constructor and the affine oracle must both give
    /// the same element.
    #[test]
    fn prepared_generator_reproduces_gt_generator() {
        let pp = PairingParams::insecure_toy();
        let prepared = PreparedPairing::new(&pp, pp.generator());
        assert_eq!(&prepared.pairing(pp.generator()), pp.gt_generator());
        assert_eq!(
            &crate::oracle::pairing(&pp, pp.generator(), pp.generator()),
            pp.gt_generator()
        );
    }

    #[test]
    fn degenerate_fixed_arguments_match_the_generic_loop() {
        let pp = PairingParams::insecure_toy();
        // Identity: empty step table, pairing is 1.
        let prepared = PreparedPairing::new(&pp, &pp.g1_identity());
        assert!(prepared.pairing(pp.generator()).is_one());
        // 2-torsion point (0, 0): the vertical tangent becomes a line-less
        // step, exactly as the textbook loop drops it.
        let two_torsion = G1Affine::new(Fp::zero(pp.fp_ctx()), Fp::zero(pp.fp_ctx())).unwrap();
        let prepared = PreparedPairing::new(&pp, &two_torsion);
        assert_eq!(
            prepared.pairing(pp.generator()),
            reduce_by_pow(&pp, &prepared.miller_loop(pp.generator()))
        );
        // Every step is there and none stores a line, so beside a full table
        // in the lockstep walk its cursor never moves.
        assert!(!prepared.steps.is_empty() && prepared.rows.is_empty());
        let mut r = rng();
        let (q1, q2) = (pp.random_g1(&mut r), pp.random_g1(&mut r));
        let full = pp.prepare(pp.generator());
        for pairs in [
            [(&prepared, &q1), (&full, &q2)],
            [(&full, &q2), (&prepared, &q1)],
        ] {
            assert_eq!(
                multi_pairing(&pairs).expect("non-empty batch"),
                prepared.pairing(&q1).mul(&full.pairing(&q2))
            );
        }
    }

    #[test]
    fn multi_pairing_matches_product_of_individual_pairings() {
        let pp = PairingParams::insecure_toy();
        let mut r = rng();
        for k in [1usize, 2, 3, 5, 8] {
            let fixed: Vec<G1Affine> = (0..k).map(|_| pp.random_g1(&mut r)).collect();
            let qs: Vec<G1Affine> = (0..k).map(|_| pp.random_g1(&mut r)).collect();
            let prepared: Vec<PreparedPairing> =
                fixed.iter().map(|p| PreparedPairing::new(&pp, p)).collect();
            let pairs: Vec<(&PreparedPairing, &G1Affine)> =
                prepared.iter().zip(qs.iter()).collect();
            let fast = multi_pairing(&pairs).expect("non-empty batch");
            let naive = prepared
                .iter()
                .zip(qs.iter())
                .fold(pp.gt_identity(), |acc, (p, q)| acc.mul(&p.pairing(q)));
            assert_eq!(fast, naive);
            assert_eq!(fast.to_bytes(), naive.to_bytes());
        }
        // Empty batch: no context to build 1 in.
        assert!(multi_pairing(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "different parameter sets")]
    fn multi_pairing_refuses_tables_of_two_parameter_sets() {
        use crate::params::SecurityLevel;
        let toy = PairingParams::insecure_toy();
        let other = PairingParams::generate_custom(SecurityLevel::Toy, 48, 176, &mut rng())
            .expect("parameter generation");
        let a = toy.prepare(toy.generator());
        let b = other.prepare(other.generator());
        multi_pairing(&[(&a, toy.generator()), (&b, other.generator())]);
    }

    #[test]
    fn multi_pairing_skips_degenerate_pairs() {
        let pp = PairingParams::insecure_toy();
        let mut r = rng();
        let a = pp.random_g1(&mut r);
        let b = pp.random_g1(&mut r);
        let q = pp.random_g1(&mut r);
        let prep_a = PreparedPairing::new(&pp, &a);
        let prep_b = PreparedPairing::new(&pp, &b);
        let prep_id = PreparedPairing::new(&pp, &pp.g1_identity());
        let id = pp.g1_identity();
        // Identity in either position contributes a factor 1.
        let pairs: Vec<(&PreparedPairing, &G1Affine)> =
            vec![(&prep_a, &q), (&prep_id, &q), (&prep_b, &id)];
        let fast = multi_pairing(&pairs).expect("non-empty batch");
        assert_eq!(fast.to_bytes(), prep_a.pairing(&q).to_bytes());
        // All-degenerate batch is the identity.
        let pairs: Vec<(&PreparedPairing, &G1Affine)> = vec![(&prep_id, &q), (&prep_a, &id)];
        assert!(multi_pairing(&pairs).expect("non-empty batch").is_one());
    }

    #[test]
    fn pairing_batch_matches_individual_pairings() {
        let pp = PairingParams::insecure_toy();
        let mut r = rng();
        let fixed = pp.random_g1(&mut r);
        let prepared = PreparedPairing::new(&pp, &fixed);
        let mut qs: Vec<G1Affine> = (0..6).map(|_| pp.random_g1(&mut r)).collect();
        qs.push(pp.g1_identity());
        let refs: Vec<&G1Affine> = qs.iter().collect();
        let batch = prepared.pairing_batch(&refs);
        assert_eq!(batch.len(), qs.len());
        for (got, q) in batch.iter().zip(qs.iter()) {
            assert_eq!(got.to_bytes(), prepared.pairing(q).to_bytes());
        }
        assert!(prepared.pairing_batch(&[]).is_empty());
    }

    #[test]
    fn non_subgroup_fixed_arguments_match_the_generic_loop() {
        use crate::curve::random_curve_point;
        let pp = PairingParams::insecure_toy();
        let mut r = rng();
        for _ in 0..3 {
            let fixed = random_curve_point(pp.fp_ctx(), &mut r);
            let q = pp.random_g1(&mut r);
            let prepared = PreparedPairing::new(&pp, &fixed);
            assert_eq!(
                prepared.pairing(&q),
                reduce_by_pow(&pp, &prepared.miller_loop(&q))
            );
            // `q·fixed` is not the identity, so this table stores the last
            // chord a subgroup table leaves out: in the lockstep walk its
            // cursor runs ahead of the full table's.
            let full = pp.prepare(pp.generator());
            assert!(prepared.line_rows().len() > full.line_rows().len());
            let q2 = pp.random_g1(&mut r);
            assert_eq!(
                multi_pairing(&[(&full, &q2), (&prepared, &q)]).expect("non-empty batch"),
                full.pairing(&q2).mul(&prepared.pairing(&q))
            );
        }
    }

    /// What every curve walk of this crate produces, pinned: the steps and
    /// rows of prepared tables for eight seeded points (six of the
    /// subgroup, one of the full curve, the 2-torsion point), the
    /// generator's fixed-base rows, two variable-base products (a full-size
    /// scalar and a 3-bit one) and a hashed point, at the toy level and at
    /// the 80-bit shape.  A change to a doubling, an addition or a window
    /// chain moves one of these SHA-256 digests.
    #[test]
    fn curve_walks_are_pinned() {
        use crate::curve::random_curve_point;
        use tibpre_hash::Sha256;
        const PINNED: [&str; 2] = [
            "8f04c658557c6e5e42e19f6dc71c07291fe16476427851b30c95c145774920c3",
            "9df26260db8d03b7a1e19bafd8d9574cfb0e50b96b7250851d41a01db08afda3",
        ];
        for (pp, want) in toy_and_eight_limb_params().iter().zip(PINNED) {
            let mut r = StdRng::seed_from_u64(0x7AB1E);
            let ctx = pp.fp_ctx();
            let mut points: Vec<G1Affine> = (0..6).map(|_| pp.random_g1(&mut r)).collect();
            points.push(random_curve_point(ctx, &mut r));
            points.push(G1Affine::new(Fp::zero(ctx), Fp::zero(ctx)).unwrap());
            let mut h = Sha256::new();
            let mut absorb = |limbs: &[u64]| limbs.iter().for_each(|l| h.update(&l.to_le_bytes()));
            for point in &points {
                let prepared = PreparedPairing::new(pp, point);
                absorb(&prepared.rows);
                absorb(
                    &prepared
                        .steps
                        .iter()
                        .map(|&f| u64::from(f))
                        .collect::<Vec<_>>(),
                );
            }
            absorb(&pp.generator_precomp().rows);
            let k = pp.random_scalar(&mut r).to_uint();
            for product in [
                points[0].mul_uint(&k),
                points[1].mul_uint(&Uint::from_u64(5)),
            ] {
                h.update(&product.to_bytes());
            }
            h.update(&pp.hash_to_g1("PIN", &[b"walks"]).unwrap().to_bytes());
            let got: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, want, "level {:?}", pp.level());
        }
    }
}
