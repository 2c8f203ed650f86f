//! The kernels against their two oracles, at every dispatched width: the
//! runtime-width loops below (limb for limb) and the plain
//! `Uint::mul_wide` / `Uint::rem_wide` definition of each operation.  The
//! windowed exponentiation has a third: the binary square-and-multiply
//! ladder it replaced.  The Lucas ladder is checked against the runtime
//! loops and against its recurrence, and the `[u64; N]` registers of
//! `MontCtx::on_registers` against the runtime-width registers.
//!
//! The runtime-width loops run the same algorithms over the first `n`
//! limbs of full-capacity buffers, with `n` a value rather than a
//! compile-time constant; squaring at a runtime width is
//! `mul_runtime(a, a)`.  No production path calls them.

// Carry chains index several arrays by the same position, as in `kernel`.
#![allow(clippy::needless_range_loop)]

use super::*;
use crate::kernel::{canonicalise, ripple};
use crate::limb::{adc, mac};
use crate::random::{random_below, random_bits};
use crate::uint::{MAX_LIMBS, WIDE_LIMBS};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The widths `by_width!` dispatches: every width a `MontCtx` can have.
const WIDTHS: [usize; 6] = [3, 8, 16, 24, 1, 4];

/// CIOS Montgomery multiplication over `n` limbs.
fn mul_runtime(a: &Uint, b: &Uint, m: &Uint, n0: u64, n: usize) -> Uint {
    let (al, bl, ml) = (&a.limbs[..n], &b.limbs[..n], &m.limbs[..n]);
    // t has n + 2 significant limbs during the loop; n < MAX_LIMBS, so the
    // top two fit in the capacity of a Uint plus one scalar.
    let mut out = Uint::ZERO;
    let t = &mut out.limbs;
    let mut top = 0u64;
    for &bi in bl {
        let mut carry = 0;
        for j in 0..n {
            (t[j], carry) = mac(t[j], al[j], bi, carry);
        }
        let (t_n, t_n1) = adc(top, carry, 0);
        let q = t[0].wrapping_mul(n0);
        let (_, mut carry) = mac(t[0], q, ml[0], 0);
        for j in 1..n {
            (t[j - 1], carry) = mac(t[j], q, ml[j], carry);
        }
        let (lo, hi) = adc(t_n, carry, 0);
        t[n - 1] = lo;
        top = t_n1 + hi;
    }
    canonicalise(&mut t[..n], top, ml);
    out
}

/// Montgomery reduction of an accumulated sum over `n` limbs.
fn reduce_runtime(acc: &mut [u64; WIDE_LIMBS], m: &Uint, n0: u64, n: usize) -> Uint {
    let ml = &m.limbs[..n];
    let mut carry_up = 0;
    for i in 0..n {
        let q = acc[i].wrapping_mul(n0);
        let mut carry = 0;
        for j in 0..n {
            (acc[i + j], carry) = mac(acc[i + j], q, ml[j], carry);
        }
        (acc[i + n], carry_up) = adc(acc[i + n], carry, carry_up);
    }
    debug_assert!(acc[2 * n + 1..].iter().all(|&l| l == 0));
    let top = acc[2 * n] + carry_up;
    let mut out = Uint::ZERO;
    out.limbs[..n].copy_from_slice(&acc[n..2 * n]);
    canonicalise(&mut out.limbs[..n], top, ml);
    out
}

/// `acc += a·b` over `n` limbs of each operand.
fn accumulate_runtime(acc: &mut [u64; WIDE_LIMBS], a: &Uint, b: &Uint, n: usize) {
    let (al, bl) = (&a.limbs[..n], &b.limbs[..n]);
    let mut carry_up = 0;
    for i in 0..n {
        let mut carry = 0;
        for j in 0..n {
            (acc[i + j], carry) = mac(acc[i + j], al[j], bl[i], carry);
        }
        (acc[i + n], carry_up) = adc(acc[i + n], carry, carry_up);
    }
    ripple(acc, 2 * n, carry_up);
}

/// The runtime-width registers: full-capacity [`Uint`]s through the
/// runtime loops, at the context's width.
impl Registers for MontCtx {
    type Reg = Uint;

    fn load(&self, limbs: &[u64]) -> Uint {
        Uint::from_limbs_le(limbs).expect("a value of the modulus' width")
    }

    fn store(&self, a: &Uint) -> Uint {
        *a
    }

    fn mul(&self, a: &Uint, b: &Uint) -> Uint {
        mul_runtime(a, b, &self.modulus, self.n0, self.nlimbs)
    }

    fn mul_sum(&self, a: &Uint, b: &Uint, c: &Uint, d: &Uint) -> Uint {
        let mut acc = WideAcc::zero();
        accumulate_runtime(acc.limbs_mut(), a, b, self.nlimbs);
        accumulate_runtime(acc.limbs_mut(), c, d, self.nlimbs);
        reduce_runtime(acc.limbs_mut(), &self.modulus, self.n0, self.nlimbs)
    }

    fn add(&self, a: &Uint, b: &Uint) -> Uint {
        MontCtx::add(self, a, b)
    }

    fn sub(&self, a: &Uint, b: &Uint) -> Uint {
        MontCtx::sub(self, a, b)
    }
}

/// Moduli of exactly `n` limbs: a random odd one, `2^(64n) − c` (top limb
/// all ones, so sums carry out of limb `n − 1`) and `2^(64(n−1)) + c`
/// (top limb 1, so values just below `m` have an empty top limb).
fn moduli(n: usize, rng: &mut StdRng) -> Vec<Uint> {
    let mut random = random_bits(rng, 64 * n);
    random.set_bit(0);
    random.set_bit(64 * (n - 1));
    let mut out = vec![random];
    let all_ones = Uint::ONE.shl(64 * n).wrapping_sub(&Uint::ONE);
    for c in [1u64, 3, 59] {
        out.push(all_ones.wrapping_sub(&Uint::from_u64(c - 1)));
        let mut low_top = Uint::ONE.shl(64 * (n - 1)).wrapping_add(&Uint::from_u64(c));
        low_top.set_bit(0); // n = 1: 1 + c is even
        out.push(low_top);
    }
    out
}

/// Residues that stress the carries: both ends of the range, the longest
/// all-ones value below `m`, and random ones.
fn operands(m: &Uint, rng: &mut StdRng) -> Vec<Uint> {
    let ones_below = Uint::ONE.shl(m.bits() - 1).wrapping_sub(&Uint::ONE);
    vec![
        Uint::ZERO,
        Uint::ONE,
        m.wrapping_sub(&Uint::ONE),
        m.wrapping_sub(&Uint::from_u64(2)),
        ones_below,
        random_below(rng, m),
        random_below(rng, m),
    ]
}

fn for_each_context(mut check: impl FnMut(&MontCtx, &[Uint])) {
    let mut rng = StdRng::seed_from_u64(0x6b65_726e);
    for n in WIDTHS {
        for m in moduli(n, &mut rng) {
            let ctx = MontCtx::new(&m).expect("odd and below capacity");
            assert_eq!(ctx.nlimbs(), n);
            check(&ctx, &operands(&m, &mut rng));
        }
    }
}

/// `a·b mod m` by schoolbook product and long division.
fn mul_mod(a: &Uint, b: &Uint, m: &Uint) -> Uint {
    let (lo, hi) = a.mul_wide(b);
    Uint::rem_wide(&lo, &hi, m).expect("m is non-zero")
}

/// A kernel result must be canonical and, multiplied back by `R`, must be
/// the plain residue `expected`.
fn assert_is_mont_form_of(ctx: &MontCtx, got: &Uint, expected: &Uint, what: &str) {
    let (m, n) = (ctx.modulus(), ctx.nlimbs());
    assert!(got < m, "{what}: not reduced (n = {n})");
    assert!(
        got.limbs()[n..].iter().all(|&l| l == 0),
        "{what}: upper limbs"
    );
    assert_eq!(
        &mul_mod(got, &ctx.r1, m),
        expected,
        "{what} (n = {n}, m = {m})"
    );
}

#[test]
fn multiply_and_square_match_the_runtime_loop_and_the_definition() {
    for_each_context(|ctx, values| {
        let (m, n) = (ctx.modulus(), ctx.nlimbs());
        for a in values {
            for b in values {
                let got = ctx.mont_mul(a, b);
                assert_eq!(got, mul_runtime(a, b, m, ctx.n0, n));
                assert_is_mont_form_of(ctx, &got, &mul_mod(a, b, m), "mont_mul");
            }
            let got = ctx.mont_sqr(a);
            assert_eq!(got, mul_runtime(a, a, m, ctx.n0, n));
            assert_is_mont_form_of(ctx, &got, &mul_mod(a, a, m), "mont_sqr");
        }
    });
}

#[test]
fn accumulate_and_wide_reduce_match_the_runtime_loop_and_the_definition() {
    for_each_context(|ctx, values| {
        let (m, n) = (ctx.modulus(), ctx.nlimbs());
        let near = m.wrapping_sub(&Uint::ONE);
        // One to four terms; the first list is terms·(m − 1)², the largest
        // sum a caller may hand to the reducer.
        let mut term_lists = vec![vec![(near, near); 4]];
        term_lists.push(
            values
                .iter()
                .zip(values.iter().rev())
                .map(|(a, b)| (*a, *b))
                .collect(),
        );
        term_lists.push(values.windows(2).map(|w| (w[1], w[0])).collect());
        for list in &term_lists {
            for terms in 1..=4 {
                let mut dispatched = WideAcc::zero();
                let mut runtime = WideAcc::zero();
                let (mut lo, mut hi) = (Uint::ZERO, Uint::ZERO);
                let mut sum = Uint::ZERO;
                for (a, b) in &list[..terms] {
                    dispatched.accumulate(a, b, n);
                    accumulate_runtime(runtime.limbs_mut(), a, b, n);
                    let (p_lo, p_hi) = a.mul_wide(b);
                    let (s_lo, carry) = lo.overflowing_add(&p_lo);
                    lo = s_lo;
                    hi = hi
                        .wrapping_add(&p_hi)
                        .wrapping_add(&Uint::from_u64(carry.into()));
                    sum = sum.mod_add(&mul_mod(a, b, m), m);
                }
                let wide = *dispatched.limbs_mut();
                assert_eq!(wide, *runtime.limbs_mut(), "accumulate (n = {n})");
                assert_eq!(wide[..MAX_LIMBS], lo.limbs()[..]);
                assert_eq!(wide[MAX_LIMBS..2 * MAX_LIMBS], hi.limbs()[..]);
                assert_eq!(wide[2 * MAX_LIMBS..], [0, 0]);

                let got = ctx.mont_reduce_wide(dispatched, terms);
                assert_eq!(got, reduce_runtime(runtime.limbs_mut(), m, ctx.n0, n));
                assert_is_mont_form_of(ctx, &got, &sum, "mont_reduce_wide");
            }
        }
    });
}

/// `x^e·R mod m` by square-and-multiply from the top bit of `e`, one
/// dispatched `mont_sqr`/`mont_mul` per step.
fn pow_ladder(ctx: &MontCtx, x: &Uint, e: &Uint) -> Uint {
    let mut acc = ctx.r1;
    for i in (0..e.bits()).rev() {
        acc = ctx.mont_sqr(&acc);
        if e.bit(i) {
            acc = ctx.mont_mul(&acc, x);
        }
    }
    acc
}

/// Exponents that stress the window walk: 0, 1, 2; `2^k − 1` and `2^k`
/// around the window length and a limb boundary; runs of 4, 5 and 6 zeros
/// between single set bits and between 5-bit blocks, at every offset
/// against the 5-bit windows; the all-ones exponent of the full width; and
/// the field exponents `(m + 1)/4`, `(m − 1)/2` and `m − 2`.
fn exponents(m: &Uint) -> Vec<Uint> {
    let mut out = vec![Uint::ZERO, Uint::ONE, Uint::from_u64(2)];
    for k in [3, 4, 5, 6, 7, 63, 64, 65] {
        let power = Uint::ONE.shl(k);
        out.push(power.wrapping_sub(&Uint::ONE));
        out.push(power);
    }
    for run in 4..=6 {
        for (block, block_len) in [(0b1u64, 1), (0b10111, 5)] {
            for offset in 0..6 {
                let mut e = Uint::ZERO;
                let mut at = offset;
                while at + block_len <= 120 {
                    e = e.wrapping_add(&Uint::from_u64(block).shl(at));
                    at += block_len + run;
                }
                out.push(e);
            }
        }
    }
    let full = 64 * m.limb_len();
    out.push(Uint::ONE.shl(full).wrapping_sub(&Uint::ONE));
    out.push(m.wrapping_add(&Uint::ONE).shr(2));
    out.push(m.shr1());
    out.push(m.wrapping_sub(&Uint::from_u64(2)));
    out
}

#[test]
fn windowed_pow_matches_the_binary_ladder_and_the_runtime_walk() {
    let mut rng = StdRng::seed_from_u64(0x7769_6e64);
    for n in WIDTHS {
        // A random modulus and one whose top limb is all ones.
        for m in moduli(n, &mut rng).into_iter().take(2) {
            let ctx = MontCtx::new(&m).expect("odd and below capacity");
            let bases = [Uint::ZERO, Uint::ONE, ctx.r1, random_below(&mut rng, &m)];
            for e in exponents(&m) {
                for x in &bases {
                    let got = ctx.mont_pow(x, &e);
                    let what = format!("n = {n}, m = {m}, e = {e}, x = {x}");
                    assert_eq!(got, pow_ladder(&ctx, x, &e), "{what}");
                    let runtime = kernel::sliding_window(
                        *x,
                        &e,
                        |a| mul_runtime(a, a, &m, ctx.n0, n),
                        |a, b| mul_runtime(a, b, &m, ctx.n0, n),
                    );
                    assert_eq!(got, runtime.unwrap_or(ctx.r1), "{what}");
                }
            }
        }
    }
}

#[test]
fn add_sub_neg_double_match_the_full_capacity_definition() {
    for_each_context(|ctx, values| {
        let m = ctx.modulus();
        for a in values {
            for b in values {
                assert_eq!(ctx.add(a, b), a.mod_add(b, m));
                assert_eq!(ctx.sub(a, b), a.mod_sub(b, m));
            }
            assert_eq!(ctx.neg(a), a.mod_neg(m));
            assert_eq!(ctx.double(a), a.mod_double(m));
        }
    });
}

/// `(V_e, V_{e+1})` by the recurrence `V_{k+1} = V₁·V_k − V_{k−1}` from
/// `(V₀, V₁) = (2, V₁)`, one dispatched `mont_mul` per step: one step per
/// unit of `e` while `e` is small, and beyond that as the `e`-th power of
/// the step's matrix `[[V₁, −1], [1, 0]]`, which maps `(V_k, V_{k−1})` to
/// `(V_{k+1}, V_k)`, by binary powering.
fn lucas_by_recurrence(ctx: &MontCtx, v1: &Uint, e: u64) -> (Uint, Uint) {
    let two = ctx.double(&ctx.r1);
    if e <= 64 {
        let (mut v, mut w) = (two, *v1);
        for _ in 0..e {
            (v, w) = (w, ctx.sub(&ctx.mont_mul(v1, &w), &v));
        }
        return (v, w);
    }
    type Matrix = [[Uint; 2]; 2];
    let product = |x: &Matrix, y: &Matrix| -> Matrix {
        let entry =
            |i: usize, j: usize| ctx.mont_mul_sum(&[(&x[i][0], &y[0][j]), (&x[i][1], &y[1][j])]);
        [[entry(0, 0), entry(0, 1)], [entry(1, 0), entry(1, 1)]]
    };
    let step: Matrix = [[*v1, ctx.neg(&ctx.r1)], [ctx.r1, Uint::ZERO]];
    let mut power: Matrix = [[ctx.r1, Uint::ZERO], [Uint::ZERO, ctx.r1]];
    for i in (0..64).rev() {
        power = product(&power, &power);
        if e >> i & 1 == 1 {
            power = product(&power, &step);
        }
    }
    // M^e·(V₁, V₀) = (V_{e+1}, V_e).
    let row = |r: &[Uint; 2]| ctx.mont_mul_sum(&[(&r[0], v1), (&r[1], &two)]);
    (row(&power[1]), row(&power[0]))
}

/// The ladder on the runtime-width loops.
fn lucas_on_runtime_loops(ctx: &MontCtx, v1: &Uint, e: &Uint) -> (Uint, Uint) {
    let (m, n0, n) = (ctx.modulus(), ctx.n0, ctx.nlimbs());
    kernel::lucas_ladder(
        *v1,
        ctx.double(&ctx.r1),
        e,
        |a| mul_runtime(a, a, m, n0, n),
        |a, b| mul_runtime(a, b, m, n0, n),
        |a, b| kernel::mod_sub(a, b, m, n),
    )
}

#[test]
fn lucas_ladder_matches_the_runtime_walk_and_the_recurrence() {
    let mut rng = StdRng::seed_from_u64(0x6c75_6361);
    for n in WIDTHS {
        for m in moduli(n, &mut rng).into_iter().take(3) {
            let ctx = MontCtx::new(&m).expect("odd and below capacity");
            let mut es: Vec<u64> = vec![0, 1, 2, 3];
            es.extend((0..4).map(|_| random_bits(&mut rng, 64).limbs()[0]));
            for v1 in operands(&m, &mut rng) {
                for &e in &es {
                    let what = format!("n = {n}, m = {m}, e = {e}, V₁ = {v1}");
                    let exponent = Uint::from_u64(e);
                    let got = ctx.lucas_v(&v1, &exponent);
                    assert_eq!(got, lucas_on_runtime_loops(&ctx, &v1, &exponent), "{what}");
                    assert_eq!(got, lucas_by_recurrence(&ctx, &v1, e), "{what}");
                }
            }
        }
    }
}

/// Every [`Registers`] step on each pair of `values`, stored back.
struct EveryStep<'v> {
    values: &'v [Uint],
    n: usize,
}

impl OnRegisters for EveryStep<'_> {
    type Output = Vec<Uint>;

    fn run<R: Registers>(self, regs: &R) -> Vec<Uint> {
        let load = |x: &Uint| regs.load(&x.limbs()[..self.n]);
        let mut out = Vec::new();
        for a in self.values {
            for b in self.values {
                let (a, b) = (load(a), load(b));
                for r in [
                    regs.mul(&a, &b),
                    regs.mul_sum(&a, &b, &b, &a),
                    regs.add(&a, &b),
                    regs.sub(&a, &b),
                ] {
                    out.push(regs.store(&r));
                }
            }
        }
        out
    }
}

#[test]
fn the_dispatched_registers_match_the_runtime_registers() {
    for_each_context(|ctx, values| {
        let n = ctx.nlimbs();
        let steps = || EveryStep { values, n };
        assert_eq!(ctx.on_registers(steps()), steps().run(ctx), "n = {n}");
    });
}
