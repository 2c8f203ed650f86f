//! Limb kernels behind [`MontCtx`](crate::MontCtx) and
//! [`WideAcc`](crate::WideAcc), one per width: each is generic over
//! `const N: usize`, and its loops have compile-time trip counts over
//! `[u64; N]` arrays — the compiler unrolls them, keeps the running product
//! in registers and drops every bounds check.  Exponentiation (the sliding
//! window, the Lucas ladder) calls the same multiply and square (`mul_core`,
//! `sqr_core`) on arrays, never widening to a `Uint`, and `Fixed` hands the
//! arrays to any [`Registers`] loop.
//!
//! [`by_width!`] is the one place that maps a modulus width to a kernel:
//! the widths listed there are the limb counts of the four security levels'
//! field primes `p` (3, 8, 16 and 24 limbs) and group orders `q` (1, 3 and
//! 4).  The width is a property of the parameters, never a setting:
//! [`MontCtx::new`](crate::MontCtx::new) refuses every other one.  The
//! runtime-width loops the kernels are checked against limb for limb are
//! test code (`mont/kernel_oracle.rs`).
//!
//! All kernels expect operands `< m` (so limbs at and above the width are
//! zero) and return canonical residues: `< m`, upper limbs zero.

// Carry chains index several arrays by the same position; iterator zips
// would hide which limb a carry leaves and which it enters.
#![allow(clippy::needless_range_loop)]

use crate::limb::{adc, mac};
use crate::mont::Registers;
use crate::uint::{Uint, WIDE_LIMBS};

/// Runs `$fixed` with the const `$N` bound to `$n` when `$n` is a width
/// with a kernel, and `$missing` (by default a panic) at any other width —
/// which no [`MontCtx`](crate::MontCtx) has.
macro_rules! by_width {
    ($n:expr, $N:ident => $fixed:expr $(,)?) => {
        $crate::kernel::by_width!($n, $N => $fixed, else panic!("no limb kernel at {} limbs: not a MontCtx width", $n))
    };
    ($n:expr, $N:ident => $fixed:expr, else $missing:expr) => {
        match $n {
            1 => {
                const $N: usize = 1;
                $fixed
            }
            3 => {
                const $N: usize = 3;
                $fixed
            }
            4 => {
                const $N: usize = 4;
                $fixed
            }
            8 => {
                const $N: usize = 8;
                $fixed
            }
            16 => {
                const $N: usize = 16;
                $fixed
            }
            24 => {
                const $N: usize = 24;
                $fixed
            }
            _ => $missing,
        }
    };
}
pub(crate) use by_width;

/// `a < b` for equal-length little-endian limb slices.
#[inline(always)]
pub(crate) fn lt(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

/// `a += b` over equal-length slices; returns the carry out.
#[inline(always)]
pub(crate) fn add_assign(a: &mut [u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut carry = false;
    for (x, &y) in a.iter_mut().zip(b) {
        (*x, carry) = x.carrying_add(y, carry);
    }
    carry
}

/// `a -= b` over equal-length slices; returns the borrow out.
#[inline(always)]
pub(crate) fn sub_assign(a: &mut [u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        (*x, borrow) = x.borrowing_sub(y, borrow);
    }
    borrow
}

/// Brings `top·2^(64·len) + r` below `m` by repeated subtraction; the
/// caller guarantees the value is a small multiple of `m` (at most
/// `terms + 1` for a reduced sum of `terms` products, 2 for a product).
#[inline(always)]
pub(crate) fn canonicalise(r: &mut [u64], mut top: u64, m: &[u64]) {
    while top != 0 || !lt(r, m) {
        top -= u64::from(sub_assign(r, m));
    }
}

/// The first `N` limbs of `x` as an array.
#[inline(always)]
fn head<const N: usize>(x: &Uint) -> &[u64; N] {
    x.limbs[..N]
        .try_into()
        .expect("a dispatched width is below MAX_LIMBS")
}

/// The canonical residue of the `N`-limb value `top·2^(64N) + r`, which is
/// below a small multiple of `m`.
#[inline(always)]
fn finish<const N: usize>(mut r: [u64; N], top: u64, m: &[u64; N]) -> [u64; N] {
    canonicalise(&mut r, top, m);
    r
}

/// `r` as a `Uint`, upper limbs zero.
#[inline(always)]
fn widen<const N: usize>(r: [u64; N]) -> Uint {
    let mut out = Uint::ZERO;
    out.limbs[..N].copy_from_slice(&r);
    out
}

// ---------------------------------------------------------------------
// Modular add / sub / neg: one implementation over equal-length slices,
// for `n` limbs of a `Uint` and for the `[u64; N]` registers.
// ---------------------------------------------------------------------

/// `r = a + b mod m`.
#[inline(always)]
fn add_into(r: &mut [u64], a: &[u64], b: &[u64], m: &[u64]) {
    let mut carry = false;
    for ((o, &x), &y) in r.iter_mut().zip(a).zip(b) {
        (*o, carry) = x.carrying_add(y, carry);
    }
    // a + b < 2m: one conditional subtraction.
    if carry || !lt(r, m) {
        sub_assign(r, m);
    }
}

/// `r = a − b mod m`.
#[inline(always)]
fn sub_into(r: &mut [u64], a: &[u64], b: &[u64], m: &[u64]) {
    let mut borrow = false;
    for ((o, &x), &y) in r.iter_mut().zip(a).zip(b) {
        (*o, borrow) = x.borrowing_sub(y, borrow);
    }
    if borrow {
        add_assign(r, m);
    }
}

/// `a + b mod m` over `n` limbs.
pub(crate) fn mod_add(a: &Uint, b: &Uint, m: &Uint, n: usize) -> Uint {
    let mut out = Uint::ZERO;
    add_into(
        &mut out.limbs[..n],
        &a.limbs[..n],
        &b.limbs[..n],
        &m.limbs[..n],
    );
    out
}

/// `a − b mod m` over `n` limbs.
pub(crate) fn mod_sub(a: &Uint, b: &Uint, m: &Uint, n: usize) -> Uint {
    let mut out = Uint::ZERO;
    sub_into(
        &mut out.limbs[..n],
        &a.limbs[..n],
        &b.limbs[..n],
        &m.limbs[..n],
    );
    out
}

/// `−a mod m` over `n` limbs.
pub(crate) fn mod_neg(a: &Uint, m: &Uint, n: usize) -> Uint {
    if a.limbs[..n].iter().all(|&l| l == 0) {
        return Uint::ZERO;
    }
    mod_sub(m, a, m, n)
}

// ---------------------------------------------------------------------
// Fixed-width kernels.
// ---------------------------------------------------------------------

/// CIOS Montgomery multiplication `a·b·R⁻¹ mod m`, `R = 2^(64N)`.
pub(crate) fn mul_fixed<const N: usize>(a: &Uint, b: &Uint, m: &Uint, n0: u64) -> Uint {
    widen(mul_core(head::<N>(a), head::<N>(b), head::<N>(m), n0))
}

/// Montgomery squaring `a²·R⁻¹ mod m`.
pub(crate) fn sqr_fixed<const N: usize, const W: usize>(a: &Uint, m: &Uint, n0: u64) -> Uint {
    widen(sqr_core::<N, W>(head::<N>(a), head::<N>(m), n0))
}

/// The CIOS multiplication over arrays.  The running value `t` has `N + 2`
/// limbs; the two above `t[N−1]` live in scalars so the array stays
/// `[u64; N]`.
#[inline(always)]
fn mul_core<const N: usize>(a: &[u64; N], b: &[u64; N], m: &[u64; N], n0: u64) -> [u64; N] {
    let mut t = [0u64; N];
    let mut top = 0u64;
    for i in 0..N {
        // t += a · b[i]
        let mut carry = 0;
        for j in 0..N {
            (t[j], carry) = mac(t[j], a[j], b[i], carry);
        }
        let (t_n, t_n1) = adc(top, carry, 0);
        // t = (t + q·m) / 2^64 with q chosen to zero the low limb.
        let q = t[0].wrapping_mul(n0);
        let (_, mut carry) = mac(t[0], q, m[0], 0);
        for j in 1..N {
            (t[j - 1], carry) = mac(t[j], q, m[j], carry);
        }
        let (lo, hi) = adc(t_n, carry, 0);
        t[N - 1] = lo;
        top = t_n1 + hi;
    }
    finish(t, top, m)
}

/// The squaring over arrays: the `N(N−1)/2` cross products are computed
/// once and doubled, the `N` diagonal squares added, and the `W = 2N`-limb
/// square is reduced by [`redc`].
#[inline(always)]
fn sqr_core<const N: usize, const W: usize>(a: &[u64; N], m: &[u64; N], n0: u64) -> [u64; N] {
    const { assert!(W == 2 * N) };
    let mut t = [0u64; W];
    for i in 0..N {
        let mut carry = 0;
        for j in i + 1..N {
            (t[i + j], carry) = mac(t[i + j], a[i], a[j], carry);
        }
        t[i + N] = carry;
    }
    // t ← 2·t + Σ a[i]²·2^(128i), two limbs per step.  The cross sum is
    // below 2^(128N − 1), so doubling loses no bit.
    let (mut msb, mut carry) = (0, 0);
    for i in 0..N {
        let (even, odd) = (t[2 * i], t[2 * i + 1]);
        let (lo, hi) = mac((even << 1) | msb, a[i], a[i], carry);
        t[2 * i] = lo;
        (t[2 * i + 1], carry) = adc((odd << 1) | (even >> 63), hi, 0);
        msb = odd >> 63;
    }
    debug_assert_eq!(carry, 0);
    let (r, top) = redc(halves::<N>(&t), m, n0);
    finish(r, top, m)
}

/// The low and high `N` limbs of a buffer of at least `2N`.
#[inline(always)]
fn halves<const N: usize>(t: &[u64]) -> (&[u64; N], &[u64; N]) {
    let (low, high) = t[..2 * N].split_at(N);
    (
        low.try_into().expect("split at N"),
        high.try_into().expect("2N − N limbs"),
    )
}

/// Word-by-word Montgomery reduction of the `2N`-limb value `(low, high)`:
/// `N` times, add the multiple of `m` that zeroes the lowest limb and drop
/// that limb.  The running value lives in an `N`-limb window that slides up
/// one limb per step, taking in the next limb of `high`.  Returns
/// `(low, high)/R` as `N` limbs and a carry limb.
#[inline(always)]
fn redc<const N: usize>(
    (low, high): (&[u64; N], &[u64; N]),
    m: &[u64; N],
    n0: u64,
) -> ([u64; N], u64) {
    let mut t = *low;
    let mut carry_up = 0;
    for i in 0..N {
        let q = t[0].wrapping_mul(n0);
        let (_, mut carry) = mac(t[0], q, m[0], 0);
        for j in 1..N {
            (t[j - 1], carry) = mac(t[j], q, m[j], carry);
        }
        // The row's carry lands on limb i + N, which enters the window now;
        // what that addition carries out is due one limb higher, where the
        // next row's carry lands too.
        (t[N - 1], carry_up) = adc(high[i], carry, carry_up);
    }
    (t, carry_up)
}

/// Montgomery reduction `acc·R⁻¹ mod m` of an accumulated sum of products.
pub(crate) fn reduce_fixed<const N: usize>(acc: &[u64; WIDE_LIMBS], m: &Uint, n0: u64) -> Uint {
    let m = head::<N>(m);
    debug_assert!(acc[2 * N + 1..].iter().all(|&l| l == 0));
    let (r, carry) = redc(halves::<N>(acc), m, n0);
    // The sum is below terms·m², so acc/R is below (terms + 1)·m: it spills
    // into one limb above the N-limb result, never two.
    widen(finish(r, acc[2 * N] + carry, m))
}

/// `acc += a·b` (schoolbook, unreduced).
pub(crate) fn accumulate_fixed<const N: usize>(acc: &mut [u64; WIDE_LIMBS], a: &Uint, b: &Uint) {
    let carry = mac_into(acc, head::<N>(a), head::<N>(b));
    ripple(acc, 2 * N, carry);
}

/// `t += a·b` over the first `2N` limbs of `t`; returns the carry out of
/// them.
#[inline(always)]
fn mac_into<const N: usize>(t: &mut [u64], a: &[u64; N], b: &[u64; N]) -> u64 {
    let mut carry_up = 0;
    for i in 0..N {
        let mut carry = 0;
        for j in 0..N {
            (t[i + j], carry) = mac(t[i + j], a[j], b[i], carry);
        }
        (t[i + N], carry_up) = adc(t[i + N], carry, carry_up);
    }
    carry_up
}

/// Propagates `carry` into `acc[k..]` (the headroom limbs).
#[inline(always)]
pub(crate) fn ripple(acc: &mut [u64; WIDE_LIMBS], mut k: usize, mut carry: u64) {
    while carry != 0 {
        (acc[k], carry) = adc(acc[k], carry, 0);
        k += 1;
    }
}

/// `(a·b + c·d)·R⁻¹ mod m`: both products summed into one `W = 2N`-limb
/// buffer and a top limb, reduced once (the sum is below `2m²`).
#[inline(always)]
fn mul_sum_core<const N: usize, const W: usize>(
    [a, b, c, d]: [&[u64; N]; 4],
    m: &[u64; N],
    n0: u64,
) -> [u64; N] {
    const { assert!(W == 2 * N) };
    let mut t = [0u64; W];
    let top = mac_into(&mut t, a, b) + mac_into(&mut t, c, d);
    let (r, carry) = redc(halves::<N>(&t), m, n0);
    finish(r, top + carry, m)
}

/// The `[u64; N]` registers of one modulus: what
/// [`MontCtx::on_registers`](crate::MontCtx::on_registers) hands a
/// computation at a dispatched width.  `W = 2N` sizes the sum of products.
#[derive(Clone, Copy)]
pub(crate) struct Fixed<'m, const N: usize, const W: usize> {
    m: &'m [u64; N],
    n0: u64,
}

impl<'m, const N: usize, const W: usize> Fixed<'m, N, W> {
    pub(crate) fn new(m: &'m Uint, n0: u64) -> Self {
        Fixed {
            m: head::<N>(m),
            n0,
        }
    }
}

impl<const N: usize, const W: usize> Registers for Fixed<'_, N, W> {
    type Reg = [u64; N];

    #[inline(always)]
    fn load(&self, limbs: &[u64]) -> [u64; N] {
        limbs.try_into().expect("a value of the modulus' width")
    }

    fn store(&self, a: &[u64; N]) -> Uint {
        widen(*a)
    }

    #[inline]
    fn mul(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        mul_core(a, b, self.m, self.n0)
    }

    #[inline]
    fn mul_sum(&self, a: &[u64; N], b: &[u64; N], c: &[u64; N], d: &[u64; N]) -> [u64; N] {
        mul_sum_core::<N, W>([a, b, c, d], self.m, self.n0)
    }

    #[inline(always)]
    fn add(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let mut r = [0; N];
        add_into(&mut r, a, b, self.m);
        r
    }

    #[inline(always)]
    fn sub(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let mut r = [0; N];
        sub_into(&mut r, a, b, self.m);
        r
    }
}

const WINDOW: usize = 5; // most exponent bits one table multiplication consumes

/// `x^e·R mod m` for a Montgomery-form `x < m`: [`sliding_window`] on arrays.
pub(crate) fn pow_fixed<const N: usize, const W: usize>(
    x: &Uint,
    e: &Uint,
    m: &Uint,
    n0: u64,
) -> Option<Uint> {
    let m = head::<N>(m);
    let sqr = |a: &[u64; N]| sqr_core::<N, W>(a, m, n0);
    sliding_window(*head::<N>(x), e, sqr, |a, b| mul_core(a, b, m, n0)).map(widen)
}

/// Left-to-right sliding-window `x^e` (`None` for `e = 0`): a squaring per
/// bit, and per window of ≤ [`WINDOW`] bits from set bit to set bit one
/// multiplication by an odd power of `x` — one per ~6 bits, not per 2.
#[inline(always)]
pub(crate) fn sliding_window<T: Copy>(
    x: T,
    e: &Uint,
    sqr: impl Fn(&T) -> T,
    mul: impl Fn(&T, &T) -> T,
) -> Option<T> {
    // odd[k] = x^(2k + 1).
    let x2 = sqr(&x);
    let mut odd = [x; 1 << (WINDOW - 1)];
    for k in 1..odd.len() {
        odd[k] = mul(&odd[k - 1], &x2);
    }
    let (mut acc, mut top) = (None, e.bits());
    while top > 0 {
        if !e.bit(top - 1) {
            acc = acc.map(|a| sqr(&a));
            top -= 1;
            continue;
        }
        // The window runs from the set bit `top − 1` down to the lowest set
        // bit `low ≥ top − WINDOW`; its value is odd, `2·index + 1`.
        let mut low = top.saturating_sub(WINDOW);
        while !e.bit(low) {
            low += 1;
        }
        let index = (low + 1..top)
            .rev()
            .fold(0, |v, i| (v << 1) | usize::from(e.bit(i)));
        acc = Some(match acc {
            None => odd[index],
            Some(a) => mul(&(low..top).fold(a, |a, _| sqr(&a)), &odd[index]),
        });
        top = low;
    }
    acc
}

/// `(V_e, V_{e+1})·R` for a Montgomery-form `v1 = V₁·R`: [`lucas_ladder`]
/// on arrays.
pub(crate) fn lucas_fixed<const N: usize, const W: usize>(
    v1: &Uint,
    two: &Uint,
    e: &Uint,
    m: &Uint,
    n0: u64,
) -> (Uint, Uint) {
    let regs = Fixed::<N, W>::new(m, n0);
    let sqr = |a: &[u64; N]| sqr_core::<N, W>(a, regs.m, n0);
    let mul = |a: &[u64; N], b: &[u64; N]| mul_core(a, b, regs.m, n0);
    let (v, w) = lucas_ladder(*head(v1), *head(two), e, sqr, mul, |a, b| regs.sub(a, b));
    (widen(v), widen(w))
}

/// The Lucas sequence `V₀ = 2`, `V_{k+1} = V₁·V_k − V_{k−1}` at `e` and
/// `e + 1`.  From `(V₀, V₁)`, each bit of `e` from the top takes
/// `(V_k, V_{k+1})` to `(V_{2k+1}, V_{2k+2})` for a 1, to
/// `(V_{2k}, V_{2k+1})` for a 0, by `V_{2k} = V_k² − 2` and
/// `V_{2k+1} = V_k·V_{k+1} − V₁`: one multiplication and one squaring per
/// bit.  The walk branches on the bits of `e`; the pairing's exponent is
/// its public cofactor, so that leaks nothing.
#[inline(always)]
pub(crate) fn lucas_ladder<T: Copy>(
    v1: T,
    two: T,
    e: &Uint,
    sqr: impl Fn(&T) -> T,
    mul: impl Fn(&T, &T) -> T,
    sub: impl Fn(&T, &T) -> T,
) -> (T, T) {
    let (mut v, mut w) = (two, v1);
    for i in (0..e.bits()).rev() {
        let odd = sub(&mul(&v, &w), &v1);
        (v, w) = if e.bit(i) {
            (odd, sub(&sqr(&w), &two))
        } else {
            (sub(&sqr(&v), &two), odd)
        };
    }
    (v, w)
}
