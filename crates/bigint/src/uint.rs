//! Fixed-capacity unsigned multi-precision integer.

use crate::error::BigIntError;
use crate::kernel::{self, by_width};
use crate::limb::{adc, mac, sbb};
use crate::Result;
use core::cmp::Ordering;
use core::fmt;

/// Number of 64-bit limbs held by a [`Uint`].
///
/// 26 limbs = 1664 bits: the largest field prime (1536 bits, 24 limbs) plus
/// a spare limb for carries fits in 25, and `hash_to_curve` at the 128-bit
/// level reads its 208-byte x-candidate (`byte_len(p) + 16` squeezed
/// bytes) as one `Uint`, which takes 26.
pub const MAX_LIMBS: usize = 26;

/// Capacity of a [`Uint`] in bits.
pub const MAX_BITS: usize = MAX_LIMBS * 64;

/// Fixed-capacity unsigned integer stored as little-endian 64-bit limbs.
///
/// `Uint` behaves as an integer in the range `[0, 2^1664)`.  Arithmetic is
/// provided through explicit, overflow-reporting methods (`overflowing_add`,
/// `checked_sub`, `mul_wide`, `div_rem`, …) rather than operator overloading so
/// call sites in the field/curve code always state how overflow is handled.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Uint {
    pub(crate) limbs: [u64; MAX_LIMBS],
}

impl Uint {
    /// The value `0`.
    pub const ZERO: Uint = Uint {
        limbs: [0; MAX_LIMBS],
    };

    /// The value `1`.
    pub const ONE: Uint = {
        let mut limbs = [0u64; MAX_LIMBS];
        limbs[0] = 1;
        Uint { limbs }
    };

    /// Constructs a `Uint` from a single 64-bit value.
    pub const fn from_u64(v: u64) -> Self {
        let mut limbs = [0u64; MAX_LIMBS];
        limbs[0] = v;
        Uint { limbs }
    }

    /// Constructs a `Uint` from a 128-bit value.
    pub const fn from_u128(v: u128) -> Self {
        let mut limbs = [0u64; MAX_LIMBS];
        limbs[0] = v as u64;
        limbs[1] = (v >> 64) as u64;
        Uint { limbs }
    }

    /// Constructs a `Uint` from little-endian limbs.  Extra capacity is zero-filled.
    ///
    /// Returns an error if more than [`MAX_LIMBS`] limbs are supplied.
    pub fn from_limbs_le(src: &[u64]) -> Result<Self> {
        if src.len() > MAX_LIMBS {
            return Err(BigIntError::Overflow);
        }
        let mut limbs = [0u64; MAX_LIMBS];
        limbs[..src.len()].copy_from_slice(src);
        Ok(Uint { limbs })
    }

    /// Returns the little-endian limb array.
    pub const fn limbs(&self) -> &[u64; MAX_LIMBS] {
        &self.limbs
    }

    /// Returns the low 64 bits.
    pub const fn low_u64(&self) -> u64 {
        self.limbs[0]
    }

    /// Returns the low 128 bits.
    pub const fn low_u128(&self) -> u128 {
        self.limbs[0] as u128 | ((self.limbs[1] as u128) << 64)
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs[0] == 1 && self.limbs[1..].iter().all(|&l| l == 0)
    }

    /// Returns `true` if the value is odd.
    pub const fn is_odd(&self) -> bool {
        self.limbs[0] & 1 == 1
    }

    /// Returns `true` if the value is even.
    pub const fn is_even(&self) -> bool {
        self.limbs[0] & 1 == 0
    }

    /// Returns bit `i` (little-endian bit numbering).  Bits beyond capacity read as 0.
    pub fn bit(&self, i: usize) -> bool {
        if i >= MAX_BITS {
            return false;
        }
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to 1.
    ///
    /// # Panics
    /// Panics if `i >= MAX_BITS`.
    pub fn set_bit(&mut self, i: usize) {
        assert!(i < MAX_BITS, "bit index out of range");
        self.limbs[i / 64] |= 1 << (i % 64);
    }

    /// Returns the position of the most significant set bit plus one
    /// (i.e. the minimal number of bits needed to represent the value).
    /// Returns 0 for zero.
    pub fn bits(&self) -> usize {
        for i in (0..MAX_LIMBS).rev() {
            if self.limbs[i] != 0 {
                return i * 64 + (64 - self.limbs[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Number of active limbs (ceil(bits / 64)), 0 for zero.
    pub fn limb_len(&self) -> usize {
        self.bits().div_ceil(64)
    }

    /// Addition returning the wrapped result and whether an overflow occurred.
    pub(crate) fn overflowing_add(&self, rhs: &Uint) -> (Uint, bool) {
        let mut out = Uint::ZERO;
        let mut carry = 0u64;
        for i in 0..MAX_LIMBS {
            let (l, c) = adc(self.limbs[i], rhs.limbs[i], carry);
            out.limbs[i] = l;
            carry = c;
        }
        (out, carry != 0)
    }

    /// Checked addition; `None` when the result exceeds the capacity.
    pub fn checked_add(&self, rhs: &Uint) -> Option<Uint> {
        match self.overflowing_add(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Wrapping addition modulo 2^[`MAX_BITS`].
    pub fn wrapping_add(&self, rhs: &Uint) -> Uint {
        self.overflowing_add(rhs).0
    }

    /// Subtraction returning the wrapped result and whether a borrow occurred.
    pub(crate) fn overflowing_sub(&self, rhs: &Uint) -> (Uint, bool) {
        let mut out = Uint::ZERO;
        let mut borrow = 0u64;
        for i in 0..MAX_LIMBS {
            let (l, b) = sbb(self.limbs[i], rhs.limbs[i], borrow);
            out.limbs[i] = l;
            borrow = b;
        }
        (out, borrow != 0)
    }

    /// Checked subtraction; `None` when `rhs > self`.
    pub fn checked_sub(&self, rhs: &Uint) -> Option<Uint> {
        match self.overflowing_sub(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Wrapping subtraction modulo 2^[`MAX_BITS`].
    pub fn wrapping_sub(&self, rhs: &Uint) -> Uint {
        self.overflowing_sub(rhs).0
    }

    /// Adds a single 64-bit value, reporting overflow.
    pub fn overflowing_add_u64(&self, rhs: u64) -> (Uint, bool) {
        self.overflowing_add(&Uint::from_u64(rhs))
    }

    /// Full schoolbook multiplication; the product is returned as `(lo, hi)`
    /// where the mathematical result equals `lo + hi * 2^MAX_BITS`.
    pub fn mul_wide(&self, rhs: &Uint) -> (Uint, Uint) {
        let a_len = self.limb_len();
        let b_len = rhs.limb_len();
        let mut w = [0u64; 2 * MAX_LIMBS];
        for i in 0..a_len {
            let mut carry = 0u64;
            for j in 0..b_len {
                let (lo, hi) = mac(w[i + j], self.limbs[i], rhs.limbs[j], carry);
                w[i + j] = lo;
                carry = hi;
            }
            w[i + b_len] = carry;
        }
        let mut lo = Uint::ZERO;
        let mut hi = Uint::ZERO;
        lo.limbs.copy_from_slice(&w[..MAX_LIMBS]);
        hi.limbs.copy_from_slice(&w[MAX_LIMBS..]);
        (lo, hi)
    }

    /// Checked multiplication; `None` when the product does not fit the capacity.
    pub fn checked_mul(&self, rhs: &Uint) -> Option<Uint> {
        let (lo, hi) = self.mul_wide(rhs);
        if hi.is_zero() {
            Some(lo)
        } else {
            None
        }
    }

    /// Multiplies by a single 64-bit value, reporting overflow via the returned carry limb.
    #[cfg(test)]
    pub(crate) fn mul_u64(&self, rhs: u64) -> (Uint, u64) {
        let mut out = Uint::ZERO;
        let mut carry = 0u64;
        for i in 0..MAX_LIMBS {
            let (lo, hi) = mac(0, self.limbs[i], rhs, carry);
            out.limbs[i] = lo;
            carry = hi;
        }
        (out, carry)
    }

    /// Logical left shift by `n` bits.  Bits shifted beyond the capacity are lost.
    pub fn shl(&self, n: usize) -> Uint {
        if n >= MAX_BITS {
            return Uint::ZERO;
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = Uint::ZERO;
        for i in (0..MAX_LIMBS).rev() {
            if i < limb_shift {
                break;
            }
            let src = i - limb_shift;
            let mut v = self.limbs[src] << bit_shift;
            if bit_shift > 0 && src > 0 {
                v |= self.limbs[src - 1] >> (64 - bit_shift);
            }
            out.limbs[i] = v;
        }
        out
    }

    /// Logical right shift by `n` bits.
    pub fn shr(&self, n: usize) -> Uint {
        if n >= MAX_BITS {
            return Uint::ZERO;
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = Uint::ZERO;
        for i in 0..MAX_LIMBS {
            let src = i + limb_shift;
            if src >= MAX_LIMBS {
                break;
            }
            let mut v = self.limbs[src] >> bit_shift;
            if bit_shift > 0 && src + 1 < MAX_LIMBS {
                v |= self.limbs[src + 1] << (64 - bit_shift);
            }
            out.limbs[i] = v;
        }
        out
    }

    /// Shift right by one bit (halving).
    pub fn shr1(&self) -> Uint {
        self.shr(1)
    }

    /// Division with remainder: returns `(quotient, remainder)` such that
    /// `self = quotient * divisor + remainder` and `remainder < divisor`.
    ///
    /// Implemented as binary long division over the significant bits, which is
    /// amply fast for the non-hot-path uses in this workspace (hash reduction
    /// and parameter generation).
    pub fn div_rem(&self, divisor: &Uint) -> Result<(Uint, Uint)> {
        if divisor.is_zero() {
            return Err(BigIntError::DivisionByZero);
        }
        if self < divisor {
            return Ok((Uint::ZERO, *self));
        }
        let shift = self.bits() - divisor.bits();
        let mut remainder = *self;
        let mut quotient = Uint::ZERO;
        let mut shifted = divisor.shl(shift);
        for i in (0..=shift).rev() {
            if remainder >= shifted {
                remainder = remainder.wrapping_sub(&shifted);
                quotient.set_bit(i);
            }
            shifted = shifted.shr1();
        }
        Ok((quotient, remainder))
    }

    /// Remainder of `self` modulo `m`.
    pub fn rem(&self, m: &Uint) -> Result<Uint> {
        Ok(self.div_rem(m)?.1)
    }

    /// Reduces a double-width value `(lo, hi)` (meaning `lo + hi * 2^MAX_BITS`)
    /// modulo `m`.  Used when hashing into large prime fields.
    pub fn rem_wide(lo: &Uint, hi: &Uint, m: &Uint) -> Result<Uint> {
        if m.is_zero() {
            return Err(BigIntError::DivisionByZero);
        }
        if hi.is_zero() {
            return lo.rem(m);
        }
        // Reduce the high half first: hi * 2^MAX_BITS mod m, computed by
        // repeated modular doubling of (hi mod m).
        let mut acc = hi.rem(m)?;
        for _ in 0..MAX_BITS {
            acc = acc.mod_double(m);
        }
        let lo_red = lo.rem(m)?;
        Ok(acc.mod_add(&lo_red, m))
    }

    /// Modular addition of two values already reduced modulo `m`.
    ///
    /// Requires `m` to occupy at most `MAX_BITS - 1` bits so the intermediate
    /// sum cannot wrap.
    pub(crate) fn mod_add(&self, rhs: &Uint, m: &Uint) -> Uint {
        debug_assert!(self < m && rhs < m);
        let (sum, carry) = self.overflowing_add(rhs);
        debug_assert!(!carry, "modulus too close to capacity for mod_add");
        if &sum >= m {
            sum.wrapping_sub(m)
        } else {
            sum
        }
    }

    /// Modular subtraction of two values already reduced modulo `m`.
    #[cfg(test)]
    pub(crate) fn mod_sub(&self, rhs: &Uint, m: &Uint) -> Uint {
        debug_assert!(self < m && rhs < m);
        match self.overflowing_sub(rhs) {
            (v, false) => v,
            (v, true) => v.wrapping_add(m),
        }
    }

    /// Modular doubling of a value already reduced modulo `m`.
    pub(crate) fn mod_double(&self, m: &Uint) -> Uint {
        self.mod_add(self, m)
    }

    /// Modular negation of a value already reduced modulo `m`.
    #[cfg(test)]
    pub(crate) fn mod_neg(&self, m: &Uint) -> Uint {
        if self.is_zero() {
            Uint::ZERO
        } else {
            m.wrapping_sub(self)
        }
    }

    /// Remainder of `self` modulo a single non-zero 64-bit divisor.
    ///
    /// Runs in one pass over the limbs, which keeps trial division during
    /// prime generation cheap.
    ///
    /// # Panics
    /// Panics if `d` is zero.
    pub(crate) fn rem_u64(&self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        let mut rem = 0u128;
        for i in (0..MAX_LIMBS).rev() {
            rem = ((rem << 64) | self.limbs[i] as u128) % d as u128;
        }
        rem as u64
    }

    /// Greatest common divisor via the binary GCD algorithm.
    pub fn gcd(&self, other: &Uint) -> Uint {
        let mut a = *self;
        let mut b = *other;
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        // Count common factors of two.
        let mut shift = 0usize;
        while a.is_even() && b.is_even() {
            a = a.shr1();
            b = b.shr1();
            shift += 1;
        }
        while a.is_even() {
            a = a.shr1();
        }
        loop {
            while b.is_even() {
                b = b.shr1();
            }
            if a > b {
                core::mem::swap(&mut a, &mut b);
            }
            b = b.wrapping_sub(&a);
            if b.is_zero() {
                break;
            }
        }
        a.shl(shift)
    }
}

/// Limb capacity of a [`WideAcc`]: a full double-width product plus two
/// headroom limbs so sums of many products never wrap.
pub const WIDE_LIMBS: usize = 2 * MAX_LIMBS + 2;

/// Unreduced double-width accumulator for sums of limb products.
///
/// This is the lazy-reduction primitive of the workspace: `Σ aᵢ·bᵢ` is
/// accumulated limb-by-limb with carries flowing into the headroom limbs
/// instead of being folded back by a modular reduction after every
/// product.  The accumulated value is reduced exactly once, by
/// [`MontCtx::mont_reduce_wide`](crate::MontCtx::mont_reduce_wide), so a k-term
/// product pays one Montgomery reduction instead of k.
///
/// The two headroom limbs above the `2·MAX_LIMBS` product width admit up
/// to `2^128` accumulated terms — effectively unbounded for field code,
/// where k is the handful of cross terms in an `Fp2` product or a fused
/// line evaluation.
#[derive(Clone, Debug)]
pub struct WideAcc {
    limbs: [u64; WIDE_LIMBS],
}

impl Default for WideAcc {
    fn default() -> Self {
        WideAcc::zero()
    }
}

impl WideAcc {
    /// The empty accumulator.
    pub const fn zero() -> Self {
        WideAcc {
            limbs: [0u64; WIDE_LIMBS],
        }
    }

    /// Accumulates the schoolbook product `a·b` over the first `n` limbs of
    /// each operand, without reducing.  Carries out of the product width
    /// propagate into the headroom limbs.
    ///
    /// `n` is the width of a [`MontCtx`](crate::MontCtx) — its
    /// [`nlimbs`](crate::MontCtx::nlimbs) — and both operands must fit in
    /// `n` limbs.
    ///
    /// # Panics
    ///
    /// If `n` is not a width a `MontCtx` can have (1, 3, 4, 8, 16 or 24).
    pub fn accumulate(&mut self, a: &Uint, b: &Uint, n: usize) {
        debug_assert!(a.limb_len() <= n && b.limb_len() <= n);
        by_width!(n, N => kernel::accumulate_fixed::<N>(&mut self.limbs, a, b))
    }

    /// Whether nothing has been accumulated (or the sum is zero).
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// The raw little-endian limb buffer (for the reducer).
    pub(crate) fn limbs_mut(&mut self) -> &mut [u64; WIDE_LIMBS] {
        &mut self.limbs
    }
}

impl Ord for Uint {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..MAX_LIMBS).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for Uint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Default for Uint {
    fn default() -> Self {
        Uint::ZERO
    }
}

impl fmt::Debug for Uint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uint(0x{})", self.to_hex())
    }
}

impl fmt::Display for Uint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<u64> for Uint {
    fn from(v: u64) -> Self {
        Uint::from_u64(v)
    }
}

impl From<u128> for Uint {
    fn from(v: u128) -> Self {
        Uint::from_u128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_behave() {
        assert!(Uint::ZERO.is_zero());
        assert!(Uint::ONE.is_one());
        assert!(Uint::ONE.is_odd());
        assert!(Uint::ZERO.is_even());
        assert_eq!(Uint::ZERO.bits(), 0);
        assert_eq!(Uint::ONE.bits(), 1);
    }

    #[test]
    fn from_u128_round_trips() {
        let v = 0x0123_4567_89AB_CDEF_0011_2233_4455_6677u128;
        let u = Uint::from_u128(v);
        assert_eq!(u.low_u128(), v);
        assert_eq!(u.bits(), 121);
    }

    #[test]
    fn addition_and_subtraction_invert() {
        let a = Uint::from_u128(u128::MAX);
        let b = Uint::from_u64(0xDEAD_BEEF);
        let (sum, c) = a.overflowing_add(&b);
        assert!(!c);
        let (diff, borrow) = sum.overflowing_sub(&b);
        assert!(!borrow);
        assert_eq!(diff, a);
    }

    #[test]
    fn overflow_is_reported() {
        let mut max = Uint::ZERO;
        for l in max.limbs.iter_mut() {
            *l = u64::MAX;
        }
        let (wrapped, carry) = max.overflowing_add(&Uint::ONE);
        assert!(carry);
        assert!(wrapped.is_zero());
        assert!(max.checked_add(&Uint::ONE).is_none());

        let (under, borrow) = Uint::ZERO.overflowing_sub(&Uint::ONE);
        assert!(borrow);
        assert_eq!(under, max);
    }

    #[test]
    fn multiplication_matches_u128() {
        let a = 0xFFFF_FFFF_FFFFu64;
        let b = 0x1234_5678_9ABCu64;
        let (lo, hi) = Uint::from_u64(a).mul_wide(&Uint::from_u64(b));
        assert!(hi.is_zero());
        assert_eq!(lo.low_u128(), a as u128 * b as u128);
    }

    #[test]
    fn wide_multiplication_hits_high_half() {
        // (2^MAX_BITS - 1)^2 = 2^(2*MAX_BITS) - 2^(MAX_BITS+1) + 1
        let mut max = Uint::ZERO;
        for l in max.limbs.iter_mut() {
            *l = u64::MAX;
        }
        let (lo, hi) = max.mul_wide(&max);
        assert_eq!(lo, Uint::ONE);
        assert_eq!(hi, max.wrapping_sub(&Uint::ONE));
    }

    #[test]
    fn shifts_behave() {
        let v = Uint::from_u64(1);
        assert_eq!(v.shl(64).limbs[1], 1);
        assert_eq!(v.shl(65).limbs[1], 2);
        assert_eq!(v.shl(64).shr(64), v);
        assert_eq!(v.shl(MAX_BITS), Uint::ZERO);
        let w = Uint::from_u128(0x8000_0000_0000_0000_0000_0000_0000_0000u128);
        assert_eq!(w.shr(127), Uint::ONE);
    }

    #[test]
    fn bits_and_set_bit() {
        let mut v = Uint::ZERO;
        v.set_bit(200);
        assert!(v.bit(200));
        assert!(!v.bit(199));
        assert_eq!(v.bits(), 201);
        assert_eq!(v.limb_len(), 4);
    }

    #[test]
    fn division_identity() {
        let n = Uint::from_u128(0x1234_5678_9ABC_DEF0_1111_2222_3333_4444u128);
        let d = Uint::from_u64(0xFEDC_BA98);
        let (q, r) = n.div_rem(&d).unwrap();
        let (back, hi) = q.mul_wide(&d);
        assert!(hi.is_zero());
        assert_eq!(back.wrapping_add(&r), n);
        assert!(r < d);
    }

    #[test]
    fn division_by_zero_errors() {
        assert_eq!(
            Uint::ONE.div_rem(&Uint::ZERO).unwrap_err(),
            BigIntError::DivisionByZero
        );
    }

    #[test]
    fn division_small_by_large() {
        let small = Uint::from_u64(42);
        let large = Uint::from_u128(u128::MAX);
        let (q, r) = small.div_rem(&large).unwrap();
        assert!(q.is_zero());
        assert_eq!(r, small);
    }

    #[test]
    fn rem_wide_matches_manual() {
        // (lo + hi * 2^MAX_BITS) mod m with hi small enough to verify by hand.
        let m = Uint::from_u64(1_000_000_007);
        let lo = Uint::from_u64(123_456_789);
        let hi = Uint::from_u64(3);
        let got = Uint::rem_wide(&lo, &hi, &m).unwrap();
        // 2^MAX_BITS mod m computed with modular doubling from 1.
        let mut pow = Uint::ONE;
        for _ in 0..MAX_BITS {
            pow = pow.mod_double(&m);
        }
        let mut expect = Uint::ZERO;
        for _ in 0..3 {
            expect = expect.mod_add(&pow, &m);
        }
        expect = expect.mod_add(&lo.rem(&m).unwrap(), &m);
        assert_eq!(got, expect);
    }

    #[test]
    fn modular_helpers() {
        let m = Uint::from_u64(97);
        let a = Uint::from_u64(90);
        let b = Uint::from_u64(15);
        assert_eq!(a.mod_add(&b, &m), Uint::from_u64(8));
        assert_eq!(b.mod_sub(&a, &m), Uint::from_u64(22));
        assert_eq!(a.mod_double(&m), Uint::from_u64(83));
        assert_eq!(a.mod_neg(&m), Uint::from_u64(7));
        assert_eq!(Uint::ZERO.mod_neg(&m), Uint::ZERO);
    }

    #[test]
    fn rem_u64_matches_div_rem() {
        let n = Uint::from_u128(0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210u128).shl(100);
        for d in [1u64, 2, 3, 97, 65537, u64::MAX] {
            let expect = n.div_rem(&Uint::from_u64(d)).unwrap().1;
            assert_eq!(Uint::from_u64(n.rem_u64(d)), expect, "divisor {d}");
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn rem_u64_by_zero_panics() {
        let _ = Uint::ONE.rem_u64(0);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(
            Uint::from_u64(48).gcd(&Uint::from_u64(36)),
            Uint::from_u64(12)
        );
        assert_eq!(Uint::from_u64(17).gcd(&Uint::from_u64(13)), Uint::ONE);
        assert_eq!(Uint::ZERO.gcd(&Uint::from_u64(5)), Uint::from_u64(5));
        assert_eq!(Uint::from_u64(5).gcd(&Uint::ZERO), Uint::from_u64(5));
    }

    #[test]
    fn ordering_is_numeric() {
        let a = Uint::from_u64(5).shl(300);
        let b = Uint::from_u64(7).shl(200);
        assert!(a > b);
        assert!(b < a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn from_limbs_le_checks_length() {
        assert!(Uint::from_limbs_le(&[1u64; MAX_LIMBS]).is_ok());
        assert!(Uint::from_limbs_le(&[1u64; MAX_LIMBS + 1]).is_err());
        let v = Uint::from_limbs_le(&[7, 9]).unwrap();
        assert_eq!(v.limbs[0], 7);
        assert_eq!(v.limbs[1], 9);
    }

    #[test]
    fn wide_acc_matches_mul_wide() {
        let a = Uint::from_u128(0x0123_4567_89AB_CDEF_0011_2233_4455_6677u128);
        let b = Uint::from_u128(0xFFFF_FFFF_FFFF_FFFF_FFFF_FFFF_FFFF_FFFEu128);
        let mut acc = WideAcc::zero();
        assert!(acc.is_zero());
        acc.accumulate(&a, &b, 3);
        let (lo, _) = a.mul_wide(&b);
        let limbs = acc.limbs_mut();
        assert_eq!(&limbs[..4], &lo.limbs[..4]);
        assert!(limbs[4..].iter().all(|&l| l == 0));
    }

    #[test]
    fn wide_acc_sums_products_without_wrapping() {
        // Accumulate k copies of the all-ones three-limb square: the sum is
        // exactly k · (2^192 − 1)², verified against mul_wide + additions.
        let ones = Uint::ONE.shl(192).wrapping_sub(&Uint::ONE);
        let k = 5u64;
        let mut acc = WideAcc::zero();
        for _ in 0..k {
            acc.accumulate(&ones, &ones, 3);
        }
        let (sq, _) = ones.mul_wide(&ones);
        let (expect, carry) = sq.mul_u64(k);
        assert_eq!(carry, 0);
        let limbs = acc.limbs_mut();
        assert_eq!(&limbs[..7], &expect.limbs[..7]);
        assert!(limbs[7..].iter().all(|&l| l == 0));
    }

    #[test]
    #[should_panic(expected = "no limb kernel at 2 limbs")]
    fn wide_acc_refuses_a_width_without_a_kernel() {
        let ones = Uint::from_u128(u128::MAX);
        WideAcc::zero().accumulate(&ones, &ones, 2);
    }

    #[test]
    fn mul_u64_reports_carry() {
        let (v, carry) = Uint::from_u64(u64::MAX).mul_u64(2);
        assert_eq!(carry, 0);
        assert_eq!(v.low_u128(), (u64::MAX as u128) * 2);
        let mut top = Uint::ZERO;
        top.limbs[MAX_LIMBS - 1] = u64::MAX;
        let (_, carry) = top.mul_u64(4);
        assert!(carry > 0);
    }
}
