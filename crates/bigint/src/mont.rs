//! Montgomery-form modular arithmetic context.
//!
//! A [`MontCtx`] is created once per modulus (field prime or group order) and
//! then shared by every element of that ring.
//!
//! **What is width-bounded.**  The arithmetic of every operation —
//! multiplication, squaring, exponentiation, wide reduction, addition,
//! subtraction, negation, the final `>= m` test and conditional
//! subtraction, the binary GCD — reads and writes exactly `nlimbs` limbs of
//! its operands (plus the one or two carry limbs the algorithm needs).
//! Multiply, square, exponentiate and reduce run as fixed-width kernels
//! (the crate-private `kernel` module), one per width a modulus can have:
//! 1, 3, 4, 8, 16 or 24 limbs, the security levels' group orders and field
//! primes.  [`MontCtx::new`] refuses every other width.
//!
//! **What is not.**  Operands and results are [`Uint`]s, and a `Uint` is
//! always [`MAX_LIMBS`](crate::MAX_LIMBS) limbs of storage: each result is
//! a 208-byte value whose upper limbs are zero-filled, and each move or
//! copy of it moves all 26 — except inside the loops that dispatch once
//! and then run on `nlimbs`-wide registers: [`MontCtx::mont_pow`]'s window
//! walk (every square root), [`MontCtx::lucas_v`]'s ladder (the pairing's
//! final exponentiation) and any [`OnRegisters`] computation (the Miller
//! loop), which works on the [`Registers`] of [`MontCtx::on_registers`].  Setup
//! ([`MontCtx::new`]), [`MontCtx::reduce`] (one 26-limb comparison, also
//! the input check of an inversion) and `Uint::is_zero` tests use
//! full-capacity `Uint` operations; none of them runs per multiplication.

use crate::error::BigIntError;
use crate::kernel::{self, add_assign, by_width, lt, sub_assign};
use crate::limb::inv_mod_u64;
use crate::uint::{Uint, WideAcc};
use crate::Result;

/// Montgomery reduction context for an odd modulus `m`.
///
/// Values handled by the context come in two flavours:
/// * *plain* residues in `[0, m)`, and
/// * *Montgomery* residues `a·R mod m` where `R = 2^(64·nlimbs)`.
///
/// Methods are explicit about which representation they expect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MontCtx {
    modulus: Uint,
    nlimbs: usize,
    /// `-m^{-1} mod 2^64`
    n0: u64,
    /// `R mod m` — the Montgomery form of 1.
    r1: Uint,
    /// `R^2 mod m` — used to convert into Montgomery form.
    r2: Uint,
    /// `R^3 mod m` — restores Montgomery form after a plain inversion.
    r3: Uint,
}

impl MontCtx {
    /// Creates a context for the odd modulus `m`.
    ///
    /// The modulus must be odd, greater than one, and as wide as a limb
    /// kernel: 1, 3, 4, 8, 16 or 24 limbs, the widths of the security
    /// levels' group orders and field primes.  Every such width leaves at
    /// least one spare limb of [`Uint`] capacity, so modular addition
    /// cannot wrap.
    pub fn new(m: &Uint) -> Result<Self> {
        if m.is_zero() || m.is_one() {
            return Err(BigIntError::InvalidModulus("modulus must be > 1"));
        }
        if m.is_even() {
            return Err(BigIntError::InvalidModulus("modulus must be odd"));
        }
        let nlimbs = m.limb_len();
        by_width!(nlimbs, _N => (), else return Err(BigIntError::InvalidModulus(
            "no limb kernel at the modulus' width",
        )));
        let n0 = inv_mod_u64(m.limbs()[0]).wrapping_neg();

        // x·R mod m via 64·nlimbs modular doublings of x.
        let times_r = |mut x: Uint| {
            for _ in 0..(64 * nlimbs) {
                x = x.mod_double(m);
            }
            x
        };
        let r1 = times_r(Uint::ONE);
        let r2 = times_r(r1);
        let r3 = times_r(r2);
        Ok(MontCtx {
            modulus: *m,
            nlimbs,
            n0,
            r1,
            r2,
            r3,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &Uint {
        &self.modulus
    }

    /// Number of 64-bit limbs occupied by the modulus.
    pub fn nlimbs(&self) -> usize {
        self.nlimbs
    }

    /// The Montgomery form of 1 (`R mod m`).
    pub fn one_mont(&self) -> Uint {
        self.r1
    }

    /// Converts a plain residue (must already be `< m`) into Montgomery form.
    pub fn to_mont(&self, a: &Uint) -> Uint {
        debug_assert!(a < &self.modulus);
        self.mont_mul(a, &self.r2)
    }

    /// Converts a Montgomery-form value back to a plain residue.
    pub fn from_mont(&self, a: &Uint) -> Uint {
        self.mont_mul(a, &Uint::ONE)
    }

    /// Reduces an arbitrary `Uint` modulo `m` (plain representation).
    pub fn reduce(&self, a: &Uint) -> Uint {
        if a < &self.modulus {
            *a
        } else {
            a.rem(&self.modulus).expect("modulus is non-zero")
        }
    }

    /// Montgomery multiplication (CIOS): returns `a·b·R^{-1} mod m`.
    ///
    /// Both inputs must be `< m`.
    pub fn mont_mul(&self, a: &Uint, b: &Uint) -> Uint {
        let (m, n0) = (&self.modulus, self.n0);
        by_width!(self.nlimbs, N => kernel::mul_fixed::<N>(a, b, m, n0))
    }

    /// Montgomery squaring: `a²·R^{-1} mod m` for `a < m`.
    pub fn mont_sqr(&self, a: &Uint) -> Uint {
        let (m, n0) = (&self.modulus, self.n0);
        by_width!(self.nlimbs, N => kernel::sqr_fixed::<N, { 2 * N }>(a, m, n0))
    }

    /// Lazy-reduction sum of products: returns `(Σ aᵢ·bᵢ)·R^{-1} mod m`.
    ///
    /// Every product is accumulated unreduced into a double-width
    /// [`WideAcc`] and the whole sum is Montgomery-reduced **once**, so a
    /// k-term expression pays one reduction pass (plus up to k
    /// conditional subtractions) instead of k interleaved CIOS
    /// reductions.  For Montgomery-form inputs `aᵢR, bᵢR` the result is
    /// the Montgomery form of the sum of products, `(Σ aᵢbᵢ)·R`, exactly
    /// as if each product had been computed with [`mont_mul`](Self::mont_mul)
    /// and added with [`add`](Self::add) — the canonical representative is
    /// bit-identical.
    ///
    /// Subtractions are expressed by negating one operand of the pair
    /// first ([`neg`](Self::neg) is a cheap n-limb subtraction), which
    /// keeps the accumulator unsigned.  All operands must be `< m`; the
    /// term count must stay below `2^64` (field code uses a handful).
    /// Field code accumulates its own terms and calls
    /// [`mont_reduce_wide`](Self::mont_reduce_wide); this is the tests'
    /// definition of the pair.
    #[cfg(test)]
    pub(crate) fn mont_mul_sum(&self, pairs: &[(&Uint, &Uint)]) -> Uint {
        let mut acc = WideAcc::zero();
        for (a, b) in pairs {
            debug_assert!(*a < &self.modulus && *b < &self.modulus);
            acc.accumulate(a, b, self.nlimbs);
        }
        self.mont_reduce_wide(acc, pairs.len())
    }

    /// Montgomery-reduces an accumulated double-width sum of `terms`
    /// products of residues `< m`: returns `acc·R^{-1} mod m`.
    ///
    /// Word-by-word reduction (the reduction half of CIOS, run once over
    /// the whole buffer): for each of the `n` low limbs, add the multiple
    /// of `m` that zeroes it, then read the result from the limbs above.
    /// The input is `< terms·m²`, so the pre-subtraction result is
    /// `< (terms + 1)·m` — a short subtraction loop canonicalises it.
    pub fn mont_reduce_wide(&self, mut acc: WideAcc, terms: usize) -> Uint {
        let (t, m, n0) = (acc.limbs_mut(), &self.modulus, self.n0);
        // terms·m² < terms·R²: the headroom above the product width counts
        // at most `terms`.
        debug_assert!(t[2 * self.nlimbs] <= terms as u64);
        by_width!(self.nlimbs, N => kernel::reduce_fixed::<N>(t, m, n0))
    }

    /// Modular addition of plain or Montgomery residues (both `< m`).
    pub fn add(&self, a: &Uint, b: &Uint) -> Uint {
        debug_assert!(a < &self.modulus && b < &self.modulus);
        kernel::mod_add(a, b, &self.modulus, self.nlimbs)
    }

    /// Modular subtraction of plain or Montgomery residues (both `< m`).
    pub fn sub(&self, a: &Uint, b: &Uint) -> Uint {
        debug_assert!(a < &self.modulus && b < &self.modulus);
        kernel::mod_sub(a, b, &self.modulus, self.nlimbs)
    }

    /// Modular negation.
    pub fn neg(&self, a: &Uint) -> Uint {
        debug_assert!(a < &self.modulus);
        kernel::mod_neg(a, &self.modulus, self.nlimbs)
    }

    /// Modular doubling.
    pub fn double(&self, a: &Uint) -> Uint {
        self.add(a, a)
    }

    /// Montgomery exponentiation: `base^exp · R mod m` for a Montgomery-form
    /// base (`< m`).
    ///
    /// Sliding windows of up to five bits over 16 odd powers of the base:
    /// one dispatch and `nlimbs`-wide registers.
    pub fn mont_pow(&self, base_mont: &Uint, exp: &Uint) -> Uint {
        let (m, n0) = (&self.modulus, self.n0);
        by_width!(self.nlimbs, N => kernel::pow_fixed::<N, { 2 * N }>(base_mont, exp, m, n0))
            .unwrap_or(self.r1)
    }

    /// `(V_e, V_{e+1})` of the Lucas sequence `V₀ = 2`, `V₁ = v1_mont`,
    /// `V_{k+1} = V₁·V_k − V_{k−1}`, all in Montgomery form; for
    /// `V₁ = x + x⁻¹`, `V_e = x^e + x^{−e}`.  A ladder: one multiplication
    /// and one squaring per bit of `e`, on `nlimbs`-wide registers.  It
    /// branches on the bits of `e`, so `e` must be public, as the pairing's
    /// cofactor is.
    pub fn lucas_v(&self, v1_mont: &Uint, e: &Uint) -> (Uint, Uint) {
        let (m, n0, two) = (&self.modulus, self.n0, self.double(&self.r1));
        by_width!(self.nlimbs, N => kernel::lucas_fixed::<N, { 2 * N }>(v1_mont, &two, e, m, n0))
    }

    /// Runs `f` on this modulus' registers, `[u64; N]` arrays at its width,
    /// dispatched once.  A loop generic over [`Registers`] pays one dispatch
    /// for the whole loop instead of one per operation.
    pub fn on_registers<F: OnRegisters>(&self, f: F) -> F::Output {
        by_width!(self.nlimbs,
            N => f.run(&kernel::Fixed::<N, { 2 * N }>::new(&self.modulus, self.n0)))
    }

    /// Inversion of a *plain* residue using the binary extended-GCD algorithm
    /// (HAC 14.61 specialised to odd moduli).  Works for any odd modulus as
    /// long as `gcd(a, m) = 1`.
    ///
    /// Every intermediate value is bounded by `2m`, so the whole computation
    /// runs on `nlimbs + 1` limbs instead of the full [`MAX_LIMBS`](crate::MAX_LIMBS) capacity
    /// of [`Uint`] — for a 3-limb field prime that is roughly an order of
    /// magnitude less limb traffic per GCD iteration, and inversion sits on
    /// the pairing's final-exponentiation path.
    pub fn inv_plain(&self, a: &Uint) -> Result<Uint> {
        fn shr1(x: &mut [u64]) {
            let n = x.len();
            for i in 0..n - 1 {
                x[i] = (x[i] >> 1) | (x[i + 1] << 63);
            }
            x[n - 1] >>= 1;
        }
        /// Halves `x`, adding the odd modulus first when `x` is odd.
        fn halve_mod(x: &mut [u64], m: &[u64]) {
            if x[0] & 1 == 1 {
                add_assign(x, m);
            }
            shr1(x);
        }
        /// `x ← x − y (mod m)` for `x, y < 2m` kept non-negative.
        fn sub_mod(x: &mut [u64], y: &[u64], m: &[u64]) {
            if lt(x, y) {
                add_assign(x, m);
            }
            sub_assign(x, y);
        }

        let a = self.reduce(a);
        if a.is_zero() {
            return Err(BigIntError::NotInvertible);
        }
        // One spare limb absorbs the `x + m` carry before halving; the
        // MontCtx constructor guarantees it exists.
        let n = self.nlimbs + 1;
        let m = &self.modulus.limbs[..n];
        let (mut u, mut v) = (a, self.modulus); // x1·a ≡ u, x2·a ≡ v (mod m)
        let (mut x1, mut x2) = (Uint::ONE, Uint::ZERO);
        let (u, v) = (&mut u.limbs[..n], &mut v.limbs[..n]);
        let (x1, x2) = (&mut x1.limbs[..n], &mut x2.limbs[..n]);
        while u.iter().any(|&l| l != 0) {
            while u[0] & 1 == 0 {
                shr1(u);
                halve_mod(x1, m);
            }
            while v[0] & 1 == 0 {
                shr1(v);
                halve_mod(x2, m);
            }
            if lt(u, v) {
                sub_assign(v, u);
                sub_mod(x2, x1, m);
            } else {
                sub_assign(u, v);
                sub_mod(x1, x2, m);
            }
        }
        if v[0] != 1 || v[1..].iter().any(|&l| l != 0) {
            return Err(BigIntError::NotInvertible);
        }
        // x2 stays < 2m through the loop; one conditional subtraction
        // canonicalises it.
        if !lt(x2, m) {
            sub_assign(x2, m);
        }
        Uint::from_limbs_le(x2)
    }

    /// Inversion of a Montgomery-form value using the binary extended GCD.
    ///
    /// `a_mont = a·R`, so `inv_plain` yields `a^{-1}·R^{-1}`; one Montgomery
    /// multiplication by `R^3` restores the Montgomery form of the inverse:
    /// `a^{-1}·R^{-1} · R^3 · R^{-1} = a^{-1}·R`.
    pub fn mont_inv(&self, a_mont: &Uint) -> Result<Uint> {
        if a_mont.is_zero() {
            return Err(BigIntError::NotInvertible);
        }
        let inv = self.inv_plain(a_mont)?; // (a R)^{-1} mod m = a^{-1} R^{-1}
        Ok(self.mont_mul(&inv, &self.r3))
    }
}

/// Montgomery arithmetic on the registers of one modulus: every value is a
/// Montgomery-form residue `< m`, loaded from and stored as `nlimbs` limbs.
///
/// [`MontCtx::on_registers`] hands a computation the `[u64; N]` arrays of
/// the modulus' width; the trait keeps the computation independent of
/// `N`, so it is written once for every width.
pub trait Registers {
    /// One residue.
    type Reg: Copy;
    /// Reads a residue from its `nlimbs` Montgomery limbs.
    fn load(&self, limbs: &[u64]) -> Self::Reg;
    /// The residue as a [`Uint`], upper limbs zero.
    fn store(&self, a: &Self::Reg) -> Uint;
    /// `a·b·R⁻¹`, as [`MontCtx::mont_mul`].
    fn mul(&self, a: &Self::Reg, b: &Self::Reg) -> Self::Reg;
    /// `(a·b + c·d)·R⁻¹` with one reduction, as [`MontCtx::mont_reduce_wide`].
    fn mul_sum(&self, a: &Self::Reg, b: &Self::Reg, c: &Self::Reg, d: &Self::Reg) -> Self::Reg;
    /// `a + b`.
    fn add(&self, a: &Self::Reg, b: &Self::Reg) -> Self::Reg;
    /// `a − b`.
    fn sub(&self, a: &Self::Reg, b: &Self::Reg) -> Self::Reg;
}

/// A computation written once over any [`Registers`], run by
/// [`MontCtx::on_registers`].
pub trait OnRegisters {
    /// What the computation returns.
    type Output;
    /// Runs the computation on `regs`.
    fn run<R: Registers>(self, regs: &R) -> Self::Output;
}

#[cfg(test)]
mod kernel_oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(m: u64) -> MontCtx {
        MontCtx::new(&Uint::from_u64(m)).unwrap()
    }

    /// `base^exp mod m` on plain residues.
    fn pow(c: &MontCtx, base: &Uint, exp: &Uint) -> Uint {
        c.from_mont(&c.mont_pow(&c.to_mont(&c.reduce(base)), exp))
    }

    /// Inversion of a Montgomery-form value via Fermat's little theorem
    /// (prime moduli only): the oracle for the binary-GCD `mont_inv`.
    fn mont_inv_fermat(c: &MontCtx, a_mont: &Uint) -> Result<Uint> {
        if a_mont.is_zero() {
            return Err(BigIntError::NotInvertible);
        }
        Ok(c.mont_pow(a_mont, &c.modulus.wrapping_sub(&Uint::from_u64(2))))
    }

    #[test]
    fn rejects_bad_moduli() {
        assert!(MontCtx::new(&Uint::ZERO).is_err());
        assert!(MontCtx::new(&Uint::ONE).is_err());
        assert!(MontCtx::new(&Uint::from_u64(100)).is_err());
        let mut too_big = Uint::ZERO;
        for l in too_big.limbs.iter_mut() {
            *l = u64::MAX;
        }
        assert!(MontCtx::new(&too_big).is_err());
        // 2^127 − 1 is an odd prime, but 2 limbs wide: no kernel runs there,
        // nor at any other width than the security levels' p and q.
        let m127 = Uint::from_u128((1u128 << 127) - 1);
        assert!(matches!(
            MontCtx::new(&m127),
            Err(BigIntError::InvalidModulus(_))
        ));
        for n in [2, 5, 9, 23, 25] {
            let mut m = Uint::ONE.shl(64 * n - 1);
            m.set_bit(0);
            assert!(MontCtx::new(&m).is_err(), "{n} limbs");
        }
    }

    #[test]
    fn mont_round_trip() {
        let c = ctx(1_000_003);
        for v in [0u64, 1, 2, 999_999, 1_000_002] {
            let plain = Uint::from_u64(v);
            let m = c.to_mont(&plain);
            assert_eq!(c.from_mont(&m), plain);
        }
    }

    #[test]
    fn mont_mul_matches_u128() {
        let p = 0xFFFF_FFFF_FFFF_FFC5u64; // largest 64-bit prime
        let c = ctx(p);
        let cases = [
            (0u64, 0u64),
            (1, 1),
            (p - 1, p - 1),
            (0x1234_5678_9ABC_DEF0, 0x0FED_CBA9_8765_4321),
            (p - 2, 7),
        ];
        for (a, b) in cases {
            let am = c.to_mont(&Uint::from_u64(a));
            let bm = c.to_mont(&Uint::from_u64(b));
            let got = c.from_mont(&c.mont_mul(&am, &bm));
            let expect = ((a as u128) * (b as u128) % (p as u128)) as u64;
            assert_eq!(got, Uint::from_u64(expect), "failed for {a} * {b}");
        }
    }

    /// P-192's prime `2^192 − 2^64 − 1`: three limbs, `≡ 3 (mod 4)`.
    fn p192() -> Uint {
        Uint::ONE
            .shl(192)
            .wrapping_sub(&Uint::ONE.shl(64))
            .wrapping_sub(&Uint::ONE)
    }

    #[test]
    fn multi_limb_mont_mul() {
        // Three limbs exercise the CIOS carries.
        let p = p192();
        let c = MontCtx::new(&p).unwrap();
        let a = Uint::from_u128(0x0123_4567_89AB_CDEF_0011_2233_4455_6677u128).shl(60);
        let b = p.wrapping_sub(&Uint::from_u128(
            0x8000_0000_0000_0000_0000_0000_0000_0001u128,
        ));
        let am = c.to_mont(&a);
        let bm = c.to_mont(&b);
        let got = c.from_mont(&c.mont_mul(&am, &bm));
        // Verify with wide multiplication + reduction.
        let (lo, hi) = a.mul_wide(&b);
        let expect = Uint::rem_wide(&lo, &hi, &p).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn pow_matches_naive() {
        let c = ctx(1_000_003);
        let base = Uint::from_u64(12345);
        let exp = Uint::from_u64(67);
        let got = pow(&c, &base, &exp);
        let mut expect = 1u128;
        for _ in 0..67 {
            expect = expect * 12345 % 1_000_003;
        }
        assert_eq!(got, Uint::from_u64(expect as u64));
        // Edge cases.
        assert!(pow(&c, &base, &Uint::ZERO).is_one());
        assert_eq!(pow(&c, &base, &Uint::ONE), base);
        assert!(pow(&c, &Uint::ZERO, &Uint::ZERO).is_one());
    }

    #[test]
    fn fermat_and_binary_inversion_agree() {
        let p = 0xFFFF_FFFF_FFFF_FFC5u64;
        let c = ctx(p);
        for v in [1u64, 2, 3, 0xDEAD_BEEF, p - 1, p / 2] {
            let vm = c.to_mont(&Uint::from_u64(v));
            let inv_f = mont_inv_fermat(&c, &vm).unwrap();
            let inv_b = c.mont_inv(&vm).unwrap();
            assert_eq!(inv_f, inv_b, "disagree for {v}");
            let prod = c.from_mont(&c.mont_mul(&vm, &inv_f));
            assert!(prod.is_one(), "not an inverse for {v}");
        }
    }

    #[test]
    fn inversion_of_zero_fails() {
        let c = ctx(1_000_003);
        assert!(c.mont_inv(&Uint::ZERO).is_err());
        assert!(mont_inv_fermat(&c, &Uint::ZERO).is_err());
        assert!(c.inv_plain(&Uint::ZERO).is_err());
    }

    #[test]
    fn inversion_of_modulus_multiples_fails() {
        // A multiple of the modulus is a zero residue in disguise:
        // `inv_plain` reduces first, so k·m must hit the same typed error
        // as literal zero, never a bogus "inverse" or a non-terminating
        // GCD.  Regression for the batch-inversion zero-operand audit.
        let p = 0xFFFF_FFFF_FFFF_FFC5u64;
        let c = ctx(p);
        let m = Uint::from_u64(p);
        for k in 1u64..4 {
            let (multiple, carry) = m.mul_u64(k);
            assert_eq!(carry, 0);
            assert_eq!(
                c.inv_plain(&multiple).unwrap_err(),
                BigIntError::NotInvertible,
                "k = {k}"
            );
        }
        // Multi-limb modulus, same contract.
        let p2 = p192();
        let c2 = MontCtx::new(&p2).unwrap();
        let (double, carry) = p2.mul_u64(2);
        assert_eq!(carry, 0);
        assert_eq!(
            c2.inv_plain(&double).unwrap_err(),
            BigIntError::NotInvertible
        );
    }

    #[test]
    fn mont_mul_sum_matches_strict_chain() {
        // Σ aᵢ·bᵢ through the lazy path must be bit-identical to the
        // strict mont_mul + add chain, including adversarial near-m and
        // all-ones-limb operands.
        let p = p192();
        let c = MontCtx::new(&p).unwrap();
        let near_p = p.wrapping_sub(&Uint::ONE);
        let ones = Uint::ONE.shl(191).wrapping_sub(&Uint::ONE);
        let mid = Uint::from_u128(0x0123_4567_89AB_CDEF_0011_2233_4455_6677u128);
        let operands = [Uint::ZERO, Uint::ONE, mid, ones, near_p];
        for a0 in &operands {
            for b0 in &operands {
                for a1 in &operands {
                    for b1 in &operands {
                        let lazy = c.mont_mul_sum(&[(a0, b0), (a1, b1)]);
                        let strict = c.add(&c.mont_mul(a0, b0), &c.mont_mul(a1, b1));
                        assert_eq!(lazy, strict, "{a0:?}*{b0:?} + {a1:?}*{b1:?}");
                    }
                }
            }
        }
        // Degenerate term counts.
        assert_eq!(c.mont_mul_sum(&[]), Uint::ZERO);
        assert_eq!(c.mont_mul_sum(&[(&mid, &ones)]), c.mont_mul(&mid, &ones));
        // Many terms: the subtraction loop runs more than once.
        let sixteen: Vec<(&Uint, &Uint)> = (0..16).map(|_| (&near_p, &near_p)).collect();
        let mut strict = Uint::ZERO;
        for _ in 0..16 {
            strict = c.add(&strict, &c.mont_mul(&near_p, &near_p));
        }
        assert_eq!(c.mont_mul_sum(&sixteen), strict);
    }

    #[test]
    fn mont_mul_sum_subtraction_via_negation() {
        // a·b − c·d is expressed as a·b + (−c)·d; the lazy result must
        // match the strict sub of the two strict products.
        let p = p192();
        let c = MontCtx::new(&p).unwrap();
        let a = Uint::from_u128(0x5EAD_BEEF_0000_0001_1234_5678_9ABC_DEF0u128);
        let b = Uint::from_u128(0x0FED_CBA9_8765_4321_0000_0000_0000_0007u128);
        let d = p.wrapping_sub(&Uint::from_u64(3));
        let e = Uint::from_u64(0x1111_2222_3333_4444);
        let neg_d = c.neg(&d);
        let lazy = c.mont_mul_sum(&[(&a, &b), (&neg_d, &e)]);
        let strict = c.sub(&c.mont_mul(&a, &b), &c.mont_mul(&d, &e));
        assert_eq!(lazy, strict);
    }

    #[test]
    fn non_coprime_inversion_fails() {
        // 15 shares a factor with modulus 45 (odd, composite).
        let c = MontCtx::new(&Uint::from_u64(45)).unwrap();
        assert!(c.inv_plain(&Uint::from_u64(15)).is_err());
        assert!(c.inv_plain(&Uint::from_u64(7)).is_ok());
    }

    #[test]
    fn add_sub_neg_double() {
        let c = ctx(97);
        let a = Uint::from_u64(90);
        let b = Uint::from_u64(15);
        assert_eq!(c.add(&a, &b), Uint::from_u64(8));
        assert_eq!(c.sub(&b, &a), Uint::from_u64(22));
        assert_eq!(c.neg(&a), Uint::from_u64(7));
        assert_eq!(c.double(&a), Uint::from_u64(83));
    }
}
