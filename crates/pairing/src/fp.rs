//! The prime field `F_p` underlying the curve.
//!
//! An [`Fp`] is its Montgomery limbs and a plain pointer to the field's
//! [`FpCtx`].  Contexts are interned — one per distinct prime, alive for
//! the rest of the process — so the pointer is an un-counted `&'static`:
//! creating, cloning and dropping an element touches no shared memory, and
//! two elements belong to the same field exactly when their pointers are
//! equal.  All arithmetic is delegated to the Montgomery context of
//! `tibpre-bigint`.  Operator overloading is provided for references so the
//! curve and pairing formulas read like the textbook equations.

use crate::error::PairingError;
use crate::Result;
use rand::{CryptoRng, RngCore};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use tibpre_bigint::random::random_below;
use tibpre_bigint::{MontCtx, Uint, WideAcc};

/// Shared context for a prime field `F_p` with `p ≡ 3 (mod 4)`.
pub struct FpCtx {
    mont: MontCtx,
    byte_len: usize,
    /// `(p + 1)/4`: the square-root exponent.
    sqrt_exp: Uint,
    /// `(p − 1)/2`: the exponent of Euler's quadratic-residue test.
    euler_exp: Uint,
    /// The interned handle to this very context, set once by [`FpCtx::new`];
    /// it turns any borrow of the context back into the `'static` one.
    interned: OnceLock<&'static Arc<FpCtx>>,
}

/// Every context [`FpCtx::new`] has built, one per distinct prime.  Entries
/// are leaked on purpose: an `Fp` holds a `&'static FpCtx` instead of a
/// reference count, so a context must outlive every element ever made.  The
/// footprint is bounded by the number of distinct primes a process builds
/// (one per security level it uses).
static INTERNED: Mutex<Vec<&'static Arc<FpCtx>>> = Mutex::new(Vec::new());

impl FpCtx {
    /// Returns the field context for the prime `p`, building and interning
    /// it on the first call for that prime.
    ///
    /// The primality of `p` is the caller's responsibility (the parameter
    /// generator proves it); this constructor only validates the structural
    /// requirements (odd, `p ≡ 3 (mod 4)`).
    pub fn new(p: &Uint) -> Result<Arc<Self>> {
        if p.limbs()[0] & 3 != 3 {
            return Err(PairingError::ParameterGeneration(
                "field prime must be ≡ 3 (mod 4) so that i² = −1 is irreducible",
            ));
        }
        // The table is only ever pushed to, so it is valid even if a holder
        // of the lock panicked.
        let mut table = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(found) = table.iter().find(|ctx| ctx.modulus() == p) {
            return Ok(Arc::clone(found));
        }
        let ctx = FpCtx {
            mont: MontCtx::new(p)?,
            byte_len: p.bits().div_ceil(8),
            sqrt_exp: p.wrapping_add(&Uint::ONE).shr(2),
            euler_exp: p.shr1(),
            interned: OnceLock::new(),
        };
        let handle: &'static Arc<FpCtx> = Box::leak(Box::new(Arc::new(ctx)));
        handle
            .interned
            .set(handle)
            .expect("a fresh context has no handle yet");
        table.push(handle);
        Ok(Arc::clone(handle))
    }

    /// The field prime `p`.
    pub fn modulus(&self) -> &Uint {
        self.mont.modulus()
    }

    /// Length of the canonical byte encoding of one element.
    pub fn byte_len(&self) -> usize {
        self.byte_len
    }

    /// Limbs one element occupies *at rest*: the rule is that registers
    /// ([`Fp`]) are `MAX_LIMBS` wide and anything kept is `nlimbs` wide.
    pub(crate) fn nlimbs(&self) -> usize {
        self.mont.nlimbs()
    }

    /// The Montgomery context, whose [`MontCtx::on_registers`] runs the
    /// Miller loop at the field's width.
    pub(crate) fn mont(&self) -> &MontCtx {
        &self.mont
    }

    fn handle(&self) -> &'static Arc<FpCtx> {
        self.interned
            .get()
            .expect("FpCtx::new interns every context it returns")
    }
}

impl core::fmt::Debug for FpCtx {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FpCtx")
            .field("modulus", self.modulus())
            .field("byte_len", &self.byte_len)
            .finish()
    }
}

/// An element of `F_p`: Montgomery limbs and the interned context.
#[derive(Clone)]
pub struct Fp {
    ctx: &'static FpCtx,
    mont_repr: Uint,
}

impl Fp {
    fn with_repr(&self, mont_repr: Uint) -> Fp {
        Fp {
            ctx: self.ctx,
            mont_repr,
        }
    }

    /// The additive identity.
    pub fn zero(ctx: &Arc<FpCtx>) -> Self {
        Fp {
            ctx: ctx.handle(),
            mont_repr: Uint::ZERO,
        }
    }

    /// The multiplicative identity.
    pub fn one(ctx: &Arc<FpCtx>) -> Self {
        Fp {
            ctx: ctx.handle(),
            mont_repr: ctx.mont.one_mont(),
        }
    }

    /// Constructs an element from an arbitrary integer (reduced modulo `p`).
    pub fn from_uint(ctx: &Arc<FpCtx>, value: &Uint) -> Self {
        let reduced = ctx.mont.reduce(value);
        Fp {
            ctx: ctx.handle(),
            mont_repr: ctx.mont.to_mont(&reduced),
        }
    }

    /// Constructs an element from a small integer.
    pub fn from_u64(ctx: &Arc<FpCtx>, value: u64) -> Self {
        Self::from_uint(ctx, &Uint::from_u64(value))
    }

    /// Samples a uniformly random element.
    pub fn random<R: RngCore + CryptoRng>(ctx: &Arc<FpCtx>, rng: &mut R) -> Self {
        let v = random_below(rng, ctx.modulus());
        Self::from_uint(ctx, &v)
    }

    /// The plain (non-Montgomery) integer representative in `[0, p)`.
    pub fn to_uint(&self) -> Uint {
        self.ctx.mont.from_mont(&self.mont_repr)
    }

    /// The field context this element belongs to.
    pub fn ctx(&self) -> &Arc<FpCtx> {
        self.ctx.handle()
    }

    /// Appends the element's `nlimbs` Montgomery limbs to `out` — the packed
    /// form precomputed tables keep (see [`crate::precomp`]); the limbs
    /// above `nlimbs` are zero in every reduced element and are not stored.
    pub(crate) fn pack_into(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(self.mont_limbs());
    }

    /// The element's `nlimbs` Montgomery limbs, as a register loads them.
    pub(crate) fn mont_limbs(&self) -> &[u64] {
        &self.mont_repr.limbs()[..self.ctx.nlimbs()]
    }

    /// Reads back an element stored by [`Self::pack_into`].
    pub(crate) fn unpack(ctx: &Arc<FpCtx>, limbs: &[u64]) -> Fp {
        debug_assert_eq!(limbs.len(), ctx.nlimbs());
        Fp {
            ctx: ctx.handle(),
            mont_repr: Uint::from_limbs_le(limbs).expect("a packed element is nlimbs wide"),
        }
    }

    /// Returns `true` if this is the additive identity.
    pub fn is_zero(&self) -> bool {
        self.mont_repr.is_zero()
    }

    /// Returns `true` if this is the multiplicative identity.
    pub fn is_one(&self) -> bool {
        self.mont_repr == self.ctx.mont.one_mont()
    }

    fn assert_same_ctx(&self, other: &Fp) {
        debug_assert!(core::ptr::eq(self.ctx, other.ctx), "mixed field contexts");
    }

    /// Field addition.  (The one-call wrappers from here to `square` are
    /// `#[inline]`: a second call level costs ~5 % of a multiplication.)
    #[inline]
    pub fn add(&self, other: &Fp) -> Fp {
        self.assert_same_ctx(other);
        self.with_repr(self.ctx.mont.add(&self.mont_repr, &other.mont_repr))
    }

    /// Field subtraction.
    #[inline]
    pub fn sub(&self, other: &Fp) -> Fp {
        self.assert_same_ctx(other);
        self.with_repr(self.ctx.mont.sub(&self.mont_repr, &other.mont_repr))
    }

    /// Field negation.
    #[inline]
    pub fn neg(&self) -> Fp {
        self.with_repr(self.ctx.mont.neg(&self.mont_repr))
    }

    /// Doubling (`2·self`).
    #[inline]
    pub fn double(&self) -> Fp {
        self.with_repr(self.ctx.mont.double(&self.mont_repr))
    }

    /// `3·self` by two additions (multiplying by the constant would cost a
    /// conversion into Montgomery form plus a full multiplication).
    pub(crate) fn triple(&self) -> Fp {
        &self.double() + self
    }

    /// Field multiplication.
    #[inline]
    pub fn mul(&self, other: &Fp) -> Fp {
        self.assert_same_ctx(other);
        self.with_repr(self.ctx.mont.mont_mul(&self.mont_repr, &other.mont_repr))
    }

    /// Squaring.
    #[inline]
    pub fn square(&self) -> Fp {
        self.with_repr(self.ctx.mont.mont_sqr(&self.mont_repr))
    }

    /// `acc += self·other`, unreduced.
    fn accumulate_into(&self, other: &Fp, acc: &mut WideAcc) {
        self.assert_same_ctx(other);
        acc.accumulate(&self.mont_repr, &other.mont_repr, self.ctx.mont.nlimbs());
    }

    /// Lazy-reduction sum of products `Σ aᵢ·bᵢ`: each product is
    /// accumulated into one unreduced double-width stack buffer and the
    /// whole sum pays a *single* Montgomery reduction instead of one per
    /// term.  The result is bit-identical to the strict `mul` + `add`
    /// chain.
    ///
    /// Subtractions are expressed by negating one operand of a pair
    /// (negation is a cheap single subtraction): `a·b − c·d` is
    /// `sum_of_products(&[(a, b), (&c.neg(), d)])`.
    ///
    /// # Panics
    /// Panics if `pairs` is empty (there is no context to borrow; callers
    /// always have at least one term).
    pub fn sum_of_products(pairs: &[(&Fp, &Fp)]) -> Fp {
        let first = pairs
            .first()
            .expect("sum_of_products needs at least one term")
            .0;
        let mut acc = WideAcc::zero();
        for (a, b) in pairs {
            first.assert_same_ctx(a);
            a.accumulate_into(b, &mut acc);
        }
        first.with_repr(first.ctx.mont.mont_reduce_wide(acc, pairs.len()))
    }

    /// `a·b − c·d` with one reduction: `c` is negated on its limbs, so the
    /// accumulator stays unsigned and no intermediate element is built.
    pub(crate) fn mul_sub(a: &Fp, b: &Fp, c: &Fp, d: &Fp) -> Fp {
        a.assert_same_ctx(c);
        c.assert_same_ctx(d);
        let mont = &a.ctx.mont;
        let mut acc = WideAcc::zero();
        a.accumulate_into(b, &mut acc);
        acc.accumulate(&mont.neg(&c.mont_repr), &d.mont_repr, mont.nlimbs());
        a.with_repr(mont.mont_reduce_wide(acc, 2))
    }

    /// Multiplicative inverse.  Fails for zero.
    pub fn invert(&self) -> Result<Fp> {
        crate::OpCounts::note(|c| c.inv += 1);
        let inv = self
            .ctx
            .mont
            .mont_inv(&self.mont_repr)
            .map_err(|_| PairingError::NotInvertible)?;
        Ok(self.with_repr(inv))
    }

    /// Inverts every element of a slice at the cost of a *single* field
    /// inversion plus `3(n − 1)` multiplications (Montgomery's
    /// simultaneous-inversion trick: prefix products, one inversion,
    /// back-substitution).
    ///
    /// # Zero operands
    ///
    /// A zero anywhere in the batch would silently poison the whole
    /// prefix-product chain (every product from that index on is zero, and
    /// the final inversion would fail with no indication of *which*
    /// element was at fault).  The contract is therefore explicit: each
    /// element is checked **before** it enters the chain, and the first
    /// zero aborts with [`PairingError::NotInvertible`] without touching
    /// the accumulator — no partial results, no wrong inverses for the
    /// non-zero prefix.  (A p-multiple cannot arise here: `Fp` reduces on
    /// construction, so the zero residue class is exactly `is_zero()`;
    /// the same audit for plain `Uint` residues lives in
    /// `MontCtx::inv_plain`, which reduces first.)
    ///
    /// The precomputation layer uses this to normalise whole tables of
    /// Miller-loop line coefficients and Jacobian points in one shot, and
    /// the batched final exponentiation uses it to share one GCD inversion
    /// across a multi-pairing chunk.
    pub(crate) fn batch_invert(values: &[Fp]) -> Result<Vec<Fp>> {
        let Some(first) = values.first() else {
            return Ok(Vec::new());
        };
        let mut prefix = Vec::with_capacity(values.len());
        let mut acc = Fp::one(first.ctx());
        for v in values {
            if v.is_zero() {
                return Err(PairingError::NotInvertible);
            }
            prefix.push(acc.clone());
            acc = acc.mul(v);
        }
        let mut suffix_inv = acc.invert()?;
        let mut out = vec![Fp::zero(first.ctx()); values.len()];
        for i in (0..values.len()).rev() {
            out[i] = suffix_inv.mul(&prefix[i]);
            suffix_inv = suffix_inv.mul(&values[i]);
        }
        Ok(out)
    }

    /// Exponentiation by an arbitrary integer exponent.
    pub fn pow(&self, exp: &Uint) -> Fp {
        self.with_repr(self.ctx.mont.mont_pow(&self.mont_repr, exp))
    }

    /// `(V_e, V_{e+1})` of the Lucas sequence `V₀ = 2`, `V₁ = self`,
    /// `V_{k+1} = V₁·V_k − V_{k−1}`: [`MontCtx::lucas_v`], so `e` must be
    /// public.
    pub(crate) fn lucas_v(&self, e: &Uint) -> (Fp, Fp) {
        let (v, w) = self.ctx.mont.lucas_v(&self.mont_repr, e);
        (self.with_repr(v), self.with_repr(w))
    }

    /// Euler's quadratic-residue test: `a^((p−1)/2) = 1` (or `a = 0`).
    pub fn is_square(&self) -> bool {
        self.is_zero() || self.pow(&self.ctx.euler_exp).is_one()
    }

    /// Square root for `p ≡ 3 (mod 4)`: `a^((p+1)/4)`, checked by squaring
    /// back.  Returns `None` for non-residues.
    pub fn sqrt(&self) -> Option<Fp> {
        crate::OpCounts::note(|c| c.sqrt += 1);
        let candidate = self.pow(&self.ctx.sqrt_exp);
        (candidate.square() == *self).then_some(candidate)
    }

    /// Parity of the plain representative, used to fix the sign of square
    /// roots in point compression.
    pub fn is_odd_repr(&self) -> bool {
        self.to_uint().is_odd()
    }

    /// Canonical fixed-length big-endian encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_uint()
            .to_be_bytes(self.ctx.byte_len)
            .expect("reduced element always fits")
    }

    /// Decodes a canonical encoding.  Rejects values `≥ p` and wrong lengths.
    pub fn from_bytes(ctx: &Arc<FpCtx>, bytes: &[u8]) -> Result<Fp> {
        if bytes.len() != ctx.byte_len {
            return Err(PairingError::InvalidEncoding("wrong field-element length"));
        }
        let value = Uint::from_be_bytes(bytes)
            .map_err(|_| PairingError::InvalidEncoding("field element does not parse"))?;
        if &value >= ctx.modulus() {
            return Err(PairingError::InvalidEncoding(
                "field element not reduced modulo p",
            ));
        }
        Ok(Fp::from_uint(ctx, &value))
    }
}

impl PartialEq for Fp {
    fn eq(&self, other: &Self) -> bool {
        core::ptr::eq(self.ctx, other.ctx) && self.mont_repr == other.mont_repr
    }
}

impl Eq for Fp {}

impl core::fmt::Debug for Fp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fp(0x{})", self.to_uint().to_hex())
    }
}

macro_rules! impl_fp_binop {
    ($trait:ident, $method:ident, $inner:ident) => {
        impl core::ops::$trait<&Fp> for &Fp {
            type Output = Fp;
            fn $method(self, rhs: &Fp) -> Fp {
                Fp::$inner(self, rhs)
            }
        }
        impl core::ops::$trait<Fp> for Fp {
            type Output = Fp;
            fn $method(self, rhs: Fp) -> Fp {
                Fp::$inner(&self, &rhs)
            }
        }
        impl core::ops::$trait<&Fp> for Fp {
            type Output = Fp;
            fn $method(self, rhs: &Fp) -> Fp {
                Fp::$inner(&self, rhs)
            }
        }
    };
}

impl_fp_binop!(Add, add, add);
impl_fp_binop!(Sub, sub, sub);
impl_fp_binop!(Mul, mul, mul);

impl core::ops::Neg for &Fp {
    type Output = Fp;
    fn neg(self) -> Fp {
        Fp::neg(self)
    }
}

impl core::ops::Neg for Fp {
    type Output = Fp;
    fn neg(self) -> Fp {
        Fp::neg(&self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Arc<FpCtx> {
        // P-192's 2^192 − 2^64 − 1 ≡ 3 (mod 4), prime, three limbs.
        FpCtx::new(&Uint::from_hex("fffffffffffffffffffffffffffffffeffffffffffffffff").unwrap())
            .unwrap()
    }

    #[test]
    fn rejects_primes_not_3_mod_4() {
        // 1_000_033 ≡ 1 (mod 4)
        assert!(FpCtx::new(&Uint::from_u64(1_000_033)).is_err());
        assert!(FpCtx::new(&Uint::from_u64(1_000_003)).is_ok());
    }

    #[test]
    fn elements_and_prepared_tables_do_not_count_references() {
        use crate::params::{PairingParams, SecurityLevel};
        use rand::SeedableRng;
        // A prime of this test's own, so no concurrently running test clones
        // or drops a handle to the same context.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x756e_636f_756e_7465);
        let params = PairingParams::generate_custom(SecurityLevel::Toy, 64, 192, &mut rng).unwrap();
        let before = Arc::strong_count(params.fp_ctx());
        let elements: Vec<Fp> = (0..10_000)
            .map(|v| Fp::from_u64(params.fp_ctx(), v))
            .collect();
        let prepared = params.prepare(params.generator());
        assert_eq!(Arc::strong_count(params.fp_ctx()), before);
        let sum = elements
            .iter()
            .fold(Fp::zero(params.fp_ctx()), |s, e| &s + e);
        assert_eq!(sum, Fp::from_u64(params.fp_ctx(), 9_999 * 10_000 / 2));
        drop((elements, prepared));
        assert_eq!(Arc::strong_count(params.fp_ctx()), before);
    }

    #[test]
    fn one_prime_is_one_interned_context() {
        // 2^192 − 237 ≡ 3 (mod 4), prime, and used by no other test.
        let p = Uint::ONE.shl(192).wrapping_sub(&Uint::from_u64(237));
        let handles: Vec<Arc<FpCtx>> = (0..1_000).map(|_| FpCtx::new(&p).unwrap()).collect();
        let entries = INTERNED
            .lock()
            .unwrap()
            .iter()
            .filter(|ctx| ctx.modulus() == &p)
            .count();
        assert_eq!(entries, 1);
        assert!(handles.iter().all(|h| Arc::ptr_eq(h, &handles[0])));

        // Elements made through two handles are one field's elements.
        let a = Fp::from_u64(&handles[0], 0xDEAD_BEEF);
        let b = Fp::from_u64(&handles[999], 0xDEAD_BEEF);
        assert_eq!(a, b);
        assert_eq!(a.to_bytes(), b.to_bytes());
        assert_eq!(&a + &b, a.double());
        assert_eq!(&a * &b, a.square());
        assert!(Arc::ptr_eq(a.ctx(), b.ctx()));
    }

    #[test]
    fn two_threads_sharing_cached_params_pair_like_one() {
        use crate::params::PairingParams;
        use rand::SeedableRng;
        use std::sync::Barrier;
        let params = PairingParams::insecure_toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7477_6f74);
        let prepared = params.prepare(&params.random_g1(&mut rng));
        let qs: Vec<_> = (0..8).map(|_| params.random_g1(&mut rng)).collect();
        let alone: Vec<Vec<u8>> = qs.iter().map(|q| prepared.pairing(q).to_bytes()).collect();
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        qs.iter()
                            .map(|q| prepared.pairing(q).to_bytes())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for worker in workers {
                assert_eq!(worker.join().expect("worker panicked"), alone);
            }
        });
    }

    #[test]
    fn basic_arithmetic() {
        let c = ctx();
        let a = Fp::from_u64(&c, 1234567);
        let b = Fp::from_u64(&c, 7654321);
        assert_eq!((&a + &b).to_uint(), Uint::from_u64(1234567 + 7654321));
        assert_eq!((&b - &a).to_uint(), Uint::from_u64(7654321 - 1234567));
        assert_eq!((&a * &b).to_uint(), Uint::from_u128(1234567u128 * 7654321));
        assert_eq!(a.double(), &a + &a);
        assert_eq!(a.square(), &a * &a);
        assert_eq!(&a + &a.neg(), Fp::zero(&c));
    }

    #[test]
    fn identities() {
        let c = ctx();
        let a = Fp::from_u64(&c, 42);
        assert_eq!(&a + &Fp::zero(&c), a);
        assert_eq!(&a * &Fp::one(&c), a);
        assert!(Fp::zero(&c).is_zero());
        assert!(Fp::one(&c).is_one());
        assert!(!a.is_zero());
    }

    #[test]
    fn inversion() {
        let c = ctx();
        let a = Fp::from_u64(&c, 987654321);
        let inv = a.invert().unwrap();
        assert!((&a * &inv).is_one());
        assert!(Fp::zero(&c).invert().is_err());
    }

    #[test]
    fn batch_inversion_matches_individual() {
        let c = ctx();
        let values: Vec<Fp> = (1u64..=17).map(|v| Fp::from_u64(&c, v * 7919)).collect();
        let inverses = Fp::batch_invert(&values).unwrap();
        assert_eq!(inverses.len(), values.len());
        for (v, inv) in values.iter().zip(&inverses) {
            assert_eq!(inv, &v.invert().unwrap());
            assert!((v * inv).is_one());
        }
        // Empty input, single element, and zero rejection.
        assert!(Fp::batch_invert(&[]).unwrap().is_empty());
        let one = vec![Fp::from_u64(&c, 42)];
        assert_eq!(Fp::batch_invert(&one).unwrap()[0], one[0].invert().unwrap());
        let with_zero = vec![Fp::from_u64(&c, 1), Fp::zero(&c)];
        assert!(Fp::batch_invert(&with_zero).is_err());
    }

    #[test]
    fn batch_inversion_zero_mid_batch_is_a_clean_typed_error() {
        // Regression for the zero-operand audit: a zero at *any* position
        // (front, middle, back) must yield NotInvertible — never a poisoned
        // chain that returns wrong inverses for the non-zero prefix, and
        // never a panic.  A p-multiple constructs to the same zero residue.
        let c = ctx();
        for pos in 0..5 {
            let mut values: Vec<Fp> = (1u64..=5).map(|v| Fp::from_u64(&c, v * 31)).collect();
            values[pos] = Fp::zero(&c);
            assert!(
                matches!(Fp::batch_invert(&values), Err(PairingError::NotInvertible)),
                "zero at {pos}"
            );
        }
        // p reduces to the zero residue on construction; the batch must
        // treat it exactly like a literal zero.
        let p_multiple = Fp::from_uint(&c, c.modulus());
        assert!(p_multiple.is_zero());
        let values = vec![Fp::from_u64(&c, 7), p_multiple, Fp::from_u64(&c, 9)];
        assert!(matches!(
            Fp::batch_invert(&values),
            Err(PairingError::NotInvertible)
        ));
    }

    #[test]
    fn sum_of_products_matches_strict_chain() {
        let c = ctx();
        let near_p = Fp::from_uint(&c, &c.modulus().wrapping_sub(&Uint::ONE));
        let ones = Fp::from_uint(&c, &Uint::from_u128(u128::MAX));
        let a = Fp::from_u64(&c, 0xDEAD_BEEF);
        let b = Fp::from_u64(&c, 0x1234_5678);
        for x in [&near_p, &ones, &a, &b, &Fp::zero(&c), &Fp::one(&c)] {
            for y in [&near_p, &ones, &a, &b] {
                let lazy = Fp::sum_of_products(&[(x, y), (&a, &b)]);
                let strict = &(x * y) + &(&a * &b);
                assert_eq!(lazy, strict);
                // Subtraction via negation.
                let lazy = Fp::sum_of_products(&[(x, y), (&a.neg(), &b)]);
                let strict = &(x * y) - &(&a * &b);
                assert_eq!(lazy, strict);
            }
        }
        // Single term degenerates to a plain product.
        assert_eq!(Fp::sum_of_products(&[(&a, &b)]), &a * &b);
    }

    #[test]
    fn pow_and_fermat() {
        let c = ctx();
        let a = Fp::from_u64(&c, 5);
        assert!(a.pow(&Uint::ZERO).is_one());
        assert_eq!(a.pow(&Uint::ONE), a);
        assert_eq!(a.pow(&Uint::from_u64(5)).to_uint(), Uint::from_u64(3125));
        // Fermat: a^(p-1) = 1.
        let p_minus_1 = c.modulus().wrapping_sub(&Uint::ONE);
        assert!(a.pow(&p_minus_1).is_one());
    }

    #[test]
    fn sqrt_round_trip() {
        let c = ctx();
        for v in [1u64, 2, 4, 9, 1_000_000, 123_456_789] {
            let a = Fp::from_u64(&c, v);
            let sq = a.square();
            let root = sq.sqrt().expect("square must have a root");
            assert!(root == a || root == a.neg());
        }
        assert_eq!(Fp::zero(&c).sqrt().unwrap(), Fp::zero(&c));
    }

    #[test]
    fn non_residues_have_no_sqrt() {
        let c = ctx();
        // -1 is a non-residue when p ≡ 3 (mod 4).
        let minus_one = Fp::one(&c).neg();
        assert!(!minus_one.is_square());
        assert!(minus_one.sqrt().is_none());
        // A residue times a non-residue is a non-residue.
        let nr = &minus_one * &Fp::from_u64(&c, 4);
        assert!(nr.sqrt().is_none());
    }

    #[test]
    fn byte_round_trip() {
        let c = ctx();
        let mut rng = rand::rngs::mock::StepRng::new(12345, 67891);
        // StepRng is not a CryptoRng; use from_uint with varied values instead.
        let _ = &mut rng;
        for v in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            let a = Fp::from_u64(&c, v);
            let bytes = a.to_bytes();
            assert_eq!(bytes.len(), c.byte_len());
            assert_eq!(Fp::from_bytes(&c, &bytes).unwrap(), a);
        }
    }

    #[test]
    fn from_bytes_rejects_bad_input() {
        let c = ctx();
        assert!(Fp::from_bytes(&c, &[]).is_err());
        assert!(Fp::from_bytes(&c, &vec![0u8; c.byte_len() + 1]).is_err());
        // p itself is not a reduced representative.
        let p_bytes = c.modulus().to_be_bytes(c.byte_len()).unwrap();
        assert!(Fp::from_bytes(&c, &p_bytes).is_err());
    }

    #[test]
    fn random_elements_differ() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        use rand::SeedableRng;
        let a = Fp::random(&c, &mut rng);
        let b = Fp::random(&c, &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn distributivity_spot_check() {
        let c = ctx();
        let a = Fp::from_u64(&c, 0xAAAA_BBBB);
        let b = Fp::from_u64(&c, 0xCCCC_DDDD);
        let d = Fp::from_u64(&c, 0xEEEE_FFFF);
        assert_eq!(&a * &(&b + &d), &(&a * &b) + &(&a * &d));
    }
}
