//! Primality testing and random prime generation.
//!
//! The pairing parameter generator needs two kinds of primes: the group order
//! `q` (160–256 bits) and the field prime `p = h·q − 1` with `p ≡ 3 (mod 4)`.
//! Miller–Rabin with 40 random rounds gives an error probability below 2⁻⁸⁰,
//! which is more than adequate for parameters that are additionally validated
//! structurally (curve order, subgroup order, pairing non-degeneracy) by the
//! layers above.

use crate::mont::MontCtx;
use crate::random::random_bits;
use crate::uint::Uint;
use crate::{BigIntError, Result};
use rand::{CryptoRng, RngCore};

/// Number of Miller–Rabin rounds used by `is_prime`.
pub const MILLER_RABIN_ROUNDS: usize = 40;

/// Iteration budget for [`generate_prime`] before giving up.
const PRIME_SEARCH_BUDGET: usize = 100_000;

/// Small primes used for cheap trial division before Miller–Rabin.
fn small_primes() -> &'static [u64] {
    use std::sync::OnceLock;
    static PRIMES: OnceLock<Vec<u64>> = OnceLock::new();
    PRIMES.get_or_init(|| {
        // Sieve of Eratosthenes up to 2000.
        let limit = 2000usize;
        let mut sieve = vec![true; limit + 1];
        sieve[0] = false;
        sieve[1] = false;
        let mut i = 2;
        while i * i <= limit {
            if sieve[i] {
                let mut j = i * i;
                while j <= limit {
                    sieve[j] = false;
                    j += i;
                }
            }
            i += 1;
        }
        (2..=limit as u64).filter(|&n| sieve[n as usize]).collect()
    })
}

/// Deterministically checks divisibility by the small-prime table.
///
/// Returns `Some(true)` / `Some(false)` when the answer is decided by trial
/// division, `None` when Miller–Rabin is still needed.
fn trial_division(n: &Uint) -> Option<bool> {
    for &p in small_primes() {
        let p_uint = Uint::from_u64(p);
        if n == &p_uint {
            return Some(true);
        }
        if n < &p_uint {
            return Some(false);
        }
        if n.rem_u64(p) == 0 {
            return Some(false);
        }
    }
    None
}

/// Probabilistic primality test: trial division followed by Miller–Rabin with
/// [`MILLER_RABIN_ROUNDS`] uniformly random bases.
///
/// Miller–Rabin runs in a [`MontCtx`] of `n`, so a candidate that trial
/// division does not settle must have a width `MontCtx::new` accepts;
/// any other is a [`BigIntError::InvalidModulus`] error, never an answer.
pub(crate) fn is_prime<R: RngCore + CryptoRng>(n: &Uint, rng: &mut R) -> Result<bool> {
    if n.is_zero() || n.is_one() {
        return Ok(false);
    }
    if n.is_even() {
        return Ok(n == &Uint::from_u64(2));
    }
    if let Some(answer) = trial_division(n) {
        return Ok(answer);
    }
    let ctx = MontCtx::new(n)?;
    // Write n - 1 = d * 2^s with d odd.
    let n_minus_1 = n.wrapping_sub(&Uint::ONE);
    let mut d = n_minus_1;
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr1();
        s += 1;
    }
    let one_m = ctx.one_mont();
    let minus_one_m = ctx.neg(&one_m);

    'witness: for _ in 0..MILLER_RABIN_ROUNDS {
        // Random base in [2, n-2].
        let base = loop {
            let candidate = random_bits(rng, n.bits());
            let reduced = ctx.reduce(&candidate);
            if !reduced.is_zero() && !reduced.is_one() && reduced != n_minus_1 {
                break reduced;
            }
        };
        let base_m = ctx.to_mont(&base);
        let mut x = ctx.mont_pow(&base_m, &d);
        if x == one_m || x == minus_one_m {
            continue 'witness;
        }
        for _ in 0..s.saturating_sub(1) {
            x = ctx.mont_sqr(&x);
            if x == minus_one_m {
                continue 'witness;
            }
        }
        return Ok(false);
    }
    Ok(true)
}

/// Generates a random prime with exactly `bits` bits (top bit set, odd).
///
/// Fails with `is_prime`'s error when `bits` gives a width no
/// [`MontCtx`] runs at.
pub fn generate_prime<R: RngCore + CryptoRng>(bits: usize, rng: &mut R) -> Result<Uint> {
    if bits < 2 {
        return Err(BigIntError::InvalidParameter(
            "prime must have at least 2 bits",
        ));
    }
    for _ in 0..PRIME_SEARCH_BUDGET {
        let mut candidate = random_bits(rng, bits);
        candidate.set_bit(bits - 1);
        candidate.set_bit(0);
        if is_prime(&candidate, rng)? {
            return Ok(candidate);
        }
    }
    Err(BigIntError::PrimeGenerationFailed)
}

/// Generates a random prime `p` of (approximately) `p_bits` bits of the form
/// `p = h·q − 1` with `h ≡ 0 (mod 4)`, so that `p ≡ 3 (mod 4)` and `q | p + 1`.
///
/// This is exactly the "type A" construction used by the pairing crate: the
/// supersingular curve `y² = x³ + x` over `F_p` then has order `p + 1 = h·q`,
/// and the order-`q` subgroup is the pairing group.
///
/// Returns `(p, h)`, or `is_prime`'s error when `p` has a width no
/// [`MontCtx`] runs at.
pub fn generate_cofactor_prime<R: RngCore + CryptoRng>(
    q: &Uint,
    p_bits: usize,
    rng: &mut R,
) -> Result<(Uint, Uint)> {
    let q_bits = q.bits();
    if p_bits < q_bits + 4 {
        return Err(BigIntError::InvalidParameter(
            "field prime must be at least 4 bits larger than the group order",
        ));
    }
    let h_bits = p_bits - q_bits;
    for _ in 0..PRIME_SEARCH_BUDGET {
        // Random cofactor with the top bit set, forced to be a multiple of 4.
        let mut h = random_bits(rng, h_bits);
        h.set_bit(h_bits - 1);
        h.limbs[0] &= !3u64;
        if h.is_zero() {
            continue;
        }
        let hq = match h.checked_mul(q) {
            Some(v) => v,
            None => continue,
        };
        let p = hq.wrapping_sub(&Uint::ONE);
        // p = h·q - 1 with h ≡ 0 (mod 4) and q odd gives p ≡ 3 (mod 4).
        debug_assert_eq!(p.limbs()[0] & 3, 3);
        if is_prime(&p, rng)? {
            return Ok((p, h));
        }
    }
    Err(BigIntError::PrimeGenerationFailed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn small_values_classified_correctly() {
        let mut r = rng();
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 101, 997, 1009, 7919, 104729];
        let composites = [0u64, 1, 4, 6, 9, 15, 21, 91, 1001, 7917, 104730, 561, 41041];
        for p in primes {
            assert!(
                is_prime(&Uint::from_u64(p), &mut r).unwrap(),
                "{p} should be prime"
            );
        }
        for c in composites {
            assert!(
                !is_prime(&Uint::from_u64(c), &mut r).unwrap(),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers defeat Fermat tests but not Miller–Rabin.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 825265] {
            assert_eq!(is_prime(&Uint::from_u64(c), &mut r), Ok(false), "{c}");
        }
    }

    /// `2^bits − k`.
    fn below_power_of_two(bits: usize, k: u64) -> Uint {
        Uint::ONE.shl(bits).wrapping_sub(&Uint::from_u64(k))
    }

    #[test]
    fn large_known_prime_accepted() {
        let mut r = rng();
        // P-192's 2^192 − 2^64 − 1 and 2^61 − 1 (Mersenne).
        let p192 = below_power_of_two(192, 1).wrapping_sub(&Uint::ONE.shl(64));
        assert_eq!(is_prime(&p192, &mut r), Ok(true));
        assert_eq!(
            is_prime(&Uint::from_u64((1u64 << 61) - 1), &mut r),
            Ok(true)
        );
        // 2^192 − 237 is the largest 192-bit prime ...
        assert_eq!(is_prime(&below_power_of_two(192, 237), &mut r), Ok(true));
        // ... and 2^192 − 245, odd with no factor below 2000, is composite.
        assert_eq!(is_prime(&below_power_of_two(192, 245), &mut r), Ok(false));
    }

    #[test]
    fn a_width_without_a_kernel_is_an_error_not_an_answer() {
        let mut r = rng();
        // 2^127 − 1 is prime, but no MontCtx runs Miller–Rabin at 2 limbs.
        let m127 = Uint::from_u128((1u128 << 127) - 1);
        assert!(matches!(
            is_prime(&m127, &mut r),
            Err(BigIntError::InvalidModulus(_))
        ));
        // Trial division still settles a small factor at any width.
        let three_times = Uint::from_u128(3 * ((1u128 << 120) + 1));
        assert_eq!(is_prime(&three_times, &mut r), Ok(false));
        // The searches hand the error on instead of treating it as "composite".
        assert!(matches!(
            generate_prime(128, &mut r),
            Err(BigIntError::InvalidModulus(_))
        ));
        let q = generate_prime(64, &mut r).unwrap();
        assert!(matches!(
            generate_cofactor_prime(&q, 128, &mut r),
            Err(BigIntError::InvalidModulus(_))
        ));
    }

    #[test]
    fn generated_primes_have_requested_size() {
        let mut r = rng();
        for bits in [32usize, 64, 160, 192] {
            let p = generate_prime(bits, &mut r).unwrap();
            assert_eq!(p.bits(), bits);
            assert!(p.is_odd());
            assert_eq!(is_prime(&p, &mut r), Ok(true));
        }
    }

    #[test]
    fn tiny_prime_request_rejected() {
        let mut r = rng();
        assert!(generate_prime(1, &mut r).is_err());
        assert!(generate_prime(0, &mut r).is_err());
    }

    #[test]
    fn cofactor_prime_has_required_structure() {
        let mut r = rng();
        let q = generate_prime(160, &mut r).unwrap();
        let (p, h) = generate_cofactor_prime(&q, 240, &mut r).unwrap();
        assert_eq!(is_prime(&p, &mut r), Ok(true));
        // p ≡ 3 (mod 4)
        assert_eq!(p.limbs()[0] & 3, 3);
        // q divides p + 1 and the cofactor matches.
        let p_plus_1 = p.wrapping_add(&Uint::ONE);
        let (quot, rem) = p_plus_1.div_rem(&q).unwrap();
        assert!(rem.is_zero());
        assert_eq!(quot, h);
        // The size is close to the request (the top bit of h is set).
        assert!(p.bits() >= 236 && p.bits() <= 242, "got {} bits", p.bits());
    }

    #[test]
    fn cofactor_prime_rejects_silly_sizes() {
        let mut r = rng();
        let q = generate_prime(64, &mut r).unwrap();
        assert!(generate_cofactor_prime(&q, 66, &mut r).is_err());
    }
}
