//! Random sampling helpers for [`Uint`].

use crate::uint::{Uint, MAX_BITS, MAX_LIMBS};
use rand::{CryptoRng, RngCore};

/// Samples a uniformly random value in `[0, 2^bits)`.
///
/// # Panics
/// Panics if `bits > MAX_BITS`.
pub(crate) fn random_bits<R: RngCore + CryptoRng>(rng: &mut R, bits: usize) -> Uint {
    assert!(bits <= MAX_BITS, "requested more bits than capacity");
    if bits == 0 {
        return Uint::ZERO;
    }
    let mut out = Uint::ZERO;
    let full_limbs = bits / 64;
    let rem_bits = bits % 64;
    for limb in out.limbs.iter_mut().take(full_limbs) {
        *limb = rng.next_u64();
    }
    if rem_bits > 0 && full_limbs < MAX_LIMBS {
        out.limbs[full_limbs] = rng.next_u64() >> (64 - rem_bits);
    }
    out
}

/// Samples a uniformly random value in `[0, bound)` by rejection sampling.
///
/// # Panics
/// Panics if `bound` is zero.
pub fn random_below<R: RngCore + CryptoRng>(rng: &mut R, bound: &Uint) -> Uint {
    assert!(!bound.is_zero(), "bound must be non-zero");
    let bits = bound.bits();
    loop {
        let candidate = random_bits(rng, bits);
        if &candidate < bound {
            return candidate;
        }
    }
}

/// Samples a uniformly random value in `[1, bound)`.
///
/// # Panics
/// Panics if `bound <= 1`.
pub fn random_nonzero_below<R: RngCore + CryptoRng>(rng: &mut R, bound: &Uint) -> Uint {
    assert!(bound > &Uint::ONE, "bound must exceed one");
    loop {
        let candidate = random_below(rng, bound);
        if !candidate.is_zero() {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn random_bits_respects_width() {
        let mut r = rng();
        for bits in [0usize, 1, 7, 63, 64, 65, 127, 500, MAX_BITS] {
            for _ in 0..20 {
                let v = random_bits(&mut r, bits);
                assert!(
                    v.bits() <= bits,
                    "{} bits exceeded request {bits}",
                    v.bits()
                );
            }
        }
    }

    #[test]
    fn random_bits_hits_high_bits() {
        // With 200 samples of 64 bits the top bit is set with overwhelming probability.
        let mut r = rng();
        let any_top = (0..200).any(|_| random_bits(&mut r, 64).bit(63));
        assert!(any_top);
    }

    #[test]
    fn random_below_is_in_range() {
        let mut r = rng();
        let bound = Uint::from_u64(1000);
        let mut seen_small = false;
        let mut seen_large = false;
        for _ in 0..500 {
            let v = random_below(&mut r, &bound);
            assert!(v < bound);
            if v < Uint::from_u64(500) {
                seen_small = true;
            } else {
                seen_large = true;
            }
        }
        assert!(seen_small && seen_large, "samples look non-uniform");
    }

    #[test]
    fn random_nonzero_below_never_zero() {
        let mut r = rng();
        let bound = Uint::from_u64(3);
        for _ in 0..100 {
            let v = random_nonzero_below(&mut r, &bound);
            assert!(!v.is_zero());
            assert!(v < bound);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be non-zero")]
    fn random_below_zero_bound_panics() {
        let mut r = rng();
        random_below(&mut r, &Uint::ZERO);
    }
}
