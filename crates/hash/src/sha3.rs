//! Keccak-f\[1600\] and the SHAKE-256 extendable-output function.
//!
//! The TIB-PRE random oracles (`H1`, `H2`) need variable-length uniform output
//! — hashing onto a 512–1536-bit prime field and onto curve points — which is
//! exactly what an XOF provides, so SHAKE-256 is the workhorse of the
//! [`crate::oracle`] module.  The permutation constants are *derived* (rotation
//! offsets from the triangular-number recurrence, round constants from the
//! degree-8 LFSR of FIPS 202 Algorithm 5) rather than transcribed, and the
//! derivation is pinned by unit tests on the well-known first constants.

use std::sync::OnceLock;

const KECCAK_ROUNDS: usize = 24;
const STATE_LANES: usize = 25;

/// Rate in bytes of SHAKE-256 (capacity 512 bits).
pub const RATE: usize = 136;

/// Domain-separation byte for the SHAKE extendable-output functions.
const DOMAIN_SHAKE: u8 = 0x1F;

/// Round constants of the ι step, derived from the FIPS 202 LFSR.
fn round_constants() -> &'static [u64; KECCAK_ROUNDS] {
    static RC: OnceLock<[u64; KECCAK_ROUNDS]> = OnceLock::new();
    RC.get_or_init(|| {
        // rc(t): the degree-8 LFSR of FIPS 202 Algorithm 5, with R[0] as the LSB.
        fn rc_bit(t: usize) -> u64 {
            if t.is_multiple_of(255) {
                return 1;
            }
            let mut r: u32 = 1;
            for _ in 0..(t % 255) {
                r <<= 1;
                let b8 = (r >> 8) & 1;
                r ^= b8;
                r ^= b8 << 4;
                r ^= b8 << 5;
                r ^= b8 << 6;
                r &= 0xFF;
            }
            (r & 1) as u64
        }
        let mut rc = [0u64; KECCAK_ROUNDS];
        for (ir, slot) in rc.iter_mut().enumerate() {
            let mut lane = 0u64;
            for j in 0..=6usize {
                lane |= rc_bit(j + 7 * ir) << ((1usize << j) - 1);
            }
            *slot = lane;
        }
        rc
    })
}

/// Rotation offsets of the ρ step, derived from the triangular-number recurrence.
fn rho_offsets() -> &'static [u32; STATE_LANES] {
    static RHO: OnceLock<[u32; STATE_LANES]> = OnceLock::new();
    RHO.get_or_init(|| {
        let mut offsets = [0u32; STATE_LANES];
        let (mut x, mut y) = (1usize, 0usize);
        for t in 0..24usize {
            offsets[x + 5 * y] = (((t + 1) * (t + 2) / 2) % 64) as u32;
            let next_x = y;
            let next_y = (2 * x + 3 * y) % 5;
            x = next_x;
            y = next_y;
        }
        offsets
    })
}

/// Applies the Keccak-f\[1600\] permutation in place.
pub(crate) fn keccak_f1600(state: &mut [u64; STATE_LANES]) {
    let rc = round_constants();
    let rho = rho_offsets();
    for &round_constant in rc.iter() {
        // θ
        let mut c = [0u64; 5];
        for (x, cx) in c.iter_mut().enumerate() {
            *cx = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                state[x + 5 * y] ^= d;
            }
        }
        // ρ and π
        let mut b = [0u64; STATE_LANES];
        for x in 0..5 {
            for y in 0..5 {
                let new_x = y;
                let new_y = (2 * x + 3 * y) % 5;
                b[new_x + 5 * new_y] = state[x + 5 * y].rotate_left(rho[x + 5 * y]);
            }
        }
        // χ
        for x in 0..5 {
            for y in 0..5 {
                state[x + 5 * y] =
                    b[x + 5 * y] ^ ((!b[(x + 1) % 5 + 5 * y]) & b[(x + 2) % 5 + 5 * y]);
            }
        }
        // ι
        state[0] ^= round_constant;
    }
}

/// SHAKE-256 extendable-output function: the Keccak sponge at rate
/// [`RATE`] with the SHAKE domain byte.
#[derive(Clone)]
pub struct Shake256 {
    state: [u64; STATE_LANES],
    /// Bytes absorbed into the current block.
    absorb_offset: usize,
    /// `Some(offset)` once squeezing has started.
    squeeze_offset: Option<usize>,
}

impl Shake256 {
    /// Creates a fresh XOF.
    pub fn new() -> Self {
        Shake256 {
            state: [0u64; STATE_LANES],
            absorb_offset: 0,
            squeeze_offset: None,
        }
    }

    fn xor_byte(&mut self, index: usize, byte: u8) {
        let lane = index / 8;
        let shift = (index % 8) * 8;
        self.state[lane] ^= (byte as u64) << shift;
    }

    fn read_byte(&self, index: usize) -> u8 {
        let lane = index / 8;
        let shift = (index % 8) * 8;
        (self.state[lane] >> shift) as u8
    }

    /// Absorbs more input.  Panics if called after squeezing started.
    pub fn update(&mut self, data: &[u8]) {
        assert!(
            self.squeeze_offset.is_none(),
            "cannot absorb after squeezing has started"
        );
        for &byte in data {
            self.xor_byte(self.absorb_offset, byte);
            self.absorb_offset += 1;
            if self.absorb_offset == RATE {
                keccak_f1600(&mut self.state);
                self.absorb_offset = 0;
            }
        }
    }

    fn pad(&mut self) {
        // Multi-rate padding: domain byte at the current offset, 0x80 at the
        // last byte of the rate (they coincide when only one byte is free).
        self.xor_byte(self.absorb_offset, DOMAIN_SHAKE);
        self.xor_byte(RATE - 1, 0x80);
        keccak_f1600(&mut self.state);
        self.squeeze_offset = Some(0);
    }

    /// Squeezes `out.len()` bytes of output.  May be called repeatedly;
    /// successive calls continue the output stream.
    pub fn squeeze(&mut self, out: &mut [u8]) {
        if self.squeeze_offset.is_none() {
            self.pad();
        }
        let mut offset = self.squeeze_offset.expect("pad() sets the offset");
        for slot in out.iter_mut() {
            if offset == RATE {
                keccak_f1600(&mut self.state);
                offset = 0;
            }
            *slot = self.read_byte(offset);
            offset += 1;
        }
        self.squeeze_offset = Some(offset);
    }

    /// Squeezes `len` bytes into a fresh vector.
    pub(crate) fn squeeze_vec(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.squeeze(&mut out);
        out
    }

    /// One-shot convenience: absorbs `data` and squeezes `len` bytes.
    pub fn hash(data: &[u8], len: usize) -> Vec<u8> {
        let mut xof = Self::new();
        xof.update(data);
        xof.squeeze_vec(len)
    }
}

impl Default for Shake256 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_round_constants_match_known_values() {
        let rc = round_constants();
        assert_eq!(rc[0], 0x0000_0000_0000_0001);
        assert_eq!(rc[1], 0x0000_0000_0000_8082);
        assert_eq!(rc[2], 0x8000_0000_0000_808a);
        assert_eq!(rc[3], 0x8000_0000_8000_8000);
        assert_eq!(rc[23], 0x8000_0000_8000_8008);
    }

    #[test]
    fn derived_rho_offsets_match_known_values() {
        let rho = rho_offsets();
        // Published offset table (x + 5y indexing).
        assert_eq!(rho[0], 0); // (0,0)
        assert_eq!(rho[1], 1); // (1,0)
        assert_eq!(rho[2], 62); // (2,0)
        assert_eq!(rho[1 + 5], 44); // (1,1)
        assert_eq!(rho[2 + 5 * 2], 43); // (2,2)
        assert_eq!(rho[4 + 5 * 4], 14); // (4,4)
                                        // Every offset is in range and the 24 non-origin lanes are all assigned.
        let nonzero = rho.iter().filter(|&&r| r != 0).count();
        assert!(nonzero >= 23);
    }

    #[test]
    fn permutation_changes_state_and_is_deterministic() {
        let mut a = [0u64; 25];
        let mut b = [0u64; 25];
        keccak_f1600(&mut a);
        keccak_f1600(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, [0u64; 25]);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn shake256_matches_published_vectors() {
        // FIPS 202 / NIST CSRC example values: the empty message, "abc",
        // and the 1600-bit message of 200 × 0xA3 (first and last 32 bytes
        // of its 512-byte output, so the multi-block squeeze is pinned too).
        assert_eq!(
            hex(&Shake256::hash(b"", 64)),
            "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f\
             d75dc4ddd8c0f200cb05019d67b592f6fc821c49479ab48640292eacb3b7c4be"
        );
        assert_eq!(
            hex(&Shake256::hash(b"abc", 32)),
            "483366601360a8771c6863080cc4114d8db44530f8f1e1ee4f94ea37e78b5739"
        );
        let long = Shake256::hash(&[0xA3; 200], 512);
        assert_eq!(
            hex(&long[..32]),
            "cd8a920ed141aa0407a22d59288652e9d9f1a7ee0c1e7c1ca699424da84a904d"
        );
        assert_eq!(
            hex(&long[480..]),
            "6a1a9d7846436e4dca5728b6f760eef0ca92bf0be5615e96959d767197a0beeb"
        );
    }

    #[test]
    fn sha3_streaming_matches_one_shot() {
        let data: Vec<u8> = (0..2000u32).map(|i| (i % 241) as u8).collect();
        let one_shot = Shake256::hash(&data, 32);
        for chunk in [1usize, 5, 135, 136, 137, 271, 500] {
            let mut h = Shake256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.squeeze_vec(32), one_shot, "chunk {chunk}");
        }
    }

    #[test]
    fn shake_output_is_a_consistent_stream() {
        // Squeezing 100 bytes at once equals squeezing 10 x 10 bytes.
        let mut big = Shake256::new();
        big.update(b"stream test");
        let all = big.squeeze_vec(100);

        let mut small = Shake256::new();
        small.update(b"stream test");
        let mut pieces = Vec::new();
        for _ in 0..10 {
            pieces.extend(small.squeeze_vec(10));
        }
        assert_eq!(all, pieces);
    }

    #[test]
    fn shake_is_prefix_consistent_across_lengths() {
        let short = Shake256::hash(b"prefix", 32);
        let long = Shake256::hash(b"prefix", 200);
        assert_eq!(&long[..32], &short[..]);
    }

    #[test]
    fn rate_boundary_inputs() {
        // Inputs of exactly rate-1, rate and rate+1 bytes exercise the padding paths.
        for len in [RATE - 1, RATE, RATE + 1, 2 * RATE] {
            let data = vec![0x3Cu8; len];
            let a = Shake256::hash(&data, 32);
            let mut h = Shake256::new();
            h.update(&data[..len / 2]);
            h.update(&data[len / 2..]);
            assert_eq!(h.squeeze_vec(32), a, "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot absorb after squeezing")]
    fn absorb_after_squeeze_panics() {
        let mut xof = Shake256::new();
        xof.update(b"a");
        let _ = xof.squeeze_vec(16);
        xof.update(b"b");
    }

    #[test]
    fn avalanche_effect() {
        // Flipping one input bit flips roughly half the output bits.
        let a = Shake256::hash(b"avalanche test vector 0", 32);
        let b = Shake256::hash(b"avalanche test vector 1", 32);
        let differing: u32 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert!(
            differing > 80 && differing < 176,
            "differing bits: {differing}"
        );
    }
}
