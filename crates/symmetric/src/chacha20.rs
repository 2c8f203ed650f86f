//! The ChaCha20 stream cipher (IETF variant: 256-bit key, 96-bit nonce,
//! 32-bit initial block counter).
//!
//! Only the keystream generator and XOR application are provided here; the
//! authenticated construction lives in [`crate::aead`].

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes (IETF variant).
pub const NONCE_LEN: usize = 12;
/// Block size of the keystream in bytes.
pub const BLOCK_LEN: usize = 64;

/// The ChaCha20 sigma constant, "expand 32-byte k" as four little-endian words.
const SIGMA: [u32; 4] = [
    u32::from_le_bytes(*b"expa"),
    u32::from_le_bytes(*b"nd 3"),
    u32::from_le_bytes(*b"2-by"),
    u32::from_le_bytes(*b"te k"),
];

/// A ChaCha20 cipher instance bound to a key and nonce.
#[derive(Clone)]
pub struct ChaCha20 {
    key_words: [u32; 8],
    nonce_words: [u32; 3],
}

impl ChaCha20 {
    /// Creates a cipher instance from a 32-byte key and a 12-byte nonce.
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> Self {
        let mut key_words = [0u32; 8];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            key_words[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let mut nonce_words = [0u32; 3];
        for (i, chunk) in nonce.chunks_exact(4).enumerate() {
            nonce_words[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        ChaCha20 {
            key_words,
            nonce_words,
        }
    }

    /// Generates the 64-byte keystream block for the given counter value.
    pub(crate) fn keystream_block(&self, counter: u32) -> [u8; BLOCK_LEN] {
        let mut state = [0u32; 16];
        state[0..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key_words);
        state[12] = counter;
        state[13..16].copy_from_slice(&self.nonce_words);

        let mut working = state;
        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }

        let mut out = [0u8; BLOCK_LEN];
        for i in 0..16 {
            let word = working[i].wrapping_add(state[i]);
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// XORs the keystream (starting at block `initial_counter`) into `data` in place.
    ///
    /// Applying the same operation twice recovers the original data.
    pub(crate) fn apply_keystream(&self, initial_counter: u32, data: &mut [u8]) {
        for (block_index, chunk) in data.chunks_mut(BLOCK_LEN).enumerate() {
            let counter = initial_counter.wrapping_add(block_index as u32);
            let keystream = self.keystream_block(counter);
            for (byte, ks) in chunk.iter_mut().zip(keystream.iter()) {
                *byte ^= ks;
            }
        }
    }

    /// Convenience: encrypts/decrypts `data` into a new vector starting at counter 1
    /// (counter 0 is conventionally reserved for deriving one-time MAC keys).
    pub fn process(&self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        self.apply_keystream(1, &mut out);
        out
    }
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher() -> ChaCha20 {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = core::array::from_fn(|i| (i * 7) as u8);
        ChaCha20::new(&key, &nonce)
    }

    #[test]
    fn quarter_round_rfc_vector() {
        // RFC 7539 §2.1.1 test vector for the quarter round.
        let mut state = [0u32; 16];
        state[0] = 0x11111111;
        state[1] = 0x01020304;
        state[2] = 0x9b8d6f43;
        state[3] = 0x01234567;
        quarter_round(&mut state, 0, 1, 2, 3);
        assert_eq!(state[0], 0xea2a92f4);
        assert_eq!(state[1], 0xcb1cf8ce);
        assert_eq!(state[2], 0x4581472e);
        assert_eq!(state[3], 0x5881c4bb);
    }

    #[test]
    fn keystream_is_deterministic_and_counter_dependent() {
        let c = cipher();
        assert_eq!(c.keystream_block(0), c.keystream_block(0));
        assert_ne!(c.keystream_block(0), c.keystream_block(1));
        assert_ne!(c.keystream_block(1), c.keystream_block(2));
    }

    #[test]
    fn keystream_depends_on_key_and_nonce() {
        let key_a = [1u8; 32];
        let key_b = [2u8; 32];
        let nonce_a = [3u8; 12];
        let nonce_b = [4u8; 12];
        let base = ChaCha20::new(&key_a, &nonce_a).keystream_block(0);
        assert_ne!(base, ChaCha20::new(&key_b, &nonce_a).keystream_block(0));
        assert_ne!(base, ChaCha20::new(&key_a, &nonce_b).keystream_block(0));
    }

    #[test]
    fn round_trip_various_lengths() {
        let c = cipher();
        for len in [0usize, 1, 63, 64, 65, 127, 128, 1000, 4096] {
            let plaintext: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            let ciphertext = c.process(&plaintext);
            assert_eq!(c.process(&ciphertext), plaintext, "len {len}");
            if len > 0 {
                assert_ne!(ciphertext, plaintext, "len {len}");
            }
        }
    }

    #[test]
    fn apply_keystream_is_position_dependent() {
        let c = cipher();
        let mut a = vec![0u8; 128];
        let mut b = vec![0u8; 128];
        c.apply_keystream(1, &mut a);
        c.apply_keystream(2, &mut b);
        // Starting one block later shifts the keystream by one block.
        assert_eq!(&a[64..128], &b[0..64]);
        assert_ne!(&a[0..64], &b[0..64]);
    }

    #[test]
    fn keystream_blocks_have_no_obvious_bias() {
        // Count ones across a few keystream blocks; expect roughly half.
        let c = cipher();
        let mut ones = 0u32;
        for ctr in 0..16u32 {
            ones += c
                .keystream_block(ctr)
                .iter()
                .map(|b| b.count_ones())
                .sum::<u32>();
        }
        let total_bits = 16 * 64 * 8;
        let ratio = ones as f64 / total_bits as f64;
        assert!(ratio > 0.45 && ratio < 0.55, "bit ratio {ratio}");
    }
}
