//! CRC-32 (ISO-HDLC, the ubiquitous `0xEDB88320` reflected polynomial).
//!
//! Every frame and snapshot this crate writes carries a CRC-32 over its
//! length field and payload, so recovery can tell a committed frame from a
//! torn or bit-rotted one without trusting anything else in the file.  The
//! checksum guards against *accidents* (torn writes, disk rot); it is not a
//! MAC and offers no protection against a malicious storage server — that
//! threat is handled a layer up, by the AEAD binding inside the ciphertexts
//! themselves.

/// The reflected generator polynomial of CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built once at compile time (8 × 256 × 4 bytes).
///
/// `TABLES[0]` is the classic bytewise table; `TABLES[k][i]` is the CRC of
/// byte `i` followed by `k` zero bytes.  Processing eight input bytes per
/// step breaks the one-lookup-per-byte dependency chain of the bytewise
/// loop, which matters because this CRC sits on the hot ingest path: every
/// WAL frame append and every snapshot blob (write *and* its first read)
/// checksums its full payload through here.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// A streaming CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh checksum state.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lo = u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes")) ^ state;
            let hi = u32::from_le_bytes(chunk[4..].try_into().expect("4 bytes"));
            state = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &byte in chunks.remainder() {
            state = (state >> 8) ^ TABLES[0][((state ^ u32::from(byte)) & 0xFF) as usize];
        }
        self.state = state;
    }

    /// Finalizes and returns the checksum value.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte string.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = b"split across several updates";
        let mut crc = Crc32::new();
        for chunk in data.chunks(5) {
            crc.update(chunk);
        }
        assert_eq!(crc.finish(), crc32(data));
    }

    /// Bit-at-a-time reference implementation, straight from the polynomial.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut state = !0u32;
        for &byte in bytes {
            state ^= u32::from(byte);
            for _ in 0..8 {
                state = if state & 1 != 0 {
                    (state >> 1) ^ POLY
                } else {
                    state >> 1
                };
            }
        }
        !state
    }

    #[test]
    fn slice_by_8_matches_the_bitwise_reference_at_every_length() {
        // 0..=64 covers every remainder shape of the 8-byte inner loop, plus
        // a few longer, non-multiple-of-8 sizes.
        let data: Vec<u8> = (0u32..1024)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        for len in (0..=64).chain([100, 255, 777, 1024]) {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = vec![0xA5u8; 64];
        let baseline = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), baseline, "byte {byte} bit {bit}");
            }
        }
    }
}
