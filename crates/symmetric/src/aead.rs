//! Encrypt-then-MAC authenticated encryption: ChaCha20 + HMAC-SHA-256.
//!
//! The construction derives independent encryption and MAC keys from the AEAD
//! key with HKDF, encrypts with ChaCha20, and MACs
//! `nonce || len(aad) || aad || ciphertext` with HMAC-SHA-256.  Decryption
//! verifies the tag before touching the ciphertext.

use crate::chacha20::{ChaCha20, KEY_LEN, NONCE_LEN};
use crate::error::SymmetricError;
use crate::Result;
use rand::{CryptoRng, RngCore};
use tibpre_hash::{Hkdf, HmacSha256};
use tibpre_wire::{Codec, DecodeError, Reader, WireDecode, WireEncode, Writer};

/// Authentication tag length in bytes.
pub const TAG_LEN: usize = 32;

/// A 256-bit AEAD key.
#[derive(Clone, PartialEq, Eq)]
pub struct AeadKey {
    bytes: [u8; KEY_LEN],
}

impl AeadKey {
    /// Wraps raw key bytes.
    pub fn from_bytes(bytes: [u8; KEY_LEN]) -> Self {
        AeadKey { bytes }
    }

    /// Derives a key from arbitrary input keying material (e.g. the canonical
    /// encoding of a pairing target-group element) and a context string.
    pub fn derive(ikm: &[u8], context: &str) -> Self {
        let okm = Hkdf::derive(b"tibpre-aead-key", ikm, context.as_bytes(), KEY_LEN);
        let mut bytes = [0u8; KEY_LEN];
        bytes.copy_from_slice(&okm);
        AeadKey { bytes }
    }

    /// Samples a uniformly random key.
    pub fn random<R: RngCore + CryptoRng>(rng: &mut R) -> Self {
        let mut bytes = [0u8; KEY_LEN];
        rng.fill_bytes(&mut bytes);
        AeadKey { bytes }
    }

    /// Raw key bytes.
    pub fn as_bytes(&self) -> &[u8; KEY_LEN] {
        &self.bytes
    }

    fn subkeys(&self) -> ([u8; KEY_LEN], [u8; KEY_LEN]) {
        let okm = Hkdf::derive(b"tibpre-aead-subkeys", &self.bytes, b"enc|mac", KEY_LEN * 2);
        let mut enc = [0u8; KEY_LEN];
        let mut mac = [0u8; KEY_LEN];
        enc.copy_from_slice(&okm[..KEY_LEN]);
        mac.copy_from_slice(&okm[KEY_LEN..]);
        (enc, mac)
    }

    /// Encrypts `plaintext` with associated data `aad`, using a freshly sampled nonce.
    pub fn seal<R: RngCore + CryptoRng>(
        &self,
        rng: &mut R,
        plaintext: &[u8],
        aad: &[u8],
    ) -> AeadCiphertext {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        self.seal_with_nonce(nonce, plaintext, aad)
    }

    /// Encrypts with an explicit nonce (exposed for deterministic tests).
    pub fn seal_with_nonce(
        &self,
        nonce: [u8; NONCE_LEN],
        plaintext: &[u8],
        aad: &[u8],
    ) -> AeadCiphertext {
        let (enc_key, mac_key) = self.subkeys();
        let cipher = ChaCha20::new(&enc_key, &nonce);
        let body = cipher.process(plaintext);
        let tag = Self::compute_tag(&mac_key, &nonce, aad, &body);
        AeadCiphertext { nonce, body, tag }
    }

    /// Verifies and decrypts a ciphertext.
    pub fn open(&self, ciphertext: &AeadCiphertext, aad: &[u8]) -> Result<Vec<u8>> {
        let (enc_key, mac_key) = self.subkeys();
        let expected = Self::compute_tag(&mac_key, &ciphertext.nonce, aad, &ciphertext.body);
        if !constant_time_eq(&expected, &ciphertext.tag) {
            return Err(SymmetricError::AuthenticationFailed);
        }
        let cipher = ChaCha20::new(&enc_key, &ciphertext.nonce);
        Ok(cipher.process(&ciphertext.body))
    }

    fn compute_tag(
        mac_key: &[u8; KEY_LEN],
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        body: &[u8],
    ) -> [u8; TAG_LEN] {
        let mut mac = HmacSha256::new(mac_key);
        mac.update(nonce);
        mac.update(&(aad.len() as u64).to_be_bytes());
        mac.update(aad);
        mac.update(&(body.len() as u64).to_be_bytes());
        mac.update(body);
        mac.finalize()
    }
}

impl core::fmt::Debug for AeadKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        write!(f, "AeadKey(..)")
    }
}

tibpre_wire::message! {
    /// An authenticated ciphertext: nonce, encrypted body and tag, written
    /// in that order in every wire version (nothing here is a group
    /// element).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct AeadCiphertext: () {
        /// The per-message nonce.
        pub nonce: [u8; NONCE_LEN],
        /// The ChaCha20-encrypted payload.
        pub body: Vec<u8> as LongBlob,
        /// The HMAC-SHA-256 tag over nonce, associated data and body.
        pub tag: [u8; TAG_LEN],
    }
}

tibpre_wire::message! {
    fields {
        // Inside another value, written in place.
        AeadCiphertext: |w, v| v.encode(w), |r| Self::decode(r, &());
    }
}

/// The codec of the AEAD body: a blob with a `u64` length.
struct LongBlob;

impl Codec<Vec<u8>, ()> for LongBlob {
    fn put(body: &Vec<u8>, w: &mut Writer) {
        w.put_u64(body.len() as u64);
        w.put_slice(body);
    }
    fn read(r: &mut Reader<'_>, _: &()) -> core::result::Result<Vec<u8>, DecodeError> {
        let len = r.u64()? as usize;
        Ok(r.take(len)?.to_vec())
    }
}

impl AeadCiphertext {
    /// Total serialized length in bytes.
    pub fn serialized_len(&self) -> usize {
        NONCE_LEN + 8 + self.body.len() + TAG_LEN
    }
}

fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tibpre_wire::{decode_bare, encode_bare, DecodeError, WireVersion};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// The bare body decode, rejecting trailing bytes.
    fn parse(bytes: &[u8]) -> core::result::Result<AeadCiphertext, DecodeError> {
        decode_bare(bytes, WireVersion::DEFAULT, &())
    }

    #[test]
    fn round_trip_with_aad() {
        let mut r = rng();
        let key = AeadKey::random(&mut r);
        let ct = key.seal(&mut r, b"attack at dawn", b"record-header");
        let pt = key.open(&ct, b"record-header").unwrap();
        assert_eq!(pt, b"attack at dawn");
    }

    #[test]
    fn wrong_aad_rejected() {
        let mut r = rng();
        let key = AeadKey::random(&mut r);
        let ct = key.seal(&mut r, b"payload", b"aad-1");
        assert_eq!(
            key.open(&ct, b"aad-2").unwrap_err(),
            SymmetricError::AuthenticationFailed
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let mut r = rng();
        let key = AeadKey::random(&mut r);
        let other = AeadKey::random(&mut r);
        let ct = key.seal(&mut r, b"payload", b"");
        assert!(other.open(&ct, b"").is_err());
    }

    #[test]
    fn tampering_detected_everywhere() {
        let mut r = rng();
        let key = AeadKey::random(&mut r);
        let ct = key.seal(&mut r, b"super secret data", b"aad");
        // Flip one bit in the body.
        let mut tampered = ct.clone();
        tampered.body[3] ^= 0x01;
        assert!(key.open(&tampered, b"aad").is_err());
        // Flip one bit in the tag.
        let mut tampered = ct.clone();
        tampered.tag[0] ^= 0x80;
        assert!(key.open(&tampered, b"aad").is_err());
        // Flip one bit in the nonce.
        let mut tampered = ct.clone();
        tampered.nonce[0] ^= 0x01;
        assert!(key.open(&tampered, b"aad").is_err());
        // Untouched ciphertext still opens.
        assert!(key.open(&ct, b"aad").is_ok());
    }

    #[test]
    fn empty_plaintext_and_aad() {
        let mut r = rng();
        let key = AeadKey::random(&mut r);
        let ct = key.seal(&mut r, b"", b"");
        assert_eq!(key.open(&ct, b"").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn serialization_round_trip() {
        let mut r = rng();
        let key = AeadKey::random(&mut r);
        let ct = key.seal(&mut r, b"serialize me", b"hdr");
        let bytes = encode_bare(&ct, WireVersion::DEFAULT);
        assert_eq!(bytes.len(), ct.serialized_len());
        let parsed = parse(&bytes).unwrap();
        assert_eq!(parsed, ct);
        assert_eq!(key.open(&parsed, b"hdr").unwrap(), b"serialize me");
    }

    #[test]
    fn malformed_serializations_rejected() {
        assert!(parse(&[]).is_err());
        assert!(parse(&[0u8; 10]).is_err());
        let mut r = rng();
        let key = AeadKey::random(&mut r);
        let mut bytes = encode_bare(&key.seal(&mut r, b"x", b""), WireVersion::DEFAULT);
        bytes.push(0); // trailing garbage
        assert!(parse(&bytes).is_err());
        bytes.pop();
        bytes.truncate(bytes.len() - 1); // truncated tag
        assert!(parse(&bytes).is_err());
    }

    #[test]
    fn derived_keys_are_context_separated() {
        let a = AeadKey::derive(b"shared secret", "context-a");
        let b = AeadKey::derive(b"shared secret", "context-b");
        let c = AeadKey::derive(b"shared secret", "context-a");
        assert_ne!(a.as_bytes(), b.as_bytes());
        assert_eq!(a.as_bytes(), c.as_bytes());
    }

    #[test]
    fn distinct_nonces_give_distinct_ciphertexts() {
        let mut r = rng();
        let key = AeadKey::random(&mut r);
        let c1 = key.seal(&mut r, b"same message", b"");
        let c2 = key.seal(&mut r, b"same message", b"");
        assert_ne!(c1.nonce, c2.nonce);
        assert_ne!(c1.body, c2.body);
    }

    #[test]
    fn deterministic_with_fixed_nonce() {
        let key = AeadKey::from_bytes([9u8; 32]);
        let nonce = [1u8; NONCE_LEN];
        let c1 = key.seal_with_nonce(nonce, b"msg", b"aad");
        let c2 = key.seal_with_nonce(nonce, b"msg", b"aad");
        assert_eq!(c1, c2);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let key = AeadKey::from_bytes([0x42u8; 32]);
        let dbg = format!("{key:?}");
        assert!(!dbg.contains("42"));
    }
}
