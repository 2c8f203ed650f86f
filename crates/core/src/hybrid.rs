//! Hybrid (KEM/DEM) mode for byte payloads.
//!
//! The paper encrypts elements of the target group; real PHR payloads are byte
//! strings of arbitrary length.  The standard bridge is a KEM/DEM hybrid:
//!
//! 1. the delegator samples a random target-group element `k ∈ G_1`,
//! 2. encrypts it with `Encrypt1(k, t, id)` (the **header**),
//! 3. derives an AEAD key from `k` and encrypts the payload (the **body**).
//!
//! Crucially, the proxy only ever touches the *header*: re-encryption converts
//! `Encrypt1(k, …)` into something the delegatee can open, while the AEAD body
//! is forwarded untouched.  Delegation therefore stays exactly as fine-grained
//! as the underlying scheme, and the proxy's work is independent of the
//! payload size.

use crate::delegatee::Delegatee;
use crate::delegator::{Delegator, TypedCiphertext};
use crate::proxy::{re_encrypt_batch, ReEncryptedCiphertext};
use crate::rekey::ReEncryptionKey;
use crate::types::TypeTag;
use crate::Result;
use rand::{CryptoRng, RngCore};
use tibpre_pairing::{DecodeCtx, Gt};
use tibpre_symmetric::{AeadCiphertext, AeadKey};
use tibpre_wire::{Nested, WireEncode};

/// Context string binding derived AEAD keys to this construction.
const KEM_CONTEXT: &str = "tibpre-hybrid-kem-v1";

tibpre_wire::message! {
    /// A hybrid ciphertext: typed KEM header plus AEAD-encrypted payload.
    /// The KEM header is nested (length-prefixed) so the format stays
    /// parseable field by field; the AEAD body carries its own length field.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct HybridCiphertext: DecodeCtx {
        /// `Encrypt1(k, t, id)` — the encapsulated key, still under the delegator's identity.
        pub header: TypedCiphertext as Nested,
        /// The AEAD-encrypted payload under the key derived from `k`.
        pub body: AeadCiphertext,
    }
}

tibpre_wire::message! {
    /// A hybrid ciphertext whose header has been re-encrypted for a delegatee.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ReEncryptedHybridCiphertext: DecodeCtx {
        /// The re-encrypted KEM header.
        pub header: ReEncryptedCiphertext as Nested,
        /// The AEAD body, forwarded by the proxy untouched.
        pub body: AeadCiphertext,
    }
}

fn dem_key(k: &Gt, type_tag: &TypeTag) -> AeadKey {
    // Bind the derived key to the type tag as well, so a header maliciously
    // re-labelled to another type cannot be combined with the original body.
    let mut ikm = k.to_bytes();
    ikm.extend_from_slice(type_tag.as_bytes());
    AeadKey::derive(&ikm, KEM_CONTEXT)
}

impl HybridCiphertext {
    /// The message type of the header.
    pub fn type_tag(&self) -> &TypeTag {
        &self.header.type_tag
    }

    /// Total serialized size in bytes (envelope + header + body) under the
    /// default wire version, for the size experiments.
    pub fn serialized_len(&self) -> usize {
        self.to_wire_bytes().len()
    }
}

impl Delegator {
    /// Hybrid encryption of an arbitrary byte payload under the given type.
    pub fn encrypt_bytes<R: RngCore + CryptoRng>(
        &self,
        payload: &[u8],
        associated_data: &[u8],
        type_tag: &TypeTag,
        rng: &mut R,
    ) -> HybridCiphertext {
        let k = self.params().random_gt(rng);
        let header = self.encrypt_typed(&k, type_tag, rng);
        let body = dem_key(&k, type_tag).seal(rng, payload, associated_data);
        HybridCiphertext { header, body }
    }

    /// Direct hybrid decryption by the delegator.
    pub fn decrypt_bytes(
        &self,
        ciphertext: &HybridCiphertext,
        associated_data: &[u8],
    ) -> Result<Vec<u8>> {
        let k = self.decrypt_typed(&ciphertext.header)?;
        let key = dem_key(&k, &ciphertext.header.type_tag);
        Ok(key.open(&ciphertext.body, associated_data)?)
    }
}

/// Re-encrypts only the KEM header of a hybrid ciphertext (proxy operation)
/// — a run of one through [`re_encrypt_hybrid_batch`].
pub fn re_encrypt_hybrid(
    ciphertext: &HybridCiphertext,
    rekey: &ReEncryptionKey,
) -> Result<ReEncryptedHybridCiphertext> {
    let mut converted = re_encrypt_hybrid_batch([ciphertext], rekey)?;
    Ok(converted.pop().expect("one output per input"))
}

/// Re-encrypts the KEM headers of many hybrid ciphertexts with one key
/// through [`re_encrypt_batch`], which validates every header's type before
/// any conversion (a mixed run fails atomically) and shares the key's
/// pairing precomputation across the run.  Bodies are forwarded untouched,
/// so the proxy's per-record work stays independent of payload size.
pub fn re_encrypt_hybrid_batch<'a, I>(
    ciphertexts: I,
    rekey: &ReEncryptionKey,
) -> Result<Vec<ReEncryptedHybridCiphertext>>
where
    I: IntoIterator<Item = &'a HybridCiphertext>,
{
    let ciphertexts: Vec<&HybridCiphertext> = ciphertexts.into_iter().collect();
    let headers = re_encrypt_batch(ciphertexts.iter().map(|ct| &ct.header), rekey)?;
    Ok(ciphertexts
        .into_iter()
        .zip(headers)
        .map(|(ciphertext, header)| ReEncryptedHybridCiphertext {
            header,
            body: ciphertext.body.clone(),
        })
        .collect())
}

impl Delegatee {
    /// Hybrid decryption of a re-encrypted ciphertext by the delegatee.
    pub fn decrypt_bytes(
        &self,
        ciphertext: &ReEncryptedHybridCiphertext,
        associated_data: &[u8],
    ) -> Result<Vec<u8>> {
        let k = self.decrypt_reencrypted(&ciphertext.header)?;
        let key = dem_key(&k, &ciphertext.header.type_tag);
        Ok(key.open(&ciphertext.body, associated_data)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::re_encrypt;
    use crate::PreError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tibpre_ibe::{Identity, Kgc};
    use tibpre_pairing::PairingParams;
    use tibpre_wire::{WireDecode, WireEncode};

    struct Fixture {
        delegator: Delegator,
        delegatee: Delegatee,
        delegatee_id: Identity,
        kgc2_pp: tibpre_ibe::IbePublicParams,
        rng: StdRng,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(91);
        let params = PairingParams::insecure_toy();
        let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let kgc2 = Kgc::setup(params, "kgc2", &mut rng);
        let alice = Identity::new("alice");
        let bob = Identity::new("bob");
        Fixture {
            delegator: Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice)),
            delegatee: Delegatee::new(kgc2.extract(&bob)),
            delegatee_id: bob,
            kgc2_pp: kgc2.public_params().clone(),
            rng,
        }
    }

    #[test]
    fn delegator_round_trip_various_sizes() {
        let mut f = fixture();
        let t = TypeTag::new("lab-results");
        for len in [0usize, 1, 100, 4096] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
            let ct = f
                .delegator
                .encrypt_bytes(&payload, b"header", &t, &mut f.rng);
            assert_eq!(
                f.delegator.decrypt_bytes(&ct, b"header").unwrap(),
                payload,
                "len {len}"
            );
        }
    }

    #[test]
    fn end_to_end_delegation_of_bytes() {
        let mut f = fixture();
        let t = TypeTag::new("emergency");
        let record = b"blood type: O-; allergies: penicillin".to_vec();
        let ct = f
            .delegator
            .encrypt_bytes(&record, b"record-42", &t, &mut f.rng);
        let rk = f
            .delegator
            .make_reencryption_key(&f.delegatee_id, &f.kgc2_pp, &t, &mut f.rng)
            .unwrap();
        let transformed = re_encrypt_hybrid(&ct, &rk).unwrap();
        // The body is forwarded untouched.
        assert_eq!(transformed.body, ct.body);
        assert_eq!(
            f.delegatee
                .decrypt_bytes(&transformed, b"record-42")
                .unwrap(),
            record
        );
    }

    #[test]
    fn wrong_associated_data_is_rejected() {
        let mut f = fixture();
        let t = TypeTag::new("t");
        let ct = f
            .delegator
            .encrypt_bytes(b"payload", b"aad-1", &t, &mut f.rng);
        assert!(matches!(
            f.delegator.decrypt_bytes(&ct, b"aad-2"),
            Err(PreError::Symmetric(_))
        ));
    }

    #[test]
    fn tampered_body_is_rejected_after_reencryption() {
        let mut f = fixture();
        let t = TypeTag::new("t");
        let ct = f
            .delegator
            .encrypt_bytes(b"sensitive payload", b"", &t, &mut f.rng);
        let rk = f
            .delegator
            .make_reencryption_key(&f.delegatee_id, &f.kgc2_pp, &t, &mut f.rng)
            .unwrap();
        let mut transformed = re_encrypt_hybrid(&ct, &rk).unwrap();
        transformed.body.body[0] ^= 1;
        assert!(matches!(
            f.delegatee.decrypt_bytes(&transformed, b""),
            Err(PreError::Symmetric(_))
        ));
    }

    #[test]
    fn header_reencryption_respects_types() {
        let mut f = fixture();
        let ct = f
            .delegator
            .encrypt_bytes(b"diet diary", b"", &TypeTag::new("diet"), &mut f.rng);
        let rk = f
            .delegator
            .make_reencryption_key(
                &f.delegatee_id,
                &f.kgc2_pp,
                &TypeTag::new("illness-history"),
                &mut f.rng,
            )
            .unwrap();
        assert!(matches!(
            re_encrypt_hybrid(&ct, &rk),
            Err(PreError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn hybrid_serialization_round_trips_and_rejects_corruption() {
        let mut f = fixture();
        let params = f.delegator.params().clone();
        let t = TypeTag::new("lab-results");
        for len in [0usize, 1, 257, 4096] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let ct = f.delegator.encrypt_bytes(&payload, b"aad", &t, &mut f.rng);
            let bytes = ct.to_wire_bytes();
            assert_eq!(bytes.len(), ct.serialized_len(), "len {len}");
            let parsed =
                HybridCiphertext::from_wire_bytes(&bytes, &DecodeCtx::from(&params)).unwrap();
            assert_eq!(parsed, ct, "len {len}");
            assert_eq!(parsed.to_wire_bytes(), bytes, "len {len}");
            // The parsed copy still decrypts.
            assert_eq!(f.delegator.decrypt_bytes(&parsed, b"aad").unwrap(), payload);
        }

        let ct = f.delegator.encrypt_bytes(b"payload", b"", &t, &mut f.rng);
        let bytes = ct.to_wire_bytes();
        // Every strict prefix is rejected: the header is length-prefixed and
        // the AEAD body's internal length field must consume the rest exactly.
        for cut in 0..bytes.len() {
            assert!(
                HybridCiphertext::from_wire_bytes(&bytes[..cut], &DecodeCtx::from(&params))
                    .is_err(),
                "cut {cut}"
            );
        }
        // Extension is rejected too.
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(HybridCiphertext::from_wire_bytes(&longer, &DecodeCtx::from(&params)).is_err());
        // A corrupted header-length field (just after the envelope byte)
        // never panics, whatever it claims.
        for claimed in [0u32, 1, (bytes.len() as u32) - 5, u32::MAX] {
            let mut corrupted = bytes.clone();
            corrupted[1..5].copy_from_slice(&claimed.to_be_bytes());
            assert!(
                HybridCiphertext::from_wire_bytes(&corrupted, &DecodeCtx::from(&params)).is_err()
            );
        }
    }

    #[test]
    fn hybrid_batch_is_bit_identical_to_per_item() {
        let mut f = fixture();
        let t = TypeTag::new("lab-results");
        let rk = f
            .delegator
            .make_reencryption_key(&f.delegatee_id, &f.kgc2_pp, &t, &mut f.rng)
            .unwrap();
        let cts: Vec<HybridCiphertext> = (0..4)
            .map(|i| {
                f.delegator
                    .encrypt_bytes(&[i as u8; 64], b"aad", &t, &mut f.rng)
            })
            .collect();
        let batch = re_encrypt_hybrid_batch(&cts, &rk).unwrap();
        assert_eq!(batch.len(), cts.len());
        for (got, ct) in batch.iter().zip(&cts) {
            let single = re_encrypt_hybrid(ct, &rk).unwrap();
            assert_eq!(got.to_wire_bytes(), single.to_wire_bytes());
        }
    }

    #[test]
    fn proxy_work_is_independent_of_payload_size() {
        // Structural check: the re-encrypted header equals what re-encrypting
        // the header alone produces, and the body is bit-identical, i.e. the
        // proxy never processes the payload.
        let mut f = fixture();
        let t = TypeTag::new("imaging");
        let big_payload = vec![0x5Au8; 1 << 16];
        let ct = f.delegator.encrypt_bytes(&big_payload, b"", &t, &mut f.rng);
        let rk = f
            .delegator
            .make_reencryption_key(&f.delegatee_id, &f.kgc2_pp, &t, &mut f.rng)
            .unwrap();
        let transformed = re_encrypt_hybrid(&ct, &rk).unwrap();
        assert_eq!(transformed.body, ct.body);
        assert_eq!(transformed.header, re_encrypt(&ct.header, &rk).unwrap());
        assert!(ct.serialized_len() > (1 << 16));
    }
}
