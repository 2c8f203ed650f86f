//! Property-based serialization round-trips for the three ciphertext types
//! (`IbeCiphertext`, `TypedCiphertext`, `ReEncryptedCiphertext`), including
//! rejection of truncated and length-field-corrupted encodings.
//!
//! Uses the cached toy parameter set; every case performs a handful of
//! pairings, so the case counts are modest.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tibpre_core::{proxy, Delegator, ReEncryptedCiphertext, TypeTag, TypedCiphertext};
use tibpre_ibe::{bf, bf::IbeCiphertext, Identity, Kgc};
use tibpre_pairing::{DecodeCtx, PairingParams};
use tibpre_wire::{WireDecode, WireEncode};

struct World {
    params: Arc<PairingParams>,
    delegator: Delegator,
    kgc2: Kgc,
    rng: StdRng,
}

fn world(seed: u64) -> World {
    let params = PairingParams::insecure_toy();
    let mut rng = StdRng::seed_from_u64(seed);
    let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
    let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
    let delegator = Delegator::new(
        kgc1.public_params().clone(),
        kgc1.extract(&Identity::new("alice")),
    );
    World {
        params,
        delegator,
        kgc2,
        rng,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `IbeCiphertext` round-trips; every strict prefix and extension is
    /// rejected (the encoding is fixed-length).
    #[test]
    fn ibe_ciphertext_round_trip(seed in any::<u64>(), id in "[a-z0-9@.]{1,32}", cut in 0usize..128) {
        let mut w = world(seed);
        let m = w.params.random_gt(&mut w.rng);
        let ct = bf::encrypt_gt(w.kgc2.public_params(), &Identity::new(&id), &m, &mut w.rng);
        let bytes = ct.to_wire_bytes();
        prop_assert_eq!(bytes.len(), IbeCiphertext::serialized_len(&w.params));
        let parsed = IbeCiphertext::from_wire_bytes(&bytes, &DecodeCtx::from(&w.params)).unwrap();
        prop_assert_eq!(&parsed, &ct);
        prop_assert_eq!(parsed.to_wire_bytes(), bytes.clone());
        // Truncation at an arbitrary point is rejected.
        let cut = cut % bytes.len();
        prop_assert!(IbeCiphertext::from_wire_bytes(&bytes[..cut], &DecodeCtx::from(&w.params)).is_err());
        // Extension is rejected.
        let mut longer = bytes;
        longer.push(0);
        prop_assert!(IbeCiphertext::from_wire_bytes(&longer, &DecodeCtx::from(&w.params)).is_err());
    }

    /// `TypedCiphertext` round-trips for arbitrary type tags; truncations and
    /// corrupted type-length fields are rejected.
    #[test]
    fn typed_ciphertext_round_trip(seed in any::<u64>(), label in ".{0,24}", cut in 0usize..4096) {
        let mut w = world(seed);
        let t = TypeTag::new(&label);
        let m = w.params.random_gt(&mut w.rng);
        let ct = w.delegator.encrypt_typed(&m, &t, &mut w.rng);
        let bytes = ct.to_wire_bytes();
        prop_assert_eq!(
            bytes.len(),
            TypedCiphertext::serialized_len(&w.params, t.as_bytes().len())
        );
        let parsed = TypedCiphertext::from_wire_bytes(&bytes, &DecodeCtx::from(&w.params)).unwrap();
        prop_assert_eq!(&parsed, &ct);
        prop_assert_eq!(parsed.to_wire_bytes(), bytes.clone());
        // Any strict prefix must fail: the trailing type tag is
        // length-prefixed, so the total length is always checked.
        let cut = cut % bytes.len();
        prop_assert!(TypedCiphertext::from_wire_bytes(&bytes[..cut], &DecodeCtx::from(&w.params)).is_err());
        // Corrupting the type-length field (without changing the buffer
        // length) must fail, for both larger and smaller claimed lengths.
        // The type tag is the trailing field, so its length prefix sits
        // exactly 4 + type_len bytes before the end.
        let len_offset = bytes.len() - 4 - t.as_bytes().len();
        let claimed = t.as_bytes().len() as u32;
        for corrupted_len in [claimed.wrapping_add(1), claimed.wrapping_sub(1), u32::MAX] {
            let mut corrupted = bytes.clone();
            corrupted[len_offset..len_offset + 4].copy_from_slice(&corrupted_len.to_be_bytes());
            prop_assert!(TypedCiphertext::from_wire_bytes(&corrupted, &DecodeCtx::from(&w.params)).is_err());
        }
    }

    /// `ReEncryptedCiphertext` round-trips; truncations and corrupted
    /// length fields (type tag and delegatee) are rejected.
    #[test]
    fn reencrypted_ciphertext_round_trip(
        seed in any::<u64>(),
        label in "[a-z-]{1,16}",
        delegatee in "[a-z0-9@.]{1,24}",
        cut in 0usize..8192,
    ) {
        let mut w = world(seed);
        let t = TypeTag::new(&label);
        let bob = Identity::new(&delegatee);
        let m = w.params.random_gt(&mut w.rng);
        let ct = w.delegator.encrypt_typed(&m, &t, &mut w.rng);
        let rekey = w
            .delegator
            .make_reencryption_key(&bob, w.kgc2.public_params(), &t, &mut w.rng)
            .unwrap();
        let transformed = proxy::re_encrypt(&ct, &rekey).unwrap();
        let bytes = transformed.to_wire_bytes();
        let parsed = ReEncryptedCiphertext::from_wire_bytes(&bytes, &DecodeCtx::from(&w.params)).unwrap();
        prop_assert_eq!(&parsed, &transformed);
        prop_assert_eq!(parsed.to_wire_bytes(), bytes.clone());
        // Any strict prefix must fail.
        let cut = cut % bytes.len();
        prop_assert!(ReEncryptedCiphertext::from_wire_bytes(&bytes[..cut], &DecodeCtx::from(&w.params)).is_err());
        // Corrupt the first length field (the type tag's): parsing must not
        // succeed, because the trailing-bytes check catches any shift.  The
        // two string fields trail the encoding, so locate them from the end.
        let second_offset = bytes.len() - 4 - bob.as_bytes().len();
        let len_offset = second_offset - 4 - t.as_bytes().len();
        let claimed = t.as_bytes().len() as u32;
        for corrupted_len in [claimed + 1, u32::MAX] {
            let mut corrupted = bytes.clone();
            corrupted[len_offset..len_offset + 4].copy_from_slice(&corrupted_len.to_be_bytes());
            prop_assert!(ReEncryptedCiphertext::from_wire_bytes(&corrupted, &DecodeCtx::from(&w.params)).is_err());
        }
        // Corrupt the second length field (the delegatee's) the same way.
        let claimed = bob.as_bytes().len() as u32;
        for corrupted_len in [claimed + 1, u32::MAX] {
            let mut corrupted = bytes.clone();
            corrupted[second_offset..second_offset + 4]
                .copy_from_slice(&corrupted_len.to_be_bytes());
            prop_assert!(ReEncryptedCiphertext::from_wire_bytes(&corrupted, &DecodeCtx::from(&w.params)).is_err());
        }
    }
}
