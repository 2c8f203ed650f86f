//! Engine-vs-sequential oracle: the multi-threaded `ReEncryptEngine` must be
//! a pure speedup over one `hybrid::re_encrypt_hybrid_batch` call of
//! `tibpre-core` — same ordering, same first-error, byte-identical
//! ciphertexts — for every worker count and batch shape.
//!
//! Uses the cached toy parameter set; each case converts a whole batch twice
//! (sequentially and through the engine), so the case counts are modest.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tibpre_core::{hybrid, Delegatee, Delegator, PreError, ReEncryptionKey, TypeTag};
use tibpre_engine::ReEncryptEngine;
use tibpre_ibe::{Identity, Kgc};
use tibpre_pairing::PairingParams;

struct World {
    delegator: Delegator,
    delegatee: Delegatee,
    rekey: ReEncryptionKey,
    type_tag: TypeTag,
    rng: StdRng,
}

fn world(seed: u64) -> World {
    let params = PairingParams::insecure_toy();
    let mut rng = StdRng::seed_from_u64(seed);
    let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
    let kgc2 = Kgc::setup(params, "kgc2", &mut rng);
    let alice = Identity::new("alice");
    let bob = Identity::new("bob");
    let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
    let type_tag = TypeTag::new("illness-history");
    let rekey = delegator
        .make_reencryption_key(&bob, kgc2.public_params(), &type_tag, &mut rng)
        .expect("shared parameters");
    World {
        delegator,
        delegatee: Delegatee::new(kgc2.extract(&bob)),
        rekey,
        type_tag,
        rng,
    }
}

/// The env-sized engine (what a deployment and the CI multi-worker smoke,
/// which sets `TIBPRE_WORKERS=2`, actually run) matches the sequential path
/// byte for byte — this is the one test in the suite whose pool size comes
/// from `ReEncryptEngine::from_env()` rather than an explicit count.
#[test]
fn engine_from_env_matches_sequential() {
    let mut w = world(0xEAF);
    let payloads: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 48]).collect();
    let batch: Vec<_> = payloads
        .iter()
        .map(|p| {
            w.delegator
                .encrypt_bytes(p, b"env", &w.type_tag, &mut w.rng)
        })
        .collect();
    let engine = ReEncryptEngine::from_env();
    let sequential = hybrid::re_encrypt_hybrid_batch(&batch, &w.rekey).unwrap();
    let parallel = engine.re_encrypt_hybrid_batch(&batch, &w.rekey).unwrap();
    assert_eq!(parallel, sequential, "workers={}", engine.workers());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Hybrid batches: for every worker count the engine output equals the
    /// sequential call's, and the results decrypt to the original payloads.
    #[test]
    fn engine_hybrid_batch_is_bit_identical(seed in any::<u64>(), len in 0usize..16, workers in 2usize..5) {
        let mut w = world(seed);
        let payloads: Vec<Vec<u8>> = (0..len).map(|i| vec![i as u8; 32 + i]).collect();
        let batch: Vec<_> = payloads
            .iter()
            .map(|p| w.delegator.encrypt_bytes(p, b"oracle", &w.type_tag, &mut w.rng))
            .collect();

        let sequential = hybrid::re_encrypt_hybrid_batch(&batch, &w.rekey).unwrap();
        let engine = ReEncryptEngine::new(workers);
        let parallel = engine.re_encrypt_hybrid_batch(&batch, &w.rekey).unwrap();
        prop_assert_eq!(&parallel, &sequential);
        for (payload, ct) in payloads.iter().zip(&parallel) {
            prop_assert_eq!(&w.delegatee.decrypt_bytes(ct, b"oracle").unwrap(), payload);
        }
    }

    /// A batch with foreign-type ciphertexts fails atomically with the error
    /// of the lowest offending index (its type, not the last item's; no
    /// partial output) at every worker count — the engine preserves the
    /// sequential first-error semantics.
    #[test]
    fn engine_error_parity_on_mixed_batches(seed in any::<u64>(), len in 2usize..12, bad_at in 0usize..12, workers in 2usize..5) {
        let mut w = world(seed);
        let bad_at = bad_at % len;
        let batch: Vec<_> = (0..len)
            .map(|i| {
                let tag = if i == bad_at {
                    TypeTag::new("diet")
                } else if i == len - 1 {
                    TypeTag::new("imaging")
                } else {
                    w.type_tag.clone()
                };
                w.delegator.encrypt_bytes(b"m", b"oracle", &tag, &mut w.rng)
            })
            .collect();

        let sequential = hybrid::re_encrypt_hybrid_batch(&batch, &w.rekey).unwrap_err();
        // `bad_at` is never above the trailing foreign item.
        prop_assert!(matches!(
            &sequential,
            PreError::TypeMismatch { ciphertext_type, .. } if ciphertext_type == "diet"
        ));
        let engine = ReEncryptEngine::new(workers);
        let parallel = engine.re_encrypt_hybrid_batch(&batch, &w.rekey).unwrap_err();
        prop_assert_eq!(parallel, sequential);
    }
}
