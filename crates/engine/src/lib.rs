//! # tibpre-engine — the scoped worker pool
//!
//! Independent `Preenc` conversions share no mutable state — after a
//! re-encryption key's one-time pairing preparation, each ciphertext
//! conversion only *reads* the key's stored line coefficients — so a burst
//! of conversions is embarrassingly parallel.
//! [`ReEncryptEngine::re_encrypt_hybrid_batch`] fans
//! [`tibpre_core::hybrid::re_encrypt_hybrid_batch`] out over a pool of
//! `std::thread` workers, each claiming the next chunk of the run from one
//! shared cursor whenever it finishes one.
//!
//! A proxy node holds none: it converts on each connection's thread, and its
//! connections are its parallelism.  The callers are the store's shard
//! recovery ([`ReEncryptEngine::try_par_map_indices`]) and the benchmark's
//! `engine.*` rows.
//!
//! Three properties of the core function are preserved exactly, and the
//! oracle tests assert them:
//!
//! * **Ordering** — output `i` is the conversion of input `i`, always.
//! * **First-error semantics** — a failing run returns the error of the
//!   lowest input index, with no partial output.
//! * **Bit-identical output** — every chunk is converted by the core
//!   function itself, so results are byte-for-byte equal to one call of it
//!   over the whole run.
//!
//! An engine with one worker (the [`ReEncryptEngine::sequential`]
//! constructor, or `TIBPRE_WORKERS=1`) never spawns a thread: it is that one
//! call.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod pool;

pub use pool::ReEncryptEngine;

use tibpre_core::hybrid::{self, HybridCiphertext, ReEncryptedHybridCiphertext};
use tibpre_core::{ReEncryptionKey, Result};

impl ReEncryptEngine {
    /// Converts the KEM headers of many hybrid ciphertexts with one key,
    /// fanned out across the engine's workers; the AEAD bodies are forwarded
    /// untouched.
    ///
    /// Semantics are identical to
    /// [`tibpre_core::hybrid::re_encrypt_hybrid_batch`] (atomic up-front
    /// validation, input ordering, bit-identical output).  The key's
    /// Miller-loop tabulation is forced *before* the fan-out, so the workers
    /// only ever read the shared table (`ReEncryptionKey`'s cache is an
    /// `Arc<OnceLock>` — read-only once initialised).
    pub fn re_encrypt_hybrid_batch<'a, I>(
        &self,
        ciphertexts: I,
        rekey: &ReEncryptionKey,
    ) -> Result<Vec<ReEncryptedHybridCiphertext>>
    where
        I: IntoIterator<Item = &'a HybridCiphertext>,
    {
        let ciphertexts: Vec<&HybridCiphertext> = ciphertexts.into_iter().collect();
        // A run the key refuses takes the single call too: it fails there
        // before any pairing work, with the lowest offending index's error.
        if self.workers() <= 1
            || ciphertexts.len() <= 1
            || ciphertexts
                .iter()
                .any(|ct| ct.type_tag() != rekey.type_tag())
        {
            return hybrid::re_encrypt_hybrid_batch(ciphertexts, rekey);
        }
        // One-time table build, done once on this thread rather than raced by
        // every worker on first use.
        let _ = rekey.prepared_rk_point();
        // Each chunk is converted in one call, amortising one
        // final-exponentiation easy-part inversion per chunk rather than
        // paying one GCD per ciphertext.
        Ok(self.par_map_chunks(ciphertexts.len(), |range| {
            hybrid::re_encrypt_hybrid_batch(ciphertexts[range].iter().copied(), rekey)
                .expect("every header's type was checked against the key above")
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tibpre_core::{Delegatee, Delegator, TypeTag};
    use tibpre_ibe::{Identity, Kgc};
    use tibpre_pairing::PairingParams;
    use tibpre_wire::WireEncode;

    struct Fixture {
        delegator: Delegator,
        delegatee: Delegatee,
        rekey: ReEncryptionKey,
        rng: StdRng,
    }

    fn fixture(type_tag: &TypeTag) -> Fixture {
        let mut rng = StdRng::seed_from_u64(0xE9);
        let params = PairingParams::insecure_toy();
        let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let kgc2 = Kgc::setup(params, "kgc2", &mut rng);
        let alice = Identity::new("alice");
        let bob = Identity::new("bob");
        let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
        let rekey = delegator
            .make_reencryption_key(&bob, kgc2.public_params(), type_tag, &mut rng)
            .unwrap();
        Fixture {
            delegator,
            delegatee: Delegatee::new(kgc2.extract(&bob)),
            rekey,
            rng,
        }
    }

    #[test]
    fn engine_matches_sequential_batch_bitwise() {
        let t = TypeTag::new("illness-history");
        let mut f = fixture(&t);
        let payloads: Vec<Vec<u8>> = (0..13u8).map(|i| vec![i; 40]).collect();
        let cts: Vec<_> = payloads
            .iter()
            .map(|p| f.delegator.encrypt_bytes(p, b"aad", &t, &mut f.rng))
            .collect();

        let sequential = hybrid::re_encrypt_hybrid_batch(&cts, &f.rekey).unwrap();
        for workers in [1, 2, 3, 4] {
            let engine = ReEncryptEngine::new(workers);
            let parallel = engine.re_encrypt_hybrid_batch(&cts, &f.rekey).unwrap();
            assert_eq!(parallel.len(), sequential.len());
            for (p, s) in parallel.iter().zip(&sequential) {
                assert_eq!(p.to_wire_bytes(), s.to_wire_bytes(), "workers={workers}");
            }
        }
    }

    #[test]
    fn engine_hybrid_matches_sequential_and_decrypts() {
        let t = TypeTag::new("emergency");
        let mut f = fixture(&t);
        let payloads: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; 64 + i as usize]).collect();
        let cts: Vec<_> = payloads
            .iter()
            .map(|p| f.delegator.encrypt_bytes(p, b"aad", &t, &mut f.rng))
            .collect();

        let sequential = hybrid::re_encrypt_hybrid_batch(&cts, &f.rekey).unwrap();
        let engine = ReEncryptEngine::new(4);
        let parallel = engine.re_encrypt_hybrid_batch(&cts, &f.rekey).unwrap();
        assert_eq!(parallel, sequential);
        for (payload, ct) in payloads.iter().zip(&parallel) {
            assert_eq!(&f.delegatee.decrypt_bytes(ct, b"aad").unwrap(), payload);
        }
    }

    #[test]
    fn mixed_batch_fails_atomically_with_first_error() {
        let t = TypeTag::new("diet");
        let mut f = fixture(&t);
        let good = f.delegator.encrypt_bytes(b"m", b"aad", &t, &mut f.rng);
        let bad = f
            .delegator
            .encrypt_bytes(b"m", b"aad", &TypeTag::new("imaging"), &mut f.rng);
        let batch = vec![good.clone(), bad, good];
        let engine = ReEncryptEngine::new(4);
        let sequential_err = hybrid::re_encrypt_hybrid_batch(&batch, &f.rekey).unwrap_err();
        let parallel_err = engine
            .re_encrypt_hybrid_batch(&batch, &f.rekey)
            .unwrap_err();
        assert_eq!(parallel_err, sequential_err);
    }

    #[test]
    fn empty_batch_is_empty() {
        let t = TypeTag::new("t");
        let f = fixture(&t);
        let engine = ReEncryptEngine::new(4);
        assert!(engine
            .re_encrypt_hybrid_batch(std::iter::empty(), &f.rekey)
            .unwrap()
            .is_empty());
    }
}
