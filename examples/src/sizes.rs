//! Key and ciphertext size accounting (communication cost, experiment E5).
//!
//! The paper never tabulates sizes, but "one key pair for the delegator" is a
//! storage claim, so the `paper_tables` binary reports concrete byte counts
//! per security level; this module holds the arithmetic, and its tests pin
//! it to the real serializations.
//!
//! Since the `tibpre-wire` refactor every composite object is transmitted
//! under a one-byte versioned envelope, and sizes are reported **per wire
//! version**: `v0` is the original uncompressed layout, `v1` (the default)
//! sends each `G1` point as `0x04 ‖ x ‖ y`, as `v0` does, and each `Gt`
//! element as a tag and its one torus coordinate, against `v0`'s two raw
//! coordinates — so no `v1` decode solves a square root, and an object
//! saves `|p| − 1` bytes per `Gt` element.  Every figure is the length of a
//! real object's encoding, so the table cannot drift from the codec.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tibpre_core::{
    proxy, Delegator, HybridCiphertext, ReEncryptedCiphertext, ReEncryptionKey, TypeTag,
    TypedCiphertext,
};
use tibpre_ibe::{bf, IbeCiphertext, Identity, Kgc};
use tibpre_pairing::{G1Affine, Gt, PairingParams, SecurityLevel};
use tibpre_wire::{encode_bare, WireEncode, WireVersion};

/// Byte sizes of the scheme's transmitted objects under one wire version.
///
/// Composite objects (ciphertexts, keys) include the one-byte envelope;
/// group-element primitives are reported bare.  Variable-length identity
/// and type strings are excluded, as in the paper's accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSizes {
    /// The wire version these sizes apply to.
    pub version: WireVersion,
    /// Serialized size of a non-identity curve point.
    pub g1_element: usize,
    /// Serialized size of a target-group (subgroup) element.
    pub gt_element: usize,
    /// A typed ciphertext (excluding the variable-length type tag).
    pub typed_ciphertext: usize,
    /// A plain Boneh–Franklin ciphertext (the delegatee-domain `Encrypt2`).
    pub ibe_ciphertext: usize,
    /// A re-encryption key (excluding identity / type strings).
    pub reencryption_key: usize,
    /// A re-encrypted ciphertext (excluding identity / type strings).
    pub reencrypted_ciphertext: usize,
    /// Fixed overhead a hybrid ciphertext adds on top of the payload
    /// (envelope + header length prefix + KEM header + AEAD
    /// nonce/length/tag).
    pub hybrid_overhead: usize,
}

/// One of each sized object, with empty identity and type strings so that
/// only their length prefixes count.
struct Samples {
    private_key: Vec<u8>,
    g1: G1Affine,
    gt: Gt,
    typed: TypedCiphertext,
    ibe: IbeCiphertext,
    rekey: ReEncryptionKey,
    reencrypted: ReEncryptedCiphertext,
    hybrid: HybridCiphertext,
}

impl Samples {
    fn new(params: &Arc<PairingParams>) -> Self {
        let mut rng = StdRng::seed_from_u64(5);
        let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
        let nobody = Identity::from_bytes(Vec::new());
        let private_key = kgc1.extract(&nobody);
        let delegator = Delegator::new(kgc1.public_params().clone(), private_key.clone());
        let t = TypeTag::from_bytes(Vec::new());
        let m = params.random_gt(&mut rng);
        let typed = delegator.encrypt_typed(&m, &t, &mut rng);
        let rekey = delegator
            .make_reencryption_key(&nobody, kgc2.public_params(), &t, &mut rng)
            .expect("both domains share the parameters");
        Samples {
            private_key: private_key.to_bytes(),
            g1: params.random_g1(&mut rng),
            gt: m.clone(),
            ibe: bf::encrypt_gt(kgc2.public_params(), &nobody, &m, &mut rng),
            reencrypted: proxy::re_encrypt(&typed, &rekey).expect("the key's type"),
            typed,
            rekey,
            hybrid: delegator.encrypt_bytes(&[], b"", &t, &mut rng),
        }
    }
}

impl WireSizes {
    /// Measures the samples under one wire version.
    fn measure(s: &Samples, version: WireVersion) -> Self {
        WireSizes {
            version,
            g1_element: encode_bare(&s.g1, version).len(),
            gt_element: encode_bare(&s.gt, version).len(),
            typed_ciphertext: s.typed.to_wire_bytes_versioned(version).len(),
            ibe_ciphertext: s.ibe.to_wire_bytes_versioned(version).len(),
            reencryption_key: s.rekey.to_wire_bytes_versioned(version).len(),
            reencrypted_ciphertext: s.reencrypted.to_wire_bytes_versioned(version).len(),
            hybrid_overhead: s.hybrid.to_wire_bytes_versioned(version).len(),
        }
    }
}

/// Byte sizes of every object the scheme transmits or stores, for one
/// parameter set, under both supported wire versions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeReport {
    /// Security level of the parameter set.
    pub level: SecurityLevel,
    /// Serialized size of a scalar (version-independent).
    pub scalar: usize,
    /// The delegator / delegatee private key in its canonical
    /// (hash-preimage, uncompressed) form — version-independent by design;
    /// see `IbePrivateKey::to_bytes`.
    pub private_key: usize,
    /// Sizes under the legacy uncompressed layout.
    pub v0: WireSizes,
    /// Sizes under the default layout.
    pub v1: WireSizes,
}

impl SizeReport {
    /// Computes the report for one parameter set.
    pub fn for_params(params: &Arc<PairingParams>) -> Self {
        let samples = Samples::new(params);
        SizeReport {
            level: params.level(),
            scalar: params.scalar_byte_len(),
            private_key: samples.private_key.len(),
            v0: WireSizes::measure(&samples, WireVersion::V0),
            v1: WireSizes::measure(&samples, WireVersion::V1),
        }
    }

    /// Total key material the TIB-PRE delegator stores to manage `types`
    /// categories: always a single private key.
    pub fn tibpre_delegator_storage(&self, _types: usize) -> usize {
        self.private_key
    }

    /// Total key material the multi-key baseline stores for `types` categories:
    /// one private key per category.
    pub fn multikey_delegator_storage(&self, types: usize) -> usize {
        self.private_key * types
    }
}

impl core::fmt::Display for SizeReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "size report for {}:", self.level.label())?;
        writeln!(f, "  scalar                   {:>6} B", self.scalar)?;
        writeln!(f, "  private key              {:>6} B", self.private_key)?;
        writeln!(f, "                               v0      v1   saving")?;
        let row = |name: &str, a: usize, b: usize| {
            format!(
                "  {name:<24} {a:>6} B {b:>6} B  {:>4.0}%",
                100.0 * (1.0 - b as f64 / a as f64)
            )
        };
        writeln!(
            f,
            "{}",
            row("G element", self.v0.g1_element, self.v1.g1_element)
        )?;
        writeln!(
            f,
            "{}",
            row(
                "G_1 (target) element",
                self.v0.gt_element,
                self.v1.gt_element
            )
        )?;
        writeln!(
            f,
            "{}",
            row(
                "typed ciphertext",
                self.v0.typed_ciphertext,
                self.v1.typed_ciphertext
            )
        )?;
        writeln!(
            f,
            "{}",
            row(
                "IBE ciphertext",
                self.v0.ibe_ciphertext,
                self.v1.ibe_ciphertext
            )
        )?;
        writeln!(
            f,
            "{}",
            row(
                "re-encryption key",
                self.v0.reencryption_key,
                self.v1.reencryption_key
            )
        )?;
        writeln!(
            f,
            "{}",
            row(
                "re-encrypted ciphertext",
                self.v0.reencrypted_ciphertext,
                self.v1.reencrypted_ciphertext
            )
        )?;
        write!(
            f,
            "{}",
            row(
                "hybrid overhead",
                self.v0.hybrid_overhead,
                self.v1.hybrid_overhead
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_matches_actual_serializations() {
        let mut rng = StdRng::seed_from_u64(111);
        let params = PairingParams::insecure_toy();
        let report = SizeReport::for_params(&params);

        let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
        let alice = Identity::new("a");
        let bob = Identity::new("b");
        let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));

        assert_eq!(report.private_key, kgc1.extract(&alice).to_bytes().len());

        let t = TypeTag::from_bytes(Vec::new());
        let m = params.random_gt(&mut rng);
        let ct = delegator.encrypt_typed(&m, &t, &mut rng);
        // Both versions of the typed ciphertext match the report exactly.
        assert_eq!(
            report.v0.typed_ciphertext,
            ct.to_wire_bytes_versioned(WireVersion::V0).len()
        );
        assert_eq!(
            report.v1.typed_ciphertext,
            ct.to_wire_bytes_versioned(WireVersion::V1).len()
        );
        // The default serialization is v1.
        assert_eq!(report.v1.typed_ciphertext, ct.to_wire_bytes().len());
        assert_eq!(
            report.v1.typed_ciphertext,
            TypedCiphertext::serialized_len(&params, 0)
        );
        assert_eq!(
            report.v1.ibe_ciphertext,
            IbeCiphertext::serialized_len(&params)
        );

        let rk = delegator
            .make_reencryption_key(&bob, kgc2.public_params(), &t, &mut rng)
            .unwrap();
        // The report excludes the variable-length identity strings ("a", "b").
        let strings = alice.as_bytes().len() + bob.as_bytes().len();
        assert_eq!(
            report.v0.reencryption_key + strings,
            rk.to_wire_bytes_versioned(WireVersion::V0).len()
        );
        assert_eq!(
            report.v1.reencryption_key + strings,
            rk.to_wire_bytes_versioned(WireVersion::V1).len()
        );
        assert_eq!(
            report.v1.reencryption_key + strings,
            rk.to_wire_bytes().len()
        );

        // Hybrid overhead: serialized size minus payload length.
        let payload = vec![0u8; 257];
        let hybrid = delegator.encrypt_bytes(&payload, b"", &t, &mut rng);
        assert_eq!(
            report.v1.hybrid_overhead,
            hybrid.serialized_len() - payload.len()
        );
    }

    #[test]
    fn v1_compression_meets_the_size_targets() {
        // The size targets are exact: every v1 element decodes without a
        // square root, so a `G1` point carries both coordinates, as under
        // v0, and a torus `Gt` element its tag and one torus coordinate
        // against v0's two raw coordinates.
        for level in [SecurityLevel::Toy, SecurityLevel::Low80] {
            let params = PairingParams::cached(level);
            let report = SizeReport::for_params(&params);
            let flen = params.fp_ctx().byte_len();
            assert_eq!(report.v0.g1_element, 1 + 2 * flen, "{level:?}");
            assert_eq!(report.v1.g1_element, 1 + 2 * flen, "{level:?}");
            assert_eq!(report.v0.gt_element, 2 * flen, "{level:?}");
            assert_eq!(report.v1.gt_element, 1 + flen, "{level:?}");
        }
        let level = SecurityLevel::Toy;
        let params = PairingParams::cached(level);
        let report = SizeReport::for_params(&params);
        let g1_saved = report.v0.g1_element - report.v1.g1_element;
        let gt_saved = report.v0.gt_element - report.v1.gt_element;
        // Everything else in those encodings (AEAD body, nonces, strings,
        // length prefixes) is version-independent: the whole-object delta
        // of real serializations equals the group-element delta exactly.
        let mut rng = StdRng::seed_from_u64(112);
        let kgc1 = Kgc::setup(params.clone(), "kgc1", &mut rng);
        let kgc2 = Kgc::setup(params.clone(), "kgc2", &mut rng);
        let alice = Identity::new("alice");
        let delegator = Delegator::new(kgc1.public_params().clone(), kgc1.extract(&alice));
        let t = TypeTag::new("illness-history");
        let hybrid = delegator.encrypt_bytes(&[0x5A; 1024], b"aad", &t, &mut rng);
        let rekey = delegator
            .make_reencryption_key(&Identity::new("bob"), kgc2.public_params(), &t, &mut rng)
            .unwrap();
        let delta = |v0: Vec<u8>, v1: Vec<u8>| v0.len() - v1.len();
        assert_eq!(
            delta(
                hybrid.to_wire_bytes_versioned(WireVersion::V0),
                hybrid.to_wire_bytes_versioned(WireVersion::V1)
            ),
            g1_saved + gt_saved
        );
        assert_eq!(
            delta(
                rekey.to_wire_bytes_versioned(WireVersion::V0),
                rekey.to_wire_bytes_versioned(WireVersion::V1)
            ),
            2 * g1_saved + gt_saved
        );
        // Whole-object savings for the objects the store and proxy ship.
        assert!(report.v1.typed_ciphertext < report.v0.typed_ciphertext);
        assert!(report.v1.reencryption_key < report.v0.reencryption_key);
        assert!(report.v1.reencrypted_ciphertext < report.v0.reencrypted_ciphertext);
        assert!(report.v1.hybrid_overhead < report.v0.hybrid_overhead);
    }

    #[test]
    fn storage_comparison_shape() {
        let params = PairingParams::insecure_toy();
        let report = SizeReport::for_params(&params);
        for types in [1usize, 2, 8, 32] {
            assert_eq!(report.tibpre_delegator_storage(types), report.private_key);
            assert_eq!(
                report.multikey_delegator_storage(types),
                report.private_key * types
            );
        }
        // The whole point: the baseline grows linearly, ours does not.
        assert!(report.multikey_delegator_storage(32) > report.tibpre_delegator_storage(32));
    }

    #[test]
    fn display_is_complete() {
        let report = SizeReport::for_params(&PairingParams::insecure_toy());
        let s = report.to_string();
        for needle in [
            "private key",
            "re-encryption key",
            "hybrid overhead",
            "v0",
            "v1",
        ] {
            assert!(s.contains(needle), "missing {needle}");
        }
    }
}
