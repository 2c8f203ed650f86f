//! Property-based round-trips for **every** wire type, driven through the
//! `WireEncode`/`WireDecode` traits — the single codec path the whole
//! workspace now serializes with.
//!
//! For each type and each envelope version the suite checks:
//!
//! * encode → decode round-trips to an equal value, and re-encoding is
//!   byte-identical (canonical encodings),
//! * truncation at a random offset is rejected, never a panic,
//! * a random single-bit flip is rejected or decodes to a *different*
//!   value, never a panic and never a silent collision with the original,
//! * a trailing byte is rejected (every decoder checks full consumption),
//! * an unknown envelope version byte is rejected with
//!   `DecodeErrorKind::UnknownVersion`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;
use std::sync::Arc;
use tibpre_core::{hybrid, proxy, Delegator, TypeTag};
use tibpre_ibe::{bf, Identity, Kgc};
use tibpre_pairing::{DecodeCtx, Fp2, PairingParams};
use tibpre_phr::audit::AuditEvent;
use tibpre_phr::category::Category;
use tibpre_phr::durable::{ProxyWalOp, WalOp};
use tibpre_phr::record::RecordId;
use tibpre_phr::store::StoredRecord;
use tibpre_wire::{DecodeError, DecodeErrorKind, WireDecode, WireEncode, WireVersion, Writer};

struct World {
    params: Arc<PairingParams>,
    ctx: DecodeCtx,
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
        ctx: DecodeCtx::from(&params),
        params,
        delegator,
        kgc2,
        rng,
    }
}

/// The shared property battery, run under both envelope versions.
fn check_wire_type<T>(value: &T, ctx: &T::Ctx, cut_seed: usize, flip_seed: usize)
where
    T: WireEncode + WireDecode + PartialEq + Debug,
{
    for version in [WireVersion::V0, WireVersion::V1] {
        let bytes = value.to_wire_bytes_versioned(version);
        assert_eq!(bytes[0], version.tag());

        // Round-trip, and canonical re-encoding.
        let decoded = T::from_wire_bytes(&bytes, ctx)
            .unwrap_or_else(|e| panic!("{version:?} round-trip failed: {e}"));
        assert!(
            &decoded == value,
            "{version:?} round-trip changed the value"
        );
        assert_eq!(
            decoded.to_wire_bytes_versioned(version),
            bytes,
            "{version:?} re-encoding is not canonical"
        );

        // Truncation at any point is an error, never a panic.
        let cut = cut_seed % bytes.len();
        assert!(
            T::from_wire_bytes(&bytes[..cut], ctx).is_err(),
            "{version:?} accepted a truncation at {cut}"
        );

        // A single-bit flip in the body is rejected or yields a different
        // value.  (Byte 0 is excluded: flipping the envelope byte between
        // two *valid* version tags legitimately preserves the value for
        // types whose body is version-independent.)
        let mut flipped = bytes.clone();
        let at = 1 + flip_seed % (flipped.len() - 1);
        flipped[at] ^= 1 << (flip_seed % 8);
        match T::from_wire_bytes(&flipped, ctx) {
            Err(_) => {}
            Ok(other) => assert!(
                &other != value,
                "{version:?} bit flip at byte {at} was silently ignored"
            ),
        }

        // Trailing bytes are rejected.
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(
            T::from_wire_bytes(&longer, ctx).is_err(),
            "{version:?} accepted trailing bytes"
        );

        // An unknown envelope version is rejected as such.
        let mut wrong = bytes.clone();
        wrong[0] = 0xEE;
        match T::from_wire_bytes(&wrong, ctx) {
            Err(DecodeError {
                kind: DecodeErrorKind::UnknownVersion { tag: 0xEE },
                ..
            }) => {}
            other => panic!("{version:?} wrong-version decode gave {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pairing primitives: `G1Affine`, `Gt`, `Scalar`, `Fp2`.
    #[test]
    fn pairing_primitives(seed in any::<u64>(), cut in 0usize..4096, flip in 0usize..4096) {
        let mut w = world(seed);
        let point = w.params.random_g1(&mut w.rng);
        check_wire_type(&point, w.params.fp_ctx(), cut, flip);
        let gt = w.params.random_gt(&mut w.rng);
        check_wire_type(&gt, w.params.fp_ctx(), cut, flip);
        let scalar = w.params.random_scalar(&mut w.rng);
        check_wire_type(&scalar, w.params.scalar_ctx(), cut, flip);
        let fp2 = Fp2::random(w.params.fp_ctx(), &mut w.rng);
        check_wire_type(&fp2, w.params.fp_ctx(), cut, flip);
        // The G1 identity round-trips too (single-byte encoding).
        let id = w.params.g1_identity();
        check_wire_type(&id, w.params.fp_ctx(), cut, flip);
    }

    /// Scheme objects: typed / IBE / re-encrypted ciphertexts and keys.
    #[test]
    fn scheme_objects(
        seed in any::<u64>(),
        label in "[a-z-]{1,12}",
        cut in 0usize..8192,
        flip in 0usize..8192,
    ) {
        let mut w = world(seed);
        let t = TypeTag::new(&label);
        let bob = Identity::new("bob");
        let m = w.params.random_gt(&mut w.rng);

        let typed = w.delegator.encrypt_typed(&m, &t, &mut w.rng);
        check_wire_type(&typed, &w.ctx, cut, flip);

        let ibe = bf::encrypt_gt(w.kgc2.public_params(), &bob, &m, &mut w.rng);
        check_wire_type(&ibe, &w.ctx, cut, flip);

        let rekey = w
            .delegator
            .make_reencryption_key(&bob, w.kgc2.public_params(), &t, &mut w.rng)
            .unwrap();
        check_wire_type(&rekey, &w.ctx, cut, flip);

        let reencrypted = proxy::re_encrypt(&typed, &rekey).unwrap();
        check_wire_type(&reencrypted, &w.ctx, cut, flip);

        let sk = w.kgc2.extract(&bob);
        check_wire_type(&sk, &w.ctx, cut, flip);
    }

    /// Hybrid objects and the durable formats built on top of them.
    #[test]
    fn hybrid_and_durable_objects(
        seed in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        cut in 0usize..16384,
        flip in 0usize..16384,
    ) {
        let mut w = world(seed);
        let t = TypeTag::new("wire-props");
        let bob = Identity::new("bob");

        let hybrid_ct = w.delegator.encrypt_bytes(&payload, b"aad", &t, &mut w.rng);
        check_wire_type(&hybrid_ct, &w.ctx, cut, flip);

        let rekey = w
            .delegator
            .make_reencryption_key(&bob, w.kgc2.public_params(), &t, &mut w.rng)
            .unwrap();
        let transformed = hybrid::re_encrypt_hybrid(&hybrid_ct, &rekey).unwrap();
        check_wire_type(&transformed, &w.ctx, cut, flip);

        let record = StoredRecord {
            id: RecordId(42),
            patient: Identity::new("alice"),
            category: Category::Custom("genomics".into()),
            title: "exome".into(),
            ciphertext: hybrid_ct,
        };
        let ops = [
            WalOp::Put {
                record: Box::new(record),
                at: 7,
            },
            WalOp::Delete {
                id: RecordId(42),
                at: 8,
            },
            WalOp::Audit {
                event: AuditEvent::DisclosureDenied {
                    id: RecordId(42),
                    requester: Identity::new("eve"),
                    at: 9,
                },
            },
        ];
        for op in &ops {
            check_wire_type(op, &w.ctx, cut, flip);
        }
        let proxy_ops = [
            ProxyWalOp::InstallKey {
                key: Box::new(rekey),
            },
            ProxyWalOp::Audit {
                event: AuditEvent::AccessGranted {
                    patient: Identity::new("alice"),
                    category: Category::Emergency,
                    grantee: Identity::new("doc"),
                    at: 3,
                },
            },
            ProxyWalOp::RevokeKey {
                patient: Identity::new("alice"),
                category: Category::Emergency,
                grantee: Identity::new("doc"),
            },
        ];
        for op in &proxy_ops {
            check_wire_type(op, &w.ctx, cut, flip);
        }
    }

    /// Audit events (context-free wire type).
    #[test]
    fn audit_events(id in any::<u64>(), at in any::<u64>(), who in "[a-z]{1,12}", cut in 0usize..256, flip in 0usize..256) {
        let events = [
            AuditEvent::RecordStored {
                id: RecordId(id),
                patient: Identity::new(&who),
                category: Category::LabResults,
                at,
            },
            AuditEvent::RecordDeleted { id: RecordId(id), at },
            AuditEvent::AccessRevoked {
                patient: Identity::new(&who),
                category: Category::Custom(who.clone()),
                grantee: Identity::new("g"),
                at,
            },
            AuditEvent::DisclosurePerformed {
                id: RecordId(id),
                requester: Identity::new(&who),
                at,
            },
        ];
        for event in &events {
            check_wire_type(event, &(), cut, flip);
        }
    }
}

/// The engine-level invariant behind every battery above: bare bodies under
/// v0 are byte-identical to the pre-`tibpre-wire` legacy layouts (spot
/// check against the formats the PR-4 code wrote — also pinned end-to-end
/// by the golden fixture in `format_compat.rs`).
#[test]
fn v0_bodies_match_legacy_layouts() {
    let mut w = world(0x1e9);
    let m = w.params.random_gt(&mut w.rng);
    let t = TypeTag::new("legacy");
    let typed = w.delegator.encrypt_typed(&m, &t, &mut w.rng);

    // Legacy typed layout: c1 uncompressed ‖ c2 raw ‖ u32 len ‖ tag.
    let mut legacy = typed.c1.to_bytes();
    legacy.extend(typed.c2.to_bytes());
    legacy.extend((t.as_bytes().len() as u32).to_be_bytes());
    legacy.extend(t.as_bytes());
    assert_eq!(tibpre_wire::encode_bare(&typed, WireVersion::V0), legacy);

    // And the envelope is exactly one tag byte in front of the bare body.
    let mut enveloped = vec![WireVersion::V0.tag()];
    enveloped.extend(&legacy);
    assert_eq!(typed.to_wire_bytes_versioned(WireVersion::V0), enveloped);
}

/// The writer's version threads through nested fields (header inside
/// hybrid inside WAL op): the header's `Gt` element travels as the v1
/// torus tag and its torus coordinate under v1, and as its two raw
/// coordinates under v0.
#[test]
fn nested_fields_inherit_the_container_version() {
    let mut w = world(0xbeef);
    let ct = w
        .delegator
        .encrypt_bytes(b"payload", b"", &TypeTag::new("t"), &mut w.rng);
    let raw = ct.header.c2.to_bytes();
    let torus = tibpre_wire::encode_bare(&ct.header.c2, WireVersion::V1);
    assert_eq!(torus[0], 0x05, "the torus tag");
    let record = StoredRecord {
        id: RecordId(1),
        patient: Identity::new("alice"),
        category: Category::Emergency,
        title: "r".into(),
        ciphertext: ct,
    };
    let op = WalOp::Put {
        record: Box::new(record),
        at: 1,
    };
    let v0 = op.to_wire_bytes_versioned(WireVersion::V0);
    let v1 = op.to_wire_bytes_versioned(WireVersion::V1);
    // If the version failed to propagate into the record's ciphertext, the
    // nested element would carry the same layout in both encodings.
    let holds = |frame: &[u8], part: &[u8]| frame.windows(part.len()).any(|x| x == part);
    assert!(
        holds(&v1, &torus) && !holds(&v1, &raw),
        "v1 nests the torus form"
    );
    assert!(
        holds(&v0, &raw) && !holds(&v0, &torus),
        "v0 nests the raw form"
    );
    // Nothing else differs in length: `2·|p|` raw bytes against `1 + |p|`.
    let flen = w.params.fp_ctx().byte_len();
    assert_eq!(v0.len() - v1.len(), flen - 1);
    // Both decode back to the same op.
    let a = WalOp::from_wire_bytes(&v0, &DecodeCtx::from(&w.params)).unwrap();
    let b = WalOp::from_wire_bytes(&v1, &DecodeCtx::from(&w.params)).unwrap();
    assert_eq!(a, b);

    // A writer at v0 produces the legacy bare layout for the hybrid too.
    let WalOp::Put { record, .. } = a else {
        unreachable!()
    };
    let mut bare = Writer::with_version(WireVersion::V0);
    record.ciphertext.encode(&mut bare);
    let legacy_equivalent = bare.into_bytes();
    let mut expected = Vec::new();
    let header = tibpre_wire::encode_bare(&record.ciphertext.header, WireVersion::V0);
    expected.extend((header.len() as u32).to_be_bytes());
    expected.extend(header);
    expected.extend(tibpre_wire::encode_bare(
        &record.ciphertext.body,
        WireVersion::V0,
    ));
    assert_eq!(legacy_equivalent, expected);
}

/// Old (compressed) and new bytes of one value meet wherever the workspace
/// keys on element bytes, and each place stays right.
#[test]
fn compressed_and_current_bytes_of_one_value_agree_everywhere_they_meet() {
    use tibpre_core::ReEncryptionKey;
    use tibpre_ibe::EncodedIbeCiphertext;
    use tibpre_pairing::OpCounts;
    use tibpre_phr::proxy_service::DisclosureBundle;
    use tibpre_phr::HealthcareProvider;
    use tibpre_tests::compressed;
    use tibpre_tests::fixture::{World as Fixture, PLAINTEXT};

    let w = Fixture::new(PairingParams::insecure_toy());
    let ctx = DecodeCtx::from(&PairingParams::insecure_toy());

    // Digests: a value read from either form is the same value, so its
    // hash preimages (`to_bytes`, the v0 layout) are the same, and it is
    // written back in the one form the writers emit.
    let old = StoredRecord::from_wire_bytes(&compressed::record_frame(&w.record), &ctx).unwrap();
    assert_eq!(old, w.record);
    assert_eq!(old.to_wire_bytes(), w.record.to_wire_bytes());
    let v0 = |r: &StoredRecord| r.to_wire_bytes_versioned(WireVersion::V0);
    assert_eq!(v0(&old), v0(&w.record));

    // `rk₃` is decoded with full validation and kept as the bytes the
    // writers emit: a key from an old proxy log equals the current key,
    // so a reloaded proxy sends one `c'₃` per grant.
    let old_key = ReEncryptionKey::from_wire_bytes(&compressed::rekey_frame(&w.rekey), &ctx);
    let old_key = old_key.unwrap();
    assert_eq!(old_key, w.rekey);
    assert_eq!(
        old_key.encrypted_x().as_bytes(),
        w.rekey.encrypted_x().as_bytes()
    );

    // `c'₃` in a bundle is only framed, so its bytes stay as they came: the
    // old bytes are another value of `EncodedIbeCiphertext` (equality is of
    // bytes) that opens to the same ciphertext.
    let old_bundle = DisclosureBundle::from_wire_bytes(&compressed::bundle_frame(&w.bundle), &ctx);
    let old_bundle = old_bundle.unwrap();
    let (old_c3, c3) = (
        &old_bundle.ciphertext.header.encrypted_x,
        &w.bundle.ciphertext.header.encrypted_x,
    );
    assert_ne!(old_c3, c3);
    assert_eq!(old_c3.to_ciphertext().unwrap(), c3.to_ciphertext().unwrap());
    let reframed: EncodedIbeCiphertext =
        tibpre_wire::decode_bare(old_c3.as_bytes(), WireVersion::V1, &ctx).unwrap();
    assert_eq!(&reframed, old_c3);

    // The delegatee's mask tiers key on those bytes: each form misses once
    // (validating and decoding its own `c'₃`), then hits, and both open to
    // the same plaintext.  The square roots say which: a hit solves none,
    // a miss on the compressed `c'₃` solves the same as one on the new
    // bytes (the hash to `G1`) plus its two.
    let provider = HealthcareProvider::new(w.doctor_key.clone());
    let open = |bundle: &DisclosureBundle| {
        let before = OpCounts::now();
        assert_eq!(provider.open(bundle).unwrap().body, PLAINTEXT);
        OpCounts::now().sqrt - before.sqrt
    };
    let first_new = open(&w.bundle);
    assert_eq!(open(&old_bundle), first_new + 2, "a miss on the old bytes");
    assert_eq!(open(&w.bundle), 0, "a hit on the new bytes");
    assert_eq!(open(&old_bundle), 0, "a hit on the old bytes");
}
