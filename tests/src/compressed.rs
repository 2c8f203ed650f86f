//! The compressed `v1` encodings older writers emitted, so tests can build
//! the frames stored data still holds: `0x02/0x03 ‖ x` for a `G1` point and
//! `0x02/0x03 ‖ c0` for a `Gt` element on the norm-1 torus, the tag the
//! parity of `y` (resp. `c1`).  Product code no longer writes them; every
//! reader still accepts them, and each decode solves one square root.
//!
//! The frame builders swap each element's encoding for its compressed form
//! and shrink the `u32` length of every nested span around it.

use tibpre_core::ReEncryptionKey;
use tibpre_pairing::{G1Affine, Gt};
use tibpre_phr::proxy_service::DisclosureBundle;
use tibpre_phr::store::StoredRecord;
use tibpre_wire::{encode_bare, WireEncode, WireVersion};

/// The compressed form of a non-identity `G1` point.
pub fn g1(p: &G1Affine) -> Vec<u8> {
    assert!(!p.is_identity(), "the identity has no second coordinate");
    let tag = if p.y().is_odd_repr() { 0x03 } else { 0x02 };
    [vec![tag], p.x().to_bytes()].concat()
}

/// The compressed form of a `Gt` element on the norm-1 torus.
pub fn gt(g: &Gt) -> Vec<u8> {
    let v = g.as_fp2();
    assert!(
        (&v.c0.square() + &v.c1.square()).is_one(),
        "only torus members were compressed"
    );
    let tag = if v.c1.is_odd_repr() { 0x03 } else { 0x02 };
    [vec![tag], v.c0.to_bytes()].concat()
}

/// `bytes` with the one occurrence of `from` replaced by `to`.
pub fn replace(bytes: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
    let at: Vec<usize> = (0..=bytes.len().saturating_sub(from.len()))
        .filter(|&i| bytes[i..].starts_with(from))
        .collect();
    assert_eq!(at.len(), 1, "the span occurs exactly once");
    [&bytes[..at[0]], to, &bytes[at[0] + from.len()..]].concat()
}

/// `bytes` with the nested span of `from` (its `u32` length, then `from`)
/// replaced by that of `to`.
pub fn replace_nested(bytes: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
    let nested = |body: &[u8]| [&(body.len() as u32).to_be_bytes()[..], body].concat();
    replace(bytes, &nested(from), &nested(to))
}

/// `bare` with each `G1` point's and `Gt` element's `v1` encoding replaced
/// by its compressed form.
pub fn compress(bare: &[u8], g1s: &[&G1Affine], gts: &[&Gt]) -> Vec<u8> {
    let swaps = g1s
        .iter()
        .map(|p| (encode_bare(*p, WireVersion::V1), g1(p)))
        .chain(
            gts.iter()
                .map(|g| (encode_bare(*g, WireVersion::V1), gt(g))),
        );
    swaps.fold(bare.to_vec(), |bytes, (from, to)| {
        replace(&bytes, &from, &to)
    })
}

/// `frame` (at `v1`) with the nested header of a hybrid ciphertext inside
/// it rewritten by `edit`, and the lengths of both nested spans around the
/// header (the header's own, the hybrid ciphertext's) fixed.
pub fn edit_header(
    frame: &[u8],
    hybrid: &impl WireEncode,
    header: &impl WireEncode,
    edit: impl FnOnce(&[u8]) -> Vec<u8>,
) -> Vec<u8> {
    let (bare, outer) = (
        encode_bare(header, WireVersion::V1),
        encode_bare(hybrid, WireVersion::V1),
    );
    let edited = replace_nested(&outer, &bare, &edit(&bare));
    replace_nested(frame, &outer, &edited)
}

/// A stored record's `v1` frame as the compressed writers wrote it.
pub fn record_frame(record: &StoredRecord) -> Vec<u8> {
    let header = &record.ciphertext.header;
    edit_header(
        &record.to_wire_bytes(),
        &record.ciphertext,
        header,
        |bare| compress(bare, &[&header.c1], &[&header.c2]),
    )
}

/// A disclosure bundle's `v1` frame as the compressed writers wrote it:
/// `c'₁`, `c'₂` and both elements of `c'₃` compressed.
pub fn bundle_frame(bundle: &DisclosureBundle) -> Vec<u8> {
    let header = &bundle.ciphertext.header;
    let c3 = header.encrypted_x.to_ciphertext().expect("an honest c'3");
    edit_header(
        &bundle.to_wire_bytes(),
        &bundle.ciphertext,
        header,
        |bare| compress(bare, &[&header.c1, &c3.c1], &[&header.c2, &c3.c2]),
    )
}

/// A re-encryption key's `v1` frame as the compressed writers wrote it:
/// `rk₂` and both elements of `rk₃` compressed.
pub fn rekey_frame(key: &ReEncryptionKey) -> Vec<u8> {
    let rk3 = key.encrypted_x().to_ciphertext().expect("an honest rk3");
    compress(&key.to_wire_bytes(), &[key.rk_point(), &rk3.c1], &[&rk3.c2])
}
