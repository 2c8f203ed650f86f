//! # tibpre-wire — the unified wire codec of the TIB-PRE workspace
//!
//! In the scheme of Ibraimi et al. every artifact that crosses a trust
//! boundary — ciphertexts `(c₁, c₂)`, re-encryption keys, delegation
//! tokens — is a tuple of group elements, so byte layout *is* the system's
//! bandwidth and storage story.  This crate centralises that layout:
//!
//! * [`Reader`] / [`Writer`] — a bounds-checked, zero-copy cursor pair,
//!   with every failure a [`DecodeError`] value carrying the offending
//!   offset.
//! * [`WireVersion`] — the one-byte versioned envelope: `v0` is the
//!   original uncompressed layout (and doubles as the reader for durable
//!   data written before the envelope existed), `v1` is the compact
//!   default with compressed group elements.
//! * [`WireEncode`] / [`WireDecode`] — the traits every serialized type in
//!   the workspace implements.  `encode`/`decode` handle the bare,
//!   version-aware body; `to_wire_bytes`/`from_wire_bytes` wrap it in the
//!   envelope and reject trailing bytes.
//! * [`message!`] — one declaration per message type: its tags, variants
//!   and fields, from which the type and both codec directions derive, each
//!   field written by its type's [`Field`] codec.
//! * [`framing`] — length-prefixed stream frames (`len (u32 BE) ‖ envelope`),
//!   the form the node protocol carries these messages in over TCP, with a
//!   maximum-size guard enforced before any allocation.
//!
//! Decoding is context-driven: group elements need their field/parameter
//! handles to validate (on-curve, canonical range) exactly once at the
//! boundary, so [`WireDecode`] carries an associated `Ctx` type.  The
//! pairing crate provides the concrete `DecodeCtx` wrapping
//! `Arc<PairingParams>` that the scheme layers use.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod error;
pub mod framing;
mod io;
mod message;
mod version;

pub use error::{DecodeError, DecodeErrorKind};
pub use framing::{read_frame, write_frame, write_frames, FrameError, DEFAULT_MAX_FRAME};
pub use io::{put_bytes, put_u32, put_u64, Reader, Writer};
pub use message::{Codec, Elem, Field, Inline, Nested, Unsent};
pub use version::WireVersion;

/// A type with a canonical, version-aware wire encoding.
pub trait WireEncode {
    /// Appends the bare (envelope-less) encoding of `self` to the writer,
    /// using the writer's [`WireVersion`] for version-dependent fields.
    fn encode(&self, w: &mut Writer);

    /// Serializes under an explicit envelope version: one version byte,
    /// then the bare encoding.
    fn to_wire_bytes_versioned(&self, version: WireVersion) -> Vec<u8> {
        let mut w = Writer::with_version(version);
        w.put_u8(version.tag());
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Serializes under the default (current) envelope version.
    fn to_wire_bytes(&self) -> Vec<u8> {
        self.to_wire_bytes_versioned(WireVersion::DEFAULT)
    }
}

/// A type decodable from its canonical wire encoding.
pub trait WireDecode: Sized {
    /// The context needed to validate fields at the boundary (field
    /// contexts, pairing parameters, or `()` for self-contained types).
    type Ctx;

    /// Decodes the bare (envelope-less) encoding from the reader, using
    /// the reader's [`WireVersion`] for version-dependent fields.  Does
    /// *not* check for trailing bytes — the caller owns the cursor.
    fn decode(r: &mut Reader<'_>, ctx: &Self::Ctx) -> Result<Self, DecodeError>;

    /// Parses a versioned envelope: reads the version byte, decodes the
    /// body under that version, and rejects unknown versions and trailing
    /// bytes.
    fn from_wire_bytes(bytes: &[u8], ctx: &Self::Ctx) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        let version =
            WireVersion::from_tag(tag).ok_or_else(|| DecodeError::unknown_version(0, tag))?;
        r.set_version(version);
        let value = Self::decode(&mut r, ctx)?;
        r.finish()?;
        Ok(value)
    }
}

/// Encodes a bare (envelope-less) body under an explicit version — the
/// form nested fields and version-sniffing containers use.
pub fn encode_bare<T: WireEncode + ?Sized>(value: &T, version: WireVersion) -> Vec<u8> {
    let mut w = Writer::with_version(version);
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a bare (envelope-less) body under an explicit version,
/// rejecting trailing bytes.
pub fn decode_bare<T: WireDecode>(
    bytes: &[u8],
    version: WireVersion,
    ctx: &T::Ctx,
) -> Result<T, DecodeError> {
    let mut r = Reader::with_version(bytes, version);
    let value = T::decode(&mut r, ctx)?;
    r.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy wire type exercising the default trait plumbing.
    #[derive(Debug, PartialEq)]
    struct Pair(u32, Vec<u8>);

    impl WireEncode for Pair {
        fn encode(&self, w: &mut Writer) {
            w.put_u32(self.0);
            w.put_bytes(&self.1);
        }
    }

    impl WireDecode for Pair {
        type Ctx = ();
        fn decode(r: &mut Reader<'_>, _ctx: &()) -> Result<Self, DecodeError> {
            Ok(Pair(r.u32()?, r.bytes()?.to_vec()))
        }
    }

    #[test]
    fn envelope_round_trip_and_rejections() {
        let value = Pair(9, b"abc".to_vec());
        for version in [WireVersion::V0, WireVersion::V1] {
            let bytes = value.to_wire_bytes_versioned(version);
            assert_eq!(bytes[0], version.tag());
            assert_eq!(Pair::from_wire_bytes(&bytes, &()).unwrap(), value);
            // Truncation anywhere fails.
            for cut in 0..bytes.len() {
                assert!(Pair::from_wire_bytes(&bytes[..cut], &()).is_err());
            }
            // Trailing bytes fail.
            let mut longer = bytes.clone();
            longer.push(0);
            assert!(Pair::from_wire_bytes(&longer, &()).is_err());
            // An unknown version tag fails with the right kind.
            let mut wrong = bytes.clone();
            wrong[0] = 0xEE;
            let err = Pair::from_wire_bytes(&wrong, &()).unwrap_err();
            assert_eq!(err, DecodeError::unknown_version(0, 0xEE));
        }
        // Default version is v1.
        assert_eq!(value.to_wire_bytes()[0], WireVersion::V1.tag());
    }

    #[test]
    fn bare_helpers_round_trip() {
        let value = Pair(1, b"z".to_vec());
        let bytes = encode_bare(&value, WireVersion::V0);
        assert_eq!(
            decode_bare::<Pair>(&bytes, WireVersion::V0, &()).unwrap(),
            value
        );
        let mut longer = bytes.clone();
        longer.push(7);
        assert!(decode_bare::<Pair>(&longer, WireVersion::V0, &()).is_err());
    }
}
