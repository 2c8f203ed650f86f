//! The bounds-checked, zero-copy [`Reader`] and the version-carrying
//! [`Writer`].
//!
//! The reader is a cursor over a borrowed byte slice; `take` hands back
//! sub-slices of the input without copying, so decoding a composite value
//! allocates only for the fields that genuinely own their bytes.  Every
//! failure is a [`DecodeError`] value carrying the cursor offset — never a
//! panic.  The writer is the encoding dual: it carries the envelope
//! [`WireVersion`] so nested fields (for instance a curve point inside a
//! ciphertext inside a WAL frame) know which layout to emit without the
//! version being threaded through every `encode` signature.

use crate::error::DecodeError;
use crate::version::WireVersion;

/// Appends a `u32` big-endian (free-function form kept for callers building
/// raw payloads without a [`Writer`]).
pub fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_be_bytes());
}

/// Appends a `u64` big-endian.
pub fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_be_bytes());
}

/// Appends a length-prefixed byte string (`u32 BE` length, then the bytes).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// A bounds-checked decoding cursor over a borrowed payload.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    offset: usize,
    version: WireVersion,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`, assuming the current default
    /// wire version for version-dependent fields.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self::with_version(bytes, WireVersion::DEFAULT)
    }

    /// A cursor decoding under an explicit wire version (used for bare
    /// payloads whose version is known from context, e.g. a legacy WAL
    /// frame that predates the envelope byte).
    pub fn with_version(bytes: &'a [u8], version: WireVersion) -> Self {
        Reader {
            bytes,
            offset: 0,
            version,
        }
    }

    /// The version version-dependent fields decode under.
    pub fn version(&self) -> WireVersion {
        self.version
    }

    /// Switches the decode version (called after reading an envelope byte).
    pub(crate) fn set_version(&mut self, version: WireVersion) {
        self.version = version;
    }

    /// The cursor's byte offset into the input.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The raw bytes consumed since `start` (an offset previously obtained
    /// from [`Self::offset`]) — lets a decoder key caches by a field's exact
    /// canonical encoding without re-serializing the decoded value.
    pub fn window(&self, start: usize) -> &'a [u8] {
        &self.bytes[start.min(self.offset)..self.offset]
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.offset
    }

    /// Takes `n` raw bytes, zero-copy.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::truncated(self.offset, n, self.remaining()));
        }
        let slice = &self.bytes[self.offset..self.offset + n];
        self.offset += n;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32 BE`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a `u64 BE`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a length-prefixed byte string, zero-copy.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Advances the cursor over `n` bytes without materialising them —
    /// the partial-decode primitive used by header peeks that stop before
    /// a record's expensive fields.
    pub fn skip(&mut self, n: usize) -> Result<(), DecodeError> {
        self.take(n).map(|_| ())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let start = self.offset;
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| DecodeError::invalid(start, "UTF-8 string"))
    }

    /// Asserts the payload is fully consumed (catches trailing garbage).
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::trailing(self.offset, self.remaining()))
        }
    }
}

/// An encoding buffer that carries the envelope version, so nested fields
/// pick the right layout.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
    version: WireVersion,
}

impl Writer {
    /// An empty writer emitting the current default wire version.
    pub fn new() -> Self {
        Self::with_version(WireVersion::DEFAULT)
    }

    /// An empty writer emitting an explicit wire version.
    pub fn with_version(version: WireVersion) -> Self {
        Writer {
            buf: Vec::new(),
            version,
        }
    }

    /// The version version-dependent fields encode under.
    pub fn version(&self) -> WireVersion {
        self.version
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Appends a `u32 BE`.
    pub fn put_u32(&mut self, value: u32) {
        put_u32(&mut self.buf, value);
    }

    /// Appends a `u64 BE`.
    pub fn put_u64(&mut self, value: u64) {
        put_u64(&mut self.buf, value);
    }

    /// Appends raw bytes with no framing.
    pub fn put_slice(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed byte string (`u32 BE` length, then bytes).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        put_bytes(&mut self.buf, bytes);
    }

    /// Appends a length-prefixed *nested encoding*: reserves the 4-byte
    /// length slot, runs `f`, then backfills the slot with however many
    /// bytes `f` wrote.  This is how composite types embed self-delimiting
    /// children without encoding them into a scratch buffer first.
    ///
    /// # Panics
    ///
    /// If the nested encoding reaches 4 GiB (the `u32` length prefix would
    /// wrap, and a wrapped length under an intact CRC would be *silent*
    /// corruption — failing fast at encode time is the only safe option).
    pub fn put_nested(&mut self, f: impl FnOnce(&mut Writer)) {
        let slot = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 4]);
        f(self);
        let written = self.buf.len() - slot - 4;
        let written = u32::try_from(written)
            .expect("nested encoding exceeds the u32 length prefix (≥ 4 GiB)");
        self.buf[slot..slot + 4].copy_from_slice(&written.to_be_bytes());
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_fields() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(42);
        w.put_bytes(b"payload");
        w.put_nested(|w| {
            w.put_u8(1);
            w.put_bytes(b"inner");
        });
        let out = w.into_bytes();
        let mut r = Reader::new(&out);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.bytes().unwrap(), b"payload");
        let nested = r.bytes().unwrap();
        assert_eq!(nested.len(), 1 + 4 + 5);
        r.finish().unwrap();
    }

    #[test]
    fn short_and_trailing_inputs_are_errors_not_panics() {
        let mut out = Vec::new();
        put_bytes(&mut out, b"abc");
        // Truncation anywhere fails cleanly, with the offset reported.
        for cut in 0..out.len() {
            let mut r = Reader::new(&out[..cut]);
            assert!(r.bytes().is_err(), "cut {cut}");
        }
        // A length field larger than the buffer fails cleanly.
        let mut huge = Vec::new();
        put_u32(&mut huge, u32::MAX);
        let mut r = Reader::new(&huge);
        let err = r.bytes().unwrap_err();
        assert_eq!(err.offset, 4);
        // Trailing garbage is caught by finish().
        let mut extra = out.clone();
        extra.push(0);
        let mut r = Reader::new(&extra);
        r.bytes().unwrap();
        let err = r.finish().unwrap_err();
        assert_eq!(err, DecodeError::trailing(out.len(), 1));
    }

    #[test]
    fn skip_tracks_the_cursor_without_copying() {
        let mut w = Writer::new();
        w.put_u64(7);
        w.put_bytes(b"kept");
        let out = w.into_bytes();
        let mut r = Reader::new(&out);
        r.skip(8).unwrap();
        assert_eq!(r.bytes().unwrap(), b"kept");
        r.finish().unwrap();
        // Skips past the end fail like takes do.
        let mut r = Reader::new(&out);
        assert!(r.skip(out.len() + 1).is_err());
    }

    #[test]
    fn versions_propagate() {
        let w = Writer::with_version(WireVersion::V0);
        assert_eq!(w.version(), WireVersion::V0);
        let mut r = Reader::with_version(b"x", WireVersion::V0);
        assert_eq!(r.version(), WireVersion::V0);
        r.set_version(WireVersion::V1);
        assert_eq!(r.version(), WireVersion::V1);
    }
}
