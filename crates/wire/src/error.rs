//! The single decode-failure type every deserializer in the workspace
//! reports.
//!
//! Before this crate existed, truncation and corruption surfaced as an
//! inconsistent mix of `PairingError::InvalidEncoding`,
//! `PreError::InvalidEncoding`, `IbeError::InvalidCiphertext`,
//! `PhrError::CorruptedRecord` and `StorageError::Corrupt` variants, each
//! with its own idea of what to say about the bad input.  [`DecodeError`]
//! replaces all of them at the byte layer: it records *where* the decoder
//! stopped and *why*, and every layer's error enum offers a `From` impl so
//! the `?` operator carries it upward unchanged.

use core::fmt;

/// Why a decode failed, with enough detail to point at the broken field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeErrorKind {
    /// The input ended before a field was complete.
    Truncated {
        /// Bytes the field still needed.
        expected: usize,
        /// Bytes that were actually left.
        got: usize,
    },
    /// A complete value was decoded but input bytes remained.
    TrailingBytes {
        /// Number of unconsumed bytes.
        trailing: usize,
    },
    /// The leading envelope byte named a version this binary does not know.
    UnknownVersion {
        /// The unrecognised version tag.
        tag: u8,
    },
    /// A tag byte had no meaning at its position.
    InvalidTag {
        /// What the tag was supposed to select (e.g. `"G1 point"`).
        what: &'static str,
        /// The unrecognised tag value.
        tag: u8,
    },
    /// A field parsed structurally but failed validation (out-of-range field
    /// element, point not on the curve, invalid UTF-8, …).
    Invalid {
        /// What failed to validate.
        what: &'static str,
    },
}

/// A decode failure: the byte offset the cursor had reached plus the reason.
///
/// Errors are values, never panics — a corrupted input must not be able to
/// take a recovery path (or a network front-end) down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset into the input at which the failure was detected.
    pub offset: usize,
    /// The failure classification.
    pub kind: DecodeErrorKind,
}

impl DecodeError {
    /// The input ended `expected − got` bytes too early.
    pub fn truncated(offset: usize, expected: usize, got: usize) -> Self {
        DecodeError {
            offset,
            kind: DecodeErrorKind::Truncated { expected, got },
        }
    }

    /// A complete value left `trailing` bytes unconsumed.
    pub fn trailing(offset: usize, trailing: usize) -> Self {
        DecodeError {
            offset,
            kind: DecodeErrorKind::TrailingBytes { trailing },
        }
    }

    /// The envelope named an unknown version.
    pub(crate) fn unknown_version(offset: usize, tag: u8) -> Self {
        DecodeError {
            offset,
            kind: DecodeErrorKind::UnknownVersion { tag },
        }
    }

    /// A tag byte had no meaning at this position.
    pub fn invalid_tag(offset: usize, what: &'static str, tag: u8) -> Self {
        DecodeError {
            offset,
            kind: DecodeErrorKind::InvalidTag { what, tag },
        }
    }

    /// A structurally-complete field failed validation.
    pub fn invalid(offset: usize, what: &'static str) -> Self {
        DecodeError {
            offset,
            kind: DecodeErrorKind::Invalid { what },
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            DecodeErrorKind::Truncated { expected, got } => write!(
                f,
                "truncated input at offset {}: expected {expected} more bytes, got {got}",
                self.offset
            ),
            DecodeErrorKind::TrailingBytes { trailing } => write!(
                f,
                "{trailing} trailing bytes after a complete value at offset {}",
                self.offset
            ),
            DecodeErrorKind::UnknownVersion { tag } => write!(
                f,
                "unknown wire-format version 0x{tag:02x} at offset {}",
                self.offset
            ),
            DecodeErrorKind::InvalidTag { what, tag } => write!(
                f,
                "invalid {what} tag 0x{tag:02x} at offset {}",
                self.offset
            ),
            DecodeErrorKind::Invalid { what } => {
                write!(f, "invalid {what} at offset {}", self.offset)
            }
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_offset_and_cause() {
        let e = DecodeError::truncated(7, 32, 5);
        assert!(e.to_string().contains("offset 7"));
        assert!(e.to_string().contains("expected 32"));
        assert!(e.to_string().contains("got 5"));
        assert!(DecodeError::trailing(9, 3)
            .to_string()
            .contains("3 trailing"));
        assert!(DecodeError::unknown_version(0, 0xEE)
            .to_string()
            .contains("0xee"));
        assert!(DecodeError::invalid_tag(4, "G1 point", 0x09)
            .to_string()
            .contains("G1 point"));
        assert!(DecodeError::invalid(2, "field element")
            .to_string()
            .contains("field element"));
    }
}
