//! Error type for the IBE layer.

use core::fmt;
use tibpre_pairing::PairingError;
use tibpre_wire::DecodeError;

/// Errors produced by the IBE layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IbeError {
    /// An error bubbled up from the pairing substrate.
    Pairing(PairingError),
    /// A wire decode failed (truncation, bad tag, invalid group element).
    Decode(DecodeError),
    /// A ciphertext failed to decode or decrypt.
    InvalidCiphertext(&'static str),
    /// Elements from different parameter sets / domains were mixed.
    DomainMismatch,
}

impl fmt::Display for IbeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IbeError::Pairing(e) => write!(f, "pairing error: {e}"),
            IbeError::Decode(e) => write!(f, "decode error: {e}"),
            IbeError::InvalidCiphertext(why) => write!(f, "invalid ciphertext: {why}"),
            IbeError::DomainMismatch => write!(f, "elements belong to different IBE domains"),
        }
    }
}

impl std::error::Error for IbeError {}

impl From<PairingError> for IbeError {
    fn from(e: PairingError) -> Self {
        IbeError::Pairing(e)
    }
}

impl From<DecodeError> for IbeError {
    fn from(e: DecodeError) -> Self {
        IbeError::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: IbeError = PairingError::NotOnCurve.into();
        assert!(e.to_string().contains("pairing"));
        assert!(IbeError::DomainMismatch.to_string().contains("domains"));
    }
}
