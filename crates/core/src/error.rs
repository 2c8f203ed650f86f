//! Error type for the proxy re-encryption layer.

use core::fmt;
use tibpre_ibe::IbeError;
use tibpre_pairing::PairingError;
use tibpre_symmetric::SymmetricError;
use tibpre_wire::DecodeError;

/// Errors produced by the TIB-PRE scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreError {
    /// An error bubbled up from the pairing substrate.
    Pairing(PairingError),
    /// A wire decode failed (truncation, bad tag, invalid group element).
    Decode(DecodeError),
    /// An error bubbled up from the IBE layer.
    Ibe(IbeError),
    /// An error bubbled up from the symmetric (DEM) layer.
    Symmetric(SymmetricError),
    /// The re-encryption key's type does not match the ciphertext's type.
    TypeMismatch {
        /// Type tag carried by the ciphertext.
        ciphertext_type: String,
        /// Type tag the re-encryption key was issued for.
        key_type: String,
    },
    /// The proxy holds no re-encryption key matching the request.
    NoMatchingKey,
    /// The two KGC domains do not share pairing parameters.
    IncompatibleDomains,
    /// A ciphertext or key encoding was malformed.
    InvalidEncoding(&'static str),
}

impl fmt::Display for PreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreError::Pairing(e) => write!(f, "pairing error: {e}"),
            PreError::Decode(e) => write!(f, "decode error: {e}"),
            PreError::Ibe(e) => write!(f, "IBE error: {e}"),
            PreError::Symmetric(e) => write!(f, "symmetric-cipher error: {e}"),
            PreError::TypeMismatch {
                ciphertext_type,
                key_type,
            } => write!(
                f,
                "type mismatch: ciphertext has type '{ciphertext_type}' but the \
                 re-encryption key was issued for '{key_type}'"
            ),
            PreError::NoMatchingKey => write!(f, "no matching re-encryption key"),
            PreError::IncompatibleDomains => {
                write!(
                    f,
                    "the delegator and delegatee domains do not share parameters"
                )
            }
            PreError::InvalidEncoding(why) => write!(f, "invalid encoding: {why}"),
        }
    }
}

impl std::error::Error for PreError {}

impl From<PairingError> for PreError {
    fn from(e: PairingError) -> Self {
        PreError::Pairing(e)
    }
}

impl From<DecodeError> for PreError {
    fn from(e: DecodeError) -> Self {
        PreError::Decode(e)
    }
}

impl From<IbeError> for PreError {
    fn from(e: IbeError) -> Self {
        PreError::Ibe(e)
    }
}

impl From<SymmetricError> for PreError {
    fn from(e: SymmetricError) -> Self {
        PreError::Symmetric(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: PreError = PairingError::NotOnCurve.into();
        assert!(e.to_string().contains("pairing"));
        let e: PreError = IbeError::DomainMismatch.into();
        assert!(e.to_string().contains("IBE"));
        let e: PreError = SymmetricError::AuthenticationFailed.into();
        assert!(e.to_string().contains("symmetric"));
        let e = PreError::TypeMismatch {
            ciphertext_type: "illness".into(),
            key_type: "diet".into(),
        };
        assert!(e.to_string().contains("illness"));
        assert!(e.to_string().contains("diet"));
    }
}
