//! Identities — the "public keys" of identity-based encryption.

use core::fmt;

/// An identity string (e-mail address, role name, licence number, …).
///
/// Identities are arbitrary byte strings; the convenience constructors accept
/// UTF-8 but nothing in the scheme requires it.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Identity {
    bytes: Vec<u8>,
}

impl Identity {
    /// Creates an identity from a string.
    pub fn new(id: impl AsRef<str>) -> Self {
        Identity {
            bytes: id.as_ref().as_bytes().to_vec(),
        }
    }

    /// Creates an identity from raw bytes.
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Self {
        Identity {
            bytes: bytes.into(),
        }
    }

    /// The raw identity bytes (the input to `H1`).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Best-effort string rendering for logs and error messages.
    pub fn display(&self) -> String {
        String::from_utf8_lossy(&self.bytes).into_owned()
    }
}

tibpre_wire::message! {
    fields {
        Identity: |w, v| w.put_bytes(v.as_bytes()), |r| Ok(Identity::from_bytes(r.bytes()?));
    }
}

impl fmt::Debug for Identity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Identity({})", self.display())
    }
}

impl fmt::Display for Identity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display())
    }
}

impl From<&str> for Identity {
    fn from(s: &str) -> Self {
        Identity::new(s)
    }
}

impl From<String> for Identity {
    fn from(s: String) -> Self {
        Identity::new(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_equality() {
        let a = Identity::new("alice@example.org");
        let b: Identity = "alice@example.org".into();
        let c = Identity::from_bytes(b"alice@example.org".to_vec());
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_ne!(a, Identity::new("bob@example.org"));
    }

    #[test]
    fn non_utf8_identities_are_allowed() {
        let id = Identity::from_bytes(vec![0xFF, 0xFE, 0x00, 0x42]);
        assert_eq!(id.as_bytes(), &[0xFF, 0xFE, 0x00, 0x42]);
        // Display is lossy but does not panic.
        let _ = id.display();
        let _ = format!("{id:?}");
    }

    #[test]
    fn display_round_trip() {
        let id = Identity::new("cardiologist@hospital.example");
        assert_eq!(id.to_string(), "cardiologist@hospital.example");
    }
}
