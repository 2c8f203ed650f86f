//! Message types (the paper's `t ∈ {0,1}*`).
//!
//! A [`TypeTag`] is an arbitrary byte string labelling a category of messages:
//! the paper's healthcare example uses types such as *illness history*, *food
//! statistics* and *emergency data*.  The delegator's per-type virtual key is
//! `H2(sk_id ‖ t)`, so two distinct tags give cryptographically independent
//! delegations.

use core::fmt;

/// A message-type tag.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeTag {
    bytes: Vec<u8>,
}

impl TypeTag {
    /// Creates a tag from a string label.
    pub fn new(label: impl AsRef<str>) -> Self {
        TypeTag {
            bytes: label.as_ref().as_bytes().to_vec(),
        }
    }

    /// Creates a tag from raw bytes.
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Self {
        TypeTag {
            bytes: bytes.into(),
        }
    }

    /// The raw tag bytes (the `t` that enters `H2(sk ‖ t)`).
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
        TypeTag: |w, v| w.put_bytes(v.as_bytes()), |r| Ok(TypeTag::from_bytes(r.bytes()?));
    }
}

impl fmt::Debug for TypeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TypeTag({})", self.display())
    }
}

impl fmt::Display for TypeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display())
    }
}

impl From<&str> for TypeTag {
    fn from(s: &str) -> Self {
        TypeTag::new(s)
    }
}

impl From<String> for TypeTag {
    fn from(s: String) -> Self {
        TypeTag::new(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_and_ordering() {
        let a = TypeTag::new("illness-history");
        let b: TypeTag = "illness-history".into();
        let c = TypeTag::new("food-statistics");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(c < a); // lexicographic on bytes
    }

    #[test]
    fn binary_tags_are_allowed() {
        let t = TypeTag::from_bytes(vec![0x00, 0xFF, 0x10]);
        assert_eq!(t.as_bytes(), &[0x00, 0xFF, 0x10]);
        let _ = t.display();
        assert!(format!("{t:?}").starts_with("TypeTag("));
    }

    #[test]
    fn display_round_trip() {
        let t = TypeTag::new("emergency");
        assert_eq!(t.to_string(), "emergency");
    }
}
