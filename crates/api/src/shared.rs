//! Serde adapters for shared (`Arc`) fields.
//!
//! Names, property sets and message payloads are shared between every
//! copy of a message and of its trace records, so copying one costs a
//! reference-count bump. Each adapter encodes the shared value exactly as
//! the owned value it wraps, so the serialized forms do not depend on the
//! sharing.

/// `#[serde(with = "crate::shared::arc")]` for an `Arc<T>` field.
pub(crate) mod arc {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::sync::Arc;

    pub fn serialize<T: Serialize, S: Serializer>(
        value: &Arc<T>,
        serializer: S,
    ) -> Result<S::Ok, S::Error> {
        value.as_ref().serialize(serializer)
    }

    pub fn deserialize<'de, T: Deserialize<'de>, D: Deserializer<'de>>(
        deserializer: D,
    ) -> Result<Arc<T>, D::Error> {
        T::deserialize(deserializer).map(Arc::new)
    }
}

/// `#[serde(with = "crate::shared::arc_str")]` for an `Arc<str>` field:
/// a plain string.
pub(crate) mod arc_str {
    use serde::{Deserialize, Deserializer, Serializer};
    use std::sync::Arc;

    pub fn serialize<S: Serializer>(value: &Arc<str>, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(value)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(deserializer: D) -> Result<Arc<str>, D::Error> {
        String::deserialize(deserializer).map(Arc::from)
    }
}
