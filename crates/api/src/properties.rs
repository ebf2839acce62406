//! User-defined message properties, the values message selectors filter on.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A set of named, typed message properties.
///
/// Property names follow the JMS identifier rules: they start with a letter
/// or `_`/`$` and continue with letters, digits, `_` or `$`; names beginning
/// with `JMSX` are reserved for provider use but are accepted here so that
/// providers built on this crate can set them. Byte-array values are
/// rejected, as in JMS.
///
/// The entries live behind an [`Arc`]: a clone shares them, so the sent
/// message, the record of its send and the records of all its receives
/// hold one map. [`Properties::set`] and [`Properties::remove`] copy the
/// map first if it is shared (copy-on-write), so a change to one copy
/// never shows in another.
///
/// # Examples
///
/// ```
/// use jmst_api::properties::Properties;
/// use jmst_api::value::Value;
///
/// let mut props = Properties::new();
/// props.set("region", Value::from("emea"))?;
/// props.set("attempt", Value::Int(2))?;
/// assert_eq!(props.get("region").and_then(Value::as_str), Some("emea"));
/// assert_eq!(props.len(), 2);
/// # Ok::<(), jmst_api::properties::PropertyError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Properties {
    #[serde(with = "crate::shared::arc")]
    entries: Arc<BTreeMap<String, Value>>,
}

impl Properties {
    /// Creates an empty property set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if `name` is a legal property name.
    pub fn is_valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == '$' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$')
    }

    /// Sets a property, replacing any existing value of the same name and
    /// returning the previous value.
    ///
    /// # Errors
    ///
    /// Returns [`PropertyError::InvalidName`] if `name` is not a legal
    /// identifier, and [`PropertyError::InvalidType`] if `value` is a byte
    /// array.
    pub fn set(
        &mut self,
        name: impl Into<String>,
        value: Value,
    ) -> Result<Option<Value>, PropertyError> {
        let name = name.into();
        if !Self::is_valid_name(&name) {
            return Err(PropertyError::InvalidName { name });
        }
        if !value.is_valid_property() {
            return Err(PropertyError::InvalidType { name });
        }
        Ok(Arc::make_mut(&mut self.entries).insert(name, value))
    }

    /// Returns the value of property `name`, if set.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries.get(name)
    }

    /// Returns `true` if property `name` is set.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Removes property `name`, returning its value if it was set.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        if !self.entries.contains_key(name) {
            return None;
        }
        Arc::make_mut(&mut self.entries).remove(name)
    }

    /// Returns the number of properties.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no properties are set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Returns the approximate wire size of the property set in bytes.
    pub fn wire_size(&self) -> usize {
        self.entries
            .iter()
            .map(|(k, v)| k.len() + v.wire_size())
            .sum()
    }
}

impl fmt::Display for Properties {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (name, value)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}={value}")?;
        }
        write!(f, "}}")
    }
}

impl<'a> IntoIterator for &'a Properties {
    type Item = (&'a String, &'a Value);
    type IntoIter = std::collections::btree_map::Iter<'a, String, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// Error produced when setting an invalid message property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropertyError {
    /// The property name is not a legal identifier.
    InvalidName {
        /// The rejected name.
        name: String,
    },
    /// The value type may not be used as a property (byte arrays).
    InvalidType {
        /// The property the caller attempted to set.
        name: String,
    },
}

impl fmt::Display for PropertyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyError::InvalidName { name } => {
                write!(f, "invalid property name {name:?}")
            }
            PropertyError::InvalidType { name } => {
                write!(
                    f,
                    "byte arrays may not be property values (property {name:?})"
                )
            }
        }
    }
}

impl std::error::Error for PropertyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove_round_trip() {
        let mut props = Properties::new();
        assert!(props.is_empty());
        props.set("a", Value::Int(1)).unwrap();
        assert_eq!(props.get("a"), Some(&Value::Int(1)));
        assert!(props.contains("a"));
        let previous = props.set("a", Value::Int(2)).unwrap();
        assert_eq!(previous, Some(Value::Int(1)));
        assert_eq!(props.remove("a"), Some(Value::Int(2)));
        assert!(props.is_empty());
    }

    #[test]
    fn name_validation() {
        assert!(Properties::is_valid_name("region"));
        assert!(Properties::is_valid_name("_x"));
        assert!(Properties::is_valid_name("$y9"));
        assert!(Properties::is_valid_name("JMSXGroupID"));
        assert!(!Properties::is_valid_name(""));
        assert!(!Properties::is_valid_name("9abc"));
        assert!(!Properties::is_valid_name("has space"));
        assert!(!Properties::is_valid_name("dash-ed"));
    }

    #[test]
    fn invalid_names_are_rejected() {
        let mut props = Properties::new();
        let err = props.set("9bad", Value::Int(1)).unwrap_err();
        assert!(matches!(err, PropertyError::InvalidName { .. }));
        assert!(props.is_empty());
    }

    #[test]
    fn byte_arrays_are_rejected() {
        let mut props = Properties::new();
        let err = props.set("blob", Value::Bytes(vec![1])).unwrap_err();
        assert!(matches!(err, PropertyError::InvalidType { .. }));
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut props = Properties::new();
        props.set("z", Value::Int(1)).unwrap();
        props.set("a", Value::Int(2)).unwrap();
        props.set("m", Value::Int(3)).unwrap();
        let names: Vec<_> = props.iter().map(|(n, _)| n.to_owned()).collect();
        assert_eq!(names, ["a", "m", "z"]);
    }

    #[test]
    fn wire_size_sums_entries() {
        let mut props = Properties::new();
        props.set("ab", Value::Int(1)).unwrap(); // 2 + 4
        props.set("c", Value::from("xyz")).unwrap(); // 1 + 3
        assert_eq!(props.wire_size(), 10);
    }

    #[test]
    fn display_lists_entries() {
        let mut props = Properties::new();
        props.set("a", Value::Int(1)).unwrap();
        props.set("b", Value::from("x")).unwrap();
        assert_eq!(props.to_string(), "{a=1, b='x'}");
    }

    #[test]
    fn a_clone_shares_the_map_until_one_side_writes() {
        let mut original = Properties::new();
        original.set("region", Value::from("emea")).unwrap();
        original.set("tier", Value::Int(2)).unwrap();
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&original.entries, &copy.entries));

        // A write to the copy leaves the original as it was.
        copy.set("tier", Value::Int(3)).unwrap();
        copy.set("extra", Value::Bool(true)).unwrap();
        assert!(!Arc::ptr_eq(&original.entries, &copy.entries));
        assert_eq!(original.get("tier"), Some(&Value::Int(2)));
        assert!(!original.contains("extra"));
        assert_eq!(copy.get("tier"), Some(&Value::Int(3)));

        // And the reverse: a write to the original leaves the copy.
        let mut original = copy.clone();
        assert_eq!(original.remove("region"), Some(Value::from("emea")));
        assert_eq!(original.len(), 2);
        assert_eq!(copy.get("region"), Some(&Value::from("emea")));
        assert_eq!(copy.len(), 3);
    }

    #[test]
    fn removing_an_absent_name_keeps_the_map_shared() {
        let mut original = Properties::new();
        original.set("a", Value::Int(1)).unwrap();
        let mut copy = original.clone();
        assert_eq!(copy.remove("missing"), None);
        assert!(Arc::ptr_eq(&original.entries, &copy.entries));
        assert_eq!(copy, original);
    }

    #[test]
    fn errors_display() {
        let e = PropertyError::InvalidName { name: "9".into() };
        assert!(e.to_string().contains("invalid property name"));
        let e = PropertyError::InvalidType { name: "b".into() };
        assert!(e.to_string().contains("byte arrays"));
    }
}
