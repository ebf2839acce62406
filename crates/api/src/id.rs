//! Strongly-typed identifiers for every entity in the messaging model.
//!
//! The analysis model of the paper joins trace events on identifiers
//! (message ids, producer ids, consumer-group ids, …), so each identifier is
//! a distinct newtype ([C-NEWTYPE]) rather than a bare integer; mixing a
//! producer id with a consumer id is a compile-time error.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(u64);

        impl $name {
            /// Creates an identifier from its raw numeric value.
            pub const fn from_raw(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw numeric value of the identifier.
            pub const fn as_u64(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "-{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(id: $name) -> u64 {
                id.0
            }
        }
    };
}

define_id!(
    /// Globally unique identifier of a single message.
    ///
    /// In the paper's harness every message carries "the unique message
    /// identifier" that send and receive log records are later joined on;
    /// providers must preserve it end-to-end.
    MessageId,
    "msg"
);
define_id!(
    /// Identifier of a message producer (queue sender or topic publisher).
    ProducerId,
    "prod"
);
define_id!(
    /// Identifier of a message consumer (queue receiver or topic subscriber).
    ConsumerId,
    "cons"
);
define_id!(
    /// Identifier of a session within a connection.
    SessionId,
    "sess"
);
define_id!(
    /// Identifier of a connection to the provider.
    ConnectionId,
    "conn"
);
define_id!(
    /// Identifier of a transaction within a transacted session.
    TxId,
    "tx"
);
define_id!(
    /// Identifier of a harness node (a group of producers/consumers that
    /// share resources such as connections; see §4 of the paper).
    NodeId,
    "node"
);

/// Monotonic generator for fresh identifiers of one id type.
///
/// The generator is lock-free and can be shared between threads; every call
/// to a `next_*` method returns a distinct value.
///
/// # Examples
///
/// ```
/// use jmst_api::id::IdGenerator;
///
/// let generator = IdGenerator::new();
/// let a = generator.next_message_id();
/// let b = generator.next_message_id();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Default)]
pub struct IdGenerator {
    next: AtomicU64,
}

impl IdGenerator {
    /// Creates a generator whose first issued raw value is `0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a generator whose first issued raw value is `start`.
    pub fn starting_at(start: u64) -> Self {
        Self {
            next: AtomicU64::new(start),
        }
    }

    fn bump(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Issues a fresh [`MessageId`].
    pub fn next_message_id(&self) -> MessageId {
        MessageId::from_raw(self.bump())
    }

    /// Issues a fresh [`ProducerId`].
    pub fn next_producer_id(&self) -> ProducerId {
        ProducerId::from_raw(self.bump())
    }

    /// Issues a fresh [`ConsumerId`].
    pub fn next_consumer_id(&self) -> ConsumerId {
        ConsumerId::from_raw(self.bump())
    }

    /// Issues a fresh [`SessionId`].
    pub fn next_session_id(&self) -> SessionId {
        SessionId::from_raw(self.bump())
    }

    /// Issues a fresh [`ConnectionId`].
    pub fn next_connection_id(&self) -> ConnectionId {
        ConnectionId::from_raw(self.bump())
    }

    /// Issues a fresh [`TxId`].
    pub fn next_tx_id(&self) -> TxId {
        TxId::from_raw(self.bump())
    }

    /// Issues a fresh [`NodeId`].
    pub fn next_node_id(&self) -> NodeId {
        NodeId::from_raw(self.bump())
    }
}

/// Identifier of a client as known to the provider.
///
/// Durable subscriptions are named relative to a client identifier, so two
/// clients may both own a durable subscription called `"audit"` without
/// clashing.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClientId(#[serde(with = "crate::shared::arc_str")] Arc<str>);

impl ClientId {
    /// Creates a client identifier from a name.
    ///
    /// # Examples
    ///
    /// ```
    /// use jmst_api::id::ClientId;
    ///
    /// let id = ClientId::new("auditor");
    /// assert_eq!(id.as_str(), "auditor");
    /// ```
    pub fn new(name: impl Into<String>) -> Self {
        Self(name.into().into())
    }

    /// Returns the client name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ClientId {
    fn from(name: &str) -> Self {
        Self(name.into())
    }
}

impl From<String> for ClientId {
    fn from(name: String) -> Self {
        Self(name.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(MessageId::from_raw(3).to_string(), "msg-3");
        assert_eq!(ProducerId::from_raw(0).to_string(), "prod-0");
        assert_eq!(NodeId::from_raw(12).to_string(), "node-12");
    }

    #[test]
    fn ids_round_trip_through_u64() {
        let id = ConsumerId::from_raw(42);
        let raw: u64 = id.into();
        assert_eq!(ConsumerId::from(raw), id);
    }

    #[test]
    fn generator_issues_distinct_ids() {
        let generator = IdGenerator::new();
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(generator.next_message_id()));
        }
    }

    #[test]
    fn generator_starting_at_honours_offset() {
        let generator = IdGenerator::starting_at(100);
        assert_eq!(generator.next_tx_id().as_u64(), 100);
        assert_eq!(generator.next_tx_id().as_u64(), 101);
    }

    #[test]
    fn generator_is_thread_safe() {
        let generator = Arc::new(IdGenerator::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let g = Arc::clone(&generator);
                std::thread::spawn(move || {
                    (0..500).map(|_| g.next_message_id()).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut seen = HashSet::new();
        for handle in handles {
            for id in handle.join().unwrap() {
                assert!(seen.insert(id), "duplicate id issued across threads");
            }
        }
        assert_eq!(seen.len(), 4000);
    }

    #[test]
    fn client_id_conversions() {
        let a: ClientId = "alpha".into();
        let b = ClientId::new(String::from("alpha"));
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "alpha");
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(MessageId::from_raw(1) < MessageId::from_raw(2));
    }
}
