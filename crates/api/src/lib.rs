//! # jmst-api — a JMS-style message-oriented-middleware API model
//!
//! This crate is the foundation of the *jmst* workspace, a reproduction of
//! Kuo & Palmer, **"Automated Analysis of Java Message Service Providers"**
//! (Middleware 2001). It renders the JMS 1.0.2 object model in Rust:
//!
//! * [`message`] — messages, drafts, and provider stamps;
//! * [`body`] — the five JMS body types (text, bytes, map, stream, object);
//! * [`destination`] — queues, topics, and analysis end-points;
//! * [`modes`] — delivery modes, session/acknowledgement modes, priorities
//!   and time-to-live;
//! * [`properties`] / [`value`] — typed user properties;
//! * [`selector`] — the SQL-92-subset message-selector language;
//! * [`provider`] — the object-safe `Provider` / `Connection` / `Session` /
//!   `Producer` / `Consumer` traits every broker in the workspace
//!   implements and the test harness drives;
//! * [`time`] — timestamps and the clock abstraction shared by real-time
//!   and simulated execution;
//! * [`id`] — strongly-typed identifiers.
//!
//! # Examples
//!
//! Build a message the way a harness producer does:
//!
//! ```
//! use jmst_api::prelude::*;
//!
//! let draft = MessageDraft::text("order #1")
//!     .priority(Priority::new(7).expect("valid level"))
//!     .delivery_mode(DeliveryMode::NonPersistent)
//!     .time_to_live(TimeToLive::from_millis(500))
//!     .property("region", Value::from("emea"))?;
//! assert_eq!(draft.body().size_bytes(), 8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod body;
pub mod destination;
pub mod error;
pub mod id;
pub mod message;
pub mod modes;
pub mod properties;
pub mod provider;
pub mod selector;
mod shared;
pub mod time;
pub mod value;

/// Convenient glob-import of the types almost every user needs.
pub mod prelude {
    pub use crate::body::{Body, BodyKind};
    pub use crate::destination::{Destination, EndpointId, QueueName, TopicName};
    pub use crate::error::Error;
    pub use crate::id::{
        ClientId, ConnectionId, ConsumerId, IdGenerator, MessageId, NodeId, ProducerId, SessionId,
        TxId,
    };
    pub use crate::message::{Message, MessageDraft, Stamp};
    pub use crate::modes::{DeliveryMode, Priority, SessionMode, TimeToLive};
    pub use crate::properties::Properties;
    pub use crate::provider::{Connection, Consumer, Producer, Provider, Session};
    pub use crate::selector::Selector;
    pub use crate::time::{Clock, SystemClock, Timestamp};
    pub use crate::value::Value;
}
