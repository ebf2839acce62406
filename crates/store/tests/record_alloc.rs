//! Copying a message record allocates nothing.
//!
//! The recorder builds a record for every send and every receive, and the
//! checkers keep copies of records, destinations and end-points. Names
//! and property sets are shared, so each of those copies must cost only
//! reference-count bumps. A counting global allocator (this file is its
//! own test binary) counts the allocations each copy makes on the
//! calling thread.

use jmst_api::body::Body;
use jmst_api::destination::{Destination, EndpointId, QueueName, TopicName};
use jmst_api::id::{ClientId, ConsumerId, MessageId, ProducerId};
use jmst_api::message::{Message, MessageDraft, Stamp};
use jmst_api::time::Timestamp;
use jmst_api::value::Value;
use jmst_store::event::MessageRecord;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local `Cell`, which allocates
// nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread; its result is dropped after the
/// count is taken.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let value = black_box(f());
    let made = ALLOCATIONS.with(Cell::get) - before;
    drop(value);
    made
}

/// A topic message with the harness's two identity properties and two
/// spec-declared ones.
fn message() -> Message {
    MessageDraft::new(Body::text("payload"))
        .property("jmst_producer", Value::Long(1))
        .and_then(|draft| draft.property("jmst_seq", Value::Long(7)))
        .and_then(|draft| draft.property("region", Value::from("emea")))
        .and_then(|draft| draft.property("tier", Value::Int(2)))
        .expect("valid properties")
        .stamp(Stamp {
            id: MessageId::from_raw(1),
            producer: ProducerId::from_raw(1),
            sequence: 7,
            destination: Destination::topic("prices"),
            sent_at: Timestamp::from_millis(3),
        })
}

#[test]
fn the_counter_sees_allocations() {
    assert!(allocations(|| String::from("owned")) >= 1);
}

#[test]
fn record_from_a_message_with_four_properties_allocates_nothing() {
    let message = message();
    assert_eq!(message.properties().len(), 4);
    assert_eq!(allocations(|| MessageRecord::from_message(&message)), 0);
}

#[test]
fn record_clone_allocates_nothing() {
    let record = MessageRecord::from_message(&message());
    assert_eq!(allocations(|| record.clone()), 0);
}

#[test]
fn destination_clone_allocates_nothing() {
    for destination in [Destination::queue("orders"), Destination::topic("prices")] {
        assert_eq!(allocations(|| destination.clone()), 0);
    }
}

#[test]
fn endpoint_clone_allocates_nothing_for_every_variant() {
    let endpoints = [
        EndpointId::for_queue(QueueName::new("orders")),
        EndpointId::durable(TopicName::new("prices"), ClientId::new("auditor"), "audit"),
        EndpointId::non_durable(TopicName::new("prices"), ConsumerId::from_raw(4)),
    ];
    for endpoint in &endpoints {
        assert_eq!(allocations(|| endpoint.clone()), 0, "{endpoint}");
    }
}
