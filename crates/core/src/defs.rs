//! Per-record predicates of the paper's formal model.
//!
//! The trace-level definitions live on the incremental checkers that
//! evaluate them one event at a time: Definitions 1–2 (*sent* /
//! *received* messages) on [`crate::stream::TxResolver`], Definitions 3–6
//! (next message, last close, last message, first message) on
//! [`crate::properties::required::RequiredChecker`], and Definition 7
//! (*possibly received* messages) on [`possibly_received`] here. This
//! module holds the predicates those checkers and `jmst-props` share.

use jmst_api::destination::{Destination, EndpointId};
use jmst_api::selector::{EvalValue, Selector};
use jmst_store::event::MessageRecord;

/// Returns `true` if messages sent to `destination` arrive at `endpoint`
/// (ignoring selectors).
pub fn endpoint_covers_destination(endpoint: &EndpointId, destination: &Destination) -> bool {
    match (endpoint, destination) {
        (EndpointId::Queue(queue), Destination::Queue(sent_to)) => queue == sent_to,
        (
            EndpointId::DurableSubscription { topic, .. }
            | EndpointId::NonDurableSubscription { topic, .. },
            Destination::Topic(sent_to),
        ) => topic == sent_to,
        _ => false,
    }
}

/// Evaluates a message selector against a trace record, resolving JMS
/// header fields and user properties exactly as delivery-time evaluation
/// would.
pub fn selector_accepts_record(selector: &Selector, record: &MessageRecord) -> bool {
    selector.matches_with(|name| match name {
        "JMSPriority" => Some(EvalValue::Long(i64::from(record.priority.level()))),
        "JMSDeliveryMode" => Some(EvalValue::Str(if record.delivery_mode.is_persistent() {
            "PERSISTENT".to_owned()
        } else {
            "NON_PERSISTENT".to_owned()
        })),
        "JMSMessageID" => Some(EvalValue::Str(record.message.to_string())),
        "JMSTimestamp" => Some(EvalValue::Long(record.sent_at.as_millis() as i64)),
        _ => record.properties.get(name).map(EvalValue::from_value),
    })
}

/// Definition 7, *Possibly Received Messages*: whether a sent message
/// could legitimately arrive at an end-point. For a queue that is every
/// send to the queue; for a subscription, every publish on the topic it
/// covers. On top of the paper's definition, the end-point's selector (if
/// its consumers agree on one) must also accept the message.
///
/// Property 2 applies this to a subscription's retained topic sends when
/// it evaluates the first→next→last window, so a message the selector
/// rejects is never required.
pub fn possibly_received(
    endpoint: &EndpointId,
    selector: Option<&Selector>,
    record: &MessageRecord,
) -> bool {
    endpoint_covers_destination(endpoint, &record.destination)
        && selector.is_none_or(|s| selector_accepts_record(s, record))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmst_api::destination::QueueName;
    use jmst_api::id::{ConsumerId, MessageId, ProducerId};
    use jmst_api::modes::{DeliveryMode, Priority, TimeToLive};
    use jmst_api::time::Timestamp;
    use jmst_api::value::Value;

    fn record(
        message: u64,
        producer: u64,
        sequence: u64,
        destination: Destination,
    ) -> MessageRecord {
        MessageRecord {
            message: MessageId::from_raw(message),
            producer: ProducerId::from_raw(producer),
            sequence,
            destination,
            priority: Priority::DEFAULT,
            delivery_mode: DeliveryMode::Persistent,
            time_to_live: TimeToLive::FOREVER,
            sent_at: Timestamp::from_millis(sequence),
            body_bytes: 1,
            redelivered: false,
            delivery_count: 1,
            properties: Default::default(),
        }
    }

    fn queue_endpoint() -> EndpointId {
        EndpointId::for_queue(QueueName::new("q"))
    }

    #[test]
    fn endpoint_destination_coverage() {
        let queue = queue_endpoint();
        assert!(endpoint_covers_destination(
            &queue,
            &Destination::queue("q")
        ));
        assert!(!endpoint_covers_destination(
            &queue,
            &Destination::queue("r")
        ));
        assert!(!endpoint_covers_destination(
            &queue,
            &Destination::topic("q")
        ));
        let sub = EndpointId::non_durable("t".into(), ConsumerId::from_raw(1));
        assert!(endpoint_covers_destination(&sub, &Destination::topic("t")));
        assert!(!endpoint_covers_destination(&sub, &Destination::topic("u")));
    }

    #[test]
    fn selector_evaluation_on_records() {
        let selector = Selector::parse("JMSPriority = 4 AND region = 'emea'").unwrap();
        let mut rec = record(1, 1, 0, Destination::topic("t"));
        assert!(!selector_accepts_record(&selector, &rec));
        rec.properties.set("region", Value::from("emea")).unwrap();
        assert!(selector_accepts_record(&selector, &rec));
    }

    #[test]
    fn possibly_received_applies_selector() {
        let sub = EndpointId::non_durable("t".into(), ConsumerId::from_raw(1));
        let selector = Selector::parse("kind = 'a'").unwrap();
        let mut rec = record(1, 1, 0, Destination::topic("t"));
        assert!(possibly_received(&sub, None, &rec));
        assert!(!possibly_received(&sub, Some(&selector), &rec));
        rec.properties.set("kind", Value::from("a")).unwrap();
        assert!(possibly_received(&sub, Some(&selector), &rec));
        let other = record(2, 1, 1, Destination::topic("other"));
        assert!(!possibly_received(&sub, None, &other));
    }
}
