//! The shared publish front-end: ids, parking, and the delivery ledger.

use seqnet_core::proto::trace::EventKind;
use seqnet_core::proto::Peer;
use seqnet_core::MessageId;
use seqnet_membership::{GroupId, Membership, NodeId};
use seqnet_obs::Recorder;
use seqnet_runtime::{ClusterConfig, LinkBody, LinkEngine, PublishFront, RuntimeError, Topology};

fn n(i: u32) -> NodeId {
    NodeId(i)
}
fn g(i: u32) -> GroupId {
    GroupId(i)
}

#[test]
fn steady_publishes_inject_and_staged_ones_park_for_the_next_epoch() {
    let m0 = Membership::from_groups([(g(0), vec![n(0), n(1)])]);
    let m1 = Membership::from_groups([(g(0), vec![n(0), n(1)]), (g(1), vec![n(1), n(2), n(3)])]);
    let t0 = Topology::derive(&m0, 1);
    let config = ClusterConfig::default();
    let mut publisher = LinkEngine::new(Peer::Publisher, false, &config);
    let mut trace = Recorder::new();
    let mut front = PublishFront::new();
    let mut publish = |front: &mut PublishFront, sender, group| {
        front.publish(
            &t0,
            &mut publisher,
            &mut trace,
            sender,
            group,
            b"x".to_vec().into(),
        )
    };

    assert_eq!(publish(&mut front, n(0), g(0)), Ok(MessageId(0)));
    assert!(!front.drained(), "two deliveries owed");
    assert_eq!(
        publish(&mut front, n(0), g(1)),
        Err(RuntimeError::UnknownGroup(g(1)))
    );

    assert_eq!(front.begin_reconfigure(&m1, 0), Ok(1));
    assert_eq!(
        front.begin_reconfigure(&m1, 0),
        Err(RuntimeError::ReconfigPending { next_epoch: 1 })
    );
    // Validated against the next membership, and parked.
    assert_eq!(
        publish(&mut front, n(3), g(1)),
        Ok(MessageId(1)),
        "the rejected publish consumed no id"
    );
    assert_eq!(front.parked_publishes(), 1);
    assert_eq!(
        publish(&mut front, n(0), g(9)),
        Err(RuntimeError::UnknownGroup(g(9)))
    );
    // Only the steady publish reached the publisher's link.
    let sent: Vec<_> = publisher.drain_outbox().collect();
    assert_eq!(sent.len(), 1);
    assert!(matches!(&sent[0].body, LinkBody::Data(f) if f.msg.id == MessageId(0)));
    assert_eq!(trace.events().len(), 1);
    assert_eq!(trace.events()[0].msg, Some(0));

    assert_eq!(
        front.drain_timeout(),
        RuntimeError::Timeout {
            expected: 2,
            received: 0
        }
    );
    front.note_delivery();
    front.note_delivery();
    assert!(front.drained());

    let pending = front.take_pending().expect("staged");
    assert!(front.take_pending().is_none());
    let t1 = Topology::derive(&pending.membership, 1);
    let mut publisher = LinkEngine::new(Peer::Publisher, false, &config);
    front.activate(1, &t1, &mut publisher, &mut trace, pending.parked);
    let sent: Vec<_> = publisher.drain_outbox().collect();
    assert_eq!(sent.len(), 1, "the parked publish was injected");
    assert!(matches!(&sent[0].body, LinkBody::Data(f) if f.msg.id == MessageId(1)));
    let kinds: Vec<EventKind> = trace.events().iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        [
            EventKind::Publish,
            EventKind::EpochAdvance,
            EventKind::Publish
        ]
    );
    assert!(!front.drained(), "the parked publish owes three deliveries");
    assert_eq!((front.publishes_steady(), front.publishes_parked()), (1, 1));
}
