//! Error paths of quiescent reconfiguration and the dynamic facade.

use seqnet::core::{CoreError, DynamicOrderedPubSub, OrderedPubSub};
use seqnet::membership::{GroupId, Membership, NodeId};
use seqnet::obs::{EventKind, Recorder, TraceEvent};
use seqnet::overlap::GraphBuilder;
use std::sync::{Arc, Mutex};

fn n(i: u32) -> NodeId {
    NodeId(i)
}
fn g(i: u32) -> GroupId {
    GroupId(i)
}

fn base_membership() -> Membership {
    Membership::from_groups([(g(0), vec![n(0), n(1)])])
}

#[test]
fn reconfigure_rejects_pending_events() {
    let m = base_membership();
    let mut bus = OrderedPubSub::new(&m);
    bus.publish(n(0), g(0), vec![]).unwrap();
    // Do NOT drain: events are pending.
    let err = bus
        .reconfigure(&m, GraphBuilder::new().build(&m))
        .unwrap_err();
    match err {
        CoreError::NotQuiescent { pending_events, .. } => assert!(pending_events > 0),
        other => panic!("expected NotQuiescent, got {other}"),
    }
    // Draining first makes the same reconfiguration legal.
    bus.run_to_quiescence();
    bus.reconfigure(&m, GraphBuilder::new().build(&m)).unwrap();
}

#[test]
fn reconfigure_rejects_graphs_missing_paths() {
    let m = base_membership();
    let mut bus = OrderedPubSub::new(&m);
    let mut grown = m.clone();
    grown.subscribe(n(2), g(1));
    grown.subscribe(n(3), g(1));
    // Graph built for the OLD membership has no path for the new group.
    let stale_graph = GraphBuilder::new().build(&m);
    let err = bus.reconfigure(&grown, stale_graph).unwrap_err();
    assert!(matches!(err, CoreError::InvalidGraph(_)), "{err}");
}

#[test]
fn reconfigure_to_grown_membership_works() {
    let m = base_membership();
    let mut bus = OrderedPubSub::new(&m);
    bus.publish(n(0), g(0), vec![]).unwrap();
    bus.run_to_quiescence();

    let mut grown = m.clone();
    grown.subscribe(n(0), g(1));
    grown.subscribe(n(1), g(1));
    bus.reconfigure(&grown, GraphBuilder::new().build(&grown))
        .unwrap();

    bus.publish(n(0), g(0), vec![]).unwrap();
    bus.publish(n(1), g(1), vec![]).unwrap();
    bus.run_to_quiescence();
    assert_eq!(bus.stuck_messages(), 0);
    assert_eq!(bus.delivered(n(0)).len(), 3);
    // Order agreement survives the reconfiguration.
    let o0: Vec<_> = bus.delivered(n(0)).iter().map(|d| d.id).collect();
    let o1: Vec<_> = bus.delivered(n(1)).iter().map(|d| d.id).collect();
    assert_eq!(o0, o1);
}

/// ISSUE 8 satellite regression: the quiescent reconfigure path must
/// return a structured error — never silently rebuild — when invoked
/// with messages in flight, and a staged online handoff blocks further
/// configuration changes with [`CoreError::ReconfigPending`].
#[test]
fn quiescent_reconfigure_is_rejected_while_a_handoff_is_pending() {
    let m = base_membership();
    let mut bus = OrderedPubSub::new(&m);
    bus.publish(n(0), g(0), vec![]).unwrap();

    let mut grown = m.clone();
    grown.subscribe(n(2), g(0));
    assert_eq!(
        bus.begin_reconfigure(&grown, GraphBuilder::new().build(&grown))
            .unwrap(),
        1
    );
    // Both the quiescent path and a second online staging are refused
    // while the handoff is pending, naming the epoch that is on its way.
    let err = bus
        .reconfigure(&grown, GraphBuilder::new().build(&grown))
        .unwrap_err();
    assert_eq!(err, CoreError::ReconfigPending { next_epoch: 1 });
    let err = bus
        .begin_reconfigure(&grown, GraphBuilder::new().build(&grown))
        .unwrap_err();
    assert_eq!(err, CoreError::ReconfigPending { next_epoch: 1 });

    bus.run_to_quiescence();
    assert!(!bus.reconfig_pending());
    assert_eq!(bus.epoch(), 1);
}

/// Publishes once, drains, then grows the group through `handoff` on a
/// traced bus; returns the bus and the recorded stream.
fn traced_handoff(
    handoff: impl FnOnce(&mut OrderedPubSub, &Membership),
) -> (OrderedPubSub, Vec<TraceEvent>) {
    let m = base_membership();
    let mut bus = OrderedPubSub::new(&m);
    let rec = Arc::new(Mutex::new(Recorder::new()));
    bus.set_trace_sink(rec.clone());
    bus.publish(n(0), g(0), vec![]).unwrap();
    bus.run_to_quiescence();
    let mut grown = m.clone();
    grown.subscribe(n(2), g(0));
    handoff(&mut bus, &grown);
    let events = rec.lock().unwrap().events().to_vec();
    (bus, events)
}

/// Every epoch step is announced on the trace stream, whichever path
/// took it: a quiescent `reconfigure` emits exactly one `EpochAdvance`
/// carrying the new epoch — consumers that track the epoch from events
/// (the Prometheus epoch families, span reconstruction) depend on it —
/// and the stream is the one `begin_reconfigure` + `run_to_quiescence`
/// produces on a drained bus.
#[test]
fn quiescent_reconfigure_announces_the_epoch_like_the_live_path() {
    let (bus, quiescent) = traced_handoff(|bus, grown| {
        bus.reconfigure(grown, GraphBuilder::new().build(grown))
            .unwrap();
    });
    let advances: Vec<&TraceEvent> = quiescent
        .iter()
        .filter(|e| e.kind == EventKind::EpochAdvance)
        .collect();
    assert_eq!(advances.len(), 1, "one EpochAdvance per epoch step");
    assert_eq!(bus.epoch(), 1);
    assert_eq!(advances[0].detail, Some(bus.epoch()));
    assert_eq!(
        quiescent.last().map(|e| e.kind),
        Some(EventKind::EpochAdvance)
    );

    let (_, live) = traced_handoff(|bus, grown| {
        bus.begin_reconfigure(grown, GraphBuilder::new().build(grown))
            .unwrap();
        bus.run_to_quiescence();
    });
    assert_eq!(quiescent, live);
}

/// The dynamic facade surfaces the same structured error with in-flight
/// counts, and a rejected change leaves the membership untouched.
#[test]
fn dynamic_facade_returns_not_quiescent_with_counts() {
    let mut bus = DynamicOrderedPubSub::new();
    bus.join(n(0), g(0)).unwrap();
    bus.join(n(1), g(0)).unwrap();
    bus.publish(n(0), g(0), vec![]).unwrap();

    let err = bus.join(n(2), g(0)).unwrap_err();
    match err {
        CoreError::NotQuiescent {
            pending_events,
            buffered_messages,
        } => {
            assert!(pending_events > 0 || buffered_messages > 0);
        }
        other => panic!("expected NotQuiescent, got {other}"),
    }
    assert!(
        !bus.membership().is_member(n(2), g(0)),
        "a rejected join must not mutate the membership"
    );

    bus.run_to_quiescence();
    bus.join(n(2), g(0)).unwrap();
    assert!(bus.membership().is_member(n(2), g(0)));
}

#[test]
fn reconfigure_drops_departed_subscribers() {
    let m = Membership::from_groups([(g(0), vec![n(0), n(1), n(2)])]);
    let mut bus = OrderedPubSub::new(&m);
    bus.publish(n(0), g(0), vec![]).unwrap();
    bus.run_to_quiescence();

    let mut shrunk = Membership::from_groups([(g(0), vec![n(0), n(1)])]);
    bus.reconfigure(&shrunk, GraphBuilder::new().build(&shrunk))
        .unwrap();
    bus.publish(n(0), g(0), vec![]).unwrap();
    bus.run_to_quiescence();
    assert_eq!(bus.delivered(n(2)).len(), 1, "history kept, no new messages");
    assert_eq!(bus.delivered(n(0)).len(), 2);
    // Re-joining later restarts from "now".
    shrunk.subscribe(n(2), g(0));
    bus.reconfigure(&shrunk, GraphBuilder::new().build(&shrunk))
        .unwrap();
    bus.publish(n(1), g(0), vec![]).unwrap();
    bus.run_to_quiescence();
    assert_eq!(bus.stuck_messages(), 0);
    assert_eq!(bus.delivered(n(2)).len(), 2);
}
