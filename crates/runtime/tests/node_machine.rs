//! The sequencing-node machine through its public surface: the
//! group-commit gate, restore, and failure detection, with the shell's
//! part played by closures and a recorder.

use seqnet_core::proto::trace::{EventKind, NullSink};
use seqnet_core::proto::{Frame, Peer, ProtocolState};
use seqnet_core::{Message, MessageId};
use seqnet_membership::{GroupId, Membership, NodeId};
use seqnet_obs::Recorder;
use seqnet_runtime::{
    ClusterConfig, LinkBody, LinkSnapshot, NodeMachine, Topology, Transmission, UnknownLink,
};
use std::convert::Infallible;
use std::time::{Duration, Instant};

fn membership() -> Membership {
    Membership::from_groups([
        (GroupId(0), vec![NodeId(0), NodeId(1), NodeId(2)]),
        (GroupId(1), vec![NodeId(1), NodeId(2), NodeId(3)]),
    ])
}

fn config() -> ClusterConfig {
    ClusterConfig::default()
}

/// The ingress node of group 0, its publisher link, and a publish
/// frame addressed to it.
fn ingress(topo: &Topology) -> (usize, u32, Frame) {
    let atom = topo.graph.ingress(GroupId(0)).expect("g0 has a path");
    let idx = topo.atom_node[&atom];
    let link = topo.link_between(Peer::Publisher, Peer::Node(idx));
    let frame = Frame {
        msg: Message::new(MessageId(7), NodeId(0), GroupId(0), Vec::new()),
        target_atom: Some(atom),
    };
    (idx, link, frame)
}

fn ok(_: &ProtocolState, _: &mut LinkSnapshot) -> Result<(), Infallible> {
    Ok(())
}

#[test]
fn nothing_escapes_before_a_persisted_snapshot() {
    let topo = Topology::derive(&membership(), 3);
    let (idx, link, frame) = ingress(&topo);
    let mut node = NodeMachine::new(idx, &topo, &config(), 0, false);
    assert_eq!(
        node.snapshot(&topo, &mut NullSink, ok),
        Ok(false),
        "an idle node takes no checkpoint"
    );

    node.on_link(&topo, link, 1, LinkBody::Data(frame), &mut NullSink);
    assert!(
        node.engine().staged_len() > 0,
        "the core's output was staged"
    );
    assert_eq!(
        node.drain_outbox().count(),
        0,
        "staged, not sent; not acked"
    );

    // A failed persist releases nothing.
    let failed = node.snapshot(&topo, &mut NullSink, |_, _| Err("disk full"));
    assert_eq!(failed, Err("disk full"));
    assert_eq!(node.drain_outbox().count(), 0);
    assert_eq!(node.counters().snapshots, 0);

    // A successful one flushes the staged frames and acks upstream.
    let mut seen = None;
    let mut trace = Recorder::new();
    let taken = node.snapshot(&topo, &mut trace, |_, links| {
        seen = Some(links.clone());
        Ok::<(), Infallible>(())
    });
    assert_eq!(taken, Ok(true));
    let links = seen.expect("persist ran");
    assert_eq!(links.rx_next, vec![(link, 2)]);
    assert!(links.tx.iter().any(|tx| !tx.frames.is_empty()));
    let out: Vec<Transmission> = node.drain_outbox().collect();
    assert!(out.iter().any(|t| matches!(t.body, LinkBody::Data(_))));
    assert!(out
        .iter()
        .any(|t| t.to == Peer::Publisher && t.body == LinkBody::AckThrough && t.seq == 1));
    assert_eq!(node.engine().staged_len(), 0);
    assert_eq!(node.counters().snapshots, 1);
    assert!(trace
        .events()
        .iter()
        .any(|e| e.kind == EventKind::SnapshotFlush));
    assert_eq!(
        node.snapshot(&topo, &mut NullSink, ok),
        Ok(false),
        "clean again"
    );
}

/// The commit rule has no clock in it: a machine that released a frame
/// commits at the very next call, one that released nothing never calls
/// `persist`, and `next_deadline` says so to a shell that sleeps on it.
#[test]
fn a_released_frame_commits_at_once_and_an_idle_machine_never_persists() {
    let topo = Topology::derive(&membership(), 3);
    let (idx, link, frame) = ingress(&topo);
    let mut node = NodeMachine::new(idx, &topo, &config(), 0, false);
    let never = |_: &ProtocolState, _: &mut LinkSnapshot| -> Result<(), Infallible> {
        panic!("an idle machine has nothing to persist")
    };
    for _ in 0..3 {
        assert_eq!(node.snapshot(&topo, &mut NullSink, never), Ok(false));
    }
    assert!(
        node.next_deadline().is_none_or(|at| at > Instant::now()),
        "nothing is due on an idle machine but its timers"
    );

    for seq in 1..=3 {
        let arrived = Instant::now();
        let body = LinkBody::Data(frame.clone());
        node.on_link(&topo, link, seq, body, &mut NullSink);
        let due = node.next_deadline().expect("a commit is due");
        assert!(due <= Instant::now(), "due now, not an interval from now");
        assert_eq!(node.snapshot(&topo, &mut NullSink, ok), Ok(true));
        assert!(
            arrived.elapsed() < Duration::from_millis(3),
            "no wall-clock wait is part of the rule"
        );
        assert_eq!(node.counters().snapshots, seq);
        assert!(node.drain_outbox().count() >= 2, "data out, ack back");
        assert_eq!(node.snapshot(&topo, &mut NullSink, never), Ok(false));
    }
}

/// `persist` failing leaves everything where it was — staged, unacked,
/// due — and the next success releases it all exactly once.
#[test]
fn a_failed_persist_keeps_the_machine_due_and_the_retry_releases_once() {
    let topo = Topology::derive(&membership(), 3);
    let (idx, link, frame) = ingress(&topo);
    let mut node = NodeMachine::new(idx, &topo, &config(), 0, false);
    node.on_link(&topo, link, 1, LinkBody::Data(frame.clone()), &mut NullSink);
    node.on_link(&topo, link, 2, LinkBody::Data(frame), &mut NullSink);
    let staged = node.engine().staged_len();
    assert!(staged >= 2);

    for _ in 0..2 {
        let failed = node.snapshot(&topo, &mut NullSink, |_, _| Err("disk full"));
        assert_eq!(failed, Err("disk full"));
        assert_eq!(node.drain_outbox().count(), 0, "no frame, no ack");
        assert_eq!(node.engine().staged_len(), staged);
        assert_eq!(node.counters().snapshots, 0);
        let due = node.next_deadline().expect("still owes a commit");
        assert!(due <= Instant::now());
    }

    assert_eq!(node.snapshot(&topo, &mut NullSink, ok), Ok(true));
    let out: Vec<Transmission> = node.drain_outbox().collect();
    let data = out
        .iter()
        .filter(|t| matches!(t.body, LinkBody::Data(_)))
        .count();
    assert_eq!(data, staged, "every staged frame, once");
    let acks: Vec<&Transmission> = out
        .iter()
        .filter(|t| t.body == LinkBody::AckThrough)
        .collect();
    assert_eq!(acks.len(), 1);
    assert_eq!((acks[0].to, acks[0].seq), (Peer::Publisher, 2));
    assert_eq!(node.snapshot(&topo, &mut NullSink, ok), Ok(false));
    assert_eq!(node.drain_outbox().count(), 0, "and not again");
}

/// Acknowledgments change nothing a checkpoint records: a machine that
/// only heard acks is not due and does not commit.
#[test]
fn acks_alone_do_not_make_the_machine_due() {
    let topo = Topology::derive(&membership(), 3);
    let (idx, link, frame) = ingress(&topo);
    let mut node = NodeMachine::new(idx, &topo, &config(), 0, false);
    node.on_link(&topo, link, 1, LinkBody::Data(frame), &mut NullSink);
    assert_eq!(node.snapshot(&topo, &mut NullSink, ok), Ok(true));
    let sent: Vec<Transmission> = node
        .drain_outbox()
        .filter(|t| matches!(t.body, LinkBody::Data(_)))
        .collect();
    assert!(!sent.is_empty());

    for t in &sent {
        node.on_link(&topo, t.link, t.seq, LinkBody::Ack, &mut NullSink);
    }
    assert!(
        node.next_deadline().is_none_or(|at| at > Instant::now()),
        "acks released nothing: only timers are left"
    );
    let persisted = node.snapshot(&topo, &mut NullSink, |_, _| -> Result<(), Infallible> {
        panic!("nothing to persist")
    });
    assert_eq!(persisted, Ok(false));
    assert_eq!(node.counters().snapshots, 1);
}

#[test]
fn restore_resumes_floors_and_counts_the_replay() {
    let topo = Topology::derive(&membership(), 3);
    let (idx, link, frame) = ingress(&topo);
    let mut first = NodeMachine::new(idx, &topo, &config(), 0, false);
    first.on_link(&topo, link, 1, LinkBody::Data(frame.clone()), &mut NullSink);
    let mut saved = None;
    first
        .snapshot(&topo, &mut NullSink, |protocol, links| {
            saved = Some((protocol.clone(), links.clone()));
            Ok::<(), Infallible>(())
        })
        .expect("infallible");
    let (protocol, links) = saved.expect("persist ran");

    let mut second = NodeMachine::new(idx, &topo, &config(), 0, true);
    second.restore(&topo, protocol, &links).expect("own links");
    // The checkpointed frame again: a duplicate, answered with the
    // restored floor; the next one is replayed input.
    second.on_link(&topo, link, 1, LinkBody::Data(frame.clone()), &mut NullSink);
    let readvertised: Vec<Transmission> = second.drain_outbox().collect();
    assert!(readvertised
        .iter()
        .any(|t| t.body == LinkBody::AckThrough && t.seq == 1));
    second.on_link(&topo, link, 2, LinkBody::Data(frame), &mut NullSink);
    assert_eq!(
        second.counters().frames_replayed,
        1,
        "in-progress replay counts"
    );
    second
        .snapshot(&topo, &mut NullSink, ok)
        .expect("infallible");
    let acks: Vec<Transmission> = second
        .drain_outbox()
        .filter(|t| t.body == LinkBody::AckThrough)
        .collect();
    assert_eq!(acks.len(), 1);
    assert_eq!(acks[0].seq, 2, "only real progress is acked");
    assert_eq!(second.recovery_stats().frames_replayed, 1);

    let foreign = LinkSnapshot {
        rx_next: vec![(u32::MAX, 1)],
        tx: Vec::new(),
    };
    assert_eq!(
        second.restore(&topo, ProtocolState::new(&topo.graph), &foreign),
        Err(UnknownLink(u32::MAX))
    );
}

#[test]
fn tick_heartbeats_and_suspects_silent_upstream_peers() {
    // Two double overlaps with disjoint member sets are never
    // co-located, and g0's path crosses both: a node-to-node link.
    let chain = Membership::from_groups([
        (
            GroupId(0),
            vec![NodeId(0), NodeId(1), NodeId(10), NodeId(11)],
        ),
        (GroupId(1), vec![NodeId(0), NodeId(1), NodeId(2)]),
        (GroupId(2), vec![NodeId(10), NodeId(11), NodeId(12)]),
    ]);
    let topo = Topology::derive(&chain, 5);
    let idx = (0..topo.num_nodes)
        .find(|&i| !topo.heartbeat_plan(i).0.is_empty())
        .expect("the downstream node watches the upstream one");
    let (watched, _) = topo.heartbeat_plan(idx);
    let peer = *watched.iter().next().expect("non-empty");
    let config = ClusterConfig::default();
    let mut node = NodeMachine::new(idx, &topo, &config, 0, false);
    let start = Instant::now();
    assert!(node.tick(&topo, start, &mut NullSink).is_empty());

    let silence = config.heartbeat_interval * config.heartbeat_miss_threshold;
    let mut trace = Recorder::new();
    let late = Instant::now() + silence;
    assert!(node.tick(&topo, late, &mut trace).contains(&peer));
    assert!(
        node.tick(&topo, late, &mut trace).is_empty(),
        "suspected once, not every tick"
    );
    assert_eq!(node.counters().heartbeat_misses, watched.len() as u64);
    assert!(trace
        .events()
        .iter()
        .any(|e| e.kind == EventKind::HeartbeatMiss && e.detail == Some(peer as u64)));

    // Any frame from the peer clears the suspicion.
    let link = topo.link_between(Peer::Node(peer), Peer::Node(idx));
    let mut upstream = NodeMachine::new(peer, &topo, &config, 0, false);
    upstream.tick(
        &topo,
        Instant::now() + config.heartbeat_interval,
        &mut NullSink,
    );
    let beat = upstream.drain_outbox().next().expect("a heartbeat is due");
    assert_eq!(
        (beat.to, beat.link, beat.seq, &beat.body),
        (Peer::Node(idx), link, 0, &LinkBody::Heartbeat)
    );
    node.on_link(&topo, beat.link, beat.seq, beat.body, &mut NullSink);
    assert!(node.tick(&topo, Instant::now(), &mut NullSink).is_empty());
    let later = Instant::now() + silence;
    assert!(node.tick(&topo, later, &mut NullSink).contains(&peer));
}
