//! The subscriber-host machine through its public surface: in-order
//! release, a link gap, and hostile frames, with the shell's part played
//! by closures and a recorder.

use seqnet_core::proto::trace::{EventKind, NullSink};
use seqnet_core::proto::{Frame, Peer, ProtocolState};
use seqnet_core::{Message, MessageId};
use seqnet_membership::{GroupId, Membership, NodeId};
use seqnet_obs::Recorder;
use seqnet_runtime::{
    ClusterConfig, HostMachine, LinkBody, LinkSnapshot, NodeMachine, Topology, Transmission,
};
use std::convert::Infallible;

fn membership() -> Membership {
    Membership::from_groups([(GroupId(0), vec![NodeId(0), NodeId(1)])])
}

fn config() -> ClusterConfig {
    ClusterConfig::default()
}

/// Publishes messages `0..count` through group 0's sequencing node and
/// returns what it sends `host` after its checkpoint: sequenced
/// distribution frames on the node→host link, in link order.
fn sequenced_for(topo: &Topology, host: NodeId, count: u64) -> Vec<Transmission> {
    let atom = topo.graph.ingress(GroupId(0)).expect("g0 has a path");
    let idx = topo.atom_node[&atom];
    let link = topo.link_between(Peer::Publisher, Peer::Node(idx));
    let mut node = NodeMachine::new(idx, topo, &config(), 0, false);
    for i in 0..count {
        let frame = Frame {
            msg: Message::new(MessageId(i), NodeId(0), GroupId(0), Vec::new()),
            target_atom: Some(atom),
        };
        node.on_link(topo, link, i + 1, LinkBody::Data(frame), &mut NullSink);
    }
    let persist = |_: &ProtocolState, _: &mut LinkSnapshot| Ok::<(), Infallible>(());
    node.snapshot(topo, &mut NullSink, persist)
        .expect("infallible");
    node.drain_outbox()
        .filter(|t| t.to == Peer::Host(host) && matches!(t.body, LinkBody::Data(_)))
        .collect()
}

/// Feeds `t` to `host` untraced and returns the ids it delivered.
fn feed(host: &mut HostMachine, topo: &Topology, t: Transmission) -> Vec<u64> {
    let mut got = Vec::new();
    host.on_link(
        topo,
        t.link,
        t.seq,
        t.body,
        || NullSink,
        |_, msg| got.push(msg.id.0),
    );
    got
}

#[test]
fn in_order_release_delivers_and_acks() {
    let topo = Topology::derive(&membership(), 3);
    let me = NodeId(1);
    let mut host = HostMachine::new(me, &topo, &config());
    let mut trace = Recorder::new();
    let mut got = Vec::new();
    for t in sequenced_for(&topo, me, 2) {
        let (from, seq) = (topo.links[t.link as usize].0, t.seq);
        host.on_link(
            &topo,
            t.link,
            t.seq,
            t.body,
            || &mut trace,
            |to, msg| got.push((to, msg.id.0)),
        );
        let acks: Vec<Transmission> = host.drain_outbox().collect();
        assert_eq!(acks.len(), 1, "every data frame is acked at once");
        assert_eq!((acks[0].to, acks[0].seq), (from, seq));
        assert_eq!(acks[0].body, LinkBody::Ack);
    }
    assert_eq!(got, vec![(me, 0), (me, 1)]);
    assert_eq!(host.receiver().queue().delivered_count(), 2);
    let kinds: Vec<EventKind> = trace.events().iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        [EventKind::Arrive, EventKind::Deliver].repeat(2),
        "the receiver core reported to the shell's sink"
    );
}

#[test]
fn a_link_gap_buffers_then_drains_in_order() {
    let topo = Topology::derive(&membership(), 3);
    let me = NodeId(1);
    let mut host = HostMachine::new(me, &topo, &config());
    let mut frames = sequenced_for(&topo, me, 3);
    let first = frames.remove(0);

    // Frames 2 and 3 overtake frame 1: acked, held by the link receiver,
    // and the shell is never asked for its sink.
    for t in frames {
        host.on_link(
            &topo,
            t.link,
            t.seq,
            t.body,
            || -> NullSink { panic!("nothing was released") },
            |_, msg| panic!("{:?} delivered across a gap", msg.id),
        );
    }
    assert_eq!(host.drain_outbox().count(), 2);
    assert_eq!(host.receiver().queue().delivered_count(), 0);

    // Frame 1 closes the gap and everything drains, in order.
    assert_eq!(feed(&mut host, &topo, first), vec![0, 1, 2]);
    assert_eq!(host.engine().counters().duplicates, 0);
}

#[test]
fn frames_for_an_unknown_link_or_another_party_yield_nothing() {
    let topo = Topology::derive(&membership(), 3);
    let mut host = HostMachine::new(NodeId(1), &topo, &config());
    let to_neighbour = sequenced_for(&topo, NodeId(0), 1).remove(0);

    let off_table = Transmission {
        link: topo.links.len() as u32,
        ..to_neighbour.clone()
    };
    assert_eq!(feed(&mut host, &topo, off_table), Vec::<u64>::new());
    assert_eq!(feed(&mut host, &topo, to_neighbour), Vec::<u64>::new());
    assert_eq!(host.drain_outbox().count(), 0, "not even an ack");
    assert_eq!(host.receiver().queue().delivered_count(), 0);
}
