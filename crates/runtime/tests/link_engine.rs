//! The reliable-link engine through its public surface: scripted
//! exchanges between engines, asserting on the outboxes.

use seqnet_core::proto::{Frame, Peer};
use seqnet_core::{Message, MessageId};
use seqnet_membership::{GroupId, Membership, NodeId};
use seqnet_runtime::{
    ClusterConfig, LinkBody, LinkEngine, LinkSnapshot, Topology, Transmission, TxLinkSnapshot,
    UnknownLink,
};
use std::time::Duration;

fn topo() -> Topology {
    Topology::derive(
        &Membership::from_groups([
            (GroupId(0), vec![NodeId(0), NodeId(1), NodeId(2)]),
            (GroupId(1), vec![NodeId(1), NodeId(2), NodeId(3)]),
        ]),
        11,
    )
}

fn frame(id: u64) -> Frame {
    Frame {
        msg: Message::new(MessageId(id), NodeId(0), GroupId(0), Vec::new()),
        target_atom: None,
    }
}

fn config() -> ClusterConfig {
    ClusterConfig {
        retransmit_timeout: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(100),
        ..ClusterConfig::default()
    }
}

fn engine(me: Peer, defer: bool) -> LinkEngine {
    LinkEngine::new(me, defer, &config())
}

fn ingress(t: &Topology) -> Peer {
    t.links
        .iter()
        .find(|(f, _)| *f == Peer::Publisher)
        .expect("publisher link")
        .1
}

fn outbox(e: &mut LinkEngine) -> Vec<Transmission> {
    e.drain_outbox().collect()
}

/// Feeds `t` to `e`, returning the released payloads.
fn deliver(e: &mut LinkEngine, topo: &Topology, t: Transmission) -> Vec<Frame> {
    let mut out = Vec::new();
    e.on_link(topo, t.link, t.seq, t.body, &mut out);
    out
}

#[test]
fn publisher_traffic_flows_and_is_acked() {
    let t = topo();
    let ingress = ingress(&t);
    let mut publisher = engine(Peer::Publisher, false);
    let mut node = engine(ingress, true);
    publisher.send_data(&t, ingress, frame(1));
    let mut sent = outbox(&mut publisher);
    assert_eq!(sent.len(), 1);
    let tx = sent.pop().expect("one");
    assert_eq!(tx.to, ingress);
    let seq = tx.seq;
    let delivered = deliver(&mut node, &t, tx);
    assert_eq!(delivered.len(), 1);
    assert_eq!(delivered[0].msg.id, MessageId(1));
    // Deferred acks: the node sent nothing back yet.
    assert!(outbox(&mut node).is_empty());
    // Snapshot time: the node acks through the received prefix.
    node.send_ack_through(&t, Peer::Publisher, seq);
    let mut acks = outbox(&mut node);
    assert_eq!(acks.len(), 1);
    let ack = acks.pop().expect("ack");
    assert_eq!(ack.to, Peer::Publisher);
    assert_eq!(ack.body, LinkBody::AckThrough);
    deliver(&mut publisher, &t, ack);
    std::thread::sleep(Duration::from_millis(12));
    publisher.retransmit_due(&t);
    assert!(
        outbox(&mut publisher).is_empty(),
        "acked frame must not retransmit"
    );
}

#[test]
fn snapshot_roundtrip_restores_sender_and_receiver_state() {
    let t = topo();
    let ingress = ingress(&t);
    let mut node = engine(ingress, true);
    let link = t.link_between(Peer::Publisher, ingress);
    // Receive two frames, stage one output.
    let mut sink = Vec::new();
    node.on_link(&t, link, 1, LinkBody::Data(frame(1)), &mut sink);
    node.on_link(&t, link, 2, LinkBody::Data(frame(2)), &mut sink);
    let host_link = t
        .links
        .iter()
        .position(|(f, _)| *f == ingress)
        .expect("outgoing link") as u32;
    let to = t.links[host_link as usize].1;
    node.send_data_held(&t, to, frame(3));
    let mut snap = LinkSnapshot::default();
    node.snapshot_links_into(&mut snap);
    assert!(
        snap.rx_next.contains(&(link, 3)),
        "next expected is 3: {snap:?}"
    );
    let staged = snap.tx.iter().find(|tx| tx.link == host_link).expect("tx");
    assert_eq!((staged.next_seq, staged.frames.len()), (2, 1));
    assert_eq!(node.rx_next_by_peer(&t), vec![(Peer::Publisher, 3)]);
    // Snapshotting again into the same buffers reproduces it exactly.
    let first = snap.clone();
    node.snapshot_links_into(&mut snap);
    assert_eq!(snap, first);

    let mut restored = engine(ingress, true);
    restored.restore_links(&t, &snap).expect("own links");
    // Duplicate of an already-snapshotted frame: dropped, and the
    // stale-retransmission rule re-advertises the restored floor.
    let out = deliver(
        &mut restored,
        &t,
        Transmission {
            to: ingress,
            link,
            seq: 1,
            body: LinkBody::Data(frame(1)),
        },
    );
    assert!(out.is_empty(), "below-floor frame is a duplicate");
    assert_eq!(restored.counters().duplicates, 1);
    let msgs = outbox(&mut restored);
    assert!(
        msgs.iter()
            .any(|m| m.body == LinkBody::AckThrough && m.seq == 2 && m.to == Peer::Publisher),
        "floor re-advertised: {msgs:?}"
    );
    // The restored staged frame is due for retransmission.
    std::thread::sleep(Duration::from_millis(12));
    restored.retransmit_due(&t);
    let due = outbox(&mut restored);
    assert!(
        due.iter()
            .any(|m| m.seq == 1 && m.link == host_link && matches!(m.body, LinkBody::Data(_))),
        "restored tx frame retransmits: {due:?}"
    );
    assert_eq!(restored.counters().retransmissions, 1);
}

#[test]
fn reconnect_replay_runs_once_per_epoch() {
    let t = topo();
    let ingress = ingress(&t);
    let mut publisher = engine(Peer::Publisher, false);
    publisher.send_data(&t, ingress, frame(1));
    publisher.send_data(&t, ingress, frame(2));
    let _ = outbox(&mut publisher);
    publisher.reconnect_replay_to(&t, 1, |p| p == ingress);
    assert_eq!(
        outbox(&mut publisher).len(),
        2,
        "both unacked frames replay"
    );
    publisher.reconnect_replay_to(&t, 1, |p| p == ingress);
    assert!(
        outbox(&mut publisher).is_empty(),
        "same epoch replays nothing"
    );
    publisher.reconnect_replay_to(&t, 2, |_| false);
    assert!(
        outbox(&mut publisher).is_empty(),
        "other parties' links stay quiet"
    );
    publisher.reconnect_replay_to(&t, 2, |p| p == ingress);
    assert_eq!(outbox(&mut publisher).len(), 2, "new epoch replays again");
}

/// The same scripted exchange — two data frames down the publisher
/// link, then a batch — under both ack disciplines.
fn scripted_exchange(defer: bool) -> Vec<Transmission> {
    let t = topo();
    let ingress = ingress(&t);
    let link = t.link_between(Peer::Publisher, ingress);
    let mut node = engine(ingress, defer);
    let mut out = Vec::new();
    node.on_link(&t, link, 1, LinkBody::Data(frame(1)), &mut out);
    node.on_link(&t, link, 2, LinkBody::Data(frame(2)), &mut out);
    node.on_link(
        &t,
        link,
        3,
        LinkBody::DataBatch(vec![frame(3), frame(4)]),
        &mut out,
    );
    assert_eq!(out.len(), 4, "all four frames released in order");
    if defer {
        node.send_ack_through(&t, Peer::Publisher, 4);
    }
    outbox(&mut node)
}

#[test]
fn ack_discipline_decides_the_outbox_sequence() {
    let shape = |out: &[Transmission]| -> Vec<(u64, LinkBody)> {
        out.iter().map(|m| (m.seq, m.body.clone())).collect()
    };
    // Immediate: one ack per single frame, one cumulative per batch.
    assert_eq!(
        shape(&scripted_exchange(false)),
        vec![
            (1, LinkBody::Ack),
            (2, LinkBody::Ack),
            (4, LinkBody::AckThrough)
        ]
    );
    // Deferred: silence until the snapshot's single cumulative ack.
    assert_eq!(
        shape(&scripted_exchange(true)),
        vec![(4, LinkBody::AckThrough)]
    );
}

#[test]
fn coalesced_flush_sends_singles_bare_and_runs_batched_in_order() {
    let t = topo();
    let ingress = ingress(&t);
    let outgoing: Vec<Peer> = t
        .links
        .iter()
        .filter(|(f, _)| *f == ingress)
        .map(|&(_, to)| to)
        .collect();
    assert!(outgoing.len() >= 2, "fixture has two outgoing links");
    let mut node = LinkEngine::new(
        ingress,
        true,
        &ClusterConfig {
            coalesce: true,
            ..config()
        },
    );
    node.send_data_held(&t, outgoing[0], frame(1));
    node.send_data_held(&t, outgoing[1], frame(2));
    node.send_data_held(&t, outgoing[1], frame(3));
    assert_eq!(node.staged_len(), 3);
    assert!(
        outbox(&mut node).is_empty(),
        "nothing escapes before the flush"
    );
    node.flush_staged(&t);
    assert_eq!(node.staged_len(), 0);
    let sent = outbox(&mut node);
    assert_eq!(sent.len(), 2, "one wire write per link");
    assert_eq!((sent[0].to, sent[0].seq), (outgoing[0], 1));
    assert!(
        matches!(sent[0].body, LinkBody::Data(_)),
        "a run of one stays bare"
    );
    assert_eq!((sent[1].to, sent[1].seq), (outgoing[1], 1));
    assert!(matches!(&sent[1].body, LinkBody::DataBatch(v) if v.len() == 2));
    assert_eq!(node.counters().frames_sent, 3);
    assert_eq!(
        node.batch_sizes()
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect::<Vec<_>>(),
        vec![(1, 1), (2, 1)]
    );
}

#[test]
fn uncoalesced_flush_sends_every_frame_on_its_own_in_sequence_order() {
    let t = topo();
    let ingress = ingress(&t);
    let to = t
        .links
        .iter()
        .find(|(f, _)| *f == ingress)
        .expect("an outgoing link")
        .1;
    let mut node = engine(ingress, true);
    for id in 1..=3 {
        node.send_data_held(&t, to, frame(id));
    }
    node.flush_staged(&t);
    let sent = outbox(&mut node);
    assert_eq!(
        sent.iter().map(|m| m.seq).collect::<Vec<_>>(),
        vec![1, 2, 3]
    );
    assert!(sent.iter().all(|m| matches!(m.body, LinkBody::Data(_))));
    // Released: the frames are on the retransmission schedule now.
    std::thread::sleep(Duration::from_millis(12));
    node.retransmit_due(&t);
    assert_eq!(outbox(&mut node).len(), 3);
}

#[test]
fn heartbeats_are_subject_to_loss_injection() {
    let mut node = LinkEngine::new(
        Peer::Node(0),
        true,
        &ClusterConfig {
            drop_probability: 0.5,
            seed: 9,
            ..config()
        },
    );
    for _ in 0..200 {
        node.heartbeat(Peer::Node(1), 0);
    }
    let through = outbox(&mut node).len() as u64;
    let dropped = node.counters().frames_dropped;
    assert_eq!(through + dropped, 200);
    assert!(
        dropped > 50 && through > 50,
        "{dropped} dropped, {through} through"
    );
    assert_eq!(node.counters().frames_sent, 0, "heartbeats are not data");
}

#[test]
fn hostile_link_frames_are_discarded() {
    let t = topo();
    let ingress = ingress(&t);
    let link = t.link_between(Peer::Publisher, ingress);
    let mut node = engine(ingress, true);
    let mut out = Vec::new();
    // Out-of-range link id.
    assert_eq!(
        node.on_link(
            &t,
            t.links.len() as u32,
            1,
            LinkBody::Data(frame(1)),
            &mut out
        ),
        0
    );
    assert_eq!(
        node.on_link(&t, u32::MAX, 1, LinkBody::AckThrough, &mut out),
        0
    );
    // A real link whose data direction ends elsewhere.
    let foreign = t
        .links
        .iter()
        .position(|&(_, to)| to != ingress)
        .expect("a link into another party") as u32;
    assert_eq!(
        node.on_link(&t, foreign, 1, LinkBody::Data(frame(1)), &mut out),
        0
    );
    // An ack for a link this party only receives on.
    assert_eq!(node.on_link(&t, link, 1, LinkBody::Ack, &mut out), 0);
    // A batch whose sequence range overflows, and an empty one.
    assert_eq!(
        node.on_link(
            &t,
            link,
            u64::MAX,
            LinkBody::DataBatch(vec![frame(1), frame(2)]),
            &mut out
        ),
        0
    );
    assert_eq!(
        node.on_link(&t, link, 1, LinkBody::DataBatch(Vec::new()), &mut out),
        0
    );
    assert!(out.is_empty());
    assert!(outbox(&mut node).is_empty(), "no reaction to garbage");
    let mut snap = LinkSnapshot::default();
    node.snapshot_links_into(&mut snap);
    assert_eq!(snap, LinkSnapshot::default(), "no state was created");
    // The link still works afterwards.
    assert_eq!(
        node.on_link(&t, link, 1, LinkBody::Data(frame(1)), &mut out),
        1
    );
}

#[test]
fn snapshots_naming_foreign_links_are_rejected() {
    let t = topo();
    let ingress = ingress(&t);
    let link = t.link_between(Peer::Publisher, ingress);
    let mut node = engine(ingress, true);
    let unknown = LinkSnapshot {
        rx_next: vec![(t.links.len() as u32, 4)],
        tx: Vec::new(),
    };
    assert_eq!(
        node.restore_links(&t, &unknown),
        Err(UnknownLink(t.links.len() as u32))
    );
    // The incoming link named as an outgoing one.
    let backwards = LinkSnapshot {
        rx_next: Vec::new(),
        tx: vec![TxLinkSnapshot {
            link,
            next_seq: 2,
            frames: Vec::new(),
        }],
    };
    assert_eq!(node.restore_links(&t, &backwards), Err(UnknownLink(link)));
    let mut snap = LinkSnapshot::default();
    node.snapshot_links_into(&mut snap);
    assert_eq!(
        snap,
        LinkSnapshot::default(),
        "a rejected restore changes nothing"
    );
}
