//! The sequencing-node state machine: ingest, stamp, forward, park,
//! replay, and group-commit — sans I/O.

use super::atom::{NextHop, ProtocolState};
use super::batch::CommandBuf;
use super::event::{Command, Event, Frame, Peer};
use super::routing::Routing;
use super::stats::RecoveryStats;
use super::trace::{Actor, EventKind, TraceEvent, TraceSink};
use std::collections::BTreeMap;

/// The protocol logic of one sequencing node, as a pure event-in /
/// command-out state machine. Both drivers route every frame through this
/// type: the simulator runs one core per atom (solo routing) and schedules
/// the emitted [`Command::Send`]s under its delay model; the threaded
/// runtime runs one core per co-location class (group-commit mode) and
/// executes the emitted [`Command::Stage`]/[`Command::Flush`]/
/// [`Command::Ack`]s on real reliable links.
///
/// The core owns what is protocol: which atoms run here, consecutive-atom
/// ingestion via [`ProtocolState::process`], fan-out at egress, the
/// park/replay crash discipline, and the snapshot/ack group-commit rule.
/// The driver owns what is transport: clocks, timers, link sequence
/// numbers, retransmission, loss, and delay. The split is exercised by the
/// `sim_runtime_equivalence` differential test, which feeds one workload
/// through both drivers and asserts identical delivery orders.
#[derive(Debug, Clone)]
pub struct NodeCore {
    /// This node's driver-assigned index (= atom index under solo routing).
    node: usize,
    /// When set, forwards are emitted as [`Command::Stage`] instead of
    /// [`Command::Send`]: nothing may reach the wire before a snapshot
    /// records it (the runtime's group-commit rule). The simulator crashes
    /// nodes between whole events, so it runs without staging.
    group_commit: bool,
    /// Test-only sabotage: a group-commit core with this flag set emits
    /// raw [`Command::Send`]s, violating the staged-output discipline.
    /// Exists so the model checker can prove its oracle actually fires.
    skip_staging: bool,
    /// Crashed: frames park instead of processing.
    down: bool,
    /// Frames that arrived while down, in arrival order.
    parked: Vec<Frame>,
    /// Highest cumulative ack sent per upstream peer — the receive prefix
    /// the last snapshot recorded.
    floors: BTreeMap<Peer, u64>,
    stats: RecoveryStats,
}

impl NodeCore {
    /// A fresh core for driver-level node `node`. `group_commit` selects
    /// staged output (see [`NodeCore`] docs).
    pub fn new(node: usize, group_commit: bool) -> Self {
        NodeCore {
            node,
            group_commit,
            skip_staging: false,
            down: false,
            parked: Vec::new(),
            floors: BTreeMap::new(),
            stats: RecoveryStats::default(),
        }
    }

    /// Breaks the group-commit discipline on purpose: outputs bypass
    /// staging and hit the wire as plain [`Command::Send`]s even in
    /// group-commit mode. **Test-only** — used by the `seqnet-check`
    /// staged-output oracle to prove it detects the violation it exists
    /// for. Never call this from a driver.
    #[doc(hidden)]
    pub fn sabotage_skip_staging(&mut self) {
        self.skip_staging = true;
    }

    /// Folds this core's complete observable state — liveness, parked
    /// frames in arrival order, and ack floors — into `d`, for model
    /// checkers deduplicating explored states. Recovery counters are
    /// excluded: they are statistics and never influence a transition.
    pub fn digest_into(&self, d: &mut super::Digest) {
        d.write_u64(self.node as u64);
        d.write_u64(u64::from(self.group_commit));
        d.write_u64(u64::from(self.down));
        d.write_u64(self.parked.len() as u64);
        for frame in &self.parked {
            d.write_message(&frame.msg);
            d.write_u64(frame.target_atom.map_or(u64::MAX, |a| u64::from(a.0)));
        }
        d.write_u64(self.floors.len() as u64);
        for (peer, floor) in &self.floors {
            d.write_peer(*peer);
            d.write_u64(*floor);
        }
    }

    /// This core's driver-assigned node index.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Whether the node processes arrivals (not crashed). While this is
    /// `false`, [`Event::FrameArrived`] parks the frame and returns no
    /// commands.
    pub fn is_accepting(&self) -> bool {
        !self.down
    }

    /// Counters for the crash-recovery path, shared between the
    /// simulator's `FaultStats` and the runtime's `RuntimeStats`.
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.stats
    }

    /// Seeds the cumulative-ack floor for `peer`, used when the driver
    /// restores a core from a snapshot: the restored core must not re-ack
    /// below what the snapshotted incarnation already advertised.
    pub fn restore_floor(&mut self, peer: Peer, floor: u64) {
        self.floors.insert(peer, floor);
    }

    /// Feeds one event through the state machine, appending the commands
    /// the driver must execute, in order, to the caller-owned `out` — the
    /// one way to call this core. `routing` is the driver's current routing
    /// view and `protocol` the (possibly shared) counter state — borrowed
    /// per call so the simulator can run every core against one global
    /// [`ProtocolState`] while runtime threads own theirs. `sink` receives
    /// stamps, forwards, crashes and replays as they happen; pass
    /// [`NullSink`](super::trace::NullSink) (or `None`) for an untraced
    /// call. Calls **append**: a driver feeding a batch loops over its
    /// events with one warm buffer, which makes the whole batch
    /// allocation-free apart from the frames themselves, and is
    /// observably identical to a fresh buffer per event (PROTOCOL.md §12).
    pub fn on_event_into<S: TraceSink + ?Sized>(
        &mut self,
        routing: &Routing<'_>,
        protocol: &mut ProtocolState,
        event: Event,
        sink: &mut S,
        out: &mut CommandBuf,
    ) {
        match event {
            Event::FrameArrived { frame } => self.on_frame(routing, protocol, frame, sink, out),
            Event::NodeCrashed => {
                self.down = true;
                self.stats.crashes += 1;
                if sink.enabled() {
                    sink.record(TraceEvent::new(EventKind::Crash, self.actor()));
                }
            }
            Event::NodeRestarted => {
                self.down = false;
                let parked = std::mem::take(&mut self.parked);
                self.stats.frames_replayed += parked.len() as u64;
                for frame in parked {
                    if sink.enabled() {
                        sink.record(TraceEvent {
                            msg: Some(frame.msg.id.0),
                            group: Some(u64::from(frame.msg.group.0)),
                            ..TraceEvent::new(EventKind::Replay, self.actor())
                        });
                    }
                    out.push(Command::Replay { frame });
                }
            }
            Event::SnapshotTaken { rx_next } => {
                // The snapshot is durable: release staged outputs, then
                // acknowledge exactly the receive prefix it recorded.
                out.push(Command::Flush);
                for (peer, next) in rx_next {
                    let floor = next.saturating_sub(1);
                    let prev = self.floors.get(&peer).copied().unwrap_or(0);
                    if floor > prev {
                        self.floors.insert(peer, floor);
                        out.push(Command::Ack { to: peer, through: floor });
                    }
                }
            }
            Event::Tick => {}
        }
    }

    /// Runs a frame through this node's consecutive atoms, then forwards:
    /// to the next atom's owner if the path leaves this node, or fanned
    /// out to every group member at egress (in membership order).
    fn on_frame<S: TraceSink + ?Sized>(
        &mut self,
        routing: &Routing<'_>,
        protocol: &mut ProtocolState,
        frame: Frame,
        sink: &mut S,
        out: &mut CommandBuf,
    ) {
        if self.down {
            self.stats.messages_parked += 1;
            self.parked.push(frame);
            return;
        }
        let mut atom = frame
            .target_atom
            .expect("frames addressed to a node carry a target atom");
        debug_assert_eq!(
            routing.owner_of(atom),
            self.node,
            "frame routed to the wrong node"
        );
        let mut msg = frame.msg;
        loop {
            // Snapshot the sequencing state so a stamp assignment by
            // `process` is observable; skipped entirely when untraced.
            let pre = sink.enabled().then(|| (msg.group_seq, msg.stamps.len()));
            let hop = protocol.process(routing.graph(), &mut msg, atom);
            if let Some((seq_before, stamps_before)) = pre {
                // The atom stamped if it appended an overlap stamp or
                // assigned the group-local number; transit atoms did
                // neither and emit nothing.
                let assigned = if msg.stamps.len() > stamps_before {
                    Some(msg.stamps[msg.stamps.len() - 1].seq.0)
                } else if msg.group_seq != seq_before {
                    Some(msg.group_seq.0)
                } else {
                    None
                };
                if let Some(seq) = assigned {
                    sink.record(TraceEvent {
                        msg: Some(msg.id.0),
                        group: Some(u64::from(msg.group.0)),
                        atom: Some(u64::from(atom.0)),
                        seq: Some(seq),
                        ..TraceEvent::new(EventKind::AtomStamp, self.actor())
                    });
                }
            }
            match hop {
                NextHop::Atom(next) => {
                    let owner = routing.owner_of(next);
                    if owner == self.node {
                        atom = next;
                    } else {
                        if sink.enabled() {
                            sink.record(TraceEvent {
                                msg: Some(msg.id.0),
                                group: Some(u64::from(msg.group.0)),
                                atom: Some(u64::from(next.0)),
                                seq: Some(u64::from(self.group_commit && !self.skip_staging)),
                                detail: Some(owner as u64),
                                ..TraceEvent::new(EventKind::FrameForward, self.actor())
                            });
                        }
                        out.push(self.output(
                            Peer::Node(owner),
                            Frame {
                                msg,
                                target_atom: Some(next),
                            },
                        ));
                        break;
                    }
                }
                NextHop::Egress => {
                    // Fan out in membership order through the reused
                    // scratch; the last member takes the message by move,
                    // so an n-way fan-out clones n-1 times, not n.
                    let mut members = std::mem::take(&mut out.members);
                    members.extend(routing.membership().members(msg.group));
                    if let Some((&last, rest)) = members.split_last() {
                        for &member in rest {
                            out.push(self.output(
                                Peer::Host(member),
                                Frame {
                                    msg: msg.clone(),
                                    target_atom: None,
                                },
                            ));
                        }
                        out.push(self.output(
                            Peer::Host(last),
                            Frame {
                                msg,
                                target_atom: None,
                            },
                        ));
                    }
                    members.clear();
                    out.members = members;
                    break;
                }
            }
        }
    }

    fn output(&self, to: Peer, frame: Frame) -> Command {
        if self.group_commit && !self.skip_staging {
            Command::Stage { to, frame }
        } else {
            Command::Send { to, frame }
        }
    }

    fn actor(&self) -> Actor {
        Actor::Node(self.node as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testing::node_commands;
    use super::super::trace::NullSink;
    use super::*;
    use crate::{Message, MessageId};
    use seqnet_membership::{GroupId, Membership, NodeId};
    use seqnet_overlap::GraphBuilder;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }
    fn g(i: u32) -> GroupId {
        GroupId(i)
    }

    fn setup() -> (Membership, seqnet_overlap::SequencingGraph) {
        let m = Membership::from_groups([
            (g(0), vec![n(0), n(1), n(2)]),
            (g(1), vec![n(1), n(2), n(3)]),
        ]);
        let graph = GraphBuilder::new().build(&m);
        (m, graph)
    }

    fn publish(id: u64, sender: NodeId, group: GroupId) -> Frame {
        Frame {
            msg: Message::new(MessageId(id), sender, group, bytes::Bytes::new()),
            target_atom: None,
        }
    }

    /// Drives a message through solo-routed cores until all copies reach
    /// egress; returns the host fan-out frames.
    fn run_through(
        cores: &mut [NodeCore],
        routing: &Routing<'_>,
        protocol: &mut ProtocolState,
        mut frame: Frame,
    ) -> Vec<(Peer, Frame)> {
        let ingress = routing.graph().ingress(frame.msg.group).expect("has path");
        frame.target_atom = Some(ingress);
        let mut queue = vec![frame];
        let mut delivered = Vec::new();
        while let Some(f) = queue.pop() {
            let atom = f.target_atom.expect("node frame");
            let node = routing.owner_of(atom);
            for cmd in node_commands(
                &mut cores[node],
                routing,
                protocol,
                Event::FrameArrived { frame: f },
                &mut NullSink,
            ) {
                match cmd {
                    Command::Send {
                        to: Peer::Node(_),
                        frame,
                    } => queue.push(frame),
                    Command::Send { to, frame } => delivered.push((to, frame)),
                    other => panic!("unexpected command {other:?}"),
                }
            }
        }
        delivered
    }

    #[test]
    fn frames_fan_out_to_all_members_in_membership_order() {
        let (m, graph) = setup();
        let routing = Routing::solo(&m, &graph);
        let mut protocol = ProtocolState::new(&graph);
        let mut cores: Vec<NodeCore> =
            (0..graph.num_atoms()).map(|i| NodeCore::new(i, false)).collect();
        let out = run_through(&mut cores, &routing, &mut protocol, publish(0, n(0), g(0)));
        let hosts: Vec<Peer> = out.iter().map(|(to, _)| *to).collect();
        let expected: Vec<Peer> = m.members(g(0)).map(Peer::Host).collect();
        assert_eq!(hosts, expected);
        for (_, f) in &out {
            assert!(f.target_atom.is_none(), "host frames carry no atom");
            assert!(f.msg.is_sequenced(), "ingress stamped the group seq");
        }
    }

    #[test]
    fn group_commit_mode_stages_instead_of_sending() {
        let (m, graph) = setup();
        let routing = Routing::solo(&m, &graph);
        let mut protocol = ProtocolState::new(&graph);
        let ingress = graph.ingress(g(0)).unwrap();
        let node = routing.owner_of(ingress);
        let mut core = NodeCore::new(node, true);
        let mut frame = publish(0, n(0), g(0));
        frame.target_atom = Some(ingress);
        let cmds = node_commands(
            &mut core,
            &routing,
            &mut protocol,
            Event::FrameArrived { frame },
            &mut NullSink,
        );
        assert!(!cmds.is_empty());
        assert!(
            cmds.iter().all(|c| matches!(c, Command::Stage { .. })),
            "group-commit cores stage every forward"
        );
    }

    #[test]
    fn crash_parks_and_restart_replays_in_arrival_order() {
        let (m, graph) = setup();
        let routing = Routing::solo(&m, &graph);
        let mut protocol = ProtocolState::new(&graph);
        let ingress = graph.ingress(g(0)).unwrap();
        let node = routing.owner_of(ingress);
        let mut core = NodeCore::new(node, false);

        assert!(node_commands(
            &mut core,
            &routing,
            &mut protocol,
            Event::NodeCrashed,
            &mut NullSink
        )
        .is_empty());
        assert!(!core.is_accepting());
        for id in 0..3u64 {
            let mut frame = publish(id, n(0), g(0));
            frame.target_atom = Some(ingress);
            let cmds = node_commands(
                &mut core,
                &routing,
                &mut protocol,
                Event::FrameArrived { frame },
                &mut NullSink,
            );
            assert!(cmds.is_empty(), "down node emits nothing");
        }
        assert_eq!(core.recovery_stats().crashes, 1);
        assert_eq!(core.recovery_stats().messages_parked, 3);

        let replays = node_commands(
            &mut core,
            &routing,
            &mut protocol,
            Event::NodeRestarted,
            &mut NullSink,
        );
        assert!(core.is_accepting());
        let ids: Vec<u64> = replays
            .iter()
            .map(|c| match c {
                Command::Replay { frame } => frame.msg.id.0,
                other => panic!("unexpected command {other:?}"),
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2], "replay preserves arrival order");
        assert_eq!(core.recovery_stats().frames_replayed, 3);
    }

    #[test]
    fn snapshot_flushes_then_acks_only_advanced_floors() {
        let (m, graph) = setup();
        let routing = Routing::solo(&m, &graph);
        let mut protocol = ProtocolState::new(&graph);
        let mut core = NodeCore::new(0, true);
        core.restore_floor(Peer::Publisher, 4);

        let cmds = node_commands(
            &mut core,
            &routing,
            &mut protocol,
            Event::SnapshotTaken {
                rx_next: vec![(Peer::Publisher, 5), (Peer::Node(1), 3)],
            },
            &mut NullSink,
        );
        assert!(matches!(cmds[0], Command::Flush), "flush precedes acks");
        // Publisher floor 4 == next-1, no new ack; node 1 advances to 2.
        assert_eq!(cmds.len(), 2);
        match &cmds[1] {
            Command::Ack { to, through } => {
                assert_eq!(*to, Peer::Node(1));
                assert_eq!(*through, 2);
            }
            other => panic!("unexpected command {other:?}"),
        }

        // Same snapshot again: floors unchanged, only the flush remains.
        let again = node_commands(
            &mut core,
            &routing,
            &mut protocol,
            Event::SnapshotTaken {
                rx_next: vec![(Peer::Publisher, 5), (Peer::Node(1), 3)],
            },
            &mut NullSink,
        );
        assert_eq!(again.len(), 1);
        assert!(matches!(again[0], Command::Flush));
    }

    #[test]
    fn tick_is_a_no_op() {
        let (m, graph) = setup();
        let routing = Routing::solo(&m, &graph);
        let mut protocol = ProtocolState::new(&graph);
        let mut core = NodeCore::new(0, false);
        assert!(node_commands(
            &mut core,
            &routing,
            &mut protocol,
            Event::Tick,
            &mut NullSink
        )
        .is_empty());
    }
}
