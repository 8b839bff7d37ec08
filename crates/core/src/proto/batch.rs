//! Batched execution support: a caller-owned command buffer the cores
//! append into, so whole frame batches flow through the stamp/forward/
//! deliver path without per-message `Vec` allocations.
//!
//! The equivalence contract (PROTOCOL.md §12): a batch is semantically a
//! sequence of single events. Looping [`NodeCore::on_event_into`] or
//! [`ReceiverCore::on_event_into`] over N events with one reused
//! [`CommandBuf`] produces exactly the commands N calls with a fresh
//! buffer each would, in the same order — buffer reuse changes allocation
//! behavior, never protocol behavior. The `batch_vs_step` checker oracle
//! and `tests/batch_equivalence.rs` hold the cores to that contract on
//! every explored schedule.
//!
//! [`NodeCore::on_event_into`]: super::NodeCore::on_event_into
//! [`ReceiverCore::on_event_into`]: super::ReceiverCore::on_event_into

use super::event::Command;
use crate::Message;
use seqnet_membership::NodeId;

/// A reusable command sink plus the scratch space the cores need while
/// filling it. Create one per driver loop, pass it to every core call,
/// and [`clear`](CommandBuf::clear) (or [`drain`](CommandBuf::drain))
/// between batches: after warm-up the hot path performs no allocation at
/// all.
///
/// Core calls **append**; they never clear. That lets a driver collect
/// the output of several cores (e.g. a node batch followed by the
/// receiver batches it fans out to) into one buffer when convenient.
#[derive(Debug, Default)]
pub struct CommandBuf {
    /// The commands emitted so far, in execution order.
    pub(super) cmds: Vec<Command>,
    /// Egress fan-out scratch: the member list of the group being fanned
    /// out, reused across frames. Always left empty between uses.
    pub(super) members: Vec<NodeId>,
    /// Receiver release scratch: messages a `DeliveryQueue` released,
    /// reused across offers. Always left empty between uses.
    pub(super) msgs: Vec<Message>,
}

impl CommandBuf {
    /// An empty buffer. Equivalent to `CommandBuf::default()`.
    pub fn new() -> Self {
        CommandBuf::default()
    }

    /// Clears the accumulated commands, retaining every allocation.
    pub fn clear(&mut self) {
        self.cmds.clear();
    }

    /// The commands accumulated so far, in execution order.
    pub fn commands(&self) -> &[Command] {
        &self.cmds
    }

    /// Drains the accumulated commands in order, leaving the buffer (and
    /// its capacity) ready for the next batch.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Command> {
        self.cmds.drain(..)
    }

    /// Consumes the buffer, returning the commands. Used by the
    /// `Vec`-returning helpers in [`testing`](super::testing).
    pub fn into_commands(self) -> Vec<Command> {
        self.cmds
    }

    /// Appends one command (drivers occasionally interleave their own).
    pub fn push(&mut self, cmd: Command) {
        self.cmds.push(cmd);
    }

    /// Number of accumulated commands.
    pub fn len(&self) -> usize {
        self.cmds.len()
    }

    /// `true` if no commands have accumulated.
    pub fn is_empty(&self) -> bool {
        self.cmds.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testing::{node_commands, receiver_commands};
    use super::super::trace::NullSink;
    use super::super::{Command, Event, Frame, NodeCore, ProtocolState, ReceiverCore, Routing};
    use super::*;
    use crate::{Message, MessageId};
    use seqnet_membership::{GroupId, Membership};
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

    fn ingress_frame(graph: &seqnet_overlap::SequencingGraph, id: u64, group: GroupId) -> Frame {
        Frame {
            msg: Message::new(MessageId(id), n(0), group, bytes::Bytes::new()),
            target_atom: Some(graph.ingress(group).expect("group has a path")),
        }
    }

    #[test]
    fn reused_buffer_matches_fresh_buffer_per_event_command_for_command() {
        let (m, graph) = setup();
        let routing = Routing::solo(&m, &graph);
        let events = |graph: &seqnet_overlap::SequencingGraph| -> Vec<Event> {
            (0..8u64)
                .map(|id| Event::FrameArrived {
                    frame: ingress_frame(graph, id, g(0)),
                })
                .collect()
        };

        let mut fresh_protocol = ProtocolState::new(&graph);
        let mut fresh = NodeCore::new(routing.owner_of(graph.ingress(g(0)).unwrap()), false);
        let mut expected = Vec::new();
        for event in events(&graph) {
            expected.extend(node_commands(
                &mut fresh,
                &routing,
                &mut fresh_protocol,
                event,
                &mut NullSink,
            ));
        }

        let mut reused_protocol = ProtocolState::new(&graph);
        let mut reused = NodeCore::new(fresh.node(), false);
        let mut buf = CommandBuf::new();
        for event in events(&graph) {
            reused.on_event_into(
                &routing,
                &mut reused_protocol,
                event,
                &mut NullSink,
                &mut buf,
            );
        }
        assert_eq!(format!("{:?}", buf.commands()), format!("{expected:?}"));
        assert!(buf.members.is_empty(), "fan-out scratch restored empty");
    }

    #[test]
    fn command_buf_appends_across_calls_until_cleared() {
        let (m, graph) = setup();
        let routing = Routing::solo(&m, &graph);
        let mut protocol = ProtocolState::new(&graph);
        let mut core = NodeCore::new(routing.owner_of(graph.ingress(g(0)).unwrap()), false);
        let mut buf = CommandBuf::new();
        let mut feed = |id: u64, buf: &mut CommandBuf| {
            core.on_event_into(
                &routing,
                &mut protocol,
                Event::FrameArrived {
                    frame: ingress_frame(&graph, id, g(0)),
                },
                &mut NullSink,
                buf,
            );
        };
        feed(0, &mut buf);
        let first = buf.len();
        assert!(first > 0);
        feed(1, &mut buf);
        assert_eq!(buf.len(), 2 * first, "second call appended");
        buf.clear();
        assert!(buf.is_empty());
    }

    #[test]
    fn reused_buffer_matches_fresh_buffer_per_event_at_the_receiver() {
        let (m, graph) = setup();
        let mut protocol = ProtocolState::new(&graph);
        let mut msgs = Vec::new();
        for id in 0..6u64 {
            let mut msg = Message::new(MessageId(id), n(0), g(id as u32 % 2), bytes::Bytes::new());
            protocol.sequence_fully(&graph, &mut msg);
            msgs.push(msg);
        }
        // Permuted arrival exercises buffering inside the batch.
        let order = [3usize, 0, 5, 2, 1, 4];
        let frames = |msgs: &[Message]| {
            order
                .iter()
                .map(|&i| Event::FrameArrived {
                    frame: Frame {
                        msg: msgs[i].clone(),
                        target_atom: None,
                    },
                })
                .collect::<Vec<_>>()
        };

        let mut fresh = ReceiverCore::new(n(1), &m, &graph);
        let mut expected = Vec::new();
        for event in frames(&msgs) {
            expected.extend(receiver_commands(&mut fresh, event, &mut NullSink));
        }

        let mut reused = ReceiverCore::new(n(1), &m, &graph);
        let mut buf = CommandBuf::new();
        for event in frames(&msgs) {
            reused.on_event_into(event, &mut NullSink, &mut buf);
        }
        let ids = |cmds: &[Command]| {
            cmds.iter()
                .map(|c| match c {
                    Command::Deliver { msg, .. } => msg.id.0,
                    other => panic!("unexpected command {other:?}"),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(buf.commands()), ids(&expected));
        assert_eq!(ids(buf.commands()), vec![0, 1, 2, 3, 4, 5]);
        assert!(buf.msgs.is_empty(), "release scratch restored empty");
        assert_eq!(
            reused.queue().delivered_count(),
            fresh.queue().delivered_count()
        );
    }
}
