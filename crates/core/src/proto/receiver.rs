//! The receiver-side delivery queue (Definition 1, operationalized).

use super::trace::{self, Actor, BufferReason, EventKind, TraceEvent, TraceSink};
use crate::{Message, SeqNo};
use seqnet_membership::{GroupId, NodeId};
use seqnet_overlap::{AtomId, SequencingGraph};
use std::collections::BTreeMap;

/// Decides, for one subscriber, whether each arriving message is delivered
/// immediately or buffered — using only the sequence numbers the message
/// carries.
///
/// The subscriber tracks the next expected group-local number for each of
/// its groups and the next expected overlap number for each *relevant*
/// atom (atoms whose common-member set contains the subscriber — it
/// receives every message such an atom stamps, so continuity is
/// observable). A message is deliverable when **all** of those counters
/// match; the decision is immediate and deterministic (paper §3.1), and
/// Theorem 1 guarantees all members of a group deliver in the same order.
///
/// # Example
///
/// ```
/// use seqnet_membership::{Membership, NodeId, GroupId};
/// use seqnet_overlap::GraphBuilder;
/// use seqnet_core::{DeliveryQueue, ProtocolState, Message, MessageId};
///
/// let m = Membership::from_groups([
///     (GroupId(0), vec![NodeId(0), NodeId(1)]),
///     (GroupId(1), vec![NodeId(0), NodeId(1)]),
/// ]);
/// let graph = GraphBuilder::new().build(&m);
/// let mut state = ProtocolState::new(&graph);
/// let mut queue = DeliveryQueue::new(NodeId(1), &m, &graph);
///
/// let mut m1 = Message::new(MessageId(1), NodeId(0), GroupId(0), vec![]);
/// let mut m2 = Message::new(MessageId(2), NodeId(0), GroupId(1), vec![]);
/// state.sequence_fully(&graph, &mut m1);
/// state.sequence_fully(&graph, &mut m2);
///
/// // m2 arrives first but must wait for m1 (the overlap atom stamped m1
/// // first).
/// assert!(queue.offer(m2).is_empty());
/// let delivered = queue.offer(m1);
/// assert_eq!(delivered.len(), 2);
/// assert_eq!(delivered[0].id, MessageId(1));
/// ```
#[derive(Debug, Clone)]
pub struct DeliveryQueue {
    node: NodeId,
    next_group: BTreeMap<GroupId, SeqNo>,
    next_atom: BTreeMap<AtomId, SeqNo>,
    /// Buffered messages indexed by group and group-local number. Only a
    /// group's head (lowest number) can ever be deliverable, so the
    /// deliver-or-buffer loop inspects one candidate per group instead of
    /// rescanning a flat buffer.
    buffer: BTreeMap<GroupId, BTreeMap<SeqNo, Message>>,
    pending: usize,
    delivered_count: u64,
    max_buffered: usize,
}

impl DeliveryQueue {
    /// Creates the queue for `node`, deriving its groups from `membership`
    /// and its relevant atoms from `graph`.
    pub fn new(node: NodeId, membership: &seqnet_membership::Membership, graph: &SequencingGraph) -> Self {
        let next_group = membership
            .groups_of(node)
            .map(|g| (g, SeqNo::FIRST))
            .collect();
        let next_atom = graph
            .relevant_atoms(node)
            .into_iter()
            .map(|a| (a, SeqNo::FIRST))
            .collect();
        DeliveryQueue {
            node,
            next_group,
            next_atom,
            buffer: BTreeMap::new(),
            pending: 0,
            delivered_count: 0,
            max_buffered: 0,
        }
    }

    /// The subscriber this queue belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Whether `msg` could be delivered right now.
    pub fn is_deliverable(&self, msg: &Message) -> bool {
        match self.next_group.get(&msg.group) {
            Some(&expected) if msg.group_seq == expected => {}
            _ => return false,
        }
        msg.stamps.iter().all(|s| {
            match self.next_atom.get(&s.atom) {
                // Relevant atom: require continuity.
                Some(&expected) => s.seq == expected,
                // Irrelevant atom: "the rest need only use the group-local
                // sequence number" (§3.2) — ignore the stamp.
                None => true,
            }
        })
    }

    /// Which continuity check would buffer `msg` right now: the
    /// group-local counter ([`BufferReason::GroupGap`]) or a relevant
    /// atom's counter ([`BufferReason::AtomGap`]); `None` when the
    /// message is deliverable (or a stale duplicate, which
    /// [`DeliveryQueue::offer`] drops rather than buffers). Group
    /// continuity is checked first, mirroring [`DeliveryQueue::is_deliverable`].
    pub fn blocking_reason(&self, msg: &Message) -> Option<BufferReason> {
        match self.next_group.get(&msg.group) {
            Some(&expected) if msg.group_seq == expected => {}
            Some(&expected) if msg.group_seq < expected => return None,
            Some(_) => return Some(BufferReason::GroupGap),
            // Not a subscriber: offer() will panic; no reason to give.
            None => return None,
        }
        let atom_gap = msg
            .stamps
            .iter()
            .any(|s| matches!(self.next_atom.get(&s.atom), Some(&e) if s.seq != e));
        atom_gap.then_some(BufferReason::AtomGap)
    }

    /// Accepts an arriving message; returns every message that becomes
    /// deliverable (in delivery order), which may be empty (buffered) and
    /// may include previously buffered messages unblocked by this one.
    ///
    /// Duplicate arrivals are idempotent: a message whose group-local
    /// number was already delivered (it is below the group's expectation)
    /// is dropped, and a copy of a message still buffered leaves the first
    /// copy in place. Transports normally deduplicate before the core sees
    /// a frame, but crash-replay paths can legally re-present one, so the
    /// queue must not double-deliver or double-count.
    ///
    /// # Panics
    ///
    /// Panics if the message is not sequenced or the node does not
    /// subscribe to its group — both indicate a routing bug.
    pub fn offer(&mut self, msg: Message) -> Vec<Message> {
        let mut out = Vec::new();
        self.offer_into(msg, &mut out);
        out
    }

    /// [`DeliveryQueue::offer`] writing the released messages into a
    /// caller-owned buffer instead of allocating one — the batched fast
    /// path. Released messages are **appended** to `out` in delivery
    /// order; the caller decides when to drain. Identical semantics to
    /// `offer` otherwise (same panics, same duplicate handling, same
    /// counters).
    pub fn offer_into(&mut self, msg: Message, out: &mut Vec<Message>) {
        assert!(msg.is_sequenced(), "{} arrived unsequenced", msg.id);
        let expected = *self
            .next_group
            .get(&msg.group)
            .unwrap_or_else(|| panic!("{} does not subscribe to {}", self.node, msg.group));
        if msg.group_seq < expected {
            // Delivery is consecutive per group, so a number below the
            // expectation was already delivered: a stale duplicate.
            return;
        }
        // `out` may already hold earlier releases; count only ours.
        let base = out.len();
        if self.is_deliverable(&msg) {
            // Fast path: an in-order arrival never touches the buffer.
            self.advance(&msg);
            out.push(msg);
            if self.pending == 0 {
                self.delivered_count += 1;
                return;
            }
        } else {
            let slot = self.buffer.entry(msg.group).or_default();
            if slot.contains_key(&msg.group_seq) {
                // A copy of a still-buffered message: keep the original.
                return;
            }
            slot.insert(msg.group_seq, msg);
            self.pending += 1;
            self.max_buffered = self.max_buffered.max(self.pending);
            // Buffering changes no counter, so no previously buffered
            // message can have become deliverable (the loop below always
            // leaves the buffer head-free of deliverables).
            return;
        }

        // Only group heads can be deliverable; iterate to a fixpoint.
        let mut progress = true;
        while progress {
            progress = false;
            let groups: Vec<GroupId> = self.buffer.keys().copied().collect();
            for g in groups {
                loop {
                    let deliverable = self
                        .buffer
                        .get(&g)
                        .and_then(|q| q.values().next())
                        .is_some_and(|head| self.is_deliverable(head));
                    if !deliverable {
                        break;
                    }
                    let queue = self.buffer.get_mut(&g).expect("group has entries");
                    let (_, msg) = queue.pop_first().expect("head exists");
                    if queue.is_empty() {
                        self.buffer.remove(&g);
                    }
                    self.pending -= 1;
                    self.advance(&msg);
                    out.push(msg);
                    progress = true;
                }
            }
        }
        self.delivered_count += (out.len() - base) as u64;
    }

    fn advance(&mut self, msg: &Message) {
        let counter = self
            .next_group
            .get_mut(&msg.group)
            .expect("checked in offer");
        *counter = counter.next();
        for s in &msg.stamps {
            if let Some(counter) = self.next_atom.get_mut(&s.atom) {
                *counter = counter.next();
            }
        }
    }

    /// Number of messages waiting for predecessors.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Iterates the buffered (not yet deliverable) messages.
    pub fn pending_messages(&self) -> impl Iterator<Item = &Message> {
        self.buffer.values().flat_map(|q| q.values())
    }

    /// Total messages delivered.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// High-water mark of the buffer, an indicator of reordering depth.
    pub fn max_buffered(&self) -> usize {
        self.max_buffered
    }

    /// Folds this queue's observable state — expectations and the buffered
    /// messages — into `d`, for model checkers deduplicating explored
    /// states. Delivered/high-water counters are excluded: they are
    /// statistics and never influence a deliver-or-buffer decision.
    pub fn digest_into(&self, d: &mut crate::proto::Digest) {
        d.write_u64(u64::from(self.node.0));
        d.write_u64(self.next_group.len() as u64);
        for (g, s) in &self.next_group {
            d.write_u64(u64::from(g.0));
            d.write_seq(*s);
        }
        d.write_u64(self.next_atom.len() as u64);
        for (a, s) in &self.next_atom {
            d.write_u64(u64::from(a.0));
            d.write_seq(*s);
        }
        d.write_u64(self.pending as u64);
        for q in self.buffer.values() {
            for msg in q.values() {
                d.write_message(msg);
            }
        }
    }

    /// Re-synchronizes expectations after a quiescent reconfiguration of
    /// the sequencing graph (groups added/removed): newly relevant atoms
    /// start at [`SeqNo::FIRST`], atoms gone from the graph are dropped,
    /// and group expectations are kept for still-subscribed groups.
    ///
    /// # Panics
    ///
    /// Panics if messages are still buffered — reconfiguration must be
    /// quiescent (the paper defers dynamic behavior to future work).
    pub fn resync(
        &mut self,
        membership: &seqnet_membership::Membership,
        graph: &SequencingGraph,
    ) {
        assert!(
            self.pending == 0,
            "cannot resync with {} buffered messages",
            self.pending
        );
        let old_groups = std::mem::take(&mut self.next_group);
        self.next_group = membership
            .groups_of(self.node)
            .map(|g| (g, old_groups.get(&g).copied().unwrap_or(SeqNo::FIRST)))
            .collect();
        let old_atoms = std::mem::take(&mut self.next_atom);
        self.next_atom = graph
            .relevant_atoms(self.node)
            .into_iter()
            .map(|a| (a, old_atoms.get(&a).copied().unwrap_or(SeqNo::FIRST)))
            .collect();
    }

    /// Like [`DeliveryQueue::resync`], but *new* subscriptions and newly
    /// relevant atoms expect the next number the live counters will assign
    /// (`counter + 1`) rather than 1 — a subscriber joining mid-stream
    /// starts from "now" instead of waiting for history it will never see.
    ///
    /// # Panics
    ///
    /// Panics if messages are still buffered.
    pub fn resync_with(
        &mut self,
        membership: &seqnet_membership::Membership,
        graph: &SequencingGraph,
        protocol: &crate::ProtocolState,
    ) {
        assert!(
            self.pending == 0,
            "cannot resync with {} buffered messages",
            self.pending
        );
        let old_groups = std::mem::take(&mut self.next_group);
        self.next_group = membership
            .groups_of(self.node)
            .map(|g| {
                let expect = old_groups
                    .get(&g)
                    .copied()
                    .unwrap_or_else(|| protocol.group_counter(g).next());
                (g, expect)
            })
            .collect();
        let old_atoms = std::mem::take(&mut self.next_atom);
        self.next_atom = graph
            .relevant_atoms(self.node)
            .into_iter()
            .map(|a| {
                let expect = old_atoms
                    .get(&a)
                    .copied()
                    .unwrap_or_else(|| protocol.overlap_counter(a).next());
                (a, expect)
            })
            .collect();
    }

    /// Creates a queue for a node joining a live system: expectations are
    /// seeded from the protocol's current counters so the node starts from
    /// "now".
    pub fn synced(
        node: NodeId,
        membership: &seqnet_membership::Membership,
        graph: &SequencingGraph,
        protocol: &crate::ProtocolState,
    ) -> Self {
        let mut q = DeliveryQueue {
            node,
            next_group: BTreeMap::new(),
            next_atom: BTreeMap::new(),
            buffer: BTreeMap::new(),
            pending: 0,
            delivered_count: 0,
            max_buffered: 0,
        };
        q.resync_with(membership, graph, protocol);
        q
    }
}

/// The receiver half of the protocol core: wraps a [`DeliveryQueue`] in
/// the event-in/command-out shape, so host drivers (simulated arrival
/// events or a runtime host thread) run Definition 1 the same way node
/// drivers run the atom state machine. Feeding a distribution frame in
/// returns one [`Command::Deliver`] per message the queue released, in
/// final delivery order.
#[derive(Debug, Clone)]
pub struct ReceiverCore {
    queue: DeliveryQueue,
}

impl ReceiverCore {
    /// A core for subscriber `node`, expecting the first sequence numbers.
    pub fn new(
        node: NodeId,
        membership: &seqnet_membership::Membership,
        graph: &SequencingGraph,
    ) -> Self {
        ReceiverCore {
            queue: DeliveryQueue::new(node, membership, graph),
        }
    }

    /// A core for a subscriber joining a live system; see
    /// [`DeliveryQueue::synced`].
    pub fn synced(
        node: NodeId,
        membership: &seqnet_membership::Membership,
        graph: &SequencingGraph,
        protocol: &crate::ProtocolState,
    ) -> Self {
        ReceiverCore {
            queue: DeliveryQueue::synced(node, membership, graph, protocol),
        }
    }

    /// Wraps an existing queue (e.g. one carried across a reconfiguration
    /// via [`DeliveryQueue::resync_with`]).
    pub fn from_queue(queue: DeliveryQueue) -> Self {
        ReceiverCore { queue }
    }

    /// The underlying deliver-or-buffer queue (pending counts, high-water
    /// marks, delivered counts).
    pub fn queue(&self) -> &DeliveryQueue {
        &self.queue
    }

    /// Mutable access to the underlying queue, for driver-side
    /// reconfiguration.
    pub fn queue_mut(&mut self) -> &mut DeliveryQueue {
        &mut self.queue
    }

    /// Folds the receiver's state into `d`; see
    /// [`DeliveryQueue::digest_into`].
    pub fn digest_into(&self, d: &mut super::Digest) {
        self.queue.digest_into(d);
    }

    /// Feeds one event through the receiver, appending one
    /// [`Command::Deliver`](super::Command) per released message, in
    /// final delivery order, to the caller-owned `out` — the one way to
    /// call this core, shaped like
    /// [`NodeCore::on_event_into`](super::NodeCore::on_event_into). Only
    /// [`Event::FrameArrived`](super::Event::FrameArrived) (with a
    /// distribution frame, i.e. no target atom) produces output; hosts
    /// never crash, so the remaining events are accepted as no-ops.
    /// `sink` receives arrivals, buffer decisions (with the failed
    /// continuity check as the reason) and deliveries (with the full
    /// sequence vector). Calls **append**; with a warm buffer the call
    /// allocates nothing apart from the messages themselves.
    ///
    /// # Panics
    ///
    /// Panics if a frame still carries a `target_atom` (it was routed to a
    /// host by mistake), or on the [`DeliveryQueue::offer_into`] contract
    /// violations (unsequenced message, non-subscriber).
    pub fn on_event_into<S: TraceSink + ?Sized>(
        &mut self,
        event: super::Event,
        sink: &mut S,
        out: &mut super::CommandBuf,
    ) {
        let super::Event::FrameArrived { frame } = event else {
            return;
        };
        assert!(
            frame.target_atom.is_none(),
            "distribution frames carry no target atom"
        );
        let host = self.queue.node();
        let actor = Actor::Host(u64::from(host.0));
        let traced = sink.enabled();
        let msg = frame.msg;
        let (id, group) = (msg.id.0, u64::from(msg.group.0));
        if traced {
            sink.record(TraceEvent {
                msg: Some(id),
                group: Some(group),
                ..TraceEvent::new(EventKind::Arrive, actor)
            });
        }
        // The reason must be read before `offer` advances the
        // counters; it is only reported if the message actually
        // buffered (stale duplicates are dropped, not buffered).
        let reason = if traced { self.queue.blocking_reason(&msg) } else { None };
        let pending_before = self.queue.pending();
        let mut released = std::mem::take(&mut out.msgs);
        self.queue.offer_into(msg, &mut released);
        if traced && self.queue.pending() > pending_before {
            sink.record(TraceEvent {
                msg: Some(id),
                group: Some(group),
                detail: Some(self.queue.pending() as u64),
                ..TraceEvent::new(
                    EventKind::Buffer(
                        reason.expect("a buffered message has a blocking reason"),
                    ),
                    actor,
                )
            });
        }
        for msg in released.drain(..) {
            if traced {
                sink.record(TraceEvent {
                    msg: Some(msg.id.0),
                    group: Some(u64::from(msg.group.0)),
                    seq: Some(msg.group_seq.0),
                    detail: Some(msg.epoch),
                    stamps: trace::stamp_vector(&msg),
                    ..TraceEvent::new(EventKind::Deliver, actor)
                });
            }
            out.push(super::Command::Deliver { host, msg });
        }
        out.msgs = released;
    }
}

#[cfg(test)]
mod tests {
    use super::super::testing::receiver_commands;
    use super::super::trace::NullSink;
    use super::*;
    use crate::{MessageId, ProtocolState};
    use seqnet_membership::Membership;
    use seqnet_overlap::GraphBuilder;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }
    fn g(i: u32) -> GroupId {
        GroupId(i)
    }

    fn two_group_setup() -> (Membership, SequencingGraph, ProtocolState) {
        let m = Membership::from_groups([
            (g(0), vec![n(0), n(1), n(2)]),
            (g(1), vec![n(1), n(2)]),
        ]);
        let graph = GraphBuilder::new().build(&m);
        let state = ProtocolState::new(&graph);
        (m, graph, state)
    }

    fn seq(
        state: &mut ProtocolState,
        graph: &SequencingGraph,
        id: u64,
        sender: u32,
        group: u32,
    ) -> Message {
        let mut msg = Message::new(MessageId(id), n(sender), g(group), vec![]);
        state.sequence_fully(graph, &mut msg);
        msg
    }

    #[test]
    fn in_order_arrival_delivers_immediately() {
        let (m, graph, mut state) = two_group_setup();
        let mut q = DeliveryQueue::new(n(1), &m, &graph);
        for i in 1..=3 {
            let msg = seq(&mut state, &graph, i, 0, 0);
            let out = q.offer(msg);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].id, MessageId(i));
        }
        assert_eq!(q.pending(), 0);
        assert_eq!(q.delivered_count(), 3);
    }

    #[test]
    fn gap_buffers_until_filled() {
        let (m, graph, mut state) = two_group_setup();
        let mut q = DeliveryQueue::new(n(1), &m, &graph);
        let m1 = seq(&mut state, &graph, 1, 0, 0);
        let m2 = seq(&mut state, &graph, 2, 0, 0);
        let m3 = seq(&mut state, &graph, 3, 0, 0);
        assert!(q.offer(m3).is_empty());
        assert!(q.offer(m2).is_empty());
        assert_eq!(q.pending(), 2);
        let out = q.offer(m1);
        assert_eq!(
            out.iter().map(|m| m.id.0).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "buffered messages released in order"
        );
        assert_eq!(q.max_buffered(), 2, "m1 passed through without buffering");
    }

    #[test]
    fn cross_group_order_enforced_for_overlap_members() {
        let (m, graph, mut state) = two_group_setup();
        // Node 1 is in both groups: the overlap atom's numbers bind the
        // two streams together.
        let mut q = DeliveryQueue::new(n(1), &m, &graph);
        let ma = seq(&mut state, &graph, 1, 0, 0); // stamped first
        let mb = seq(&mut state, &graph, 2, 1, 1); // stamped second
        assert!(q.offer(mb).is_empty(), "mb waits for ma");
        let out = q.offer(ma);
        assert_eq!(out.iter().map(|m| m.id.0).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn non_overlap_member_ignores_foreign_stamps() {
        let (m, graph, mut state) = two_group_setup();
        // Node 0 subscribes only to g0; the (g0,g1) overlap atom is not
        // relevant to it even though g0 messages carry its stamps.
        let mut q = DeliveryQueue::new(n(0), &m, &graph);
        let _skip = seq(&mut state, &graph, 1, 1, 1); // g1 message consumes atom seq 1
        let mg0 = seq(&mut state, &graph, 2, 0, 0); // g0 message has atom seq 2
        let out = q.offer(mg0);
        assert_eq!(out.len(), 1, "node 0 must not wait for a g1 message it will never get");
    }

    #[test]
    fn same_order_at_all_overlap_members() {
        let (m, graph, mut state) = two_group_setup();
        let msgs: Vec<Message> = vec![
            seq(&mut state, &graph, 1, 0, 0),
            seq(&mut state, &graph, 2, 1, 1),
            seq(&mut state, &graph, 3, 2, 0),
            seq(&mut state, &graph, 4, 1, 1),
        ];
        // Deliver to node 1 in sequencing order, to node 2 in a permuted
        // arrival order; final delivery order must match.
        let mut q1 = DeliveryQueue::new(n(1), &m, &graph);
        let mut order1 = Vec::new();
        for msg in msgs.clone() {
            order1.extend(q1.offer(msg).into_iter().map(|m| m.id));
        }
        let mut q2 = DeliveryQueue::new(n(2), &m, &graph);
        let mut order2 = Vec::new();
        for idx in [2, 0, 3, 1] {
            order2.extend(q2.offer(msgs[idx].clone()).into_iter().map(|m| m.id));
        }
        assert_eq!(order1.len(), 4);
        assert_eq!(order1, order2, "consistent order despite different arrival");
    }

    #[test]
    #[should_panic(expected = "arrived unsequenced")]
    fn unsequenced_message_rejected() {
        let (m, graph, _) = two_group_setup();
        let mut q = DeliveryQueue::new(n(1), &m, &graph);
        let _ = q.offer(Message::new(MessageId(1), n(0), g(0), vec![]));
    }

    #[test]
    #[should_panic(expected = "does not subscribe")]
    fn non_member_rejected() {
        let (m, graph, mut state) = two_group_setup();
        let mut q = DeliveryQueue::new(n(0), &m, &graph);
        let msg = seq(&mut state, &graph, 1, 1, 1);
        let _ = q.offer(msg);
    }

    #[test]
    fn stale_duplicate_of_delivered_message_is_ignored() {
        let (m, graph, mut state) = two_group_setup();
        let mut q = DeliveryQueue::new(n(1), &m, &graph);
        let m1 = seq(&mut state, &graph, 1, 0, 0);
        assert_eq!(q.offer(m1.clone()).len(), 1);
        // A crash-replay path re-presents the delivered message.
        assert!(q.offer(m1).is_empty(), "duplicate dropped");
        assert_eq!(q.pending(), 0, "duplicate not buffered");
        assert_eq!(q.delivered_count(), 1, "no double delivery");
        // The stream continues undisturbed.
        let m2 = seq(&mut state, &graph, 2, 0, 0);
        assert_eq!(q.offer(m2).len(), 1);
    }

    #[test]
    fn duplicate_of_buffered_message_keeps_first_copy() {
        let (m, graph, mut state) = two_group_setup();
        let mut q = DeliveryQueue::new(n(1), &m, &graph);
        let m1 = seq(&mut state, &graph, 1, 0, 0);
        let m2 = seq(&mut state, &graph, 2, 0, 0);
        assert!(q.offer(m2.clone()).is_empty(), "gap: m2 buffers");
        assert!(q.offer(m2).is_empty(), "copy of buffered m2 dropped");
        assert_eq!(q.pending(), 1, "still exactly one buffered copy");
        let out = q.offer(m1);
        assert_eq!(
            out.iter().map(|m| m.id.0).collect::<Vec<_>>(),
            vec![1, 2],
            "each message delivered exactly once"
        );
        assert_eq!(q.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "does not subscribe")]
    fn unknown_group_rejected() {
        let (m, graph, _) = two_group_setup();
        let mut q = DeliveryQueue::new(n(1), &m, &graph);
        // A group no one (and no graph path) has ever heard of.
        let mut msg = Message::new(MessageId(9), n(0), g(7), vec![]);
        msg.group_seq = SeqNo::FIRST;
        let _ = q.offer(msg);
    }

    #[test]
    fn gap_fill_cascades_across_groups() {
        let (m, graph, mut state) = two_group_setup();
        // Node 1 subscribes to both groups; the overlap atom binds them.
        let mut q = DeliveryQueue::new(n(1), &m, &graph);
        let m1 = seq(&mut state, &graph, 1, 0, 0); // g0, stamp 1
        let m2 = seq(&mut state, &graph, 2, 1, 1); // g1, stamp 2
        let m3 = seq(&mut state, &graph, 3, 0, 0); // g0, stamp 3
        assert!(q.offer(m3).is_empty(), "g0 #2 waits for g0 #1");
        assert!(q.offer(m2).is_empty(), "g1 head waits for stamp 1");
        assert_eq!(q.pending(), 2);
        // Filling the gap releases messages from BOTH groups, and m3 only
        // becomes deliverable after m2 consumed stamp 2 — the release loop
        // must iterate to a fixpoint across groups.
        let out = q.offer(m1);
        assert_eq!(
            out.iter().map(|m| m.id.0).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "cascade releases in stamp order across groups"
        );
        assert_eq!(q.pending(), 0);
        assert_eq!(q.delivered_count(), 3);
    }

    #[test]
    fn counters_work_up_to_the_last_usable_sequence_number() {
        // Single ingress-only group: no overlap stamps to fabricate.
        let m = Membership::from_groups([(g(0), vec![n(0), n(1)])]);
        let graph = GraphBuilder::new().build(&m);
        let mut q = DeliveryQueue::new(n(1), &m, &graph);
        // Fast-forward the expectation to the end of the sequence space
        // (test-only: unit tests may reach into the private counter).
        q.next_group.insert(g(0), SeqNo(u64::MAX - 1));
        let mut msg = Message::new(MessageId(1), n(0), g(0), vec![]);
        msg.group_seq = SeqNo(u64::MAX - 1);
        assert_eq!(q.offer(msg).len(), 1, "penultimate number delivers");
        assert_eq!(
            q.next_group[&g(0)],
            SeqNo(u64::MAX),
            "expectation advanced to the last number"
        );
    }

    #[test]
    #[should_panic(expected = "sequence number space exhausted")]
    fn delivering_the_final_sequence_number_overflows_loudly() {
        let m = Membership::from_groups([(g(0), vec![n(0), n(1)])]);
        let graph = GraphBuilder::new().build(&m);
        let mut q = DeliveryQueue::new(n(1), &m, &graph);
        q.next_group.insert(g(0), SeqNo(u64::MAX));
        let mut msg = Message::new(MessageId(1), n(0), g(0), vec![]);
        msg.group_seq = SeqNo(u64::MAX);
        // Advancing past u64::MAX must panic, not wrap to the ZERO
        // sentinel.
        let _ = q.offer(msg);
    }

    #[test]
    fn resync_keeps_group_progress() {
        let (m, graph, mut state) = two_group_setup();
        let mut q = DeliveryQueue::new(n(1), &m, &graph);
        let m1 = seq(&mut state, &graph, 1, 0, 0);
        assert_eq!(q.offer(m1).len(), 1);
        // Rebuild the same graph (quiescent reconfiguration no-op).
        q.resync(&m, &graph);
        let m2 = seq(&mut state, &graph, 2, 0, 0);
        assert_eq!(q.offer(m2).len(), 1, "group counter survived resync");
    }

    #[test]
    #[should_panic(expected = "cannot resync")]
    fn resync_requires_quiescence() {
        let (m, graph, mut state) = two_group_setup();
        let mut q = DeliveryQueue::new(n(1), &m, &graph);
        let _gap = seq(&mut state, &graph, 1, 0, 0);
        let m2 = seq(&mut state, &graph, 2, 0, 0);
        assert!(q.offer(m2).is_empty());
        q.resync(&m, &graph);
    }

    #[test]
    fn receiver_core_emits_deliver_commands_in_release_order() {
        use super::super::{Command, Event, Frame};
        let (m, graph, mut state) = two_group_setup();
        let mut core = ReceiverCore::new(n(1), &m, &graph);
        let m1 = seq(&mut state, &graph, 1, 0, 0);
        let m2 = seq(&mut state, &graph, 2, 0, 0);
        // Out-of-order arrival: m2 buffers, then m1 releases both.
        let held = receiver_commands(
            &mut core,
            Event::FrameArrived {
                frame: Frame {
                    msg: m2,
                    target_atom: None,
                },
            },
            &mut NullSink,
        );
        assert!(held.is_empty());
        assert_eq!(core.queue().pending(), 1);
        let released = receiver_commands(
            &mut core,
            Event::FrameArrived {
                frame: Frame {
                    msg: m1,
                    target_atom: None,
                },
            },
            &mut NullSink,
        );
        let ids: Vec<u64> = released
            .iter()
            .map(|c| match c {
                Command::Deliver { host, msg } => {
                    assert_eq!(*host, n(1));
                    msg.id.0
                }
                other => panic!("unexpected command {other:?}"),
            })
            .collect();
        assert_eq!(ids, vec![1, 2]);
        assert!(
            receiver_commands(&mut core, Event::Tick, &mut NullSink).is_empty(),
            "non-frame events no-op"
        );
    }
}
