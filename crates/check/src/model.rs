//! The explorable world: protocol cores plus a FIFO-channel network model,
//! with every pending event exposed as a [`Transition`] the checker picks.
//!
//! The model deliberately contains **no clock**. Anything the simulator
//! expresses as delay — slow links, partitions healing, loss forcing
//! retransmission — appears here as the checker's freedom to defer a
//! channel's head frame arbitrarily long while firing everything else.
//! Schedule exploration therefore subsumes the timing-fault portion of a
//! [`seqnet_sim::FaultPlan`]; only its crash windows carry over, as
//! explicit crash/restart transitions whose *order* (not times) the
//! checker controls.
//!
//! Determinism contract: [`World::enabled`] returns transitions in a
//! deterministic sorted order, so a decision index (position in that list)
//! plus the scenario fully determines the successor state. That is what
//! makes a [`seqnet_sim::ScheduleTrace`] replayable.

use seqnet_core::proto::testing::{node_commands, receiver_commands};
use seqnet_core::proto::trace::{Actor, EventKind, NullSink, TraceEvent, TraceSink};
use seqnet_core::proto::{
    Command, CommandBuf, Digest, Event, Frame, NodeCore, Peer, ProtocolState, ReceiverCore, Routing,
};
use seqnet_core::{Message, MessageId};
use seqnet_membership::{GroupId, Membership, NodeId};
use seqnet_overlap::{GraphBuilder, SequencingGraph};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use crate::scenario::{ReconfigOp, Scenario};

/// A crash or restart pending for one sequencing node, in plan order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// The node goes down (frames park until restart).
    Crash,
    /// The node comes back and replays parked frames.
    Restart,
}

/// One schedulable step of the world. [`World::enabled`] enumerates these
/// in a deterministic order; the checker picks one by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Transition {
    /// Publish workload message `i` (its id becomes `MessageId(i)`).
    Publish(usize),
    /// Deliver the head frame of the FIFO channel `src -> dst`.
    Deliver(Peer, Peer),
    /// Fire the next pending fault action of a sequencing node.
    Fault(usize, FaultKind),
    /// Take a snapshot at a group-commit node with staged output, which
    /// flushes the staged frames and advances ack floors.
    Snapshot(usize),
    /// Begin the scenario's online reconfiguration (PROTOCOL.md §14):
    /// from here on, publishes park for the next epoch.
    Reconfigure,
    /// Complete the pending epoch handoff. Enabled only once the old
    /// epoch has fully drained — no frame in flight, no staged output,
    /// no crashed node, no message buffered at a receiver.
    EpochAdvance,
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transition::Publish(i) => write!(f, "publish m{i}"),
            Transition::Deliver(src, dst) => write!(f, "deliver {src}->{dst}"),
            Transition::Fault(n, FaultKind::Crash) => write!(f, "crash node{n}"),
            Transition::Fault(n, FaultKind::Restart) => write!(f, "restart node{n}"),
            Transition::Snapshot(n) => write!(f, "snapshot node{n}"),
            Transition::Reconfigure => write!(f, "reconfigure"),
            Transition::EpochAdvance => write!(f, "advance-epoch"),
        }
    }
}

/// What one [`World::step`] did, handed to the per-step invariant oracles.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// The transition that was executed.
    pub transition: Transition,
    /// Group-commit violations: raw sends a node emitted while the
    /// staged-output discipline was in force (node index, message id).
    pub unstaged_sends: Vec<(usize, MessageId)>,
    /// Messages delivered to applications by this step, in delivery
    /// order, each tagged with the configuration epoch it was sequenced
    /// under.
    pub delivered_now: Vec<(NodeId, MessageId, GroupId, u64)>,
}

/// The configuration an online reconfiguration activates: the epoch-N+1
/// membership and sequencing graph, precompiled so exploration clones
/// stay cheap. Built through [`seqnet_overlap::DynamicGraph`], so atom
/// ids are stable across the boundary and atoms leaving the overlap
/// structure are retired lazily (still present as transit hops).
#[derive(Debug)]
struct NextConfig {
    membership: Membership,
    graph: SequencingGraph,
}

/// The immutable part of a compiled scenario, shared (via [`Rc`]) by every
/// clone of a [`World`] so DFS branching never copies the graph.
#[derive(Debug)]
struct Compiled {
    scenario: Scenario,
    graph: SequencingGraph,
    next: Option<NextConfig>,
}

impl Compiled {
    /// The membership and graph in force: the next configuration once the
    /// handoff has completed, the initial one before.
    fn config(&self, advanced: bool) -> (&Membership, &SequencingGraph) {
        match &self.next {
            Some(next) if advanced => (&next.membership, &next.graph),
            _ => (&self.scenario.membership, &self.graph),
        }
    }
}

/// One explorable state: all protocol cores, the network, and the
/// bookkeeping the oracles observe. Cloning is cheap enough to branch on
/// (the membership/graph are behind an [`Rc`]).
#[derive(Debug, Clone)]
pub struct World {
    setup: Rc<Compiled>,
    /// One sequencing-node core per atom (solo routing: node i = atom i).
    cores: Vec<NodeCore>,
    /// The shared sequencing counters (solo layout, as in the simulator).
    protocol: ProtocolState,
    receivers: BTreeMap<NodeId, ReceiverCore>,
    /// FIFO channels, keyed `(src, dst)`. Emptied keys are removed so two
    /// histories reaching the same frames-in-flight digest identically.
    channels: BTreeMap<(Peer, Peer), VecDeque<Frame>>,
    /// Per-node staged output (group-commit mode), in stage order. Held
    /// durably across crash windows, matching the runtime's contract that
    /// a snapshot seals staged frames before anything escapes.
    staged: Vec<Vec<(Peer, Frame)>>,
    /// Frames received per node per upstream peer — the link receive
    /// progress a snapshot records (`rx_next = count + 1`).
    rx_count: Vec<BTreeMap<Peer, u64>>,
    published: Vec<bool>,
    /// The configuration epoch each publish was (or will be) sequenced
    /// under, assigned when its `Publish` transition fires; `None` until
    /// then.
    publish_epoch: Vec<Option<u64>>,
    /// Application delivery log per subscriber, in delivery order, each
    /// entry tagged with the epoch the message was sequenced under.
    /// Subscribers that leave at a reconfiguration keep their log.
    delivered: BTreeMap<NodeId, Vec<(MessageId, GroupId, u64)>>,
    /// Pending crash/restart actions per node, in plan-window order.
    faults: Vec<VecDeque<FaultKind>>,
    /// `true` once the scenario's `Reconfigure` transition has fired.
    reconfig_fired: bool,
    /// `true` while the epoch handoff is pending (reconfigure fired,
    /// `EpochAdvance` not yet taken).
    handoff: bool,
    /// Workload indices of publishes accepted during the handoff, parked
    /// in publish order for injection under the next epoch.
    parked: Vec<usize>,
}

impl World {
    /// Compiles `scenario` into its initial state.
    ///
    /// # Panics
    ///
    /// Panics if the scenario reconfigures away the sequencing path of a
    /// group the workload still publishes to — such a publish could
    /// neither park nor sequence.
    pub fn new(scenario: &Scenario) -> World {
        let (graph, next) = if scenario.reconfig.is_empty() {
            (GraphBuilder::new().build(&scenario.membership), None)
        } else {
            // Both epochs come from one incremental DynamicGraph so atom
            // ids are stable across the handoff and vanished overlaps
            // retire lazily instead of renumbering the survivors.
            let mut dynamic = GraphBuilder::new().dynamic();
            for group in scenario.membership.groups() {
                let members: Vec<NodeId> = scenario.membership.members(group).collect();
                dynamic.add_group(group, members);
            }
            let graph = dynamic.graph();
            for &op in &scenario.reconfig {
                let (node, group, join) = match op {
                    ReconfigOp::Join(node, group) => (node, group, true),
                    ReconfigOp::Leave(node, group) => (node, group, false),
                };
                let mut members: Vec<NodeId> = dynamic.membership().members(group).collect();
                let existed = !members.is_empty();
                if join {
                    members.push(node);
                } else {
                    members.retain(|&m| m != node);
                }
                if existed {
                    dynamic.remove_group(group);
                }
                if !members.is_empty() {
                    dynamic.add_group(group, members);
                }
            }
            let next_graph = dynamic.graph();
            for (i, p) in scenario.publishes.iter().enumerate() {
                assert!(
                    next_graph.ingress(p.group).is_some(),
                    "publish {i}: {} has no sequencing path in the next configuration",
                    p.group
                );
            }
            (
                graph,
                Some(NextConfig {
                    membership: dynamic.membership().clone(),
                    graph: next_graph,
                }),
            )
        };
        let num_nodes = graph.num_atoms();
        let cores = (0..num_nodes)
            .map(|i| {
                let mut core = NodeCore::new(i, scenario.group_commit);
                if scenario.sabotage_unstaged {
                    core.sabotage_skip_staging();
                }
                core
            })
            .collect();
        let protocol = ProtocolState::new(&graph);
        let receivers = scenario
            .membership
            .nodes()
            .map(|node| {
                (
                    node,
                    ReceiverCore::new(node, &scenario.membership, &graph),
                )
            })
            .collect();
        let delivered = scenario
            .membership
            .nodes()
            .map(|node| (node, Vec::new()))
            .collect();
        let mut faults = vec![VecDeque::new(); num_nodes];
        let mut windows = scenario.plan.crash_windows().to_vec();
        windows.sort_by_key(|w| (w.down_at, w.up_at, w.node));
        for w in windows {
            // Plan node indices map onto sequencing atoms; out-of-range
            // indices are ignored, as the FaultPlan contract specifies.
            if let Some(queue) = faults.get_mut(w.node) {
                queue.push_back(FaultKind::Crash);
                queue.push_back(FaultKind::Restart);
            }
        }
        World {
            setup: Rc::new(Compiled {
                scenario: scenario.clone(),
                graph,
                next,
            }),
            cores,
            protocol,
            receivers,
            channels: BTreeMap::new(),
            staged: vec![Vec::new(); num_nodes],
            rx_count: vec![BTreeMap::new(); num_nodes],
            published: vec![false; scenario.publishes.len()],
            publish_epoch: vec![None; scenario.publishes.len()],
            delivered,
            faults,
            reconfig_fired: false,
            handoff: false,
            parked: Vec::new(),
        }
    }

    /// The scenario this world was compiled from.
    pub fn scenario(&self) -> &Scenario {
        &self.setup.scenario
    }

    /// The sequencing graph currently in force (the next configuration's
    /// graph once the epoch handoff has completed).
    pub fn graph(&self) -> &SequencingGraph {
        self.setup.config(self.advanced()).1
    }

    /// `true` once the handoff has completed and the next configuration
    /// is in force.
    fn advanced(&self) -> bool {
        self.reconfig_fired && !self.handoff
    }

    /// The configuration epoch currently sequencing messages (0 until an
    /// `EpochAdvance` fires).
    pub fn epoch(&self) -> u64 {
        self.protocol.epoch()
    }

    /// `true` while the epoch handoff is pending.
    pub fn handoff_pending(&self) -> bool {
        self.handoff
    }

    /// Publishes accepted during the handoff, not yet injected.
    pub fn parked_publishes(&self) -> usize {
        self.parked.len()
    }

    /// The epoch workload publish `i` was sequenced under, `None` if it
    /// has not been published yet.
    pub fn publish_epoch(&self, i: usize) -> Option<u64> {
        self.publish_epoch[i]
    }

    /// The membership in force at configuration `epoch` (the initial one
    /// for epoch 0, the reconfigured one from epoch 1 on).
    pub fn epoch_membership(&self, epoch: u64) -> &Membership {
        match &self.setup.next {
            Some(next) if epoch >= 1 => &next.membership,
            _ => &self.setup.scenario.membership,
        }
    }

    /// The delivery log of `host`, in delivery order; each entry carries
    /// the epoch the message was sequenced under.
    pub fn delivered_log(&self, host: NodeId) -> &[(MessageId, GroupId, u64)] {
        self.delivered
            .get(&host)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Every subscriber host, in id order.
    pub fn hosts(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.delivered.keys().copied()
    }

    /// `true` once every workload publish has been issued.
    pub fn all_published(&self) -> bool {
        self.published.iter().all(|&p| p)
    }

    /// `true` when nothing can happen anymore. The workload's structure
    /// guarantees this implies: all messages published, all channels
    /// drained, all staged output flushed, and every crashed node
    /// restarted — so terminal oracles may demand complete delivery.
    pub fn is_terminal(&self) -> bool {
        self.enabled().is_empty()
    }

    /// Whether publish `i` may fire now: not yet published, and its causal
    /// trigger (if any) already delivered at the sender.
    fn publish_enabled(&self, i: usize) -> bool {
        if self.published[i] {
            return false;
        }
        let p = &self.setup.scenario.publishes[i];
        match p.after {
            None => true,
            Some(j) => self
                .delivered_log(p.sender)
                .iter()
                .any(|(id, _, _)| *id == MessageId(j as u64)),
        }
    }

    /// The epoch-handoff drain condition (PROTOCOL.md §14): nothing of
    /// the current epoch is still in motion — no frame in a channel, no
    /// staged output, no crashed node holding parked frames, no message
    /// buffered at a receiver.
    fn drained(&self) -> bool {
        self.channels.is_empty()
            && self.staged.iter().all(Vec::is_empty)
            && self.cores.iter().all(NodeCore::is_accepting)
            && self.receivers.values().all(|r| r.queue().pending() == 0)
    }

    /// Every transition currently enabled, in a deterministic order:
    /// publishes by index, channel deliveries by `(src, dst)` key order,
    /// fault actions by node, snapshots by node, then the
    /// reconfiguration steps.
    pub fn enabled(&self) -> Vec<Transition> {
        let mut out = Vec::new();
        for i in 0..self.published.len() {
            if self.publish_enabled(i) {
                out.push(Transition::Publish(i));
            }
        }
        for (&(src, dst), queue) in &self.channels {
            debug_assert!(!queue.is_empty(), "empty channels are removed");
            out.push(Transition::Deliver(src, dst));
        }
        for (node, queue) in self.faults.iter().enumerate() {
            if let Some(&kind) = queue.front() {
                out.push(Transition::Fault(node, kind));
            }
        }
        for (node, staged) in self.staged.iter().enumerate() {
            if !staged.is_empty() && self.cores[node].is_accepting() {
                out.push(Transition::Snapshot(node));
            }
        }
        if self.setup.next.is_some() && !self.reconfig_fired {
            out.push(Transition::Reconfigure);
        }
        if self.handoff && self.drained() {
            out.push(Transition::EpochAdvance);
        }
        out
    }

    /// Executes one transition, returning what happened for the per-step
    /// oracles.
    ///
    /// # Panics
    ///
    /// Panics if `transition` is not currently enabled (checker bug).
    pub fn step(&mut self, transition: Transition) -> StepRecord {
        self.step_traced(transition, &mut NullSink)
    }

    /// [`World::step`] with a structured trace sink: the protocol cores
    /// report stamps, forwards, arrivals, buffering, and deliveries, and
    /// the model itself reports publishes and snapshot flushes. The model
    /// has no clock, so events carry whatever the caller last passed to
    /// [`TraceSink::now`] — step-index stamping is the convention (see
    /// [`crate::shrink::replay_traced`]).
    pub fn step_traced<S: TraceSink + ?Sized>(
        &mut self,
        transition: Transition,
        sink: &mut S,
    ) -> StepRecord {
        let mut record = StepRecord {
            transition,
            unstaged_sends: Vec::new(),
            delivered_now: Vec::new(),
        };
        let setup = self.setup.clone();
        let advanced = self.advanced();
        match transition {
            Transition::Publish(i) => {
                assert!(self.publish_enabled(i), "{transition} not enabled");
                let p = &setup.scenario.publishes[i];
                self.published[i] = true;
                if sink.enabled() {
                    sink.record(TraceEvent {
                        msg: Some(i as u64),
                        group: Some(u64::from(p.group.0)),
                        detail: Some(u64::from(p.sender.0)),
                        ..TraceEvent::new(EventKind::Publish, Actor::Publisher)
                    });
                }
                if self.handoff {
                    // Accepted immediately, sequenced under the next
                    // epoch: validated against the next configuration
                    // (checked at compile) and parked until the handoff.
                    self.publish_epoch[i] = Some(self.protocol.epoch() + 1);
                    self.parked.push(i);
                    return record;
                }
                self.publish_epoch[i] = Some(self.protocol.epoch());
                let msg = Message::new(MessageId(i as u64), p.sender, p.group, Vec::new());
                let ingress = setup
                    .config(advanced)
                    .1
                    .ingress(p.group)
                    .unwrap_or_else(|| panic!("{} has no sequencing path", p.group));
                self.enqueue(
                    Peer::Host(p.sender),
                    Peer::Node(ingress.index()),
                    Frame {
                        msg,
                        target_atom: Some(ingress),
                    },
                );
            }
            Transition::Deliver(src, dst) => {
                let frame = {
                    let queue = self
                        .channels
                        .get_mut(&(src, dst))
                        .unwrap_or_else(|| panic!("{transition} not enabled"));
                    let frame = queue.pop_front().expect("channel nonempty");
                    if queue.is_empty() {
                        self.channels.remove(&(src, dst));
                    }
                    frame
                };
                match dst {
                    Peer::Node(node) => {
                        *self.rx_count[node].entry(src).or_insert(0) += 1;
                        let (membership, graph) = setup.config(advanced);
                        let routing = Routing::solo(membership, graph);
                        let cmds = node_commands(
                            &mut self.cores[node],
                            &routing,
                            &mut self.protocol,
                            Event::FrameArrived { frame },
                            sink,
                        );
                        self.execute(node, cmds, &mut record, sink);
                    }
                    Peer::Host(host) => {
                        let receiver = self
                            .receivers
                            .get_mut(&host)
                            .unwrap_or_else(|| panic!("{host} has no receiver"));
                        for cmd in receiver_commands(receiver, Event::FrameArrived { frame }, sink)
                        {
                            match cmd {
                                Command::Deliver { host, msg } => {
                                    self.delivered
                                        .get_mut(&host)
                                        .expect("known host")
                                        .push((msg.id, msg.group, msg.epoch));
                                    record
                                        .delivered_now
                                        .push((host, msg.id, msg.group, msg.epoch));
                                }
                                other => panic!("receiver emitted {other:?}"),
                            }
                        }
                    }
                    Peer::Publisher => panic!("frames never flow to the publisher"),
                }
            }
            Transition::Fault(node, kind) => {
                let popped = self.faults[node].pop_front();
                assert_eq!(popped, Some(kind), "{transition} not enabled");
                let (membership, graph) = setup.config(advanced);
                let routing = Routing::solo(membership, graph);
                let event = match kind {
                    FaultKind::Crash => Event::NodeCrashed,
                    FaultKind::Restart => Event::NodeRestarted,
                };
                let cmds = node_commands(
                    &mut self.cores[node],
                    &routing,
                    &mut self.protocol,
                    event,
                    sink,
                );
                self.execute(node, cmds, &mut record, sink);
            }
            Transition::Snapshot(node) => {
                assert!(
                    !self.staged[node].is_empty() && self.cores[node].is_accepting(),
                    "{transition} not enabled"
                );
                let rx_next: Vec<(Peer, u64)> = self.rx_count[node]
                    .iter()
                    .map(|(&peer, &count)| (peer, count + 1))
                    .collect();
                let (membership, graph) = setup.config(advanced);
                let routing = Routing::solo(membership, graph);
                let cmds = node_commands(
                    &mut self.cores[node],
                    &routing,
                    &mut self.protocol,
                    Event::SnapshotTaken { rx_next },
                    sink,
                );
                self.execute(node, cmds, &mut record, sink);
            }
            Transition::Reconfigure => {
                assert!(
                    setup.next.is_some() && !self.reconfig_fired,
                    "{transition} not enabled"
                );
                self.reconfig_fired = true;
                self.handoff = true;
            }
            Transition::EpochAdvance => {
                assert!(self.handoff && self.drained(), "{transition} not enabled");
                let next = setup.next.as_ref().expect("handoff implies next config");
                self.advance_epoch(next);
                if sink.enabled() {
                    sink.record(TraceEvent {
                        detail: Some(self.protocol.epoch()),
                        ..TraceEvent::new(EventKind::EpochAdvance, Actor::Publisher)
                    });
                }
                // Inject the parked publishes under the new epoch, in
                // publish order.
                for i in std::mem::take(&mut self.parked) {
                    let p = &setup.scenario.publishes[i];
                    let msg = Message::new(MessageId(i as u64), p.sender, p.group, Vec::new());
                    let ingress = next
                        .graph
                        .ingress(p.group)
                        .expect("parked publish validated at compile");
                    self.enqueue(
                        Peer::Host(p.sender),
                        Peer::Node(ingress.index()),
                        Frame {
                            msg,
                            target_atom: Some(ingress),
                        },
                    );
                }
            }
        }
        record
    }

    /// Swaps the next configuration in at a drained handoff point: the
    /// protocol adopts the new graph (counters of surviving atoms and
    /// groups carry over, the epoch advances), receivers re-synchronize
    /// (joiners start from the counters' current positions, leavers are
    /// dropped but keep their delivery log), and new atoms get fresh
    /// cores while retired ones stay as transit hops.
    fn advance_epoch(&mut self, next: &NextConfig) {
        self.protocol.adopt(&next.graph);
        let old_receivers = std::mem::take(&mut self.receivers);
        for node in next.membership.nodes() {
            let receiver = match old_receivers.get(&node) {
                Some(r) => {
                    let mut queue = r.queue().clone();
                    queue.resync_with(&next.membership, &next.graph, &self.protocol);
                    ReceiverCore::from_queue(queue)
                }
                None => ReceiverCore::synced(node, &next.membership, &next.graph, &self.protocol),
            };
            self.receivers.insert(node, receiver);
            self.delivered.entry(node).or_default();
        }
        let atoms = next.graph.num_atoms();
        while self.cores.len() < atoms {
            let mut core = NodeCore::new(self.cores.len(), self.setup.scenario.group_commit);
            if self.setup.scenario.sabotage_unstaged {
                core.sabotage_skip_staging();
            }
            self.cores.push(core);
        }
        self.staged.resize_with(atoms, Vec::new);
        self.rx_count.resize_with(atoms, BTreeMap::new);
        self.faults.resize_with(atoms, VecDeque::new);
        self.handoff = false;
    }

    /// [`World::step`] the way drivers call the cores (PROTOCOL.md §12):
    /// where `step` gives every core call a fresh buffer, this method
    /// appends every call of the transition into **one** reused
    /// [`CommandBuf`], and a restart's replayed frames re-enter the core
    /// as *one* batch instead of one call per frame. The `batch-vs-step`
    /// oracle holds this method to state-and-record equivalence with
    /// [`World::step`] on every explored edge; it exists for that
    /// differential check, not for speed.
    ///
    /// # Panics
    ///
    /// Panics if `transition` is not currently enabled (checker bug).
    pub fn step_batched(&mut self, transition: Transition) -> StepRecord {
        let mut record = StepRecord {
            transition,
            unstaged_sends: Vec::new(),
            delivered_now: Vec::new(),
        };
        let setup = self.setup.clone();
        let advanced = self.advanced();
        // The one buffer every core call of this step appends into.
        let mut buf = CommandBuf::new();
        match transition {
            // Publishing and the reconfiguration steps call no core; the
            // paths are identical by construction.
            Transition::Publish(_) | Transition::Reconfigure | Transition::EpochAdvance => {
                return self.step(transition)
            }
            Transition::Deliver(src, dst) => {
                let frame = {
                    let queue = self
                        .channels
                        .get_mut(&(src, dst))
                        .unwrap_or_else(|| panic!("{transition} not enabled"));
                    let frame = queue.pop_front().expect("channel nonempty");
                    if queue.is_empty() {
                        self.channels.remove(&(src, dst));
                    }
                    frame
                };
                match dst {
                    Peer::Node(node) => {
                        *self.rx_count[node].entry(src).or_insert(0) += 1;
                        let (membership, graph) = setup.config(advanced);
                        let routing = Routing::solo(membership, graph);
                        self.cores[node].on_event_into(
                            &routing,
                            &mut self.protocol,
                            Event::FrameArrived { frame },
                            &mut NullSink,
                            &mut buf,
                        );
                        self.execute_batched(node, &mut buf, &mut record);
                    }
                    Peer::Host(host) => {
                        let receiver = self
                            .receivers
                            .get_mut(&host)
                            .unwrap_or_else(|| panic!("{host} has no receiver"));
                        receiver.on_event_into(
                            Event::FrameArrived { frame },
                            &mut NullSink,
                            &mut buf,
                        );
                        for cmd in buf.drain() {
                            match cmd {
                                Command::Deliver { host, msg } => {
                                    self.delivered
                                        .get_mut(&host)
                                        .expect("known host")
                                        .push((msg.id, msg.group, msg.epoch));
                                    record
                                        .delivered_now
                                        .push((host, msg.id, msg.group, msg.epoch));
                                }
                                other => panic!("receiver emitted {other:?}"),
                            }
                        }
                    }
                    Peer::Publisher => panic!("frames never flow to the publisher"),
                }
            }
            Transition::Fault(node, kind) => {
                let popped = self.faults[node].pop_front();
                assert_eq!(popped, Some(kind), "{transition} not enabled");
                let (membership, graph) = setup.config(advanced);
                let routing = Routing::solo(membership, graph);
                let event = match kind {
                    FaultKind::Crash => Event::NodeCrashed,
                    FaultKind::Restart => Event::NodeRestarted,
                };
                self.cores[node].on_event_into(
                    &routing,
                    &mut self.protocol,
                    event,
                    &mut NullSink,
                    &mut buf,
                );
                self.execute_batched(node, &mut buf, &mut record);
            }
            Transition::Snapshot(node) => {
                assert!(
                    !self.staged[node].is_empty() && self.cores[node].is_accepting(),
                    "{transition} not enabled"
                );
                let rx_next: Vec<(Peer, u64)> = self.rx_count[node]
                    .iter()
                    .map(|(&peer, &count)| (peer, count + 1))
                    .collect();
                let (membership, graph) = setup.config(advanced);
                let routing = Routing::solo(membership, graph);
                self.cores[node].on_event_into(
                    &routing,
                    &mut self.protocol,
                    Event::SnapshotTaken { rx_next },
                    &mut NullSink,
                    &mut buf,
                );
                self.execute_batched(node, &mut buf, &mut record);
            }
        }
        record
    }

    /// [`World::execute`] for the batched path: drains `buf` and executes
    /// its commands; maximal runs of [`Command::Replay`] re-enter the core
    /// as one loop appending into the same reused `buf` (the command-order
    /// position of the run is preserved, so interleaved non-replay
    /// commands still execute where stepped execution would).
    fn execute_batched(&mut self, node: usize, buf: &mut CommandBuf, record: &mut StepRecord) {
        let setup = self.setup.clone();
        let cmds: Vec<Command> = buf.drain().collect();
        let mut replays: Vec<Event> = Vec::new();
        for cmd in cmds {
            if !matches!(cmd, Command::Replay { .. }) && !replays.is_empty() {
                self.replay_batch(node, std::mem::take(&mut replays), buf, record);
            }
            match cmd {
                Command::Send { to, frame } => {
                    if setup.scenario.group_commit {
                        record.unstaged_sends.push((node, frame.msg.id));
                    }
                    self.enqueue(Peer::Node(node), to, frame);
                }
                Command::Stage { to, frame } => {
                    self.staged[node].push((to, frame));
                }
                Command::Flush => {
                    let staged = std::mem::take(&mut self.staged[node]);
                    for (to, frame) in staged {
                        self.enqueue(Peer::Node(node), to, frame);
                    }
                }
                Command::Ack { .. } => {}
                Command::Replay { frame } => {
                    replays.push(Event::FrameArrived { frame });
                }
                Command::Deliver { .. } => panic!("node cores never deliver"),
            }
        }
        if !replays.is_empty() {
            self.replay_batch(node, replays, buf, record);
        }
    }

    /// Feeds a run of replayed frames into `node`'s core as one batch —
    /// every event appending into the reused `buf` — and executes the
    /// resulting commands (batched, recursively).
    fn replay_batch(
        &mut self,
        node: usize,
        events: Vec<Event>,
        buf: &mut CommandBuf,
        record: &mut StepRecord,
    ) {
        let setup = self.setup.clone();
        let (membership, graph) = setup.config(self.advanced());
        let routing = Routing::solo(membership, graph);
        for event in events {
            self.cores[node].on_event_into(&routing, &mut self.protocol, event, &mut NullSink, buf);
        }
        self.execute_batched(node, buf, record);
    }

    /// Executes the commands a node core returned. [`Command::Replay`]
    /// re-enters the core immediately (the driver contract: parked frames
    /// are re-presented at the restart instant, before any new arrival).
    fn execute<S: TraceSink + ?Sized>(
        &mut self,
        node: usize,
        cmds: Vec<Command>,
        record: &mut StepRecord,
        sink: &mut S,
    ) {
        let setup = self.setup.clone();
        for cmd in cmds {
            match cmd {
                Command::Send { to, frame } => {
                    if setup.scenario.group_commit {
                        // In group-commit mode a raw send means the core
                        // bypassed staging — the violation the
                        // staged-output oracle exists to catch. It still
                        // hits the wire: that is what makes it a bug.
                        record.unstaged_sends.push((node, frame.msg.id));
                    }
                    self.enqueue(Peer::Node(node), to, frame);
                }
                Command::Stage { to, frame } => {
                    self.staged[node].push((to, frame));
                }
                Command::Flush => {
                    let staged = std::mem::take(&mut self.staged[node]);
                    if sink.enabled() {
                        sink.record(TraceEvent {
                            detail: Some(staged.len() as u64),
                            ..TraceEvent::new(
                                EventKind::SnapshotFlush,
                                Actor::Node(node as u64),
                            )
                        });
                    }
                    for (to, frame) in staged {
                        self.enqueue(Peer::Node(node), to, frame);
                    }
                }
                Command::Ack { .. } => {
                    // The model's channels are reliable and unbounded, so
                    // there is no retransmission buffer to trim.
                }
                Command::Replay { frame } => {
                    let (membership, graph) = setup.config(self.advanced());
                    let routing = Routing::solo(membership, graph);
                    let cmds = node_commands(
                        &mut self.cores[node],
                        &routing,
                        &mut self.protocol,
                        Event::FrameArrived { frame },
                        sink,
                    );
                    self.execute(node, cmds, record, sink);
                }
                Command::Deliver { .. } => panic!("node cores never deliver"),
            }
        }
    }

    fn enqueue(&mut self, src: Peer, dst: Peer, frame: Frame) {
        self.channels.entry((src, dst)).or_default().push_back(frame);
    }

    /// A platform-stable digest of the complete observable state, used by
    /// the exhaustive explorer to deduplicate states reached by different
    /// schedules. Two worlds with equal digests are (modulo hash
    /// collisions) indistinguishable to every transition and oracle.
    pub fn state_hash(&self) -> u64 {
        let mut d = Digest::new();
        for core in &self.cores {
            core.digest_into(&mut d);
        }
        self.protocol.digest_into(&mut d);
        for receiver in self.receivers.values() {
            receiver.digest_into(&mut d);
        }
        d.write_u64(self.channels.len() as u64);
        for (&(src, dst), queue) in &self.channels {
            d.write_peer(src);
            d.write_peer(dst);
            d.write_u64(queue.len() as u64);
            for frame in queue {
                d.write_message(&frame.msg);
                d.write_u64(frame.target_atom.map_or(u64::MAX, |a| u64::from(a.0)));
            }
        }
        for staged in &self.staged {
            d.write_u64(staged.len() as u64);
            for (to, frame) in staged {
                d.write_peer(*to);
                d.write_message(&frame.msg);
                d.write_u64(frame.target_atom.map_or(u64::MAX, |a| u64::from(a.0)));
            }
        }
        for counts in &self.rx_count {
            d.write_u64(counts.len() as u64);
            for (&peer, &count) in counts {
                d.write_peer(peer);
                d.write_u64(count);
            }
        }
        for &p in &self.published {
            d.write_u64(u64::from(p));
        }
        for epoch in &self.publish_epoch {
            d.write_u64(epoch.map_or(u64::MAX, |e| e));
        }
        for (host, log) in &self.delivered {
            d.write_u64(u64::from(host.0));
            d.write_u64(log.len() as u64);
            for (id, group, epoch) in log {
                d.write_u64(id.0);
                d.write_u64(u64::from(group.0));
                d.write_u64(*epoch);
            }
        }
        for queue in &self.faults {
            d.write_u64(queue.len() as u64);
            for kind in queue {
                d.write_u64(match kind {
                    FaultKind::Crash => 0,
                    FaultKind::Restart => 1,
                });
            }
        }
        d.write_u64(u64::from(self.reconfig_fired));
        d.write_u64(u64::from(self.handoff));
        d.write_u64(self.parked.len() as u64);
        for &i in &self.parked {
            d.write_u64(i as u64);
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    /// Always picks decision 0 — one arbitrary but fixed schedule.
    fn run_first_schedule(world: &mut World) -> usize {
        let mut steps = 0;
        while let Some(&t) = world.enabled().first() {
            world.step(t);
            steps += 1;
            assert!(steps < 10_000, "schedule does not terminate");
        }
        steps
    }

    #[test]
    fn first_schedule_terminates_with_full_delivery() {
        let sc = scenario::two_group_overlap();
        let mut world = World::new(&sc);
        run_first_schedule(&mut world);
        assert!(world.all_published());
        for host in sc.membership.nodes() {
            let expected: usize = sc
                .publishes
                .iter()
                .filter(|p| sc.membership.is_member(host, p.group))
                .count();
            assert_eq!(
                world.delivered_log(host).len(),
                expected,
                "{host} delivered everything for its groups"
            );
        }
    }

    #[test]
    fn crash_variant_drains_fault_queue_before_terminating() {
        let sc = scenario::two_group_overlap().crash_variant();
        let mut world = World::new(&sc);
        run_first_schedule(&mut world);
        assert!(world.is_terminal());
        assert_eq!(world.cores[0].recovery_stats().crashes, 1);
        assert!(world.cores[0].is_accepting(), "restarted before terminal");
    }

    #[test]
    fn group_commit_holds_output_until_snapshot() {
        let sc = scenario::two_group_overlap().with_group_commit();
        let mut world = World::new(&sc);
        // Publish m0 and deliver it to the sequencing node.
        world.step(Transition::Publish(0));
        let deliver = world
            .enabled()
            .into_iter()
            .find(|t| matches!(t, Transition::Deliver(..)))
            .expect("frame in flight");
        let record = world.step(deliver);
        assert!(record.unstaged_sends.is_empty(), "honest core stages");
        assert!(!world.staged[0].is_empty(), "fan-out staged, not sent");
        assert!(world.channels.is_empty(), "nothing escaped the node");
        // The snapshot releases it.
        let record = world.step(Transition::Snapshot(0));
        assert!(record.unstaged_sends.is_empty());
        assert!(world.staged[0].is_empty());
        assert!(!world.channels.is_empty(), "flush put frames on the wire");
    }

    #[test]
    fn sabotaged_core_is_caught_as_unstaged_send() {
        let sc = scenario::two_group_overlap().with_sabotaged_staging();
        let mut world = World::new(&sc);
        world.step(Transition::Publish(0));
        let deliver = world
            .enabled()
            .into_iter()
            .find(|t| matches!(t, Transition::Deliver(..)))
            .expect("frame in flight");
        let record = world.step(deliver);
        assert!(
            !record.unstaged_sends.is_empty(),
            "sabotage bypasses staging and is recorded"
        );
    }

    #[test]
    fn state_hash_distinguishes_and_rejoins_schedules() {
        let sc = scenario::two_group_overlap();
        let base = World::new(&sc);
        assert_eq!(base.state_hash(), World::new(&sc).state_hash());

        // Publishing m0 then m1 in either order converges to the same
        // state (independent enqueues onto different channels).
        let mut ab = base.clone();
        ab.step(Transition::Publish(0));
        let mid_a = ab.state_hash();
        ab.step(Transition::Publish(1));
        let mut ba = base.clone();
        ba.step(Transition::Publish(1));
        assert_ne!(mid_a, ba.state_hash(), "different prefixes differ");
        ba.step(Transition::Publish(0));
        assert_eq!(ab.state_hash(), ba.state_hash(), "diamond rejoins");
    }

    #[test]
    fn batched_stepping_matches_per_event_stepping() {
        // Drive stepped and batched worlds in lockstep over a varied
        // schedule (rotating pick hits publishes, deliveries, crash
        // windows with parked-frame replays, and snapshot flushes).
        for sc in [
            scenario::two_group_overlap(),
            scenario::two_group_overlap().crash_variant(),
            scenario::two_group_overlap().with_group_commit(),
            scenario::crash_during_handoff(),
        ] {
            let mut stepped = World::new(&sc);
            let mut batched = World::new(&sc);
            let mut steps = 0usize;
            loop {
                let enabled = stepped.enabled();
                assert_eq!(enabled, batched.enabled(), "{}: enabled sets agree", sc.name);
                let Some(&t) = enabled.get(steps % enabled.len().max(1)) else {
                    break;
                };
                let s = stepped.step(t);
                let b = batched.step_batched(t);
                assert_eq!(
                    stepped.state_hash(),
                    batched.state_hash(),
                    "{}: states agree after {t}",
                    sc.name
                );
                assert_eq!(format!("{s:?}"), format!("{b:?}"), "{}: records agree", sc.name);
                steps += 1;
                assert!(steps < 10_000, "schedule does not terminate");
            }
        }
    }

    #[test]
    fn transitions_render_for_replay_logs() {
        assert_eq!(Transition::Publish(3).to_string(), "publish m3");
        assert_eq!(
            Transition::Deliver(Peer::Host(NodeId(1)), Peer::Node(0)).to_string(),
            "deliver host1->node0"
        );
        assert_eq!(
            Transition::Fault(2, FaultKind::Crash).to_string(),
            "crash node2"
        );
        assert_eq!(
            Transition::Fault(2, FaultKind::Restart).to_string(),
            "restart node2"
        );
        assert_eq!(Transition::Snapshot(1).to_string(), "snapshot node1");
        assert_eq!(Transition::Reconfigure.to_string(), "reconfigure");
        assert_eq!(Transition::EpochAdvance.to_string(), "advance-epoch");
    }

    #[test]
    fn handoff_parks_publishes_and_advances_once_drained() {
        let sc = scenario::join_during_flight();
        let mut world = World::new(&sc);
        // m0 flies under epoch 0, then the reconfiguration begins.
        world.step(Transition::Publish(0));
        world.step(Transition::Reconfigure);
        assert!(world.handoff_pending());
        assert!(
            !world.enabled().contains(&Transition::EpochAdvance),
            "m0 still in flight: the epoch cannot advance"
        );
        // Publishes during the handoff park for the next epoch.
        world.step(Transition::Publish(1));
        assert_eq!(world.parked_publishes(), 1);
        assert_eq!(world.publish_epoch(0), Some(0));
        assert_eq!(world.publish_epoch(1), Some(1));
        // Drain epoch 0 (deliver every channel head until quiet).
        while let Some(&t) = world
            .enabled()
            .iter()
            .find(|t| matches!(t, Transition::Deliver(..)))
        {
            world.step(t);
        }
        assert!(world.enabled().contains(&Transition::EpochAdvance));
        world.step(Transition::EpochAdvance);
        assert_eq!(world.epoch(), 1);
        assert!(!world.handoff_pending());
        assert_eq!(world.parked_publishes(), 0, "parked m1 was injected");
        // Finish the run: remaining publish + the injected frames.
        while let Some(&t) = world.enabled().first() {
            world.step(t);
        }
        // n1 subscribes to both groups in both epochs: it saw m0 under
        // epoch 0 and m1 under epoch 1. The joiner n4 sees only epoch 1.
        let n1: Vec<(MessageId, u64)> = world
            .delivered_log(NodeId(1))
            .iter()
            .map(|&(id, _, e)| (id, e))
            .collect();
        assert!(n1.contains(&(MessageId(0), 0)));
        assert!(n1.contains(&(MessageId(1), 1)));
        assert!(world
            .delivered_log(NodeId(4))
            .iter()
            .all(|&(_, _, e)| e == 1));
        assert!(!world.delivered_log(NodeId(4)).is_empty());
    }

    #[test]
    fn leave_scenario_retires_the_old_overlap_atom_lazily() {
        let sc = scenario::leave_with_parked_atoms();
        let world = World::new(&sc);
        let initial_atoms = world.graph().num_atoms();
        let mut world = World::new(&sc);
        world.step(Transition::Reconfigure);
        while let Some(&t) = world.enabled().first() {
            world.step(t);
        }
        assert_eq!(world.epoch(), 1);
        let graph = world.graph();
        assert!(
            graph.num_atoms() > initial_atoms,
            "the shrunk overlap got a fresh atom beside the retired one"
        );
        assert!(
            graph.atoms().iter().any(|a| graph.is_retired(a.id)),
            "the vanished overlap's atom is retired, not renumbered"
        );
        // The leaver kept its history but received nothing under epoch 1.
        assert!(world
            .delivered_log(NodeId(2))
            .iter()
            .all(|&(_, group, e)| e == 0 || group == GroupId(0)));
    }
}
