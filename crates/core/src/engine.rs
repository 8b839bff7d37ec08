//! Discrete-event simulation of the full ordering pipeline: ingress,
//! sequencing, and distribution (paper §3).

use crate::proto::trace::{Actor, EventKind, TraceEvent, TraceSink};
use crate::proto::{
    Command, CommandBuf, Event, Frame, NodeCore, Peer, ReceiverCore, RecoveryStats, Routing,
};
use crate::{CoreError, DelayModel, DelayTable, Endpoint, Message, MessageId, ProtocolState};
use bytes::Bytes;
use rand::Rng;
use seqnet_membership::{GroupId, Membership, NodeId};
use seqnet_overlap::{AtomId, Colocation, GraphBuilder, Placement, SequencingGraph};
use seqnet_sim::{FaultPlan, FifoStamper, SimTime, Simulator};
use seqnet_topology::{ClusteredAttachment, HostMap, Topology, TransitStubParams};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// One message delivered to one destination, with full timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// The message.
    pub id: MessageId,
    /// Who published it.
    pub sender: NodeId,
    /// The destination group.
    pub group: GroupId,
    /// The subscriber that delivered it.
    pub destination: NodeId,
    /// When the sender published.
    pub published: SimTime,
    /// When the message arrived at the destination (end of the sequencing
    /// + distribution traversal — the paper's latency-stretch numerator).
    pub arrived: SimTime,
    /// When the destination delivered it to the application (includes any
    /// buffering while waiting for predecessors).
    pub delivered: SimTime,
    /// The direct shortest-path (unicast) delay from sender to destination
    /// — the latency-stretch denominator.
    pub unicast: SimTime,
    /// Number of overlap stamps the message carried.
    pub stamps: usize,
    /// The application payload.
    pub payload: Bytes,
    /// The configuration epoch the message was sequenced under
    /// (PROTOCOL.md §14), stamped by the group's ingress atom.
    pub epoch: u64,
}

/// A generated router topology plus host attachment, ready to run
/// experiments on.
#[derive(Debug, Clone)]
pub struct NetworkSetup {
    /// The router-level topology.
    pub topology: Topology,
    /// Where each host attaches.
    pub hosts: HostMap,
}

impl NetworkSetup {
    /// Generates a transit–stub topology and attaches `num_hosts` hosts in
    /// clusters of `cluster_size` (paper §4.1).
    pub fn generate<R: Rng>(
        params: &TransitStubParams,
        num_hosts: usize,
        cluster_size: usize,
        rng: &mut R,
    ) -> Self {
        let topology = params.generate(rng);
        let hosts = ClusteredAttachment::new(num_hosts, cluster_size).attach(&topology, rng);
        NetworkSetup { topology, hosts }
    }
}

/// Design knobs of the network deployment, for ablation studies. The
/// default enables everything the paper proposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Run the §3.4 two-step atom co-location (vs one node per atom).
    pub colocate: bool,
    /// Seed each group's placement at a member's attachment router (vs a
    /// uniformly random router).
    pub anchored: bool,
    /// Use the §3.4 machine-mapping heuristic (vs fully random machines).
    pub heuristic_placement: bool,
    /// Run the chain-span local search during graph construction.
    pub optimize_chains: bool,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            colocate: true,
            anchored: true,
            heuristic_placement: true,
            optimize_chains: true,
        }
    }
}

/// Counters describing what an installed [`FaultPlan`] actually did to a
/// simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Crash-recovery counters, aggregated across all atom cores. The
    /// counter definitions are shared with the threaded runtime's
    /// `RuntimeStats` (both embed [`RecoveryStats`] maintained by the
    /// protocol core), so simulator and runtime report recovery behavior
    /// identically. `recovery_micros` stays zero here: parked messages
    /// replay at the restart instant, without a recovery phase of their
    /// own.
    pub recovery: RecoveryStats,
    /// Transmissions deferred by a link partition or stretched by a
    /// burst-loss retransmission penalty.
    pub messages_delayed: u64,
}

/// Runtime state of an installed fault schedule. Crash windows execute as
/// [`Event::NodeCrashed`]/[`Event::NodeRestarted`] events against the atom
/// cores, which own the parking and replay; only the transport-level
/// faults (partitions, loss penalties) remain here.
#[derive(Debug)]
struct FaultCtx {
    plan: FaultPlan,
    messages_delayed: u64,
}

/// Deterministic per-(message, edge) tag feeding the loss-penalty hash.
fn fault_tag(id: MessageId, a: u64, b: u64) -> u64 {
    id.0 ^ a.rotate_left(24) ^ b.rotate_left(48)
}

/// A deferred publish, fired when `after` is delivered at `sender`.
#[derive(Debug, Clone)]
struct Trigger {
    sender: NodeId,
    after: MessageId,
    group: GroupId,
    payload: Bytes,
    id: MessageId,
}

/// A publish accepted while an epoch handoff was pending. It already has
/// an id (ids are epoch-independent) but is held back until epoch N has
/// drained and the new configuration is active, then injected at
/// `max(at, handoff instant)` so it is sequenced under epoch N+1.
#[derive(Debug, Clone)]
struct ParkedPublish {
    id: MessageId,
    sender: NodeId,
    group: GroupId,
    payload: Bytes,
    at: SimTime,
}

/// A pending online reconfiguration (PROTOCOL.md §14): the configuration
/// that will activate once every in-flight epoch-N message has been
/// sequenced and delivered, plus the publishes parked until then.
#[derive(Debug)]
struct Handoff {
    membership: Membership,
    graph: SequencingGraph,
    parked: Vec<ParkedPublish>,
}

/// Everything the simulation events operate on.
#[derive(Debug)]
struct World {
    membership: Membership,
    graph: SequencingGraph,
    protocol: ProtocolState,
    /// One protocol core per atom (solo routing: atom `i` is node `i`).
    /// All cores share the single `protocol` counter state, borrowed per
    /// event — exactly how the runtime's per-thread cores borrow theirs.
    cores: Vec<NodeCore>,
    receivers: BTreeMap<NodeId, ReceiverCore>,
    delays: DelayModel,
    fifo: FifoStamper<(Endpoint, Endpoint)>,
    /// One in-flight queue per directed channel, ordered by arrival time
    /// (the [`FifoStamper`] clamps arrivals to be non-decreasing per
    /// channel, so pushes always append in order). Whenever a queue is
    /// non-empty, exactly one `pump_channel` event is scheduled at or
    /// before its head's arrival; the pump drains every frame due at its
    /// instant — up to `batch_limit` — into one batched core call.
    channels: HashMap<(Endpoint, Endpoint), VecDeque<(SimTime, Message)>>,
    /// Largest number of frames a single pump may hand the core at once.
    /// `usize::MAX` (the default) batches everything due; `1` degenerates
    /// to per-event stepping, the mode differential tests compare against.
    batch_limit: usize,
    /// Histogram of realized batch sizes (batch size → pump count).
    batch_sizes: BTreeMap<usize, u64>,
    /// Reused command buffer for the batched core calls.
    cmdbuf: CommandBuf,
    /// Reused scratch holding the frames of the batch being pumped.
    batch_scratch: Vec<Message>,
    /// Reused scratch holding computed (destination, arrival, message)
    /// transmissions until the world borrow ends and they can be enqueued.
    outbox: Vec<(Endpoint, SimTime, Message)>,
    next_id: u64,
    publish_time: HashMap<MessageId, SimTime>,
    arrivals: HashMap<(MessageId, NodeId), SimTime>,
    deliveries: BTreeMap<NodeId, Vec<DeliveryRecord>>,
    triggers: Vec<Trigger>,
    messages_published: u64,
    traces: HashMap<MessageId, Vec<(Endpoint, SimTime)>>,
    /// Ordering-metadata bytes carried across network hops (stamps and
    /// group numbers, §4.4's overhead measure integrated over distance).
    overhead_bytes: u64,
    /// Installed fault schedule, if any.
    fault: Option<FaultCtx>,
    /// Pending epoch handoff, if an online reconfiguration was begun and
    /// the current epoch has not drained yet.
    handoff: Option<Handoff>,
    /// Installed trace sink, if any. Shared (`Arc<Mutex<_>>`, keeping
    /// [`OrderedPubSub`] `Send`) so the caller keeps a handle to read
    /// events back; stamped with virtual microseconds.
    sink: Option<Arc<Mutex<dyn TraceSink + Send>>>,
}

/// The ordered publish/subscribe service, simulated.
///
/// See the [crate docs](crate) for a quickstart. For topology-aware
/// experiments use [`OrderedPubSub::with_network`].
#[derive(Debug)]
pub struct OrderedPubSub {
    sim: Simulator<World>,
}

impl OrderedPubSub {
    /// Builds the service over `membership` with a uniform 1 ms hop delay
    /// (no topology), suitable for logical-ordering tests and examples.
    pub fn new(membership: &Membership) -> Self {
        Self::with_uniform_delay(membership, SimTime::from_ms(1.0))
    }

    /// Like [`OrderedPubSub::new`] with an explicit uniform hop delay.
    pub fn with_uniform_delay(membership: &Membership, hop: SimTime) -> Self {
        let graph = GraphBuilder::new().build(membership);
        Self::assemble(membership.clone(), graph, DelayModel::Uniform(hop))
    }

    /// Builds the service on a router topology: the sequencing graph is
    /// constructed, atoms are co-located onto sequencing nodes (§3.4), the
    /// nodes are placed onto machines (§3.4), and all propagation delays
    /// come from shortest paths.
    pub fn with_network<R: Rng>(
        membership: &Membership,
        setup: &NetworkSetup,
        rng: &mut R,
    ) -> Self {
        Self::with_network_config(membership, setup, NetworkConfig::default(), rng)
    }

    /// Like [`OrderedPubSub::with_network`] with explicit choices for each
    /// design knob — the ablation entry point.
    pub fn with_network_config<R: Rng>(
        membership: &Membership,
        setup: &NetworkSetup,
        config: NetworkConfig,
        rng: &mut R,
    ) -> Self {
        let builder = if config.optimize_chains {
            GraphBuilder::new()
        } else {
            GraphBuilder::new().without_optimization()
        };
        let graph = builder.build(membership);
        let coloc = if config.colocate {
            Colocation::compute(&graph, rng)
        } else {
            Colocation::scattered(&graph)
        };
        let placement = match (config.heuristic_placement, config.anchored) {
            (true, true) => {
                let anchors = seqnet_overlap::place::member_anchors(membership, |n| {
                    setup.hosts.router_of(seqnet_topology::HostId(n.0))
                });
                Placement::heuristic(&graph, &coloc, &setup.topology.graph, &anchors, rng)
            }
            (true, false) => {
                Placement::heuristic_unanchored(&graph, &coloc, &setup.topology.graph, rng)
            }
            (false, _) => Placement::random(&coloc, &setup.topology.graph, rng),
        };
        let table = DelayTable::build(
            &setup.topology.graph,
            &setup.hosts,
            &coloc,
            &placement,
            graph.num_atoms(),
        );
        Self::assemble(membership.clone(), graph, DelayModel::Table(table))
    }

    /// Builds the service with an explicit (possibly deliberately invalid)
    /// sequencing graph — used to demonstrate what goes wrong without
    /// condition C2 (the paper's Figure 2(a) circular dependency).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidGraph`] only if the graph is broken in
    /// ways the engine cannot even run (a group with no path); C1/C2
    /// violations are accepted — that is the point.
    pub fn with_graph_unchecked(
        membership: &Membership,
        graph: SequencingGraph,
        delays: DelayModel,
    ) -> Result<Self, CoreError> {
        for g in membership.groups() {
            if membership.group_size(g) > 0 && graph.path(g).is_none() {
                return Err(CoreError::InvalidGraph(format!("{g} has no path")));
            }
        }
        Ok(Self::assemble(membership.clone(), graph, delays))
    }

    fn assemble(membership: Membership, graph: SequencingGraph, delays: DelayModel) -> Self {
        let receivers = membership
            .nodes()
            .map(|n| (n, ReceiverCore::new(n, &membership, &graph)))
            .collect();
        let cores = (0..graph.num_atoms())
            .map(|i| NodeCore::new(i, false))
            .collect();
        let world = World {
            protocol: ProtocolState::new(&graph),
            cores,
            receivers,
            membership,
            graph,
            delays,
            fifo: FifoStamper::new(),
            channels: HashMap::new(),
            batch_limit: usize::MAX,
            batch_sizes: BTreeMap::new(),
            cmdbuf: CommandBuf::new(),
            batch_scratch: Vec::new(),
            outbox: Vec::new(),
            next_id: 0,
            publish_time: HashMap::new(),
            arrivals: HashMap::new(),
            deliveries: BTreeMap::new(),
            triggers: Vec::new(),
            messages_published: 0,
            traces: HashMap::new(),
            overhead_bytes: 0,
            fault: None,
            handoff: None,
            sink: None,
        };
        OrderedPubSub {
            sim: Simulator::new(world),
        }
    }

    /// Installs a structured trace sink: from now on every protocol step
    /// (publish, stamp, forward, arrive, buffer, deliver, crash, replay)
    /// is reported to it, stamped with virtual microseconds. The sink is
    /// shared — keep a clone of the `Arc` to read the events back after
    /// the run. Install before publishing; there is no way to trace
    /// retroactively.
    pub fn set_trace_sink(&mut self, sink: Arc<Mutex<dyn TraceSink + Send>>) {
        self.sim.world_mut().sink = Some(sink);
    }

    /// Selects between the batched fast path (the default: every frame
    /// due on a channel at the same instant flows through one loop of
    /// [`NodeCore::on_event_into`] / [`ReceiverCore::on_event_into`] calls
    /// under one sink lock with reused buffers) and per-event stepping
    /// (`false`: batch limit 1, one core call per frame). The two modes are semantically
    /// equivalent — same delivery orders, same timestamps, same stats
    /// (PROTOCOL.md §12) — which `tests/batch_equivalence.rs` verifies;
    /// stepping exists for that comparison and for bisecting.
    pub fn set_batching(&mut self, enabled: bool) {
        self.sim.world_mut().batch_limit = if enabled { usize::MAX } else { 1 };
    }

    /// Histogram of realized batch sizes: how many channel pumps handed
    /// the cores a batch of each size. Per-event stepping reports every
    /// pump under size 1.
    pub fn batch_size_counts(&self) -> &BTreeMap<usize, u64> {
        &self.sim.world().batch_sizes
    }

    /// Publishes a message at the current virtual time.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownGroup`] if the group has no members.
    pub fn publish(
        &mut self,
        sender: NodeId,
        group: GroupId,
        payload: impl Into<Bytes>,
    ) -> Result<MessageId, CoreError> {
        self.publish_at(self.sim.now(), sender, group, payload)
    }

    /// Publishes at an explicit virtual time (≥ now).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownGroup`] if the group has no members.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn publish_at(
        &mut self,
        at: SimTime,
        sender: NodeId,
        group: GroupId,
        payload: impl Into<Bytes>,
    ) -> Result<MessageId, CoreError> {
        // While an epoch handoff is pending, publishes target the *next*
        // configuration: they validate against it and are parked until
        // the current epoch drains (PROTOCOL.md §14).
        if self.sim.world().handoff.is_some() {
            let next = self.sim.world().handoff.as_ref().expect("checked");
            if next.graph.path(group).is_none() {
                return Err(CoreError::UnknownGroup(group));
            }
            let id = self.fresh_id();
            let parked = ParkedPublish {
                id,
                sender,
                group,
                payload: payload.into(),
                at,
            };
            self.sim
                .world_mut()
                .handoff
                .as_mut()
                .expect("checked")
                .parked
                .push(parked);
            return Ok(id);
        }
        if self.sim.world().graph.path(group).is_none() {
            return Err(CoreError::UnknownGroup(group));
        }
        let id = self.fresh_id();
        let payload = payload.into();
        self.sim.schedule_at(at, move |sim| {
            inject(sim, id, sender, group, payload);
        });
        Ok(id)
    }

    /// Publishes causally: like [`OrderedPubSub::publish`] but requires the
    /// sender to subscribe to the group, the precondition for causal order
    /// (paper §3.3).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SenderNotSubscribed`] if the sender is not a
    /// member, or [`CoreError::UnknownGroup`].
    pub fn publish_causal(
        &mut self,
        sender: NodeId,
        group: GroupId,
        payload: impl Into<Bytes>,
    ) -> Result<MessageId, CoreError> {
        // A parked publish is sequenced under the next configuration, so
        // membership is checked against it too.
        let world = self.sim.world();
        let membership = world
            .handoff
            .as_ref()
            .map(|h| &h.membership)
            .unwrap_or(&world.membership);
        if !membership.is_member(sender, group) {
            return Err(CoreError::SenderNotSubscribed { sender, group });
        }
        self.publish(sender, group, payload)
    }

    /// Registers a *causal reaction*: when `sender` delivers `after`, it
    /// immediately publishes the given message. This models the
    /// deliver-then-send causality the protocol preserves.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SenderNotSubscribed`] if the sender is not a
    /// member of `group` (reactions are causal by definition), or
    /// [`CoreError::UnknownGroup`].
    pub fn publish_after(
        &mut self,
        sender: NodeId,
        after: MessageId,
        group: GroupId,
        payload: impl Into<Bytes>,
    ) -> Result<MessageId, CoreError> {
        let world = self.sim.world();
        if world.graph.path(group).is_none() {
            return Err(CoreError::UnknownGroup(group));
        }
        if !world.membership.is_member(sender, group) {
            return Err(CoreError::SenderNotSubscribed { sender, group });
        }
        let id = self.fresh_id();
        self.sim.world_mut().triggers.push(Trigger {
            sender,
            after,
            group,
            payload: payload.into(),
            id,
        });
        Ok(id)
    }

    fn fresh_id(&mut self) -> MessageId {
        let world = self.sim.world_mut();
        let id = MessageId(world.next_id);
        world.next_id += 1;
        id
    }

    /// Installs a deterministic, seedable fault schedule (crash windows,
    /// link partitions, burst-loss windows) executed as simulator events,
    /// so faulty runs stay byte-for-byte reproducible.
    ///
    /// In the simulator the plan's *node* indices name sequencing atoms:
    /// a crashed atom parks arriving messages in its upstream buffer —
    /// the paper's §3.1 output retransmission buffer, seen from the
    /// sender's side — and a restart event at the window's end replays
    /// them in arrival order. Partitions between atoms `a` and `b` hold
    /// frames until the partition heals; burst-loss windows stretch
    /// affected transmissions by a deterministic number of retransmit
    /// intervals. Per-channel FIFO is preserved throughout, so the
    /// protocol's channel assumption (and with it Definition 1 / Theorem
    /// 1) must survive every schedule — tests assert exactly that.
    /// Windows naming atoms the graph does not have are ignored.
    ///
    /// # Panics
    ///
    /// Panics if virtual time has already advanced past a window's
    /// restart instant — install the plan before running the simulation.
    pub fn apply_fault_plan(&mut self, plan: FaultPlan) {
        let num_atoms = self.sim.world().graph.num_atoms();
        let now = self.sim.now();
        for w in plan.crash_windows() {
            if w.node < num_atoms {
                let atom = AtomId(w.node as u32);
                // Crash/restart run as ordinary simulator events feeding
                // the atom's protocol core. Scheduling them here — before
                // any same-instant arrival is scheduled — makes the tie
                // break the same way the old per-arrival `is_down` check
                // did: an arrival at exactly `down_at` parks, an arrival
                // at exactly `up_at` processes after the replay.
                let down_at = if w.down_at > now { w.down_at } else { now };
                self.sim
                    .schedule_at(down_at, move |sim| crash_atom(sim, atom));
                self.sim
                    .schedule_at(w.up_at, move |sim| restart_atom(sim, atom));
            }
        }
        self.sim.world_mut().fault = Some(FaultCtx {
            plan,
            messages_delayed: 0,
        });
    }

    /// What the installed fault plan did so far; all-zero when no plan
    /// was applied.
    pub fn fault_stats(&self) -> FaultStats {
        let world = self.sim.world();
        let mut recovery = RecoveryStats::default();
        for core in &world.cores {
            recovery.merge(core.recovery_stats());
        }
        FaultStats {
            recovery,
            messages_delayed: world.fault.as_ref().map_or(0, |c| c.messages_delayed),
        }
    }

    /// Runs until no events remain; returns the number of events executed.
    ///
    /// If an online reconfiguration is pending
    /// ([`OrderedPubSub::begin_reconfigure`]), draining the current epoch
    /// completes the handoff here: the new configuration is swapped in,
    /// parked publishes are injected under the new epoch, and the run
    /// continues until those drain too (possibly through further pending
    /// handoffs). A handoff whose epoch cannot drain — e.g. messages
    /// stuck in a circular dependency — is left pending, observable via
    /// [`OrderedPubSub::reconfig_pending`] and
    /// [`OrderedPubSub::stuck_messages`].
    pub fn run_to_quiescence(&mut self) -> u64 {
        let mut events = 0;
        loop {
            events += self.sim.run_to_quiescence();
            if self.sim.world().handoff.is_none() || self.stuck_messages() > 0 {
                break;
            }
            self.complete_handoff();
        }
        events
    }

    /// Runs events up to `deadline` and advances the clock to it.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.sim.run_until(deadline)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The deliveries at `node`, in delivery order.
    pub fn delivered(&self, node: NodeId) -> &[DeliveryRecord] {
        self.sim
            .world()
            .deliveries
            .get(&node)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterates all delivery records of all nodes.
    pub fn all_deliveries(&self) -> impl Iterator<Item = &DeliveryRecord> {
        self.sim.world().deliveries.values().flatten()
    }

    /// Messages sitting in receiver buffers, waiting for predecessors.
    /// After [`OrderedPubSub::run_to_quiescence`], a non-zero value means
    /// messages are stuck forever — e.g. the circular dependency of
    /// Figure 2(a).
    pub fn stuck_messages(&self) -> usize {
        self.sim
            .world()
            .receivers
            .values()
            .map(|r| r.queue().pending())
            .sum()
    }

    /// Simulator events still pending (messages in flight between
    /// endpoints). Zero together with [`OrderedPubSub::stuck_messages`]
    /// means the service is quiescent.
    pub fn events_pending(&self) -> usize {
        self.sim.events_pending()
    }

    /// Causal reactions whose trigger never fired.
    pub fn pending_triggers(&self) -> usize {
        self.sim.world().triggers.len()
    }

    /// Total messages published so far.
    pub fn messages_published(&self) -> u64 {
        self.sim.world().messages_published
    }

    /// The sequencing graph in use.
    pub fn graph(&self) -> &SequencingGraph {
        &self.sim.world().graph
    }

    /// The membership matrix in use.
    pub fn membership(&self) -> &Membership {
        &self.sim.world().membership
    }

    /// Replaces membership and sequencing graph in one quiescent step:
    /// counters of surviving groups and atoms carry over (atom ids are
    /// stable under [`seqnet_overlap::GraphBuilder::dynamic`] updates),
    /// receiver expectations are re-synchronized, and subscribers joining
    /// mid-stream start from the counters' current positions.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotQuiescent`] if events are pending or
    /// messages are buffered — run
    /// [`OrderedPubSub::run_to_quiescence`] first. Otherwise the errors
    /// of [`OrderedPubSub::begin_reconfigure`], which this is followed by
    /// an immediate handoff.
    pub fn reconfigure(
        &mut self,
        membership: &Membership,
        graph: SequencingGraph,
    ) -> Result<(), CoreError> {
        // A staged handoff is reported as such (by `begin_reconfigure`)
        // even while its epoch is still draining.
        let buffered = self.stuck_messages();
        if !self.reconfig_pending() && (self.sim.events_pending() > 0 || buffered > 0) {
            return Err(CoreError::NotQuiescent {
                pending_events: self.sim.events_pending(),
                buffered_messages: buffered,
            });
        }
        self.begin_reconfigure(membership, graph)?;
        self.complete_handoff();
        Ok(())
    }

    /// Completes the pending handoff on a drained world: swaps the new
    /// configuration in, announces the new epoch on the trace sink, and
    /// injects the parked publishes under it. The one place an epoch
    /// advances, for the quiescent and the live path alike.
    fn complete_handoff(&mut self) {
        let now = self.sim.now();
        let world = self.sim.world_mut();
        let Handoff {
            membership,
            graph,
            parked,
        } = world.handoff.take().expect("a handoff is pending");
        apply_config(world, membership, graph);
        let epoch = world.protocol.epoch();
        with_sink(&world.sink, now, |sink| {
            sink.record(TraceEvent {
                detail: Some(epoch),
                ..TraceEvent::new(EventKind::EpochAdvance, Actor::Publisher)
            });
        });
        for p in parked {
            let at = p.at.max(now);
            self.sim.schedule_at(at, move |sim| {
                inject(sim, p.id, p.sender, p.group, p.payload);
            });
        }
    }

    /// Begins a *non-quiescent* reconfiguration (PROTOCOL.md §14): the
    /// new configuration is registered while epoch-N traffic is still in
    /// flight. From this call on, new publishes validate against — and
    /// are parked for — the next configuration; the handoff itself (drain
    /// epoch N, adopt counters, re-synchronize receivers, inject parked
    /// publishes as epoch N+1) completes inside
    /// [`OrderedPubSub::run_to_quiescence`]. Returns the epoch number the
    /// new configuration will activate as.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ReconfigPending`] if a handoff is already
    /// pending (one configuration change at a time), or
    /// [`CoreError::InvalidGraph`] if a non-empty group of the new
    /// membership lacks a path in the new graph.
    pub fn begin_reconfigure(
        &mut self,
        membership: &Membership,
        graph: SequencingGraph,
    ) -> Result<u64, CoreError> {
        if self.sim.world().handoff.is_some() {
            return Err(CoreError::ReconfigPending {
                next_epoch: self.sim.world().protocol.epoch() + 1,
            });
        }
        for g in membership.groups() {
            if membership.group_size(g) > 0 && graph.path(g).is_none() {
                return Err(CoreError::InvalidGraph(format!("{g} has no path")));
            }
        }
        let world = self.sim.world_mut();
        world.handoff = Some(Handoff {
            membership: membership.clone(),
            graph,
            parked: Vec::new(),
        });
        Ok(world.protocol.epoch() + 1)
    }

    /// The configuration epoch currently sequencing messages. Starts at 0
    /// and advances by one per completed reconfiguration (quiescent or
    /// online).
    pub fn epoch(&self) -> u64 {
        self.sim.world().protocol.epoch()
    }

    /// `true` while an online reconfiguration has begun but its epoch
    /// handoff has not completed yet.
    pub fn reconfig_pending(&self) -> bool {
        self.sim.world().handoff.is_some()
    }

    /// Publishes accepted but parked behind the pending epoch handoff;
    /// 0 when no handoff is pending. Bounded by the publish rate times
    /// the drain time — the churn soak asserts exactly that.
    pub fn parked_publishes(&self) -> usize {
        self.sim
            .world()
            .handoff
            .as_ref()
            .map_or(0, |h| h.parked.len())
    }

    /// Total ordering-metadata bytes the network carried so far: each
    /// message's stamps + group number, counted once per hop between
    /// sequencing atoms and once per distribution copy. The §4.4 overhead
    /// argument, integrated over distance — compare against
    /// `vector_timestamp_bytes(n)` times the same hop count.
    pub fn ordering_overhead_bytes(&self) -> u64 {
        self.sim.world().overhead_bytes
    }

    /// The hop-by-hop timeline of a message: the publishing host, every
    /// sequencing atom it visited, and each destination's arrival, with
    /// virtual timestamps. Useful for debugging placements and latency.
    pub fn trace(&self, id: MessageId) -> Option<&[(Endpoint, SimTime)]> {
        self.sim.world().traces.get(&id).map(Vec::as_slice)
    }

    /// Messages processed by each atom (stamping or transit), for load
    /// comparisons against centralized sequencing.
    pub fn atom_loads(&self) -> &[u64] {
        self.sim.world().protocol.atom_loads()
    }

    /// Messages each atom actually stamped (transit excluded).
    pub fn atom_stamp_loads(&self) -> &[u64] {
        self.sim.world().protocol.stamp_loads()
    }

    /// Per-receiver ordering-buffer high-water marks: how deep the
    /// deliver-or-buffer queue got while waiting for predecessors.
    pub fn receiver_buffer_highwater(&self) -> BTreeMap<NodeId, usize> {
        self.sim
            .world()
            .receivers
            .iter()
            .map(|(n, r)| (*n, r.queue().max_buffered()))
            .collect()
    }

    /// Per-receiver delivered counts (the "most loaded receiver" bound of
    /// the paper's scalability argument).
    pub fn receiver_loads(&self) -> BTreeMap<NodeId, u64> {
        self.sim
            .world()
            .receivers
            .iter()
            .map(|(n, r)| (*n, r.queue().delivered_count()))
            .collect()
    }
}

/// Swaps a new configuration into a *drained* world — no frame in
/// flight, no message buffered, no core holding parked frames (callers
/// guarantee this; `resync_with` double-checks by panicking otherwise).
/// Counters of surviving groups and atoms carry over (atom ids are
/// stable under [`seqnet_overlap::GraphBuilder::dynamic`] updates) and
/// the configuration epoch advances; receiver expectations re-synchronize
/// so subscribers joining mid-stream start from the counters' current
/// positions; surviving cores keep their recovery counters and new atoms
/// get fresh cores.
fn apply_config(world: &mut World, membership: Membership, graph: SequencingGraph) {
    world.protocol.adopt(&graph);
    let old_receivers = std::mem::take(&mut world.receivers);
    let mut receivers = BTreeMap::new();
    for node in membership.nodes() {
        let receiver = match old_receivers.get(&node) {
            Some(r) => {
                let mut q = r.queue().clone();
                q.resync_with(&membership, &graph, &world.protocol);
                ReceiverCore::from_queue(q)
            }
            None => ReceiverCore::synced(node, &membership, &graph, &world.protocol),
        };
        receivers.insert(node, receiver);
    }
    world.receivers = receivers;
    let atoms = graph.num_atoms();
    world.cores.truncate(atoms);
    while world.cores.len() < atoms {
        world.cores.push(NodeCore::new(world.cores.len(), false));
    }
    world.membership = membership;
    world.graph = graph;
}

/// Event: a message enters the sequencing network.
fn inject(sim: &mut Simulator<World>, id: MessageId, sender: NodeId, group: GroupId, payload: Bytes) {
    let now = sim.now();
    let world = sim.world_mut();
    world.publish_time.insert(id, now);
    world.messages_published += 1;
    world.traces.insert(id, vec![(Endpoint::Host(sender), now)]);
    if let Some(sink) = &world.sink {
        let mut sink = sink.lock().expect("trace sink poisoned");
        sink.now(now.as_micros());
        if sink.enabled() {
            sink.record(TraceEvent {
                msg: Some(id.0),
                group: Some(u64::from(group.0)),
                detail: Some(u64::from(sender.0)),
                ..TraceEvent::new(EventKind::Publish, Actor::Publisher)
            });
        }
    }
    let msg = Message::new(id, sender, group, payload);
    let ingress = world
        .graph
        .ingress(group)
        .expect("publish checked the path exists");
    let mut delay = world
        .delays
        .delay(Endpoint::Host(sender), Endpoint::Atom(ingress));
    if let Some(ctx) = &mut world.fault {
        let tag = fault_tag(id, 0x4000_0000 | u64::from(sender.0), u64::from(ingress.0));
        let penalty = ctx.plan.loss_penalty(tag, now);
        if penalty > SimTime::ZERO {
            ctx.messages_delayed += 1;
            delay = delay + penalty;
        }
    }
    let arrival = world
        .fifo
        .arrival((Endpoint::Host(sender), Endpoint::Atom(ingress)), now, delay);
    enqueue_channel(sim, Endpoint::Host(sender), Endpoint::Atom(ingress), arrival, msg);
}

/// Appends a frame to its directed channel and, if the queue was empty,
/// schedules the pump that will drain it. The [`FifoStamper`] guarantees
/// per-channel arrivals are non-decreasing, so appending preserves the
/// queue's arrival order and the already-scheduled pump (at the old head's
/// arrival, ≤ this one) stays correct for a non-empty queue.
fn enqueue_channel(
    sim: &mut Simulator<World>,
    from: Endpoint,
    to: Endpoint,
    arrival: SimTime,
    msg: Message,
) {
    let world = sim.world_mut();
    let queue = world.channels.entry((from, to)).or_default();
    debug_assert!(
        queue.back().map_or(true, |&(a, _)| a <= arrival),
        "FIFO stamping keeps channel arrivals non-decreasing"
    );
    let was_empty = queue.is_empty();
    queue.push_back((arrival, msg));
    if was_empty {
        sim.schedule_at(arrival, move |sim| pump_channel(sim, from, to));
    }
}

/// Event: a channel pump fires. Drains every frame due now (up to the
/// batch limit) into one batched core call, and reschedules itself if
/// frames remain. This is the simulator's event-batching point: identical
/// arrival instants — bursts, fan-ins, replay storms — reach the core as
/// one batch instead of one event each.
fn pump_channel(sim: &mut Simulator<World>, from: Endpoint, to: Endpoint) {
    let now = sim.now();
    let (mut batch, reschedule) = {
        let world = sim.world_mut();
        let limit = world.batch_limit.max(1);
        let queue = world
            .channels
            .get_mut(&(from, to))
            .expect("a scheduled pump has a channel queue");
        let mut batch = std::mem::take(&mut world.batch_scratch);
        while batch.len() < limit && queue.front().is_some_and(|&(a, _)| a <= now) {
            batch.push(queue.pop_front().expect("front checked").1);
        }
        debug_assert!(!batch.is_empty(), "pumps fire at their head's arrival");
        *world.batch_sizes.entry(batch.len()).or_insert(0) += 1;
        (batch, queue.front().map(|&(a, _)| a.max(now)))
    };
    // Keep the queue-nonempty ⇒ pump-scheduled invariant before touching
    // the cores (which may enqueue onto *other* channels, never this one).
    if let Some(at) = reschedule {
        sim.schedule_at(at, move |sim| pump_channel(sim, from, to));
    }
    match to {
        Endpoint::Atom(atom) => at_atom_batch(sim, &mut batch, atom),
        Endpoint::Host(member) => arrive_batch(sim, &mut batch, member),
    }
    sim.world_mut().batch_scratch = batch;
}

/// Locks the installed trace sink, if any, at virtual time `now` and hands
/// `f` the one sink every core call takes — `None` when untraced — so each
/// call site makes a single sink-generic call.
fn with_sink<R>(
    sink: &Option<Arc<Mutex<dyn TraceSink + Send>>>,
    now: SimTime,
    f: impl FnOnce(&mut Option<&mut (dyn TraceSink + Send + 'static)>) -> R,
) -> R {
    let mut guard = sink
        .as_ref()
        .map(|s| s.lock().expect("trace sink poisoned"));
    let mut sink = guard.as_deref_mut();
    sink.now(now.as_micros());
    f(&mut sink)
}

/// Event: a batch of messages reaches a sequencing atom. The atom's
/// protocol core makes every ordering decision (stamp, forward, park);
/// this driver only translates the emitted commands into channel
/// transmissions under the delay, partition, and loss models. `msgs` is
/// drained in order; processing a batch of n is semantically identical to
/// n single arrivals (PROTOCOL.md §12), the commands merely accumulate in
/// one reused buffer.
fn at_atom_batch(sim: &mut Simulator<World>, msgs: &mut Vec<Message>, atom: AtomId) {
    let now = sim.now();
    let world = sim.world_mut();
    let mut out = std::mem::take(&mut world.cmdbuf);
    debug_assert!(out.is_empty(), "command buffer is drained between pumps");
    {
        let routing = Routing::solo(&world.membership, &world.graph);
        let core = &mut world.cores[atom.0 as usize];
        if core.is_accepting() {
            // Parked arrivals get their trace entry when the replay
            // re-processes them, so the hop timestamps reflect actual
            // work. Liveness cannot change inside a batch — crashes and
            // restarts are separate events — so one check covers it.
            for msg in msgs.iter() {
                world
                    .traces
                    .entry(msg.id)
                    .or_default()
                    .push((Endpoint::Atom(atom), now));
            }
        }
        let events = msgs.drain(..).map(|msg| Event::FrameArrived {
            frame: Frame {
                msg,
                target_atom: Some(atom),
            },
        });
        with_sink(&world.sink, now, |sink| {
            for event in events {
                core.on_event_into(&routing, &mut world.protocol, event, sink, &mut out);
            }
        });
    }

    // Execute the emitted sends under the transport models. Each frame
    // yields either one forward to the next atom's owner or the egress
    // fan-out to the group members, in membership order; arrival stamps
    // are computed in command order, exactly as per-event stepping would.
    let mut outbox = std::mem::take(&mut world.outbox);
    for command in out.drain() {
        match command {
            Command::Send {
                to: Peer::Node(_),
                frame,
            } => {
                let next = frame
                    .target_atom
                    .expect("node-bound frames carry a target atom");
                let msg = frame.msg;
                world.overhead_bytes += msg.ordering_overhead_bytes() as u64;
                let mut delay = world
                    .delays
                    .delay(Endpoint::Atom(atom), Endpoint::Atom(next));
                let mut start = now;
                if let Some(ctx) = &mut world.fault {
                    if let Some(heal) = ctx.plan.cut_until(atom.0 as usize, next.0 as usize, now) {
                        // Partitioned: the frame waits out the cut.
                        ctx.messages_delayed += 1;
                        start = heal;
                    }
                    let tag = fault_tag(msg.id, u64::from(atom.0), u64::from(next.0));
                    let penalty = ctx.plan.loss_penalty(tag, now);
                    if penalty > SimTime::ZERO {
                        ctx.messages_delayed += 1;
                        delay = delay + penalty;
                    }
                }
                let arrival =
                    world
                        .fifo
                        .arrival((Endpoint::Atom(atom), Endpoint::Atom(next)), start, delay);
                outbox.push((Endpoint::Atom(next), arrival, msg));
            }
            Command::Send {
                to: Peer::Host(member),
                frame,
            } => {
                let msg = frame.msg;
                world.overhead_bytes += msg.ordering_overhead_bytes() as u64;
                let mut delay = world
                    .delays
                    .delay(Endpoint::Atom(atom), Endpoint::Host(member));
                if let Some(ctx) = &mut world.fault {
                    let tag = fault_tag(
                        msg.id,
                        u64::from(atom.0),
                        0x8000_0000 | u64::from(member.0),
                    );
                    let penalty = ctx.plan.loss_penalty(tag, now);
                    if penalty > SimTime::ZERO {
                        ctx.messages_delayed += 1;
                        delay = delay + penalty;
                    }
                }
                let arrival = world.fifo.arrival(
                    (Endpoint::Atom(atom), Endpoint::Host(member)),
                    now,
                    delay,
                );
                outbox.push((Endpoint::Host(member), arrival, msg));
            }
            other => unreachable!("unexpected node-core command {other:?}"),
        }
    }
    world.cmdbuf = out;
    for (dest, arrival, msg) in outbox.drain(..) {
        enqueue_channel(sim, Endpoint::Atom(atom), dest, arrival, msg);
    }
    sim.world_mut().outbox = outbox;
}

/// Event: a crash window opens — the atom's core stops accepting and
/// parks subsequent arrivals in its upstream buffer.
fn crash_atom(sim: &mut Simulator<World>, atom: AtomId) {
    let now = sim.now();
    let world = sim.world_mut();
    let routing = Routing::solo(&world.membership, &world.graph);
    let core = &mut world.cores[atom.0 as usize];
    let mut commands = CommandBuf::new();
    with_sink(&world.sink, now, |sink| {
        core.on_event_into(
            &routing,
            &mut world.protocol,
            Event::NodeCrashed,
            sink,
            &mut commands,
        );
    });
    debug_assert!(commands.is_empty());
}

/// Event: a crash window closes — the core replays its parked arrivals,
/// in the order they arrived, through the normal arrival path (the
/// simulator counterpart of the runtime's
/// replay-from-upstream-retransmission-buffers recovery). With
/// overlapping windows the atom stays down until the last one ends.
fn restart_atom(sim: &mut Simulator<World>, atom: AtomId) {
    let now = sim.now();
    let world = sim.world_mut();
    if world
        .fault
        .as_ref()
        .is_some_and(|c| c.plan.is_down(atom.0 as usize, now))
    {
        return;
    }
    let limit = world.batch_limit.max(1);
    let routing = Routing::solo(&world.membership, &world.graph);
    let core = &mut world.cores[atom.0 as usize];
    // A buffer of its own: replaying below re-enters `at_atom_batch`,
    // which borrows the world's reused one.
    let mut commands = CommandBuf::new();
    with_sink(&world.sink, now, |sink| {
        core.on_event_into(
            &routing,
            &mut world.protocol,
            Event::NodeRestarted,
            sink,
            &mut commands,
        );
    });
    // Parked frames replay through the normal arrival path as natural
    // batches at the restart instant (arrival order preserved), chunked
    // to the batch limit so stepped mode replays one frame per call.
    let mut batch = std::mem::take(&mut sim.world_mut().batch_scratch);
    debug_assert!(batch.is_empty(), "replay scratch is drained between events");
    for command in commands.into_commands() {
        match command {
            Command::Replay { frame } => batch.push(frame.msg),
            other => unreachable!("unexpected restart command {other:?}"),
        }
        if batch.len() >= limit {
            at_atom_batch(sim, &mut batch, atom);
        }
    }
    if !batch.is_empty() {
        at_atom_batch(sim, &mut batch, atom);
    }
    sim.world_mut().batch_scratch = batch;
}

/// Event: a batch of messages reaches a destination host. The receiver
/// core runs the Definition 1 deliver-or-buffer decision per frame (one
/// batched call, reused buffers) and emits one `Deliver` command per
/// released message; this driver records them. All frames in a batch
/// share one arrival instant — the pump only coalesces same-instant
/// arrivals — so the recorded timings equal per-event stepping's.
fn arrive_batch(sim: &mut Simulator<World>, msgs: &mut Vec<Message>, member: NodeId) {
    let now = sim.now();
    let world = sim.world_mut();
    let mut out = std::mem::take(&mut world.cmdbuf);
    debug_assert!(out.is_empty(), "command buffer is drained between pumps");
    {
        for msg in msgs.iter() {
            world
                .traces
                .entry(msg.id)
                .or_default()
                .push((Endpoint::Host(member), now));
            world.arrivals.insert((msg.id, member), now);
        }
        let receiver = world
            .receivers
            .get_mut(&member)
            .expect("members have receiver cores");
        let events = msgs.drain(..).map(|msg| Event::FrameArrived {
            frame: Frame {
                msg,
                target_atom: None,
            },
        });
        with_sink(&world.sink, now, |sink| {
            for event in events {
                receiver.on_event_into(event, sink, &mut out);
            }
        });
    }

    let mut fired: Vec<Trigger> = Vec::new();
    for command in out.drain() {
        let d = match command {
            Command::Deliver { msg, .. } => msg,
            other => unreachable!("unexpected receiver command {other:?}"),
        };
        let published = world.publish_time[&d.id];
        let arrived = world.arrivals[&(d.id, member)];
        let unicast = world
            .delays
            .delay(Endpoint::Host(d.sender), Endpoint::Host(member));
        let record = DeliveryRecord {
            id: d.id,
            sender: d.sender,
            group: d.group,
            destination: member,
            published,
            arrived,
            delivered: now,
            unicast,
            stamps: d.stamps.len(),
            epoch: d.epoch,
            payload: d.payload,
        };
        world.deliveries.entry(member).or_default().push(record);

        // Causal reactions waiting on this delivery.
        let mut i = 0;
        while i < world.triggers.len() {
            if world.triggers[i].sender == member && world.triggers[i].after == d.id {
                fired.push(world.triggers.swap_remove(i));
            } else {
                i += 1;
            }
        }
    }
    world.cmdbuf = out;
    for t in fired {
        inject(sim, t.id, t.sender, t.group, t.payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }
    fn g(i: u32) -> GroupId {
        GroupId(i)
    }

    fn overlapped_membership() -> Membership {
        Membership::from_groups([
            (g(0), vec![n(0), n(1), n(2)]),
            (g(1), vec![n(1), n(2), n(3)]),
        ])
    }

    #[test]
    fn every_member_delivers_every_message() {
        let m = overlapped_membership();
        let mut bus = OrderedPubSub::new(&m);
        bus.publish(n(0), g(0), b"a".to_vec()).unwrap();
        bus.publish(n(3), g(1), b"b".to_vec()).unwrap();
        bus.publish(n(1), g(0), b"c".to_vec()).unwrap();
        bus.run_to_quiescence();
        assert_eq!(bus.stuck_messages(), 0);
        assert_eq!(bus.delivered(n(0)).len(), 2, "n0 gets both g0 messages");
        assert_eq!(bus.delivered(n(1)).len(), 3);
        assert_eq!(bus.delivered(n(2)).len(), 3);
        assert_eq!(bus.delivered(n(3)).len(), 1);
        assert_eq!(bus.messages_published(), 3);
    }

    #[test]
    fn overlap_members_agree_on_order() {
        let m = overlapped_membership();
        let mut bus = OrderedPubSub::new(&m);
        for i in 0..10u32 {
            let (sender, group) = if i % 2 == 0 { (n(0), g(0)) } else { (n(3), g(1)) };
            bus.publish(sender, group, vec![i as u8]).unwrap();
        }
        bus.run_to_quiescence();
        let o1: Vec<MessageId> = bus.delivered(n(1)).iter().map(|d| d.id).collect();
        let o2: Vec<MessageId> = bus.delivered(n(2)).iter().map(|d| d.id).collect();
        assert_eq!(o1, o2, "nodes in both groups see identical order");
        assert_eq!(o1.len(), 10);
    }

    #[test]
    fn unknown_group_rejected() {
        let m = overlapped_membership();
        let mut bus = OrderedPubSub::new(&m);
        assert_eq!(
            bus.publish(n(0), g(9), vec![]),
            Err(CoreError::UnknownGroup(g(9)))
        );
    }

    #[test]
    fn causal_publish_requires_membership() {
        let m = overlapped_membership();
        let mut bus = OrderedPubSub::new(&m);
        assert!(bus.publish_causal(n(0), g(0), vec![]).is_ok());
        assert_eq!(
            bus.publish_causal(n(0), g(1), vec![]),
            Err(CoreError::SenderNotSubscribed {
                sender: n(0),
                group: g(1)
            })
        );
    }

    #[test]
    fn causal_reaction_ordering() {
        // n1 subscribes to both groups. It reacts to m_a (on g0) by
        // publishing m_b (on g1). Every common subscriber must deliver
        // m_a before m_b.
        let m = overlapped_membership();
        let mut bus = OrderedPubSub::new(&m);
        let ma = bus.publish(n(0), g(0), b"cause".to_vec()).unwrap();
        let mb = bus
            .publish_after(n(1), ma, g(1), b"effect".to_vec())
            .unwrap();
        bus.run_to_quiescence();
        assert_eq!(bus.pending_triggers(), 0);
        for node in [n(1), n(2)] {
            let order: Vec<MessageId> = bus.delivered(node).iter().map(|d| d.id).collect();
            let pa = order.iter().position(|&x| x == ma).unwrap();
            let pb = order.iter().position(|&x| x == mb).unwrap();
            assert!(pa < pb, "{node} delivered effect before cause");
        }
    }

    #[test]
    fn trigger_without_delivery_stays_pending() {
        let m = overlapped_membership();
        let mut bus = OrderedPubSub::new(&m);
        let ghost = MessageId(999);
        bus.publish_after(n(1), ghost, g(0), vec![]).unwrap();
        bus.run_to_quiescence();
        assert_eq!(bus.pending_triggers(), 1);
    }

    #[test]
    fn timing_fields_are_consistent() {
        let m = overlapped_membership();
        let mut bus = OrderedPubSub::new(&m);
        bus.publish(n(0), g(0), vec![]).unwrap();
        bus.run_to_quiescence();
        for d in bus.all_deliveries() {
            assert!(d.published <= d.arrived);
            assert!(d.arrived <= d.delivered);
        }
    }

    #[test]
    fn publish_at_future_time() {
        let m = overlapped_membership();
        let mut bus = OrderedPubSub::new(&m);
        bus.publish_at(SimTime::from_ms(5.0), n(0), g(0), vec![])
            .unwrap();
        bus.run_to_quiescence();
        let d = &bus.delivered(n(0))[0];
        assert_eq!(d.published, SimTime::from_ms(5.0));
    }

    #[test]
    fn network_backed_run_delivers_everything() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let setup = NetworkSetup::generate(&TransitStubParams::small(), 8, 4, &mut rng);
        let m = Membership::from_groups([
            (g(0), vec![n(0), n(1), n(2), n(3)]),
            (g(1), vec![n(2), n(3), n(4), n(5)]),
            (g(2), vec![n(0), n(3), n(6), n(7)]),
        ]);
        let mut bus = OrderedPubSub::with_network(&m, &setup, &mut rng);
        // Every node publishes to each of its groups (the fig-3 workload).
        for node in m.nodes().collect::<Vec<_>>() {
            for grp in m.groups_of(node).collect::<Vec<_>>() {
                bus.publish(node, grp, vec![]).unwrap();
            }
        }
        bus.run_to_quiescence();
        assert_eq!(bus.stuck_messages(), 0, "no deadlock on a valid graph");
        // Each group's members deliver size(group) messages per group.
        let expected: usize = m
            .nodes()
            .map(|node| {
                m.groups_of(node)
                    .map(|grp| m.group_size(grp))
                    .sum::<usize>()
            })
            .sum();
        let total: usize = bus.all_deliveries().count();
        assert_eq!(total, expected);
    }

    #[test]
    fn atom_and_receiver_loads_reported() {
        let m = overlapped_membership();
        let mut bus = OrderedPubSub::new(&m);
        for _ in 0..4 {
            bus.publish(n(0), g(0), vec![]).unwrap();
        }
        bus.run_to_quiescence();
        let total_atom_load: u64 = bus.atom_loads().iter().sum();
        assert!(total_atom_load >= 4, "each message hits at least one atom");
        let loads = bus.receiver_loads();
        assert_eq!(loads[&n(0)], 4);
        assert_eq!(loads[&n(3)], 0);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use seqnet_sim::FaultPlan;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }
    fn g(i: u32) -> GroupId {
        GroupId(i)
    }

    fn overlapped_membership() -> Membership {
        Membership::from_groups([
            (g(0), vec![n(0), n(1), n(2)]),
            (g(1), vec![n(1), n(2), n(3)]),
        ])
    }

    /// Crashing every atom parks in-flight messages; once the atoms come
    /// back, parked messages replay in arrival order and the total-order
    /// guarantee (Definition 1 / Theorem 1) still holds.
    #[test]
    fn crash_all_atoms_then_recover() {
        let m = overlapped_membership();
        let mut bus = OrderedPubSub::new(&m);
        let atoms = bus.graph().num_atoms();
        let mut plan = FaultPlan::new();
        for a in 0..atoms {
            plan = plan.crash(a, SimTime::from_ms(0.5), SimTime::from_ms(20.0));
        }
        bus.apply_fault_plan(plan);
        for i in 0..6u32 {
            let (sender, group) = if i % 2 == 0 { (n(0), g(0)) } else { (n(3), g(1)) };
            bus.publish(sender, group, vec![i as u8]).unwrap();
        }
        bus.run_to_quiescence();
        assert_eq!(bus.stuck_messages(), 0, "recovery left messages stuck");
        let o1: Vec<MessageId> = bus.delivered(n(1)).iter().map(|d| d.id).collect();
        let o2: Vec<MessageId> = bus.delivered(n(2)).iter().map(|d| d.id).collect();
        assert_eq!(o1, o2, "order diverged across a full-crash outage");
        assert_eq!(o1.len(), 6);
        let stats = bus.fault_stats();
        assert_eq!(stats.recovery.crashes, atoms as u64);
        assert!(
            stats.recovery.messages_parked > 0,
            "publishes at 1ms hit down atoms"
        );
        assert_eq!(
            stats.recovery.frames_replayed, stats.recovery.messages_parked,
            "every parked message was replayed"
        );
    }

    /// Partitions and loss bursts delay but never lose or reorder: every
    /// message is still delivered, in an order all overlap members share.
    #[test]
    fn partition_and_loss_preserve_delivery() {
        let m = overlapped_membership();
        let mut bus = OrderedPubSub::new(&m);
        let atoms = bus.graph().num_atoms();
        let mut plan =
            FaultPlan::new().loss_burst(SimTime::ZERO, SimTime::from_ms(30.0), SimTime::from_ms(2.0), 3);
        if atoms >= 2 {
            plan = plan.partition(0, 1, SimTime::ZERO, SimTime::from_ms(10.0));
        }
        bus.apply_fault_plan(plan);
        for i in 0..8u32 {
            let (sender, group) = if i % 2 == 0 { (n(0), g(0)) } else { (n(3), g(1)) };
            bus.publish(sender, group, vec![i as u8]).unwrap();
        }
        bus.run_to_quiescence();
        assert_eq!(bus.stuck_messages(), 0);
        let o1: Vec<MessageId> = bus.delivered(n(1)).iter().map(|d| d.id).collect();
        let o2: Vec<MessageId> = bus.delivered(n(2)).iter().map(|d| d.id).collect();
        assert_eq!(o1, o2);
        assert_eq!(o1.len(), 8);
    }

    /// The same seed produces the byte-for-byte same run: identical
    /// deliveries at identical simulated times.
    #[test]
    fn randomized_plan_is_deterministic() {
        fn run_once(seed: u64) -> (Vec<(NodeId, MessageId, SimTime)>, FaultStats) {
            let m = overlapped_membership();
            let mut bus = OrderedPubSub::new(&m);
            let atoms = bus.graph().num_atoms();
            bus.apply_fault_plan(FaultPlan::randomized(seed, atoms, SimTime::from_ms(50.0)));
            for i in 0..8u32 {
                let (sender, group) = if i % 2 == 0 { (n(0), g(0)) } else { (n(3), g(1)) };
                bus.publish_at(SimTime::from_ms(f64::from(i)), sender, group, vec![i as u8])
                    .unwrap();
            }
            bus.run_to_quiescence();
            assert_eq!(bus.stuck_messages(), 0, "seed {seed} left messages stuck");
            let mut log: Vec<(NodeId, MessageId, SimTime)> = bus
                .all_deliveries()
                .map(|d| (d.destination, d.id, d.delivered))
                .collect();
            log.sort();
            (log, bus.fault_stats())
        }
        for seed in [1u64, 7, 42] {
            let (log_a, stats_a) = run_once(seed);
            let (log_b, stats_b) = run_once(seed);
            assert_eq!(log_a, log_b, "seed {seed} was not reproducible");
            assert_eq!(stats_a, stats_b);
            // 8 messages, each delivered by its group's 3 members.
            assert_eq!(log_a.len(), 24, "seed {seed} lost deliveries");
        }
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use seqnet_membership::{GroupId, Membership, NodeId};
    use seqnet_topology::TransitStubParams;

    /// Every ablation variant must still satisfy the ordering contract —
    /// the knobs trade performance, never correctness.
    #[test]
    fn all_network_configs_order_correctly() {
        let m = Membership::from_groups([
            (GroupId(0), vec![NodeId(0), NodeId(1), NodeId(2)]),
            (GroupId(1), vec![NodeId(1), NodeId(2), NodeId(3)]),
            (GroupId(2), vec![NodeId(0), NodeId(2), NodeId(3)]),
        ]);
        let setup = NetworkSetup::generate(
            &TransitStubParams::small(),
            4,
            2,
            &mut StdRng::seed_from_u64(2),
        );
        for colocate in [true, false] {
            for anchored in [true, false] {
                for heuristic_placement in [true, false] {
                    for optimize_chains in [true, false] {
                        let config = NetworkConfig {
                            colocate,
                            anchored,
                            heuristic_placement,
                            optimize_chains,
                        };
                        let mut rng = StdRng::seed_from_u64(5);
                        let mut bus =
                            OrderedPubSub::with_network_config(&m, &setup, config, &mut rng);
                        for i in 0..6u32 {
                            let grp = GroupId(i % 3);
                            let sender = m.members(grp).next().unwrap();
                            bus.publish(sender, grp, vec![]).unwrap();
                        }
                        bus.run_to_quiescence();
                        assert_eq!(bus.stuck_messages(), 0, "{config:?} deadlocked");
                        let o2: Vec<_> =
                            bus.delivered(NodeId(2)).iter().map(|d| d.id).collect();
                        assert_eq!(o2.len(), 6, "{config:?} lost messages");
                        for a in [NodeId(0), NodeId(1), NodeId(3)] {
                            let da: Vec<_> =
                                bus.delivered(a).iter().map(|d| d.id).collect();
                            let ca: Vec<_> =
                                da.iter().filter(|x| o2.contains(x)).collect();
                            let cb: Vec<_> =
                                o2.iter().filter(|x| da.contains(x)).collect();
                            assert_eq!(ca, cb, "{config:?}: {a} disagrees with N2");
                        }
                    }
                }
            }
        }
    }
}
