//! Orchestration: sequencing-node and host threads wired by reliable links.
//!
//! This module is the threaded *shell* around the sans-I/O machines: every
//! sequencing-node thread runs one [`NodeMachine`], every host thread and
//! the publisher front-end one [`LinkEngine`], and all this module adds is
//! transport — crossbeam channels between the parties, an optional delayer
//! thread for simulated propagation delay, and a shared in-memory snapshot
//! store standing in for each node's stable storage. The group-commit
//! rule, heartbeat-based failure detection and crash–recovery replay live
//! in the machines and are documented there; [`Cluster::crash_node`] and
//! [`Cluster::restart_node`] exercise them by killing and re-spawning node
//! threads.

use crate::engine::{LinkCounters, LinkEngine, LinkSnapshot, Transmission};
use crate::front::PublishFront;
use crate::host::HostMachine;
use crate::node::NodeMachine;
use crate::topo::Topology;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqnet_core::proto::trace::{Actor, EventKind, TraceEvent, TraceSink};
use seqnet_core::proto::{Peer, ProtocolState, RecoveryStats};
use seqnet_core::{Message, MessageId};
use seqnet_membership::{GroupId, Membership, NodeId};
use seqnet_obs::{prom, Recorder, Registry};
use seqnet_overlap::SequencingGraph;
use seqnet_sim::{FaultPlan, SimTime};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::convert::Infallible;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex as StdMutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Debug)]
enum ThreadMsg {
    Frame(Transmission),
    /// Carries nothing: gets a thread blocked on its inbox to look at its
    /// kill flag.
    Wake,
    Shutdown,
}

/// Counters aggregated across all threads at shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Data frames put on the wire (including retransmissions).
    pub frames_sent: u64,
    /// Frames dropped by the loss injector.
    pub frames_dropped: u64,
    /// Retransmissions performed by link senders.
    pub retransmissions: u64,
    /// Duplicate frames discarded by link receivers.
    pub duplicates: u64,
    /// Peer-failure detections: transitions of a monitored peer from
    /// healthy to suspected after three missed heartbeat intervals.
    pub heartbeat_misses: u64,
    /// Crash-recovery counters, with definitions shared (via the protocol
    /// core's [`RecoveryStats`]) with the simulator's `FaultStats`:
    /// `crashes` counts sequencing-node threads killed via
    /// [`Cluster::crash_node`]; `frames_replayed` counts data frames
    /// replayed to restarted nodes from upstream retransmission buffers
    /// before their recovery completed; `recovery_micros` sums recovery
    /// latency over restarts (thread start to the first snapshot that
    /// re-durably-records replayed input). `messages_parked` stays zero
    /// here: a crashed thread's arrivals queue in its inbox (transport
    /// buffering), they are never parked by a live core.
    pub recovery: RecoveryStats,
}

/// Deployment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Probability that any frame (data or ack) is lost in transit.
    pub drop_probability: f64,
    /// How long a frame may stay unacknowledged before its first
    /// retransmission; the per-frame interval then doubles up to
    /// [`backoff_cap`](Self::backoff_cap).
    pub retransmit_timeout: Duration,
    /// Upper bound on the per-frame retransmission interval. Long
    /// outages (a crashed peer) back off to this cap instead of
    /// producing a retransmit storm at the fixed timeout.
    pub backoff_cap: Duration,
    /// Maximum simulated propagation delay per frame: each transmission
    /// is held for a uniform random duration in `[0, link_delay]` by a
    /// delayer thread, so frames on *different* links genuinely race and
    /// reorder (per-link FIFO is restored by the link layer). Zero sends
    /// directly.
    pub link_delay: Duration,
    /// How often sequencing nodes emit heartbeats on node-to-node links.
    /// A peer silent for [`heartbeat_miss_threshold`](Self::heartbeat_miss_threshold)
    /// intervals is suspected (counted in [`RuntimeStats::heartbeat_misses`]).
    pub heartbeat_interval: Duration,
    /// How many consecutive silent heartbeat intervals mark a peer as
    /// suspected. Shared by the threaded and socket drivers; the socket
    /// driver additionally tears the connection down and starts
    /// reconnecting once a peer is suspected.
    pub heartbeat_miss_threshold: u32,
    /// Coalesce staged output frames at flush time: each snapshot flush
    /// puts one [`LinkBody::DataBatch`](crate::LinkBody::DataBatch) per
    /// run of frames on a link on the wire instead of one message per
    /// frame. Framing only — every frame keeps its own link sequence
    /// number, retransmission entry, and snapshot slot, and the receiving
    /// side acknowledges a batch with a single cumulative ack. Off by
    /// default.
    pub coalesce: bool,
    /// Seed for co-location and loss injection.
    pub seed: u64,
    /// Record a structured protocol trace: every thread reports its
    /// publish/stamp/forward/arrive/buffer/deliver events into a shared
    /// [`Recorder`], stamped with wall microseconds since cluster start.
    /// Read it back with [`Cluster::trace_events`]. Off by default — the
    /// untraced paths compile down to the uninstrumented code.
    pub trace: bool,
}

impl ClusterConfig {
    /// Checks the configuration for values that would wedge or livelock a
    /// cluster, returning a descriptive error for the first problem found.
    /// [`Cluster::start`] (and the socket driver's cluster launcher) call
    /// this and refuse to run on `Err`.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.drop_probability) {
            return Err(format!(
                "drop_probability must be in [0, 1), got {}: a cluster that \
                 drops every frame cannot make progress",
                self.drop_probability
            ));
        }
        if self.retransmit_timeout.is_zero() {
            return Err(
                "retransmit_timeout must be positive: a zero timeout turns every \
                 transmission into an immediate retransmit storm"
                    .into(),
            );
        }
        if self.backoff_cap < self.retransmit_timeout {
            return Err(format!(
                "backoff_cap ({:?}) must be >= retransmit_timeout ({:?}): the cap \
                 bounds the exponential backoff that starts at the timeout",
                self.backoff_cap, self.retransmit_timeout
            ));
        }
        if self.heartbeat_interval.is_zero() {
            return Err(
                "heartbeat_interval must be positive: zero-interval heartbeats \
                 saturate every link"
                    .into(),
            );
        }
        if self.heartbeat_miss_threshold == 0 {
            return Err(
                "heartbeat_miss_threshold must be at least 1: a threshold of zero \
                 suspects every peer instantly, even a healthy one"
                    .into(),
            );
        }
        Ok(())
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            drop_probability: 0.0,
            retransmit_timeout: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(80),
            link_delay: Duration::ZERO,
            heartbeat_interval: Duration::from_millis(15),
            heartbeat_miss_threshold: 3,
            coalesce: false,
            seed: 0,
            trace: false,
        }
    }
}

/// Errors surfaced by the threaded deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Publish addressed a group with no members.
    UnknownGroup(GroupId),
    /// Fewer deliveries than expected arrived within the timeout.
    Timeout {
        /// How many deliveries were expected.
        expected: usize,
        /// How many actually arrived.
        received: usize,
    },
    /// A reconfiguration is already staged but has not activated yet.
    ReconfigPending {
        /// The epoch that will activate when the staged change completes.
        next_epoch: u64,
    },
    /// [`Cluster::complete_reconfigure`] was called with nothing staged.
    NoPendingReconfig,
    /// The next epoch's deployment could not be brought up after the old
    /// one drained (port reservation, spec write, process spawn); carries
    /// the description. Only a deployment that spawns processes returns
    /// it, and unlike a drain timeout a retry will not help.
    Spawn(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownGroup(g) => write!(f, "unknown group {g}"),
            RuntimeError::Timeout { expected, received } => {
                write!(f, "timed out with {received}/{expected} deliveries")
            }
            RuntimeError::ReconfigPending { next_epoch } => write!(
                f,
                "reconfiguration already pending: epoch {next_epoch} has not activated yet"
            ),
            RuntimeError::NoPendingReconfig => write!(f, "no reconfiguration pending"),
            RuntimeError::Spawn(why) => write!(f, "cannot start the next epoch: {why}"),
        }
    }
}

impl Error for RuntimeError {}
/// What every thread shares: the topology, the channels, and the stores
/// that stand in for the world outside a process.
#[derive(Debug)]
struct Wiring {
    topo: Topology,
    outboxes: BTreeMap<Peer, Sender<ThreadMsg>>,
    config: ClusterConfig,
    stats: Mutex<RuntimeStats>,
    /// Wire-write size histogram: how many data transmissions carried
    /// each frame count. Merged from per-thread tallies at thread exit,
    /// so it is complete after [`Cluster::shutdown`]. Mirrors the
    /// simulator's `batch_size_counts`.
    batch_sizes: Mutex<BTreeMap<usize, u64>>,
    /// Latest checkpoint per sequencing node; the stand-in for each
    /// node's stable storage. Frames transmitted before a crash are
    /// exactly the frames some checkpoint records, so restoring the latest
    /// one plus replay from upstream output buffers reconstructs a
    /// consistent node.
    snapshots: Mutex<HashMap<usize, (ProtocolState, LinkSnapshot)>>,
    /// Transmissions routed through the delayer thread when
    /// `link_delay > 0`.
    delayer: Option<Sender<Transmission>>,
    /// Shared structured-trace recorder when `config.trace` is set; every
    /// thread appends under the mutex, stamped relative to `epoch`.
    trace: Option<Arc<StdMutex<Recorder>>>,
    /// Cluster start instant — the zero point of trace timestamps.
    epoch: Instant,
    /// The configuration epoch this wiring implements. Epoch 0 is the
    /// initial configuration; each completed online reconfiguration
    /// rebuilds the wiring with the next epoch, and node threads seed
    /// their protocol state from it so every message is stamped with the
    /// epoch it was sequenced under.
    config_epoch: u64,
}

impl Wiring {
    /// Puts drained outbox entries on their destinations' channels, or
    /// hands them to the delayer thread.
    fn route(&self, out: impl Iterator<Item = Transmission>) {
        for t in out {
            match &self.delayer {
                Some(delayer) => {
                    let _ = delayer.send(t);
                }
                None => deliver(&self.outboxes, t),
            }
        }
    }

    /// The one sink every machine call takes: the shared recorder, locked
    /// and stamped with wall microseconds since cluster start, or `None`
    /// when the deployment is untraced.
    fn sink(&self) -> Option<MutexGuard<'_, Recorder>> {
        let mut guard = self
            .trace
            .as_ref()
            .map(|rec| rec.lock().expect("trace sink poisoned"));
        if let Some(rec) = &mut guard {
            rec.now(self.epoch.elapsed().as_micros() as u64);
        }
        guard
    }

    /// Folds a finished thread's counters into the shared totals.
    fn absorb(&self, links: LinkCounters, batches: &BTreeMap<usize, u64>) {
        let mut stats = self.stats.lock();
        stats.frames_sent += links.frames_sent;
        stats.frames_dropped += links.frames_dropped;
        stats.retransmissions += links.retransmissions;
        stats.duplicates += links.duplicates;
        drop(stats);
        let mut sizes = self.batch_sizes.lock();
        for (&size, &count) in batches {
            *sizes.entry(size).or_insert(0) += count;
        }
    }
}

fn deliver(outboxes: &BTreeMap<Peer, Sender<ThreadMsg>>, t: Transmission) {
    let _ = outboxes[&t.to].send(ThreadMsg::Frame(t));
}

/// The delayer thread: holds each transmission for a uniform random
/// duration in `[0, link_delay]`, releasing in time order, so frames on
/// different links genuinely race and reorder.
fn delayer_thread(
    rx: Receiver<Transmission>,
    outboxes: BTreeMap<Peer, Sender<ThreadMsg>>,
    link_delay: Duration,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut holding: Vec<(Instant, Transmission)> = Vec::new();
    loop {
        let timeout = holding
            .iter()
            .map(|(at, _)| at.saturating_duration_since(Instant::now()))
            .min()
            .unwrap_or(Duration::from_millis(50));
        match rx.recv_timeout(timeout.max(Duration::from_micros(100))) {
            Ok(t) => {
                let jitter = link_delay.mul_f64(rng.gen_range(0.0..=1.0));
                holding.push((Instant::now() + jitter, t));
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        let now = Instant::now();
        let mut i = 0;
        while i < holding.len() {
            if holding[i].0 <= now {
                deliver(&outboxes, holding.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
    }
    // Flush whatever remains on shutdown.
    for (_, t) in holding {
        deliver(&outboxes, t);
    }
}

/// A running threaded deployment of the ordering protocol.
///
/// See the [crate docs](crate) for an example. Sequencing-node threads can
/// be killed and restarted mid-run with [`Cluster::crash_node`] and
/// [`Cluster::restart_node`]; delivery of every published message, in
/// consistent order, survives such faults.
#[derive(Debug)]
pub struct Cluster {
    wiring: Arc<Wiring>,
    node_handles: HashMap<usize, JoinHandle<()>>,
    host_handles: Vec<JoinHandle<()>>,
    /// Retained clones of node inbox receivers so a restarted thread can
    /// take over the same channel (frames queued while the node was down
    /// are waiting for it).
    node_inboxes: HashMap<usize, Receiver<ThreadMsg>>,
    kill_flags: HashMap<usize, Arc<AtomicBool>>,
    /// Publisher-side link machinery: publishes travel over reliable
    /// links to ingress nodes and are retried with capped exponential
    /// backoff until a node snapshot acknowledges them.
    pub_engine: LinkEngine,
    pub_inbox: Receiver<ThreadMsg>,
    notes: Receiver<(NodeId, Message)>,
    shut_down: bool,
    /// Ids, the staged reconfiguration with its parked publishes, and the
    /// delivery ledger; carried across every wiring rebuild.
    front: PublishFront,
    /// Deliveries drained during a handoff, replayed to callers of
    /// [`Cluster::wait_for_deliveries`] / [`Cluster::next_delivery`] first.
    carried: VecDeque<(NodeId, Message)>,
    /// Stats, wire-size tallies, and trace events accumulated by earlier
    /// epochs' wirings, merged into the public accessors.
    prior_stats: RuntimeStats,
    prior_batches: BTreeMap<usize, u64>,
    prior_trace: Vec<TraceEvent>,
}

impl Cluster {
    /// Builds the sequencing graph for `membership`, co-locates atoms into
    /// sequencing nodes, spawns one thread per node and per subscriber
    /// host, and wires them with reliable FIFO links.
    ///
    /// # Panics
    ///
    /// Panics if the constructed graph fails validation (a bug, not an
    /// input error), or if `config` fails [`ClusterConfig::validate`].
    pub fn start(membership: &Membership, config: ClusterConfig) -> Self {
        Self::start_inner(membership, config, 0)
    }

    /// [`Cluster::start`] with an explicit configuration epoch — epoch 0
    /// for a fresh deployment, N+1 when [`Cluster::complete_reconfigure`]
    /// rebuilds the wiring for the next configuration.
    fn start_inner(membership: &Membership, config: ClusterConfig, config_epoch: u64) -> Self {
        config.validate().expect("invalid ClusterConfig");
        let topo = Topology::derive(membership, config.seed);

        // Channels: one inbox per party, including the publisher.
        let mut outboxes: BTreeMap<Peer, Sender<ThreadMsg>> = BTreeMap::new();
        let mut inboxes: BTreeMap<Peer, Receiver<ThreadMsg>> = BTreeMap::new();
        let parties: Vec<Peer> = (0..topo.num_nodes)
            .map(Peer::Node)
            .chain(membership.nodes().map(Peer::Host))
            .chain(std::iter::once(Peer::Publisher))
            .collect();
        for &p in &parties {
            let (tx, rx) = unbounded();
            outboxes.insert(p, tx);
            inboxes.insert(p, rx);
        }

        let (note_tx, note_rx) = unbounded();

        let delayer = (config.link_delay > Duration::ZERO).then(|| {
            let (tx, rx) = unbounded::<Transmission>();
            let (boxes, delay, seed) = (outboxes.clone(), config.link_delay, config.seed);
            std::thread::spawn(move || delayer_thread(rx, boxes, delay, seed));
            tx
        });

        let wiring = Arc::new(Wiring {
            topo,
            outboxes,
            stats: Mutex::new(RuntimeStats::default()),
            batch_sizes: Mutex::new(BTreeMap::new()),
            snapshots: Mutex::new(HashMap::new()),
            delayer,
            trace: config
                .trace
                .then(|| Arc::new(StdMutex::new(Recorder::new()))),
            epoch: Instant::now(),
            config_epoch,
            config,
        });

        let mut node_handles = HashMap::new();
        let mut host_handles = Vec::new();
        let mut node_inboxes = HashMap::new();
        let mut kill_flags = HashMap::new();
        let mut pub_inbox = None;
        for &p in &parties {
            let inbox = inboxes.remove(&p).expect("inbox exists");
            match p {
                Peer::Node(idx) => {
                    let flag = Arc::new(AtomicBool::new(false));
                    kill_flags.insert(idx, flag.clone());
                    node_inboxes.insert(idx, inbox.clone());
                    let wiring = Arc::clone(&wiring);
                    node_handles.insert(
                        idx,
                        std::thread::spawn(move || node_thread(idx, inbox, wiring, flag, false)),
                    );
                }
                Peer::Host(host) => {
                    let wiring = Arc::clone(&wiring);
                    let note_tx = note_tx.clone();
                    host_handles.push(std::thread::spawn(move || {
                        host_thread(host, inbox, wiring, note_tx)
                    }));
                }
                Peer::Publisher => pub_inbox = Some(inbox),
            }
        }

        Cluster {
            pub_engine: LinkEngine::new(Peer::Publisher, false, &wiring.config),
            wiring,
            node_handles,
            host_handles,
            node_inboxes,
            kill_flags,
            pub_inbox: pub_inbox.expect("publisher inbox exists"),
            notes: note_rx,
            shut_down: false,
            front: PublishFront::new(),
            carried: VecDeque::new(),
            prior_stats: RuntimeStats::default(),
            prior_batches: BTreeMap::new(),
            prior_trace: Vec::new(),
        }
    }

    /// Publishes a message: sends it over the reliable link to the
    /// destination group's ingress sequencing node, where it is retried
    /// with capped exponential backoff until a node snapshot covers it —
    /// so publishes survive an ingress-node crash.
    ///
    /// While a reconfiguration is staged (between
    /// [`Cluster::begin_reconfigure`] and
    /// [`Cluster::complete_reconfigure`]) the publish is validated against
    /// the *next* membership and parked: it belongs to the next epoch and
    /// is injected once the current epoch's graph drains. The returned id
    /// is assigned immediately either way.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownGroup`] for groups with no members
    /// (in the pending membership, if a reconfiguration is staged).
    pub fn publish(
        &mut self,
        sender: NodeId,
        group: GroupId,
        payload: impl Into<bytes::Bytes>,
    ) -> Result<MessageId, RuntimeError> {
        let wiring = &self.wiring;
        let id = self.front.publish(
            &wiring.topo,
            &mut self.pub_engine,
            &mut wiring.sink(),
            sender,
            group,
            payload.into(),
        )?;
        self.pump_publisher();
        Ok(id)
    }

    /// Drains acknowledgments addressed to the publisher, retransmits
    /// overdue publishes, and routes the publisher's outbox. Called from
    /// every front-end entry point; the publisher has no thread of its
    /// own.
    fn pump_publisher(&mut self) {
        let topo = &self.wiring.topo;
        while let Ok(msg) = self.pub_inbox.try_recv() {
            if let ThreadMsg::Frame(t) = msg {
                // The publisher only ever receives acks: nothing releases.
                self.pub_engine
                    .on_link(topo, t.link, t.seq, t.body, &mut Vec::new());
            }
        }
        self.pub_engine.retransmit_due(topo);
        self.wiring.route(self.pub_engine.drain_outbox());
    }

    /// Collects exactly `expected` deliveries (across all hosts), grouped
    /// by host in delivery order.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Timeout`] if they do not all arrive in time.
    pub fn wait_for_deliveries(
        &mut self,
        expected: usize,
        timeout: Duration,
    ) -> Result<BTreeMap<NodeId, Vec<Message>>, RuntimeError> {
        PublishFront::collect_deliveries(expected, timeout, |remaining| {
            self.next_delivery(remaining)
        })
    }

    /// Waits for a note on the live channel until `deadline`, waking to
    /// pump the publisher whenever its earliest retransmission falls due
    /// first, and books the note in the delivery ledger. A deadline
    /// already past still pumps once and takes a note that is waiting — a
    /// zero timeout polls, it does not give up unasked.
    fn recv_note(&mut self, deadline: Instant) -> Option<(NodeId, Message)> {
        loop {
            self.pump_publisher();
            let now = Instant::now();
            let until = self
                .pub_engine
                .next_deadline()
                .map_or(deadline, |retransmit| retransmit.min(deadline));
            let wait = until.saturating_duration_since(now);
            match self.notes.recv_timeout(wait) {
                Ok(note) => {
                    self.front.note_delivery();
                    return Some(note);
                }
                Err(RecvTimeoutError::Timeout) if now >= deadline => return None,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    }

    /// Kills the sequencing-node thread `node` as a simulated crash: its
    /// volatile state (link buffers, unsnapshotted protocol progress,
    /// staged outputs) is lost; only the shared snapshot store survives.
    /// Frames sent to the node while it is down queue in its inbox.
    /// Returns `true` if a running node was killed, `false` if it was
    /// already down.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a valid sequencing-node index.
    pub fn crash_node(&mut self, node: usize) -> bool {
        assert!(
            self.node_inboxes.contains_key(&node),
            "no sequencing node {node}"
        );
        let Some(handle) = self.node_handles.remove(&node) else {
            return false;
        };
        self.kill_flags[&node].store(true, Ordering::Relaxed);
        let _ = self.wiring.outboxes[&Peer::Node(node)].send(ThreadMsg::Wake);
        let _ = handle.join();
        self.wiring.stats.lock().recovery.crashes += 1;
        // The core never sees a crash event here (the crash *is* the
        // thread dying), so the driver reports it.
        self.wiring
            .sink()
            .record(TraceEvent::new(EventKind::Crash, Actor::Node(node as u64)));
        true
    }

    /// Restarts a crashed sequencing node: a fresh thread takes over the
    /// node's inbox, restores the latest snapshot (if any), and rebuilds
    /// unsnapshotted progress from replayed upstream retransmissions.
    /// Returns `true` if a restart happened, `false` if the node was
    /// already running.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a valid sequencing-node index.
    pub fn restart_node(&mut self, node: usize) -> bool {
        assert!(
            self.node_inboxes.contains_key(&node),
            "no sequencing node {node}"
        );
        if self.node_handles.contains_key(&node) {
            return false;
        }
        let flag = Arc::new(AtomicBool::new(false));
        self.kill_flags.insert(node, Arc::clone(&flag));
        let inbox = self.node_inboxes[&node].clone();
        let wiring = Arc::clone(&self.wiring);
        self.node_handles.insert(
            node,
            std::thread::spawn(move || node_thread(node, inbox, wiring, flag, true)),
        );
        true
    }

    /// Replays the crash windows of a deterministic [`FaultPlan`] against
    /// the running cluster, mapping simulated microseconds 1:1 onto the
    /// wall clock: each window kills its node at `down_at` and restarts
    /// it at `up_at`. Windows naming nodes this deployment does not have
    /// are skipped, as are partition and loss windows (those are
    /// simulator-side faults; use `drop_probability` for runtime loss).
    /// Publisher retransmissions keep flowing while this call sleeps
    /// between events.
    pub fn run_fault_plan(&mut self, plan: &FaultPlan) {
        let n = self.node_inboxes.len();
        // (time, node, is_down): sorting puts an `up` before a `down` at
        // the same instant, and the is_down guard below keeps adjacent
        // windows on one node from bouncing it.
        let mut events: Vec<(u64, usize, bool)> = Vec::new();
        for w in plan.crash_windows() {
            if w.node < n {
                events.push((w.down_at.as_micros(), w.node, true));
                events.push((w.up_at.as_micros(), w.node, false));
            }
        }
        events.sort_unstable();
        let t0 = Instant::now();
        for (t, node, down) in events {
            let target = t0 + Duration::from_micros(t);
            loop {
                self.pump_publisher();
                let now = Instant::now();
                if now >= target {
                    break;
                }
                std::thread::sleep((target - now).min(Duration::from_millis(1)));
            }
            if down {
                self.crash_node(node);
            } else if !plan.is_down(node, SimTime::from_micros(t)) {
                self.restart_node(node);
            }
        }
    }

    /// The sequencing graph the deployment runs.
    pub fn graph(&self) -> &SequencingGraph {
        &self.wiring.topo.graph
    }

    /// Number of sequencing-node threads.
    pub fn num_sequencing_nodes(&self) -> usize {
        self.node_inboxes.len()
    }

    /// The configuration epoch this deployment is currently running.
    pub fn epoch(&self) -> u64 {
        self.wiring.config_epoch
    }

    /// Whether a reconfiguration is staged but has not activated yet.
    pub fn reconfig_pending(&self) -> bool {
        self.front.reconfig_pending()
    }

    /// Publishes parked behind the staged reconfiguration (zero when none
    /// is pending).
    pub fn parked_publishes(&self) -> usize {
        self.front.parked_publishes()
    }

    /// Stages an online reconfiguration to `membership` without stopping
    /// traffic: the current epoch's graph keeps sequencing everything
    /// already accepted, publishes arriving from now on park behind the
    /// handoff (validated against the *next* membership), and
    /// [`Cluster::complete_reconfigure`] performs the actual swap once the
    /// old epoch drains. Returns the epoch that will activate.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ReconfigPending`] if a staged
    /// reconfiguration is already waiting to activate.
    pub fn begin_reconfigure(&mut self, membership: &Membership) -> Result<u64, RuntimeError> {
        self.front
            .begin_reconfigure(membership, self.wiring.config_epoch)
    }

    /// Completes a staged reconfiguration: waits for every delivery the
    /// current epoch still owes (the handoff drain rule — epoch N is fully
    /// delivered before epoch N+1 sequences anything, so Theorem 1 cannot
    /// be violated across the boundary), tears the old wiring down,
    /// rebuilds threads and links for the next membership at epoch N+1,
    /// and injects the parked publishes in their accepted order. Deliveries
    /// drained while waiting are not lost: they replay through
    /// [`Cluster::wait_for_deliveries`] / [`Cluster::next_delivery`] first.
    /// Stats, wire-size tallies, and trace events accumulate across the
    /// swap. Returns the epoch that just activated.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoPendingReconfig`] if nothing is staged,
    /// or [`RuntimeError::Timeout`] if the old epoch fails to drain in
    /// time — the reconfiguration stays pending so the caller can restart
    /// a crashed node and retry.
    pub fn complete_reconfigure(&mut self, timeout: Duration) -> Result<u64, RuntimeError> {
        if !self.front.reconfig_pending() {
            return Err(RuntimeError::NoPendingReconfig);
        }
        let deadline = Instant::now() + timeout;
        while !self.front.drained() {
            match self.recv_note(deadline) {
                Some(note) => self.carried.push_back(note),
                None => return Err(self.front.drain_timeout()),
            }
        }
        let pending = self.front.take_pending().expect("checked above");
        let next_epoch = self.wiring.config_epoch + 1;
        let prior_trace = self.trace_events();
        self.shutdown();

        let mut next =
            Cluster::start_inner(&pending.membership, self.wiring.config.clone(), next_epoch);
        next.front = std::mem::take(&mut self.front);
        next.carried = std::mem::take(&mut self.carried);
        next.prior_stats = self.stats();
        next.prior_batches = self.batch_size_counts();
        next.prior_trace = prior_trace;
        let wiring = &next.wiring;
        next.front.activate(
            next_epoch,
            &wiring.topo,
            &mut next.pub_engine,
            &mut wiring.sink(),
            pending.parked,
        );
        next.pump_publisher();
        *self = next;
        Ok(next_epoch)
    }

    /// Stops all threads and waits for them. Safe to call twice.
    pub fn shutdown(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        self.pump_publisher();
        self.wiring
            .absorb(self.pub_engine.counters(), self.pub_engine.batch_sizes());
        for tx in self.wiring.outboxes.values() {
            let _ = tx.send(ThreadMsg::Shutdown);
        }
        for (_, h) in self.node_handles.drain() {
            let _ = h.join();
        }
        for h in self.host_handles.drain(..) {
            let _ = h.join();
        }
    }

    /// Aggregated link statistics across all epochs; complete after
    /// [`Cluster::shutdown`].
    pub fn stats(&self) -> RuntimeStats {
        merge_stats(self.prior_stats, *self.wiring.stats.lock())
    }

    /// Wire-write size histogram: transmission count per frames-per-write
    /// (a single data frame counts as size 1, a coalesced batch as its run
    /// length). The runtime twin of the simulator's `batch_size_counts`;
    /// complete after [`Cluster::shutdown`].
    pub fn batch_size_counts(&self) -> BTreeMap<usize, u64> {
        let mut out = self.prior_batches.clone();
        for (&size, &count) in self.wiring.batch_sizes.lock().iter() {
            *out.entry(size).or_insert(0) += count;
        }
        out
    }

    /// Receives the next delivery from any host within `timeout`, pumping
    /// the publisher while waiting. Returns the delivering host and the
    /// message, or `None` on timeout — the streaming counterpart of
    /// [`Cluster::wait_for_deliveries`] for drivers (load harnesses, soak
    /// tests) that need per-delivery receive timestamps.
    pub fn next_delivery(&mut self, timeout: Duration) -> Option<(NodeId, Message)> {
        // Handoff-carried notes first, then the live channel.
        self.carried
            .pop_front()
            .or_else(|| self.recv_note(Instant::now() + timeout))
    }

    /// The structured trace recorded so far, in emission order; empty
    /// unless the deployment was started with
    /// [`trace`](ClusterConfig::trace). Safe to call while the cluster
    /// runs — it snapshots the shared log under its mutex.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let mut out = self.prior_trace.clone();
        if let Some(rec) = &self.wiring.trace {
            out.extend_from_slice(rec.lock().expect("trace sink poisoned").events());
        }
        out
    }

    /// Prometheus text exposition of the runtime counters, plus — when
    /// tracing is on — per-event-kind counters, a per-group delivery
    /// latency histogram, and epoch-labelled delivery/buffering families
    /// derived from the trace. Epoch-label cardinality is bounded to the
    /// current and previous epochs ([`fold_epoch`]); the churn path also
    /// surfaces a steady-vs-parked publish counter pair. Deterministic
    /// for a given state, suitable for a scrape endpoint or a CI
    /// artifact.
    pub fn prometheus_text(&self) -> String {
        let stats = self.stats();
        let mut reg = Registry::new();
        reg.inc("crashes_total", None, stats.recovery.crashes);
        reg.inc("duplicate_frames_total", None, stats.duplicates);
        reg.inc("frames_dropped_total", None, stats.frames_dropped);
        reg.inc("frames_replayed_total", None, stats.recovery.frames_replayed);
        reg.inc("frames_sent_total", None, stats.frames_sent);
        reg.inc("heartbeat_misses_total", None, stats.heartbeat_misses);
        reg.inc(
            "publishes_parked_total",
            None,
            self.front.publishes_parked(),
        );
        reg.inc(
            "publishes_steady_total",
            None,
            self.front.publishes_steady(),
        );
        reg.inc(
            "recovery_micros_total",
            None,
            stats.recovery.recovery_micros,
        );
        reg.inc("retransmissions_total", None, stats.retransmissions);
        let current_epoch = self.epoch();
        let mut published: HashMap<u64, u64> = HashMap::new();
        // Buffer events don't carry the message's epoch; attribute them
        // to the epoch active at their point in the stream.
        let mut scan_epoch = 0u64;
        for event in self.trace_events() {
            reg.inc(event_family(event.kind), None, 1);
            match event.kind {
                EventKind::Publish => {
                    if let Some(m) = event.msg {
                        published.insert(m, event.at);
                    }
                }
                EventKind::Buffer(_) => {
                    let epoch = fold_epoch(scan_epoch, current_epoch);
                    reg.inc("buffered_by_epoch_total", Some(epoch), 1);
                }
                EventKind::Deliver => {
                    let epoch = fold_epoch(event.detail.unwrap_or(scan_epoch), current_epoch);
                    reg.inc("deliveries_by_epoch_total", Some(epoch), 1);
                    if let Some(&t0) = event.msg.and_then(|m| published.get(&m)) {
                        let latency = event.at.saturating_sub(t0);
                        reg.observe("delivery_latency_us", event.group, latency);
                        reg.observe("delivery_latency_us_by_epoch", Some(epoch), latency);
                    }
                }
                EventKind::EpochAdvance => {
                    scan_epoch = event.detail.unwrap_or(scan_epoch + 1);
                }
                _ => {}
            }
        }
        prom::exposition(&reg, "seqnet", epoch_or_group_label)
    }
}

/// The label key for a runtime metric family: the epoch-split families
/// use `epoch`, everything else keeps the per-group convention.
fn epoch_or_group_label(family: &'static str) -> &'static str {
    if family.ends_with("_by_epoch_total") || family.ends_with("_by_epoch") {
        "epoch"
    } else {
        "group"
    }
}

/// Bounds epoch-label cardinality: the current and previous epochs keep
/// their own label; anything older folds into the previous one.
fn fold_epoch(epoch: u64, current: u64) -> u64 {
    epoch.max(current.saturating_sub(1)).min(current)
}

/// Prometheus-safe counter family for an event kind (the wire names use
/// hyphens, which are not valid metric-name characters).
fn event_family(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Publish => "events_publish_total",
        EventKind::AtomStamp => "events_atom_stamp_total",
        EventKind::FrameForward => "events_frame_forward_total",
        EventKind::Arrive => "events_arrive_total",
        EventKind::Buffer(_) => "events_buffer_total",
        EventKind::Deliver => "events_deliver_total",
        EventKind::Crash => "events_crash_total",
        EventKind::Replay => "events_replay_total",
        EventKind::SnapshotFlush => "events_snapshot_flush_total",
        EventKind::HeartbeatMiss => "events_heartbeat_miss_total",
        EventKind::EpochAdvance => "events_epoch_advance_total",
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Field-wise sum of two [`RuntimeStats`], used to accumulate counters
/// across the wiring rebuilds a reconfiguration performs.
fn merge_stats(mut a: RuntimeStats, b: RuntimeStats) -> RuntimeStats {
    a.frames_sent += b.frames_sent;
    a.frames_dropped += b.frames_dropped;
    a.retransmissions += b.retransmissions;
    a.duplicates += b.duplicates;
    a.heartbeat_misses += b.heartbeat_misses;
    a.recovery.merge(&b.recovery);
    a
}

/// How many inbox messages a node thread feeds its machine before it
/// commits and keeps time again, so neither waits on a flood.
const MAX_BATCH: usize = 256;

/// How long a thread whose machine reports no deadline sleeps between
/// looks: it has nothing to do until a message arrives, and an early wake
/// is an empty pass. (The untimed `recv` would say this better; the
/// channel stand-in the offline build patches in has only the timed one.)
const IDLE_WAIT: Duration = Duration::from_secs(3600);

/// Blocks on `inbox` until a message arrives or `deadline` comes.
fn recv_until(
    inbox: &Receiver<ThreadMsg>,
    deadline: Option<Instant>,
) -> Result<ThreadMsg, RecvTimeoutError> {
    let wait = deadline.map_or(IDLE_WAIT, |at| at.saturating_duration_since(Instant::now()));
    inbox.recv_timeout(wait)
}

/// A sequencing-node thread: the channel shell around one
/// [`NodeMachine`]. Blocks on its inbox until the machine's next deadline,
/// feeds the machine what arrived, stores a checkpoint when the machine
/// asks, and routes the machine's outbox. `restarted` marks a post-crash
/// incarnation that restores the latest checkpoint from the store.
fn node_thread(
    idx: usize,
    inbox: Receiver<ThreadMsg>,
    wiring: Arc<Wiring>,
    kill: Arc<AtomicBool>,
    restarted: bool,
) {
    let (topo, config) = (&wiring.topo, &wiring.config);
    let mut node = NodeMachine::new(idx, topo, config, wiring.config_epoch, restarted);
    if restarted {
        let checkpoint = wiring.snapshots.lock().get(&idx).cloned();
        if let Some((protocol, links)) = checkpoint {
            node.restore(topo, protocol, &links)
                .expect("a node's own checkpoint names its own links");
        }
    }
    let finish = |node: &NodeMachine| {
        wiring.absorb(node.engine().counters(), node.engine().batch_sizes());
        let mut stats = wiring.stats.lock();
        stats.heartbeat_misses += node.counters().heartbeat_misses;
        stats.recovery.merge(&node.recovery_stats());
    };

    let mut batch: Vec<ThreadMsg> = Vec::new();
    let drain = |batch: &mut Vec<ThreadMsg>| {
        while batch.len() < MAX_BATCH {
            match inbox.try_recv() {
                Ok(m) => batch.push(m),
                Err(_) => break,
            }
        }
    };

    loop {
        if kill.load(Ordering::Relaxed) {
            // Simulated crash: volatile state is lost, no final snapshot.
            finish(&node);
            return;
        }

        // Wait for one message, then take the backlog behind it (bounded,
        // so housekeeping still runs under flood) — a restarted node
        // chews through queued retransmissions before its first
        // checkpoint this way.
        match recv_until(&inbox, node.next_deadline()) {
            Ok(m) => batch.push(m),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        // One checkpoint will cover this batch, so its size is what a
        // checkpoint costs per frame. Yielding lets the load size it: on
        // an idle machine the yield returns at once with nothing new and
        // the frame leaves now; on a busy one the producers run first,
        // the batch grows, and it is worth asking again.
        drain(&mut batch);
        let mut seen = 0;
        while seen < batch.len() && batch.len() < MAX_BATCH {
            seen = batch.len();
            std::thread::yield_now();
            drain(&mut batch);
        }
        let mut shutdown = false;
        for msg in batch.drain(..) {
            match msg {
                ThreadMsg::Shutdown => shutdown = true,
                ThreadMsg::Wake => {}
                ThreadMsg::Frame(t) => {
                    node.on_link(topo, t.link, t.seq, t.body, &mut wiring.sink());
                }
            }
        }
        if shutdown {
            break;
        }

        {
            let sink = &mut wiring.sink();
            node.snapshot(topo, sink, |protocol, links| {
                // Keep the new link snapshot by swapping it with the
                // previous checkpoint's buffers, which the machine reuses.
                let mut store = wiring.snapshots.lock();
                let slot = store.entry(idx).or_default();
                slot.0.clone_from(protocol);
                std::mem::swap(&mut slot.1, links);
                Ok::<(), Infallible>(())
            })
            .unwrap_or_else(|never| match never {});
            node.tick(topo, Instant::now(), sink);
        }
        wiring.route(node.drain_outbox());
    }
    finish(&node);
}

/// A subscriber-host thread: reliable link termination plus the delivery
/// queue. Hosts never crash, so they acknowledge every frame immediately
/// and hold no unacknowledged data of their own: the thread normally
/// sleeps until a frame arrives.
fn host_thread(
    host: NodeId,
    inbox: Receiver<ThreadMsg>,
    wiring: Arc<Wiring>,
    notes: Sender<(NodeId, Message)>,
) {
    let topo = &wiring.topo;
    let mut machine = HostMachine::new(host, topo, &wiring.config);

    loop {
        match recv_until(&inbox, machine.engine().next_deadline()) {
            Ok(ThreadMsg::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
            Ok(ThreadMsg::Wake) | Err(RecvTimeoutError::Timeout) => {}
            Ok(ThreadMsg::Frame(t)) => machine.on_link(
                topo,
                t.link,
                t.seq,
                t.body,
                || wiring.sink(),
                |host, msg| {
                    let _ = notes.send((host, msg));
                },
            ),
        }
        machine.retransmit_due(topo);
        wiring.route(machine.drain_outbox());
    }
    wiring.absorb(machine.engine().counters(), machine.engine().batch_sizes());
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
    fn config_validation_names_the_offending_field() {
        assert!(ClusterConfig::default().validate().is_ok());

        let cases: [(ClusterConfig, &str); 5] = [
            (
                ClusterConfig {
                    drop_probability: 1.0,
                    ..ClusterConfig::default()
                },
                "drop_probability",
            ),
            (
                ClusterConfig {
                    retransmit_timeout: Duration::ZERO,
                    ..ClusterConfig::default()
                },
                "retransmit_timeout",
            ),
            (
                ClusterConfig {
                    backoff_cap: Duration::from_millis(1),
                    ..ClusterConfig::default()
                },
                "backoff_cap",
            ),
            (
                ClusterConfig {
                    heartbeat_interval: Duration::ZERO,
                    ..ClusterConfig::default()
                },
                "heartbeat_interval",
            ),
            (
                ClusterConfig {
                    heartbeat_miss_threshold: 0,
                    ..ClusterConfig::default()
                },
                "heartbeat_miss_threshold",
            ),
        ];
        for (config, field) in cases {
            let err = config.validate().expect_err(field);
            assert!(
                err.contains(field),
                "error for {field} should name the field, got: {err}"
            );
        }
    }

    #[test]
    fn reliable_links_deliver_everything() {
        let m = overlapped_membership();
        let mut cluster = Cluster::start(&m, ClusterConfig::default());
        cluster.publish(n(0), g(0), b"a".to_vec()).unwrap();
        cluster.publish(n(3), g(1), b"b".to_vec()).unwrap();
        // g0 has 3 members, g1 has 3 members.
        let deliveries = cluster
            .wait_for_deliveries(6, Duration::from_secs(5))
            .unwrap();
        assert_eq!(deliveries[&n(1)].len(), 2);
        assert_eq!(deliveries[&n(0)].len(), 1);
        cluster.shutdown();
        assert_eq!(cluster.stats().frames_dropped, 0);
    }

    /// Publishes `count` messages alternating between the two groups.
    fn publish_alternating(cluster: &mut Cluster, count: u32) {
        for i in 0..count {
            let (s, grp) = if i % 2 == 0 { (n(0), g(0)) } else { (n(3), g(1)) };
            cluster.publish(s, grp, vec![i as u8]).unwrap();
        }
    }

    /// Starts a cluster under `config`, runs `count` alternating publishes
    /// to completion, and checks that the two overlap members saw all of
    /// them in one order. Returns the cluster, shut down, for its stats.
    fn agreeing_run(config: ClusterConfig, count: u32, timeout: Duration) -> Cluster {
        let mut cluster = Cluster::start(&overlapped_membership(), config);
        publish_alternating(&mut cluster, count);
        let deliveries = cluster
            .wait_for_deliveries(3 * count as usize, timeout)
            .unwrap();
        let order = |node: NodeId| -> Vec<MessageId> {
            deliveries[&node].iter().map(|m| m.id).collect()
        };
        assert_eq!(order(n(1)), order(n(2)), "overlap members must agree");
        assert_eq!(order(n(1)).len(), count as usize);
        cluster.shutdown();
        cluster
    }

    #[test]
    fn overlap_members_agree_on_order() {
        let cluster = agreeing_run(ClusterConfig::default(), 8, Duration::from_secs(5));
        assert_eq!(cluster.stats().frames_dropped, 0);
    }

    #[test]
    fn lossy_links_recover_via_retransmission() {
        let config = ClusterConfig {
            drop_probability: 0.3,
            retransmit_timeout: Duration::from_millis(5),
            seed: 42,
            ..ClusterConfig::default()
        };
        let stats = agreeing_run(config, 6, Duration::from_secs(30)).stats();
        assert!(stats.frames_dropped > 0, "loss injector actually fired");
        assert!(stats.retransmissions > 0, "retransmission actually fired");
    }

    #[test]
    fn coalesced_flushes_preserve_delivery_order() {
        let config = ClusterConfig {
            coalesce: true,
            ..ClusterConfig::default()
        };
        let cluster = agreeing_run(config, 8, Duration::from_secs(5));
        assert_eq!(cluster.stats().frames_dropped, 0);
    }

    #[test]
    fn coalesced_lossy_links_recover_via_retransmission() {
        // A dropped batch must recover frame by frame without reordering.
        let config = ClusterConfig {
            coalesce: true,
            drop_probability: 0.3,
            retransmit_timeout: Duration::from_millis(5),
            seed: 42,
            ..ClusterConfig::default()
        };
        let cluster = agreeing_run(config, 6, Duration::from_secs(30));
        assert!(cluster.stats().frames_dropped > 0, "loss injector fired");
    }

    #[test]
    fn unknown_group_rejected() {
        let m = overlapped_membership();
        let mut cluster = Cluster::start(&m, ClusterConfig::default());
        assert_eq!(
            cluster.publish(n(0), g(9), vec![]),
            Err(RuntimeError::UnknownGroup(g(9)))
        );
        cluster.shutdown();
    }

    #[test]
    fn timeout_reports_progress() {
        let m = overlapped_membership();
        let mut cluster = Cluster::start(&m, ClusterConfig::default());
        cluster.publish(n(0), g(0), vec![]).unwrap();
        let err = cluster
            .wait_for_deliveries(100, Duration::from_millis(300))
            .unwrap_err();
        match err {
            RuntimeError::Timeout { expected, received } => {
                assert_eq!(expected, 100);
                assert_eq!(received, 3, "the three real deliveries arrived");
            }
            other => panic!("unexpected error {other}"),
        }
        cluster.shutdown();
    }

    #[test]
    fn per_publisher_fifo_preserved() {
        let m = Membership::from_groups([(g(0), vec![n(0), n(1)])]);
        let mut cluster = Cluster::start(&m, ClusterConfig::default());
        let ids: Vec<MessageId> = (0..10)
            .map(|i| cluster.publish(n(0), g(0), vec![i as u8]).unwrap())
            .collect();
        let deliveries = cluster
            .wait_for_deliveries(20, Duration::from_secs(5))
            .unwrap();
        for node in [n(0), n(1)] {
            let got: Vec<MessageId> = deliveries[&node].iter().map(|m| m.id).collect();
            assert_eq!(got, ids, "{node} must deliver in publish order");
        }
        cluster.shutdown();
    }

    #[test]
    fn tracing_records_the_full_pipeline() {
        let m = overlapped_membership();
        let config = ClusterConfig {
            trace: true,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::start(&m, config);
        cluster.publish(n(0), g(0), b"x".to_vec()).unwrap();
        cluster
            .wait_for_deliveries(3, Duration::from_secs(5))
            .unwrap();
        cluster.shutdown();
        let events = cluster.trace_events();
        let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(EventKind::Publish), 1);
        assert!(count(EventKind::AtomStamp) >= 1, "sequencing was traced");
        assert_eq!(count(EventKind::Arrive), 3, "one arrival per member");
        assert_eq!(count(EventKind::Deliver), 3, "one delivery per member");
        assert!(
            count(EventKind::SnapshotFlush) >= 1,
            "the frames escaped via a snapshot flush"
        );
        let prom = cluster.prometheus_text();
        assert!(prom.contains("seqnet_events_deliver_total 3"), "{prom}");
        assert!(
            prom.contains("# TYPE seqnet_delivery_latency_us histogram"),
            "{prom}"
        );
    }

    #[test]
    fn untraced_cluster_records_nothing() {
        let m = overlapped_membership();
        let mut cluster = Cluster::start(&m, ClusterConfig::default());
        cluster.publish(n(0), g(0), vec![]).unwrap();
        cluster
            .wait_for_deliveries(3, Duration::from_secs(5))
            .unwrap();
        cluster.shutdown();
        assert!(cluster.trace_events().is_empty());
        // The exposition still renders the plain runtime counters.
        let prom = cluster.prometheus_text();
        assert!(prom.contains("# TYPE seqnet_frames_sent_total counter"));
        assert!(!prom.contains("seqnet_events_deliver_total"));
    }

    #[test]
    fn shutdown_is_idempotent() {
        let m = overlapped_membership();
        let mut cluster = Cluster::start(&m, ClusterConfig::default());
        cluster.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn crash_and_restart_recovers() {
        let m = overlapped_membership();
        let mut cluster = Cluster::start(&m, ClusterConfig::default());
        cluster.publish(n(0), g(0), b"before".to_vec()).unwrap();
        cluster
            .wait_for_deliveries(3, Duration::from_secs(5))
            .unwrap();

        assert!(cluster.crash_node(0), "node 0 was running");
        assert!(!cluster.crash_node(0), "second kill is a no-op");
        // Publish into the outage: the frame queues (or retries from the
        // publisher's link buffer) until the node is back.
        cluster.publish(n(3), g(1), b"during".to_vec()).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert!(cluster.restart_node(0), "node 0 was down");
        assert!(!cluster.restart_node(0), "second restart is a no-op");
        cluster.publish(n(0), g(0), b"after".to_vec()).unwrap();

        let deliveries = cluster
            .wait_for_deliveries(6, Duration::from_secs(10))
            .unwrap();
        let total: usize = deliveries.values().map(Vec::len).sum();
        assert_eq!(total, 6, "nothing is lost across the crash");
        cluster.shutdown();
        assert_eq!(cluster.stats().recovery.crashes, 1);
    }

    #[test]
    fn live_reconfigure_parks_publishes_and_advances_the_epoch() {
        let m = overlapped_membership();
        let mut cluster = Cluster::start(&m, ClusterConfig::default());
        assert_eq!(cluster.epoch(), 0);
        assert_eq!(
            cluster.complete_reconfigure(Duration::from_secs(1)),
            Err(RuntimeError::NoPendingReconfig)
        );
        cluster.publish(n(0), g(0), b"old".to_vec()).unwrap();

        // n4 joins g1 while the epoch-0 publish is still in flight.
        let next = Membership::from_groups([
            (g(0), vec![n(0), n(1), n(2)]),
            (g(1), vec![n(1), n(2), n(3), n(4)]),
        ]);
        assert_eq!(cluster.begin_reconfigure(&next), Ok(1));
        assert_eq!(
            cluster.begin_reconfigure(&next),
            Err(RuntimeError::ReconfigPending { next_epoch: 1 })
        );
        assert!(cluster.reconfig_pending());

        // Publishes during the handoff validate against the next
        // membership and park behind it.
        assert_eq!(
            cluster.publish(n(0), g(9), b"?".to_vec()),
            Err(RuntimeError::UnknownGroup(g(9)))
        );
        cluster.publish(n(3), g(1), b"new".to_vec()).unwrap();
        assert_eq!(cluster.parked_publishes(), 1);

        assert_eq!(cluster.complete_reconfigure(Duration::from_secs(10)), Ok(1));
        assert_eq!(cluster.epoch(), 1);
        assert!(!cluster.reconfig_pending());

        // 3 epoch-0 deliveries (g0) + 4 epoch-1 deliveries (grown g1).
        let deliveries = cluster
            .wait_for_deliveries(7, Duration::from_secs(10))
            .unwrap();
        assert_eq!(deliveries.values().map(Vec::len).sum::<usize>(), 7);
        let n1: Vec<(MessageId, u64)> =
            deliveries[&n(1)].iter().map(|m| (m.id, m.epoch)).collect();
        assert_eq!(n1.len(), 2, "n1 subscribes in both epochs");
        assert_eq!(n1[0].1, 0, "the in-flight publish kept its old epoch");
        assert_eq!(n1[1].1, 1, "the parked publish sequenced in the new epoch");
        assert_eq!(
            deliveries[&n(4)].iter().map(|m| m.epoch).collect::<Vec<_>>(),
            vec![1],
            "the joiner sees only new-epoch traffic"
        );
        cluster.shutdown();
    }

    #[test]
    fn reconfigure_preserves_stats_and_traces_across_the_swap() {
        let m = overlapped_membership();
        let config = ClusterConfig {
            trace: true,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::start(&m, config);
        cluster.publish(n(0), g(0), b"a".to_vec()).unwrap();
        cluster
            .wait_for_deliveries(3, Duration::from_secs(5))
            .unwrap();

        cluster.begin_reconfigure(&m).unwrap();
        assert_eq!(cluster.complete_reconfigure(Duration::from_secs(10)), Ok(1));
        // Node threads flush their counters when the old wiring is torn
        // down, so everything epoch 0 sent is visible right after the swap.
        let sent_before = cluster.stats().frames_sent;
        assert!(sent_before > 0, "epoch-0 counters carried into epoch 1");
        cluster.publish(n(0), g(0), b"b".to_vec()).unwrap();
        cluster
            .wait_for_deliveries(3, Duration::from_secs(5))
            .unwrap();
        cluster.shutdown();

        assert!(
            cluster.stats().frames_sent > sent_before,
            "old-epoch counters survive the wiring rebuild"
        );
        let events = cluster.trace_events();
        let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(EventKind::Publish), 2, "both epochs' traces retained");
        assert_eq!(count(EventKind::EpochAdvance), 1);
        let advance = events
            .iter()
            .find(|e| e.kind == EventKind::EpochAdvance)
            .unwrap();
        assert_eq!(advance.detail, Some(1), "detail carries the new epoch");
        assert!(cluster
            .prometheus_text()
            .contains("seqnet_events_epoch_advance_total 1"));
    }

    #[test]
    fn crash_during_handoff_recovers_into_the_old_epoch_then_advances() {
        let m = overlapped_membership();
        let mut cluster = Cluster::start(&m, ClusterConfig::default());
        cluster.publish(n(0), g(0), b"before".to_vec()).unwrap();
        cluster
            .wait_for_deliveries(3, Duration::from_secs(5))
            .unwrap();

        // Kill a node, stage a reconfiguration over the outage, and
        // publish into the handoff: the parked message must wait for the
        // restarted node to drain epoch 0 first.
        assert!(cluster.crash_node(0));
        cluster.publish(n(0), g(0), b"inflight".to_vec()).unwrap();
        let next = Membership::from_groups([
            (g(0), vec![n(0), n(1), n(2)]),
            (g(1), vec![n(1), n(2), n(3), n(4)]),
        ]);
        cluster.begin_reconfigure(&next).unwrap();
        cluster.publish(n(3), g(1), b"parked".to_vec()).unwrap();

        // The drain cannot finish while the node is down.
        match cluster.complete_reconfigure(Duration::from_millis(200)) {
            Err(RuntimeError::Timeout { .. }) => {}
            other => panic!("expected a drain timeout, got {other:?}"),
        }
        assert!(cluster.reconfig_pending(), "a failed drain stays pending");

        assert!(cluster.restart_node(0));
        assert_eq!(cluster.complete_reconfigure(Duration::from_secs(20)), Ok(1));
        let deliveries = cluster
            .wait_for_deliveries(7, Duration::from_secs(10))
            .unwrap();
        for msg in deliveries.values().flatten() {
            let want = if msg.payload.as_ref() == b"parked" { 1 } else { 0 };
            assert_eq!(msg.epoch, want, "epoch stamp survives crash recovery");
        }
        cluster.shutdown();
        assert_eq!(cluster.stats().recovery.crashes, 1);
    }

    #[test]
    fn fault_plan_crash_windows_execute() {
        let m = overlapped_membership();
        let mut cluster = Cluster::start(&m, ClusterConfig::default());
        let nodes = cluster.num_sequencing_nodes();
        assert!(nodes >= 1);
        let plan = FaultPlan::new().crash(
            0,
            SimTime::from_micros(5_000),
            SimTime::from_micros(40_000),
        );
        publish_alternating(&mut cluster, 4);
        cluster.run_fault_plan(&plan);
        let deliveries = cluster
            .wait_for_deliveries(12, Duration::from_secs(10))
            .unwrap();
        assert_eq!(deliveries.values().map(Vec::len).sum::<usize>(), 12);
        assert_eq!(
            deliveries[&n(1)].iter().map(|m| m.id).collect::<Vec<_>>(),
            deliveries[&n(2)].iter().map(|m| m.id).collect::<Vec<_>>(),
            "order agreement survives the crash window"
        );
        cluster.shutdown();
        assert_eq!(cluster.stats().recovery.crashes, 1);
    }

    #[test]
    fn jittered_links_preserve_ordering() {
        // Random per-frame delays reorder frames across links; the
        // protocol must still converge with consistent orders.
        let m = Membership::from_groups([
            (g(0), vec![n(0), n(1), n(2)]),
            (g(1), vec![n(1), n(2), n(3)]),
            (g(2), vec![n(2), n(3), n(0)]),
        ]);
        let config = ClusterConfig {
            drop_probability: 0.0,
            retransmit_timeout: Duration::from_millis(30),
            link_delay: Duration::from_millis(3),
            seed: 77,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::start(&m, config);
        let mut expected = 0usize;
        for i in 0..9u32 {
            let grp = g(i % 3);
            let sender = m.members(grp).next().unwrap();
            cluster.publish(sender, grp, vec![i as u8]).unwrap();
            expected += m.group_size(grp);
        }
        let deliveries = cluster
            .wait_for_deliveries(expected, Duration::from_secs(30))
            .unwrap();
        let nodes: Vec<NodeId> = m.nodes().collect();
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                let da: Vec<_> = deliveries[&a].iter().map(|x| x.id).collect();
                let db: Vec<_> = deliveries[&b].iter().map(|x| x.id).collect();
                let ca: Vec<_> = da.iter().filter(|x| db.contains(x)).collect();
                let cb: Vec<_> = db.iter().filter(|x| da.contains(x)).collect();
                assert_eq!(ca, cb, "{a} and {b} disagree under jitter");
            }
        }
        cluster.shutdown();
    }

    #[test]
    fn jitter_plus_loss_still_converges() {
        let m = Membership::from_groups([
            (g(0), vec![n(0), n(1)]),
            (g(1), vec![n(0), n(1)]),
        ]);
        let config = ClusterConfig {
            drop_probability: 0.25,
            retransmit_timeout: Duration::from_millis(8),
            link_delay: Duration::from_millis(2),
            seed: 3,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::start(&m, config);
        for i in 0..8u32 {
            let grp = g(i % 2);
            cluster.publish(n(0), grp, vec![i as u8]).unwrap();
        }
        let deliveries = cluster
            .wait_for_deliveries(16, Duration::from_secs(60))
            .unwrap();
        assert_eq!(
            deliveries[&n(0)].iter().map(|x| x.id).collect::<Vec<_>>(),
            deliveries[&n(1)].iter().map(|x| x.id).collect::<Vec<_>>(),
        );
        cluster.shutdown();
        assert!(cluster.stats().frames_dropped > 0);
    }
}
