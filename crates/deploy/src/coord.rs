//! The coordinator: publisher front-end, in-process subscriber hosts, and
//! the chaos controller for a multi-process cluster.
//!
//! [`DeployCluster::start`] reserves one localhost port per sequencing
//! node (and holds the reservations for as long as it lives), writes the
//! spec file, spawns one real OS process per node, and
//! dials each of them. The coordinator terminates the publisher end and
//! every host end of the link table — one [`LinkEngine`] for the publisher
//! and one [`HostMachine`] per subscriber host, exactly what the threaded
//! runtime's publisher front-end and host threads run (immediate acks —
//! the coordinator never crashes) — so delivery order is produced by
//! exactly the protocol code the simulator and the threaded runtime
//! execute. Chaos is real: [`DeployCluster::kill_node`] SIGKILLs
//! the child process, [`DeployCluster::drop_conn`] severs a live TCP
//! connection, [`DeployCluster::stall_link`] freezes one without closing
//! it.

use crate::chaos::{ChaosKind, ChaosPlan};
use crate::conn::Peers;
use crate::node::unix_micros;
use crate::spec::ClusterSpec;
use crate::sys::{reserve_port, PortReservation};
use crate::topo::{Proc, Topology};
use crate::wire::{NodeTelemetry, NodeWireStats, WireBody, WireMsg};
use seqnet_core::proto::trace::{TraceEvent, TraceSink};
use seqnet_core::proto::{Peer, RecoveryStats};
use seqnet_core::{Message, MessageId};
use seqnet_membership::{GroupId, Membership, NodeId};
use seqnet_obs::{prom, Recorder, Registry};
use seqnet_runtime::{ClusterConfig, HostMachine, LinkEngine, PublishFront, RuntimeError};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::process::{Child, Command as ProcessCommand, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Run-directory disambiguator for clusters started by one process.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// How often the coordinator polls every node process for a live
/// [`NodeTelemetry`] snapshot over the existing control connections.
const TELEMETRY_INTERVAL: Duration = Duration::from_millis(200);

/// How many bytes [`DeployCluster::publish`] lets pile up unwritten on one
/// connection before it writes them itself. A memory bound for a caller
/// that publishes without ever waiting, not a tunable: a caller that
/// waits flushes everything each time it does.
const PUBLISH_BACKLOG: usize = 64 * 1024;

/// Aggregated statistics for a socket deployment, shaped like the
/// threaded runtime's `RuntimeStats` with deployment extras.
#[derive(Debug, Clone, Default)]
pub struct DeployStats {
    /// Data frames put on any wire (coordinator + all node processes,
    /// retransmissions included).
    pub frames_sent: u64,
    /// Frames discarded by loss injectors before the transport.
    pub frames_dropped: u64,
    /// Retransmissions performed by link senders.
    pub retransmissions: u64,
    /// Duplicate frames discarded by link receivers.
    pub duplicates: u64,
    /// Peer-failure detections across node processes.
    pub heartbeat_misses: u64,
    /// Crash-recovery counters: `crashes` counts real SIGKILLs,
    /// `frames_replayed` and `recovery_micros` come from the respawned
    /// processes' own measurements.
    pub recovery: RecoveryStats,
    /// Disk checkpoints written across node processes.
    pub snapshots: u64,
    /// Frames-per-wire-write histogram, merged across processes.
    pub batch_sizes: BTreeMap<usize, u64>,
}

/// A running socket-based multi-process deployment.
///
/// Mirrors the threaded [`seqnet_runtime::Cluster`] API — `publish`,
/// `next_delivery`, `wait_for_deliveries`, crash injection — with real
/// processes behind it.
#[derive(Debug)]
pub struct DeployCluster {
    spec: ClusterSpec,
    topo: Topology,
    binary: PathBuf,
    /// Every node's port, held from before the spec names it until the
    /// cluster is dropped, so no respawn finds its port taken either.
    _ports: Vec<PortReservation>,
    children: HashMap<usize, Child>,
    incarnations: Vec<u64>,
    /// The connections to the node processes; the coordinator dials them
    /// all.
    net: Peers,
    /// The publisher's end of the publisher→ingress links.
    publisher: LinkEngine,
    /// The subscriber hosts, in-process: their ends of the node→host
    /// links plus their delivery queues.
    hosts: HashMap<NodeId, HostMachine>,
    /// Decoded messages; scratch reused across pump rounds, so a quiet
    /// round allocates nothing.
    msgs: Vec<WireMsg>,
    deliveries: VecDeque<(NodeId, Message)>,
    node_stats: HashMap<usize, NodeWireStats>,
    crashes: u64,
    shut_down: bool,
    /// Ids, the staged reconfiguration with its parked publishes, and the
    /// delivery ledger; carried across every process-tree rebuild.
    front: PublishFront,
    /// Counters accumulated by earlier epochs' deployments, folded into
    /// [`DeployCluster::stats`].
    prior_stats: DeployStats,
    /// Coordinator-side trace recorder when `config.trace` is set:
    /// `Publish` events plus the receiver cores' `Arrive`/`Buffer`/
    /// `Deliver` lifecycle, stamped with UNIX-epoch microseconds so they
    /// join the node processes' JSONL logs on one timebase.
    trace: Option<Recorder>,
    /// Trace events carried over from earlier epochs' coordinators.
    prior_trace: Vec<TraceEvent>,
    /// Latest live telemetry snapshot received from each node process.
    telemetry: HashMap<usize, NodeTelemetry>,
    /// When the last `TelemetryRequest` round was broadcast.
    last_telemetry_poll: Instant,
}

/// Advances the coordinator's trace clock to the shared UNIX-epoch
/// timebase; reads no clock when untraced.
fn stamp(trace: &mut Option<Recorder>) {
    if let Some(rec) = trace {
        rec.now(unix_micros());
    }
}

/// Picks the binary that hosts the `cluster-node` entry point: an explicit
/// override, the `SEQNET_BIN` environment variable, or this executable.
fn resolve_binary(explicit: Option<PathBuf>) -> Result<PathBuf, String> {
    if let Some(bin) = explicit {
        return Ok(bin);
    }
    if let Ok(bin) = std::env::var("SEQNET_BIN") {
        return Ok(PathBuf::from(bin));
    }
    std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))
}

impl DeployCluster {
    /// Starts a cluster whose node processes run the `cluster-node` entry
    /// point of `SEQNET_BIN` (or, absent that, of the current executable —
    /// any binary whose `main` calls [`crate::run_if_child`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the failure: invalid config, port
    /// reservation, spec write, or child spawn.
    pub fn start(membership: &Membership, config: ClusterConfig) -> Result<Self, String> {
        Self::start_with_binary(membership, config, None)
    }

    /// [`start`](Self::start) with an explicit child binary.
    ///
    /// # Errors
    ///
    /// As [`start`](Self::start).
    pub fn start_with_binary(
        membership: &Membership,
        config: ClusterConfig,
        binary: Option<PathBuf>,
    ) -> Result<Self, String> {
        Self::start_inner(membership, config, binary, 0)
    }

    /// [`start_with_binary`](Self::start_with_binary) with an explicit
    /// configuration epoch — 0 for a fresh deployment, N+1 when
    /// [`complete_reconfigure`](Self::complete_reconfigure) rebuilds the
    /// process tree for the next configuration (each epoch gets a fresh
    /// run directory, so stale-epoch snapshots cannot be restored).
    fn start_inner(
        membership: &Membership,
        config: ClusterConfig,
        binary: Option<PathBuf>,
        config_epoch: u64,
    ) -> Result<Self, String> {
        config.validate()?;
        let binary = resolve_binary(binary)?;
        let topo = Topology::derive(membership, config.seed);

        let dir = std::env::temp_dir().join(format!(
            "seqnet-cluster-{}-{}",
            std::process::id(),
            RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

        // One port per node, bound here and never listened on: the
        // children bind theirs by number with SO_REUSEADDR, which also
        // absorbs post-SIGKILL TIME_WAIT.
        let reserved = (0..topo.num_nodes)
            .map(|_| reserve_port().map_err(|e| format!("reserve port: {e}")))
            .collect::<Result<Vec<_>, _>>()?;

        let spec = ClusterSpec {
            config: config.clone(),
            membership: membership.clone(),
            epoch: config_epoch,
            ports: reserved.iter().map(PortReservation::port).collect(),
            dir: dir.clone(),
        };
        let spec_path = dir.join("spec.txt");
        std::fs::write(&spec_path, spec.encode())
            .map_err(|e| format!("write {}: {e}", spec_path.display()))?;

        let mut cluster = DeployCluster {
            publisher: LinkEngine::new(Peer::Publisher, false, &config),
            hosts: membership
                .nodes()
                .map(|h| (h, HostMachine::new(h, &topo, &config)))
                .collect(),
            incarnations: vec![0; topo.num_nodes],
            children: HashMap::new(),
            net: Peers::new(
                WireMsg::Hello {
                    party: Peer::Publisher,
                    incarnation: 0,
                },
                (0..topo.num_nodes)
                    .map(|idx| (Proc::Node(idx), spec.node_addr(idx)))
                    .collect(),
                config.backoff_cap,
            ),
            msgs: Vec::new(),
            deliveries: VecDeque::new(),
            node_stats: HashMap::new(),
            crashes: 0,
            shut_down: false,
            front: PublishFront::new(),
            prior_stats: DeployStats::default(),
            trace: config.trace.then(Recorder::new),
            prior_trace: Vec::new(),
            telemetry: HashMap::new(),
            last_telemetry_poll: Instant::now(),
            binary,
            _ports: reserved,
            spec,
            topo,
        };
        for idx in 0..cluster.topo.num_nodes {
            cluster.spawn_child(idx)?;
        }
        Ok(cluster)
    }

    fn spawn_child(&mut self, idx: usize) -> Result<(), String> {
        let child = ProcessCommand::new(&self.binary)
            .arg("cluster-node")
            .arg("--spec")
            .arg(self.spec.dir.join("spec.txt"))
            .arg("--node")
            .arg(idx.to_string())
            .arg("--incarnation")
            .arg(self.incarnations[idx].to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn node {idx} ({}): {e}", self.binary.display()))?;
        self.children.insert(idx, child);
        Ok(())
    }

    /// One round of everything the coordinator owes the network: dial,
    /// read, process, ask for telemetry, retransmit, write. Never blocks.
    /// Every entry point that waits runs it before it waits — the
    /// coordinator has no thread of its own — and `publish` does not.
    fn pump(&mut self) {
        // Establish due connections.
        let (topo, publisher) = (&self.topo, &mut self.publisher);
        self.net.poll_dials(|proc, epoch, conn| {
            // Prime the live-telemetry plane right away — a short-lived
            // run would otherwise end before the first periodic poll.
            conn.queue(&WireMsg::TelemetryRequest);
            // Only the publisher end sends data, so only it has anything
            // to replay.
            publisher.reconnect_replay_to(topo, epoch, |to| Proc::owner(to) == proc);
        });

        // Drain every connection.
        for idx in 0..self.topo.num_nodes {
            let mut msgs = std::mem::take(&mut self.msgs);
            self.net.read_into(Proc::Node(idx), &mut msgs);
            for msg in msgs.drain(..) {
                match msg {
                    WireMsg::Hello { .. } | WireMsg::Shutdown | WireMsg::TelemetryRequest => {}
                    WireMsg::Stats(stats) => {
                        self.node_stats.insert(idx, stats);
                    }
                    WireMsg::Telemetry(telemetry) => {
                        self.telemetry.insert(idx, telemetry);
                    }
                    WireMsg::Link { link, seq, body } => self.on_link(link, seq, body),
                }
            }
            self.msgs = msgs;
        }

        // Periodically ask every connected node for a live counter
        // snapshot; replies land in `telemetry` on a later pump round.
        if self.last_telemetry_poll.elapsed() >= TELEMETRY_INTERVAL {
            self.last_telemetry_poll = Instant::now();
            self.net.broadcast(&WireMsg::TelemetryRequest);
        }

        // Route every party's outbox.
        self.publisher.retransmit_due(&self.topo);
        let net = &mut self.net;
        self.publisher.drain_outbox().for_each(|t| net.route(t));
        for host in self.hosts.values_mut() {
            host.drain_outbox().for_each(|t| net.route(t));
        }
        net.flush();
    }

    /// Blocks until the network has something for the next
    /// [`pump`](Self::pump) — or until `until`, the next telemetry round,
    /// or the publisher's earliest retransmission, whichever is first.
    /// (The hosts only ever send acks; they hold no timer.) Call it right
    /// after a pump, never instead of one.
    fn wait(&mut self, until: Instant) {
        let telemetry = self.last_telemetry_poll + TELEMETRY_INTERVAL;
        let until = self
            .publisher
            .next_deadline()
            .map_or(telemetry, |retransmit| retransmit.min(telemetry))
            .min(until);
        self.net.wait([], Some(until));
    }

    /// One link frame off a connection, handed to the party it addresses:
    /// acks to the publisher end, data to a host end and on through that
    /// host's receiver core. A frame on an unknown link, or addressed to
    /// a party that does not live here, is discarded.
    fn on_link(&mut self, link: u32, seq: u64, body: WireBody) {
        match body.endpoints(&self.topo, link) {
            Some((_, Peer::Publisher)) => {
                // The publisher only ever receives acks: nothing releases.
                self.publisher
                    .on_link(&self.topo, link, seq, body, &mut Vec::new());
            }
            Some((_, Peer::Host(h))) => {
                let Some(host) = self.hosts.get_mut(&h) else {
                    return;
                };
                let (trace, front, deliveries) =
                    (&mut self.trace, &mut self.front, &mut self.deliveries);
                host.on_link(
                    &self.topo,
                    link,
                    seq,
                    body,
                    || {
                        stamp(trace);
                        trace
                    },
                    |host, msg| {
                        front.note_delivery();
                        deliveries.push_back((host, msg));
                    },
                );
            }
            Some((_, Peer::Node(_))) | None => {}
        }
    }

    /// Publishes a message to `group`'s ingress sequencing node over the
    /// reliable publisher link, exactly as the threaded runtime does.
    ///
    /// This call only queues: the message gets its id, its link sequence
    /// number and its place in the retransmission buffer, and its bytes
    /// join the ingress connection's outbound buffer. They move when the
    /// caller next waits — [`next_delivery`](Self::next_delivery),
    /// [`wait_for_deliveries`](Self::wait_for_deliveries),
    /// [`complete_reconfigure`](Self::complete_reconfigure),
    /// [`run_chaos_plan`](Self::run_chaos_plan),
    /// [`shutdown`](Self::shutdown) — or at once when that buffer passes
    /// 64 KiB, so a caller that publishes in a burst pays one `write(2)`
    /// per burst, not one network round per message. A connection that
    /// dies with bytes still queued loses nothing: the link layer replays
    /// every unacknowledged publish on the reconnect.
    ///
    /// While a reconfiguration is staged (between
    /// [`begin_reconfigure`](Self::begin_reconfigure) and
    /// [`complete_reconfigure`](Self::complete_reconfigure)) the publish
    /// is validated against the *next* membership and parked until the
    /// current epoch drains, exactly like the threaded runtime.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownGroup`] for groups with no members.
    pub fn publish(
        &mut self,
        sender: NodeId,
        group: GroupId,
        payload: impl Into<bytes::Bytes>,
    ) -> Result<MessageId, RuntimeError> {
        stamp(&mut self.trace);
        let id = self.front.publish(
            &self.topo,
            &mut self.publisher,
            &mut self.trace,
            sender,
            group,
            payload.into(),
        )?;
        let net = &mut self.net;
        for t in self.publisher.drain_outbox() {
            let ingress = Proc::owner(t.to);
            net.route(t);
            net.flush_past(ingress, PUBLISH_BACKLOG);
        }
        Ok(id)
    }

    /// The configuration epoch this deployment is currently running.
    pub fn epoch(&self) -> u64 {
        self.spec.epoch
    }

    /// Whether a reconfiguration is staged but has not activated yet.
    pub fn reconfig_pending(&self) -> bool {
        self.front.reconfig_pending()
    }

    /// Publishes parked behind the staged reconfiguration.
    pub fn parked_publishes(&self) -> usize {
        self.front.parked_publishes()
    }

    /// Stages an online reconfiguration to `membership` without stopping
    /// traffic; the socket twin of the threaded runtime's
    /// `begin_reconfigure`. Returns the epoch that will activate.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ReconfigPending`] if one is already staged.
    pub fn begin_reconfigure(&mut self, membership: &Membership) -> Result<u64, RuntimeError> {
        self.front.begin_reconfigure(membership, self.spec.epoch)
    }

    /// Completes a staged reconfiguration: drains every delivery the
    /// current epoch still owes, shuts the old process tree down, starts a
    /// fresh one (new run directory, epoch N+1 in its spec), and injects
    /// the parked publishes in their accepted order. Already-drained
    /// deliveries stay queued for [`next_delivery`](Self::next_delivery).
    /// Returns the epoch that just activated.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoPendingReconfig`] if nothing is staged;
    /// [`RuntimeError::Timeout`] if the old epoch fails to drain in time —
    /// the reconfiguration stays pending, so the caller can respawn a
    /// crashed node and retry; [`RuntimeError::Spawn`] if the next
    /// process tree cannot be started.
    pub fn complete_reconfigure(&mut self, timeout: Duration) -> Result<u64, RuntimeError> {
        if !self.front.reconfig_pending() {
            return Err(RuntimeError::NoPendingReconfig);
        }
        let deadline = Instant::now() + timeout;
        loop {
            self.pump();
            if self.front.drained() {
                break;
            }
            if Instant::now() >= deadline {
                return Err(self.front.drain_timeout());
            }
            self.wait(deadline);
        }
        let pending = self.front.take_pending().expect("checked above");
        let next_epoch = self.spec.epoch + 1;
        let carried = std::mem::take(&mut self.deliveries);
        let prior_trace = self.trace_events();
        let prior = self.shutdown();

        let mut next = Self::start_inner(
            &pending.membership,
            self.spec.config.clone(),
            Some(self.binary.clone()),
            next_epoch,
        )
        .map_err(RuntimeError::Spawn)?;
        next.front = std::mem::take(&mut self.front);
        next.deliveries = carried;
        next.prior_stats = prior;
        next.prior_trace = prior_trace;
        stamp(&mut next.trace);
        next.front.activate(
            next_epoch,
            &next.topo,
            &mut next.publisher,
            &mut next.trace,
            pending.parked,
        );
        next.pump();
        *self = next;
        Ok(next_epoch)
    }

    /// Receives the next delivery from any host within `timeout`. A
    /// delivery already queued is returned at once; otherwise the network
    /// is pumped (which also sends whatever `publish` queued) and waited
    /// on until one arrives. A zero `timeout` pumps once and does not
    /// block.
    pub fn next_delivery(&mut self, timeout: Duration) -> Option<(NodeId, Message)> {
        if let Some(d) = self.deliveries.pop_front() {
            return Some(d);
        }
        let deadline = Instant::now() + timeout;
        loop {
            self.pump();
            if let Some(d) = self.deliveries.pop_front() {
                return Some(d);
            }
            if Instant::now() >= deadline {
                return None;
            }
            self.wait(deadline);
        }
    }

    /// Collects exactly `expected` deliveries (across all hosts), grouped
    /// by host in delivery order.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Timeout`] if they do not all arrive in time.
    pub fn wait_for_deliveries(
        &mut self,
        expected: usize,
        timeout: Duration,
    ) -> Result<BTreeMap<NodeId, Vec<Message>>, RuntimeError> {
        PublishFront::collect_deliveries(expected, timeout, |remaining| {
            self.next_delivery(remaining)
        })
    }

    /// SIGKILLs sequencing node `node` — a real `kill -9`, no shutdown
    /// handshake; everything volatile in that process is gone. Returns
    /// `true` if a running process was killed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a valid sequencing-node index.
    pub fn kill_node(&mut self, node: usize) -> bool {
        assert!(node < self.topo.num_nodes, "no sequencing node {node}");
        let Some(mut child) = self.children.remove(&node) else {
            return false;
        };
        let _ = child.kill();
        let _ = child.wait();
        self.crashes += 1;
        // Our side of the connection dies with the peer; close it now and
        // start redialing for the respawn.
        self.net.drop_conn(Proc::Node(node));
        true
    }

    /// Respawns a killed node with a bumped incarnation; it restores its
    /// disk snapshot and replays the rest from upstream. Returns `true`
    /// if a respawn happened, `false` if the node was already running.
    ///
    /// # Errors
    ///
    /// Returns the spawn failure.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a valid sequencing-node index.
    pub fn respawn_node(&mut self, node: usize) -> Result<bool, String> {
        assert!(node < self.topo.num_nodes, "no sequencing node {node}");
        if self.children.contains_key(&node) {
            return Ok(false);
        }
        self.incarnations[node] += 1;
        self.spawn_child(node)?;
        self.net.redial(Proc::Node(node));
        Ok(true)
    }

    /// Severs the coordinator's TCP connection to `node` mid-stream. Both
    /// sides reconnect (capped backoff) and replay unacknowledged frames.
    pub fn drop_conn(&mut self, node: usize) {
        self.net.drop_conn(Proc::Node(node));
    }

    /// Freezes the coordinator↔`node` connection for `window`: the socket
    /// stays open, no bytes move in either direction on our side.
    pub fn stall_link(&mut self, node: usize, window: Duration) {
        if let Some(conn) = self.net.conn_mut(Proc::Node(node)) {
            conn.stalled_until = Some(Instant::now() + window);
        }
    }

    /// Replays a [`ChaosPlan`] against the running cluster, mapping plan
    /// time 1:1 onto the wall clock and pumping the network between
    /// events. Kills respawn automatically at the end of their windows.
    ///
    /// # Errors
    ///
    /// Returns the first respawn failure.
    pub fn run_chaos_plan(&mut self, plan: &ChaosPlan) -> Result<(), String> {
        enum Action {
            Down,
            Up,
            Drop,
            Stall(Duration),
        }
        let mut timeline: Vec<(Duration, usize, Action)> = Vec::new();
        for event in plan.events() {
            if event.node >= self.topo.num_nodes {
                continue;
            }
            match event.kind {
                ChaosKind::Kill { down_for } => {
                    timeline.push((event.at, event.node, Action::Down));
                    timeline.push((event.at + down_for, event.node, Action::Up));
                }
                ChaosKind::DropConn => timeline.push((event.at, event.node, Action::Drop)),
                ChaosKind::StallLink { stall_for } => {
                    timeline.push((event.at, event.node, Action::Stall(stall_for)));
                }
            }
        }
        timeline.sort_by_key(|&(at, node, _)| (at, node));
        let t0 = Instant::now();
        for (at, node, action) in timeline {
            let target = t0 + at;
            loop {
                self.pump();
                if Instant::now() >= target {
                    break;
                }
                self.wait(target);
            }
            match action {
                Action::Down => {
                    self.kill_node(node);
                }
                Action::Up => {
                    self.respawn_node(node)?;
                }
                Action::Drop => self.drop_conn(node),
                Action::Stall(window) => self.stall_link(node, window),
            }
        }
        Ok(())
    }

    /// The run directory (spec, snapshots, per-node obs JSONL traces).
    pub fn dir(&self) -> &std::path::Path {
        &self.spec.dir
    }

    /// Number of sequencing-node processes.
    pub fn num_sequencing_nodes(&self) -> usize {
        self.topo.num_nodes
    }

    /// Stops every node process — a `Shutdown` frame each, stats replies
    /// collected with a deadline, stragglers SIGKILLed — and returns the
    /// aggregated statistics. Safe to call twice.
    pub fn shutdown(&mut self) -> DeployStats {
        if !self.shut_down {
            self.shut_down = true;
            let running: Vec<usize> = self.children.keys().copied().collect();
            for &idx in &running {
                if let Some(conn) = self.net.conn_mut(Proc::Node(idx)) {
                    conn.queue(&WireMsg::Shutdown);
                }
            }
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                self.pump();
                if Instant::now() >= deadline
                    || running.iter().all(|idx| self.node_stats.contains_key(idx))
                {
                    break;
                }
                self.wait(deadline);
            }
            for (_, mut child) in self.children.drain() {
                let _ = child.kill();
                let _ = child.wait();
            }
            self.net.close();
            // Persist the coordinator's side of the trace next to the
            // node logs, so span reconstruction gets the Publish and
            // Arrive/Buffer/Deliver events only this process saw.
            if self.trace.is_some() || !self.prior_trace.is_empty() {
                let mut out = String::new();
                for event in self.trace_events() {
                    out.push_str(&seqnet_obs::jsonl::to_jsonl(&event));
                    out.push('\n');
                }
                let _ = std::fs::write(self.spec.dir.join("coord.obs.jsonl"), out);
            }
        }
        self.stats()
    }

    /// The coordinator-side structured trace recorded so far (earlier
    /// epochs included), in emission order; empty unless the cluster was
    /// started with [`ClusterConfig::trace`]. Node-side events live in the
    /// run directory's `node{i}.obs.jsonl` files.
    ///
    /// [`ClusterConfig::trace`]: seqnet_runtime::ClusterConfig
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let mut out = self.prior_trace.clone();
        if let Some(rec) = &self.trace {
            out.extend_from_slice(rec.events());
        }
        out
    }

    /// Latest live telemetry snapshot from each node process, keyed by
    /// node index. Populated by the periodic in-band telemetry poll; a
    /// node that never answered (crashed early, never connected) is
    /// absent.
    pub fn telemetry(&self) -> &HashMap<usize, NodeTelemetry> {
        &self.telemetry
    }

    /// One human-readable cluster health line: epoch, reconfiguration
    /// state, parked publishes, receiver-side buffered messages, total
    /// deliveries, then per-node liveness with each node's last-reported
    /// incarnation, staged (in-flight) frames, and processed frames.
    pub fn health_line(&self) -> String {
        let buffered: usize = self
            .hosts
            .values()
            .map(|h| h.receiver().queue().pending())
            .sum();
        let mut line = format!(
            "epoch={} reconfig_pending={} parked={} buffered={} delivered={}",
            self.spec.epoch,
            self.reconfig_pending(),
            self.parked_publishes(),
            buffered,
            self.front.deliveries_seen(),
        );
        for idx in 0..self.topo.num_nodes {
            let state = if self.children.contains_key(&idx) {
                "up"
            } else {
                "down"
            };
            match self.telemetry.get(&idx) {
                Some(t) => line.push_str(&format!(
                    " node{idx}={state}:inc{}:staged={}:processed={}",
                    t.incarnation, t.staged_frames, t.frames_processed
                )),
                None => line.push_str(&format!(" node{idx}={state}:no-telemetry")),
            }
        }
        line
    }

    /// Aggregated statistics: counters accumulated by earlier epochs plus
    /// the coordinator's own link-engine counters plus every stats reply
    /// received from node processes. Complete after
    /// [`shutdown`](Self::shutdown).
    pub fn stats(&self) -> DeployStats {
        let mut stats = self.prior_stats.clone();
        stats.recovery.crashes += self.crashes;
        let engines = self.hosts.values().map(HostMachine::engine);
        for engine in engines.chain(std::iter::once(&self.publisher)) {
            let links = engine.counters();
            stats.frames_sent += links.frames_sent;
            stats.frames_dropped += links.frames_dropped;
            stats.retransmissions += links.retransmissions;
            stats.duplicates += links.duplicates;
            for (&size, &count) in engine.batch_sizes() {
                *stats.batch_sizes.entry(size).or_insert(0) += count;
            }
        }
        for node in self.node_stats.values() {
            stats.frames_sent += node.frames_sent;
            stats.frames_dropped += node.frames_dropped;
            stats.retransmissions += node.retransmissions;
            stats.duplicates += node.duplicates;
            stats.heartbeat_misses += node.heartbeat_misses;
            stats.recovery.frames_replayed += node.frames_replayed;
            stats.recovery.recovery_micros += node.recovery_micros;
            stats.snapshots += node.snapshots;
            for (&size, &count) in &node.batch_sizes {
                *stats.batch_sizes.entry(size).or_insert(0) += count;
            }
        }
        stats
    }

    /// Wire-write size histogram, the socket twin of the runtime's
    /// `batch_size_counts`. Complete after [`shutdown`](Self::shutdown).
    pub fn batch_size_counts(&self) -> BTreeMap<usize, u64> {
        self.stats().batch_sizes
    }

    /// The sum of every node's live telemetry as one registry, each
    /// family labelled with the current configuration epoch. This is
    /// exactly the node-scoped (`node_*`) portion of
    /// [`prometheus_text`](Self::prometheus_text), exposed separately so
    /// tests can verify the merge is a plain sum of [`node_registry`]
    /// outputs over the same telemetry snapshot.
    pub fn merged_node_registry(&self) -> Registry {
        let mut merged = Registry::new();
        for telemetry in self.telemetry.values() {
            merged.merge(&node_registry(telemetry, Some(self.spec.epoch)));
        }
        merged
    }

    /// Prometheus text exposition of the whole deployment: the merged
    /// epoch-labelled per-node telemetry
    /// ([`merged_node_registry`](Self::merged_node_registry)) plus the
    /// coordinator's own end-of-run aggregates and publish counters.
    pub fn prometheus_text(&self) -> String {
        let stats = self.stats();
        let mut reg = self.merged_node_registry();
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
        reg.inc("snapshots_total", None, stats.snapshots);
        prom::exposition(&reg, "seqnet_deploy", node_or_group_label)
    }
}

/// Label key for the deployment exposition: node-telemetry families carry
/// the configuration epoch, everything else keeps the legacy group label.
fn node_or_group_label(family: &'static str) -> &'static str {
    if family.starts_with("node_") {
        "epoch"
    } else {
        "group"
    }
}

/// One node's live telemetry snapshot as a metrics registry, every family
/// labelled `label` (the configuration epoch in the merged exposition).
/// The coordinator's cluster-wide registry is the [`Registry::merge`] of
/// these over all nodes — counters add, histograms add bucket-wise — so a
/// test can recompute the merge independently from the same snapshots.
pub fn node_registry(telemetry: &NodeTelemetry, label: Option<u64>) -> Registry {
    let mut reg = Registry::new();
    let s = &telemetry.stats;
    reg.inc("node_duplicate_frames_total", label, s.duplicates);
    reg.inc("node_frames_dropped_total", label, s.frames_dropped);
    reg.inc("node_frames_processed_total", label, telemetry.frames_processed);
    reg.inc("node_frames_replayed_total", label, s.frames_replayed);
    reg.inc("node_frames_sent_total", label, s.frames_sent);
    reg.inc("node_heartbeat_misses_total", label, s.heartbeat_misses);
    reg.inc("node_obs_dropped_events_total", label, telemetry.obs_dropped);
    reg.inc("node_recovery_micros_total", label, s.recovery_micros);
    reg.inc("node_retransmissions_total", label, s.retransmissions);
    reg.inc("node_snapshots_total", label, s.snapshots);
    reg.inc("node_staged_frames", label, telemetry.staged_frames);
    let batches = reg.histogram("node_batch_frames", label);
    for (&size, &count) in &s.batch_sizes {
        batches.record_n(size as u64, count);
    }
    reg
}

impl Drop for DeployCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqnet_core::proto::Frame;

    #[test]
    fn publish_only_queues_until_the_backlog_passes_its_bound() {
        let membership = Membership::from_groups([
            (GroupId(0), vec![NodeId(0), NodeId(1), NodeId(2)]),
            (GroupId(1), vec![NodeId(1), NodeId(2), NodeId(3)]),
        ]);
        // Children that exit at once; this test stands in for the node
        // processes with listeners that accept and never read.
        let mut cluster = DeployCluster::start_with_binary(
            &membership,
            ClusterConfig::default(),
            Some(PathBuf::from("/bin/true")),
        )
        .expect("coordinator starts");
        let listeners: Vec<_> = cluster
            .spec
            .ports
            .iter()
            .map(|&port| crate::sys::listen_reuseaddr(port).expect("the reserved port is free"))
            .collect();
        cluster.pump();
        let _far_ends: Vec<_> = listeners
            .iter()
            .map(|l| l.accept().expect("the coordinator dialed"))
            .collect();

        let ingress = cluster
            .topo
            .graph
            .ingress(GroupId(0))
            .expect("g0 has a path");
        let ingress = Proc::Node(cluster.topo.atom_node[&ingress]);
        let backlog = |cluster: &mut DeployCluster| {
            cluster.net.conn_mut(ingress).expect("connected").backlog()
        };
        assert_eq!(backlog(&mut cluster), 0, "the handshake was flushed");

        let publish = |cluster: &mut DeployCluster| {
            cluster
                .publish(NodeId(0), GroupId(0), vec![7u8; 1024])
                .expect("g0 exists");
        };
        publish(&mut cluster);
        let frame = backlog(&mut cluster);
        assert!(frame > 1024, "one publish, one queued frame: {frame} B");
        // Up to the bound nothing is written: the backlog is exactly what
        // was published.
        let below = PUBLISH_BACKLOG / frame;
        for published in 2..=below {
            publish(&mut cluster);
            assert_eq!(backlog(&mut cluster), published * frame);
        }
        // Past it the bytes move, and never more than the bound plus the
        // frame that crossed it stays behind.
        let mut written = false;
        for _ in 0..4 * below {
            publish(&mut cluster);
            let queued = backlog(&mut cluster);
            assert!(queued <= PUBLISH_BACKLOG + frame, "{queued} B queued");
            written |= queued <= frame;
        }
        assert!(written, "crossing the bound wrote the backlog out");
        // Nobody will answer a Shutdown: skip the wait for stats.
        for node in 0..cluster.num_sequencing_nodes() {
            cluster.kill_node(node);
        }
    }

    #[test]
    fn hostile_link_frames_are_discarded_by_the_coordinator() {
        let membership = Membership::from_groups([
            (GroupId(0), vec![NodeId(0), NodeId(1), NodeId(2)]),
            (GroupId(1), vec![NodeId(1), NodeId(2), NodeId(3)]),
        ]);
        // Children that exit at once: this test drives the coordinator's
        // frame handler directly and needs no node process.
        let mut cluster = DeployCluster::start_with_binary(
            &membership,
            ClusterConfig::default(),
            Some(PathBuf::from("/bin/true")),
        )
        .expect("coordinator starts");
        for node in 0..cluster.num_sequencing_nodes() {
            cluster.kill_node(node);
        }

        let (host_link, host) = cluster
            .topo
            .links
            .iter()
            .enumerate()
            .find_map(|(i, &(_, to))| match to {
                Peer::Host(h) => Some((i as u32, h)),
                _ => None,
            })
            .expect("a node→host link");
        let publisher_link = cluster
            .topo
            .links
            .iter()
            .position(|&(from, _)| from == Peer::Publisher)
            .expect("a publisher link") as u32;
        let group = cluster
            .topo
            .membership
            .groups_of(host)
            .next()
            .expect("hosts subscribe");
        let sequenced = |id: u64| {
            let mut msg = Message::new(MessageId(id), host, group, Vec::new());
            let mut protocol = seqnet_core::ProtocolState::new(&cluster.topo.graph);
            protocol.sequence_fully(&cluster.topo.graph, &mut msg);
            Frame {
                msg,
                target_atom: None,
            }
        };
        let first = sequenced(1);

        let links = cluster.topo.links.len() as u32;
        cluster.on_link(links, 1, WireBody::Data(first.clone()));
        cluster.on_link(u32::MAX, 1, WireBody::DataBatch(vec![first.clone()]));
        cluster.on_link(u32::MAX, 9, WireBody::AckThrough);
        // Data against the direction of a publisher link would address a
        // sequencing node, which does not live in this process.
        cluster.on_link(publisher_link, 1, WireBody::Data(first.clone()));
        cluster.on_link(
            host_link,
            u64::MAX,
            WireBody::DataBatch(vec![first.clone(), first.clone()]),
        );
        assert!(cluster.deliveries.is_empty(), "nothing was accepted");

        cluster.on_link(host_link, 1, WireBody::Data(first));
        assert_eq!(cluster.deliveries.len(), 1, "real traffic still flows");
        assert_eq!(cluster.deliveries[0].0, host);
    }
}
