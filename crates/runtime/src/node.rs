//! The sequencing-node step: everything one sequencing node does between
//! its transport's arrivals and its transport's departures.
//!
//! [`NodeMachine`] owns the node's protocol core, its counters, its
//! [`LinkEngine`], and the bookkeeping around them — group-commit,
//! heartbeat-based suspicion, replay accounting — and, like the cores it
//! wraps, performs no I/O. A shell's whole job is to feed it arrivals
//! ([`on_link`](NodeMachine::on_link)), persist a checkpoint when asked
//! ([`snapshot`](NodeMachine::snapshot)), let it keep time
//! ([`tick`](NodeMachine::tick)), and route its outbox
//! ([`drain_outbox`](NodeMachine::drain_outbox)). The threaded runtime's
//! node thread and the socket deployment's node process are two such
//! shells around this one machine.
//!
//! The group-commit rule — *nothing escapes a node before a snapshot
//! containing it* — is enforced here, not by the shells: output frames are
//! staged in the link senders' retransmission buffers but withheld from
//! the outbox, and acknowledgments to upstream peers are deferred, until
//! the shell's `persist` callback has reported the checkpoint stored. A
//! restarted node therefore resumes from its last checkpoint, and
//! everything it processed after that checkpoint is replayed to it from
//! upstream retransmission buffers — the paper's §3.1 output buffers
//! double as the recovery log.

use crate::cluster::ClusterConfig;
use crate::engine::{LinkBody, LinkEngine, LinkSnapshot, Transmission, UnknownLink};
use crate::topo::Topology;
use seqnet_core::proto::trace::{Actor, EventKind, TraceEvent, TraceSink};
use seqnet_core::proto::{
    Command, CommandBuf, Event, Frame, NodeCore, Peer, ProtocolState, RecoveryStats,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What a sequencing node has done so far, beyond its link counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Peer-failure detections: transitions of a watched peer from
    /// healthy to suspected.
    pub heartbeat_misses: u64,
    /// Data frames replayed to this (restarted) node from upstream
    /// retransmission buffers before its recovery completed.
    pub frames_replayed: u64,
    /// Recovery latency: start to the first checkpoint that re-durably
    /// records replayed input, in microseconds.
    pub recovery_micros: u64,
    /// Checkpoints persisted.
    pub snapshots: u64,
    /// Protocol frames fed through the core.
    pub frames_processed: u64,
}

/// One sequencing node, sans I/O. See the module docs.
#[derive(Debug)]
pub struct NodeMachine {
    idx: usize,
    core: NodeCore,
    protocol: ProtocolState,
    engine: LinkEngine,
    /// Reused across calls, so after warm-up the per-frame path allocates
    /// nothing.
    cmdbuf: CommandBuf,
    frames: Vec<Frame>,
    /// Checkpoint scratch handed to the shell's `persist` callback.
    links: LinkSnapshot,
    /// Upstream sequencing nodes (peers with a link into this node): when
    /// each was last heard from, and whether it is currently suspected.
    watched: BTreeMap<usize, (Instant, bool)>,
    /// Outgoing node links this node heartbeats on.
    hb_out: Vec<(Peer, u32)>,
    newly_suspected: Vec<usize>,
    heartbeat_interval: Duration,
    /// Silence after which a watched peer is suspected.
    suspect_after: Duration,
    started: Instant,
    last_heartbeat: Instant,
    /// Whether anything checkpoint-worthy happened since the last
    /// checkpoint; an idle node re-persisting identical state buys nothing.
    dirty: bool,
    /// A restarted node counts the input replayed to it until its first
    /// checkpoint makes that input durable again.
    replaying: bool,
    replayed: u64,
    counters: NodeCounters,
}

impl NodeMachine {
    /// Sequencing node `idx` of `topo`, stamping messages with
    /// configuration epoch `epoch`. `restarted` marks a post-crash
    /// incarnation, which accounts the replay it receives; its shell
    /// follows up with [`restore`](Self::restore) if it finds a
    /// checkpoint. Without one nothing ever escaped the node (outputs and
    /// acks only leave at checkpoint time), so a fresh start is
    /// consistent.
    pub fn new(
        idx: usize,
        topo: &Topology,
        config: &ClusterConfig,
        epoch: u64,
        restarted: bool,
    ) -> Self {
        let mut protocol = ProtocolState::new(&topo.graph);
        protocol.set_epoch(epoch);
        let now = Instant::now();
        let (watched, hb_out) = topo.heartbeat_plan(idx);
        NodeMachine {
            idx,
            // Group-commit mode: the core *stages* every output frame.
            core: NodeCore::new(idx, true),
            protocol,
            engine: LinkEngine::new(Peer::Node(idx), true, config),
            cmdbuf: CommandBuf::new(),
            frames: Vec::new(),
            links: LinkSnapshot::default(),
            watched: watched.into_iter().map(|p| (p, (now, false))).collect(),
            hb_out,
            newly_suspected: Vec::new(),
            heartbeat_interval: config.heartbeat_interval,
            suspect_after: config.heartbeat_interval * config.heartbeat_miss_threshold,
            started: now,
            last_heartbeat: now,
            dirty: false,
            replaying: restarted,
            replayed: 0,
            counters: NodeCounters::default(),
        }
    }

    /// Resumes from a checkpoint: the protocol counters, both halves of
    /// every link, and the core's ack floors (seeded to what the
    /// checkpoint had advertised, so the next one only acks real
    /// progress).
    ///
    /// # Errors
    ///
    /// [`UnknownLink`] — and no state change — if `links` names a link
    /// this node does not terminate; see [`LinkEngine::restore_links`].
    pub fn restore(
        &mut self,
        topo: &Topology,
        protocol: ProtocolState,
        links: &LinkSnapshot,
    ) -> Result<(), UnknownLink> {
        self.engine.restore_links(topo, links)?;
        self.protocol = protocol;
        for &(link, next) in &links.rx_next {
            let (from, _) = topo.links[link as usize];
            self.core.restore_floor(from, next.saturating_sub(1));
        }
        Ok(())
    }

    /// One link frame off the transport: refreshes the sender's watch
    /// entry, runs the frame through the link engine, feeds what it
    /// releases to the protocol core, and stages the core's output. A
    /// frame on an unknown link, or not addressed to this node, is
    /// discarded.
    pub fn on_link<S: TraceSink + ?Sized>(
        &mut self,
        topo: &Topology,
        link: u32,
        seq: u64,
        body: LinkBody,
        sink: &mut S,
    ) {
        let Some((sender, addressee)) = body.endpoints(topo, link) else {
            return;
        };
        if addressee != self.engine.me() {
            return;
        }
        if let Peer::Node(p) = sender {
            if let Some(entry) = self.watched.get_mut(&p) {
                *entry = (Instant::now(), false);
            }
        }
        self.frames.clear();
        let released = self.engine.on_link(topo, link, seq, body, &mut self.frames) as u64;
        if released == 0 {
            return;
        }
        self.dirty = true;
        if self.replaying {
            self.replayed += released;
        }
        self.counters.frames_processed += released;
        let routing = topo.routing();
        for frame in self.frames.drain(..) {
            self.core.on_event_into(
                &routing,
                &mut self.protocol,
                Event::FrameArrived { frame },
                sink,
                &mut self.cmdbuf,
            );
        }
        for cmd in self.cmdbuf.drain() {
            match cmd {
                Command::Stage { to, frame } => self.engine.send_data_held(topo, to, frame),
                other => unreachable!("group-commit frames only stage: {other:?}"),
            }
        }
    }

    /// The group-commit step. When there is something to commit — input
    /// was released or output is staged since the last checkpoint — hands
    /// `persist` the state to store: the protocol counters and the link
    /// snapshot. Only its `Ok` lets the staged frames and the cumulative
    /// acks into the outbox; on `Err` nothing is released, the machine
    /// stays due, and the error is returned. Returns whether a checkpoint
    /// was taken.
    ///
    /// There is no timer: a shell calls this after every batch of
    /// arrivals, so a checkpoint covers whatever arrived while the
    /// previous pass ran — the batch grows with the load and shrinks to
    /// one frame on an idle node — and a node nothing reached persists
    /// nothing.
    ///
    /// The link snapshot is this machine's scratch: `persist` may read it,
    /// or swap it for a previous checkpoint's buffers to keep the new one
    /// without copying; its contents after the call are not used.
    ///
    /// # Errors
    ///
    /// Whatever `persist` returned.
    pub fn snapshot<S: TraceSink + ?Sized, E>(
        &mut self,
        topo: &Topology,
        sink: &mut S,
        persist: impl FnOnce(&ProtocolState, &mut LinkSnapshot) -> Result<(), E>,
    ) -> Result<bool, E> {
        if !self.commit_due() {
            return Ok(false);
        }
        let rx_next = self.engine.rx_next_by_peer(topo);
        self.engine.snapshot_links_into(&mut self.links);
        persist(&self.protocol, &mut self.links)?;
        self.counters.snapshots += 1;
        let staged_frames = self.engine.staged_len() as u64;
        self.core.on_event_into(
            &topo.routing(),
            &mut self.protocol,
            Event::SnapshotTaken { rx_next },
            sink,
            &mut self.cmdbuf,
        );
        for cmd in self.cmdbuf.drain() {
            match cmd {
                Command::Flush => {
                    sink.record(lifecycle(EventKind::SnapshotFlush, self.idx, staged_frames));
                    self.engine.flush_staged(topo);
                }
                Command::Ack { to, through } => self.engine.send_ack_through(topo, to, through),
                other => unreachable!("snapshots only flush and ack: {other:?}"),
            }
        }
        self.dirty = false;
        if self.replaying && self.replayed > 0 {
            // Recovery complete: the replayed input is durable again.
            self.replaying = false;
            self.counters.frames_replayed += self.replayed;
            self.counters.recovery_micros += self.started.elapsed().as_micros() as u64;
            sink.record(lifecycle(EventKind::Replay, self.idx, self.replayed));
            self.replayed = 0;
        }
        Ok(true)
    }

    /// Timekeeping: heartbeats the downstream node links every
    /// `heartbeat_interval`, suspects watched peers silent for
    /// `heartbeat_interval * heartbeat_miss_threshold`, and retransmits
    /// overdue frames. Returns the peers that just became suspected, so a
    /// shell whose transport can be torn down does so.
    pub fn tick<S: TraceSink + ?Sized>(
        &mut self,
        topo: &Topology,
        now: Instant,
        sink: &mut S,
    ) -> &[usize] {
        if now.duration_since(self.last_heartbeat) >= self.heartbeat_interval {
            for &(to, link) in &self.hb_out {
                self.engine.heartbeat(to, link);
            }
            self.last_heartbeat = now;
        }
        self.newly_suspected.clear();
        for (&peer, (seen, suspected)) in &mut self.watched {
            if !*suspected && now.duration_since(*seen) >= self.suspect_after {
                *suspected = true;
                self.counters.heartbeat_misses += 1;
                sink.record(lifecycle(EventKind::HeartbeatMiss, self.idx, peer as u64));
                self.newly_suspected.push(peer);
            }
        }
        self.engine.retransmit_due(topo);
        &self.newly_suspected
    }

    /// Whether [`snapshot`](Self::snapshot) has something to commit:
    /// input released since the last checkpoint, or output still staged.
    /// Acks and heartbeats alone change nothing a checkpoint records.
    fn commit_due(&self) -> bool {
        self.dirty || self.engine.staged_len() > 0
    }

    /// The earliest instant at which [`snapshot`](Self::snapshot) or
    /// [`tick`](Self::tick) will have something to do without a new
    /// arrival: now, while there is something to commit; otherwise the
    /// next heartbeat, the first watched peer to fall silent for too
    /// long, the earliest retransmission. `None` for a node with none of
    /// these — nothing to commit, no node links, nothing unacknowledged.
    /// A shell that blocks on its transport wakes no later than this, so
    /// what a node does and when does not depend on how often the shell
    /// looks.
    pub fn next_deadline(&self) -> Option<Instant> {
        let commit = self.commit_due().then(Instant::now);
        let heartbeat =
            (!self.hb_out.is_empty()).then(|| self.last_heartbeat + self.heartbeat_interval);
        let suspicion = self
            .watched
            .values()
            .filter(|&&(_, suspected)| !suspected)
            .map(|&(seen, _)| seen + self.suspect_after)
            .min();
        [commit, heartbeat, suspicion, self.engine.next_deadline()]
            .into_iter()
            .flatten()
            .min()
    }

    /// Drains the pending transmissions for the shell to route.
    pub fn drain_outbox(&mut self) -> std::vec::Drain<'_, Transmission> {
        self.engine.drain_outbox()
    }

    /// Replays, once per connection `epoch`, what the node still owes the
    /// parties `reconnected` selects — for a shell whose transport to
    /// them was re-established; see [`LinkEngine::reconnect_replay_to`].
    pub fn reconnect_replay_to(
        &mut self,
        topo: &Topology,
        epoch: u64,
        reconnected: impl Fn(Peer) -> bool,
    ) {
        self.engine.reconnect_replay_to(topo, epoch, reconnected);
    }

    /// The node's link engine, read-only: its counters, wire-size tally
    /// and staged-frame count. Everything that makes it transmit goes
    /// through this machine, so no shell can flush around a checkpoint.
    pub fn engine(&self) -> &LinkEngine {
        &self.engine
    }

    /// The node-level counters; `frames_replayed` includes a replay still
    /// in progress.
    pub fn counters(&self) -> NodeCounters {
        NodeCounters {
            frames_replayed: self.counters.frames_replayed + self.replayed,
            ..self.counters
        }
    }

    /// Crash-recovery counters in the shape shared with the simulator:
    /// the core's park/replay counters plus this machine's measured
    /// replay and recovery latency.
    pub fn recovery_stats(&self) -> RecoveryStats {
        let counters = self.counters();
        let mut stats = *self.core.recovery_stats();
        stats.frames_replayed += counters.frames_replayed;
        stats.recovery_micros += counters.recovery_micros;
        stats
    }
}

/// A node lifecycle event (`SnapshotFlush`, `Replay`, `HeartbeatMiss`).
/// Recorded unconditionally — they are rare, and a sink that wants none
/// (`NullSink`, `None`) drops them; only per-message events are guarded
/// by `TraceSink::enabled`.
fn lifecycle(kind: EventKind, idx: usize, detail: u64) -> TraceEvent {
    TraceEvent {
        detail: Some(detail),
        ..TraceEvent::new(kind, Actor::Node(idx as u64))
    }
}
