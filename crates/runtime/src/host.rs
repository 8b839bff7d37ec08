//! The subscriber-host step: everything one subscriber host does between
//! its transport's arrivals and the application's deliveries.
//!
//! [`HostMachine`] owns the host's [`LinkEngine`] — its end of the
//! node→host links — and its [`ReceiverCore`], and like
//! [`NodeMachine`](crate::NodeMachine) performs no I/O. Hosts never crash,
//! so there is no checkpoint and no group-commit: every data frame is
//! acknowledged at once and every message the receiver core releases is
//! handed to the shell's `deliver` callback in delivery order. The
//! threaded runtime's host thread and the socket coordinator's host ends
//! are two shells around this one machine; they differ in how they wait
//! and in where a delivery goes.

use crate::cluster::ClusterConfig;
use crate::engine::{LinkBody, LinkEngine, Transmission};
use crate::topo::Topology;
use seqnet_core::proto::trace::TraceSink;
use seqnet_core::proto::{Command, CommandBuf, Event, Frame, Peer, ReceiverCore};
use seqnet_core::Message;
use seqnet_membership::NodeId;

/// One subscriber host, sans I/O. See the module docs.
#[derive(Debug)]
pub struct HostMachine {
    engine: LinkEngine,
    receiver: ReceiverCore,
    /// Reused across calls: the in-order hot path allocates nothing
    /// between wire arrival and the delivery callback.
    cmdbuf: CommandBuf,
    frames: Vec<Frame>,
}

impl HostMachine {
    /// Subscriber `host` of `topo`, expecting every group it subscribes
    /// to from the first sequence number.
    pub fn new(host: NodeId, topo: &Topology, config: &ClusterConfig) -> Self {
        HostMachine {
            engine: LinkEngine::new(Peer::Host(host), false, config),
            receiver: ReceiverCore::new(host, &topo.membership, &topo.graph),
            cmdbuf: CommandBuf::new(),
            frames: Vec::new(),
        }
    }

    /// One link frame off the transport: runs it through the link engine
    /// (which acknowledges it), feeds what the engine releases to the
    /// receiver core, and hands every message the core delivers to
    /// `deliver`. `sink` is called — once, and only if the engine released
    /// something — for the trace sink the core reports to, so a shell
    /// whose sink sits behind a lock or a clock read pays for neither on
    /// acks, heartbeats, duplicates and out-of-order frames; the sink is
    /// dropped before the first delivery. A frame on an unknown link, or
    /// not addressed to this host, is discarded.
    pub fn on_link<S: TraceSink>(
        &mut self,
        topo: &Topology,
        link: u32,
        seq: u64,
        body: LinkBody,
        sink: impl FnOnce() -> S,
        mut deliver: impl FnMut(NodeId, Message),
    ) {
        if self.engine.on_link(topo, link, seq, body, &mut self.frames) == 0 {
            return;
        }
        let mut sink = sink();
        for frame in self.frames.drain(..) {
            self.receiver
                .on_event_into(Event::FrameArrived { frame }, &mut sink, &mut self.cmdbuf);
        }
        drop(sink);
        for cmd in self.cmdbuf.drain() {
            match cmd {
                Command::Deliver { host, msg } => deliver(host, msg),
                other => unreachable!("receivers only deliver: {other:?}"),
            }
        }
    }

    /// Retransmits overdue frames; see [`LinkEngine::retransmit_due`].
    pub fn retransmit_due(&mut self, topo: &Topology) {
        self.engine.retransmit_due(topo);
    }

    /// Drains the pending transmissions — the acks — for the shell to
    /// route.
    pub fn drain_outbox(&mut self) -> std::vec::Drain<'_, Transmission> {
        self.engine.drain_outbox()
    }

    /// The host's link engine, read-only: its counters and wire-size
    /// tally.
    pub fn engine(&self) -> &LinkEngine {
        &self.engine
    }

    /// The host's receiver core, read-only: its delivery queue.
    pub fn receiver(&self) -> &ReceiverCore {
        &self.receiver
    }
}
