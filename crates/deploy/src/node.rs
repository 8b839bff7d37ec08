//! The sequencing-node child process.
//!
//! `run_node` is the entire life of one node process, and the socket shell
//! around one [`NodeMachine`]: it re-derives the topology from the spec,
//! restores its last disk snapshot (if any), listens for the coordinator
//! and lower-index peers, dials higher-index peers, and then loops —
//! frames off the connections into the machine, a checkpoint written to
//! its store whenever that left the machine something to commit, the
//! machine's outbox onto the connections, then asleep until a socket is
//! ready or the machine's next deadline has come. Group-commit, failure
//! detection and replay accounting are the machine's, shared with the
//! threaded runtime's node thread. SIGKILL can land anywhere in this loop; correctness rests
//! solely on the snapshot discipline, never on a clean shutdown path.

use crate::conn::{Conn, Peers};
use crate::snapshot::{CheckpointStore, DiskSnapshot};
use crate::spec::ClusterSpec;
use crate::sys::PollFd;
use crate::topo::{Proc, Topology};
use crate::wire::{NodeTelemetry, NodeWireStats, WireMsg};
use seqnet_core::proto::trace::{Actor, EventKind, TraceEvent, TraceSink};
use seqnet_core::proto::{Peer, ProtocolState};
use seqnet_runtime::NodeMachine;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Wall-clock microseconds since the UNIX epoch — the shared timebase of
/// every process's trace, so spans can be joined across node logs and the
/// coordinator's log without a distributed clock protocol. Skew between
/// processes on one machine is bounded by the kernel clock; the span
/// reconstructor clamps components to non-negative to absorb it.
pub(crate) fn unix_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Incremental observability log: one JSONL line per protocol event,
/// flushed immediately so the record survives a SIGKILL mid-run.
///
/// This is the node's [`TraceSink`], stamping every event with the wall
/// clock as it is written. The node machine records its lifecycle events
/// (`Replay`, `SnapshotFlush`, `HeartbeatMiss`) unconditionally, so those
/// (and this shell's `Crash`) are always in the file; the protocol core's
/// per-message events (`AtomStamp`, `FrameForward`) are guarded by
/// [`TraceSink::enabled`], which reports `config.trace`. Write failures
/// are never silently ignored — they bump [`ObsLog::dropped`], which the
/// telemetry reply reports upstream.
#[derive(Debug)]
struct ObsLog {
    file: Option<std::fs::File>,
    msg_trace: bool,
    dropped: u64,
}

impl ObsLog {
    fn open(path: &Path, msg_trace: bool) -> Self {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .ok();
        ObsLog {
            file,
            msg_trace,
            dropped: 0,
        }
    }

    /// Events lost to open/write failures since startup.
    fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for ObsLog {
    fn enabled(&self) -> bool {
        self.msg_trace
    }

    fn record(&mut self, mut event: TraceEvent) {
        event.at = unix_micros();
        let Some(file) = &mut self.file else {
            self.dropped += 1;
            return;
        };
        let ok = file
            .write_all(seqnet_obs::jsonl::to_jsonl(&event).as_bytes())
            .and_then(|()| file.write_all(b"\n"))
            .and_then(|()| file.flush());
        if ok.is_err() {
            self.dropped += 1;
        }
    }
}

/// What the control messages of one poll round asked for, and over which
/// connection to answer.
#[derive(Debug, Default)]
struct Control {
    shutdown_via: Option<Proc>,
    telemetry_via: Option<Proc>,
}

/// Feeds one wire message to the node machine (or notes a control
/// request). Link frames are handed over as they came off the wire: the
/// machine discards what is not addressed to it.
fn handle_msg(
    msg: WireMsg,
    from: Proc,
    topo: &Topology,
    node: &mut NodeMachine,
    obs: &mut ObsLog,
    control: &mut Control,
) {
    match msg {
        WireMsg::Hello { .. } | WireMsg::Stats(_) | WireMsg::Telemetry(_) => {}
        WireMsg::Shutdown => control.shutdown_via = Some(from),
        WireMsg::TelemetryRequest => control.telemetry_via = Some(from),
        WireMsg::Link { link, seq, body } => node.on_link(topo, link, seq, body, obs),
    }
}

/// The node's counters in wire shape, for the telemetry and shutdown
/// replies; read here, not maintained per frame.
fn wire_stats(node: &NodeMachine) -> NodeWireStats {
    let (links, counters) = (node.engine().counters(), node.counters());
    NodeWireStats {
        frames_sent: links.frames_sent,
        frames_dropped: links.frames_dropped,
        retransmissions: links.retransmissions,
        duplicates: links.duplicates,
        heartbeat_misses: counters.heartbeat_misses,
        frames_replayed: counters.frames_replayed,
        recovery_micros: counters.recovery_micros,
        snapshots: counters.snapshots,
        batch_sizes: node.engine().batch_sizes().clone(),
    }
}

/// Runs sequencing node `idx` to completion: until a `Shutdown` frame
/// arrives (clean exit, stats reply) or the process is killed.
///
/// # Errors
///
/// Returns the I/O failure that made the node unable to run: listener
/// bind, snapshot store, or (`InvalidData`) a snapshot naming links this
/// node does not terminate.
pub fn run_node(spec: &ClusterSpec, idx: usize, incarnation: u64) -> io::Result<()> {
    let config = &spec.config;
    let topo = Topology::derive(&spec.membership, config.seed);
    let mut obs = ObsLog::open(&spec.dir.join(format!("node{idx}.obs.jsonl")), config.trace);
    let restarted = incarnation > 0;
    let mut node = NodeMachine::new(idx, &topo, config, spec.epoch, restarted);
    let (mut store, checkpoint) = CheckpointStore::open(&spec.dir, idx, spec.epoch)?;

    // Without a checkpoint nothing ever escaped the node: a fresh start.
    if let (true, Some(snap)) = (restarted, checkpoint) {
        let mut protocol =
            ProtocolState::import_counters(&topo.graph, &snap.overlaps, &snap.groups);
        protocol.set_epoch(spec.epoch);
        node.restore(&topo, protocol, &snap.links)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        obs.record(TraceEvent {
            detail: Some(incarnation),
            ..TraceEvent::new(EventKind::Crash, Actor::Node(idx as u64))
        });
    }

    // The coordinator holds the port reserved, so nobody else has it; a
    // killed incarnation's listener died with its process.
    let listener = crate::sys::listen_reuseaddr(spec.ports[idx])?;
    listener.set_nonblocking(true)?;
    // Every process this node may hold a connection to. Dialing rule:
    // node i dials node j iff i < j (so each process pair has exactly one
    // connection) and the coordinator dials every node — so a node dials
    // its higher-index peers and accepts everyone else.
    let peers = topo.node_peers(idx);
    let dials = peers
        .iter()
        .filter(|&&j| j > idx)
        .map(|&j| (Proc::Node(j), spec.node_addr(j)))
        .collect();
    let procs: Vec<Proc> = std::iter::once(Proc::Coordinator)
        .chain(peers.into_iter().map(Proc::Node))
        .collect();
    let hello = WireMsg::Hello {
        party: Peer::Node(idx),
        incarnation,
    };
    let mut net = Peers::new(hello, dials, config.backoff_cap);
    // Accepted connections become routable once they say Hello.
    let mut pending: Vec<Conn> = Vec::new();
    // Reused across poll iterations so a quiet poll allocates nothing.
    let mut msgs: Vec<WireMsg> = Vec::new();

    loop {
        while let Ok((stream, _)) = listener.accept() {
            pending.extend(Conn::new(stream));
        }

        // A fresh connection is owed, once for its epoch, what the node
        // still holds for the parties behind it.
        net.poll_dials(|proc, epoch, _| {
            node.reconnect_replay_to(&topo, epoch, |to| Proc::owner(to) == proc);
        });

        let mut control = Control::default();

        // Promote pending connections on their Hello; anything else as a
        // first message (or a read error) discards the connection.
        let mut i = 0;
        while i < pending.len() {
            msgs.clear();
            match pending[i].poll_read_into(&mut msgs) {
                Ok(0) => i += 1,
                Ok(_) => {
                    let conn = pending.swap_remove(i);
                    let mut rest = msgs.drain(..);
                    if let Some(WireMsg::Hello { party, .. }) = rest.next() {
                        let proc = Proc::owner(party);
                        let epoch = net.connected(proc, conn);
                        node.reconnect_replay_to(&topo, epoch, |to| Proc::owner(to) == proc);
                        for msg in rest {
                            handle_msg(msg, proc, &topo, &mut node, &mut obs, &mut control);
                        }
                    }
                }
                Err(_) => {
                    pending.swap_remove(i);
                }
            }
        }

        // Drain every established connection.
        for &proc in &procs {
            net.read_into(proc, &mut msgs);
            for msg in msgs.drain(..) {
                handle_msg(msg, proc, &topo, &mut node, &mut obs, &mut control);
            }
        }
        if let Some(via) = control.telemetry_via {
            // A live snapshot of this node's counters, replied over the
            // control connection that asked.
            let telemetry = NodeTelemetry {
                incarnation,
                epoch: spec.epoch,
                staged_frames: node.engine().staged_len() as u64,
                frames_processed: node.counters().frames_processed,
                obs_dropped: obs.dropped(),
                stats: wire_stats(&node),
            };
            if let Some(conn) = net.conn_mut(via) {
                conn.queue(&WireMsg::Telemetry(telemetry));
            }
        }
        if let Some(via) = control.shutdown_via {
            // Reply with the node's counters, then drain the socket: the
            // wait wakes when the kernel can take more of the backlog, and
            // a failed write drops the connection, which ends the drain.
            if let Some(conn) = net.conn_mut(via) {
                conn.queue(&WireMsg::Stats(wire_stats(&node)));
            }
            let deadline = Instant::now() + Duration::from_secs(2);
            loop {
                net.flush();
                let unsent = net.conn_mut(via).map_or(0, |conn| conn.backlog());
                if unsent == 0 || Instant::now() >= deadline {
                    return Ok(());
                }
                net.wait([], Some(deadline));
            }
        }

        // Everything this pass read is fed: commit it. The machine
        // releases staged frames and acks only after the store's write has
        // returned.
        node.snapshot(&topo, &mut obs, |protocol, link_state| {
            let (overlaps, groups) = protocol.export_counters();
            let snap = DiskSnapshot {
                epoch: spec.epoch,
                overlaps,
                groups,
                links: std::mem::take(link_state),
            };
            let stored = store.commit(&snap);
            *link_state = snap.links;
            stored
        })?;
        for &peer in node.tick(&topo, Instant::now(), &mut obs) {
            // Tear the connection down so reconnect (with its replay)
            // rather than a half-dead socket carries the recovery.
            net.drop_conn(Proc::Node(peer));
        }

        node.drain_outbox().for_each(|t| net.route(t));
        net.flush();

        let sockets = std::iter::once(PollFd::new(&listener, false))
            .chain(pending.iter().map(|conn| conn.poll_fd()));
        net.wait(sockets, node.next_deadline());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireBody;
    use seqnet_core::proto::Frame;
    use seqnet_core::{Message, MessageId};
    use seqnet_membership::{GroupId, Membership, NodeId};
    use seqnet_runtime::ClusterConfig;
    use std::net::TcpListener;

    /// A connected, non-blocking `Conn` pair over loopback.
    fn conn_pair() -> (Conn, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let near =
            std::net::TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (far, _) = listener.accept().expect("accept");
        (
            Conn::new(near).expect("conn"),
            Conn::new(far).expect("conn"),
        )
    }

    /// Everything `peer` queued, read off `conn` and fed to the handler.
    fn pump_into_handler(
        peer: &mut Conn,
        conn: &mut Conn,
        topo: &Topology,
        node: &mut NodeMachine,
        obs: &mut ObsLog,
    ) {
        let mut control = Control::default();
        let mut msgs = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while peer.backlog() > 0 || msgs.is_empty() {
            assert!(Instant::now() < deadline, "loopback stalled");
            peer.poll_write().expect("write");
            conn.poll_read_into(&mut msgs).expect("read");
        }
        // Drain whatever the last write left in flight.
        std::thread::sleep(Duration::from_millis(20));
        conn.poll_read_into(&mut msgs).expect("read");
        for msg in msgs {
            handle_msg(msg, Proc::Coordinator, topo, node, obs, &mut control);
        }
    }

    #[test]
    fn hostile_link_frames_off_a_real_connection_are_discarded() {
        let membership = Membership::from_groups([
            (GroupId(0), vec![NodeId(0), NodeId(1), NodeId(2)]),
            (GroupId(1), vec![NodeId(1), NodeId(2), NodeId(3)]),
        ]);
        let config = ClusterConfig::default();
        let topo = Topology::derive(&membership, config.seed);
        let atom = topo.graph.ingress(GroupId(0)).expect("g0 has a path");
        let idx = topo.atom_node[&atom];
        let link = topo.link_between(Peer::Publisher, Peer::Node(idx));
        let frame = |id: u64| Frame {
            msg: Message::new(MessageId(id), NodeId(0), GroupId(0), Vec::new()),
            target_atom: Some(atom),
        };
        let outgoing = topo
            .links
            .iter()
            .position(|&(from, _)| from == Peer::Node(idx))
            .expect("the node has an outgoing link") as u32;

        let dir = std::env::temp_dir().join(format!("seqnet-node-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut obs = ObsLog::open(&dir.join("node.obs.jsonl"), false);
        let mut node = NodeMachine::new(idx, &topo, &config, 0, false);
        let (mut peer, mut conn) = conn_pair();

        let hostile = [
            // A link id past the end of the table, with every body shape.
            (topo.links.len() as u32, 1, WireBody::Data(frame(1))),
            (u32::MAX, 1, WireBody::DataBatch(vec![frame(1)])),
            (u32::MAX, 7, WireBody::Ack),
            (u32::MAX, 7, WireBody::AckThrough),
            (u32::MAX, 0, WireBody::Heartbeat),
            // A real link, but data flowing against its direction.
            (outgoing, 1, WireBody::Data(frame(1))),
            // A batch whose sequence range runs past u64::MAX.
            (
                link,
                u64::MAX,
                WireBody::DataBatch(vec![frame(1), frame(2)]),
            ),
        ];
        for (link, seq, body) in hostile {
            peer.queue(&WireMsg::Link { link, seq, body });
        }
        pump_into_handler(&mut peer, &mut conn, &topo, &mut node, &mut obs);
        assert_eq!(node.counters().frames_processed, 0, "nothing was accepted");
        assert_eq!(node.engine().staged_len(), 0);
        assert_eq!(node.drain_outbox().count(), 0, "and nothing was answered");

        // The same connection still carries real traffic afterwards.
        peer.queue(&WireMsg::Link {
            link,
            seq: 1,
            body: WireBody::Data(frame(1)),
        });
        pump_into_handler(&mut peer, &mut conn, &topo, &mut node, &mut obs);
        assert_eq!(node.counters().frames_processed, 1);
        assert!(
            node.engine().staged_len() > 0,
            "the frame was sequenced and staged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
