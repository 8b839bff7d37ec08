//! Length-prefixed wire codec for the socket deployment.
//!
//! Every TCP connection carries a stream of frames, each encoded as a
//! 4-byte little-endian length followed by that many payload bytes. The
//! payload starts with a one-byte message kind. Decoding is fully
//! incremental — [`FrameBuffer`] accepts bytes in arbitrary chunks (short
//! reads, dribble transports) and yields complete messages as they become
//! available — and fully defensive: truncated, garbled, or oversized input
//! produces a [`CodecError`], never a panic, so the connection owner can
//! quarantine the peer.
//!
//! The codec is hand-rolled (no serde): the workspace treats the wire
//! format as part of the protocol surface (PROTOCOL.md §13/§16), and the
//! explicit byte layout keeps it inspectable and stable. The frame-level
//! layout and primitive readers/writers live in
//! [`seqnet_runtime::codec`], shared with the threaded runtime; this
//! module layers the connection-message envelope ([`WireMsg`]) on top.

use seqnet_core::proto::Peer;
use seqnet_runtime::codec::{put_frame, put_peer, put_u32, put_u64, Reader};
use std::collections::BTreeMap;

pub use seqnet_runtime::codec::CodecError;

/// Upper bound on one wire frame's payload. Anything larger is treated as
/// a garbled or hostile length prefix and rejected before allocation.
pub const MAX_FRAME_LEN: usize = 8 * 1024 * 1024;

/// Per-node counters shipped to the coordinator at orderly shutdown,
/// mirroring the threaded runtime's `RuntimeStats` fields plus the wire
/// batch-size histogram (the coordinator folds them into `DeployStats`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeWireStats {
    /// Data frames this node put on the wire (incl. retransmissions).
    pub frames_sent: u64,
    /// Wire writes this node's loss injector discarded.
    pub frames_dropped: u64,
    /// Retransmissions performed by this node's link senders.
    pub retransmissions: u64,
    /// Duplicate frames discarded by this node's link receivers.
    pub duplicates: u64,
    /// Peer-failure detections (heartbeat silence past the threshold).
    pub heartbeat_misses: u64,
    /// Data frames replayed to this node after restarts, before recovery
    /// completed.
    pub frames_replayed: u64,
    /// Summed recovery latency (process start to first covering snapshot)
    /// over this incarnation, in microseconds.
    pub recovery_micros: u64,
    /// Snapshots persisted by this incarnation.
    pub snapshots: u64,
    /// Wire-write size histogram: frames per write.
    pub batch_sizes: BTreeMap<usize, u64>,
}

/// A live per-node telemetry snapshot, pulled periodically by the
/// coordinator over the existing control connections (the trace plane's
/// scrape path — PROTOCOL.md §15). Unlike [`WireMsg::Stats`] this is
/// sent while the node keeps running, so the counters are a consistent
/// point-in-time read, monotone across snapshots of one incarnation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeTelemetry {
    /// Respawn count of the reporting process.
    pub incarnation: u64,
    /// Configuration epoch the node is serving.
    pub epoch: u64,
    /// Frames staged under group commit, not yet flushed by a snapshot
    /// (the node-side in-flight measure).
    pub staged_frames: u64,
    /// Protocol frames fed through the node's core since launch.
    pub frames_processed: u64,
    /// Observability events the node failed to persist (write errors on
    /// the JSONL log) — non-zero means span reconstruction over this
    /// node's file is incomplete.
    pub obs_dropped: u64,
    /// The cumulative counters, same shape as the shutdown report.
    pub stats: NodeWireStats,
}

/// One message on a deployment connection.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Connection handshake: the first message on every connection names
    /// the dialing process and its incarnation (respawn count).
    Hello {
        /// The party that owns the dialing process (the coordinator
        /// announces itself as [`Peer::Publisher`]).
        party: Peer,
        /// Respawn count of the dialing process, 0 for the first launch.
        incarnation: u64,
    },
    /// A reliable-link frame: the link id is an index into the shared
    /// deterministic link table, `seq` is the link sequence number (or the
    /// ack floor for ack bodies, 0 for heartbeats).
    Link {
        /// Index into the deterministic link table.
        link: u32,
        /// Link sequence number / cumulative ack floor.
        seq: u64,
        /// The frame body.
        body: WireBody,
    },
    /// Coordinator → node: checkpoint, report stats, and exit cleanly.
    Shutdown,
    /// Node → coordinator: final counters, sent in response to
    /// [`WireMsg::Shutdown`].
    Stats(NodeWireStats),
    /// Coordinator → node: report a live telemetry snapshot. Does not
    /// disturb the node; answered with [`WireMsg::Telemetry`].
    TelemetryRequest,
    /// Node → coordinator: the live snapshot, sent in response to
    /// [`WireMsg::TelemetryRequest`].
    Telemetry(NodeTelemetry),
}

/// Body of a [`WireMsg::Link`] frame: the link engine's own body type,
/// encoded as it stands — the socket deployment and the threaded runtime
/// carry the same five variants.
pub use seqnet_runtime::LinkBody as WireBody;

// --- encoding ---------------------------------------------------------

/// The [`NodeWireStats`] body layout, shared by [`WireMsg::Stats`] and
/// [`WireMsg::Telemetry`].
fn put_stats(out: &mut Vec<u8>, s: &NodeWireStats) {
    put_u64(out, s.frames_sent);
    put_u64(out, s.frames_dropped);
    put_u64(out, s.retransmissions);
    put_u64(out, s.duplicates);
    put_u64(out, s.heartbeat_misses);
    put_u64(out, s.frames_replayed);
    put_u64(out, s.recovery_micros);
    put_u64(out, s.snapshots);
    put_u32(out, s.batch_sizes.len() as u32);
    for (&size, &count) in &s.batch_sizes {
        put_u32(out, size as u32);
        put_u64(out, count);
    }
}

/// Appends `msg` to `out` as one length-prefixed wire frame.
pub fn encode(msg: &WireMsg, out: &mut Vec<u8>) {
    let at = out.len();
    put_u32(out, 0); // patched below
    match msg {
        WireMsg::Hello { party, incarnation } => {
            out.push(0);
            put_peer(out, *party);
            put_u64(out, *incarnation);
        }
        WireMsg::Link { link, seq, body } => {
            out.push(1);
            put_u32(out, *link);
            put_u64(out, *seq);
            match body {
                WireBody::Data(f) => {
                    out.push(0);
                    put_frame(out, f);
                }
                WireBody::DataBatch(fs) => {
                    out.push(1);
                    put_u32(out, fs.len() as u32);
                    for f in fs {
                        put_frame(out, f);
                    }
                }
                WireBody::Ack => out.push(2),
                WireBody::AckThrough => out.push(3),
                WireBody::Heartbeat => out.push(4),
            }
        }
        WireMsg::Shutdown => out.push(2),
        WireMsg::Stats(s) => {
            out.push(3);
            put_stats(out, s);
        }
        WireMsg::TelemetryRequest => out.push(4),
        WireMsg::Telemetry(t) => {
            out.push(5);
            put_u64(out, t.incarnation);
            put_u64(out, t.epoch);
            put_u64(out, t.staged_frames);
            put_u64(out, t.frames_processed);
            put_u64(out, t.obs_dropped);
            put_stats(out, &t.stats);
        }
    }
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

// --- decoding ---------------------------------------------------------

/// The [`NodeWireStats`] body decode, mirroring [`put_stats`].
fn read_stats(r: &mut Reader<'_>) -> Result<NodeWireStats, CodecError> {
    let mut s = NodeWireStats {
        frames_sent: r.u64()?,
        frames_dropped: r.u64()?,
        retransmissions: r.u64()?,
        duplicates: r.u64()?,
        heartbeat_misses: r.u64()?,
        frames_replayed: r.u64()?,
        recovery_micros: r.u64()?,
        snapshots: r.u64()?,
        ..NodeWireStats::default()
    };
    let n = r.count()?;
    for _ in 0..n {
        let size = r.u32()? as usize;
        let count = r.u64()?;
        s.batch_sizes.insert(size, count);
    }
    Ok(s)
}

/// Decodes one complete frame payload (the bytes after the length prefix).
pub fn decode_payload(payload: &[u8]) -> Result<WireMsg, CodecError> {
    let mut r = Reader::new(payload);
    let msg = match r.u8()? {
        0 => WireMsg::Hello {
            party: r.peer()?,
            incarnation: r.u64()?,
        },
        1 => {
            let link = r.u32()?;
            let seq = r.u64()?;
            let body = match r.u8()? {
                0 => WireBody::Data(r.frame()?),
                1 => {
                    let n = r.count()?;
                    let mut fs = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        fs.push(r.frame()?);
                    }
                    WireBody::DataBatch(fs)
                }
                2 => WireBody::Ack,
                3 => WireBody::AckThrough,
                4 => WireBody::Heartbeat,
                _ => return Err(CodecError::Garbled("unknown body kind")),
            };
            WireMsg::Link { link, seq, body }
        }
        2 => WireMsg::Shutdown,
        3 => WireMsg::Stats(read_stats(&mut r)?),
        4 => WireMsg::TelemetryRequest,
        5 => WireMsg::Telemetry(NodeTelemetry {
            incarnation: r.u64()?,
            epoch: r.u64()?,
            staged_frames: r.u64()?,
            frames_processed: r.u64()?,
            obs_dropped: r.u64()?,
            stats: read_stats(&mut r)?,
        }),
        _ => return Err(CodecError::Garbled("unknown message kind")),
    };
    r.done()?;
    Ok(msg)
}

/// Incremental frame assembler: feed it bytes as they arrive (in chunks of
/// any size) and drain complete messages. A [`CodecError`] from [`next`]
/// is terminal for the stream — quarantine the connection.
///
/// [`next`]: FrameBuffer::next
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes before `start` are consumed; compacted lazily.
    start: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact when the dead prefix dominates, so long-lived
        // connections don't grow without bound.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pops the next complete message, `Ok(None)` if more bytes are
    /// needed, or a terminal [`CodecError`].
    pub fn next(&mut self) -> Result<Option<WireMsg>, CodecError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap()) as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(CodecError::BadLength(len));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let msg = decode_payload(&avail[4..4 + len])?;
        self.start += 4 + len;
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqnet_core::proto::Frame;
    use seqnet_core::{Message, MessageId, SeqNo, Stamp};
    use seqnet_membership::{GroupId, NodeId};
    use seqnet_overlap::AtomId;

    fn sample_frame(id: u64) -> Frame {
        let mut msg = Message::new(MessageId(id), NodeId(3), GroupId(1), b"payload".to_vec());
        msg.group_seq = SeqNo(9);
        msg.epoch = 2;
        msg.stamps.push(Stamp {
            atom: AtomId(4),
            seq: SeqNo(17),
        });
        Frame {
            msg,
            target_atom: Some(AtomId(2)),
        }
    }

    #[test]
    fn roundtrip_every_variant() {
        let msgs = vec![
            WireMsg::Hello {
                party: Peer::Node(7),
                incarnation: 3,
            },
            WireMsg::Hello {
                party: Peer::Publisher,
                incarnation: 0,
            },
            WireMsg::Link {
                link: 5,
                seq: 42,
                body: WireBody::Data(sample_frame(1)),
            },
            WireMsg::Link {
                link: 0,
                seq: 10,
                body: WireBody::DataBatch(vec![sample_frame(2), sample_frame(3)]),
            },
            WireMsg::Link {
                link: 1,
                seq: 6,
                body: WireBody::Ack,
            },
            WireMsg::Link {
                link: 1,
                seq: 6,
                body: WireBody::AckThrough,
            },
            WireMsg::Link {
                link: 2,
                seq: 0,
                body: WireBody::Heartbeat,
            },
            WireMsg::Shutdown,
            WireMsg::Stats(NodeWireStats {
                frames_sent: 10,
                frames_dropped: 3,
                retransmissions: 2,
                duplicates: 1,
                heartbeat_misses: 0,
                frames_replayed: 4,
                recovery_micros: 1234,
                snapshots: 6,
                batch_sizes: [(1, 8), (4, 2)].into_iter().collect(),
            }),
            WireMsg::TelemetryRequest,
            WireMsg::Telemetry(NodeTelemetry {
                incarnation: 2,
                epoch: 1,
                staged_frames: 7,
                frames_processed: 530,
                obs_dropped: 0,
                stats: NodeWireStats {
                    frames_sent: 99,
                    batch_sizes: [(2, 5)].into_iter().collect(),
                    ..NodeWireStats::default()
                },
            }),
        ];
        let mut bytes = Vec::new();
        for m in &msgs {
            encode(m, &mut bytes);
        }
        let mut fb = FrameBuffer::new();
        fb.push(&bytes);
        for expect in &msgs {
            let got = fb.next().expect("valid stream").expect("complete frame");
            assert_eq!(&got, expect);
        }
        assert!(fb.next().expect("empty tail").is_none());
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut fb = FrameBuffer::new();
        fb.push(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        fb.push(&[0u8; 16]);
        assert!(matches!(fb.next(), Err(CodecError::BadLength(_))));
    }

    #[test]
    fn zero_length_prefix_is_rejected() {
        let mut fb = FrameBuffer::new();
        fb.push(&0u32.to_le_bytes());
        assert_eq!(fb.next(), Err(CodecError::BadLength(0)));
    }

    #[test]
    fn truncated_frame_waits_for_more_bytes() {
        let mut bytes = Vec::new();
        encode(
            &WireMsg::Link {
                link: 9,
                seq: 1,
                body: WireBody::Data(sample_frame(5)),
            },
            &mut bytes,
        );
        let mut fb = FrameBuffer::new();
        fb.push(&bytes[..bytes.len() - 1]);
        assert_eq!(fb.next(), Ok(None));
        fb.push(&bytes[bytes.len() - 1..]);
        assert!(fb.next().expect("valid").is_some());
    }
}
