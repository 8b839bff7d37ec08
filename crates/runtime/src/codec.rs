//! Byte-oriented frame codec shared by every real deployment.
//!
//! The protocol's wire surface is a hand-rolled little-endian layout
//! (PROTOCOL.md §13/§16): no serde, no per-field allocation, every
//! encoder appends into a caller-owned `Vec<u8>` and every decoder walks
//! a borrowed slice. This module holds the *frame-level* codec — the
//! [`Frame`] layout plus the primitive readers/writers — so the threaded
//! runtime and the socket deployment (`seqnet-deploy::wire`, which layers
//! its connection-message envelope on top) encode protocol frames with
//! one implementation.
//!
//! Decoding is fully defensive: truncated, garbled, or oversized input
//! produces a [`CodecError`], never a panic, so the transport owner can
//! quarantine the peer.

use bytes::Bytes;
use seqnet_core::proto::{Frame, Peer};
use seqnet_core::{Message, MessageId, SeqNo, Stamp};
use seqnet_membership::{GroupId, NodeId};
use seqnet_overlap::AtomId;
use std::fmt;

/// Upper bound on counted collections inside a frame (stamps, batch runs,
/// stats entries) — a line of defense against garbled counts that pass an
/// outer length check.
pub const MAX_COUNT: usize = 1 << 20;

/// Decode failure. The stream that produced it must be quarantined: once
/// framing is lost there is no way to resynchronize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A length prefix exceeds the transport's frame cap (or is zero).
    BadLength(usize),
    /// A complete frame failed structural decoding.
    Garbled(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadLength(n) => write!(f, "bad frame length {n}"),
            CodecError::Garbled(what) => write!(f, "garbled frame: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

// --- encoding ---------------------------------------------------------

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a tagged [`Peer`].
pub fn put_peer(out: &mut Vec<u8>, p: Peer) {
    match p {
        Peer::Publisher => out.push(0),
        Peer::Node(i) => {
            out.push(1);
            put_u32(out, i as u32);
        }
        Peer::Host(n) => {
            out.push(2);
            put_u32(out, n.0);
        }
    }
}

/// Appends one protocol [`Frame`] in the shared wire layout.
pub fn put_frame(out: &mut Vec<u8>, f: &Frame) {
    let m = &f.msg;
    put_u64(out, m.id.0);
    put_u32(out, m.sender.0);
    put_u32(out, m.group.0);
    put_u64(out, m.group_seq.0);
    put_u64(out, m.epoch);
    put_u32(out, m.stamps.len() as u32);
    for s in &m.stamps {
        put_u32(out, s.atom.0);
        put_u64(out, s.seq.0);
    }
    put_u32(out, m.payload.len() as u32);
    out.extend_from_slice(m.payload.as_ref());
    match f.target_atom {
        None => out.push(0),
        Some(a) => {
            out.push(1);
            put_u32(out, a.0);
        }
    }
}

// --- decoding ---------------------------------------------------------

/// Cursor over a borrowed byte slice with defensive primitive readers.
/// Every accessor fails with [`CodecError::Garbled`] instead of reading
/// out of bounds.
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    /// Bytes consumed so far.
    pub fn consumed(&self) -> usize {
        self.at
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() - self.at < n {
            return Err(CodecError::Garbled("truncated field"));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an element count, rejecting anything above [`MAX_COUNT`].
    pub fn count(&mut self) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n > MAX_COUNT {
            return Err(CodecError::Garbled("implausible element count"));
        }
        Ok(n)
    }

    /// Reads a tagged [`Peer`].
    pub fn peer(&mut self) -> Result<Peer, CodecError> {
        match self.u8()? {
            0 => Ok(Peer::Publisher),
            1 => Ok(Peer::Node(self.u32()? as usize)),
            2 => Ok(Peer::Host(NodeId(self.u32()?))),
            _ => Err(CodecError::Garbled("unknown peer kind")),
        }
    }

    /// Reads one protocol [`Frame`].
    pub fn frame(&mut self) -> Result<Frame, CodecError> {
        let id = MessageId(self.u64()?);
        let sender = NodeId(self.u32()?);
        let group = GroupId(self.u32()?);
        let group_seq = SeqNo(self.u64()?);
        let epoch = self.u64()?;
        let n_stamps = self.count()?;
        // StampVec keeps typical stamp counts inline, so decode allocates
        // nothing for the ordering metadata of ordinary messages.
        let mut stamps = seqnet_core::StampVec::new();
        for _ in 0..n_stamps {
            stamps.push(Stamp {
                atom: AtomId(self.u32()?),
                seq: SeqNo(self.u64()?),
            });
        }
        let n_payload = self.u32()? as usize;
        let body = self.take(n_payload)?;
        let payload = if body.is_empty() {
            Bytes::new()
        } else {
            Bytes::copy_from_slice(body)
        };
        let target_atom = match self.u8()? {
            0 => None,
            1 => Some(AtomId(self.u32()?)),
            _ => return Err(CodecError::Garbled("bad target_atom tag")),
        };
        Ok(Frame {
            msg: Message {
                id,
                sender,
                group,
                payload,
                group_seq,
                epoch,
                stamps,
            },
            target_atom,
        })
    }

    /// Succeeds only if every byte has been consumed.
    pub fn done(&self) -> Result<(), CodecError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::Garbled("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn frame_roundtrips_through_shared_layout() {
        let mut buf = Vec::new();
        put_frame(&mut buf, &sample_frame(7));
        put_frame(&mut buf, &sample_frame(8));
        let mut r = Reader::new(&buf);
        assert_eq!(r.frame().unwrap(), sample_frame(7));
        assert_eq!(r.frame().unwrap(), sample_frame(8));
        assert_eq!(r.done(), Ok(()));
    }

    #[test]
    fn truncated_frame_is_garbled_not_panic() {
        let mut buf = Vec::new();
        put_frame(&mut buf, &sample_frame(7));
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(r.frame().is_err(), "prefix of {cut} bytes");
        }
    }

    #[test]
    fn implausible_stamp_count_is_rejected() {
        let mut buf = Vec::new();
        // id, sender, group, group_seq, epoch
        put_u64(&mut buf, 1);
        put_u32(&mut buf, 0);
        put_u32(&mut buf, 0);
        put_u64(&mut buf, 0);
        put_u64(&mut buf, 0);
        put_u32(&mut buf, (MAX_COUNT as u32) + 1);
        assert_eq!(
            Reader::new(&buf).frame(),
            Err(CodecError::Garbled("implausible element count"))
        );
    }
}
