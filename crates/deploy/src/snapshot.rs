//! Durable node checkpoints on disk.
//!
//! The threaded runtime checkpoints into a shared in-memory snapshot
//! store; a real process loses its memory when SIGKILLed, so the socket
//! deployment writes each node's durable state to
//! `<dir>/node<idx>.snap` — protocol counters (via
//! `ProtocolState::export_counters`) plus both halves of every link —
//! using write-to-temp-then-rename so a crash mid-write never leaves a
//! torn snapshot behind. The group-commit rule is unchanged: staged
//! outputs and cumulative acks leave the node only after the rename
//! returns, so everything that ever escaped the node is recorded in some
//! on-disk snapshot.

use crate::wire::CodecError;
use seqnet_runtime::codec::{put_frame, put_u32, put_u64, Reader};
use seqnet_runtime::{LinkSnapshot, TxLinkSnapshot};
use std::io;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"SQSNAP2\n";

/// A node's durable state as serialized to disk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiskSnapshot {
    /// Configuration epoch the counters belong to. A node restarted into
    /// a different epoch ignores the snapshot — its counters index a
    /// retired sequencing graph — and starts fresh in the new epoch.
    pub epoch: u64,
    /// Overlap-counter values, by counter index (from
    /// `ProtocolState::export_counters`).
    pub overlaps: Vec<u64>,
    /// Group-counter values as `(group id, counter)` pairs.
    pub groups: Vec<(u32, u64)>,
    /// Both halves of every link the node terminates.
    pub links: LinkSnapshot,
}

/// The snapshot path for node `idx` under `dir`.
pub fn snapshot_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join(format!("node{idx}.snap"))
}

impl DiskSnapshot {
    /// Serializes the snapshot.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(MAGIC);
        put_u64(&mut out, self.epoch);
        put_u32(&mut out, self.overlaps.len() as u32);
        for &c in &self.overlaps {
            put_u64(&mut out, c);
        }
        put_u32(&mut out, self.groups.len() as u32);
        for &(g, c) in &self.groups {
            put_u32(&mut out, g);
            put_u64(&mut out, c);
        }
        put_u32(&mut out, self.links.rx_next.len() as u32);
        for &(link, next) in &self.links.rx_next {
            put_u32(&mut out, link);
            put_u64(&mut out, next);
        }
        put_u32(&mut out, self.links.tx.len() as u32);
        for tx in &self.links.tx {
            put_u32(&mut out, tx.link);
            put_u64(&mut out, tx.next_seq);
            put_u32(&mut out, tx.frames.len() as u32);
            for (seq, frame) in &tx.frames {
                put_u64(&mut out, *seq);
                put_frame(&mut out, frame);
            }
        }
        out
    }

    /// Deserializes a snapshot previously produced by
    /// [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or corrupt input.
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        if buf.len() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
            return Err(CodecError::Garbled("bad snapshot magic"));
        }
        let mut r = Reader::new(&buf[MAGIC.len()..]);
        let mut snap = DiskSnapshot {
            epoch: r.u64()?,
            ..DiskSnapshot::default()
        };
        for _ in 0..r.u32()? {
            snap.overlaps.push(r.u64()?);
        }
        for _ in 0..r.u32()? {
            let g = r.u32()?;
            snap.groups.push((g, r.u64()?));
        }
        for _ in 0..r.u32()? {
            let link = r.u32()?;
            snap.links.rx_next.push((link, r.u64()?));
        }
        for _ in 0..r.u32()? {
            let link = r.u32()?;
            let next_seq = r.u64()?;
            let n = r.u32()?;
            let mut frames = Vec::with_capacity((n as usize).min(1024));
            for _ in 0..n {
                let seq = r.u64()?;
                frames.push((seq, r.frame()?));
            }
            snap.links.tx.push(TxLinkSnapshot {
                link,
                next_seq,
                frames,
            });
        }
        r.done()?;
        Ok(snap)
    }

    /// Atomically persists the snapshot: write to `<path>.tmp`, rename
    /// over `path`.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem failure.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("snap.tmp");
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, path)
    }

    /// Loads the latest snapshot, `None` if the node never checkpointed.
    ///
    /// # Errors
    ///
    /// A present-but-corrupt snapshot is an error (stable storage lied),
    /// not a silent fresh start.
    pub fn load(path: &Path) -> io::Result<Option<Self>> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Self::decode(&bytes)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqnet_core::proto::Frame;
    use seqnet_core::{Message, MessageId};
    use seqnet_membership::{GroupId, NodeId};

    fn frame(id: u64) -> Frame {
        Frame {
            msg: Message::new(MessageId(id), NodeId(1), GroupId(0), b"x".to_vec()),
            target_atom: None,
        }
    }

    #[test]
    fn snapshot_roundtrips_through_disk() {
        let snap = DiskSnapshot {
            epoch: 3,
            overlaps: vec![3, 0, 7],
            groups: vec![(0, 4), (1, 9)],
            links: LinkSnapshot {
                rx_next: vec![(2, 11)],
                tx: vec![TxLinkSnapshot {
                    link: 5,
                    next_seq: 13,
                    frames: vec![(11, frame(1)), (12, frame(2))],
                }],
            },
        };
        let dir = std::env::temp_dir().join(format!("seqnet-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = snapshot_path(&dir, 0);
        snap.save(&path).expect("save");
        let back = DiskSnapshot::load(&path).expect("load").expect("present");
        assert_eq!(back, snap);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_snapshot_is_a_clean_fresh_start() {
        let path = std::env::temp_dir().join("seqnet-snap-test-definitely-missing.snap");
        assert!(DiskSnapshot::load(&path).expect("ok").is_none());
    }

    #[test]
    fn corrupt_snapshot_is_loud() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("seqnet-snap-corrupt-{}.snap", std::process::id()));
        std::fs::write(&path, b"SQSNAP2\n\x05\x00\x00").expect("write");
        assert!(DiskSnapshot::load(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn old_format_magic_is_rejected() {
        // SQSNAP1 snapshots predate the epoch field; restoring one would
        // misalign every counter, so the magic bump makes them loud.
        let path = std::env::temp_dir().join(format!(
            "seqnet-snap-oldmagic-{}.snap",
            std::process::id()
        ));
        std::fs::write(&path, b"SQSNAP1\n\x00\x00\x00\x00").expect("write");
        assert!(DiskSnapshot::load(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
