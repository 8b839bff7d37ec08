//! Durable node checkpoints on disk.
//!
//! The threaded runtime checkpoints into a shared in-memory snapshot
//! store; a real process loses its memory when SIGKILLed, so the socket
//! deployment writes each node's durable state — protocol counters (via
//! `ProtocolState::export_counters`) plus both halves of every link — into
//! a [`CheckpointStore`]: two slot files, `<dir>/node<idx>.snap0` and
//! `.snap1`, opened once and written alternately in place. A write cut
//! short by a crash fails its slot's checksum and leaves the other slot,
//! which holds the previous checkpoint, untouched. The group-commit rule
//! is unchanged: staged outputs and cumulative acks leave the node only
//! after [`CheckpointStore::commit`] has returned, so everything that ever
//! escaped the node is recorded in a checkpoint the store will find.
//!
//! What that is durable against is the death of the process (SIGKILL, a
//! panic, an abort): the bytes are in the page cache when `commit`
//! returns and nothing here calls `fsync`, so the death of the machine
//! can lose them.

use crate::wire::CodecError;
use seqnet_runtime::codec::{put_frame, put_u32, put_u64, Reader};
use seqnet_runtime::{LinkSnapshot, TxLinkSnapshot};
use std::fs::File;
use std::io::{self, Read as _};
use std::path::Path;

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

impl DiskSnapshot {
    /// Serializes the snapshot.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        self.encode_into(&mut out);
        out
    }

    /// Appends the serialized snapshot to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(MAGIC);
        put_u64(out, self.epoch);
        put_u32(out, self.overlaps.len() as u32);
        for &c in &self.overlaps {
            put_u64(out, c);
        }
        put_u32(out, self.groups.len() as u32);
        for &(g, c) in &self.groups {
            put_u32(out, g);
            put_u64(out, c);
        }
        put_u32(out, self.links.rx_next.len() as u32);
        for &(link, next) in &self.links.rx_next {
            put_u32(out, link);
            put_u64(out, next);
        }
        put_u32(out, self.links.tx.len() as u32);
        for tx in &self.links.tx {
            put_u32(out, tx.link);
            put_u64(out, tx.next_seq);
            put_u32(out, tx.frames.len() as u32);
            for (seq, frame) in &tx.frames {
                put_u64(out, *seq);
                put_frame(out, frame);
            }
        }
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
}

/// Bytes of a slot's header: generation, payload length, checksum.
const SLOT_HEADER: usize = 24;

/// FNV-1a over a slot's generation, payload length and payload: what tells
/// a complete slot write from one a crash cut short. It covers the first
/// two header fields as well, so a write that got no further than the new
/// generation does not pass for a newer checkpoint with the old payload.
fn slot_checksum(generation: u64, payload: &[u8]) -> u64 {
    let len = (payload.len() as u64).to_le_bytes();
    let header = generation.to_le_bytes().into_iter().chain(len);
    header
        .chain(payload.iter().copied())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The generation and payload of a completely written slot; `None` for an
/// empty slot or a torn write.
fn read_slot(slot: &[u8]) -> Option<(u64, &[u8])> {
    let word = |at: usize| Some(u64::from_le_bytes(slot.get(at..at + 8)?.try_into().ok()?));
    let (generation, len, checksum) = (word(0)?, word(8)?, word(16)?);
    let payload = slot.get(SLOT_HEADER..SLOT_HEADER.checked_add(usize::try_from(len).ok()?)?)?;
    (generation > 0 && slot_checksum(generation, payload) == checksum)
        .then_some((generation, payload))
}

/// A node's stable storage: two slots written alternately in place.
///
/// Generation `g` (1, 2, ...) is written to slot `g % 2` as `generation |
/// payload length | checksum | SQSNAP2 payload` in one positional write
/// at offset 0, so the slot being written is never the one that holds the
/// latest complete checkpoint, and [`open`](Self::open) takes the
/// complete slot with the highest generation. No file is created, renamed
/// or truncated per checkpoint; bytes past the payload are left over from
/// a longer earlier one and never read.
#[derive(Debug)]
pub struct CheckpointStore {
    slots: [File; 2],
    /// Generation of the latest complete checkpoint, 0 before the first.
    generation: u64,
    /// The slot image being built; kept so a commit allocates nothing
    /// once it has seen the largest checkpoint.
    buf: Vec<u8>,
}

impl CheckpointStore {
    /// Opens (creating them if absent) node `idx`'s two slots under `dir`
    /// and returns the store with the latest complete checkpoint, `None`
    /// if there is none — the node never checkpointed, or died inside its
    /// first write, before which nothing had escaped it — or if it
    /// belongs to another epoch than `epoch`: its counters index a
    /// retired sequencing graph, and nothing of that epoch is owed by this
    /// node (the handoff drained epoch N before the epoch-N+1 spec was
    /// written), so a node that crashed mid-reconfiguration recovers
    /// fresh into the epoch its spec names.
    ///
    /// # Errors
    ///
    /// The filesystem failure; or `InvalidData` for a slot whose checksum
    /// holds but whose payload does not decode (stable storage lied, or
    /// was written by another format version) — not a silent fresh start.
    pub fn open(dir: &Path, idx: usize, epoch: u64) -> io::Result<(Self, Option<DiskSnapshot>)> {
        // One slot's file, and the complete checkpoint in it if any.
        let open_slot = |slot: usize| -> io::Result<(File, Option<(u64, DiskSnapshot)>)> {
            let mut file = File::options()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(dir.join(format!("node{idx}.snap{slot}")))?;
            let mut image = Vec::new();
            file.read_to_end(&mut image)?;
            let held = match read_slot(&image) {
                Some((generation, payload)) => {
                    let snap = DiskSnapshot::decode(payload)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                    Some((generation, snap))
                }
                None => None,
            };
            Ok((file, held))
        };
        let (even, in_even) = open_slot(0)?;
        let (odd, in_odd) = open_slot(1)?;
        let latest = [in_even, in_odd]
            .into_iter()
            .flatten()
            .max_by_key(|&(generation, _)| generation);
        let store = CheckpointStore {
            slots: [even, odd],
            generation: latest.as_ref().map_or(0, |&(generation, _)| generation),
            buf: Vec::new(),
        };
        let checkpoint = latest.map(|(_, snap)| snap);
        Ok((store, checkpoint.filter(|snap| snap.epoch == epoch)))
    }

    /// Stores `snap` as the next generation, over the older of the two
    /// checkpoints held. When this returns the checkpoint is the one a
    /// restart will find.
    ///
    /// # Errors
    ///
    /// The failed write's error; the previous checkpoint is still intact
    /// and the next commit retries the same slot.
    pub fn commit(&mut self, snap: &DiskSnapshot) -> io::Result<()> {
        let generation = self.generation + 1;
        self.buf.clear();
        self.buf.resize(SLOT_HEADER, 0);
        snap.encode_into(&mut self.buf);
        let (header, payload) = self.buf.split_at_mut(SLOT_HEADER);
        header[..8].copy_from_slice(&generation.to_le_bytes());
        header[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        header[16..].copy_from_slice(&slot_checksum(generation, payload).to_le_bytes());
        crate::sys::write_at_start(&self.slots[(generation % 2) as usize], &self.buf)?;
        self.generation = generation;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqnet_core::proto::Frame;
    use seqnet_core::{Message, MessageId};
    use seqnet_membership::{GroupId, NodeId};
    use std::path::PathBuf;

    fn frame(id: u64) -> Frame {
        Frame {
            msg: Message::new(MessageId(id), NodeId(1), GroupId(0), b"x".to_vec()),
            target_atom: None,
        }
    }

    /// A checkpoint of epoch 3 holding `frames` unacknowledged frames.
    fn snapshot(frames: u64) -> DiskSnapshot {
        DiskSnapshot {
            epoch: 3,
            overlaps: vec![3, 0, 7],
            groups: vec![(0, 4), (1, 9)],
            links: LinkSnapshot {
                rx_next: vec![(2, 11)],
                tx: vec![TxLinkSnapshot {
                    link: 5,
                    next_seq: 11 + frames,
                    frames: (0..frames).map(|i| (11 + i, frame(i))).collect(),
                }],
            },
        }
    }

    /// A fresh directory for one test's store.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("seqnet-snap-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn slot_path(dir: &Path, slot: usize) -> PathBuf {
        dir.join(format!("node0.snap{slot}"))
    }

    /// A complete slot image around an arbitrary payload.
    fn slot_image(generation: u64, payload: &[u8]) -> Vec<u8> {
        let mut image = generation.to_le_bytes().to_vec();
        image.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        image.extend_from_slice(&slot_checksum(generation, payload).to_le_bytes());
        image.extend_from_slice(payload);
        image
    }

    fn reopen(dir: &Path) -> Option<DiskSnapshot> {
        CheckpointStore::open(dir, 0, 3).expect("open").1
    }

    #[test]
    fn snapshot_roundtrips_through_disk() {
        let dir = scratch("roundtrip");
        let (mut store, found) = CheckpointStore::open(&dir, 0, 3).expect("open");
        assert_eq!(found, None);
        store.commit(&snapshot(2)).expect("commit");
        assert_eq!(reopen(&dir), Some(snapshot(2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generations_alternate_slots_and_survive_reopen() {
        let dir = scratch("generations");
        let generation_in = |slot: usize| {
            let image = std::fs::read(slot_path(&dir, slot)).expect("read");
            read_slot(&image).map(|(generation, _)| generation)
        };
        let (mut store, _) = CheckpointStore::open(&dir, 0, 3).expect("open");
        store.commit(&snapshot(1)).expect("commit");
        assert_eq!((generation_in(0), generation_in(1)), (None, Some(1)));
        store.commit(&snapshot(2)).expect("commit");
        assert_eq!((generation_in(0), generation_in(1)), (Some(2), Some(1)));
        // A shorter checkpoint over a longer one: the stale tail is inert.
        store.commit(&snapshot(0)).expect("commit");
        assert_eq!((generation_in(0), generation_in(1)), (Some(2), Some(3)));
        drop(store);

        let (mut store, found) = CheckpointStore::open(&dir, 0, 3).expect("reopen");
        assert_eq!(found, Some(snapshot(0)), "the highest generation wins");
        store.commit(&snapshot(4)).expect("commit");
        assert_eq!(
            (generation_in(0), generation_in(1)),
            (Some(4), Some(3)),
            "a reopened store goes on where the last one stopped"
        );
        assert_eq!(reopen(&dir), Some(snapshot(4)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// SIGKILL can land anywhere inside a slot write. Whatever prefix of
    /// the new image made it over the old bytes, recovery finds the
    /// checkpoint whose commit last returned — and the new one only once
    /// every byte of it is there.
    #[test]
    fn a_torn_write_falls_back_to_the_previous_checkpoint() {
        for (oldest, newest) in [(3, 1), (1, 3)] {
            let dir = scratch("torn");
            let (mut store, _) = CheckpointStore::open(&dir, 0, 3).expect("open");
            store.commit(&snapshot(oldest)).expect("commit");
            let old_image = std::fs::read(slot_path(&dir, 1)).expect("read");
            store.commit(&snapshot(2)).expect("commit");
            store.commit(&snapshot(newest)).expect("commit");
            drop(store);
            let new_image = std::fs::read(slot_path(&dir, 1)).expect("read");
            let written = SLOT_HEADER + snapshot(newest).encode().len();

            for prefix in 0..=written {
                let mut torn = new_image[..prefix].to_vec();
                torn.extend_from_slice(old_image.get(prefix..).unwrap_or_default());
                std::fs::write(slot_path(&dir, 1), &torn).expect("tear");
                // Complete as soon as the bytes still missing happen to
                // equal the ones they replace.
                let complete = torn.get(..written) == Some(&new_image[..written]);
                let expected = if complete { newest } else { 2 };
                assert_eq!(
                    reopen(&dir),
                    Some(snapshot(expected)),
                    "{prefix} of {written} bytes written over a {}-byte slot",
                    old_image.len()
                );
                assert!(complete || prefix < written);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn missing_snapshot_is_a_clean_fresh_start() {
        // Nothing escapes a node before its first commit returns, so
        // empty slots — or a first write that never finished — are a
        // consistent fresh start.
        let dir = scratch("fresh");
        assert_eq!(reopen(&dir), None);
        assert_eq!(reopen(&dir), None, "the empty slots it created");
        let image = slot_image(1, &snapshot(1).encode());
        std::fs::write(slot_path(&dir, 1), &image[..image.len() - 1]).expect("write");
        std::fs::write(slot_path(&dir, 0), &image[..SLOT_HEADER / 2]).expect("write");
        assert_eq!(reopen(&dir), None, "both slots torn");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_loud() {
        // The checksum says the write completed; what was written is not
        // a checkpoint. Stable storage lied: not a silent fresh start.
        let dir = scratch("corrupt");
        let image = slot_image(1, b"SQSNAP2\n\x05\x00\x00");
        std::fs::write(slot_path(&dir, 1), image).expect("write");
        let err = CheckpointStore::open(&dir, 0, 3).expect_err("loud");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_format_magic_is_rejected() {
        // SQSNAP1 snapshots predate the epoch field; restoring one would
        // misalign every counter, so the magic bump makes them loud.
        let dir = scratch("oldmagic");
        let image = slot_image(1, b"SQSNAP1\n\x00\x00\x00\x00");
        std::fs::write(slot_path(&dir, 1), image).expect("write");
        let err = CheckpointStore::open(&dir, 0, 3).expect_err("loud");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn another_epochs_checkpoint_is_ignored() {
        let dir = scratch("epoch");
        let (mut store, _) = CheckpointStore::open(&dir, 0, 3).expect("open");
        store.commit(&snapshot(1)).expect("commit");
        drop(store);
        let (mut store, found) = CheckpointStore::open(&dir, 0, 4).expect("open");
        assert_eq!(found, None, "epoch 3's counters mean nothing in epoch 4");
        // The restarted node's own checkpoints supersede it.
        let fresh = DiskSnapshot {
            epoch: 4,
            ..DiskSnapshot::default()
        };
        store.commit(&fresh).expect("commit");
        assert_eq!(
            CheckpointStore::open(&dir, 0, 4).expect("open").1,
            Some(fresh)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
