//! The reliable-link engine: one party's end of every link it terminates.
//!
//! The paper's §3.1 sequencer keeps "a buffer to store received messages
//! from previous sequencers" and "an output retransmission buffer for each
//! subsequent sequencer". [`LinkEngine`] is that state for one party — a
//! [`LinkReceiver`] per incoming link, a [`LinkSender`] per outgoing link —
//! plus the discipline around it: loss injection, immediate or deferred
//! acknowledgment, group-commit staging, coalesced flushes, retransmission
//! sweeps, reconnect replay, and the snapshot/restore of both halves.
//!
//! The engine performs no I/O. Every call turns arrivals or timer ticks
//! into an **outbox** of [`Transmission`]s, and the shell that owns the
//! engine — a thread with channels, a process with TCP connections —
//! drains the outbox onto its transport. Both deployments run this one
//! engine; they differ only in where the outbox goes.

use crate::cluster::ClusterConfig;
use crate::link::{LinkReceiver, LinkSender};
use crate::topo::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqnet_core::proto::{Frame, Peer};
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Body of a link-level frame. The threaded runtime moves these over
/// channels; the socket deployment encodes them as the body of its
/// `WireMsg::Link` (where this type is known as `WireBody`).
#[derive(Debug, Clone, PartialEq)]
pub enum LinkBody {
    /// One protocol frame.
    Data(Frame),
    /// A coalesced run of protocol frames with consecutive link sequence
    /// numbers starting at the carried `seq`: many small frames, one wire
    /// write. Produced by [`LinkEngine::flush_staged`] when
    /// [`ClusterConfig::coalesce`] is set; each frame stays individually
    /// tracked in the sender's retransmission buffer, so retransmissions
    /// and snapshots are unaffected by the framing.
    DataBatch(Vec<Frame>),
    /// Acknowledges exactly the carried sequence number.
    Ack,
    /// Cumulative acknowledgment: every frame up to and including the
    /// carried sequence number is confirmed. Sent by sequencing nodes at
    /// snapshot time, so an ack never outruns the durable state that
    /// records its frames.
    AckThrough,
    /// Liveness beacon between sequencing nodes; carries no payload and
    /// bypasses the reliable-delivery machinery (sequence number 0, never
    /// retransmitted), but not loss injection.
    Heartbeat,
}

impl LinkBody {
    /// The `(sender, addressee)` of a frame carrying this body on `link`:
    /// data, batches and heartbeats travel down the link, acknowledgments
    /// travel back up it. `None` for a link id outside the table — link
    /// ids arrive off the wire and out of snapshot files, so nothing may
    /// index the table with one unchecked.
    pub fn endpoints(&self, topo: &Topology, link: u32) -> Option<(Peer, Peer)> {
        let &(from, to) = topo.links.get(link as usize)?;
        Some(match self {
            LinkBody::Ack | LinkBody::AckThrough => (to, from),
            LinkBody::Data(_) | LinkBody::DataBatch(_) | LinkBody::Heartbeat => (from, to),
        })
    }
}

/// One entry of an engine's outbox: `body` is to travel to party `to` as
/// link `link`'s frame number `seq` (the ack floor for ack bodies, 0 for
/// heartbeats). Loss injection has already been applied.
#[derive(Debug, Clone, PartialEq)]
pub struct Transmission {
    /// The party at the far end.
    pub to: Peer,
    /// Index into the shared link table.
    pub link: u32,
    /// Link sequence number / cumulative ack floor.
    pub seq: u64,
    /// The frame body.
    pub body: LinkBody,
}

/// Link-level counters of one engine, summed over its links when read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkCounters {
    /// Data frames handed to the outbox or the loss injector (including
    /// retransmissions).
    pub frames_sent: u64,
    /// Wire writes discarded by the loss injector.
    pub frames_dropped: u64,
    /// Retransmissions performed by the link senders.
    pub retransmissions: u64,
    /// Duplicate frames discarded by the link receivers.
    pub duplicates: u64,
}

/// The durable state of both halves of every link an engine terminates —
/// what a node checkpoint records next to the protocol counters. Entries
/// are in link-id order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkSnapshot {
    /// Per incoming link: the next in-order sequence number expected at
    /// snapshot time (everything below it was processed).
    pub rx_next: Vec<(u32, u64)>,
    /// Per outgoing link, the sender half.
    pub tx: Vec<TxLinkSnapshot>,
}

/// The durable state of one outgoing link's sender.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TxLinkSnapshot {
    /// The link's id.
    pub link: u32,
    /// The next fresh sequence number.
    pub next_seq: u64,
    /// The frames still unacknowledged at snapshot time (staged ones
    /// included), in sequence order.
    pub frames: Vec<(u64, Frame)>,
}

/// A [`LinkSnapshot`] named a link this party does not terminate in that
/// direction (or one outside the link table): the snapshot belongs to
/// another topology, and restoring it would misroute every frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownLink(pub u32);

impl fmt::Display for UnknownLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "snapshot names link {} which this party does not terminate",
            self.0
        )
    }
}

impl std::error::Error for UnknownLink {}

/// The per-party loss-injection seed: the configured seed mixed with a
/// constant per party, so every party drops an independent share.
fn party_seed(seed: u64, p: Peer) -> u64 {
    seed ^ match p {
        Peer::Node(i) => 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1),
        Peer::Host(n) => 0xc2b2_ae3d_27d4_eb4fu64.wrapping_mul(u64::from(n.0) + 1),
        Peer::Publisher => 0x517c_c1b7_2722_0a95,
    }
}

/// Receiver half of one incoming link plus the last cumulative ack floor
/// advertised on it (the receive prefix the last snapshot recorded),
/// re-sent when the far end retransmits below it.
#[derive(Debug, Default)]
struct RxLink {
    receiver: LinkReceiver<Frame>,
    acked_floor: u64,
}

/// The way out of an engine: loss injection, the wire-write tallies, and
/// the outbox itself. Split from the link maps so a sweep over the senders
/// can transmit as it goes.
#[derive(Debug)]
struct Wire {
    drop_probability: f64,
    rng: StdRng,
    out: Vec<Transmission>,
    frames_sent: u64,
    frames_dropped: u64,
    /// Frames per wire write (1 for [`LinkBody::Data`], the run length
    /// for [`LinkBody::DataBatch`]).
    batch_sizes: BTreeMap<usize, u64>,
}

impl Wire {
    /// Puts one frame (or one coalesced run) in the outbox, possibly
    /// dropping it — loss applies per wire write, one `gen_bool` each, so
    /// a dropped batch loses all its frames at once (each recovers
    /// individually via retransmission).
    fn transmit(&mut self, to: Peer, link: u32, seq: u64, body: LinkBody) {
        let frames = match &body {
            LinkBody::Data(_) => 1,
            LinkBody::DataBatch(frames) => frames.len(),
            _ => 0,
        };
        if frames > 0 {
            self.frames_sent += frames as u64;
            *self.batch_sizes.entry(frames).or_insert(0) += 1;
        }
        if self.drop_probability > 0.0 && self.rng.gen_bool(self.drop_probability) {
            self.frames_dropped += 1;
            return;
        }
        self.out.push(Transmission {
            to,
            link,
            seq,
            body,
        });
    }
}

/// Reliable-link state for one party: senders, receivers, ack floors, the
/// staging area that withholds a sequencing node's output until a snapshot
/// records it, and the outbox. See the module docs.
#[derive(Debug)]
pub struct LinkEngine {
    me: Peer,
    /// Sequencing nodes defer acks to snapshot time (cumulative
    /// [`LinkBody::AckThrough`]); hosts and publishers never crash and
    /// ack every data frame immediately.
    defer_acks: bool,
    timeout: Duration,
    cap: Duration,
    coalesce: bool,
    senders: BTreeMap<u32, LinkSender<Frame>>,
    receivers: BTreeMap<u32, RxLink>,
    /// How many output frames are registered with their link senders but
    /// held back; they leave the party only after the next snapshot.
    staged: usize,
    wire: Wire,
    /// Reusable scratch — coalesced runs, retransmission sweeps — so
    /// steady-state housekeeping performs no allocation.
    single_scratch: Vec<(u64, Frame)>,
    run_scratch: Vec<(u64, Vec<Frame>)>,
    due_scratch: Vec<(u64, Frame)>,
}

impl LinkEngine {
    /// An engine for party `me`. `defer_acks` selects the group-commit
    /// discipline (sequencing nodes) over immediate acks (hosts and
    /// publishers). Retransmission timing, coalescing, the loss
    /// probability and the loss-injection seed come from `config`.
    pub fn new(me: Peer, defer_acks: bool, config: &ClusterConfig) -> Self {
        LinkEngine {
            me,
            defer_acks,
            timeout: config.retransmit_timeout,
            cap: config.backoff_cap,
            coalesce: config.coalesce,
            senders: BTreeMap::new(),
            receivers: BTreeMap::new(),
            staged: 0,
            wire: Wire {
                drop_probability: config.drop_probability,
                rng: StdRng::seed_from_u64(party_seed(config.seed, me)),
                out: Vec::new(),
                frames_sent: 0,
                frames_dropped: 0,
                batch_sizes: BTreeMap::new(),
            },
            single_scratch: Vec::new(),
            run_scratch: Vec::new(),
            due_scratch: Vec::new(),
        }
    }

    /// The party this engine belongs to.
    pub fn me(&self) -> Peer {
        self.me
    }

    fn sender_for(&mut self, link: u32) -> &mut LinkSender<Frame> {
        let (timeout, cap) = (self.timeout, self.cap);
        self.senders
            .entry(link)
            .or_insert_with(|| LinkSender::with_backoff(timeout, cap))
    }

    /// Drains the pending transmissions for the shell to route. The
    /// outbox keeps its capacity.
    pub fn drain_outbox(&mut self) -> std::vec::Drain<'_, Transmission> {
        self.wire.out.drain(..)
    }

    /// Sends `data` over the reliable link `me -> to`, transmitting
    /// immediately. Used by publishers, which never crash.
    pub fn send_data(&mut self, topo: &Topology, to: Peer, data: Frame) {
        let link = topo.link_between(self.me, to);
        let (seq, payload) = self.sender_for(link).send(data);
        self.wire.transmit(to, link, seq, LinkBody::Data(payload));
    }

    /// Registers `data` on the reliable link `me -> to` but *stages* it:
    /// the frame owns its sequence number and will appear in the next
    /// snapshot, yet reaches the outbox only via
    /// [`flush_staged`](Self::flush_staged) (after that snapshot is
    /// durable). Used by sequencing nodes.
    pub fn send_data_held(&mut self, topo: &Topology, to: Peer, data: Frame) {
        let link = topo.link_between(self.me, to);
        self.sender_for(link).send_held(data);
        self.staged += 1;
    }

    /// Staged frames currently withheld.
    pub fn staged_len(&self) -> usize {
        self.staged
    }

    /// Transmits all staged frames, link by link in sequence order, and
    /// hands them to the normal retransmission schedule. Call only after
    /// the snapshot recording them has been stored. With
    /// [`ClusterConfig::coalesce`] set, a maximal run of consecutive
    /// sequence numbers (in practice everything a link staged since the
    /// last flush) leaves as one [`LinkBody::DataBatch`]; a run of one,
    /// or any frame when coalescing is off, as a plain
    /// [`LinkBody::Data`].
    pub fn flush_staged(&mut self, topo: &Topology) {
        self.staged = 0;
        let now = Instant::now();
        for (&link, sender) in &mut self.senders {
            sender.release_held_wire_at(now, &mut self.single_scratch, &mut self.run_scratch);
            let (_, to) = topo.links[link as usize];
            // Merge the two streams back into sequence order, so the
            // receiver sees an in-order wire and never has to buffer.
            let mut singles = self.single_scratch.drain(..).peekable();
            for (first, frames) in self.run_scratch.drain(..) {
                while let Some((seq, data)) = singles.next_if(|&(seq, _)| seq < first) {
                    self.wire.transmit(to, link, seq, LinkBody::Data(data));
                }
                if self.coalesce {
                    self.wire
                        .transmit(to, link, first, LinkBody::DataBatch(frames));
                } else {
                    for (seq, data) in (first..).zip(frames) {
                        self.wire.transmit(to, link, seq, LinkBody::Data(data));
                    }
                }
            }
            for (seq, data) in singles {
                self.wire.transmit(to, link, seq, LinkBody::Data(data));
            }
        }
    }

    /// Handles an incoming link frame, appending in-order data payloads to
    /// the caller-owned `out` buffer; returns how many were appended. The
    /// shells reuse one buffer across all arrivals, so the in-order steady
    /// state processes a frame without touching the allocator.
    ///
    /// `link` and `seq` come off a wire: a frame whose link id is outside
    /// the table, whose direction does not end at this party, or whose
    /// batch would run past `u64::MAX` is discarded.
    pub fn on_link(
        &mut self,
        topo: &Topology,
        link: u32,
        seq: u64,
        body: LinkBody,
        out: &mut Vec<Frame>,
    ) -> usize {
        let Some((from, to)) = body.endpoints(topo, link) else {
            return 0;
        };
        if to != self.me {
            return 0;
        }
        match body {
            LinkBody::Ack => {
                if let Some(sender) = self.senders.get_mut(&link) {
                    sender.acknowledge(seq);
                }
                0
            }
            LinkBody::AckThrough => {
                if let Some(sender) = self.senders.get_mut(&link) {
                    sender.acknowledge_through(seq);
                }
                0
            }
            LinkBody::Heartbeat => 0,
            LinkBody::Data(data) => {
                if self.defer_acks {
                    self.readvertise_if_stale(from, link, seq);
                } else {
                    // Acknowledge every data frame, duplicates included.
                    self.wire.transmit(from, link, seq, LinkBody::Ack);
                }
                let rx = self.receivers.entry(link).or_default();
                rx.receiver.receive_into(seq, data, out)
            }
            LinkBody::DataBatch(frames) => {
                let Some(last) = (frames.len() as u64)
                    .checked_sub(1)
                    .and_then(|span| seq.checked_add(span))
                else {
                    return 0;
                };
                if self.defer_acks {
                    self.readvertise_if_stale(from, link, last);
                }
                let rx = self.receivers.entry(link).or_default();
                let released = rx.receiver.receive_batch_into(seq, frames, out);
                let floor = rx.receiver.next_expected() - 1;
                if !self.defer_acks && floor > 0 {
                    // One cumulative ack covers the whole wire batch (and
                    // any earlier frames it released).
                    self.wire.transmit(from, link, floor, LinkBody::AckThrough);
                }
                released
            }
        }
    }

    /// Deferred acks send nothing before a snapshot covers the frame. But
    /// a sender whose frames through `last` all sit below the snapshotted
    /// floor missed the cumulative ack (or was restored from an old
    /// checkpoint): re-advertise the floor.
    fn readvertise_if_stale(&mut self, from: Peer, link: u32, last: u64) {
        if let Some(rx) = self.receivers.get(&link) {
            if last < rx.receiver.next_expected() && rx.acked_floor > 0 {
                self.wire
                    .transmit(from, link, rx.acked_floor, LinkBody::AckThrough);
            }
        }
    }

    /// Emits a heartbeat on the outgoing link `link` to `to`.
    pub fn heartbeat(&mut self, to: Peer, link: u32) {
        self.wire.transmit(to, link, 0, LinkBody::Heartbeat);
    }

    /// Retransmits overdue frames on all outgoing links. Runs every tick
    /// on every party, so with nothing due — the healthy steady state —
    /// it reads the clock, compares it with each link's cached deadline,
    /// and neither walks a retransmission buffer nor allocates.
    pub fn retransmit_due(&mut self, topo: &Topology) {
        let now = Instant::now();
        for (&link, sender) in &mut self.senders {
            sender.due_at_into(now, &mut self.due_scratch);
            let (_, to) = topo.links[link as usize];
            for (seq, data) in self.due_scratch.drain(..) {
                self.wire.transmit(to, link, seq, LinkBody::Data(data));
            }
        }
    }

    /// When [`retransmit_due`](Self::retransmit_due) could next find
    /// something to do — the earliest of the links' cached deadlines (a
    /// lower bound, see [`LinkSender::next_deadline`]) — or `None` while
    /// nothing unstaged awaits an acknowledgment. A shell that sleeps
    /// wakes no later than this.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.senders
            .values()
            .filter_map(LinkSender::next_deadline)
            .min()
    }

    /// Replays the unacknowledged (non-staged) suffix of every link whose
    /// destination satisfies `reconnected`, exactly once per connection
    /// `epoch` — called by a shell whose transport to those parties was
    /// (re)established, so a respawned or reconnected peer receives the
    /// retransmission-buffer contents immediately instead of waiting out
    /// the backoff schedule. Channels never disconnect, so the threaded
    /// shell never calls it.
    pub fn reconnect_replay_to(
        &mut self,
        topo: &Topology,
        epoch: u64,
        reconnected: impl Fn(Peer) -> bool,
    ) {
        let now = Instant::now();
        for (&link, sender) in &mut self.senders {
            let (_, to) = topo.links[link as usize];
            if !reconnected(to) {
                continue;
            }
            for (seq, data) in sender.reconnect_replay_at(epoch, now) {
                self.wire.transmit(to, link, seq, LinkBody::Data(data));
            }
        }
    }

    /// Sends a cumulative ack to `to` covering everything through
    /// `through` on the incoming link `to -> me`, and caches the new floor
    /// for stale-frame re-advertisement. Executes the protocol core's
    /// `Command::Ack` — the core has already decided the floor actually
    /// advanced.
    pub fn send_ack_through(&mut self, topo: &Topology, to: Peer, through: u64) {
        let link = topo.link_between(to, self.me);
        self.receivers.entry(link).or_default().acked_floor = through;
        self.wire.transmit(to, link, through, LinkBody::AckThrough);
    }

    /// Per upstream peer, the next in-order sequence number expected right
    /// now, sorted by peer — what an `Event::SnapshotTaken` reports for a
    /// snapshot taken at this instant.
    pub fn rx_next_by_peer(&self, topo: &Topology) -> Vec<(Peer, u64)> {
        let mut by_peer: Vec<(Peer, u64)> = self
            .receivers
            .iter()
            .map(|(&link, rx)| (topo.links[link as usize].0, rx.receiver.next_expected()))
            .collect();
        by_peer.sort_unstable();
        by_peer
    }

    /// Writes the durable link state into `snap`, reusing its allocations:
    /// the link set is fixed per topology, so after the first checkpoint
    /// the vectors are rebuilt in place (aside from cloning the
    /// unacknowledged frames themselves).
    pub fn snapshot_links_into(&self, snap: &mut LinkSnapshot) {
        snap.rx_next.clear();
        snap.rx_next.extend(
            self.receivers
                .iter()
                .map(|(&link, rx)| (link, rx.receiver.next_expected())),
        );
        snap.tx.resize_with(self.senders.len(), Default::default);
        for (slot, (&link, sender)) in snap.tx.iter_mut().zip(&self.senders) {
            slot.link = link;
            slot.frames.clear();
            slot.next_seq = sender.snapshot_into(&mut slot.frames);
        }
    }

    /// Rebuilds link state from a snapshot. Restored output frames are
    /// immediately due for retransmission (the peer may never have seen
    /// them); the acked floors match what the snapshot had advertised.
    ///
    /// # Errors
    ///
    /// [`UnknownLink`] — and no state change — if the snapshot names a
    /// link outside the table or one this party does not terminate in
    /// that direction.
    pub fn restore_links(
        &mut self,
        topo: &Topology,
        snap: &LinkSnapshot,
    ) -> Result<(), UnknownLink> {
        // Each named link, paired with the end of it that must be us.
        let ends = |link: u32| topo.links.get(link as usize).copied();
        let incoming = snap
            .rx_next
            .iter()
            .map(|&(link, _)| (link, ends(link).map(|e| e.1)));
        let outgoing = snap
            .tx
            .iter()
            .map(|tx| (tx.link, ends(tx.link).map(|e| e.0)));
        if let Some((link, _)) = incoming
            .chain(outgoing)
            .find(|&(_, end)| end != Some(self.me))
        {
            return Err(UnknownLink(link));
        }
        for &(link, next) in &snap.rx_next {
            self.receivers.insert(
                link,
                RxLink {
                    receiver: LinkReceiver::resume(next),
                    acked_floor: next.saturating_sub(1),
                },
            );
        }
        let now = Instant::now();
        for tx in &snap.tx {
            self.senders.insert(
                tx.link,
                LinkSender::resume_at(self.timeout, self.cap, tx.next_seq, tx.frames.clone(), now),
            );
        }
        Ok(())
    }

    /// The engine's counters. Retransmissions and duplicates are summed
    /// over the links here, when read, not maintained per frame.
    pub fn counters(&self) -> LinkCounters {
        LinkCounters {
            frames_sent: self.wire.frames_sent,
            frames_dropped: self.wire.frames_dropped,
            retransmissions: self.senders.values().map(|s| s.retransmissions()).sum(),
            duplicates: self
                .receivers
                .values()
                .map(|rx| rx.receiver.duplicates())
                .sum(),
        }
    }

    /// Wire-write size tally: how many data transmissions carried each
    /// frame count (1 for [`LinkBody::Data`], the run length for
    /// [`LinkBody::DataBatch`]).
    pub fn batch_sizes(&self) -> &BTreeMap<usize, u64> {
        &self.wire.batch_sizes
    }
}
