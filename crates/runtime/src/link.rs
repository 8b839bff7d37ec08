//! Reliable FIFO links over lossy transports.
//!
//! Implements the per-link halves of the paper's §3.1 sequencer state:
//! "an output retransmission buffer for each subsequent sequencer" and "a
//! buffer to store received messages from previous sequencers". Frames
//! carry link-level sequence numbers; the receiver acknowledges every frame
//! and releases payloads strictly in order (reordering and deduplicating),
//! while the sender retransmits frames that stay unacknowledged past a
//! timeout, doubling the per-frame retry interval up to a cap so long
//! outages do not turn into retransmit storms. Together the two halves turn
//! a lossy, order-preserving-or-not transport into the reliable FIFO
//! channel the protocol assumes.
//!
//! The sender's retransmission buffer doubles as the recovery log for a
//! crashed peer: [`LinkSender::snapshot_into`] / [`LinkSender::resume`] and
//! [`LinkReceiver::resume`] let a node checkpoint both halves of every
//! link and rebuild them after a restart, while
//! [`LinkSender::acknowledge_through`] lets the recovering side confirm a
//! whole prefix with a single cumulative ack.
//!
//! Every operation that arms a retransmission timer has an `_at` form
//! taking the clock reading; the forms without read the clock themselves.
//! The sender caches a lower bound on its earliest timer
//! ([`LinkSender::next_deadline`]): a sweep before it returns without
//! looking at a frame, and a shell can sleep until it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-frame retransmission state: the payload plus its backoff schedule.
#[derive(Debug, Clone)]
struct Pending<T> {
    payload: T,
    /// Earliest instant at which the frame may be retransmitted.
    next_due: Instant,
    /// Current backoff interval; doubles on every retransmission up to
    /// the sender's cap.
    interval: Duration,
    /// Held frames are registered (they own a sequence number and appear
    /// in snapshots) but are exempt from retransmission until released.
    held: bool,
}

/// The earlier of a deadline that may not exist yet and one that does.
fn earlier(known: Option<Instant>, due: Instant) -> Instant {
    known.map_or(due, |known| known.min(due))
}

/// Sender half of a reliable FIFO link: assigns link sequence numbers and
/// keeps unacknowledged frames for retransmission with capped exponential
/// backoff.
///
/// # Example
///
/// ```
/// use seqnet_runtime::{LinkSender, LinkReceiver};
/// use std::time::Duration;
///
/// let mut tx = LinkSender::<&str>::new(Duration::from_millis(5));
/// let mut rx = LinkReceiver::<&str>::new();
/// let (seq1, _) = tx.send("a");
/// let (seq2, payload2) = tx.send("b");
/// // Released payloads land in a buffer the caller owns and reuses.
/// let mut out = Vec::new();
/// // "a" is lost in transit; "b" arrives first and is buffered.
/// assert_eq!(rx.receive_into(seq2, payload2, &mut out), 0);
/// // The retransmitted "a" releases both, in order.
/// assert_eq!(rx.receive_into(seq1, "a", &mut out), 2);
/// assert_eq!(out, vec!["a", "b"]);
/// // One cumulative ack clears the whole prefix.
/// tx.acknowledge_through(seq2);
/// assert_eq!(tx.unacked(), 0);
/// ```
#[derive(Debug)]
pub struct LinkSender<T> {
    next_seq: u64,
    unacked: BTreeMap<u64, Pending<T>>,
    /// Initial retransmission timeout (backoff starting interval).
    timeout: Duration,
    /// Upper bound on the per-frame backoff interval.
    cap: Duration,
    retransmissions: u64,
    /// Highest connection epoch for which a reconnect replay burst has
    /// been issued (0 = never). Guards against duplicate bursts when a
    /// transport flaps faster than acks come back.
    last_replay_epoch: u64,
    /// A lower bound on the `next_due` of every unheld pending frame;
    /// `None` when no such frame has been registered since the bound was
    /// last exact. Arming a timer lowers it, a sweep that runs recomputes
    /// it, and an acknowledgment leaves it alone — so it may lie earlier
    /// than the true minimum, never later.
    earliest_due: Option<Instant>,
}

impl<T: Clone> LinkSender<T> {
    /// Creates a sender with a fixed retransmission interval (the backoff
    /// cap equals the timeout, so the interval never grows).
    pub fn new(timeout: Duration) -> Self {
        Self::with_backoff(timeout, timeout)
    }

    /// Creates a sender whose per-frame retransmission interval starts at
    /// `timeout` and doubles after every retransmission, capped at `cap`.
    /// A `cap` below `timeout` is clamped up to `timeout`.
    pub fn with_backoff(timeout: Duration, cap: Duration) -> Self {
        LinkSender {
            next_seq: 1,
            unacked: BTreeMap::new(),
            timeout,
            cap: cap.max(timeout),
            retransmissions: 0,
            last_replay_epoch: 0,
            earliest_due: None,
        }
    }

    /// Rebuilds a sender from snapshot state: the next fresh sequence
    /// number and the frames that were unacknowledged at snapshot time.
    /// Restored frames are immediately due for retransmission, since the
    /// peer may never have received them.
    pub fn resume(timeout: Duration, cap: Duration, next_seq: u64, frames: Vec<(u64, T)>) -> Self {
        Self::resume_at(timeout, cap, next_seq, frames, Instant::now())
    }

    /// [`resume`](Self::resume) at clock reading `now`.
    pub fn resume_at(
        timeout: Duration,
        cap: Duration,
        next_seq: u64,
        frames: Vec<(u64, T)>,
        now: Instant,
    ) -> Self {
        let mut sender = Self::with_backoff(timeout, cap);
        sender.next_seq = next_seq.max(1);
        sender.earliest_due = (!frames.is_empty()).then_some(now);
        for (seq, payload) in frames {
            sender.unacked.insert(
                seq,
                Pending {
                    payload,
                    next_due: now,
                    interval: sender.timeout,
                    held: false,
                },
            );
        }
        sender
    }

    /// Registers a fresh payload for transmission; returns its link
    /// sequence number and a clone to put on the wire.
    pub fn send(&mut self, payload: T) -> (u64, T) {
        self.send_at(payload, Instant::now(), false)
    }

    /// Registers a payload but *holds* it: the frame owns a sequence
    /// number and appears in [`snapshot_into`](Self::snapshot_into), yet is exempt
    /// from retransmission until
    /// [`release_held_wire`](Self::release_held_wire).
    /// Used to keep output frames from escaping a node before the
    /// snapshot that contains them is taken.
    pub fn send_held(&mut self, payload: T) -> (u64, T) {
        self.send_at(payload, Instant::now(), true)
    }

    /// [`send`](Self::send) (or, with `held`, [`send_held`](Self::send_held))
    /// at clock reading `now`.
    pub fn send_at(&mut self, payload: T, now: Instant, held: bool) -> (u64, T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if !held {
            self.arm(now + self.timeout);
        }
        self.unacked.insert(
            seq,
            Pending {
                payload: payload.clone(),
                next_due: now + self.timeout,
                interval: self.timeout,
                held,
            },
        );
        (seq, payload)
    }

    /// Releases all held frames into the normal retransmission schedule,
    /// restarting their timers from now, and hands them back for the
    /// wire, grouped into maximal runs of consecutive
    /// sequence numbers, split by wire shape — a run of one is appended to
    /// `singles` as a bare `(seq, payload)` pair, a longer run to `runs`
    /// as `(first_seq, payloads)`, meant to go on the wire as **one**
    /// write instead of one per frame. Both buffers are caller-owned and
    /// filled in sequence order within themselves. Under the group-commit
    /// discipline every data frame between two flushes is held, so in
    /// practice a flush yields a single run per link.
    ///
    /// Coalescing changes transport framing only: each frame keeps its
    /// own sequence number, retransmission entry, and backoff schedule
    /// (retransmissions go out individually), and cumulative
    /// [`acknowledge_through`](Self::acknowledge_through) covers a run
    /// exactly as it covers singles.
    ///
    /// At low offered load nearly every flush releases exactly one frame
    /// per link, and boxing that frame in a one-element vector would make
    /// the allocator part of the per-message steady state; multi-frame
    /// runs pay one vector each, amortized across their frames.
    pub fn release_held_wire(
        &mut self,
        singles: &mut Vec<(u64, T)>,
        runs: &mut Vec<(u64, Vec<T>)>,
    ) {
        self.release_held_wire_at(Instant::now(), singles, runs);
    }

    /// [`release_held_wire`](Self::release_held_wire) at clock reading
    /// `now`.
    pub fn release_held_wire_at(
        &mut self,
        now: Instant,
        singles: &mut Vec<(u64, T)>,
        runs: &mut Vec<(u64, Vec<T>)>,
    ) {
        let mut released = false;
        let mut pending_single: Option<(u64, T)> = None;
        let mut cur_run: Option<(u64, Vec<T>)> = None;
        let mut prev_seq: Option<u64> = None;
        for (&seq, pending) in self.unacked.iter_mut() {
            if !pending.held {
                continue;
            }
            pending.held = false;
            pending.interval = self.timeout;
            pending.next_due = now + self.timeout;
            released = true;
            let payload = pending.payload.clone();
            if prev_seq == Some(seq.wrapping_sub(1)) {
                // Continues the current run: a buffered single upgrades
                // to a materialized run, an existing run extends.
                if let Some((first, single)) = pending_single.take() {
                    let mut v = Vec::with_capacity(4);
                    v.push(single);
                    v.push(payload);
                    cur_run = Some((first, v));
                } else if let Some((_, run)) = cur_run.as_mut() {
                    run.push(payload);
                }
            } else {
                if let Some(s) = pending_single.take() {
                    singles.push(s);
                }
                if let Some(r) = cur_run.take() {
                    runs.push(r);
                }
                pending_single = Some((seq, payload));
            }
            prev_seq = Some(seq);
        }
        if let Some(s) = pending_single.take() {
            singles.push(s);
        }
        if let Some(r) = cur_run.take() {
            runs.push(r);
        }
        if released {
            self.arm(now + self.timeout);
        }
    }

    /// Lowers the cached deadline to cover a timer armed for `due`.
    fn arm(&mut self, due: Instant) {
        self.earliest_due = Some(earlier(self.earliest_due, due));
    }

    /// When the next retransmission sweep could find something to do, or
    /// `None` if it could not: no unheld frame is pending. The instant is
    /// a lower bound — acknowledgments do not move it, so it may lie
    /// before the earliest timer actually still armed, never after it. A
    /// sweep before it is a no-op; a sweep at or after it makes it exact.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.earliest_due
    }

    /// Processes an acknowledgment: drops the frame from the buffer.
    /// Duplicate acks are ignored.
    pub fn acknowledge(&mut self, seq: u64) {
        self.unacked.remove(&seq);
        self.disarm_if_empty();
    }

    /// With nothing left to retransmit there is no deadline — the one
    /// case where an acknowledgment makes the cached bound exact for free.
    fn disarm_if_empty(&mut self) {
        if self.unacked.is_empty() {
            self.earliest_due = None;
        }
    }

    /// Cumulative acknowledgment: drops every frame with sequence number
    /// `<= seq` in O(log n), so a recovering receiver can confirm a whole
    /// prefix without one ack per frame.
    pub fn acknowledge_through(&mut self, seq: u64) {
        match seq.checked_add(1) {
            Some(bound) => {
                self.unacked = self.unacked.split_off(&bound);
            }
            None => self.unacked.clear(),
        }
        self.disarm_if_empty();
    }

    /// Appends the frames due for retransmission (unacknowledged past
    /// their per-frame backoff deadline) to the caller-owned `due`,
    /// doubling each one's interval up to the cap and rescheduling it.
    /// The common case — a healthy link with nothing due — touches the
    /// allocator not at all, which matters because every party polls
    /// every sender each tick.
    pub fn due_for_retransmit_into(&mut self, due: &mut Vec<(u64, T)>) {
        self.due_at_into(Instant::now(), due);
    }

    /// [`due_for_retransmit_into`](Self::due_for_retransmit_into) at clock
    /// reading `now`. Before [`next_deadline`](Self::next_deadline) no
    /// frame can be due and the buffer is not walked; otherwise the walk
    /// also recomputes the deadline exactly.
    pub fn due_at_into(&mut self, now: Instant, due: &mut Vec<(u64, T)>) {
        if self.earliest_due.is_none_or(|earliest| now < earliest) {
            return;
        }
        let before = due.len();
        let mut earliest = None::<Instant>;
        for (&seq, pending) in self.unacked.iter_mut() {
            if pending.held {
                continue;
            }
            if now >= pending.next_due {
                pending.interval = pending
                    .interval
                    .checked_mul(2)
                    .unwrap_or(self.cap)
                    .min(self.cap);
                pending.next_due = now + pending.interval;
                due.push((seq, pending.payload.clone()));
            }
            earliest = Some(earlier(earliest, pending.next_due));
        }
        self.earliest_due = earliest;
        self.retransmissions += (due.len() - before) as u64;
    }

    /// Replays the retransmission buffer after a transport reconnect:
    /// returns every unacknowledged, unheld frame — i.e. everything past
    /// the last acknowledged frame — **exactly once per connection
    /// epoch**, restarting each frame's backoff at the base timeout.
    ///
    /// The caller assigns a strictly increasing `epoch` to every newly
    /// established connection. A transport that flaps rapidly (connect,
    /// drop, reconnect before any ack returns) presents a *new* epoch each
    /// time but the buffer contents barely change; the epoch guard ensures
    /// a repeated call for an already-replayed epoch contributes nothing,
    /// and per-frame backoff (not the reconnect path) covers frames lost
    /// between two replays. Without the guard every reconnect event —
    /// including spurious duplicate notifications for the same socket —
    /// would re-burst the full buffer onto a link that is already
    /// retransmitting it.
    pub fn reconnect_replay(&mut self, epoch: u64) -> Vec<(u64, T)> {
        self.reconnect_replay_at(epoch, Instant::now())
    }

    /// [`reconnect_replay`](Self::reconnect_replay) at clock reading `now`.
    pub fn reconnect_replay_at(&mut self, epoch: u64, now: Instant) -> Vec<(u64, T)> {
        if epoch <= self.last_replay_epoch {
            return Vec::new();
        }
        self.last_replay_epoch = epoch;
        let mut burst = Vec::new();
        for (&seq, pending) in self.unacked.iter_mut() {
            if pending.held {
                continue;
            }
            pending.interval = self.timeout;
            pending.next_due = now + self.timeout;
            burst.push((seq, pending.payload.clone()));
        }
        // Every unheld frame now carries the same timer.
        self.earliest_due = (!burst.is_empty()).then_some(now + self.timeout);
        self.retransmissions += burst.len() as u64;
        burst
    }

    /// Number of frames awaiting acknowledgment.
    pub fn unacked(&self) -> usize {
        self.unacked.len()
    }

    /// Total retransmissions performed.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Exports the durable sender state for a checkpoint: appends every
    /// unacknowledged frame (held frames included — that is the point),
    /// in sequence order, to the caller-owned `frames` and returns the
    /// next fresh sequence number. Lets a periodic checkpointer reuse one
    /// buffer per link instead of allocating a vector every interval.
    pub fn snapshot_into(&self, frames: &mut Vec<(u64, T)>) -> u64 {
        frames.extend(
            self.unacked
                .iter()
                .map(|(&seq, pending)| (seq, pending.payload.clone())),
        );
        self.next_seq
    }
}

/// Receiver half of a reliable FIFO link: reorders by link sequence number,
/// releases payloads strictly in order, and drops duplicates.
#[derive(Debug)]
pub struct LinkReceiver<T> {
    next_expected: u64,
    buffer: BTreeMap<u64, T>,
    duplicates: u64,
}

impl<T> Default for LinkReceiver<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LinkReceiver<T> {
    /// Creates a receiver expecting sequence number 1.
    pub fn new() -> Self {
        Self::resume(1)
    }

    /// Rebuilds a receiver from snapshot state: frames below
    /// `next_expected` were already released before the checkpoint and
    /// will be treated as duplicates if they arrive again.
    pub fn resume(next_expected: u64) -> Self {
        LinkReceiver {
            next_expected: next_expected.max(1),
            buffer: BTreeMap::new(),
            duplicates: 0,
        }
    }

    /// Accepts a frame: appends the payloads that become releasable, in
    /// FIFO order, to the caller-owned `out` and returns how many were
    /// appended. Duplicates (already released or already buffered) are
    /// counted and dropped; the caller should still acknowledge them so
    /// the sender stops retransmitting. In-order arrivals — the steady
    /// state of a healthy link — bypass the reorder buffer entirely, so
    /// the hot path performs no allocation and no `BTreeMap` traffic.
    pub fn receive_into(&mut self, seq: u64, payload: T, out: &mut Vec<T>) -> usize {
        if seq < self.next_expected || self.buffer.contains_key(&seq) {
            self.duplicates += 1;
            return 0;
        }
        let mut released = 0;
        if seq == self.next_expected {
            self.next_expected += 1;
            out.push(payload);
            released += 1;
        } else {
            self.buffer.insert(seq, payload);
        }
        while let Some(payload) = self.buffer.remove(&self.next_expected) {
            self.next_expected += 1;
            out.push(payload);
            released += 1;
        }
        released
    }

    /// Accepts a coalesced run of frames carrying consecutive sequence
    /// numbers starting at `first_seq` (the unit
    /// [`LinkSender::release_held_wire`] puts on the wire): appends the
    /// payloads that become releasable, in FIFO order, to the caller-owned
    /// `out` and returns how many were appended. Exactly equivalent to
    /// calling [`receive_into`](Self::receive_into) once per frame;
    /// per-frame duplicate detection still applies, so a partially
    /// retransmitted run is deduplicated frame by frame. The caller
    /// guarantees `first_seq + len - 1` does not overflow.
    pub fn receive_batch_into(
        &mut self,
        first_seq: u64,
        payloads: impl IntoIterator<Item = T>,
        out: &mut Vec<T>,
    ) -> usize {
        let mut released = 0;
        for (offset, payload) in payloads.into_iter().enumerate() {
            released += self.receive_into(first_seq + offset as u64, payload, out);
        }
        released
    }

    /// The next in-order sequence number this receiver will release.
    /// Everything strictly below it has been handed to the application,
    /// so `next_expected() - 1` is the cumulative-ack floor a checkpoint
    /// should record.
    pub fn next_expected(&self) -> u64 {
        self.next_expected
    }

    /// Frames buffered waiting for a gap to fill.
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }

    /// Duplicate frames observed (a proxy for retransmission pressure).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `Vec`-returning conveniences over the caller-buffer API.
    fn recv<T>(rx: &mut LinkReceiver<T>, seq: u64, payload: T) -> Vec<T> {
        let mut out = Vec::new();
        rx.receive_into(seq, payload, &mut out);
        out
    }

    fn recv_batch<T>(
        rx: &mut LinkReceiver<T>,
        first_seq: u64,
        payloads: impl IntoIterator<Item = T>,
    ) -> Vec<T> {
        let mut out = Vec::new();
        rx.receive_batch_into(first_seq, payloads, &mut out);
        out
    }

    fn due<T: Clone>(tx: &mut LinkSender<T>) -> Vec<(u64, T)> {
        due_at(tx, Instant::now())
    }

    fn due_at<T: Clone>(tx: &mut LinkSender<T>, now: Instant) -> Vec<(u64, T)> {
        let mut due = Vec::new();
        tx.due_at_into(now, &mut due);
        due
    }

    fn snapshot<T: Clone>(tx: &LinkSender<T>) -> (u64, Vec<(u64, T)>) {
        let mut frames = Vec::new();
        let next = tx.snapshot_into(&mut frames);
        (next, frames)
    }

    /// Releases the held frames as `(singles, runs)`.
    #[allow(clippy::type_complexity)]
    fn release_wire<T: Clone>(tx: &mut LinkSender<T>) -> (Vec<(u64, T)>, Vec<(u64, Vec<T>)>) {
        let (mut singles, mut runs) = (Vec::new(), Vec::new());
        tx.release_held_wire(&mut singles, &mut runs);
        (singles, runs)
    }

    #[test]
    fn in_order_stream_passes_through() {
        let mut rx = LinkReceiver::new();
        assert_eq!(recv(&mut rx, 1, "a"), vec!["a"]);
        assert_eq!(recv(&mut rx, 2, "b"), vec!["b"]);
        assert_eq!(rx.pending(), 0);
        assert_eq!(rx.next_expected(), 3);
    }

    #[test]
    fn reordering_is_fixed() {
        let mut rx = LinkReceiver::new();
        assert!(recv(&mut rx, 3, "c").is_empty());
        assert!(recv(&mut rx, 2, "b").is_empty());
        assert_eq!(rx.pending(), 2);
        assert_eq!(recv(&mut rx, 1, "a"), vec!["a", "b", "c"]);
    }

    #[test]
    fn duplicates_dropped_and_counted() {
        let mut rx = LinkReceiver::new();
        assert_eq!(recv(&mut rx, 1, "a"), vec!["a"]);
        assert!(recv(&mut rx, 1, "a").is_empty(), "already released");
        assert!(recv(&mut rx, 3, "c").is_empty());
        assert!(recv(&mut rx, 3, "c").is_empty(), "already buffered");
        assert_eq!(rx.duplicates(), 2);
    }

    #[test]
    fn sender_retransmits_after_timeout() {
        let mut tx = LinkSender::new(Duration::from_millis(1));
        let (s1, _) = tx.send("x");
        assert_eq!(tx.unacked(), 1);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(due(&mut tx), vec![(s1, "x")]);
        assert_eq!(tx.retransmissions(), 1);
        tx.acknowledge(s1);
        std::thread::sleep(Duration::from_millis(2));
        assert!(due(&mut tx).is_empty(), "acked frames stay quiet");
    }

    #[test]
    fn backoff_doubles_up_to_cap() {
        // Drive a synthetic clock so the schedule is deterministic.
        let base = Instant::now();
        let ms = Duration::from_millis;
        let mut tx = LinkSender::with_backoff(ms(10), ms(40));
        let (s1, _) = tx.send_at("x", base, false);

        // Not due before the initial timeout elapses.
        assert!(due_at(&mut tx, base + ms(9)).is_empty());
        // First retransmit at +10ms; interval doubles to 20ms.
        assert_eq!(due_at(&mut tx, base + ms(10)), vec![(s1, "x")]);
        assert!(due_at(&mut tx, base + ms(29)).is_empty());
        // Second at +30ms; interval doubles to 40ms (the cap).
        assert_eq!(due_at(&mut tx, base + ms(30)), vec![(s1, "x")]);
        assert!(due_at(&mut tx, base + ms(69)).is_empty());
        // Third at +70ms; interval stays pinned at the 40ms cap.
        assert_eq!(due_at(&mut tx, base + ms(70)), vec![(s1, "x")]);
        assert!(due_at(&mut tx, base + ms(109)).is_empty());
        assert_eq!(due_at(&mut tx, base + ms(110)), vec![(s1, "x")]);
        assert_eq!(tx.retransmissions(), 4);
    }

    #[test]
    fn deadline_bounds_the_earliest_timer_and_gates_the_sweep() {
        let base = Instant::now();
        let ms = Duration::from_millis;
        let mut tx = LinkSender::with_backoff(ms(10), ms(40));
        assert_eq!(tx.next_deadline(), None, "nothing pending, no deadline");
        tx.send_at("held", base, true);
        assert_eq!(tx.next_deadline(), None, "held frames arm no timer");
        let (s2, _) = tx.send_at("a", base + ms(1), false);
        let (s3, _) = tx.send_at("b", base + ms(2), false);
        assert_eq!(tx.next_deadline(), Some(base + ms(11)));

        // An ack leaves the bound alone: early, which is allowed.
        tx.acknowledge(s2);
        assert_eq!(tx.next_deadline(), Some(base + ms(11)));
        // A sweep at the stale bound finds nothing due and makes it exact.
        assert!(due_at(&mut tx, base + ms(11)).is_empty());
        assert_eq!(tx.next_deadline(), Some(base + ms(12)));
        // A sweep at the exact bound retransmits and re-arms.
        assert_eq!(due_at(&mut tx, base + ms(12)), vec![(s3, "b")]);
        assert_eq!(tx.next_deadline(), Some(base + ms(32)));

        // Releasing the held frame arms its timer; acking everything
        // disarms the sender.
        tx.release_held_wire_at(base + ms(13), &mut Vec::new(), &mut Vec::new());
        assert_eq!(tx.next_deadline(), Some(base + ms(23)));
        tx.acknowledge_through(s3);
        assert_eq!(tx.next_deadline(), None);
    }

    #[test]
    fn fixed_interval_when_cap_equals_timeout() {
        let base = Instant::now();
        let ms = Duration::from_millis;
        let mut tx = LinkSender::new(ms(10));
        let (s1, _) = tx.send_at("x", base, false);
        assert_eq!(due_at(&mut tx, base + ms(10)), vec![(s1, "x")]);
        assert_eq!(due_at(&mut tx, base + ms(20)), vec![(s1, "x")]);
        assert_eq!(due_at(&mut tx, base + ms(30)), vec![(s1, "x")]);
        assert_eq!(tx.retransmissions(), 3);
    }

    #[test]
    fn zero_timeout_is_always_due() {
        let mut tx = LinkSender::new(Duration::ZERO);
        let (s1, _) = tx.send("x");
        assert_eq!(due(&mut tx), vec![(s1, "x")]);
        assert_eq!(due(&mut tx), vec![(s1, "x")]);
    }

    #[test]
    fn acknowledge_through_clears_prefix() {
        let mut tx = LinkSender::new(Duration::from_secs(1));
        for i in 0..6 {
            tx.send(i);
        }
        tx.acknowledge_through(4);
        assert_eq!(tx.unacked(), 2);
        let (_, frames) = snapshot(&tx);
        let seqs: Vec<u64> = frames.iter().map(|&(s, _)| s).collect();
        assert_eq!(seqs, vec![5, 6]);
        tx.acknowledge_through(u64::MAX);
        assert_eq!(tx.unacked(), 0);
    }

    #[test]
    fn held_frames_skip_retransmission_until_released() {
        let mut tx = LinkSender::new(Duration::ZERO);
        let (s1, _) = tx.send_held("staged");
        assert!(due(&mut tx).is_empty(), "held frames must not escape");
        // Held frames still appear in snapshots.
        let (next_seq, frames) = snapshot(&tx);
        assert_eq!(next_seq, 2);
        assert_eq!(frames, vec![(s1, "staged")]);
        release_wire(&mut tx);
        assert_eq!(due(&mut tx), vec![(s1, "staged")]);
    }

    #[test]
    fn snapshot_resume_roundtrip() {
        let ms = Duration::from_millis;
        let mut tx = LinkSender::new(ms(5));
        tx.send("a");
        tx.send("b");
        tx.send("c");
        tx.acknowledge(1);
        let (next_seq, frames) = snapshot(&tx);
        assert_eq!(next_seq, 4);

        let mut revived = LinkSender::resume(Duration::ZERO, Duration::ZERO, next_seq, frames);
        assert_eq!(revived.unacked(), 2);
        // Restored frames are immediately due.
        assert_eq!(due(&mut revived), vec![(2, "b"), (3, "c")]);
        // Fresh sends continue the sequence space.
        assert_eq!(revived.send("d").0, 4);
    }

    #[test]
    fn receiver_resume_treats_prefix_as_released() {
        let mut rx = LinkReceiver::resume(3);
        assert!(recv(&mut rx, 1, "a").is_empty());
        assert!(recv(&mut rx, 2, "b").is_empty());
        assert_eq!(rx.duplicates(), 2);
        assert_eq!(recv(&mut rx, 3, "c"), vec!["c"]);
        assert_eq!(rx.next_expected(), 4);
    }

    #[test]
    fn ack_unknown_seq_is_noop() {
        let mut tx = LinkSender::<&str>::new(Duration::from_millis(1));
        tx.acknowledge(42);
        assert_eq!(tx.unacked(), 0);
    }

    #[test]
    fn sequence_numbers_are_consecutive() {
        let mut tx = LinkSender::new(Duration::from_secs(1));
        let seqs: Vec<u64> = (0..5).map(|i| tx.send(i).0).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn coalesced_release_yields_one_run_of_held_frames() {
        let mut tx = LinkSender::new(Duration::from_secs(1));
        for payload in ["a", "b", "c"] {
            tx.send_held(payload);
        }
        let (singles, runs) = release_wire(&mut tx);
        assert!(singles.is_empty());
        assert_eq!(runs, vec![(1, vec!["a", "b", "c"])]);
        assert_eq!(tx.unacked(), 3, "frames stay individually tracked");

        let mut rx = LinkReceiver::new();
        let (first, payloads) = runs.into_iter().next().unwrap();
        assert_eq!(recv_batch(&mut rx, first, payloads), vec!["a", "b", "c"]);
        assert_eq!(rx.next_expected(), 4);
    }

    #[test]
    fn coalesced_run_acks_through_on_run_boundary() {
        // Flush-on-ack-boundary: one cumulative ack for the run clears
        // exactly the run, leaving later frames untouched.
        let mut tx = LinkSender::new(Duration::from_secs(1));
        for payload in ["a", "b", "c"] {
            tx.send_held(payload);
        }
        let (_, runs) = release_wire(&mut tx);
        let (first, payloads) = runs.into_iter().next().unwrap();
        let last = first + payloads.len() as u64 - 1;
        tx.send("d"); // next flush window, not covered by the run's ack

        let mut rx = LinkReceiver::new();
        recv_batch(&mut rx, first, payloads);
        // The receiver's cumulative floor lands exactly on the run
        // boundary, and acking through it clears the run and nothing else.
        assert_eq!(rx.next_expected() - 1, last);
        tx.acknowledge_through(rx.next_expected() - 1);
        assert_eq!(tx.unacked(), 1);
        let (_, frames) = snapshot(&tx);
        assert_eq!(frames, vec![(4, "d")]);
    }

    #[test]
    fn interleaved_singles_split_coalesced_runs() {
        // A non-held send between two held groups breaks seq adjacency,
        // so the release yields a run and a bare single rather than one
        // bogus span.
        let mut tx = LinkSender::new(Duration::from_secs(1));
        tx.send_held("a");
        tx.send_held("b");
        let (s3, _) = tx.send("solo");
        tx.acknowledge(s3);
        tx.send_held("c");
        let (singles, runs) = release_wire(&mut tx);
        assert_eq!(runs, vec![(1, vec!["a", "b"])]);
        assert_eq!(singles, vec![(4, "c")], "a run of one stays unboxed");
    }

    #[test]
    fn coalesced_run_survives_snapshot_resume_cycle() {
        // A coalesced frame spanning a snapshot/resume cycle: the run is
        // flushed, the wire write is lost, and the sender crashes. The
        // resumed sender still carries every frame of the run individually
        // and retransmits them; the receiver reassembles the stream.
        let mut tx = LinkSender::new(Duration::from_millis(5));
        for payload in ["a", "b", "c"] {
            tx.send_held(payload);
        }
        let (singles, runs) = release_wire(&mut tx);
        assert_eq!((singles.len(), runs.len()), (0, 1), "one wire write");
        // ...which the network drops. Snapshot after the flush.
        let (next_seq, frames) = snapshot(&tx);
        assert_eq!(frames.len(), 3, "whole run in the snapshot");
        drop(tx);

        let mut revived = LinkSender::resume(Duration::ZERO, Duration::ZERO, next_seq, frames);
        let mut rx = LinkReceiver::new();
        let mut released = Vec::new();
        for (seq, payload) in due(&mut revived) {
            released.extend(recv(&mut rx, seq, payload));
        }
        assert_eq!(released, vec!["a", "b", "c"]);
        assert_eq!(revived.send("d").0, 4, "sequence space continues");
    }

    #[test]
    fn release_restarts_each_frames_backoff() {
        // Backoff interaction: a release arms the per-frame schedule of a
        // fresh send — first retry after the base timeout, then doubling
        // per frame up to the cap.
        let base = Instant::now();
        let ms = Duration::from_millis;
        let mut tx = LinkSender::with_backoff(ms(10), ms(40));
        tx.send_at("a", base, true);
        tx.send_at("b", base, true);
        let (_, runs) = release_wire(&mut tx);
        assert_eq!(runs, vec![(1, vec!["a", "b"])]);
        // Frames retransmit individually, on their own schedule. (The
        // release stamps next_due from the real clock, so poll with slack.)
        assert!(due_at(&mut tx, base + ms(9)).is_empty());
        let seqs: Vec<u64> = due_at(&mut tx, base + ms(19))
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(seqs, vec![1, 2]);
        // Interval doubled to 20ms after the first retransmission, and
        // from here the schedule is fully synthetic: next_due is 20ms
        // after the poll that retransmitted.
        assert!(due_at(&mut tx, base + ms(38)).is_empty());
        assert_eq!(due_at(&mut tx, base + ms(39)).len(), 2);
    }

    #[test]
    fn receive_batch_deduplicates_partially_retransmitted_runs() {
        let mut rx = LinkReceiver::new();
        assert_eq!(recv_batch(&mut rx, 1, ["a", "b"]), vec!["a", "b"]);
        // The same run arrives again (the batch write raced the ack) plus
        // one fresh frame: only the fresh frame is released.
        assert_eq!(recv_batch(&mut rx, 1, ["a", "b", "c"]), vec!["c"]);
        assert_eq!(rx.duplicates(), 2);
    }

    #[test]
    fn reconnect_replay_resends_from_last_ack_exactly_once_per_epoch() {
        let mut tx = LinkSender::new(Duration::from_secs(1));
        for payload in ["a", "b", "c", "d"] {
            tx.send(payload);
        }
        tx.acknowledge_through(2);

        // First reconnect: everything past the last acknowledged frame.
        assert_eq!(tx.reconnect_replay(1), vec![(3, "c"), (4, "d")]);
        // Regression: a duplicate notification for the same epoch (rapid
        // flap, double-reported reconnect) must not re-burst the buffer.
        assert!(tx.reconnect_replay(1).is_empty());
        assert!(tx.reconnect_replay(0).is_empty(), "stale epoch ignored");
        assert_eq!(tx.retransmissions(), 2, "one burst, not three");

        // A genuinely new connection epoch replays what is still unacked.
        tx.acknowledge(3);
        assert_eq!(tx.reconnect_replay(2), vec![(4, "d")]);
    }

    #[test]
    fn reconnect_replay_skips_held_frames_and_restarts_backoff() {
        let ms = Duration::from_millis;
        let mut tx = LinkSender::with_backoff(ms(10), ms(80));
        tx.send("wire");
        tx.send_held("staged");

        // Held frames must not escape via the reconnect path: nothing may
        // leave a node before the snapshot that contains it.
        assert_eq!(tx.reconnect_replay(1), vec![(1, "wire")]);

        // The replay restarted frame 1's backoff at the base timeout, so
        // it is not due again immediately after the burst.
        assert!(due(&mut tx).is_empty());
    }

    #[test]
    fn caller_buffers_are_only_ever_appended_to() {
        let mut rx = LinkReceiver::new();
        let mut out = vec!["sentinel"];
        assert_eq!(rx.receive_into(2, "b", &mut out), 0);
        assert_eq!(rx.receive_into(1, "a", &mut out), 2);
        assert_eq!(out, vec!["sentinel", "a", "b"]);
        assert_eq!(rx.receive_into(1, "a", &mut out), 0, "duplicate dropped");
        assert_eq!(rx.duplicates(), 1);
        out.clear();
        assert_eq!(rx.receive_batch_into(3, ["c", "d"], &mut out), 2);
        assert_eq!(out, vec!["c", "d"]);
        assert_eq!(rx.next_expected(), 5);

        let mut tx = LinkSender::new(Duration::from_secs(1));
        tx.send_held("a");
        tx.send_held("b");
        let mut singles = vec![(0, "sentinel")];
        let mut runs = vec![(0, vec!["sentinel"])];
        tx.release_held_wire(&mut singles, &mut runs);
        assert_eq!(singles, vec![(0, "sentinel")]);
        assert_eq!(runs, vec![(0, vec!["sentinel"]), (1, vec!["a", "b"])]);
        tx.release_held_wire(&mut singles, &mut runs);
        assert_eq!(runs.len(), 2, "second release finds nothing held");

        let mut tx = LinkSender::new(Duration::ZERO);
        let (s1, _) = tx.send("x");
        let mut due = vec![(0, "sentinel")];
        tx.due_for_retransmit_into(&mut due);
        assert_eq!(due, vec![(0, "sentinel"), (s1, "x")]);
        assert_eq!(tx.retransmissions(), 1);
    }

    #[test]
    fn release_held_wire_with_nothing_held_is_empty() {
        let mut tx = LinkSender::<&str>::new(Duration::from_secs(1));
        tx.send("solo");
        assert_eq!(release_wire(&mut tx), (Vec::new(), Vec::new()));
    }
}
