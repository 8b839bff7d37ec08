//! Property-based tests of the reliable-link layer: arbitrary loss,
//! duplication, and reordering of frames must yield exactly-once FIFO
//! release, and the sender's cached retransmission deadline must change
//! nothing but how often the retransmission buffer is walked.

use proptest::collection::vec;
use proptest::prelude::*;
use seqnet_runtime::{LinkReceiver, LinkSender};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What the adversary does to each transmission attempt.
#[derive(Debug, Clone, Copy)]
enum Fate {
    Deliver,
    Drop,
    Duplicate,
}

fn fate_strategy() -> impl Strategy<Value = Fate> {
    prop_oneof![
        3 => Just(Fate::Deliver),
        1 => Just(Fate::Drop),
        1 => Just(Fate::Duplicate),
    ]
}

/// One step of a sender's life, on a clock the test owns.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Let this many milliseconds pass.
    Advance(u64),
    Send,
    SendHeld,
    Release,
    /// Acknowledge the pending frame at this index (modulo how many there
    /// are), or a sequence number nobody holds when there are none.
    Ack(usize),
    /// Cumulatively acknowledge through the pending frame at this index.
    AckThrough(usize),
    Sweep,
    /// A reconnect: `true` presents a new connection epoch, `false`
    /// repeats the last one (a duplicate notification).
    Replay(bool),
    /// Crash and restore: snapshot the sender, rebuild it from that.
    Resume,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..25).prop_map(Op::Advance),
        4 => Just(Op::Send),
        2 => Just(Op::SendHeld),
        2 => Just(Op::Release),
        2 => (0usize..64).prop_map(Op::Ack),
        2 => (0usize..64).prop_map(Op::AckThrough),
        4 => Just(Op::Sweep),
        1 => any::<bool>().prop_map(Op::Replay),
        1 => Just(Op::Resume),
    ]
}

/// The retransmission schedule with no cache: per frame a timer, a
/// backoff interval and the held flag, and a sweep that walks all of it —
/// what `LinkSender` did before it kept a deadline, and the reference its
/// early-out is held to.
struct FullScan {
    timeout: Duration,
    cap: Duration,
    frames: BTreeMap<u64, (Instant, Duration, bool)>,
    last_replay_epoch: u64,
}

impl FullScan {
    fn arm(&mut self, seq: u64, now: Instant, held: bool) {
        self.frames
            .insert(seq, (now + self.timeout, self.timeout, held));
    }

    fn release(&mut self, now: Instant) -> Vec<u64> {
        let mut released = Vec::new();
        for (&seq, frame) in &mut self.frames {
            if frame.2 {
                *frame = (now + self.timeout, self.timeout, false);
                released.push(seq);
            }
        }
        released
    }

    fn sweep(&mut self, now: Instant) -> Vec<u64> {
        let mut due = Vec::new();
        for (&seq, (next_due, interval, held)) in &mut self.frames {
            if !*held && now >= *next_due {
                *interval = interval.checked_mul(2).unwrap_or(self.cap).min(self.cap);
                *next_due = now + *interval;
                due.push(seq);
            }
        }
        due
    }

    fn replay(&mut self, epoch: u64, now: Instant) -> Vec<u64> {
        if epoch <= self.last_replay_epoch {
            return Vec::new();
        }
        self.last_replay_epoch = epoch;
        let mut burst = Vec::new();
        for (&seq, frame) in &mut self.frames {
            if !frame.2 {
                *frame = (now + self.timeout, self.timeout, false);
                burst.push(seq);
            }
        }
        burst
    }

    /// The earliest timer actually armed.
    fn earliest(&self) -> Option<Instant> {
        self.frames
            .values()
            .filter(|&&(_, _, held)| !held)
            .map(|&(next_due, _, _)| next_due)
            .min()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Over any interleaving of everything a sender can be asked to do,
    /// its cached deadline never lies later than the earliest timer
    /// actually armed, and every sweep — early-out or not — returns the
    /// frames a walk of the whole buffer returns, in the same order, and
    /// leaves them rescheduled the same way (which the later sweeps of
    /// the same run, and the closing ones, observe).
    #[test]
    fn cached_deadline_is_a_lower_bound_and_the_sweep_is_unchanged(
        ops in vec(op_strategy(), 0..200),
        timeout_ms in 1u64..20,
        cap_factor in 1u32..6,
    ) {
        let timeout = Duration::from_millis(timeout_ms);
        let cap = timeout * cap_factor;
        let mut now = Instant::now();
        let mut tx = LinkSender::<u64>::with_backoff(timeout, cap);
        let mut model = FullScan {
            timeout,
            cap,
            frames: BTreeMap::new(),
            last_replay_epoch: 0,
        };
        let mut epoch = 0u64;
        let seqs = |frames: Vec<(u64, u64)>| frames.into_iter().map(|(s, _)| s).collect::<Vec<_>>();
        let nth = |model: &FullScan, i: usize| {
            let n = model.frames.len();
            if n == 0 { 1_000_000 } else { *model.frames.keys().nth(i % n).expect("i % n < n") }
        };

        // Two closing rounds of "run the clock past the cap, sweep" show
        // the backoff state the ops left behind.
        let closing = [Op::Advance(100), Op::Sweep, Op::Advance(100), Op::Sweep];
        for op in ops.into_iter().chain(closing) {
            match op {
                Op::Advance(ms) => now += Duration::from_millis(ms),
                Op::Send | Op::SendHeld => {
                    let held = matches!(op, Op::SendHeld);
                    let (seq, _) = tx.send_at(0, now, held);
                    model.arm(seq, now, held);
                }
                Op::Release => {
                    let (mut singles, mut runs) = (Vec::new(), Vec::new());
                    tx.release_held_wire_at(now, &mut singles, &mut runs);
                    let mut got = seqs(singles);
                    for (first, run) in runs {
                        got.extend((first..).take(run.len()));
                    }
                    got.sort_unstable();
                    prop_assert_eq!(got, model.release(now));
                }
                Op::Ack(i) => {
                    let seq = nth(&model, i);
                    tx.acknowledge(seq);
                    model.frames.remove(&seq);
                }
                Op::AckThrough(i) => {
                    let seq = nth(&model, i);
                    tx.acknowledge_through(seq);
                    model.frames.retain(|&s, _| s > seq);
                }
                Op::Sweep => {
                    let mut due = Vec::new();
                    tx.due_at_into(now, &mut due);
                    prop_assert_eq!(seqs(due), model.sweep(now));
                }
                Op::Replay(fresh) => {
                    epoch += u64::from(fresh);
                    prop_assert_eq!(seqs(tx.reconnect_replay_at(epoch, now)), model.replay(epoch, now));
                }
                Op::Resume => {
                    let mut frames = Vec::new();
                    let next_seq = tx.snapshot_into(&mut frames);
                    // A restored frame is due at once, unheld, at the base
                    // interval; the replay-epoch guard starts over.
                    model.frames = frames.iter().map(|&(s, _)| (s, (now, timeout, false))).collect();
                    model.last_replay_epoch = 0;
                    epoch = 0;
                    tx = LinkSender::resume_at(timeout, cap, next_seq, frames, now);
                }
            }
            prop_assert_eq!(tx.unacked(), model.frames.len());
            if let Some(earliest) = model.earliest() {
                let cached = tx.next_deadline();
                prop_assert!(
                    cached.is_some_and(|c| c <= earliest),
                    "after {:?}: cached {:?} is later than the earliest armed timer {:?}",
                    op, cached, earliest
                );
            }
        }
    }

    /// Whatever the adversary does, retransmission until acknowledgment
    /// releases every payload exactly once, in send order.
    #[test]
    fn exactly_once_fifo_release(
        n_messages in 1usize..40,
        fates in vec(fate_strategy(), 0..400),
        reorder_window in 1usize..8,
    ) {
        let mut tx = LinkSender::new(Duration::ZERO); // everything always "due"
        let mut rx = LinkReceiver::new();

        // Wire: frames in flight, delivered through a bounded-reorder
        // channel (the adversary picks any frame within the window).
        let mut in_flight: Vec<(u64, usize)> = Vec::new();
        let mut released: Vec<usize> = Vec::new();
        let mut fate_iter = fates.into_iter();

        for payload in 0..n_messages {
            let (seq, p) = tx.send(payload);
            in_flight.push((seq, p));
        }

        // Drive until the sender has nothing unacknowledged. Bounded by a
        // generous round cap so a bug cannot hang the test.
        let mut rounds = 0usize;
        while tx.unacked() > 0 {
            rounds += 1;
            prop_assert!(rounds < 10_000, "link failed to converge");
            // Adversary acts on the head of the (windowed) flight queue.
            if in_flight.is_empty() {
                tx.due_for_retransmit_into(&mut in_flight);
                continue;
            }
            let pick = (rounds * 7) % reorder_window.min(in_flight.len());
            let (seq, payload) = in_flight.remove(pick);
            match fate_iter.next().unwrap_or(Fate::Deliver) {
                Fate::Drop => {}
                Fate::Duplicate => {
                    rx.receive_into(seq, payload, &mut released);
                    tx.acknowledge(seq);
                    rx.receive_into(seq, payload, &mut released);
                }
                Fate::Deliver => {
                    rx.receive_into(seq, payload, &mut released);
                    tx.acknowledge(seq);
                }
            }
        }

        prop_assert_eq!(released.len(), n_messages, "exactly once");
        prop_assert_eq!(released, (0..n_messages).collect::<Vec<_>>(), "FIFO order");
        prop_assert_eq!(rx.pending(), 0);
    }

    /// The receiver never releases a payload out of order, no matter how
    /// frames arrive (including sequences it has never seen acked).
    #[test]
    fn release_order_is_always_prefix_ordered(
        arrivals in vec((1u64..30, 0usize..30), 0..120),
    ) {
        let mut rx = LinkReceiver::new();
        let mut released: Vec<u64> = Vec::new();
        for (seq, payload) in arrivals {
            let _ = payload;
            rx.receive_into(seq, seq, &mut released);
        }
        // Releases are exactly 1, 2, 3, ... up to however far the stream
        // got — a contiguous prefix in order.
        let expect: Vec<u64> = (1..=released.len() as u64).collect();
        prop_assert_eq!(released, expect);
    }
}
