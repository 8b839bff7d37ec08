//! Property-based tests of the reliable-link layer: arbitrary loss,
//! duplication, and reordering of frames must yield exactly-once FIFO
//! release.

use proptest::collection::vec;
use proptest::prelude::*;
use seqnet_runtime::{LinkReceiver, LinkSender};
use std::time::Duration;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
