//! Batched execution equals per-event stepping (PROTOCOL.md §12), proven
//! differentially at two layers:
//!
//! * **Simulator**: the same membership, workload, and fault-plan seed run
//!   through two [`OrderedPubSub`] instances — one with channel-pump
//!   batching (the default), one stepped frame-by-frame via
//!   [`OrderedPubSub::set_batching`]`(false)` — must produce byte-identical
//!   delivery logs (destination, id, virtual delivery time) and identical
//!   fault/recovery accounting, with and without injected faults.
//! * **Core**: feeding one event stream through
//!   [`NodeCore::on_event_into`] / [`ReceiverCore::on_event_into`] with
//!   **one** [`CommandBuf`] reused across batches of 1, 2, 7, and 64
//!   events (drained between batches) must emit exactly the command
//!   stream a fresh buffer per event produces, in the same order.
//!
//! Together with the checker's `batch-vs-step` oracle (which re-proves the
//! contract on every explored schedule) this pins down the tentpole claim:
//! batching changes allocation and framing, never protocol behavior.

use proptest::collection::vec;
use proptest::prelude::*;
use seqnet::core::proto::testing::{node_commands, receiver_commands};
use seqnet::core::proto::trace::NullSink;
use seqnet::core::proto::{
    Command, CommandBuf, Event, Frame, NodeCore, ProtocolState, ReceiverCore, Routing,
};
use seqnet::core::{FaultStats, Message, MessageId, OrderedPubSub};
use seqnet::membership::{GroupId, Membership, NodeId};
use seqnet::overlap::GraphBuilder;
use seqnet::sim::{FaultPlan, SimTime};

mod strategies;

/// The batch sizes the issue pins: the degenerate size, a tiny one, a
/// prime that never divides the stream, and one larger than most streams.
const CHUNK_SIZES: [usize; 4] = [1, 2, 7, 64];

fn n(i: u32) -> NodeId {
    NodeId(i)
}
fn g(i: u32) -> GroupId {
    GroupId(i)
}

/// One sim run reduced to everything §12 says must be invariant under
/// batching: the sorted delivery log (who got what, when, in virtual
/// time), the fault/recovery counters, and the stuck-message count.
type RunFingerprint = (Vec<(NodeId, u64, SimTime)>, FaultStats, usize);

/// Drives one simulator instance through `schedule`, batched or stepped.
fn run_sim(
    m: &Membership,
    fault_seed: Option<u64>,
    schedule: &[(usize, usize, u64)],
    batched: bool,
) -> RunFingerprint {
    let mut bus = OrderedPubSub::new(m);
    bus.set_batching(batched);
    if let Some(seed) = fault_seed {
        let atoms = bus.graph().num_atoms();
        bus.apply_fault_plan(FaultPlan::randomized(seed, atoms, SimTime::from_ms(40.0)));
    }
    let nodes: Vec<NodeId> = m.nodes().collect();
    let groups: Vec<GroupId> = m.groups().collect();
    for &(s, grp, t) in schedule {
        let group = groups[grp % groups.len()];
        bus.publish_at(SimTime::from_micros(t), nodes[s % nodes.len()], group, vec![])
            .unwrap();
    }
    bus.run_to_quiescence();
    let mut log: Vec<(NodeId, u64, SimTime)> = bus
        .all_deliveries()
        .map(|d| (d.destination, d.id.0, d.delivered))
        .collect();
    log.sort();
    (log, bus.fault_stats(), bus.stuck_messages())
}

/// The fixed double-overlap topology the core-level chunking tests use;
/// the event streams themselves are seed-randomized.
fn core_setup() -> (Membership, seqnet::overlap::SequencingGraph) {
    let m = Membership::from_groups([
        (g(0), vec![n(0), n(1), n(2)]),
        (g(1), vec![n(1), n(2), n(3)]),
    ]);
    let graph = GraphBuilder::new().build(&m);
    (m, graph)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fault-free runs over arbitrary valid memberships: batched and
    /// stepped execution produce identical delivery logs and deliver
    /// everything.
    #[test]
    fn batched_and_stepped_sims_agree_fault_free(
        m in strategies::membership(),
        schedule in vec((0usize..64, 0usize..64, 0u64..20_000), 1..24),
    ) {
        let batched = run_sim(&m, None, &schedule, true);
        let stepped = run_sim(&m, None, &schedule, false);
        prop_assert_eq!(batched.2, 0, "batched run left messages stuck");
        prop_assert_eq!(&batched, &stepped, "batching changed observable behavior");
    }

    /// The same holds under randomized crash schedules on guaranteed
    /// double-overlapped memberships: identical deliveries *and*
    /// identical recovery accounting ([`FaultStats`] embeds the shared
    /// `RecoveryStats`), so replay after a crash batches transparently.
    #[test]
    fn batched_and_stepped_sims_agree_under_faults(
        m in strategies::overlapped_membership(),
        fault_seed in any::<u64>(),
        schedule in vec((0usize..64, 0usize..64, 0u64..20_000), 1..24),
    ) {
        let batched = run_sim(&m, Some(fault_seed), &schedule, true);
        let stepped = run_sim(&m, Some(fault_seed), &schedule, false);
        prop_assert_eq!(batched.2, 0, "faults deadlocked the batched run");
        prop_assert_eq!(&batched, &stepped, "batching changed faulty-run behavior");
    }

    /// Reusing one buffer across a node core's ingress stream, drained at
    /// every pinned batch size, emits exactly the command stream a fresh
    /// buffer per event does, in order.
    #[test]
    fn node_core_chunks_of_every_size_match_per_event(seed in any::<u64>()) {
        let (m, graph) = core_setup();
        let routing = Routing::solo(&m, &graph);
        let mut state = seed;
        let events: Vec<Event> = (0..70u64)
            .map(|id| {
                let group = g((seqnet::core::proto::testing::splitmix64(&mut state) % 2) as u32);
                Event::FrameArrived {
                    frame: Frame {
                        msg: Message::new(MessageId(id), n(0), group, Vec::new()),
                        target_atom: graph.ingress(group),
                    },
                }
            })
            .collect();
        let owner = routing.owner_of(graph.ingress(g(0)).unwrap());

        let mut stepped_protocol = ProtocolState::new(&graph);
        let mut stepped = NodeCore::new(owner, false);
        let mut expected = Vec::new();
        for event in events.clone() {
            expected.extend(node_commands(
                &mut stepped,
                &routing,
                &mut stepped_protocol,
                event,
                &mut NullSink,
            ));
        }

        for chunk in CHUNK_SIZES {
            let mut protocol = ProtocolState::new(&graph);
            let mut core = NodeCore::new(owner, false);
            let mut buf = CommandBuf::new();
            let mut got: Vec<Command> = Vec::new();
            for batch in events.chunks(chunk) {
                for event in batch.iter().cloned() {
                    core.on_event_into(&routing, &mut protocol, event, &mut NullSink, &mut buf);
                }
                got.extend(buf.drain());
            }
            prop_assert_eq!(
                format!("{got:?}"),
                format!("{expected:?}"),
                "a buffer reused across {} events diverged from a fresh one per event",
                chunk
            );
        }
    }

    /// Reusing one buffer across a receiver's (seed-permuted, hence
    /// gap-buffering) arrival stream, drained at every pinned batch size,
    /// releases exactly the delivery stream a fresh buffer per event
    /// does, in order.
    #[test]
    fn receiver_core_chunks_of_every_size_match_per_event(seed in any::<u64>()) {
        let (m, graph) = core_setup();
        let mut protocol = ProtocolState::new(&graph);
        let mut msgs = Vec::new();
        for id in 0..20u64 {
            let mut msg = Message::new(MessageId(id), n(0), g(id as u32 % 2), Vec::new());
            protocol.sequence_fully(&graph, &mut msg);
            msgs.push(msg);
        }
        // Seeded Fisher–Yates permutation: arbitrary arrival order forces
        // the delivery queue to buffer inside and across batches.
        let mut state = seed;
        for i in (1..msgs.len()).rev() {
            let j = (seqnet::core::proto::testing::splitmix64(&mut state) % (i as u64 + 1)) as usize;
            msgs.swap(i, j);
        }
        let events: Vec<Event> = msgs
            .iter()
            .map(|msg| Event::FrameArrived {
                frame: Frame { msg: msg.clone(), target_atom: None },
            })
            .collect();

        let mut stepped = ReceiverCore::new(n(1), &m, &graph);
        let mut expected = Vec::new();
        for event in events.clone() {
            expected.extend(receiver_commands(&mut stepped, event, &mut NullSink));
        }

        for chunk in CHUNK_SIZES {
            let mut receiver = ReceiverCore::new(n(1), &m, &graph);
            let mut buf = CommandBuf::new();
            let mut got: Vec<Command> = Vec::new();
            for batch in events.chunks(chunk) {
                for event in batch.iter().cloned() {
                    receiver.on_event_into(event, &mut NullSink, &mut buf);
                }
                got.extend(buf.drain());
            }
            prop_assert_eq!(
                format!("{got:?}"),
                format!("{expected:?}"),
                "a buffer reused across {} arrivals diverged from a fresh one per arrival",
                chunk
            );
            prop_assert_eq!(
                receiver.queue().delivered_count(),
                stepped.queue().delivered_count()
            );
        }
    }
}

/// The differential above is only meaningful if the batched run actually
/// batches: a burst published at one instant must flow through multi-frame
/// pump batches, while the stepped run stays strictly frame-at-a-time.
#[test]
fn batched_runs_really_coalesce_and_stepped_runs_really_do_not() {
    let m = Membership::from_groups([(g(0), vec![n(0), n(1), n(2)])]);
    let run = |batched: bool| {
        let mut bus = OrderedPubSub::new(&m);
        bus.set_batching(batched);
        for i in 0..16u64 {
            bus.publish_at(SimTime::from_micros(100), n(0), g(0), vec![i as u8])
                .unwrap();
        }
        bus.run_to_quiescence();
        assert_eq!(bus.all_deliveries().count(), 16 * 3);
        bus.batch_size_counts().clone()
    };
    let batched = run(true);
    assert!(
        batched.keys().any(|&size| size > 1),
        "a same-instant burst must produce at least one multi-frame batch: {batched:?}"
    );
    let stepped = run(false);
    assert!(
        stepped.keys().all(|&size| size == 1),
        "stepped mode must stay frame-at-a-time: {stepped:?}"
    );
}
