//! Stepping cost of the sans-I/O protocol core with a fresh command
//! buffer per event (the `proto::testing` helpers): events in, commands
//! out, no transport. Both the simulator and the threaded runtime pay this per
//! frame, so events/second here bounds either driver's sequencing rate.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqnet_core::proto::testing::{node_commands, receiver_commands};
use seqnet_core::proto::trace::NullSink;
use seqnet_core::proto::{Command, Event, Frame, NodeCore, Peer, ReceiverCore, Routing};
use seqnet_core::{Message, MessageId, ProtocolState};
use seqnet_membership::workload::ZipfGroups;
use seqnet_membership::Membership;
use seqnet_overlap::{GraphBuilder, SequencingGraph};
use std::hint::black_box;

/// One frame per (member, group) pair, addressed to the group's ingress
/// atom — the same publish pattern the integration tests use.
fn publish_frames(m: &Membership, graph: &SequencingGraph) -> Vec<Frame> {
    let mut frames = Vec::new();
    let mut next_id = 0u64;
    for node in m.nodes() {
        for group in m.groups_of(node) {
            let ingress = graph.ingress(group).expect("group has a path");
            frames.push(Frame {
                msg: Message::new(MessageId(next_id), node, group, Vec::new()),
                target_atom: Some(ingress),
            });
            next_id += 1;
        }
    }
    frames
}

/// Drives the publishes through one-atom-per-node cores until every frame
/// reaches an egress fan-out, counting host-bound sends. This is the full
/// ingress → sequencing → egress command loop with zero transport cost.
fn run_pipeline(
    m: &Membership,
    graph: &SequencingGraph,
    publishes: &[Frame],
    mut on_host_frame: impl FnMut(Peer, Frame),
) {
    let routing = Routing::solo(m, graph);
    let mut protocol = ProtocolState::new(graph);
    let mut cores: Vec<NodeCore> = (0..graph.num_atoms())
        .map(|i| NodeCore::new(i, false))
        .collect();
    let mut pending: Vec<(usize, Frame)> = publishes
        .iter()
        .map(|f| {
            let atom = f.target_atom.expect("publishes target an ingress atom");
            (atom.0 as usize, f.clone())
        })
        .collect();
    while let Some((node, frame)) = pending.pop() {
        let commands = node_commands(
            &mut cores[node],
            &routing,
            &mut protocol,
            Event::FrameArrived { frame },
            &mut NullSink,
        );
        for cmd in commands {
            match cmd {
                Command::Send {
                    to: Peer::Node(next),
                    frame,
                } => pending.push((next, frame)),
                Command::Send { to, frame } => on_host_frame(to, frame),
                other => unreachable!("immediate mode only sends: {other:?}"),
            }
        }
    }
}

fn bench_proto_step(c: &mut Criterion) {
    let m = ZipfGroups::new(24, 8)
        .with_min_size(2)
        .sample(&mut StdRng::seed_from_u64(7));
    let graph = GraphBuilder::new().build(&m);
    let publishes = publish_frames(&m, &graph);

    let mut group = c.benchmark_group("proto_step");
    group.throughput(Throughput::Elements(publishes.len() as u64));

    group.bench_function("node_pipeline", |b| {
        b.iter(|| {
            let mut fanned_out = 0u64;
            run_pipeline(&m, &graph, &publishes, |_, _| fanned_out += 1);
            black_box(fanned_out)
        })
    });

    // Receiver side: replay one busy host's egress frames through a fresh
    // ReceiverCore — the Definition 1 deliver-or-buffer decision per frame.
    let busy = m
        .nodes()
        .max_by_key(|&n| m.groups_of(n).count())
        .expect("membership is non-empty");
    let mut host_frames: Vec<Frame> = Vec::new();
    run_pipeline(&m, &graph, &publishes, |to, frame| {
        if to == Peer::Host(busy) {
            host_frames.push(frame);
        }
    });
    group.throughput(Throughput::Elements(host_frames.len() as u64));
    group.bench_function("receiver_offer", |b| {
        b.iter(|| {
            let mut receiver = ReceiverCore::new(busy, &m, &graph);
            let mut delivered = 0u64;
            for frame in host_frames.iter().cloned() {
                delivered +=
                    receiver_commands(&mut receiver, Event::FrameArrived { frame }, &mut NullSink)
                        .len() as u64;
            }
            black_box(delivered)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_proto_step);
criterion_main!(benches);
