//! Batched stepping cost of the sans-I/O protocol core, the twin of
//! `proto_step`: the same publish pipeline and receiver replay, but driven
//! through [`NodeCore::on_event_into`] / [`ReceiverCore::on_event_into`]
//! with one reused [`CommandBuf`] per driver loop, the way the drivers
//! call the cores. Comparing the two suites' per-element times measures
//! exactly what the reused buffer buys —
//! identical commands (PROTOCOL.md §12), minus the per-event `Vec`
//! allocations.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqnet_core::proto::trace::NullSink;
use seqnet_core::proto::{Command, CommandBuf, Event, Frame, NodeCore, Peer, ReceiverCore, Routing};
use seqnet_core::{Message, MessageId, ProtocolState};
use seqnet_membership::workload::ZipfGroups;
use seqnet_membership::Membership;
use seqnet_overlap::{GraphBuilder, SequencingGraph};
use std::hint::black_box;

/// One frame per (member, group) pair, addressed to the group's ingress
/// atom — identical to `proto_step`'s workload so the suites compare.
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

/// The `proto_step` pipeline rewritten batch-first: frames destined for
/// the same core are grouped and fed through one loop, with one
/// `CommandBuf` reused across every call in the run.
fn run_pipeline_batched(
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
    let mut buf = CommandBuf::new();
    // Per-core input queues: each round drains one core's whole backlog
    // as a single batch, mirroring a channel pump.
    let mut queues: Vec<Vec<Frame>> = vec![Vec::new(); graph.num_atoms()];
    for f in publishes {
        let atom = f.target_atom.expect("publishes target an ingress atom");
        queues[atom.0 as usize].push(f.clone());
    }
    loop {
        let Some(node) = (0..queues.len()).find(|&n| !queues[n].is_empty()) else {
            break;
        };
        let batch: Vec<Frame> = std::mem::take(&mut queues[node]);
        buf.clear();
        for frame in batch {
            cores[node].on_event_into(
                &routing,
                &mut protocol,
                Event::FrameArrived { frame },
                &mut NullSink,
                &mut buf,
            );
        }
        for cmd in buf.drain() {
            match cmd {
                Command::Send {
                    to: Peer::Node(next),
                    frame,
                } => queues[next].push(frame),
                Command::Send { to, frame } => on_host_frame(to, frame),
                other => unreachable!("immediate mode only sends: {other:?}"),
            }
        }
    }
}

fn bench_proto_batch(c: &mut Criterion) {
    let m = ZipfGroups::new(24, 8)
        .with_min_size(2)
        .sample(&mut StdRng::seed_from_u64(7));
    let graph = GraphBuilder::new().build(&m);
    let publishes = publish_frames(&m, &graph);

    let mut group = c.benchmark_group("proto_batch");
    group.throughput(Throughput::Elements(publishes.len() as u64));

    group.bench_function("node_pipeline", |b| {
        b.iter(|| {
            let mut fanned_out = 0u64;
            run_pipeline_batched(&m, &graph, &publishes, |_, _| fanned_out += 1);
            black_box(fanned_out)
        })
    });

    // Receiver side: the busiest host's egress frames through one
    // loop per replay, reusing the buffer across iterations.
    let busy = m
        .nodes()
        .max_by_key(|&n| m.groups_of(n).count())
        .expect("membership is non-empty");
    let mut host_frames: Vec<Frame> = Vec::new();
    run_pipeline_batched(&m, &graph, &publishes, |to, frame| {
        if to == Peer::Host(busy) {
            host_frames.push(frame);
        }
    });
    group.throughput(Throughput::Elements(host_frames.len() as u64));
    group.bench_function("receiver_offer", |b| {
        let mut buf = CommandBuf::new();
        b.iter(|| {
            let mut receiver = ReceiverCore::new(busy, &m, &graph);
            buf.clear();
            for frame in host_frames.iter().cloned() {
                receiver.on_event_into(Event::FrameArrived { frame }, &mut NullSink, &mut buf);
            }
            black_box(buf.len())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_proto_batch);
criterion_main!(benches);
