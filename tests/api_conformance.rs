//! API-guideline conformance checks: key public types are `Send`/`Sync`
//! (usable across threads and in `Arc`), implement the common traits, and
//! error types behave like errors.

use seqnet::prelude::*;

fn assert_send_sync<T: Send + Sync>() {}
fn assert_send<T: Send>() {}
fn assert_clone_debug<T: Clone + std::fmt::Debug>() {}
fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}

#[test]
fn core_types_are_send_sync() {
    assert_send_sync::<Membership>();
    assert_send_sync::<SequencingGraph>();
    assert_send_sync::<Message>();
    assert_send_sync::<DeliveryRecord>();
    // Engines are Send (movable into worker threads; see the test below);
    // share one across threads behind a mutex if needed.
    assert_send::<OrderedPubSub>();
    assert_send::<DynamicOrderedPubSub>();
    assert_send_sync::<NetworkSetup>();
    assert_send_sync::<seqnet::core::ProtocolState>();
    assert_send_sync::<seqnet::core::DeliveryQueue>();
    assert_send_sync::<seqnet::overlap::Colocation>();
    assert_send_sync::<seqnet::overlap::Placement>();
    assert_send_sync::<seqnet::topology::Graph>();
    assert_send_sync::<seqnet::topology::Topology>();
    assert_send_sync::<seqnet::sim::SimTime>();
    assert_send_sync::<seqnet::baseline::CausalBroadcast>();
    assert_send_sync::<seqnet::runtime::RuntimeStats>();
}

#[test]
fn error_types_are_well_behaved() {
    assert_error::<CoreError>();
    assert_error::<seqnet::overlap::GraphError>();
    assert_error::<seqnet::runtime::RuntimeError>();
    // Display messages are lowercase and unpunctuated (C-GOOD-ERR).
    let msg = CoreError::UnknownGroup(GroupId(1)).to_string();
    assert!(msg.chars().next().unwrap().is_lowercase());
    assert!(!msg.ends_with('.'));
}

#[test]
fn value_types_have_common_traits() {
    assert_clone_debug::<NodeId>();
    assert_clone_debug::<GroupId>();
    assert_clone_debug::<MessageId>();
    assert_clone_debug::<SimTime>();
    assert_clone_debug::<seqnet::overlap::AtomId>();
    assert_clone_debug::<seqnet::topology::RouterId>();
    assert_clone_debug::<seqnet::topology::Delay>();
    assert_clone_debug::<seqnet::core::SeqNo>();
    assert_clone_debug::<seqnet::core::Stamp>();

    // Ids are ordered and hashable for use as map keys.
    fn assert_ord_hash<T: Ord + std::hash::Hash>() {}
    assert_ord_hash::<NodeId>();
    assert_ord_hash::<GroupId>();
    assert_ord_hash::<MessageId>();
    assert_ord_hash::<seqnet::overlap::AtomId>();
    assert_ord_hash::<seqnet::topology::RouterId>();
    assert_ord_hash::<seqnet::topology::Delay>();
    assert_ord_hash::<SimTime>();
}

#[test]
fn display_is_compact_and_nonempty() {
    // C-DEBUG-NONEMPTY / useful Display forms for ids.
    assert_eq!(NodeId(3).to_string(), "N3");
    assert_eq!(GroupId(4).to_string(), "G4");
    assert_eq!(MessageId(5).to_string(), "m5");
    assert_eq!(seqnet::overlap::AtomId(6).to_string(), "Q6");
    assert_eq!(seqnet::topology::RouterId(7).to_string(), "R7");
    assert!(!format!("{:?}", Membership::new()).is_empty());
    assert!(!format!("{:?}", SequencingGraph::default()).is_empty());
}

#[test]
fn engine_can_move_across_threads() {
    // The simulation engine itself is Send: build on one thread, run on
    // another (common in test harnesses and parallel sweeps).
    let m = Membership::from_groups([(GroupId(0), vec![NodeId(0), NodeId(1)])]);
    let mut bus = OrderedPubSub::new(&m);
    bus.publish(NodeId(0), GroupId(0), vec![]).unwrap();
    let handle = std::thread::spawn(move || {
        bus.run_to_quiescence();
        bus.delivered(NodeId(1)).len()
    });
    assert_eq!(handle.join().unwrap(), 1);
}

/// A zero timeout is a poll, not a no-op: it must still move what is
/// queued and take what is waiting, so a caller that only ever calls
/// `next_delivery(Duration::ZERO)` between other work sees every
/// delivery. Both drivers.
#[test]
fn a_zero_timeout_still_makes_progress() {
    use seqnet::deploy::DeployCluster;
    use seqnet::runtime::{Cluster, ClusterConfig};
    use std::time::{Duration, Instant};

    /// Polls `next` with no timeout, napping between polls, until it has
    /// produced `owed` deliveries.
    fn poll_out(owed: usize, mut next: impl FnMut(Duration) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut got = 0;
        while got < owed {
            assert!(Instant::now() < deadline, "{got}/{owed} by polling");
            if next(Duration::ZERO) {
                got += 1;
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    let m = Membership::from_groups([
        (GroupId(0), vec![NodeId(0), NodeId(1), NodeId(2)]),
        (GroupId(1), vec![NodeId(1), NodeId(2), NodeId(3)]),
    ]);

    let mut threads = Cluster::start(&m, ClusterConfig::default());
    threads.publish(NodeId(0), GroupId(0), vec![1]).unwrap();
    threads.publish(NodeId(1), GroupId(1), vec![2]).unwrap();
    poll_out(6, |t| threads.next_delivery(t).is_some());
    threads.shutdown();

    let binary = option_env!("CARGO_BIN_EXE_seqnet")
        .map(std::path::PathBuf::from)
        .or_else(|| std::env::var("SEQNET_BIN").ok().map(Into::into))
        .expect("no seqnet binary for node processes: set SEQNET_BIN");
    let mut sockets = DeployCluster::start_with_binary(&m, ClusterConfig::default(), Some(binary))
        .expect("socket cluster starts");
    sockets.publish(NodeId(0), GroupId(0), vec![1]).unwrap();
    sockets.publish(NodeId(1), GroupId(1), vec![2]).unwrap();
    poll_out(6, |t| sockets.next_delivery(t).is_some());
    sockets.shutdown();
}

/// Compile-only: names every entry point `benchmark/README.md` lists under
/// "Public entry points the benchmark depends on", with the signature the
/// benchmark calls it by. `benchmark/` is a package of its own that builds
/// against this crate and may not change with it, so drift in any of
/// these must fail here, in tier-1, not in the benchmark build. Entry
/// points with `impl Trait` parameters cannot coerce to a function
/// pointer; those are named through a never-called function instead.
#[allow(dead_code, clippy::type_complexity)]
mod benchmark_surface {
    use seqnet::core::proto::trace::{NullSink, TraceEvent, TraceSink};
    use seqnet::core::proto::{
        Command, CommandBuf, DeliveryQueue, Event, Frame, NodeCore, Peer, Routing,
    };
    use seqnet::core::{
        DeliveryRecord, Message, MessageId, NetworkSetup, OrderedPubSub, ProtocolState,
    };
    use seqnet::deploy::conn::{Conn, ConnError};
    use seqnet::deploy::wire::{self, FrameBuffer};
    use seqnet::deploy::{CodecError, DeployCluster, DeployStats, Topology, WireBody, WireMsg};
    use seqnet::membership::workload::ZipfGroups;
    use seqnet::membership::{GroupId, Membership, NodeId};
    use seqnet::obs::jsonl::parse_jsonl;
    use seqnet::obs::span::TraceSet;
    use seqnet::obs::Recorder;
    use seqnet::overlap::place::member_anchors;
    use seqnet::overlap::{AtomId, Colocation, GraphBuilder, Placement, SequencingGraph};
    use seqnet::runtime::codec::{self, Reader};
    use seqnet::runtime::{Cluster, ClusterConfig, LinkReceiver, LinkSender, RuntimeStats};
    use seqnet::sim::{SimTime, Simulator};
    use seqnet::topology::{HostId, RouterId, TransitStubParams};
    use std::collections::{BTreeMap, HashMap};
    use std::path::Path;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    fn threaded_runtime(c: &mut Cluster) {
        let _: fn(&Membership, ClusterConfig) -> Cluster = Cluster::start;
        let _ = c.publish(NodeId(0), GroupId(0), Vec::<u8>::new());
        let _: fn(&mut Cluster, Duration) -> Option<(NodeId, Message)> = Cluster::next_delivery;
        let _: fn(&mut Cluster) = Cluster::shutdown;
        let _: fn(&Cluster) -> RuntimeStats = Cluster::stats;
        let _: fn(&Cluster) -> BTreeMap<usize, u64> = Cluster::batch_size_counts;
        let _: fn(&Cluster) -> Vec<TraceEvent> = Cluster::trace_events;
        let _: fn(&Cluster) -> usize = Cluster::num_sequencing_nodes;
        // Every field, by name: a renamed or removed one stops compiling.
        let ClusterConfig {
            drop_probability: _,
            retransmit_timeout: _,
            backoff_cap: _,
            link_delay: _,
            heartbeat_interval: _,
            heartbeat_miss_threshold: _,
            coalesce: _,
            seed: _,
            trace: _,
        } = ClusterConfig::default();
        let RuntimeStats {
            frames_sent: _,
            frames_dropped: _,
            retransmissions: _,
            duplicates: _,
            heartbeat_misses: _,
            recovery: _,
        } = c.stats();
    }

    fn socket_deployment(d: &mut DeployCluster) {
        let _: fn() = seqnet::deploy::run_if_child;
        // The benchmark calls `.expect` on the start result and prints the
        // respawn error: both need `Debug`/`Display`, nothing more.
        let _: fn(&Membership, ClusterConfig) -> Result<DeployCluster, String> =
            DeployCluster::start;
        let _ = d.publish(NodeId(0), GroupId(0), Vec::<u8>::new());
        let _: fn(&mut DeployCluster, Duration) -> Option<(NodeId, Message)> =
            DeployCluster::next_delivery;
        let _: fn(&mut DeployCluster, usize) -> bool = DeployCluster::kill_node;
        let _: fn(&mut DeployCluster, usize) -> Result<bool, String> = DeployCluster::respawn_node;
        let _: fn(&mut DeployCluster) -> DeployStats = DeployCluster::shutdown;
        let _: fn(&DeployCluster) -> Vec<TraceEvent> = DeployCluster::trace_events;
        let _: fn(&DeployCluster) -> &Path = DeployCluster::dir;
        let _: fn(&DeployCluster) -> usize = DeployCluster::num_sequencing_nodes;
        let DeployStats {
            frames_sent: _,
            frames_dropped: _,
            retransmissions: _,
            duplicates: _,
            heartbeat_misses: _,
            recovery: _,
            snapshots: _,
            batch_sizes: _,
        } = d.shutdown();
    }

    fn simulator(bus: &mut OrderedPubSub) {
        let _: fn(&Membership, &NetworkSetup, &mut rand::rngs::StdRng) -> OrderedPubSub =
            OrderedPubSub::with_network;
        let _ = bus.publish_at(SimTime::ZERO, NodeId(0), GroupId(0), Vec::<u8>::new());
        let _: fn(&mut OrderedPubSub) -> u64 = OrderedPubSub::run_to_quiescence;
        let _: fn(&OrderedPubSub, NodeId) -> &[DeliveryRecord] = OrderedPubSub::delivered;
        let _: fn(&OrderedPubSub) -> usize = OrderedPubSub::stuck_messages;
        let _: fn(&OrderedPubSub) -> BTreeMap<NodeId, usize> =
            OrderedPubSub::receiver_buffer_highwater;
        let _: &Membership = bus.membership();
        let _: fn(&mut OrderedPubSub, Arc<Mutex<dyn TraceSink + Send>>) =
            OrderedPubSub::set_trace_sink;
        let _: fn(&OrderedPubSub) -> SimTime = OrderedPubSub::now;
        let _: MessageId = MessageId(0);
        let _: fn(&SequencingGraph) -> ProtocolState = ProtocolState::new;
    }

    fn layer_replay<'a>() {
        let _: fn(usize, bool) -> NodeCore = NodeCore::new;
        let _: fn(
            &mut NodeCore,
            &Routing<'_>,
            &mut ProtocolState,
            Event,
            &mut NullSink,
            &mut CommandBuf,
        ) = NodeCore::on_event_into::<NullSink>;
        let _: fn(NodeId, &Membership, &SequencingGraph) -> DeliveryQueue = DeliveryQueue::new;
        let _: fn(&mut DeliveryQueue, Message, &mut Vec<Message>) = DeliveryQueue::offer_into;
        let _: fn(&'a Membership, &'a SequencingGraph) -> Routing<'a> = Routing::solo;
        let _: fn(&'a Membership, &'a SequencingGraph, &'a HashMap<AtomId, usize>) -> Routing<'a> =
            Routing::colocated;
        let _: fn() -> CommandBuf = CommandBuf::new;
        let _ = |c: Command| {
            matches!(
                c,
                Command::Stage { .. } | Command::Flush | Command::Ack { .. }
            )
        };
        let _ = |f: Frame| Event::FrameArrived { frame: f };
        let _ = [Peer::Publisher, Peer::Node(0), Peer::Host(NodeId(0))];

        let _: fn(Duration, Duration) -> LinkSender<Frame> = LinkSender::with_backoff;
        let _: fn(&mut LinkSender<Frame>, Frame) -> (u64, Frame) = LinkSender::send;
        let _: fn(&mut LinkSender<Frame>, Frame) -> (u64, Frame) = LinkSender::send_held;
        let _: fn(&mut LinkSender<Frame>, &mut Vec<(u64, Frame)>, &mut Vec<(u64, Vec<Frame>)>) =
            LinkSender::release_held_wire;
        let _: fn(&mut LinkSender<Frame>, u64) = LinkSender::acknowledge_through;
        let _: fn(&mut LinkSender<Frame>, &mut Vec<(u64, Frame)>) =
            LinkSender::due_for_retransmit_into;
        let _: fn() -> LinkReceiver<Frame> = LinkReceiver::new;
        let _: fn(&mut LinkReceiver<Frame>, u64, Frame, &mut Vec<Frame>) -> usize =
            LinkReceiver::receive_into;
        let _ = |rx: &mut LinkReceiver<Frame>, run: Vec<Frame>, out: &mut Vec<Frame>| -> usize {
            rx.receive_batch_into(1, run, out)
        };
        let _: fn(&LinkReceiver<Frame>) -> u64 = LinkReceiver::next_expected;
        let _: fn(&mut Vec<u8>, &Frame) = codec::put_frame;
        let _: fn(&'a [u8]) -> Reader<'a> = Reader::new;
        let _: fn(&mut Reader<'a>) -> Result<Frame, CodecError> = Reader::frame;

        let _: fn(&Membership, u64) -> Topology = Topology::derive;
        let _: fn(&Topology, Peer, Peer) -> u32 = Topology::link_between;
        let _ = |t: Topology| {
            let _: (Vec<(Peer, Peer)>, usize) = (t.links, t.num_nodes);
            let _: (SequencingGraph, Membership, HashMap<AtomId, usize>) =
                (t.graph, t.membership, t.atom_node);
        };
        let _ = |link: u32, seq: u64, f: Frame| {
            [
                WireMsg::Link {
                    link,
                    seq,
                    body: WireBody::Data(f.clone()),
                },
                WireMsg::Link {
                    link,
                    seq,
                    body: WireBody::DataBatch(vec![f]),
                },
                WireMsg::Link {
                    link,
                    seq,
                    body: WireBody::AckThrough,
                },
            ]
        };
        let _: fn(std::net::TcpStream) -> std::io::Result<Conn> = Conn::new;
        let _: fn(&mut Conn, &WireMsg) = Conn::queue;
        let _: fn(&mut Conn) -> Result<(), ConnError> = Conn::poll_write;
        let _: fn(&mut Conn, &mut Vec<WireMsg>) -> Result<usize, ConnError> = Conn::poll_read_into;
        let _: fn(&WireMsg, &mut Vec<u8>) = wire::encode;
        let _: fn() -> FrameBuffer = FrameBuffer::new;
        let _: fn(&mut FrameBuffer, &[u8]) = FrameBuffer::push;
        let _: fn(&mut FrameBuffer) -> Result<Option<WireMsg>, CodecError> = FrameBuffer::next;

        let _: fn(u64) -> Simulator<u64> = Simulator::new;
        let _: fn() -> GraphBuilder = GraphBuilder::new;
        let _ = Colocation::compute::<rand::rngs::StdRng>;
        let _ = Placement::heuristic::<rand::rngs::StdRng>;
        let _ = |m: &Membership| member_anchors(m, |n| RouterId(n.0));
        let _: fn() -> TransitStubParams = TransitStubParams::paper;
        let _ = HostId(0);
        let _: fn(usize, usize) -> ZipfGroups = ZipfGroups::new;
        let _: fn() -> Recorder = Recorder::new;
        let _: fn(&str) -> Option<TraceEvent> = parse_jsonl;
        let _: fn(&[TraceEvent]) -> TraceSet = TraceSet::from_events;
    }
}
