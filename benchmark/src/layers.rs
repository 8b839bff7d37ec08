//! The layer replay: single-threaded, no timers, no sleeping. Publishes
//! are walked through each layer's public caller-buffer entry points in
//! the order the drivers call them —
//!
//! ```text
//! link send → [socket: wire encode → loopback Conn write → read+decode |
//!              threads: channel hop] → link receive → NodeCore stamp →
//! link stage → snapshot flush → link release → … → DeliveryQueue offer
//! → ack → link acknowledge
//! ```
//!
//! — with a span ([`crate::spans`]) around every call and a count at the
//! same boundary. What the drivers do *besides* these calls (waking
//! threads, polling sockets, sleeping, persisting snapshots, heartbeats,
//! telemetry) is deliberately absent: the gap between the replay's sum
//! and the measured CPU per delivery is exactly that, and is reported as
//! `layers.accounted_share.*`.
//!
//! Only the `*_into` forms of each entry point are used.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqnet::core::proto::trace::NullSink;
use seqnet::core::proto::{
    Command, CommandBuf, DeliveryQueue, Event, Frame, NodeCore, Peer, Routing,
};
use seqnet::core::{Message, MessageId, ProtocolState};
use seqnet::deploy::conn::Conn;
use seqnet::deploy::wire::{self, FrameBuffer};
use seqnet::deploy::{Topology, WireBody, WireMsg};
use seqnet::membership::{GroupId, Membership, NodeId};
use seqnet::overlap::{place, Colocation, GraphBuilder, Placement};
use seqnet::runtime::codec;
use seqnet::runtime::{LinkReceiver, LinkSender};
use seqnet::sim::{SimTime, Simulator};
use seqnet::topology::TransitStubParams;

use crate::alloc;
use crate::payload;
use crate::spans::{LayerCost, SpanLog};
use crate::topo;
use crate::wall::Driver;

/// Spans are 48 bytes; this many publishes keeps the log in tens of MB.
const MAX_PUBLISHES: u64 = 10_000;

/// A data transmission as the drivers frame it: one frame, or a coalesced
/// run with consecutive link sequence numbers.
enum Body {
    One(Frame),
    Run(Vec<Frame>),
    AckThrough,
}

impl Body {
    fn frames(&self) -> u32 {
        match self {
            Body::One(_) => 1,
            Body::Run(v) => v.len() as u32,
            Body::AckThrough => 0,
        }
    }

    fn first_msg(&self) -> u64 {
        match self {
            Body::One(f) => f.msg.id.0,
            Body::Run(v) => v.first().map_or(0, |f| f.msg.id.0),
            Body::AckThrough => 0,
        }
    }
}

/// What carries a transmission from one party to the next.
enum Transport {
    /// The threaded runtime: one unbounded channel per link, frames moved
    /// unencoded.
    Channel(
        crossbeam::channel::Sender<(u32, u64, Body)>,
        crossbeam::channel::Receiver<(u32, u64, Body)>,
    ),
    /// The socket deployment: one loopback TCP connection per link, data
    /// forward and acks back on the same stream.
    Socket { near: Conn, far: Conn },
}

fn loopback_pair() -> (Conn, Conn) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener address");
    let near = TcpStream::connect(addr).expect("connect loopback");
    let (far, _) = listener.accept().expect("accept loopback");
    (
        Conn::new(near).expect("non-blocking stream"),
        Conn::new(far).expect("non-blocking stream"),
    )
}

/// Result of one replay.
pub struct Replay {
    pub log: SpanLog,
    pub publishes: u64,
    pub deliveries: u64,
    pub stamps: u64,
    /// Allocator calls inside `NodeCore::on_event_into(FrameArrived)`.
    pub stamp_allocs: u64,
    /// Stamped frames as they reached the hosts; input for the codec
    /// replays.
    pub sample_frames: Vec<Frame>,
}

impl Replay {
    fn new() -> Self {
        Replay {
            log: SpanLog::new(),
            publishes: 0,
            deliveries: 0,
            stamps: 0,
            stamp_allocs: 0,
            sample_frames: Vec::new(),
        }
    }

    /// Sum of every layer's self time per delivery, µs, from the log's
    /// [`SpanLog::layer_costs`]. The tick root span (the replay's own
    /// glue) is left out.
    pub fn sum_us_per_delivery(&self, costs: &BTreeMap<&'static str, LayerCost>) -> f64 {
        let total: f64 = costs
            .iter()
            .filter(|(name, _)| **name != "replay.tick")
            .map(|(_, c)| c.self_ns)
            .sum();
        total / 1e3 / self.deliveries.max(1) as f64
    }
}

struct World<'a> {
    topo: &'a Topology,
    /// The replay's span log; every call into a layer is recorded here.
    log: &'a mut SpanLog,
    senders: Vec<LinkSender<Frame>>,
    receivers: Vec<LinkReceiver<Frame>>,
    transports: Vec<Transport>,
    /// Arrived, not yet processed transmissions per party.
    node_inbox: Vec<Vec<(u32, u64, Body)>>,
    host_inbox: Vec<Vec<(u32, u64, Body)>>,
    wire_scratch: Vec<WireMsg>,
}

impl World<'_> {
    /// Puts one transmission on link `link`'s transport and takes it off
    /// at the far end, as the two drivers would.
    fn carry(&mut self, link: u32, seq: u64, body: Body, backward: bool) -> (u32, u64, Body) {
        let (items, msg) = (body.frames(), body.first_msg());
        let log = &mut *self.log;
        match &mut self.transports[link as usize] {
            Transport::Channel(tx, rx) => log.span("runtime.channel.hop", msg, items, || {
                tx.send((link, seq, body)).expect("receiver alive");
                rx.try_recv().expect("just sent")
            }),
            Transport::Socket { near, far } => {
                let (from, to) = if backward { (far, near) } else { (near, far) };
                let wire_msg = WireMsg::Link {
                    link,
                    seq,
                    body: match body {
                        Body::One(f) => WireBody::Data(f),
                        Body::Run(v) => WireBody::DataBatch(v),
                        Body::AckThrough => WireBody::AckThrough,
                    },
                };
                log.span("deploy.wire.encode", msg, items, || from.queue(&wire_msg));
                drop(wire_msg);
                log.span("deploy.conn.write", msg, items, || {
                    from.poll_write().expect("loopback write")
                });
                self.wire_scratch.clear();
                let scratch = &mut self.wire_scratch;
                log.span("deploy.conn.read_decode", msg, items, || {
                    // Loopback delivers synchronously in practice; spin
                    // for the rare time it has not yet.
                    while scratch.is_empty() {
                        to.poll_read_into(scratch).expect("loopback read");
                    }
                });
                match self.wire_scratch.pop() {
                    Some(WireMsg::Link { link, seq, body }) => (
                        link,
                        seq,
                        match body {
                            WireBody::Data(f) => Body::One(f),
                            WireBody::DataBatch(v) => Body::Run(v),
                            _ => Body::AckThrough,
                        },
                    ),
                    other => unreachable!("only link frames travel here: {other:?}"),
                }
            }
        }
    }

    /// Sends a data transmission down `link` and files it in the inbox of
    /// the party at the far end.
    fn transmit(&mut self, link: u32, seq: u64, body: Body) {
        let arrived = self.carry(link, seq, body, false);
        match self.topo.links[link as usize].1 {
            Peer::Node(n) => self.node_inbox[n].push(arrived),
            Peer::Host(h) => self.host_inbox[h.0 as usize].push(arrived),
            Peer::Publisher => unreachable!("no data flows to the publisher"),
        }
    }

    /// Sends a cumulative ack back up `link` and applies it at the sender.
    fn acknowledge(&mut self, link: u32, through: u64) {
        let (_, seq, _) = self.carry(link, through, Body::AckThrough, true);
        let sender = &mut self.senders[link as usize];
        self.log
            .span("runtime.link.ack", 0, 1, || sender.acknowledge_through(seq));
    }

    /// Link-level receive of one transmission; in-order frames land in
    /// `out`.
    fn receive(&mut self, link: u32, seq: u64, body: Body, out: &mut Vec<Frame>) {
        let (items, msg) = (body.frames(), body.first_msg());
        let receiver = &mut self.receivers[link as usize];
        self.log
            .span("runtime.link.receive", msg, items, || match body {
                Body::One(f) => receiver.receive_into(seq, f, out),
                Body::Run(v) => receiver.receive_batch_into(seq, v, out),
                Body::AckThrough => 0,
            });
    }
}

/// Replays `ring-12x6` traffic through `driver`'s layers until `budget`
/// is spent: `per_tick` publishes, then snapshot-flush waves until every
/// frame has been delivered, and again.
pub fn replay_ring(
    driver: Driver,
    membership: &Membership,
    payload_len: usize,
    seed: u64,
    per_tick: usize,
    budget: Duration,
) -> Replay {
    let topo = Topology::derive(membership, seed);
    let routing = Routing::colocated(&topo.membership, &topo.graph, &topo.atom_node);
    let timeout = Duration::from_secs(3600); // nothing is ever due in a replay
    let num_links = topo.links.len();
    let num_hosts = membership
        .nodes()
        .map(|n| n.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut out = Replay::new();
    let mut world = World {
        topo: &topo,
        log: &mut out.log,
        senders: (0..num_links)
            .map(|_| LinkSender::with_backoff(timeout, timeout))
            .collect(),
        receivers: (0..num_links).map(|_| LinkReceiver::new()).collect(),
        transports: (0..num_links)
            .map(|_| match driver {
                Driver::Runtime => {
                    let (tx, rx) = crossbeam::channel::unbounded();
                    Transport::Channel(tx, rx)
                }
                Driver::Socket => {
                    let (near, far) = loopback_pair();
                    Transport::Socket { near, far }
                }
            })
            .collect(),
        node_inbox: (0..topo.num_nodes).map(|_| Vec::new()).collect(),
        host_inbox: (0..num_hosts).map(|_| Vec::new()).collect(),
        wire_scratch: Vec::new(),
    };
    let mut cores: Vec<NodeCore> = (0..topo.num_nodes)
        .map(|i| NodeCore::new(i, true))
        .collect();
    let mut protocols: Vec<ProtocolState> = (0..topo.num_nodes)
        .map(|_| ProtocolState::new(&topo.graph))
        .collect();
    let mut queues: Vec<Option<DeliveryQueue>> = (0..num_hosts as u32)
        .map(|h| {
            membership
                .groups_of(NodeId(h))
                .next()
                .map(|_| DeliveryQueue::new(NodeId(h), membership, &topo.graph))
        })
        .collect();
    // Links into each node (what its snapshots acknowledge) and the links
    // it has staged output on since its last flush.
    let mut links_into: Vec<Vec<u32>> = vec![Vec::new(); topo.num_nodes];
    for (i, &(_, to)) in topo.links.iter().enumerate() {
        if let Peer::Node(n) = to {
            links_into[n].push(i as u32);
        }
    }
    let mut staged: Vec<Vec<u32>> = vec![Vec::new(); topo.num_nodes];
    let groups: Vec<GroupId> = membership.groups().collect();
    let mut cmdbuf = CommandBuf::new();
    let mut frames: Vec<Frame> = Vec::new();
    let mut delivered: Vec<Message> = Vec::new();
    let mut singles: Vec<(u64, Frame)> = Vec::new();
    let mut runs: Vec<(u64, Vec<Frame>)> = Vec::new();

    let began = Instant::now();
    while began.elapsed() < budget && out.publishes < MAX_PUBLISHES {
        let tick = world
            .log
            .enter("replay.tick", out.publishes, per_tick as u32);
        for _ in 0..per_tick {
            let index = out.publishes;
            out.publishes += 1;
            let group = groups[index as usize % groups.len()];
            let sender = membership.members(group).next().expect("live group");
            let ingress = topo.graph.ingress(group).expect("live group has a path");
            let node = topo.atom_node[&ingress];
            let frame = Frame {
                msg: Message::new(
                    MessageId(index),
                    sender,
                    group,
                    payload::make(index, payload_len, seed),
                ),
                target_atom: Some(ingress),
            };
            let link = topo.link_between(Peer::Publisher, Peer::Node(node));
            let tx = &mut world.senders[link as usize];
            let (seq, frame) = world
                .log
                .span("runtime.link.send", index, 1, || tx.send(frame));
            world.transmit(link, seq, Body::One(frame));
        }
        loop {
            let mut progressed = false;
            // Nodes: receive, stamp, stage.
            for n in 0..topo.num_nodes {
                for (link, seq, body) in std::mem::take(&mut world.node_inbox[n]) {
                    progressed = true;
                    frames.clear();
                    world.receive(link, seq, body, &mut frames);
                    for frame in frames.drain(..) {
                        let id = frame.msg.id.0;
                        let allocs = alloc::allocations();
                        let (core, protocol) = (&mut cores[n], &mut protocols[n]);
                        world.log.span("core.node.stamp", id, 1, || {
                            core.on_event_into(
                                &routing,
                                protocol,
                                Event::FrameArrived { frame },
                                &mut NullSink,
                                &mut cmdbuf,
                            )
                        });
                        out.stamp_allocs += alloc::allocations() - allocs;
                        for cmd in cmdbuf.drain() {
                            let Command::Stage { to, frame } = cmd else {
                                unreachable!("group-commit cores only stage");
                            };
                            let link = topo.link_between(Peer::Node(n), to);
                            let tx = &mut world.senders[link as usize];
                            world
                                .log
                                .span("runtime.link.send", id, 1, || tx.send_held(frame));
                            if !staged[n].contains(&link) {
                                staged[n].push(link);
                            }
                        }
                    }
                }
            }
            // Nodes with staged output: snapshot, flush, acknowledge.
            for n in 0..topo.num_nodes {
                if staged[n].is_empty() {
                    continue;
                }
                progressed = true;
                let rx_next: Vec<(Peer, u64)> = links_into[n]
                    .iter()
                    .map(|&l| {
                        (
                            topo.links[l as usize].0,
                            world.receivers[l as usize].next_expected(),
                        )
                    })
                    .collect();
                let (core, protocol) = (&mut cores[n], &mut protocols[n]);
                world.log.span("core.node.snapshot", 0, 1, || {
                    core.on_event_into(
                        &routing,
                        protocol,
                        Event::SnapshotTaken { rx_next },
                        &mut NullSink,
                        &mut cmdbuf,
                    )
                });
                let commands: Vec<Command> = cmdbuf.drain().collect();
                for cmd in commands {
                    match cmd {
                        Command::Flush => {
                            for link in std::mem::take(&mut staged[n]) {
                                singles.clear();
                                runs.clear();
                                let tx = &mut world.senders[link as usize];
                                world.log.span("runtime.link.release", 0, 1, || {
                                    tx.release_held_wire(&mut singles, &mut runs)
                                });
                                for (seq, frame) in singles.drain(..) {
                                    world.transmit(link, seq, Body::One(frame));
                                }
                                for (seq, run) in runs.drain(..) {
                                    world.transmit(link, seq, Body::Run(run));
                                }
                            }
                        }
                        Command::Ack { to, through } => {
                            let link = topo.link_between(to, Peer::Node(n));
                            world.acknowledge(link, through);
                        }
                        other => unreachable!("snapshots only flush and ack: {other:?}"),
                    }
                }
            }
            // Hosts: receive, offer, acknowledge at once.
            for (h, queue) in queues.iter_mut().enumerate() {
                for (link, seq, body) in std::mem::take(&mut world.host_inbox[h]) {
                    progressed = true;
                    frames.clear();
                    world.receive(link, seq, body, &mut frames);
                    let queue = queue.as_mut().expect("frames reach subscribers only");
                    for frame in frames.drain(..) {
                        if out.sample_frames.len() < 4096 {
                            out.sample_frames.push(frame.clone());
                        }
                        out.stamps += frame.msg.stamps.len() as u64;
                        let id = frame.msg.id.0;
                        delivered.clear();
                        world.log.span("core.receiver.offer", id, 1, || {
                            queue.offer_into(frame.msg, &mut delivered)
                        });
                        out.deliveries += delivered.len() as u64;
                    }
                    let floor = world.receivers[link as usize].next_expected() - 1;
                    world.acknowledge(link, floor);
                }
            }
            if !progressed {
                break;
            }
        }
        world.log.exit(tick);
    }
    out
}

/// One timed loop: `f` called `n` times; returns mean ns per call.
fn time_loop(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let began = Instant::now();
    for i in 0..n {
        f(i);
    }
    began.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Frame-codec costs on `frames` (the stamped frames a replay produced).
pub struct CodecCosts {
    pub runtime_encode_ns: f64,
    pub runtime_decode_ns: f64,
    pub runtime_bytes: f64,
    pub wire_encode_ns: f64,
    pub wire_decode_ns: f64,
    pub wire_bytes: f64,
}

pub fn codec_costs(frames: &[Frame]) -> CodecCosts {
    const ROUNDS: usize = 20;
    let n = frames.len().max(1) * ROUNDS;
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let runtime_encode_ns = time_loop(n, |i| {
        buf.clear();
        codec::put_frame(&mut buf, black_box(&frames[i % frames.len()]));
        black_box(&buf);
    });
    let encoded: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| {
            let mut b = Vec::new();
            codec::put_frame(&mut b, f);
            b
        })
        .collect();
    let runtime_decode_ns = time_loop(n, |i| {
        let frame = codec::Reader::new(black_box(&encoded[i % encoded.len()])).frame();
        black_box(frame.expect("own encoding decodes"));
    });
    let msgs: Vec<WireMsg> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| WireMsg::Link {
            link: 3,
            seq: i as u64 + 1,
            body: WireBody::Data(f.clone()),
        })
        .collect();
    let wire_encode_ns = time_loop(n, |i| {
        buf.clear();
        wire::encode(black_box(&msgs[i % msgs.len()]), &mut buf);
        black_box(&buf);
    });
    let wired: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| {
            let mut b = Vec::new();
            wire::encode(m, &mut b);
            b
        })
        .collect();
    let mut assembler = FrameBuffer::new();
    let wire_decode_ns = time_loop(n, |i| {
        assembler.push(black_box(&wired[i % wired.len()]));
        black_box(assembler.next().expect("own encoding decodes"));
    });
    let mean_len =
        |v: &[Vec<u8>]| v.iter().map(Vec::len).sum::<usize>() as f64 / v.len().max(1) as f64;
    CodecCosts {
        runtime_encode_ns,
        runtime_decode_ns,
        runtime_bytes: mean_len(&encoded),
        wire_encode_ns,
        wire_decode_ns,
        wire_bytes: mean_len(&wired),
    }
}

/// One message at a time over one loopback connection: queue, write,
/// read+decode. Returns ns per message.
pub fn conn_roundtrip_ns(frames: &[Frame]) -> f64 {
    let (mut near, mut far) = loopback_pair();
    let msgs: Vec<WireMsg> = frames
        .iter()
        .take(1024)
        .enumerate()
        .map(|(i, f)| WireMsg::Link {
            link: 3,
            seq: i as u64 + 1,
            body: WireBody::Data(f.clone()),
        })
        .collect();
    let n = msgs.len().max(1) * 8;
    let mut got: Vec<WireMsg> = Vec::new();
    time_loop(n, |i| {
        near.queue(&msgs[i % msgs.len()]);
        near.poll_write().expect("loopback write");
        got.clear();
        while got.is_empty() {
            far.poll_read_into(&mut got).expect("loopback read");
        }
        black_box(&got);
    })
}

/// A due-for-retransmit sweep over a sender holding 1000 unacknowledged,
/// not yet due frames — what every party does on every tick.
pub fn retransmit_scan_ns(frame: &Frame) -> f64 {
    let hour = Duration::from_secs(3600);
    let mut tx: LinkSender<Frame> = LinkSender::with_backoff(hour, hour);
    for _ in 0..1000 {
        tx.send(frame.clone());
    }
    let mut due = Vec::new();
    time_loop(2000, |_| {
        tx.due_for_retransmit_into(&mut due);
        black_box(&due);
    })
}

/// Structure-building costs on `zipf-128x64`, each call timed once.
pub struct StructureCosts {
    pub topology_ms: f64,
    pub graph_ms: f64,
    pub colocate_ms: f64,
    pub place_ms: f64,
    pub atoms: f64,
    pub mean_path_len: f64,
    pub nodes: f64,
}

pub fn structure_costs() -> StructureCosts {
    let membership = topo::zipf_128x64();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let network =
        TransitStubParams::paper().generate(&mut StdRng::seed_from_u64(topo::STRUCTURE_SEED ^ 1));
    let topology_ms = ms(t);
    let t = Instant::now();
    let graph = GraphBuilder::new().build(&membership);
    let graph_ms = ms(t);
    let mut rng = StdRng::seed_from_u64(topo::STRUCTURE_SEED ^ 2);
    let t = Instant::now();
    let coloc = Colocation::compute(&graph, &mut rng);
    let colocate_ms = ms(t);
    // Hosts attach as the simulator's set-up attaches them; only the
    // placement call itself is timed.
    let setup = topo::paper_network();
    let anchors = place::member_anchors(&membership, |n| {
        setup.hosts.router_of(seqnet::topology::HostId(n.0))
    });
    let t = Instant::now();
    let placement = Placement::heuristic(&graph, &coloc, &setup.topology.graph, &anchors, &mut rng);
    let place_ms = ms(t);
    black_box((&network, &placement));
    let paths: Vec<usize> = graph.paths().map(|(_, p)| p.len()).collect();
    StructureCosts {
        topology_ms,
        graph_ms,
        colocate_ms,
        place_ms,
        atoms: graph.num_atoms() as f64,
        mean_path_len: paths.iter().sum::<usize>() as f64 / paths.len().max(1) as f64,
        nodes: coloc.num_nodes() as f64,
    }
}

/// The bare event loop: schedule and run no-op events. An upper bound for
/// `sim-scale`'s events per second.
pub fn bare_events_per_s() -> f64 {
    const EVENTS: u64 = 500_000;
    let mut sim: Simulator<u64> = Simulator::new(0);
    let began = Instant::now();
    for i in 0..EVENTS {
        sim.schedule_at(SimTime::from_micros(i % 4096), |s| *s.world_mut() += 1);
    }
    let ran = sim.run_to_quiescence();
    let elapsed = began.elapsed().as_secs_f64();
    assert_eq!((ran, *sim.world()), (EVENTS, EVENTS));
    EVENTS as f64 / elapsed
}

/// `sim-scale`'s cores without the simulator around them: rounds of
/// `zipf-128x64` publishes through one-atom-per-node `NodeCore`s in
/// immediate mode and on into each member's `DeliveryQueue`, the way
/// `core::engine` drives them, until `budget` is spent.
pub fn replay_zipf_cores(seed: u64, budget: Duration) -> Replay {
    let membership = topo::zipf_128x64();
    let graph = GraphBuilder::new().build(&membership);
    let routing = Routing::solo(&membership, &graph);
    let mut protocol = ProtocolState::new(&graph);
    let mut cores: Vec<NodeCore> = (0..graph.num_atoms())
        .map(|i| NodeCore::new(i, false))
        .collect();
    let mut queues: HashMap<NodeId, DeliveryQueue> = membership
        .nodes()
        .map(|h| (h, DeliveryQueue::new(h, &membership, &graph)))
        .collect();
    let pairs: Vec<(NodeId, GroupId)> = membership
        .nodes()
        .flat_map(|h| membership.groups_of(h).map(move |g| (h, g)))
        .collect();
    let mut out = Replay::new();
    let mut cmdbuf = CommandBuf::new();
    let mut delivered: Vec<Message> = Vec::new();
    let mut pending: Vec<(usize, Frame)> = Vec::new();
    let began = Instant::now();
    while began.elapsed() < budget && out.publishes < MAX_PUBLISHES {
        let round = out
            .log
            .enter("replay.tick", out.publishes, pairs.len() as u32);
        for &(host, group) in &pairs {
            let index = out.publishes;
            out.publishes += 1;
            let ingress = graph.ingress(group).expect("live group has a path");
            pending.push((
                ingress.0 as usize,
                Frame {
                    msg: Message::new(
                        MessageId(index),
                        host,
                        group,
                        payload::make(index, 16, seed),
                    ),
                    target_atom: Some(ingress),
                },
            ));
        }
        // FIFO per atom keeps group numbers and stamps in publish order.
        pending.reverse();
        while let Some((node, frame)) = pending.pop() {
            let id = frame.msg.id.0;
            let allocs = alloc::allocations();
            let core = &mut cores[node];
            let protocol = &mut protocol;
            out.log.span("core.node.stamp", id, 1, || {
                core.on_event_into(
                    &routing,
                    protocol,
                    Event::FrameArrived { frame },
                    &mut NullSink,
                    &mut cmdbuf,
                )
            });
            out.stamp_allocs += alloc::allocations() - allocs;
            let commands: Vec<Command> = cmdbuf.drain().collect();
            let mut onward = Vec::new();
            for cmd in commands {
                match cmd {
                    Command::Send {
                        to: Peer::Node(next),
                        frame,
                    } => onward.push((next, frame)),
                    Command::Send {
                        to: Peer::Host(host),
                        frame,
                    } => {
                        out.stamps += frame.msg.stamps.len() as u64;
                        let queue = queues.get_mut(&host).expect("member has a queue");
                        delivered.clear();
                        out.log.span("core.receiver.offer", id, 1, || {
                            queue.offer_into(frame.msg, &mut delivered)
                        });
                        out.deliveries += delivered.len() as u64;
                    }
                    other => unreachable!("immediate mode only sends: {other:?}"),
                }
            }
            // Depth-first keeps each frame's hops together; push in
            // reverse so the first onward hop is processed first.
            for hop in onward.into_iter().rev() {
                pending.push(hop);
            }
        }
        out.log.exit(round);
    }
    out
}
