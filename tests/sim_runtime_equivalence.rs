//! Differential sim↔runtime↔socket testing: one protocol core, three
//! drivers.
//!
//! The simulator (`seqnet::core::OrderedPubSub`), the threaded runtime
//! (`seqnet::runtime::Cluster`), and the socket deployment
//! (`seqnet::deploy::DeployCluster`, one real OS process per sequencing
//! node) all drive the sans-I/O protocol core in `seqnet_core::proto`.
//! These tests feed the *same* seeded workload — and, in the faulty
//! variants, the same [`FaultPlan`] — through all three drivers and assert
//! they produce **identical per-receiver delivery orders within every
//! group**. Message ids are assigned sequentially from 0 by every
//! front-end, so publishing in the same global order makes ids comparable
//! across the three systems. For the socket leg the fault plan is
//! converted by `ChaosPlan::from_fault_plan` into real SIGKILL + respawn
//! cycles against child processes.
//!
//! Scope of the equivalence: within a group, the delivery order at every
//! member is fixed by the group-local sequence numbers the ingress atom
//! assigns, and all drivers present publishes to that atom in the same
//! FIFO order — so the per-(group, receiver) id sequences must match
//! exactly, crash windows included. The *interleaving across groups* is
//! timing-dependent (wall clock vs virtual clock) and is deliberately not
//! compared.
//!
//! One caveat on fault plans: a [`FaultPlan`]'s crash-window indices name
//! *sequencing atoms* when applied to the simulator but *sequencing nodes*
//! (co-located atom groups) when replayed against a cluster — threaded or
//! socket. The plans here crash index 0, which exists in all
//! interpretations; equivalence of the delivered orders is required
//! regardless of which party the index lands on, because crash–recovery
//! must be order-transparent.

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqnet::core::{Message, OrderedPubSub};
use seqnet::deploy::{ChaosPlan, DeployCluster};
use seqnet::membership::workload::ZipfGroups;
use seqnet::membership::{GroupId, Membership, NodeId};
use seqnet::overlap::GraphBuilder;
use seqnet::runtime::{Cluster, ClusterConfig, RuntimeError};
use seqnet::sim::{FaultPlan, SimTime};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Per-(group, receiver) delivered message ids, in delivery order.
type GroupOrders = BTreeMap<(GroupId, NodeId), Vec<u64>>;

fn sim_orders(bus: &OrderedPubSub, m: &Membership) -> GroupOrders {
    let mut orders = GroupOrders::new();
    for node in m.nodes() {
        for d in bus.delivered(node) {
            orders.entry((d.group, node)).or_default().push(d.id.0);
        }
    }
    orders
}

fn delivery_orders(deliveries: &BTreeMap<NodeId, Vec<Message>>) -> GroupOrders {
    let mut orders = GroupOrders::new();
    for (&node, msgs) in deliveries {
        for msg in msgs {
            orders.entry((msg.group, node)).or_default().push(msg.id.0);
        }
    }
    orders
}

/// Asserts every per-(group, receiver) sequence delivers each id at most
/// once — the no-duplication half of exactly-once delivery.
fn assert_no_duplicates(orders: &GroupOrders, driver: &str) {
    for ((group, node), ids) in orders {
        let mut seen = std::collections::BTreeSet::new();
        for id in ids {
            assert!(
                seen.insert(id),
                "{driver}: message {id} delivered twice to {node} in {group}"
            );
        }
    }
}

/// The shared workload: every node publishes to every group it belongs
/// to, `rounds` times, in one fixed global order. Returns the publish
/// list and the expected total delivery count.
fn workload(m: &Membership, rounds: u32) -> (Vec<(NodeId, GroupId)>, usize) {
    let mut publishes = Vec::new();
    let mut expected = 0usize;
    for _ in 0..rounds {
        for node in m.nodes().collect::<Vec<_>>() {
            for group in m.groups_of(node).collect::<Vec<_>>() {
                publishes.push((node, group));
                expected += m.group_size(group);
            }
        }
    }
    (publishes, expected)
}

/// The binary hosting the `cluster-node` entry point for the socket leg:
/// the `seqnet` CLI built alongside these tests, or an explicit override.
fn seqnet_binary() -> PathBuf {
    option_env!("CARGO_BIN_EXE_seqnet")
        .map(PathBuf::from)
        .or_else(|| std::env::var("SEQNET_BIN").ok().map(PathBuf::from))
        .expect("no seqnet binary for node processes: set SEQNET_BIN")
}

/// Runs the workload through the socket deployment — real node processes,
/// real TCP — applying `plan`'s crash windows as real SIGKILL + respawn
/// cycles. Returns the per-group delivery orders.
fn socket_orders(
    seed: u64,
    m: &Membership,
    publishes: &[(NodeId, GroupId)],
    expected: usize,
    plan: Option<&FaultPlan>,
) -> GroupOrders {
    let config = ClusterConfig {
        seed,
        ..ClusterConfig::default()
    };
    let mut cluster = DeployCluster::start_with_binary(m, config, Some(seqnet_binary()))
        .expect("socket cluster starts");
    for &(node, group) in publishes {
        cluster.publish(node, group, vec![]).unwrap();
    }
    if let Some(plan) = plan {
        cluster
            .run_chaos_plan(&ChaosPlan::from_fault_plan(plan))
            .expect("chaos plan replays");
    }
    let deliveries = cluster
        .wait_for_deliveries(expected, Duration::from_secs(60))
        .expect("socket cluster delivers everything");
    let stats = cluster.shutdown();

    // Observability: every node process wrote an incremental JSONL trace
    // that survives SIGKILL, and it parses.
    let mut obs_files = 0;
    for idx in 0..cluster.num_sequencing_nodes() {
        let path = cluster.dir().join(format!("node{idx}.obs.jsonl"));
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        obs_files += 1;
        assert!(
            seqnet::obs::jsonl::parse_jsonl_lines(&text).is_some(),
            "node {idx} obs log parses"
        );
    }
    assert!(obs_files > 0, "node processes wrote obs logs");
    assert!(stats.snapshots > 0, "node processes checkpointed to disk");

    if let Some(plan) = plan {
        let expected_kills = plan
            .crash_windows()
            .iter()
            .filter(|w| w.node < cluster.num_sequencing_nodes())
            .count() as u64;
        assert_eq!(
            stats.recovery.crashes, expected_kills,
            "every crash window SIGKILLed a real process"
        );
    }

    let orders = delivery_orders(&deliveries);
    assert_no_duplicates(&orders, "socket");
    assert_eq!(
        orders.values().map(Vec::len).sum::<usize>(),
        expected,
        "socket: zero loss"
    );
    orders
}

/// Runs the workload through all three drivers (with an optional fault
/// plan) and asserts identical per-group delivery orders at every
/// receiver.
fn assert_equivalent(seed: u64, plan: Option<FaultPlan>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = ZipfGroups::new(10, 4).with_min_size(2).sample(&mut rng);
    let (publishes, expected) = workload(&m, 2);

    // Simulator: strictly increasing publish times keep the ingress
    // arrival order identical to the publish order.
    let mut bus = OrderedPubSub::new(&m);
    if let Some(plan) = plan.clone() {
        bus.apply_fault_plan(plan);
    }
    for (k, &(node, group)) in publishes.iter().enumerate() {
        bus.publish_at(SimTime::from_micros((k as u64 + 1) * 700), node, group, vec![])
            .unwrap();
    }
    bus.run_to_quiescence();
    assert_eq!(bus.stuck_messages(), 0, "sim delivered everything");
    let sim = sim_orders(&bus, &m);
    assert_eq!(sim.values().map(Vec::len).sum::<usize>(), expected);

    // Threaded runtime: the single publisher front-end feeds ingress
    // nodes over FIFO links, preserving the same publish order per
    // ingress.
    let config = ClusterConfig {
        seed,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::start(&m, config);
    for &(node, group) in &publishes {
        cluster.publish(node, group, vec![]).unwrap();
    }
    if let Some(plan) = &plan {
        cluster.run_fault_plan(plan);
    }
    let deliveries = cluster
        .wait_for_deliveries(expected, Duration::from_secs(60))
        .unwrap();
    cluster.shutdown();
    let threaded = delivery_orders(&deliveries);

    // Socket deployment: real processes, real TCP, real SIGKILL.
    let socket = socket_orders(seed, &m, &publishes, expected, plan.as_ref());

    assert_eq!(
        sim, threaded,
        "sim and runtime disagree on some per-group delivery order"
    );
    assert_eq!(
        threaded, socket,
        "runtime and socket cluster disagree on some per-group delivery order"
    );

    if plan.is_some() {
        assert!(
            bus.fault_stats().recovery.crashes > 0,
            "the fault plan actually crashed a simulated atom"
        );
        assert!(
            cluster.stats().recovery.crashes > 0,
            "the fault plan actually crashed a runtime node"
        );
    }
}

#[test]
fn fault_free_runs_agree() {
    assert_equivalent(11, None);
    assert_equivalent(47, None);
}

#[test]
fn crash_window_runs_agree() {
    // Index 0 names atom 0 in the simulator and sequencing node 0 in both
    // cluster drivers (see module docs); all always exist. The window
    // spans the publish burst, so frames park (sim) / queue (runtime) /
    // get retransmitted to the respawned process (socket) and replay.
    let plan = FaultPlan::new().crash(
        0,
        SimTime::from_micros(5_000),
        SimTime::from_micros(40_000),
    );
    assert_equivalent(11, Some(plan));
}

#[test]
fn late_crash_window_runs_agree() {
    // A different seed and a window that opens after most snapshots have
    // covered the burst: recovery restores from the checkpoint instead of
    // replaying the whole stream.
    let plan = FaultPlan::new().crash(
        0,
        SimTime::from_micros(20_000),
        SimTime::from_micros(45_000),
    );
    assert_equivalent(23, Some(plan));
}

/// Per-(group, receiver) delivered `(message id, epoch)` pairs, in
/// delivery order — the churn variant of [`GroupOrders`], which also
/// pins which configuration epoch sequenced each message.
type ChurnOrders = BTreeMap<(GroupId, NodeId), Vec<(u64, u64)>>;

/// The fixed churn schedule all three drivers replay: crash sequencing
/// party 0, publish a burst into the outage (epoch 0), stage a join of
/// `n4` into `g1` while that burst is still in flight, publish a second
/// burst that parks behind the handoff, recover, complete the handoff,
/// and drain. Returns (initial membership, next membership, epoch-0
/// burst, epoch-1 burst, expected delivery total).
#[allow(clippy::type_complexity)]
fn churn_schedule() -> (
    Membership,
    Membership,
    Vec<(NodeId, GroupId)>,
    Vec<(NodeId, GroupId)>,
    usize,
) {
    let n = NodeId;
    let g = GroupId;
    let m1 = Membership::from_groups([
        (g(0), vec![n(0), n(1), n(2)]),
        (g(1), vec![n(1), n(2), n(3)]),
    ]);
    let m2 = Membership::from_groups([
        (g(0), vec![n(0), n(1), n(2)]),
        (g(1), vec![n(1), n(2), n(3), n(4)]),
    ]);
    let burst_a = vec![(n(0), g(0)), (n(3), g(1)), (n(1), g(0)), (n(2), g(1))];
    let burst_b = vec![(n(3), g(1)), (n(0), g(0)), (n(4), g(1))];
    let expected_a: usize = burst_a.iter().map(|&(_, grp)| m1.group_size(grp)).sum();
    let expected_b: usize = burst_b.iter().map(|&(_, grp)| m2.group_size(grp)).sum();
    (m1, m2, burst_a, burst_b, expected_a + expected_b)
}

fn churn_orders_sim(bus: &OrderedPubSub, m: &Membership) -> ChurnOrders {
    let mut orders = ChurnOrders::new();
    for node in m.nodes() {
        for d in bus.delivered(node) {
            orders
                .entry((d.group, node))
                .or_default()
                .push((d.id.0, d.epoch));
        }
    }
    orders
}

fn churn_orders(deliveries: &BTreeMap<NodeId, Vec<Message>>) -> ChurnOrders {
    let mut orders = ChurnOrders::new();
    for (&node, msgs) in deliveries {
        for msg in msgs {
            orders
                .entry((msg.group, node))
                .or_default()
                .push((msg.id.0, msg.epoch));
        }
    }
    orders
}

/// ISSUE 8 satellite: the churn-aware three-way oracle. The same seeded
/// reconfiguration schedule — a SIGKILL (or its driver-level equivalent)
/// landing *inside* the epoch handoff — runs through the simulator, the
/// threaded runtime, and the socket deployment, and all three must agree
/// on every per-(group, receiver) delivery order *and* on which epoch
/// sequenced every message.
#[test]
fn churn_with_crash_inside_handoff_agrees() {
    let seed = 11u64;
    let (m1, m2, burst_a, burst_b, expected) = churn_schedule();

    // Simulator: atom 0 is down from just after time zero until well
    // after the burst, so the epoch-0 drain spans a crash + recovery.
    let mut bus = OrderedPubSub::new(&m1);
    bus.apply_fault_plan(FaultPlan::new().crash(
        0,
        SimTime::from_micros(1_000),
        SimTime::from_micros(30_000),
    ));
    for (k, &(node, group)) in burst_a.iter().enumerate() {
        bus.publish_at(SimTime::from_micros((k as u64 + 1) * 700), node, group, vec![])
            .unwrap();
    }
    let next_graph = GraphBuilder::new().build(&m2);
    assert_eq!(bus.begin_reconfigure(&m2, next_graph).unwrap(), 1);
    for (k, &(node, group)) in burst_b.iter().enumerate() {
        // Strictly increasing times past the recovery window keep the
        // parked injection order identical to the publish order.
        bus.publish_at(
            SimTime::from_micros(100_000 + (k as u64 + 1) * 700),
            node,
            group,
            vec![],
        )
        .unwrap();
    }
    assert_eq!(bus.parked_publishes(), burst_b.len());
    bus.run_to_quiescence();
    assert_eq!(bus.stuck_messages(), 0, "sim delivered everything");
    assert!(!bus.reconfig_pending(), "sim handoff completed");
    assert_eq!(bus.epoch(), 1);
    assert!(
        bus.fault_stats().recovery.crashes > 0,
        "the sim crash window actually fired inside the handoff"
    );
    let sim = churn_orders_sim(&bus, &m2);
    assert_eq!(sim.values().map(Vec::len).sum::<usize>(), expected);

    // Threaded runtime: a crashed node thread plays the SIGKILL.
    let config = ClusterConfig {
        seed,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::start(&m1, config.clone());
    assert!(cluster.crash_node(0));
    for &(node, group) in &burst_a {
        cluster.publish(node, group, vec![]).unwrap();
    }
    assert_eq!(cluster.begin_reconfigure(&m2), Ok(1));
    for &(node, group) in &burst_b {
        cluster.publish(node, group, vec![]).unwrap();
    }
    assert_eq!(cluster.parked_publishes(), burst_b.len());
    match cluster.complete_reconfigure(Duration::from_millis(300)) {
        // The epoch-0 drain did not need the crashed node (colocation is
        // seed-dependent); the rebuild revives it for epoch 1 anyway.
        Ok(1) => {}
        Err(RuntimeError::Timeout { .. }) => {
            assert!(cluster.reconfig_pending(), "a failed drain stays pending");
            assert!(cluster.restart_node(0));
            assert_eq!(cluster.complete_reconfigure(Duration::from_secs(30)), Ok(1));
        }
        other => panic!("unexpected handoff outcome: {other:?}"),
    }
    assert_eq!(cluster.epoch(), 1);
    let deliveries = cluster
        .wait_for_deliveries(expected, Duration::from_secs(60))
        .unwrap();
    cluster.shutdown();
    assert_eq!(cluster.stats().recovery.crashes, 1);
    let threaded = churn_orders(&deliveries);

    // Socket deployment: a real SIGKILL against a real child process,
    // inside a real epoch handoff.
    let mut sock = DeployCluster::start_with_binary(&m1, config, Some(seqnet_binary()))
        .expect("socket cluster starts");
    assert!(sock.kill_node(0));
    for &(node, group) in &burst_a {
        sock.publish(node, group, vec![]).unwrap();
    }
    assert_eq!(sock.begin_reconfigure(&m2), Ok(1));
    for &(node, group) in &burst_b {
        sock.publish(node, group, vec![]).unwrap();
    }
    assert_eq!(sock.parked_publishes(), burst_b.len());
    match sock.complete_reconfigure(Duration::from_millis(300)) {
        Ok(1) => {}
        // A drain timeout — and only that — is what a respawn cures; a
        // failed spawn of the next process tree would be `Spawn`.
        Err(RuntimeError::Timeout { .. }) => {
            assert!(sock.reconfig_pending(), "a failed drain stays pending");
            sock.respawn_node(0).expect("killed node respawns");
            assert_eq!(sock.complete_reconfigure(Duration::from_secs(60)), Ok(1));
        }
        other => panic!("unexpected handoff outcome: {other:?}"),
    }
    assert_eq!(sock.epoch(), 1);
    let deliveries = sock
        .wait_for_deliveries(expected, Duration::from_secs(60))
        .expect("socket cluster delivers everything");
    let stats = sock.shutdown();
    assert_eq!(stats.recovery.crashes, 1, "exactly one real SIGKILL");
    let socket = churn_orders(&deliveries);

    assert_no_duplicates(
        &socket.iter().map(|(k, v)| (*k, v.iter().map(|&(id, _)| id).collect())).collect(),
        "socket",
    );
    assert_eq!(
        sim, threaded,
        "sim and runtime disagree under churn on some per-group delivery order or epoch stamp"
    );
    assert_eq!(
        threaded, socket,
        "runtime and socket cluster disagree under churn on some per-group delivery order or epoch stamp"
    );

    // Epoch stamps: burst A ids (0..4) sequenced under epoch 0, parked
    // burst B ids (4..7) under epoch 1, at every driver and receiver.
    for ((group, node), seq) in &socket {
        for &(id, epoch) in seq {
            let want = if (id as usize) < burst_a.len() { 0 } else { 1 };
            assert_eq!(epoch, want, "{node} in {group}: message {id} epoch stamp");
        }
    }
    // The joiner only exists in epoch 1 and sees exactly the parked g1
    // publishes, in publish order.
    assert_eq!(
        socket[&(GroupId(1), NodeId(4))],
        vec![(4, 1), (6, 1)],
        "joiner sees exactly the epoch-1 g1 traffic"
    );
}

/// ISSUE 10 satellite: the coalescing + scratch-buffer wire path must be
/// order- and payload-transparent. The same seeded workload and crash
/// plan run through the threaded runtime twice — once unbatched (every
/// frame its own `Body::Data`), once with coalescing on, which exercises
/// the scratch-buffer flush path (`release_held_wire`: lone frames as
/// `Body::Data`, consecutive runs as `Body::DataBatch`) plus replay after
/// a crash — and every per-(group, receiver) delivery sequence, message
/// ids *and* payload bytes, must be identical.
#[test]
fn coalesced_scratch_path_matches_unbatched_under_crash() {
    let seed = 31u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let m = ZipfGroups::new(8, 4).with_min_size(2).sample(&mut rng);
    let (publishes, expected) = workload(&m, 2);
    let plan = FaultPlan::new().crash(
        0,
        SimTime::from_micros(5_000),
        SimTime::from_micros(40_000),
    );

    type ByteOrders = BTreeMap<(GroupId, NodeId), Vec<(u64, Vec<u8>)>>;
    let run = |coalesce: bool| -> (ByteOrders, BTreeMap<usize, u64>) {
        let mut cluster = Cluster::start(
            &m,
            ClusterConfig {
                seed,
                coalesce,
                ..ClusterConfig::default()
            },
        );
        for (k, &(node, group)) in publishes.iter().enumerate() {
            // Distinct payloads make the equivalence byte-level, not just
            // id-level.
            cluster
                .publish(node, group, vec![k as u8, (k >> 8) as u8, 0xA5])
                .unwrap();
        }
        cluster.run_fault_plan(&plan);
        let deliveries = cluster
            .wait_for_deliveries(expected, Duration::from_secs(60))
            .unwrap();
        cluster.shutdown();
        assert!(
            cluster.stats().recovery.crashes > 0,
            "the crash window actually fired (coalesce={coalesce})"
        );
        let mut orders = ByteOrders::new();
        for (&node, msgs) in &deliveries {
            for msg in msgs {
                orders
                    .entry((msg.group, node))
                    .or_default()
                    .push((msg.id.0, msg.payload.as_ref().to_vec()));
            }
        }
        (orders, cluster.batch_size_counts())
    };

    let (unbatched, plain_sizes) = run(false);
    let (batched, coalesced_sizes) = run(true);
    assert_eq!(
        unbatched.values().map(Vec::len).sum::<usize>(),
        expected,
        "unbatched run: zero loss"
    );
    assert!(
        plain_sizes.keys().all(|&s| s == 1),
        "coalescing off must emit single-frame writes only: {plain_sizes:?}"
    );
    assert!(
        coalesced_sizes.keys().any(|&s| s >= 2),
        "the coalesced run never produced a multi-frame batch: {coalesced_sizes:?}"
    );
    assert_eq!(
        unbatched, batched,
        "coalesced scratch-buffer path changed a delivery order or payload under crash replay"
    );
}

#[test]
fn double_crash_window_runs_agree() {
    // Two kill/respawn cycles on the same node: the second incarnation
    // restores the snapshot the first one wrote after its own recovery.
    let plan = FaultPlan::new()
        .crash(0, SimTime::from_micros(4_000), SimTime::from_micros(24_000))
        .crash(
            0,
            SimTime::from_micros(44_000),
            SimTime::from_micros(64_000),
        );
    assert_equivalent(47, Some(plan));
}
