//! Sequencer crash–recovery, end to end.
//!
//! Runtime side: killing and restarting sequencing-node threads
//! ([`Cluster::crash_node`] / [`Cluster::restart_node`]) must never lose a
//! message or break order agreement — restarted nodes rebuild from their
//! latest snapshot plus replay out of upstream retransmission buffers
//! (the paper's §3.1 output buffers doubling as a recovery log).
//!
//! Simulator side: any deterministic [`FaultPlan`] (crashes, partitions,
//! burst loss) must preserve Definition 1 — every message eventually
//! delivered, overlap members agreeing on order — and the same seed must
//! reproduce the run byte for byte.

use proptest::collection::vec;
use proptest::prelude::*;
use seqnet::core::{Message, OrderedPubSub};
use seqnet::membership::{GroupId, Membership, NodeId};
use seqnet::runtime::{Cluster, ClusterConfig};
use seqnet::sim::{FaultPlan, SimTime};
use std::collections::BTreeMap;
use std::time::Duration;

mod strategies;

fn n(i: u32) -> NodeId {
    NodeId(i)
}
fn g(i: u32) -> GroupId {
    GroupId(i)
}

fn overlapped_membership() -> Membership {
    Membership::from_groups([
        (g(0), vec![n(0), n(1), n(2)]),
        (g(1), vec![n(1), n(2), n(3)]),
    ])
}

/// Three groups forming two double overlaps with *disjoint* member sets
/// ({0,1} and {10,11}), which the co-location heuristic can never merge —
/// so this topology deterministically yields exactly two sequencing nodes
/// for every seed, and g0's path crosses both (a node-to-node link, which
/// heartbeat-based failure detection needs).
fn two_sequencing_node_membership() -> Membership {
    Membership::from_groups([
        (g(0), vec![n(0), n(1), n(10), n(11)]),
        (g(1), vec![n(0), n(1), n(2)]),
        (g(2), vec![n(10), n(11), n(12)]),
    ])
}

fn assert_pairwise_agreement(m: &Membership, deliveries: &BTreeMap<NodeId, Vec<Message>>) {
    let nodes: Vec<NodeId> = m.nodes().collect();
    let empty = Vec::new();
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            let da: Vec<_> = deliveries.get(&a).unwrap_or(&empty).iter().map(|x| x.id).collect();
            let db: Vec<_> = deliveries.get(&b).unwrap_or(&empty).iter().map(|x| x.id).collect();
            let ca: Vec<_> = da.iter().filter(|x| db.contains(x)).collect();
            let cb: Vec<_> = db.iter().filter(|x| da.contains(x)).collect();
            assert_eq!(ca, cb, "{a} and {b} disagree");
        }
    }
}

fn merge(
    into: &mut BTreeMap<NodeId, Vec<Message>>,
    from: BTreeMap<NodeId, Vec<Message>>,
) {
    for (node, msgs) in from {
        into.entry(node).or_default().extend(msgs);
    }
}

/// Crash one node mid-stream, keep publishing into the outage, restart:
/// everything is delivered and overlap members still agree on order.
#[test]
fn crash_mid_stream_is_transparent() {
    let m = overlapped_membership();
    let mut cluster = Cluster::start(&m, ClusterConfig::default());

    let mut expected = 0usize;
    for i in 0..4u32 {
        let (s, grp) = if i % 2 == 0 { (n(0), g(0)) } else { (n(3), g(1)) };
        cluster.publish(s, grp, vec![i as u8]).unwrap();
        expected += m.group_size(grp);
    }
    let mut all = cluster
        .wait_for_deliveries(expected, Duration::from_secs(30))
        .unwrap();

    assert!(cluster.crash_node(0), "node 0 was running");
    assert!(!cluster.crash_node(0), "second kill is a no-op");
    let mut expected = 0usize;
    for i in 4..8u32 {
        let (s, grp) = if i % 2 == 0 { (n(0), g(0)) } else { (n(3), g(1)) };
        cluster.publish(s, grp, vec![i as u8]).unwrap();
        expected += m.group_size(grp);
    }
    std::thread::sleep(Duration::from_millis(20));
    assert!(cluster.restart_node(0), "node 0 was down");
    assert!(!cluster.restart_node(0), "second restart is a no-op");
    merge(
        &mut all,
        cluster
            .wait_for_deliveries(expected, Duration::from_secs(30))
            .unwrap(),
    );

    assert_pairwise_agreement(&m, &all);
    assert_eq!(all.values().map(Vec::len).sum::<usize>(), 24);
    cluster.shutdown();
    assert_eq!(cluster.stats().recovery.crashes, 1);
}

/// The same kill/restart transparency with frame coalescing enabled: a
/// crash can now interrupt multi-frame wire writes, and the restarted
/// node's replay arrives partly as coalesced runs — recovery must not
/// depend on the one-frame-per-write framing. The wire histogram proves
/// the run actually coalesced.
#[test]
fn crash_mid_stream_is_transparent_with_coalescing() {
    let m = overlapped_membership();
    let mut cluster = Cluster::start(
        &m,
        ClusterConfig {
            coalesce: true,
            ..ClusterConfig::default()
        },
    );

    // Bursts keep several frames staged per snapshot, so flushes release
    // multi-frame runs rather than singletons.
    let mut all = BTreeMap::new();
    let mut publish_burst = |cluster: &mut Cluster, base: u32| -> usize {
        let mut expected = 0usize;
        for i in base..base + 6 {
            let (s, grp) = if i % 2 == 0 { (n(0), g(0)) } else { (n(3), g(1)) };
            cluster.publish(s, grp, vec![i as u8]).unwrap();
            expected += m.group_size(grp);
        }
        expected
    };
    let expected = publish_burst(&mut cluster, 0);
    merge(
        &mut all,
        cluster
            .wait_for_deliveries(expected, Duration::from_secs(30))
            .unwrap(),
    );

    assert!(cluster.crash_node(0), "node 0 was running");
    let expected = publish_burst(&mut cluster, 6);
    std::thread::sleep(Duration::from_millis(20));
    assert!(cluster.restart_node(0), "node 0 was down");
    merge(
        &mut all,
        cluster
            .wait_for_deliveries(expected, Duration::from_secs(30))
            .unwrap(),
    );

    assert_pairwise_agreement(&m, &all);
    assert_eq!(all.values().map(Vec::len).sum::<usize>(), 36);
    cluster.shutdown();
    assert_eq!(cluster.stats().recovery.crashes, 1);
    assert!(
        cluster.stats().recovery.frames_replayed > 0,
        "restart must replay the outage backlog"
    );
    assert!(
        cluster.batch_size_counts().keys().any(|&size| size > 1),
        "coalescing must actually produce multi-frame wire writes: {:?}",
        cluster.batch_size_counts()
    );
}

/// Crash while lossy links are already forcing retransmissions: the crash
/// and the loss recovery must compose.
#[test]
fn crash_during_retransmission_storm() {
    let m = overlapped_membership();
    let config = ClusterConfig {
        drop_probability: 0.3,
        retransmit_timeout: Duration::from_millis(3),
        backoff_cap: Duration::from_millis(24),
        seed: 1234,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::start(&m, config);
    let mut expected = 0usize;
    for i in 0..8u32 {
        let (s, grp) = if i % 2 == 0 { (n(0), g(0)) } else { (n(3), g(1)) };
        cluster.publish(s, grp, vec![i as u8]).unwrap();
        expected += m.group_size(grp);
    }
    // Kill node 0 while those frames are still in flight (and some of them
    // already dropped, awaiting retransmission).
    assert!(cluster.crash_node(0));
    std::thread::sleep(Duration::from_millis(25));
    assert!(cluster.restart_node(0));
    let all = cluster
        .wait_for_deliveries(expected, Duration::from_secs(60))
        .unwrap();
    assert_pairwise_agreement(&m, &all);
    cluster.shutdown();
    let stats = cluster.stats();
    assert_eq!(stats.recovery.crashes, 1);
    assert!(stats.frames_dropped > 0, "loss injector actually fired");
    assert!(stats.retransmissions > 0, "retransmission actually fired");
}

/// Two sequencing nodes down at the same time, publishes flowing into the
/// double outage; both populations converge after both restarts.
#[test]
fn two_nodes_down_concurrently() {
    let m = Membership::from_groups([
        (g(0), vec![n(0), n(1), n(2)]),
        (g(1), vec![n(1), n(2), n(3)]),
        (g(10), vec![n(10), n(11), n(12)]),
        (g(11), vec![n(11), n(12), n(13)]),
    ]);
    let mut cluster = Cluster::start(&m, ClusterConfig::default());
    assert!(
        cluster.num_sequencing_nodes() >= 2,
        "ingress atoms alone force multiple sequencing nodes"
    );

    let groups = [g(0), g(1), g(10), g(11)];
    let mut expected = 0usize;
    for (i, &grp) in groups.iter().enumerate() {
        let sender = m.members(grp).next().unwrap();
        cluster.publish(sender, grp, vec![i as u8]).unwrap();
        expected += m.group_size(grp);
    }
    let mut all = cluster
        .wait_for_deliveries(expected, Duration::from_secs(30))
        .unwrap();

    assert!(cluster.crash_node(0));
    assert!(cluster.crash_node(1));
    let mut expected = 0usize;
    for (i, &grp) in groups.iter().enumerate() {
        let sender = m.members(grp).next().unwrap();
        cluster.publish(sender, grp, vec![10 + i as u8]).unwrap();
        expected += m.group_size(grp);
    }
    std::thread::sleep(Duration::from_millis(20));
    assert!(cluster.restart_node(0));
    assert!(cluster.restart_node(1));
    merge(
        &mut all,
        cluster
            .wait_for_deliveries(expected, Duration::from_secs(30))
            .unwrap(),
    );

    assert_pairwise_agreement(&m, &all);
    cluster.shutdown();
    assert_eq!(cluster.stats().recovery.crashes, 2);
}

/// Kill every sequencing node in turn, each time publishing into the
/// outage. Every restarted node must rebuild via snapshot + replay, and
/// the runtime must account for it: nonzero crash count, nonzero replayed
/// frames, nonzero recovery latency, and heartbeat-based detections.
#[test]
fn every_node_crashes_and_replay_restores_service() {
    let m = two_sequencing_node_membership();
    let config = ClusterConfig {
        heartbeat_interval: Duration::from_millis(5),
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::start(&m, config);
    let nodes = cluster.num_sequencing_nodes();
    assert_eq!(nodes, 2, "disjoint-member overlap atoms are never merged");

    let groups = [g(0), g(1), g(2)];
    let mut all: BTreeMap<NodeId, Vec<Message>> = BTreeMap::new();
    let mut payload = 0u8;
    let mut expected = 0usize;
    for &grp in &groups {
        let sender = m.members(grp).next().unwrap();
        cluster.publish(sender, grp, vec![payload]).unwrap();
        payload += 1;
        expected += m.group_size(grp);
    }
    merge(
        &mut all,
        cluster
            .wait_for_deliveries(expected, Duration::from_secs(30))
            .unwrap(),
    );

    for idx in 0..nodes {
        assert!(cluster.crash_node(idx), "node {idx} was running");
        // Publishes during the downtime queue in the dead node's inbox (or
        // retry from upstream buffers) and are replayed after the restart.
        // g0's path crosses both sequencing nodes, so every outage sits on
        // some group's path.
        let mut expected = 0usize;
        for &grp in &groups {
            let sender = m.members(grp).next().unwrap();
            cluster.publish(sender, grp, vec![payload]).unwrap();
            payload += 1;
            expected += m.group_size(grp);
        }
        // Outage longer than three heartbeat intervals, so live watchers
        // suspect the dead node's upstream silence.
        std::thread::sleep(Duration::from_millis(25));
        assert!(cluster.restart_node(idx), "node {idx} was down");
        merge(
            &mut all,
            cluster
                .wait_for_deliveries(expected, Duration::from_secs(30))
                .unwrap(),
        );
    }

    assert_pairwise_agreement(&m, &all);
    cluster.shutdown();
    let stats = cluster.stats();
    assert_eq!(stats.recovery.crashes, nodes as u64);
    assert!(
        stats.recovery.frames_replayed > 0,
        "restarted nodes rebuilt from upstream replay"
    );
    assert!(stats.recovery.recovery_micros > 0, "recovery latency was measured");
    assert!(
        stats.heartbeat_misses > 0,
        "an outage longer than three heartbeat intervals was detected"
    );
}

/// Driving the runtime from a [`FaultPlan`] executes its crash windows on
/// the wall clock; deliveries and order agreement survive.
#[test]
fn runtime_executes_fault_plan_windows() {
    let m = two_sequencing_node_membership();
    let mut cluster = Cluster::start(&m, ClusterConfig::default());
    assert_eq!(cluster.num_sequencing_nodes(), 2);
    // Both windows name real sequencing nodes, so both crashes execute.
    let plan = FaultPlan::new()
        .crash(0, SimTime::from_micros(2_000), SimTime::from_micros(30_000))
        .crash(1, SimTime::from_micros(10_000), SimTime::from_micros(35_000));
    let groups = [g(0), g(1), g(2)];
    let mut expected = 0usize;
    for i in 0..6u32 {
        let grp = groups[i as usize % groups.len()];
        let sender = m.members(grp).next().unwrap();
        cluster.publish(sender, grp, vec![i as u8]).unwrap();
        expected += m.group_size(grp);
    }
    cluster.run_fault_plan(&plan);
    let all = cluster
        .wait_for_deliveries(expected, Duration::from_secs(30))
        .unwrap();
    assert_pairwise_agreement(&m, &all);
    cluster.shutdown();
    assert_eq!(cluster.stats().recovery.crashes, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Definition 1 under arbitrary randomized fault schedules in the
    /// simulator, over arbitrary double-overlapped memberships from the
    /// shared strategy module: every message is eventually delivered to
    /// every group member and overlap members agree on the relative order.
    #[test]
    fn faulty_runs_stay_totally_ordered(
        m in strategies::overlapped_membership(),
        seed in any::<u64>(),
        schedule in vec((0usize..64, 0usize..64, 0u64..20_000), 1..16),
    ) {
        let mut bus = OrderedPubSub::new(&m);
        let atoms = bus.graph().num_atoms();
        bus.apply_fault_plan(FaultPlan::randomized(seed, atoms, SimTime::from_ms(40.0)));
        let nodes: Vec<NodeId> = m.nodes().collect();
        let groups: Vec<GroupId> = m.groups().collect();
        let mut expected = 0usize;
        for &(s, grp, t) in &schedule {
            let group = groups[grp % groups.len()];
            bus.publish_at(SimTime::from_micros(t), nodes[s % nodes.len()], group, vec![])
                .unwrap();
            expected += m.group_size(group);
        }
        bus.run_to_quiescence();

        prop_assert_eq!(bus.stuck_messages(), 0, "faults deadlocked the run");
        prop_assert_eq!(bus.all_deliveries().count(), expected, "a fault lost messages");
        // Nodes 0 and 1 form the strategy's guaranteed double overlap;
        // their common messages must appear in the same relative order.
        let o1: Vec<_> = bus.delivered(n(0)).iter().map(|d| d.id).collect();
        let o2: Vec<_> = bus.delivered(n(1)).iter().map(|d| d.id).collect();
        let c1: Vec<_> = o1.iter().filter(|x| o2.contains(x)).collect();
        let c2: Vec<_> = o2.iter().filter(|x| o1.contains(x)).collect();
        prop_assert_eq!(c1, c2, "overlap members diverged under faults");
    }

    /// The same fault-plan seed reproduces the run byte for byte:
    /// identical deliveries at identical virtual times, identical fault
    /// accounting.
    #[test]
    fn fault_schedules_are_reproducible(seed in any::<u64>()) {
        let run = |seed: u64| {
            let m = overlapped_membership();
            let mut bus = OrderedPubSub::new(&m);
            let atoms = bus.graph().num_atoms();
            bus.apply_fault_plan(FaultPlan::randomized(seed, atoms, SimTime::from_ms(40.0)));
            for i in 0..6u32 {
                let (s, grp) = if i % 2 == 0 { (n(0), g(0)) } else { (n(3), g(1)) };
                bus.publish_at(SimTime::from_micros(u64::from(i) * 900), s, grp, vec![i as u8])
                    .unwrap();
            }
            bus.run_to_quiescence();
            let mut log: Vec<(NodeId, u64, SimTime)> = bus
                .all_deliveries()
                .map(|d| (d.destination, d.id.0, d.delivered))
                .collect();
            log.sort();
            (log, bus.fault_stats())
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}
