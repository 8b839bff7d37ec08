//! The deployment trace plane, end to end (PROTOCOL.md §15): a real
//! multi-process socket cluster with crash injection must (1) serve a
//! live cluster-wide Prometheus scrape whose node families are exactly
//! the merge of the per-node registries and whose counters are monotonic
//! across scrapes, (2) leave per-process JSONL trace logs that join —
//! on the shared UNIX-µs timebase, across a SIGKILL — into complete
//! per-message span trees, and (3) export those spans as valid Chrome
//! `trace_event` JSON.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use seqnet::deploy::{node_registry, DeployCluster};
use seqnet::membership::{GroupId, Membership, NodeId};
use seqnet::obs::span::TraceSet;
use seqnet::obs::{chrome, jsonl, prom, Registry};
use seqnet::runtime::ClusterConfig;

fn seqnet_binary() -> PathBuf {
    option_env!("CARGO_BIN_EXE_seqnet")
        .map(PathBuf::from)
        .or_else(|| std::env::var("SEQNET_BIN").ok().map(PathBuf::from))
        .expect("no seqnet binary for node processes: set SEQNET_BIN")
}

/// The label key the coordinator's exposition uses: node families carry
/// the configuration epoch, coordinator families a group id.
fn label_key(name: &'static str) -> &'static str {
    if name.starts_with("node_") {
        "epoch"
    } else {
        "group"
    }
}

/// Parses `name{labels} value` sample lines into a map, skipping `# TYPE`
/// comments. Good enough to compare scrapes series-by-series.
fn samples(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            let (series, value) = l.rsplit_once(' ').expect("sample line");
            (series.to_string(), value.parse().expect("numeric sample"))
        })
        .collect()
}

/// One membership, four sequencing-node processes plus the coordinator —
/// the five-process shape the acceptance criterion names.
fn membership() -> Membership {
    let n = NodeId;
    let g = GroupId;
    Membership::from_groups([
        (g(0), vec![n(0), n(1), n(2)]),
        (g(1), vec![n(1), n(2), n(3)]),
        (g(2), vec![n(0), n(3), n(4)]),
    ])
}

#[test]
fn live_scrape_and_span_reconstruction_survive_a_sigkill() {
    let m = membership();
    let config = ClusterConfig {
        seed: 7,
        trace: true,
        ..ClusterConfig::default()
    };
    let mut cluster = DeployCluster::start_with_binary(&m, config, Some(seqnet_binary()))
        .expect("socket cluster starts");

    // First burst: every node publishes into every group it belongs to.
    let publishes: Vec<(NodeId, GroupId)> = m
        .nodes()
        .flat_map(|node| m.groups_of(node).map(move |g| (node, g)).collect::<Vec<_>>())
        .collect();
    let expected: usize = publishes.iter().map(|&(_, g)| m.group_size(g)).sum();
    for &(node, group) in &publishes {
        cluster.publish(node, group, vec![]).unwrap();
    }
    let first_batch = cluster
        .wait_for_deliveries(expected, Duration::from_secs(30))
        .expect("first burst delivers");
    assert_eq!(first_batch.values().map(Vec::len).sum::<usize>(), expected);

    // Scrape #1. wait_for_deliveries pumped the event loop, which primes
    // and then periodically refreshes the per-node telemetry snapshots.
    let scrape1 = cluster.prometheus_text();
    assert!(
        !cluster.telemetry().is_empty(),
        "pumping collected at least one node telemetry snapshot"
    );

    // The merged node registry IS the sum of the per-node registries —
    // same snapshot on both sides, so the expositions are byte-equal.
    let mut expected_reg = Registry::new();
    let epoch = 0;
    for t in cluster.telemetry().values() {
        expected_reg.merge(&node_registry(t, Some(epoch)));
    }
    assert_eq!(
        prom::exposition(&cluster.merged_node_registry(), "seqnet_deploy", label_key),
        prom::exposition(&expected_reg, "seqnet_deploy", label_key),
        "merged scrape diverges from the sum of per-node registries"
    );

    // The health line reports every node up with telemetry attached.
    let health = cluster.health_line();
    assert!(health.contains("epoch=0"), "health line: {health}");
    assert!(!health.contains("no-telemetry"), "health line: {health}");
    assert!(!health.contains(":down"), "health line: {health}");

    // A real SIGKILL mid-run: node 0's next incarnation must recover and
    // the trace plane must keep working across the gap.
    assert!(cluster.kill_node(0), "SIGKILL lands");
    assert!(cluster.respawn_node(0).expect("respawn"), "node 0 respawns");
    for &(node, group) in &publishes {
        cluster.publish(node, group, vec![]).unwrap();
    }
    cluster
        .wait_for_deliveries(expected, Duration::from_secs(30))
        .expect("post-crash burst delivers");

    // Give the 200ms telemetry poll a chance to refresh every node's
    // snapshot (including the respawned incarnation), then scrape #2.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        // No deliveries are pending, so this just pumps the event loop
        // (and with it the periodic telemetry poll) for 250ms.
        let _ = cluster.next_delivery(Duration::from_millis(250));
        let t = cluster.telemetry();
        if t.len() == cluster.num_sequencing_nodes()
            && t.get(&0).is_some_and(|t0| t0.incarnation > 0)
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "respawned node never reported fresh telemetry"
        );
    }
    let scrape2 = cluster.prometheus_text();
    let health = cluster.health_line();
    assert!(health.contains("inc1"), "respawn visible in health: {health}");

    // Counter monotonicity across the two scrapes: node counters reset
    // with the respawned incarnation are allowed to *drop out* only via
    // the merge taking the fresh snapshot — but every coordinator-side
    // counter and the overall publish/delivery counters only grow.
    let (s1, s2) = (samples(&scrape1), samples(&scrape2));
    for (series, &v1) in &s1 {
        if series.contains("node_") {
            continue; // per-node counters restart at a SIGKILL, by design
        }
        let v2 = s2.get(series).copied().unwrap_or_else(|| {
            panic!("series {series} vanished between scrapes")
        });
        assert!(
            v2 >= v1,
            "counter {series} went backwards across scrapes: {v1} -> {v2}"
        );
    }
    assert!(
        s2.get("seqnet_deploy_publishes_steady_total").copied() >= Some(2.0 * expected_sent(&publishes)),
        "steady publish counter covers both bursts"
    );
    assert!(
        s2.get("seqnet_deploy_crashes_total").copied() >= Some(1.0),
        "the SIGKILL shows up in the scrape"
    );

    let stats = cluster.shutdown();
    assert_eq!(stats.recovery.crashes, 1, "exactly one real SIGKILL");

    // Span reconstruction: join the coordinator's trace with every node
    // process's incremental JSONL log (flushed line-by-line, so readable
    // even for the SIGKILLed incarnation) on the shared UNIX-µs timebase.
    let mut events = cluster.trace_events();
    let mut node_logs = 0;
    for idx in 0..cluster.num_sequencing_nodes() {
        let path = cluster.dir().join(format!("node{idx}.obs.jsonl"));
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        node_logs += 1;
        events.extend(jsonl::parse_jsonl_lines(&text).expect("node obs log parses"));
    }
    assert!(node_logs > 0, "node processes wrote obs logs");

    let set = TraceSet::from_events(&events);
    assert_eq!(set.len(), 2 * publishes.len(), "one span tree per publish");
    assert_eq!(
        set.incomplete(),
        0,
        "every delivery reconstructs complete across the SIGKILL"
    );
    let b = set.breakdown_histograms();
    assert_eq!(b.complete, 2 * expected as u64);
    assert_eq!(
        b.stamp_wait.sum() + b.wire.sum() + b.group_gap_wait.sum() + b.atom_gap_wait.sum(),
        b.end_to_end.sum(),
        "decomposition sums to end-to-end across processes"
    );

    // And the whole set exports as valid Chrome trace JSON.
    let json = chrome::export(&set);
    chrome::validate(&json).expect("chrome trace validates");
}

/// Loss injected inside the node processes is part of the deployment's
/// account: a lossy socket cluster (no kill) reports the wire writes its
/// nodes discarded in their live telemetry, in the merged scrape, and —
/// after shutdown — in `DeployStats::frames_dropped`, and still delivers
/// everything.
#[test]
fn node_side_loss_reaches_telemetry_scrape_and_stats() {
    let m = membership();
    let config = ClusterConfig {
        seed: 11,
        drop_probability: 0.1,
        ..ClusterConfig::default()
    };
    let mut cluster = DeployCluster::start_with_binary(&m, config, Some(seqnet_binary()))
        .expect("socket cluster starts");

    let mut expected = 0;
    for _ in 0..3 {
        for node in m.nodes() {
            for group in m.groups_of(node).collect::<Vec<_>>() {
                cluster.publish(node, group, vec![]).unwrap();
                expected += m.group_size(group);
            }
        }
    }
    let delivered = cluster
        .wait_for_deliveries(expected, Duration::from_secs(30))
        .expect("retransmission recovers every dropped frame");
    assert_eq!(delivered.values().map(Vec::len).sum::<usize>(), expected);

    // Pump until the periodic telemetry poll has caught up with the drops.
    let node_drops = |c: &DeployCluster| -> u64 {
        c.telemetry().values().map(|t| t.stats.frames_dropped).sum()
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while node_drops(&cluster) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "no node reported a dropped frame at 10% loss"
        );
        let _ = cluster.next_delivery(Duration::from_millis(250));
    }
    let reported = node_drops(&cluster);
    let scrape = samples(&cluster.prometheus_text());
    assert_eq!(
        scrape.get("seqnet_deploy_node_frames_dropped_total{epoch=\"0\"}"),
        Some(&(reported as f64)),
        "the merged scrape carries the nodes' drops"
    );

    let stats = cluster.shutdown();
    assert!(
        stats.frames_dropped >= reported,
        "shutdown stats lost node-side drops: {} < {reported}",
        stats.frames_dropped
    );
}

/// The number of publishes in one burst (the steady counter counts
/// publishes accepted, not fan-out deliveries).
fn expected_sent(publishes: &[(NodeId, GroupId)]) -> f64 {
    publishes.len() as f64
}
