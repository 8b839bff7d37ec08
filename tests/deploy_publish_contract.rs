//! `DeployCluster::publish` queues and returns; the bytes move when the
//! caller next waits. Two consequences checked here on real node
//! processes: a burst published with no other call in between is all
//! delivered by the wait that follows it, and a burst whose ingress node
//! is SIGKILLed before any of it was written — so the connection dies
//! with the bytes still in its buffer — is recovered in full, exactly
//! once, by the reconnect replay. (That the unwritten backlog is bounded
//! is a unit test next to `publish`, where the connections are visible.)

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use seqnet::core::{Message, MessageId};
use seqnet::deploy::{DeployCluster, Topology};
use seqnet::membership::{GroupId, Membership, NodeId};
use seqnet::runtime::ClusterConfig;

fn seqnet_binary() -> PathBuf {
    option_env!("CARGO_BIN_EXE_seqnet")
        .map(PathBuf::from)
        .or_else(|| std::env::var("SEQNET_BIN").ok().map(PathBuf::from))
        .expect("no seqnet binary for node processes: set SEQNET_BIN")
}

fn membership() -> Membership {
    let n = NodeId;
    Membership::from_groups([
        (GroupId(0), vec![n(0), n(1), n(2)]),
        (GroupId(1), vec![n(1), n(2), n(3)]),
        (GroupId(2), vec![n(0), n(3), n(4)]),
    ])
}

fn start(seed: u64) -> DeployCluster {
    let config = ClusterConfig {
        seed,
        ..ClusterConfig::default()
    };
    DeployCluster::start_with_binary(&membership(), config, Some(seqnet_binary()))
        .expect("socket cluster starts")
}

/// Publishes `count` small messages round-robin over the groups with no
/// other call in between; returns the ids per group, in publish order.
fn burst(cluster: &mut DeployCluster, count: u64) -> BTreeMap<GroupId, Vec<MessageId>> {
    let mut ids: BTreeMap<GroupId, Vec<MessageId>> = BTreeMap::new();
    for i in 0..count {
        let group = GroupId((i % 3) as u32);
        let sender = membership().members(group).next().expect("non-empty");
        let id = cluster
            .publish(sender, group, i.to_le_bytes().to_vec())
            .expect("the group exists");
        ids.entry(group).or_default().push(id);
    }
    ids
}

/// Every member of every group got exactly that group's ids, each once,
/// in publish order (one publisher per group, so FIFO is the total order).
fn assert_exactly_once(
    got: &BTreeMap<NodeId, Vec<Message>>,
    ids: &BTreeMap<GroupId, Vec<MessageId>>,
) {
    let m = membership();
    for (&group, expect) in ids {
        for host in m.members(group) {
            let seen: Vec<MessageId> = got
                .get(&host)
                .into_iter()
                .flatten()
                .filter(|msg| msg.group == group)
                .map(|msg| msg.id)
                .collect();
            assert_eq!(&seen, expect, "{host} on {group}");
        }
    }
}

#[test]
fn a_burst_with_no_call_in_between_is_delivered_by_the_wait_that_follows() {
    let mut cluster = start(11);
    let ids = burst(&mut cluster, 600);
    let owed = 600 * 3;
    let got = cluster
        .wait_for_deliveries(owed, Duration::from_secs(30))
        .expect("every delivery arrives");
    assert_exactly_once(&got, &ids);
    assert!(
        cluster.next_delivery(Duration::from_millis(50)).is_none(),
        "and nothing twice"
    );
    cluster.shutdown();
}

#[test]
fn a_burst_whose_connection_dies_unwritten_is_replayed_exactly_once() {
    let mut cluster = start(12);
    // Bring every connection up first, so the burst below sits in a live
    // connection's buffer rather than being dropped for want of one.
    let warm = burst(&mut cluster, 3);
    let got = cluster
        .wait_for_deliveries(9, Duration::from_secs(30))
        .expect("warm-up arrives");
    assert_exactly_once(&got, &warm);

    // 30 publishes of a few dozen bytes: far below the 64 KiB that would
    // make `publish` write. Then the ingress node of group 0 dies before
    // anything pumped.
    let ids = burst(&mut cluster, 30);
    let topo = Topology::derive(&membership(), 12);
    let ingress = topo.atom_node[&topo.graph.ingress(GroupId(0)).expect("g0 has a path")];
    assert!(cluster.kill_node(ingress), "the ingress node was running");
    assert!(cluster.respawn_node(ingress).expect("respawn"));

    let got = cluster
        .wait_for_deliveries(30 * 3, Duration::from_secs(30))
        .expect("the replay recovers the burst");
    assert_exactly_once(&got, &ids);
    assert!(
        cluster.next_delivery(Duration::from_millis(200)).is_none(),
        "and nothing twice"
    );
    let stats = cluster.shutdown();
    assert_eq!(stats.recovery.crashes, 1);
    assert!(stats.retransmissions > 0, "the burst travelled as a replay");
}
