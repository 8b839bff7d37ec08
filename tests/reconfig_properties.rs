//! Property-based tests of online reconfiguration (PROTOCOL.md §14):
//! arbitrary join/leave/publish/crash interleavings preserve exactly-once
//! delivery and per-group total order across the epoch boundary, and
//! epoch-stamped durable state roundtrips losslessly.

use proptest::collection::vec;
use proptest::prelude::*;
use seqnet::core::proto::{Digest, Frame, ProtocolState};
use seqnet::core::{Message, MessageId, OrderedPubSub};
use seqnet::deploy::snapshot::DiskSnapshot;
use seqnet::membership::{GroupId, Membership, NodeId};
use seqnet::overlap::GraphBuilder;
use seqnet::runtime::{LinkSnapshot, TxLinkSnapshot};
use seqnet::sim::SimTime;
use std::collections::{BTreeMap, BTreeSet};

mod strategies;

/// The next configuration for a churn step: a fresh node joins group 0,
/// or one of group 0's guaranteed members leaves. `overlapped_membership`
/// pins nodes 0 and 1 inside groups 0 and 1, so a leave never empties the
/// group and the double overlap survives either way.
fn next_membership(m: &Membership, join: bool) -> Membership {
    let mut next = m.clone();
    if join {
        next.subscribe(NodeId(m.num_nodes() as u32 + 7), GroupId(0));
    } else {
        next.unsubscribe(NodeId(0), GroupId(0));
    }
    next
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole property: for any overlapped membership, any publish
    /// schedule, any split of that schedule around a live join or leave,
    /// and any crash plan against atom 0, the run drains with exactly-once
    /// delivery per epoch-appropriate audience, agreeing per-group orders
    /// at every pair of subscribers, and monotone epoch stamps.
    #[test]
    fn churn_interleavings_preserve_delivery_and_order(
        m in strategies::overlapped_membership(),
        schedule in vec((0usize..64, 0usize..64, 0u64..10_000), 1..16),
        split in 0usize..16,
        join in any::<bool>(),
        plan in strategies::fault_plan(1, SimTime::from_ms(40.0)),
    ) {
        let next = next_membership(&m, join);
        let groups: Vec<GroupId> = m.groups().collect();
        let nodes: Vec<NodeId> = m.nodes().collect();
        let split = split.min(schedule.len());

        let mut bus = OrderedPubSub::new(&m);
        bus.apply_fault_plan(plan);

        // Publishes before the split are accepted under epoch 0 (still in
        // flight when the reconfiguration is staged); the rest park.
        let mut audience: Vec<(GroupId, usize)> = Vec::new();
        for (k, &(s, g, t)) in schedule.iter().enumerate() {
            if k == split {
                prop_assert_eq!(
                    bus.begin_reconfigure(&next, GraphBuilder::new().build(&next)).unwrap(),
                    1
                );
            }
            let sender = nodes[s % nodes.len()];
            let group = groups[g % groups.len()];
            // Times land inside the fault plan's horizon, so crash
            // windows genuinely interleave with the traffic and the
            // handoff drain.
            bus.publish_at(SimTime::from_micros(t + k as u64), sender, group, vec![])
                .unwrap();
            let epoch_m = if k < split { &m } else { &next };
            audience.push((group, epoch_m.group_size(group)));
        }
        if split >= schedule.len() {
            prop_assert_eq!(
                bus.begin_reconfigure(&next, GraphBuilder::new().build(&next)).unwrap(),
                1
            );
        }
        prop_assert_eq!(bus.parked_publishes(), schedule.len() - split);

        bus.run_to_quiescence();
        prop_assert_eq!(bus.stuck_messages(), 0, "deadlock under churn");
        prop_assert!(!bus.reconfig_pending(), "handoff completed");
        prop_assert_eq!(bus.epoch(), 1);

        // Exactly-once per epoch audience: each publish reaches every
        // member its epoch's membership prescribes, and nobody else.
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for d in bus.all_deliveries() {
            *counts.entry(d.id.0).or_insert(0) += 1;
            let want = if (d.id.0 as usize) < split { 0 } else { 1 };
            prop_assert_eq!(d.epoch, want, "epoch stamp matches the publish's epoch");
        }
        for (k, &(_, size)) in audience.iter().enumerate() {
            prop_assert_eq!(
                counts.get(&(k as u64)).copied().unwrap_or(0),
                size,
                "message {} audience", k
            );
        }

        // Per-receiver: no duplicates, monotone epoch stamps, and
        // pairwise agreement on the relative order of common messages.
        let all_nodes: Vec<NodeId> = next
            .nodes()
            .chain(m.nodes())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut logs: Vec<Vec<u64>> = Vec::with_capacity(all_nodes.len());
        for &node in &all_nodes {
            let recs = bus.delivered(node);
            let mut seen = BTreeSet::new();
            for d in recs {
                prop_assert!(seen.insert(d.id.0), "{} delivered {} twice", node, d.id);
            }
            for pair in recs.windows(2) {
                prop_assert!(
                    pair[0].epoch <= pair[1].epoch,
                    "{} saw epochs run backwards", node
                );
            }
            logs.push(recs.iter().map(|d| d.id.0).collect());
        }
        for (i, a) in logs.iter().enumerate() {
            for b in logs.iter().skip(i + 1) {
                let common: BTreeSet<u64> = a
                    .iter()
                    .copied()
                    .collect::<BTreeSet<_>>()
                    .intersection(&b.iter().copied().collect())
                    .copied()
                    .collect();
                let proj = |log: &Vec<u64>| -> Vec<u64> {
                    log.iter().copied().filter(|id| common.contains(id)).collect()
                };
                prop_assert_eq!(proj(a), proj(b), "pairwise order disagreement");
            }
        }
    }

    /// Epoch-stamped disk snapshots roundtrip bit-exactly through the
    /// SQSNAP2 codec, whatever the epoch and counter contents.
    #[test]
    fn epoch_stamped_disk_snapshot_roundtrips(
        epoch in any::<u64>(),
        overlaps in vec(any::<u64>(), 0..8),
        groups in vec((0u32..16, any::<u64>()), 0..6),
        rx in vec((0u32..16, any::<u64>()), 0..6),
        frames in vec(0u64..1_000, 0..4),
    ) {
        let tx_frames: Vec<(u64, Frame)> = frames
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                (i as u64, Frame {
                    msg: Message::new(MessageId(id), NodeId(1), GroupId(0), b"p".to_vec()),
                    target_atom: None,
                })
            })
            .collect();
        let snap = DiskSnapshot {
            epoch,
            overlaps,
            groups,
            links: LinkSnapshot {
                rx_next: rx,
                tx: vec![TxLinkSnapshot {
                    link: 3,
                    next_seq: 17,
                    frames: tx_frames,
                }],
            },
        };
        let back = DiskSnapshot::decode(&snap.encode()).expect("decodes");
        prop_assert_eq!(back, snap);
    }

    /// Counter export/import plus the epoch restore used by crash
    /// recovery reproduces the exact sequencing state: same digest, same
    /// next numbers, same epoch — for any membership and traffic prefix.
    #[test]
    fn protocol_state_epoch_survives_counter_roundtrip(
        m in strategies::membership(),
        traffic in vec((0usize..64, 0u64..64), 0..12),
        adoptions in 0u64..4,
    ) {
        let graph = GraphBuilder::new().build(&m);
        let groups: Vec<GroupId> = m.groups().collect();
        let mut state = ProtocolState::new(&graph);
        for _ in 0..adoptions {
            state.adopt(&graph);
        }
        for (i, &(g, id)) in traffic.iter().enumerate() {
            let mut msg = Message::new(
                MessageId(id * 64 + i as u64),
                NodeId(0),
                groups[g % groups.len()],
                vec![],
            );
            state.sequence_fully(&graph, &mut msg);
            prop_assert_eq!(msg.epoch, adoptions, "ingress stamps the current epoch");
        }
        prop_assert_eq!(state.epoch(), adoptions);

        let (overlaps, group_counters) = state.export_counters();
        let mut restored = ProtocolState::import_counters(&graph, &overlaps, &group_counters);
        restored.set_epoch(state.epoch());

        let digest_of = |s: &ProtocolState| {
            let mut d = Digest::new();
            s.digest_into(&mut d);
            d.finish()
        };
        prop_assert_eq!(digest_of(&restored), digest_of(&state));
    }
}
