//! Allocation-budget regression test (ISSUE 10 satellite): the threaded
//! runtime's hot path — stamping, coalescing, link send/receive against
//! per-link scratch buffers — must stay on its allocation diet. A
//! counting global allocator measures allocator hits per delivered
//! message for the simulator and the threaded runtime over the same
//! workload; the runtime budget is the simulator's figure plus a small
//! tolerance, so a regression that reintroduces per-frame `Vec` churn on
//! the wire path fails here before it shows up as
//! `proc.allocs_per_delivery` on the benchmark's `runtime-flood`.
//!
//! The comparison is deliberately coarse (1.5× + 1 slack): thread startup
//! and channel machinery differ legitimately between the drivers. What it
//! must catch is the order-of-magnitude kind of regression — the seed of
//! this PR measured ~19 runtime allocations per message against ~4 for
//! the sim before the diet, and ~1.3 against ~3.0 after.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use seqnet::core::OrderedPubSub;
use seqnet::membership::{GroupId, Membership, NodeId};
use seqnet::runtime::{Cluster, ClusterConfig};
use seqnet::sim::SimTime;

/// Pass-through allocator counting allocation calls across all threads.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` for every operation; the counter is the only
// addition and is atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The shared membership: three groups in a chain, adjacent groups
/// overlapping in two members (double overlaps force cross-group
/// sequencing, the protocol's interesting path).
fn membership() -> Membership {
    let mut m = Membership::new();
    for grp in 0u32..3 {
        for node in grp..=grp + 2 {
            m.subscribe(NodeId(node), GroupId(grp));
        }
    }
    m
}

/// The shared publish schedule and its expected delivery count.
fn schedule(m: &Membership, rounds: usize) -> (Vec<(NodeId, GroupId)>, usize) {
    let mut publishes = Vec::new();
    let mut expected = 0;
    for _ in 0..rounds {
        for group in m.groups() {
            let sender = m.members(group).next().expect("non-empty group");
            publishes.push((sender, group));
            expected += m.group_size(group);
        }
    }
    (publishes, expected)
}

/// Allocator hits per delivered message through the simulator.
fn sim_allocs_per_msg(m: &Membership, rounds: usize) -> f64 {
    let (publishes, expected) = schedule(m, rounds);
    let mut bus = OrderedPubSub::new(m);
    let before = allocations();
    for (k, &(node, group)) in publishes.iter().enumerate() {
        bus.publish_at(SimTime::from_micros((k as u64 + 1) * 500), node, group, vec![])
            .expect("sim publish");
    }
    bus.run_to_quiescence();
    let spent = allocations() - before;
    assert_eq!(bus.stuck_messages(), 0);
    assert_eq!(bus.all_deliveries().count(), expected);
    spent as f64 / expected as f64
}

/// Allocator hits per delivered message through the threaded runtime with
/// the coalescing scratch-buffer wire path on. The measured window spans
/// publish → full delivery; cluster startup and shutdown (thread spawns,
/// channel setup) are kept outside it, mirroring the measured window of
/// `proc.allocs_per_delivery` on the benchmark's `runtime-flood`.
fn runtime_allocs_per_msg(m: &Membership, rounds: usize) -> f64 {
    let (publishes, expected) = schedule(m, rounds);
    let mut cluster = Cluster::start(
        m,
        ClusterConfig {
            coalesce: true,
            seed: 7,
            ..ClusterConfig::default()
        },
    );
    // Let startup transients (first snapshots, heartbeat wiring) settle
    // before the counted window opens.
    std::thread::sleep(Duration::from_millis(50));
    let before = allocations();
    let mut received = 0usize;
    let mut next = 0usize;
    while received < expected {
        // Pace publishes: one per poll keeps the load shape close to the
        // open-loop bench rather than one giant burst.
        if next < publishes.len() {
            let (node, group) = publishes[next];
            cluster.publish(node, group, vec![]).expect("runtime publish");
            next += 1;
        }
        if cluster.next_delivery(Duration::from_millis(2)).is_some() {
            received += 1;
        }
    }
    let spent = allocations() - before;
    cluster.shutdown();
    spent as f64 / expected as f64
}

#[test]
fn runtime_stays_on_its_allocation_diet() {
    let m = membership();
    // Warm both drivers once so lazy one-time setup (thread-local inits,
    // runtime tables) isn't charged to either measured window.
    let _ = sim_allocs_per_msg(&m, 2);
    let _ = runtime_allocs_per_msg(&m, 2);

    let rounds = 60;
    let sim = sim_allocs_per_msg(&m, rounds);
    let runtime = runtime_allocs_per_msg(&m, rounds);
    let budget = sim * 1.5 + 1.0;
    eprintln!("allocs/msg: sim {sim:.3}, runtime {runtime:.3}, budget {budget:.3}");
    assert!(
        runtime <= budget,
        "runtime hot path is off its allocation diet: {runtime:.3} allocs/msg \
         vs sim {sim:.3} (budget {budget:.3}) — did a per-frame Vec sneak back \
         into the wire path?"
    );
}
