//! Seeded generators for randomized protocol testing, plus the
//! `Vec`-returning single-step helpers tests and the checker use.
//!
//! Shared by the proptest suites (which wrap these behind `Strategy`
//! adapters in `tests/strategies.rs`) and by `seqnet-check`'s random-walk
//! mode (which has no proptest runner and draws configurations directly
//! from a walk seed). Everything here is a pure function of its seed —
//! no thread-local RNG, no environment — so any failure reported against
//! a seed reproduces exactly.

use super::trace::TraceSink;
use super::{Command, CommandBuf, Event, NodeCore, ProtocolState, ReceiverCore, Routing};
use seqnet_membership::{GroupId, Membership, NodeId};
use seqnet_sim::{FaultPlan, SimTime};

/// One event through a node core with a fresh buffer, commands returned
/// by value — the allocating convenience tests and the model checker step
/// with (pass [`NullSink`](super::trace::NullSink) for an untraced step).
/// Drivers call [`NodeCore::on_event_into`] against a buffer they keep.
pub fn node_commands<S: TraceSink + ?Sized>(
    core: &mut NodeCore,
    routing: &Routing<'_>,
    protocol: &mut ProtocolState,
    event: Event,
    sink: &mut S,
) -> Vec<Command> {
    let mut out = CommandBuf::new();
    core.on_event_into(routing, protocol, event, sink, &mut out);
    out.into_commands()
}

/// One event through a receiver core with a fresh buffer; the receiver
/// twin of [`node_commands`].
pub fn receiver_commands<S: TraceSink + ?Sized>(
    receiver: &mut ReceiverCore,
    event: Event,
    sink: &mut S,
) -> Vec<Command> {
    let mut out = CommandBuf::new();
    receiver.on_event_into(event, sink, &mut out);
    out.into_commands()
}

/// The splitmix64 step, the same tiny generator `FaultPlan::randomized`
/// uses, so the testing module needs no external RNG dependency.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bounds for [`random_membership_with`]. The defaults match the
/// long-standing `membership_strategy` of the property suite: 4–10 nodes,
/// 2–5 groups, 2–6 subscriptions sampled per group.
#[derive(Debug, Clone, Copy)]
pub struct MembershipBounds {
    /// Inclusive node-count range.
    pub nodes: (usize, usize),
    /// Inclusive group-count range.
    pub groups: (usize, usize),
    /// Inclusive range of member samples drawn per group (duplicates
    /// collapse, so a group may end up smaller).
    pub members: (usize, usize),
}

impl Default for MembershipBounds {
    fn default() -> Self {
        MembershipBounds {
            nodes: (4, 10),
            groups: (2, 5),
            members: (2, 6),
        }
    }
}

fn pick(state: &mut u64, range: (usize, usize)) -> usize {
    let (lo, hi) = range;
    debug_assert!(lo <= hi);
    lo + (splitmix64(state) % (hi - lo + 1) as u64) as usize
}

/// An arbitrary valid membership drawn deterministically from `seed`
/// within `bounds`. Every group subscribes at least one node, group ids
/// are dense from zero, and the result is always a valid
/// [`Membership`] — though groups may lack double overlaps.
pub fn random_membership_with(seed: u64, bounds: MembershipBounds) -> Membership {
    let mut state = seed ^ 0xA076_1D64_78BD_642F;
    let nodes = pick(&mut state, bounds.nodes);
    let groups = pick(&mut state, bounds.groups);
    let mut m = Membership::new();
    for g in 0..groups {
        let samples = pick(&mut state, bounds.members);
        for _ in 0..samples {
            let n = (splitmix64(&mut state) % nodes as u64) as u32;
            m.subscribe(NodeId(n), GroupId(g as u32));
        }
    }
    m
}

/// [`random_membership_with`] under the default bounds.
pub fn random_membership(seed: u64) -> Membership {
    random_membership_with(seed, MembershipBounds::default())
}

/// Like [`random_membership`], but guaranteed to contain at least one
/// double overlap (two groups sharing two subscribers) — the
/// configurations where ordering is actually at stake. Achieved by
/// forcing nodes 0 and 1 into the first two groups.
pub fn random_overlapped_membership(seed: u64) -> Membership {
    let mut m = random_membership(seed);
    for g in 0..2u32 {
        m.subscribe(NodeId(0), GroupId(g));
        m.subscribe(NodeId(1), GroupId(g));
    }
    m
}

/// A deterministic fault plan for `nodes` fault targets over `horizon`.
/// Thin, intention-revealing wrapper over [`FaultPlan::randomized`] so
/// test code has a single spelling for "give me reproducible faults".
pub fn random_fault_plan(seed: u64, nodes: usize, horizon: SimTime) -> FaultPlan {
    FaultPlan::randomized(seed, nodes, horizon)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memberships_are_reproducible_and_in_bounds() {
        for seed in 0..50u64 {
            let a = random_membership(seed);
            let b = random_membership(seed);
            assert_eq!(a, b, "same seed, same membership");
            let bounds = MembershipBounds::default();
            assert!(a.num_groups() >= bounds.groups.0);
            assert!(a.num_groups() <= bounds.groups.1);
            assert!(a.num_nodes() <= bounds.nodes.1);
            for g in a.groups() {
                assert!(a.group_size(g) >= 1, "no empty groups");
                assert!(a.group_size(g) <= bounds.members.1);
            }
        }
        assert_ne!(random_membership(1), random_membership(2), "seeds diverge");
    }

    #[test]
    fn overlapped_memberships_have_a_double_overlap() {
        for seed in 0..50u64 {
            let m = random_overlapped_membership(seed);
            assert!(
                m.double_overlapped(GroupId(0), GroupId(1)),
                "seed {seed} lacks the forced overlap"
            );
        }
    }

    #[test]
    fn generated_graphs_validate() {
        for seed in 0..25u64 {
            let m = random_overlapped_membership(seed);
            let graph = seqnet_overlap::GraphBuilder::new().build(&m);
            graph.validate_against(&m).expect("C1/C2 hold");
        }
    }

    #[test]
    fn fault_plans_delegate_deterministically() {
        let a = random_fault_plan(9, 4, SimTime::from_ms(50.0));
        let b = FaultPlan::randomized(9, 4, SimTime::from_ms(50.0));
        assert_eq!(a, b);
    }
}
