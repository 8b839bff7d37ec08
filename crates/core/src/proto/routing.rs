//! The static routing view a node core consults: who subscribes where,
//! which atoms chain into which sequencing paths, and which driver-level
//! node owns each atom.

use seqnet_membership::Membership;
use seqnet_overlap::{AtomId, SequencingGraph};
use std::collections::HashMap;

/// How atoms map onto driver-level sequencing nodes.
#[derive(Debug, Clone, Copy)]
enum OwnerMap<'a> {
    /// One node per atom, both indexed identically — the simulator's
    /// layout, where every atom is its own event target.
    Solo,
    /// Atoms co-located onto fewer nodes (§3.4), as computed by
    /// [`seqnet_overlap::Colocation`] — the threaded runtime's layout.
    Colocated(&'a HashMap<AtomId, usize>),
}

/// A borrowed, immutable view of the deployment's routing facts, passed to
/// [`NodeCore::on_event_into`](crate::proto::NodeCore::on_event_into) on every call.
/// Building one is free; drivers construct it from the membership, graph,
/// and atom-placement state they already own, so the core never holds (or
/// clones) routing state that the driver might reconfigure.
#[derive(Debug, Clone, Copy)]
pub struct Routing<'a> {
    membership: &'a Membership,
    graph: &'a SequencingGraph,
    owner: OwnerMap<'a>,
}

impl<'a> Routing<'a> {
    /// Routing for a one-node-per-atom layout: atom `i` is owned by node
    /// `i`. Used by the simulator.
    pub fn solo(membership: &'a Membership, graph: &'a SequencingGraph) -> Self {
        Routing {
            membership,
            graph,
            owner: OwnerMap::Solo,
        }
    }

    /// Routing for a co-located layout: `atom_node` maps every live atom
    /// to the sequencing node hosting it. Used by the threaded runtime.
    pub fn colocated(
        membership: &'a Membership,
        graph: &'a SequencingGraph,
        atom_node: &'a HashMap<AtomId, usize>,
    ) -> Self {
        Routing {
            membership,
            graph,
            owner: OwnerMap::Colocated(atom_node),
        }
    }

    /// The driver-level node that owns (executes) `atom`.
    ///
    /// # Panics
    ///
    /// Panics if a co-location map has no entry for `atom` — wiring bug,
    /// not an input error.
    pub fn owner_of(&self, atom: AtomId) -> usize {
        match self.owner {
            OwnerMap::Solo => atom.0 as usize,
            OwnerMap::Colocated(map) => {
                *map.get(&atom).expect("every live atom has an owner node")
            }
        }
    }

    /// The membership matrix (who subscribes to what).
    pub fn membership(&self) -> &'a Membership {
        self.membership
    }

    /// The sequencing graph (paths, overlaps, retirement).
    pub fn graph(&self) -> &'a SequencingGraph {
        self.graph
    }
}
