//! Deterministic deployment topology, derived once and shared by every
//! driver.
//!
//! The threaded runtime, the socket coordinator, and every sequencing-node
//! process derive the same sequencing graph, atom co-location, and link
//! table from nothing but the membership and the seed, so link ids mean
//! the same thing everywhere and no process ever has to ship the topology
//! to another.

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqnet_core::proto::{Peer, Routing};
use seqnet_membership::Membership;
use seqnet_overlap::{AtomId, Colocation, GraphBuilder, SequencingGraph};
use std::collections::{BTreeSet, HashMap};

/// The shared wiring every party derives from (membership, seed).
#[derive(Debug)]
pub struct Topology {
    /// The sequencing graph for the membership.
    pub graph: SequencingGraph,
    /// The membership itself.
    pub membership: Membership,
    /// Sequencing node hosting each live atom.
    pub atom_node: HashMap<AtomId, usize>,
    /// Number of sequencing nodes (threads or child processes).
    pub num_nodes: usize,
    /// Directed reliable links, indexed by link id.
    pub links: Vec<(Peer, Peer)>,
    /// Reverse index of `links`.
    pub link_index: HashMap<(Peer, Peer), u32>,
}

impl Topology {
    /// Derives the full topology: graph builder, seeded co-location, then
    /// the link enumeration — publisher→ingress node, node→node along each
    /// path, egress node→member hosts, in path order.
    ///
    /// # Panics
    ///
    /// Panics if the constructed graph fails validation (a bug, not an
    /// input error).
    pub fn derive(membership: &Membership, seed: u64) -> Self {
        let graph = GraphBuilder::new().build(membership);
        graph
            .validate_against(membership)
            .expect("constructed graph is valid");
        let mut rng = StdRng::seed_from_u64(seed);
        let coloc = Colocation::compute(&graph, &mut rng);

        let mut atom_node: HashMap<AtomId, usize> = HashMap::new();
        for atom in graph.atoms() {
            if let Some(nidx) = coloc.node_of(atom.id) {
                atom_node.insert(atom.id, nidx);
            }
        }

        let mut links: Vec<(Peer, Peer)> = Vec::new();
        let mut link_index: HashMap<(Peer, Peer), u32> = HashMap::new();
        let mut add_link = |from: Peer, to: Peer| {
            link_index.entry((from, to)).or_insert_with(|| {
                let id = links.len() as u32;
                links.push((from, to));
                id
            });
        };
        for (group, path) in graph.paths() {
            let ingress = atom_node[path.first().expect("paths are non-empty")];
            add_link(Peer::Publisher, Peer::Node(ingress));
            for w in path.windows(2) {
                let (a, b) = (atom_node[&w[0]], atom_node[&w[1]]);
                if a != b {
                    add_link(Peer::Node(a), Peer::Node(b));
                }
            }
            let egress = atom_node[path.last().expect("paths are non-empty")];
            for member in membership.members(group) {
                add_link(Peer::Node(egress), Peer::Host(member));
            }
        }

        Topology {
            graph,
            membership: membership.clone(),
            atom_node,
            num_nodes: coloc.num_nodes(),
            links,
            link_index,
        }
    }

    /// The link id of the directed link `from -> to`.
    ///
    /// # Panics
    ///
    /// Panics if no such link was enumerated.
    pub fn link_between(&self, from: Peer, to: Peer) -> u32 {
        self.link_index[&(from, to)]
    }

    /// The routing view the protocol cores consult, borrowed from this
    /// topology.
    pub fn routing(&self) -> Routing<'_> {
        Routing::colocated(&self.membership, &self.graph, &self.atom_node)
    }

    /// Sequencing nodes sharing at least one link (in either direction)
    /// with node `idx` — the node processes `idx` keeps connections to.
    pub fn node_peers(&self, idx: usize) -> BTreeSet<usize> {
        let mut peers = BTreeSet::new();
        for &(from, to) in &self.links {
            if let (Peer::Node(a), Peer::Node(b)) = (from, to) {
                if a == idx && b != idx {
                    peers.insert(b);
                } else if b == idx && a != idx {
                    peers.insert(a);
                }
            }
        }
        peers
    }

    /// Upstream sequencing nodes whose silence node `idx` watches for
    /// (peers with a link *into* `idx`), plus the outgoing node links
    /// `idx` heartbeats on: `(watched, heartbeat_out)`.
    pub fn heartbeat_plan(&self, idx: usize) -> (BTreeSet<usize>, Vec<(Peer, u32)>) {
        let mut watched = BTreeSet::new();
        let mut hb_out = Vec::new();
        for (i, &(from, to)) in self.links.iter().enumerate() {
            match (from, to) {
                (Peer::Node(p), Peer::Node(q)) if q == idx => {
                    watched.insert(p);
                }
                (Peer::Node(p), Peer::Node(_)) if p == idx => {
                    hb_out.push((to, i as u32));
                }
                _ => {}
            }
        }
        (watched, hb_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqnet_membership::{GroupId, NodeId};

    fn membership() -> Membership {
        Membership::from_groups([
            (GroupId(0), vec![NodeId(0), NodeId(1), NodeId(2)]),
            (GroupId(1), vec![NodeId(1), NodeId(2), NodeId(3)]),
        ])
    }

    #[test]
    fn derivation_is_deterministic() {
        let a = Topology::derive(&membership(), 42);
        let b = Topology::derive(&membership(), 42);
        assert_eq!(a.links, b.links);
        assert_eq!(a.num_nodes, b.num_nodes);
        assert_eq!(a.atom_node, b.atom_node);
    }

    #[test]
    fn heartbeat_plan_matches_link_directions() {
        let t = Topology::derive(&membership(), 7);
        for idx in 0..t.num_nodes {
            let (watched, hb_out) = t.heartbeat_plan(idx);
            for p in &watched {
                assert!(t
                    .link_index
                    .contains_key(&(Peer::Node(*p), Peer::Node(idx))));
            }
            for &(to, link) in &hb_out {
                assert_eq!(t.links[link as usize], (Peer::Node(idx), to));
            }
        }
    }
}
