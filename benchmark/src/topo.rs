//! The two topologies, fixed by name. Neither depends on the workload
//! seed: the seed varies the traffic, never the shape being measured, so
//! runs on different seeds stay comparable.

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqnet::core::NetworkSetup;
use seqnet::membership::workload::ZipfGroups;
use seqnet::membership::{GroupId, Membership, NodeId};
use seqnet::overlap::GraphBuilder;
use seqnet::topology::TransitStubParams;

/// Seed of everything structural: the zipf membership, the router
/// topology, co-location and placement.
pub const STRUCTURE_SEED: u64 = 0x5E9_2006;

/// `ring-12x6`: 12 hosts, 6 groups, group `g` = hosts `{2g .. 2g+3}` mod
/// 12. Adjacent groups share two members — six double overlaps in a
/// cycle — so condition C2 forces one group through every atom.
pub fn ring_12x6() -> Membership {
    Membership::from_groups((0..6u32).map(|g| {
        let hosts: Vec<NodeId> = (0..4).map(|k| NodeId((2 * g + k) % 12)).collect();
        (GroupId(g), hosts)
    }))
}

pub const ZIPF_HOSTS: usize = 128;
pub const ZIPF_GROUPS: usize = 64;
pub const ZIPF_CLUSTER: usize = 8;

/// `zipf-128x64` membership: 128 hosts, 64 groups with Zipf sizes.
pub fn zipf_128x64() -> Membership {
    ZipfGroups::new(ZIPF_HOSTS, ZIPF_GROUPS).sample(&mut StdRng::seed_from_u64(STRUCTURE_SEED))
}

/// The paper-scale router network (10 000 routers) under `zipf-128x64`,
/// hosts attached in clusters of 8.
pub fn paper_network() -> NetworkSetup {
    NetworkSetup::generate(
        &TransitStubParams::paper(),
        ZIPF_HOSTS,
        ZIPF_CLUSTER,
        &mut StdRng::seed_from_u64(STRUCTURE_SEED ^ 1),
    )
}

/// Group tables the checker and the generators work from.
pub struct Groups {
    /// `members[g]`: subscribed hosts, ascending.
    pub members: Vec<Vec<u32>>,
    /// `path_len[g]`: atoms on the group's sequencing path.
    pub path_len: Vec<usize>,
    pub num_hosts: usize,
}

impl Groups {
    pub fn of(membership: &Membership) -> Self {
        let graph = GraphBuilder::new().build(membership);
        let num_groups = membership
            .groups()
            .map(|g| g.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut members = vec![Vec::new(); num_groups];
        let mut path_len = vec![0; num_groups];
        for g in membership.groups() {
            members[g.0 as usize] = membership.members(g).map(|n| n.0).collect();
            path_len[g.0 as usize] = graph.path(g).map_or(0, <[_]>::len);
        }
        let num_hosts = membership
            .nodes()
            .map(|n| n.0 as usize + 1)
            .max()
            .unwrap_or(0);
        Groups {
            members,
            path_len,
            num_hosts,
        }
    }

    /// Groups that have at least one member, ascending.
    pub fn live(&self) -> Vec<u16> {
        (0..self.members.len())
            .filter(|&g| !self.members[g].is_empty())
            .map(|g| g as u16)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_has_one_long_path() {
        let groups = Groups::of(&ring_12x6());
        assert_eq!(groups.num_hosts, 12);
        assert!(groups.members.iter().all(|m| m.len() == 4));
        let mut lens = groups.path_len.clone();
        lens.sort_unstable();
        // Five short paths and the one C2 stretches across the cycle.
        assert_eq!(lens, vec![2, 2, 2, 2, 2, 6]);
    }

    #[test]
    fn zipf_is_the_same_every_time() {
        assert_eq!(zipf_128x64(), zipf_128x64());
        let groups = Groups::of(&zipf_128x64());
        assert_eq!(groups.members.len(), ZIPF_GROUPS);
        assert_eq!(groups.num_hosts, ZIPF_HOSTS);
    }
}
