//! Which OS process owns which party.
//!
//! The link table itself — graph, co-location, link enumeration — is
//! [`Topology`], derived once in `seqnet-runtime` and shared with the
//! threaded driver; the coordinator and every sequencing-node process
//! recompute it from `(membership, seed)`, so link ids carried on the wire
//! mean the same thing everywhere and nothing is shipped. What is specific
//! to a multi-process deployment is the mapping from parties to processes.

use seqnet_core::proto::Peer;

pub use seqnet_runtime::Topology;

/// The OS process owning a party: the coordinator runs the publisher
/// front-end and every subscriber host in-process; each sequencing node is
/// its own child process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Proc {
    /// The launching process (publisher + all hosts + chaos controller).
    Coordinator,
    /// The child process running sequencing node `idx`.
    Node(usize),
}

impl Proc {
    /// The process owning `party`.
    pub fn owner(party: Peer) -> Proc {
        match party {
            Peer::Node(i) => Proc::Node(i),
            Peer::Publisher | Peer::Host(_) => Proc::Coordinator,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqnet_membership::{GroupId, Membership, NodeId};

    #[test]
    fn links_never_connect_a_process_to_itself() {
        let membership = Membership::from_groups([
            (GroupId(0), vec![NodeId(0), NodeId(1), NodeId(2)]),
            (GroupId(1), vec![NodeId(1), NodeId(2), NodeId(3)]),
        ]);
        let t = Topology::derive(&membership, 7);
        assert!(t.num_nodes >= 1);
        for &(from, to) in &t.links {
            assert_ne!(
                Proc::owner(from),
                Proc::owner(to),
                "{from:?} -> {to:?} would need no connection"
            );
        }
    }
}
