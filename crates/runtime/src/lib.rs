//! Threaded deployment of the sequencing protocol over FIFO channels.
//!
//! The simulator (`seqnet-core`) assumes the paper's reliable FIFO
//! channels. This crate deploys the same protocol state machines across
//! real threads to demonstrate the full §3.1 design:
//!
//! * every *sequencing node* (a co-location cluster of atoms) runs on its
//!   own thread, processing its atoms' share of the sequencing work;
//! * every subscriber host runs a thread with a
//!   [`seqnet_core::DeliveryQueue`];
//! * inter-thread links implement the paper's **output retransmission
//!   buffers**: frames carry link-level sequence numbers, receivers
//!   acknowledge and reorder, senders retransmit unacknowledged frames —
//!   so the protocol's FIFO-channel assumption holds even over lossy
//!   links ([`ClusterConfig::drop_probability`] injects loss);
//! * sequencing nodes **crash and recover**: [`Cluster::crash_node`] kills
//!   a node thread (volatile state lost), [`Cluster::restart_node`] brings
//!   it back from its latest periodic snapshot plus replay out of upstream
//!   retransmission buffers, and [`Cluster::run_fault_plan`] replays a
//!   deterministic [`FaultPlan`]'s crash windows on the wall clock. Nodes
//!   heartbeat each other for failure detection, and publishes are retried
//!   with capped exponential backoff until durably sequenced.
//!
//! None of that logic is tied to threads. It lives in sans-I/O machines —
//! [`LinkEngine`] (one party's end of every link), [`NodeMachine`] (the
//! sequencing-node step), [`HostMachine`] (the subscriber-host step),
//! [`Topology`] (the link table) and
//! [`PublishFront`] (ids and the reconfiguration ledger) — which turn
//! arrivals and ticks into an outbox of [`Transmission`]s. [`Cluster`] is
//! the shell that carries that outbox over channels; `seqnet-deploy` is
//! the one that carries it over TCP between processes.
//!
//! # Example
//!
//! ```
//! use seqnet_membership::{Membership, NodeId, GroupId};
//! use seqnet_runtime::{Cluster, ClusterConfig};
//! use std::time::Duration;
//!
//! let m = Membership::from_groups([
//!     (GroupId(0), vec![NodeId(0), NodeId(1)]),
//!     (GroupId(1), vec![NodeId(0), NodeId(1)]),
//! ]);
//! let mut cluster = Cluster::start(&m, ClusterConfig::default());
//! cluster.publish(NodeId(0), GroupId(0), b"hello".to_vec())?;
//! cluster.publish(NodeId(1), GroupId(1), b"world".to_vec())?;
//! let deliveries = cluster.wait_for_deliveries(4, Duration::from_secs(5))?;
//! assert_eq!(deliveries[&NodeId(0)].len(), 2);
//! cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
pub mod codec;
mod engine;
mod front;
mod host;
mod link;
mod node;
mod topo;

pub use cluster::{Cluster, ClusterConfig, RuntimeError, RuntimeStats};
pub use codec::CodecError;
pub use engine::{
    LinkBody, LinkCounters, LinkEngine, LinkSnapshot, Transmission, TxLinkSnapshot, UnknownLink,
};
pub use front::{PendingReconfig, PublishFront};
pub use host::HostMachine;
pub use link::{LinkReceiver, LinkSender};
pub use node::{NodeCounters, NodeMachine};
pub use topo::Topology;
pub use seqnet_sim::FaultPlan;
