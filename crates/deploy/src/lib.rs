//! Socket-based multi-process deployment of the decentralized ordering
//! protocol, with real-process crash injection.
//!
//! The simulator proves the protocol correct under adversarial schedules;
//! the threaded runtime proves it across real threads and channels. This
//! crate closes the last gap to the paper's deployment model: every
//! sequencing node is a separate OS process, every link is a real TCP
//! connection on localhost, and every fault is a real fault — SIGKILL,
//! severed connections, frozen sockets. The protocol cores ([`NodeCore`],
//! [`ReceiverCore`]) and the link-level seq/ack/retransmit/backoff
//! machinery are exactly the ones the other two drivers run; only the
//! transport underneath them changes. That is the point: a three-way
//! differential oracle can push one seeded workload plus one fault
//! schedule through simulator, threads, and processes, and demand
//! identical per-group per-receiver delivery orders.
//!
//! Layering, bottom up:
//!
//! - [`wire`]: length-prefixed frame codec, tolerant of short reads and
//!   partial writes, rejecting garbage without panicking.
//! - [`conn`]: non-blocking framed connections, capped-backoff redialing,
//!   and the per-process connection table both kinds of process keep —
//!   and sleep in, until a socket is ready or a deadline has come.
//! - [`sys`]: the one `unsafe` corner — port reservation and
//!   `SO_REUSEADDR` listener binding, so a node finds its port free at
//!   start and a SIGKILL-respawned one reclaims it immediately, and the
//!   `ppoll(2)` behind that sleep.
//! - [`topo`]: which process owns which party. The link table itself is
//!   `seqnet_runtime::Topology`, re-derived by every process from
//!   `(membership, seed)`; nothing is shipped, everything is recomputed.
//! - [`spec`]: the plain-text cluster spec handed to child processes.
//! - [`snapshot`]: on-disk node checkpoints, two slots written in place.
//! - [`node`] / [`child`]: the sequencing-node process — the socket shell
//!   around `seqnet_runtime::NodeMachine`.
//! - [`coord`]: the coordinator — publisher, in-process subscriber hosts,
//!   chaos controller, stats aggregation.
//! - [`chaos`]: deterministic process-level fault schedules, convertible
//!   from the simulator's `FaultPlan` for the oracle.
//!
//! The reliable-link discipline itself (group-commit staging, deferred
//! cumulative acks, reconnect replay) is not here: it is
//! `seqnet_runtime::LinkEngine`, the one the threaded runtime runs.
//!
//! # Example
//!
//! ```no_run
//! use seqnet_deploy::{run_if_child, DeployCluster};
//! use seqnet_membership::{GroupId, Membership, NodeId};
//! use seqnet_runtime::ClusterConfig;
//! use std::time::Duration;
//!
//! // First thing in main: become a node process if spawned as one.
//! run_if_child();
//!
//! let membership = Membership::from_groups([
//!     (GroupId(0), vec![NodeId(0), NodeId(1)]),
//!     (GroupId(1), vec![NodeId(1), NodeId(2)]),
//! ]);
//! let mut cluster = DeployCluster::start(&membership, ClusterConfig::default()).unwrap();
//! cluster.publish(NodeId(0), GroupId(0), &b"hello"[..]).unwrap();
//! let deliveries = cluster.wait_for_deliveries(2, Duration::from_secs(10)).unwrap();
//! cluster.shutdown();
//! # let _ = deliveries;
//! ```
//!
//! [`NodeCore`]: seqnet_core::proto::NodeCore
//! [`ReceiverCore`]: seqnet_core::proto::ReceiverCore

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod child;
pub mod conn;
pub mod coord;
pub mod node;
pub mod snapshot;
pub mod spec;
pub mod sys;
pub mod topo;
pub mod wire;

pub use chaos::{ChaosEvent, ChaosKind, ChaosPlan};
pub use child::run_if_child;
pub use coord::{node_registry, DeployCluster, DeployStats};
pub use spec::ClusterSpec;
pub use topo::{Proc, Topology};
pub use wire::{CodecError, NodeTelemetry, NodeWireStats, WireBody, WireMsg};
