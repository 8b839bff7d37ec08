//! `seqnet-check` — a deterministic schedule-exploring model checker over
//! the sans-I/O protocol cores.
//!
//! The paper's guarantees (Theorem 1 consistency, causal order for
//! self-subscribing publishers) are claims about *every* interleaving of
//! frame arrivals, crashes, and replays — not just the schedules the
//! discrete-event simulator happens to produce. This crate turns the
//! protocol cores ([`seqnet_core::proto::NodeCore`],
//! [`seqnet_core::proto::ReceiverCore`]) plus a FIFO-channel network model
//! into one explorable state space:
//!
//! * every command a core emits becomes a pending event on a per-channel
//!   FIFO queue, and the checker — not a clock — picks which pending event
//!   fires next ([`model::World`]);
//! * [`explore`] walks that space exhaustively (bounded DFS with
//!   state-digest deduplication) for small configurations;
//! * [`random`] drives seeded random walks with crash/restart injection
//!   (reusing [`seqnet_sim::FaultPlan`]) for larger ones;
//! * [`shrink`] minimizes a failing schedule to a short, replayable
//!   [`seqnet_sim::ScheduleTrace`] (seed + decision list) and re-executes
//!   it deterministically.
//!
//! Invariants are first-class pluggable oracles ([`invariants`]): pairwise
//! per-group delivery consistency (Theorem 1), causality for
//! self-subscribing publishers, no-loss/no-duplication across crash
//! windows, the group-commit staged-output rule (PROTOCOL.md §8), C1/C2
//! structural validity after `overlap::build`/`colocate`, and the batched
//! execution contract (PROTOCOL.md §12): on every explored edge the
//! `batch-vs-step` oracle re-executes the transition with one reused
//! command buffer (batched replay included) and fails the run if it
//! diverges from stepping with a fresh buffer per event — while the
//! exploration itself keeps stepping the unbatched semantics.
//!
//! The named configurations under [`scenario`] include the generalization
//! of the original ad-hoc `tests/model_check_case3.rs` sweep; the
//! `seqnet-check` binary runs the same scenarios offline with bigger
//! budgets. `PROTOCOL.md` §10 documents the event/decision model and how
//! to replay a counterexample.
//!
//! # Quickstart
//!
//! ```
//! use seqnet_check::{explore, invariants, scenario};
//!
//! let sc = scenario::two_group_overlap();
//! let outcome = explore::explore(&sc, &invariants::default_oracles(), &explore::ExploreConfig::default());
//! match outcome {
//!     explore::Outcome::Pass(stats) => assert!(stats.terminals > 0),
//!     explore::Outcome::Fail(cex) => panic!("counterexample: {}", cex.trace),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod invariants;
pub mod model;
pub mod random;
pub mod scenario;
pub mod shrink;

pub use explore::{explore, Counterexample, ExploreConfig, ExploreStats, Outcome};
pub use invariants::{default_oracles, BatchVsStep, Invariant, Violation};
pub use model::{StepRecord, Transition, World};
pub use random::{random_walks, RandomConfig};
pub use scenario::{Publish, Scenario};
pub use shrink::{replay, shrink, ReplayResult};
