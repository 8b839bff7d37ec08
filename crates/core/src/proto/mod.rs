//! The sans-I/O protocol core: every ordering decision, no transport.
//!
//! This module family is the single implementation of the paper's
//! protocol logic, shared verbatim by the deterministic simulator
//! ([`OrderedPubSub`](crate::OrderedPubSub)) and the threaded runtime
//! (`seqnet-runtime`). It is structured as pure state machines that
//! consume [`Event`]s and emit [`Command`]s:
//!
//! * [`ProtocolState`] ([`atom`](self)) — the §3.1 sequencing-atom state
//!   machine: group-local numbering at ingress, overlap stamping, transit
//!   forwarding.
//! * [`NodeCore`] — a sequencing node: routes frames through its
//!   consecutive atoms, fans out at egress, parks frames across crash
//!   windows and replays them on restart, and implements the PR 1
//!   group-commit rule (stage outputs, flush + cumulatively ack at
//!   snapshot time).
//! * [`ReceiverCore`] / [`DeliveryQueue`] — the Definition 1
//!   deliver-or-buffer rule at each subscriber.
//! * [`Routing`] — the borrowed routing view (membership, graph, atom
//!   ownership) a core consults per event.
//! * [`RecoveryStats`] — crash-recovery counters shared by the
//!   simulator's `FaultStats` and the runtime's `RuntimeStats`.
//! * [`CommandBuf`] — the caller-owned command buffer every core call
//!   appends to (`NodeCore::on_event_into`,
//!   `ReceiverCore::on_event_into`): a driver loops over a batch with one
//!   warm buffer, which is semantically a sequence of single events,
//!   executed without per-message allocations (PROTOCOL.md §12).
//! * [`Digest`] — platform-stable state digests; every core folds its
//!   observable state in via `digest_into`, which is how the
//!   `seqnet-check` model checker deduplicates explored states.
//! * [`testing`] — seeded configuration and fault-plan generators shared
//!   by the proptest suites and the checker's random-walk mode, plus the
//!   `Vec`-returning single-step helpers they call the cores through.
//! * [`trace`] — the structured tracing hooks: each core's one entry
//!   point is generic over a `TraceSink`; the zero-cost `NullSink` (or a
//!   `None` sink) makes it the untraced call.
//!
//! Nothing in here touches clocks, threads, channels, or randomness;
//! drivers own all of that. The contract each driver must uphold (FIFO
//! frame delivery per channel, command execution order, snapshot
//! semantics) is documented in `PROTOCOL.md` under "Protocol core API",
//! and the `sim_runtime_equivalence` integration test feeds identical
//! workloads and fault schedules through both drivers to check they
//! produce identical per-receiver delivery orders.

mod atom;
mod batch;
mod digest;
mod event;
mod node;
mod receiver;
mod routing;
mod stats;
pub mod testing;
pub mod trace;

pub use atom::{NextHop, ProtocolState};
pub use batch::CommandBuf;
pub use digest::Digest;
pub use event::{Command, Event, Frame, Peer};
pub use node::NodeCore;
pub use receiver::{DeliveryQueue, ReceiverCore};
pub use routing::Routing;
pub use stats::RecoveryStats;
