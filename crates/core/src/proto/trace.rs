//! Protocol tracing hooks: the [`TraceSink`] vocabulary the cores emit
//! into.
//!
//! The types here are re-exports from `seqnet-obs`, so every driver
//! shares one event schema and one set of sinks. An untraced call site
//! passes [`NullSink`] or `None`: every `sink.enabled()` guard folds to a
//! constant `false` and the instrumentation compiles away.
//!
//! Emission protocol:
//!
//! * Cores are clock-free. They emit events with `at == 0`; sinks stamp
//!   `at` from the driver's last [`TraceSink::now`] call at record time.
//! * `NodeCore` emits `AtomStamp`, `FrameForward`, `Crash`, and `Replay`;
//!   `ReceiverCore` emits `Arrive`, `Buffer`, and `Deliver`. Drivers emit
//!   what only they can see: `Publish` (injection), `SnapshotFlush` (the
//!   staged-frame count), and `HeartbeatMiss` (the runtime's failure
//!   detector).

pub use seqnet_obs::{Actor, BufferReason, EventKind, NullSink, TraceEvent, TraceSink};

use crate::Message;

/// The sequence vector of `msg` as raw `(atom, seq)` pairs, in path
/// order — the form [`TraceEvent::stamps`] carries.
pub fn stamp_vector(msg: &Message) -> Vec<(u64, u64)> {
    msg.stamps
        .iter()
        .map(|s| (u64::from(s.atom.0), s.seq.0))
        .collect()
}
