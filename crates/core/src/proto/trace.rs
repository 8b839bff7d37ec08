//! Protocol tracing hooks: the [`TraceSink`] vocabulary the cores emit
//! into.
//!
//! With the default `obs` feature the types here are re-exports from
//! `seqnet-obs`, so every driver shares one event schema and one set of
//! sinks. With `--no-default-features` the module provides a minimal
//! no-op mirror (same shapes, no behavior): the instrumented cores
//! compile unchanged, every `sink.enabled()` guard folds to a constant
//! `false`, and nothing from the obs crate is needed — which is exactly
//! what CI builds to prove the untraced hot path is dependency-free.
//!
//! Emission protocol (both modes):
//!
//! * Cores are clock-free. They emit events with `at == 0`; sinks stamp
//!   `at` from the driver's last [`TraceSink::now`] call at record time.
//! * `NodeCore` emits `AtomStamp`, `FrameForward`, `Crash`, and `Replay`;
//!   `ReceiverCore` emits `Arrive`, `Buffer`, and `Deliver`. Drivers emit
//!   what only they can see: `Publish` (injection), `SnapshotFlush` (the
//!   staged-frame count), and `HeartbeatMiss` (the runtime's failure
//!   detector).

#[cfg(feature = "obs")]
pub use seqnet_obs::{Actor, BufferReason, EventKind, NullSink, TraceEvent, TraceSink};

#[cfg(not(feature = "obs"))]
mod mirror {
    //! Dependency-free stand-ins for the `seqnet-obs` sink API. Kept to
    //! the exact shapes the instrumented cores use; no exporters, no
    //! recorders — a disabled build has nowhere to send events anyway.
    #![allow(missing_docs, dead_code)]

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum BufferReason {
        GroupGap,
        AtomGap,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum EventKind {
        Publish,
        AtomStamp,
        FrameForward,
        Arrive,
        Buffer(BufferReason),
        Deliver,
        Crash,
        Replay,
        SnapshotFlush,
        HeartbeatMiss,
        EpochAdvance,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Actor {
        Publisher,
        Node(u64),
        Host(u64),
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TraceEvent {
        pub at: u64,
        pub kind: EventKind,
        pub actor: Actor,
        pub msg: Option<u64>,
        pub group: Option<u64>,
        pub atom: Option<u64>,
        pub seq: Option<u64>,
        pub detail: Option<u64>,
        pub stamps: Vec<(u64, u64)>,
    }

    impl TraceEvent {
        pub fn new(kind: EventKind, actor: Actor) -> Self {
            TraceEvent {
                at: 0,
                kind,
                actor,
                msg: None,
                group: None,
                atom: None,
                seq: None,
                detail: None,
                stamps: Vec::new(),
            }
        }
    }

    pub trait TraceSink: std::fmt::Debug {
        fn enabled(&self) -> bool {
            true
        }
        fn now(&mut self, _at: u64) {}
        fn record(&mut self, event: TraceEvent);
    }

    impl<S: TraceSink + ?Sized> TraceSink for &mut S {
        fn enabled(&self) -> bool {
            (**self).enabled()
        }
        fn now(&mut self, at: u64) {
            (**self).now(at);
        }
        fn record(&mut self, event: TraceEvent) {
            (**self).record(event);
        }
    }

    impl<S: TraceSink> TraceSink for Option<S> {
        fn enabled(&self) -> bool {
            self.as_ref().is_some_and(TraceSink::enabled)
        }
        fn now(&mut self, at: u64) {
            if let Some(sink) = self {
                sink.now(at);
            }
        }
        fn record(&mut self, event: TraceEvent) {
            if let Some(sink) = self {
                sink.record(event);
            }
        }
    }

    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct NullSink;

    impl TraceSink for NullSink {
        fn enabled(&self) -> bool {
            false
        }
        fn record(&mut self, _event: TraceEvent) {}
    }
}

#[cfg(not(feature = "obs"))]
pub use mirror::{Actor, BufferReason, EventKind, NullSink, TraceEvent, TraceSink};

use crate::Message;

/// The sequence vector of `msg` as raw `(atom, seq)` pairs, in path
/// order — the form [`TraceEvent::stamps`] carries.
pub fn stamp_vector(msg: &Message) -> Vec<(u64, u64)> {
    msg.stamps
        .iter()
        .map(|s| (u64::from(s.atom.0), s.seq.0))
        .collect()
}
