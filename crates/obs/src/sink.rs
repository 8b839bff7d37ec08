//! Trace sinks: where emitted [`TraceEvent`]s go.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::event::TraceEvent;

/// A consumer of protocol trace events.
///
/// The protocol cores are clock-free: they emit events with `at == 0`,
/// and the sink stamps `at` from the most recent [`TraceSink::now`] call
/// at record time. Drivers advance `now` with their own clock — virtual
/// microseconds in the simulator, wall microseconds in the runtime, the
/// step index in the model checker.
///
/// Emission sites guard event construction with [`TraceSink::enabled`],
/// so a disabled sink ([`NullSink`]) costs one inlined constant-false
/// branch and nothing else.
pub trait TraceSink: std::fmt::Debug {
    /// Whether [`TraceSink::record`] will be called at all. Emission
    /// sites skip building events when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Advances the sink's clock; subsequent records are stamped `at`.
    fn now(&mut self, _at: u64) {}

    /// Consumes one event.
    fn record(&mut self, event: TraceEvent);
}

/// The do-nothing sink: `enabled()` is a constant `false`, so the
/// core entry points called with it monomorphize to exactly the
/// uninstrumented code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: TraceEvent) {}
}

/// An unbounded in-memory event log, stamping each event with the
/// driver's clock. Backs the simulator's `--trace-out` stream and the
/// equivalence tests.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    at: u64,
    events: Vec<TraceEvent>,
}

impl Recorder {
    /// An empty recorder at clock zero.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the recorder, yielding the events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for Recorder {
    fn now(&mut self, at: u64) {
        self.at = at;
    }

    fn record(&mut self, mut event: TraceEvent) {
        event.at = self.at;
        self.events.push(event);
    }
}

/// A bounded ring buffer holding the last `capacity` events — cheap
/// enough to leave on in long runs, and dumpable as a JSONL causal trace
/// when an invariant failure needs the history that led up to it.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    at: u64,
    capacity: usize,
    seen: u64,
    ring: VecDeque<TraceEvent>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        FlightRecorder {
            at: 0,
            capacity,
            seen: 0,
            ring: VecDeque::with_capacity(capacity),
        }
    }

    /// Total events observed, including ones the ring has since dropped.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events the ring wrap discarded: `seen - retained`. Non-zero means
    /// any dump or span reconstruction over this recorder is incomplete
    /// — report it, never silently skip.
    pub fn dropped_events(&self) -> u64 {
        self.seen - self.ring.len() as u64
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// The retained tail serialized as JSONL (one event per line), ready
    /// to write next to a failing scenario's decision trace.
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.ring {
            out.push_str(&crate::jsonl::to_jsonl(event));
            out.push('\n');
        }
        out
    }
}

impl TraceSink for FlightRecorder {
    fn now(&mut self, at: u64) {
        self.at = at;
    }

    fn record(&mut self, mut event: TraceEvent) {
        event.at = self.at;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(event);
        self.seen += 1;
    }
}

/// A borrowed sink is a sink: drivers holding a lock guard or a field
/// hand the cores `&mut` to it without giving it away.
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

/// A locked sink is a sink: a driver that shares one recorder between
/// threads locks it once per step and hands the cores the guard.
impl<S: TraceSink + ?Sized> TraceSink for MutexGuard<'_, S> {
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

/// An optional sink: `None` is disabled and drops whatever it is handed,
/// `Some` delegates. Lets a driver whose tracing is a run-time switch make
/// one sink-generic call per site instead of forking traced and untraced
/// variants.
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

/// Single-threaded shared handle: the simulator keeps one clone while
/// its engine holds another.
impl<S: TraceSink> TraceSink for Rc<RefCell<S>> {
    fn enabled(&self) -> bool {
        self.borrow().enabled()
    }

    fn now(&mut self, at: u64) {
        self.borrow_mut().now(at);
    }

    fn record(&mut self, event: TraceEvent) {
        self.borrow_mut().record(event);
    }
}

/// Thread-shared handle: each runtime thread records into the same
/// recorder under a mutex.
impl<S: TraceSink> TraceSink for Arc<Mutex<S>> {
    fn enabled(&self) -> bool {
        self.lock().expect("trace sink poisoned").enabled()
    }

    fn now(&mut self, at: u64) {
        self.lock().expect("trace sink poisoned").now(at);
    }

    fn record(&mut self, event: TraceEvent) {
        self.lock().expect("trace sink poisoned").record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Actor, EventKind};

    fn ev(kind: EventKind) -> TraceEvent {
        TraceEvent::new(kind, Actor::Node(1))
    }

    #[test]
    fn recorder_stamps_clock_at_record_time() {
        let mut r = Recorder::new();
        r.record(ev(EventKind::Publish));
        r.now(42);
        r.record(ev(EventKind::Deliver));
        r.record(ev(EventKind::Arrive));
        let at: Vec<u64> = r.events().iter().map(|e| e.at).collect();
        assert_eq!(at, vec![0, 42, 42]);
    }

    #[test]
    fn flight_recorder_keeps_only_the_tail() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..10u64 {
            fr.now(i);
            fr.record(ev(EventKind::Arrive));
        }
        assert_eq!(fr.seen(), 10);
        assert_eq!(fr.dropped_events(), 7);
        let at: Vec<u64> = fr.events().map(|e| e.at).collect();
        assert_eq!(at, vec![7, 8, 9]);
        assert_eq!(fr.dump_jsonl().lines().count(), 3);

        let mut small = FlightRecorder::new(16);
        small.record(ev(EventKind::Publish));
        assert_eq!(small.dropped_events(), 0);
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
    }

    #[test]
    fn optional_and_borrowed_sinks_delegate() {
        let mut none: Option<Recorder> = None;
        assert!(!none.enabled());
        none.now(3);
        none.record(ev(EventKind::Crash)); // dropped, not a panic

        let mut recorder = Recorder::new();
        let mut some = Some(&mut recorder);
        assert!(some.enabled());
        some.now(9);
        some.record(ev(EventKind::Deliver));
        assert_eq!(recorder.events()[0].at, 9);
        assert!(!Some(NullSink).enabled(), "Some defers to the inner sink");
    }

    #[test]
    fn shared_handles_delegate() {
        let mut rc = Rc::new(RefCell::new(Recorder::new()));
        rc.now(7);
        rc.record(ev(EventKind::Crash));
        assert_eq!(rc.borrow().events()[0].at, 7);

        let mut arc = Arc::new(Mutex::new(FlightRecorder::new(2)));
        assert!(arc.enabled());
        arc.record(ev(EventKind::Replay));
        assert_eq!(arc.lock().unwrap().seen(), 1);
        let mut guard = Some(arc.lock().unwrap());
        assert!(guard.enabled());
        guard.record(ev(EventKind::Replay));
        assert_eq!(guard.unwrap().seen(), 2);
    }
}
