//! In-memory spans for the layer replay: one per call into a layer's
//! public entry point — name, start, end, the span that caused it, the
//! message it carried — kept in memory and written out (on request) when
//! the run ends. A layer's self time is its spans' duration minus what
//! their child spans cover, with the recorder's own clock-reading cost
//! calibrated and taken off.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Publish index of the (first) message the call handled.
    pub msg: u64,
    /// Units of work the call covered (frames in a batch), for per-frame
    /// costs.
    pub items: u32,
}

/// Per-layer totals over a span log.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCost {
    pub calls: u64,
    pub items: u64,
    pub total_ns: f64,
    pub self_ns: f64,
}

impl LayerCost {
    pub fn self_ns_per_item(&self) -> f64 {
        self.self_ns / self.items.max(1) as f64
    }
}

pub struct SpanLog {
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Clock cost inside an empty span's own interval, and the extra its
    /// parent sees around it; see [`SpanLog::calibrate`].
    inner_ns: f64,
    outer_ns: f64,
}

impl SpanLog {
    pub fn new() -> Self {
        let mut log = SpanLog {
            base: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            inner_ns: 0.0,
            outer_ns: 0.0,
        };
        log.calibrate();
        log
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, msg: u64, items: u32) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(id);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            msg,
            items,
        });
        // Read the clock last, so bookkeeping lands in the parent.
        self.spans[id as usize].start_ns = self.now();
        id
    }

    pub fn exit(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Times `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        msg: u64,
        items: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, msg, items);
        let out = f();
        self.exit(id);
        out
    }

    /// Measures what recording costs: a run of empty spans under one
    /// parent. An empty span's own duration is `inner`; the parent's
    /// duration per child, less `inner`, is `outer`.
    fn calibrate(&mut self) {
        const N: u32 = 20_000;
        let parent = self.enter("calibrate", 0, 0);
        for _ in 0..N {
            let id = self.enter("calibrate.empty", 0, 0);
            self.exit(id);
        }
        self.exit(parent);
        let mut inner: Vec<u64> = self.spans[1..]
            .iter()
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        inner.sort_unstable();
        let p = self.spans[0];
        self.inner_ns = inner[inner.len() / 2] as f64;
        self.outer_ns = ((p.end_ns - p.start_ns) as f64 / f64::from(N) - self.inner_ns).max(0.0);
        self.spans.clear();
        self.stack.clear();
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time and call counts per span name.
    pub fn layer_costs(&self) -> BTreeMap<&'static str, LayerCost> {
        let mut child_ns = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += (s.end_ns - s.start_ns) as f64 + self.outer_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerCost> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = (s.end_ns - s.start_ns) as f64 - self.inner_ns;
            let cost = out.entry(s.name).or_default();
            cost.calls += 1;
            cost.items += u64::from(s.items);
            cost.total_ns += total.max(0.0);
            cost.self_ns += (total - child_ns[i]).max(0.0);
        }
        out
    }

    /// Writes every span as one JSON document:
    /// `{"calibration": {...}, "spans": [{"id", "name", "start_ns", "end_ns", "parent", "msg", "items"}]}`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"calibration\": {{\"inner_ns\": {}, \"outer_ns\": {}}},\n\"spans\": [",
            self.inner_ns, self.outer_ns
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"msg\": {}, \"items\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.msg, s.items
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::new();
        for m in 0..50 {
            let outer = log.enter("outer", m, 1);
            spin(20_000);
            log.span("inner", m, 2, || spin(60_000));
            log.exit(outer);
        }
        let costs = log.layer_costs();
        let (outer, inner) = (costs["outer"], costs["inner"]);
        assert_eq!((outer.calls, inner.calls, inner.items), (50, 50, 100));
        let outer_self = outer.self_ns / 50.0;
        let inner_self = inner.self_ns / 50.0;
        assert!(
            (15_000.0..40_000.0).contains(&outer_self),
            "outer self {outer_self}"
        );
        assert!(
            (55_000.0..90_000.0).contains(&inner_self),
            "inner self {inner_self}"
        );
        assert!(outer.total_ns > outer.self_ns + inner.self_ns * 0.9);
    }

    #[test]
    fn writes_parseable_json() {
        let mut log = SpanLog::new();
        let a = log.enter("a", 7, 1);
        log.span("b", 7, 1, || ());
        log.exit(a);
        let path =
            std::env::temp_dir().join(format!("seqnet-bench-spans-{}.json", std::process::id()));
        log.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let doc = crate::json::parse(&text).expect("valid JSON");
        let spans = doc
            .get("spans")
            .and_then(crate::json::Value::as_array)
            .unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[1].get("parent").and_then(crate::json::Value::as_f64),
            Some(0.0)
        );
    }
}
