//! The metric vocabulary: every name the benchmark may print, with its
//! unit. `BENCHMARK.json` lists the same names (a test holds the two
//! together); a run prints every end-to-end metric untraced and every
//! per-layer metric traced, a metric that does not apply to the workload
//! reading 0.

use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("deliveries_per_s", "1/s"),
    m("delivery_p50_us", "us"),
    m("delivery_p99_us", "us"),
];

pub const PER_LAYER: &[MetricDef] = &[
    // What the contract's `failed` folds together, and the fault metric
    // that is 0 wherever no fault is injected.
    m("check.failed_share", "ratio"),
    m("check.missing", "count"),
    m("check.duplicate", "count"),
    m("check.corrupted", "count"),
    m("check.order_violations", "count"),
    m("check.refused", "count"),
    m("fault.injected", "count"),
    m("fault.worst_wait_ms", "ms"),
    m("fault.worst_wait_max_ms", "ms"),
    // core
    m("core.node.stamp_ns", "ns"),
    m("core.node.allocs_per_frame", "count"),
    m("core.node.stamps_per_publish", "count"),
    m("core.receiver.offer_ns", "ns"),
    m("core.receiver.buffered_share", "ratio"),
    m("core.receiver.max_buffered", "count"),
    m("core.path.p50_us_len2", "us"),
    m("core.path.p50_us_len6", "us"),
    m("core.engine.events_per_s", "1/s"),
    m("core.engine.allocs_per_delivery", "count"),
    // sim
    m("sim.engine.bare_events_per_s", "1/s"),
    m("sim.virtual_p50_us", "us"),
    m("sim.virtual_p99_us", "us"),
    m("sim.rounds", "count"),
    // topology / overlap
    m("topology.generate_ms", "ms"),
    m("overlap.build.graph_ms", "ms"),
    m("overlap.colocate.ms", "ms"),
    m("overlap.place.ms", "ms"),
    m("overlap.build.atoms", "count"),
    m("overlap.build.mean_path_len", "count"),
    m("overlap.colocate.nodes", "count"),
    // runtime
    m("runtime.codec.encode_ns", "ns"),
    m("runtime.codec.decode_ns", "ns"),
    m("runtime.codec.bytes_per_frame", "B"),
    m("runtime.link.send_ack_ns", "ns"),
    m("runtime.link.receive_ns", "ns"),
    m("runtime.link.retransmit_scan_ns_at_1k", "ns"),
    m("runtime.cluster.publish_ns", "ns"),
    m("runtime.cluster.frames_per_delivery", "count"),
    m("runtime.cluster.dropped_share", "ratio"),
    m("runtime.cluster.retransmit_share", "ratio"),
    m("runtime.cluster.duplicate_share", "ratio"),
    m("runtime.cluster.batch_mean", "count"),
    m("runtime.cluster.heartbeat_misses", "count"),
    // deploy
    m("deploy.wire.encode_ns", "ns"),
    m("deploy.wire.decode_ns", "ns"),
    m("deploy.wire.bytes_per_frame", "B"),
    m("deploy.conn.roundtrip_ns", "ns"),
    m("deploy.conn.polls_per_frame", "count"),
    m("deploy.coord.publish_ns", "ns"),
    m("deploy.coord.frames_per_delivery", "count"),
    m("deploy.coord.batch_mean", "count"),
    m("deploy.coord.snapshots_per_s", "1/s"),
    m("deploy.coord.retransmit_share", "ratio"),
    m("deploy.coord.outage_max_ms", "ms"),
    m("deploy.coord.start_retries", "count"),
    m("deploy.node.recovery_ms", "ms"),
    m("deploy.node.frames_replayed_per_crash", "count"),
    // obs
    m("obs.span.stamp_wait_us_p50", "us"),
    m("obs.span.stamp_wait_us_p99", "us"),
    m("obs.span.wire_us_p50", "us"),
    m("obs.span.wire_us_p99", "us"),
    m("obs.span.group_gap_wait_us_p50", "us"),
    m("obs.span.group_gap_wait_us_p99", "us"),
    m("obs.span.atom_gap_wait_us_p50", "us"),
    m("obs.span.atom_gap_wait_us_p99", "us"),
    m("obs.span.incomplete", "count"),
    m("obs.trace.events_per_delivery", "count"),
    m("obs.trace.overhead_pct", "%"),
    // process tree
    m("proc.cpu_us_per_delivery", "us"),
    m("proc.rss_mb", "MiB"),
    m("proc.peak_rss_mb", "MiB"),
    m("proc.allocs_per_delivery", "count"),
    m("proc.sys_cpu_us_per_delivery", "us"),
    m("proc.ctx_switches_per_delivery", "count"),
    m("proc.file_io_syscalls_per_delivery", "count"),
    // generator
    m("gen.lag_p99_us", "us"),
    m("gen.publish_share", "ratio"),
    // the cost table
    m("layers.sum_us_per_delivery.runtime", "us"),
    m("layers.sum_us_per_delivery.socket", "us"),
    m("layers.accounted_share.runtime", "ratio"),
    m("layers.accounted_share.socket", "ratio"),
];

/// Values for one table, every name present (0 until set).
pub struct Metrics {
    table: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(table: &'static [MetricDef]) -> Self {
        Metrics {
            table,
            values: table.iter().map(|d| (d.name, 0.0)).collect(),
        }
    }

    /// Sets a metric. Non-finite values (a ratio over nothing) read 0.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the table: that is a bug in this program.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the table"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `(name, value, unit)` in table order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.table
            .iter()
            .map(|d| (d.name, self.values[d.name], d.unit))
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .rows()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json is valid JSON")
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|row| {
                let field = |f: &str| row.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn table(t: &[MetricDef]) -> Vec<(String, String)> {
        t.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    }

    #[test]
    fn manifest_lists_exactly_what_the_binary_prints() {
        let doc = manifest();
        assert_eq!(listed(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), table(PER_LAYER));
        let names: Vec<String> = listed(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn manifest_keeps_to_the_contract() {
        let doc = manifest();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let rows = doc.get("end_to_end").and_then(Value::as_array).unwrap();
        assert!(rows
            .iter()
            .any(|r| r.get("name").and_then(Value::as_str) == Some("setup_s")));
        for row in rows {
            let bound = row.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{row:?}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a name is used once"
        );
    }

    #[test]
    fn metrics_print_every_row_and_sanitise() {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", 0.5);
        m.set("delivery_p99_us", f64::NAN);
        assert_eq!(m.get("setup_s"), 0.5);
        assert_eq!(m.get("delivery_p99_us"), 0.0);
        let doc = json::parse(&m.to_json()).unwrap();
        assert_eq!(doc.as_object().unwrap().len(), END_TO_END.len());
        assert_eq!(
            doc.get("setup_s")
                .and_then(|v| v.get("unit"))
                .and_then(Value::as_str),
            Some("s")
        );
    }
}
