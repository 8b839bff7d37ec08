//! Per-layer rows of the traced run. Three sources, named in the README
//! next to every metric: [C] the program's public counters and outside
//! timing in the untraced half, [T] the program's own lifecycle trace in
//! the traced half, [R] the layer replay.

use std::collections::BTreeMap;

use seqnet::core::proto::trace::{EventKind, TraceEvent};
use seqnet::obs::span::TraceSet;
use seqnet::obs::Histogram;

use crate::layers::{self, Replay};
use crate::metrics::Metrics;
use crate::simscale::SimOutcome;
use crate::spans::LayerCost;
use crate::stats;
use crate::verify::Verdict;
use crate::wall::{Driver, Schedule, WallOutcome, WallSpec};

pub fn check_rows(m: &mut Metrics, v: &Verdict) {
    m.set("check.failed_share", v.failed_share());
    m.set("check.missing", v.missing as f64);
    m.set("check.duplicate", (v.duplicate + v.unexpected) as f64);
    m.set("check.corrupted", v.corrupted as f64);
    m.set("check.order_violations", v.order_violations as f64);
    m.set("check.refused", v.refused as f64);
}

fn worst_wait_rows(m: &mut Metrics, per_window_ms: &[f64]) {
    m.set(
        "fault.worst_wait_ms",
        stats::median(per_window_ms).unwrap_or(0.0),
    );
    m.set(
        "fault.worst_wait_max_ms",
        per_window_ms.iter().copied().fold(0.0, f64::max),
    );
}

/// [C] rows of a wall-clock workload.
pub fn wall_counters(m: &mut Metrics, notes: &mut Vec<String>, spec: &WallSpec, o: &WallOutcome) {
    let deliveries = o.deliveries_total.max(1) as f64;
    let c = &o.counters;
    worst_wait_rows(m, &o.worst_wait_ms);
    m.set("fault.injected", o.faults_injected as f64);
    m.set("core.node.stamps_per_publish", o.stamps as f64 / deliveries);
    let p50 = |v: &[u32]| stats::percentile(v, 0.5).map_or(0.0, f64::from);
    m.set("core.path.p50_us_len2", p50(&o.latency_short_us));
    m.set("core.path.p50_us_len6", p50(&o.latency_long_us));
    let publish_ns = o.publish_call_s * 1e9 / o.publishes.max(1) as f64;
    let frames = c.frames_sent.max(1) as f64;
    match spec.driver {
        Driver::Runtime => {
            m.set("runtime.cluster.publish_ns", publish_ns);
            m.set(
                "runtime.cluster.frames_per_delivery",
                c.frames_sent as f64 / deliveries,
            );
            m.set(
                "runtime.cluster.dropped_share",
                c.frames_dropped as f64 / frames,
            );
            m.set(
                "runtime.cluster.retransmit_share",
                c.retransmissions as f64 / frames,
            );
            m.set(
                "runtime.cluster.duplicate_share",
                c.duplicates as f64 / frames,
            );
            m.set("runtime.cluster.batch_mean", c.batch_mean());
            m.set(
                "runtime.cluster.heartbeat_misses",
                c.heartbeat_misses as f64,
            );
        }
        Driver::Socket => {
            m.set("deploy.coord.publish_ns", publish_ns);
            m.set(
                "deploy.coord.frames_per_delivery",
                c.frames_sent as f64 / deliveries,
            );
            m.set(
                "deploy.coord.retransmit_share",
                c.retransmissions as f64 / frames,
            );
            m.set("deploy.coord.batch_mean", c.batch_mean());
            m.set(
                "deploy.coord.snapshots_per_s",
                c.snapshots as f64 / o.window_s,
            );
            m.set("deploy.coord.start_retries", o.setup_retries as f64);
            if spec.crash_nodes {
                let crashes = c.recovery.crashes.max(1) as f64;
                m.set(
                    "deploy.coord.outage_max_ms",
                    o.worst_wait_ms.iter().copied().fold(0.0, f64::max),
                );
                m.set(
                    "deploy.node.recovery_ms",
                    c.recovery.recovery_micros as f64 / 1e3 / crashes,
                );
                m.set(
                    "deploy.node.frames_replayed_per_crash",
                    c.recovery.frames_replayed as f64 / crashes,
                );
            }
        }
    }
    m.set("proc.cpu_us_per_delivery", o.sliced.cpu_us_per_delivery());
    m.set("proc.rss_mb", o.sliced.rss_mb());
    m.set("proc.peak_rss_mb", o.tree.peak_rss_mb);
    m.set(
        "proc.allocs_per_delivery",
        o.allocations as f64 / deliveries,
    );
    m.set(
        "proc.sys_cpu_us_per_delivery",
        o.cpu.sys_s * 1e6 / deliveries,
    );
    m.set(
        "proc.ctx_switches_per_delivery",
        o.tree.ctx_switches as f64 / deliveries,
    );
    m.set(
        "proc.file_io_syscalls_per_delivery",
        o.tree.io_syscalls as f64 / deliveries,
    );
    let lag = stats::percentile(&o.gen_lag_us, 0.99).map_or(0.0, f64::from);
    m.set("gen.lag_p99_us", lag);
    m.set("gen.publish_share", o.publish_call_s / o.window_s);
    if lag > 1000.0 {
        notes.push(format!(
            "** generator-limited: lag p99 {lag} us; latency rows are not comparable **"
        ));
    }
    notes.push(format!(
        "untraced half: {:.1} deliveries/s, p50 {:.0} us, {:.3} us CPU/delivery over {} slices",
        o.sliced.deliveries_per_s(),
        o.sliced.latency_us(0.5).unwrap_or(0.0),
        o.sliced.cpu_us_per_delivery(),
        o.sliced.slices.len()
    ));
}

/// [C] rows of `sim-scale`.
pub fn sim_counters(m: &mut Metrics, notes: &mut Vec<String>, o: &SimOutcome) {
    let deliveries = o.deliveries.max(1) as f64;
    worst_wait_rows(m, &o.worst_wait_ms);
    m.set("core.node.stamps_per_publish", o.stamps as f64 / deliveries);
    m.set("core.receiver.max_buffered", o.max_buffered as f64);
    m.set("core.engine.events_per_s", o.events as f64 / o.window_s);
    m.set(
        "core.engine.allocs_per_delivery",
        o.allocations as f64 / deliveries,
    );
    m.set("proc.cpu_us_per_delivery", o.sliced.cpu_us_per_delivery());
    m.set("proc.rss_mb", o.sliced.rss_mb());
    m.set("proc.peak_rss_mb", o.peak_rss_mb);
    m.set(
        "proc.allocs_per_delivery",
        o.allocations as f64 / deliveries,
    );
    m.set(
        "proc.sys_cpu_us_per_delivery",
        o.cpu.sys_s * 1e6 / deliveries,
    );
    let pct = |q| stats::percentile(&o.virtual_us, q).map_or(0.0, f64::from);
    m.set("sim.virtual_p50_us", pct(0.5));
    m.set("sim.virtual_p99_us", pct(0.99));
    m.set("sim.rounds", o.rounds as f64);
    notes.push(format!(
        "untraced half: {:.1} deliveries/s over {} simulators, {} rounds",
        o.sliced.deliveries_per_s(),
        o.sliced.slices.len(),
        o.rounds
    ));
}

fn quantile(h: &Histogram, q: f64) -> f64 {
    h.quantile(q).map_or(0.0, |v| v as f64)
}

/// [T] rows: the program's own trace, reconstructed into spans.
pub fn trace_rows(m: &mut Metrics, events: &[TraceEvent], deliveries: u64) {
    let breakdown = TraceSet::from_events(events).breakdown_histograms();
    for (name, h) in [
        ("stamp_wait", &breakdown.stamp_wait),
        ("wire", &breakdown.wire),
        ("group_gap_wait", &breakdown.group_gap_wait),
        ("atom_gap_wait", &breakdown.atom_gap_wait),
    ] {
        m.set(&format!("obs.span.{name}_us_p50"), quantile(h, 0.5));
        m.set(&format!("obs.span.{name}_us_p99"), quantile(h, 0.99));
    }
    m.set("obs.span.incomplete", breakdown.incomplete as f64);
    m.set(
        "obs.trace.events_per_delivery",
        events.len() as f64 / deliveries.max(1) as f64,
    );
    let arrivals = events
        .iter()
        .filter(|e| e.kind == EventKind::Arrive)
        .count();
    let buffered = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Buffer(_)));
    m.set(
        "core.receiver.buffered_share",
        buffered.clone().count() as f64 / arrivals.max(1) as f64,
    );
    // A Buffer event's detail is the queue depth after it buffered. The
    // simulator's own high-water mark, set earlier, stands if larger.
    let deepest = buffered.filter_map(|e| e.detail).max().unwrap_or(0) as f64;
    m.set(
        "core.receiver.max_buffered",
        deepest.max(m.get("core.receiver.max_buffered")),
    );
}

/// Whole-run mean rate and median latency: the traced half is one short
/// deployment, so both halves are compared on these, not on slices.
fn whole_run(o: &WallOutcome) -> (f64, f64) {
    let all = o.sliced.all_latencies();
    let p50 = all.get(all.len() / 2).copied().map_or(0.0, f64::from);
    (o.deliveries_in_window as f64 / o.window_s, p50)
}

/// The price of watching: throughput lost where the box is CPU-bound,
/// median latency gained where it is not.
pub fn trace_overhead_wall(
    m: &mut Metrics,
    spec: &WallSpec,
    plain: &WallOutcome,
    traced: &WallOutcome,
) {
    let ((rate, p50), (rate_t, p50_t)) = (whole_run(plain), whole_run(traced));
    let pct = match spec.schedule {
        Schedule::Closed { .. } => (rate - rate_t) / rate * 100.0,
        Schedule::Open { .. } => (p50_t - p50) / p50 * 100.0,
    };
    m.set("obs.trace.overhead_pct", pct);
}

pub fn trace_overhead_sim(m: &mut Metrics, plain: &SimOutcome, traced: &SimOutcome) {
    let rate = plain.deliveries as f64 / plain.window_s;
    let rate_t = traced.deliveries as f64 / traced.window_s;
    m.set("obs.trace.overhead_pct", (rate - rate_t) / rate * 100.0);
}

type Costs = BTreeMap<&'static str, LayerCost>;

/// [R] rows shared by every replay: the two cores.
fn core_rows(m: &mut Metrics, replay: &Replay, costs: &Costs) {
    let per_item = |name: &str| costs.get(name).map_or(0.0, |c| c.self_ns_per_item());
    m.set("core.node.stamp_ns", per_item("core.node.stamp"));
    m.set("core.receiver.offer_ns", per_item("core.receiver.offer"));
    let stamped = costs.get("core.node.stamp").map_or(1, |c| c.items.max(1));
    m.set(
        "core.node.allocs_per_frame",
        replay.stamp_allocs as f64 / stamped as f64,
    );
}

fn layer_table(notes: &mut Vec<String>, replay: &Replay, costs: &Costs) {
    notes.push(format!(
        "layer replay: {} publishes, {} deliveries, {} spans",
        replay.publishes,
        replay.deliveries,
        replay.log.len()
    ));
    notes.push(format!(
        "{:<28} {:>10} {:>10} {:>12} {:>16}",
        "layer", "calls", "items", "self ns/item", "self us/delivery"
    ));
    for (name, c) in costs {
        notes.push(format!(
            "{name:<28} {:>10} {:>10} {:>12.1} {:>16.4}",
            c.calls,
            c.items,
            c.self_ns_per_item(),
            c.self_ns / 1e3 / replay.deliveries.max(1) as f64
        ));
    }
}

/// [R] rows of a wall-clock workload: the ring replay on its driver, the
/// codec and connection loops where bytes are involved, and the cost
/// table against the measured CPU.
pub fn replay_rows(
    m: &mut Metrics,
    notes: &mut Vec<String>,
    spec: &WallSpec,
    replay: &Replay,
    plain: &WallOutcome,
) {
    let costs = replay.log.layer_costs();
    core_rows(m, replay, &costs);
    layer_table(notes, replay, &costs);
    let self_ns = |name: &str| costs.get(name).map_or(0.0, |c| c.self_ns);
    let sent = costs.get("runtime.link.send").map_or(1, |c| c.items.max(1)) as f64;
    m.set(
        "runtime.link.send_ack_ns",
        (self_ns("runtime.link.send")
            + self_ns("runtime.link.release")
            + self_ns("runtime.link.ack"))
            / sent,
    );
    let received = costs
        .get("runtime.link.receive")
        .map_or(1, |c| c.items.max(1)) as f64;
    m.set(
        "runtime.link.receive_ns",
        self_ns("runtime.link.receive") / received,
    );
    if let Some(frame) = replay.sample_frames.first() {
        m.set(
            "runtime.link.retransmit_scan_ns_at_1k",
            layers::retransmit_scan_ns(frame),
        );
    }
    let sum = replay.sum_us_per_delivery(&costs);
    let measured = plain.sliced.cpu_us_per_delivery();
    let flood = matches!(spec.schedule, Schedule::Closed { .. });
    match spec.driver {
        Driver::Runtime => {
            m.set("layers.sum_us_per_delivery.runtime", sum);
            if flood {
                m.set("layers.accounted_share.runtime", sum / measured);
            }
        }
        Driver::Socket => {
            m.set("layers.sum_us_per_delivery.socket", sum);
            if flood {
                m.set("layers.accounted_share.socket", sum / measured);
            }
            if !replay.sample_frames.is_empty() {
                let codec = layers::codec_costs(&replay.sample_frames);
                m.set("runtime.codec.encode_ns", codec.runtime_encode_ns);
                m.set("runtime.codec.decode_ns", codec.runtime_decode_ns);
                m.set("runtime.codec.bytes_per_frame", codec.runtime_bytes);
                m.set("deploy.wire.encode_ns", codec.wire_encode_ns);
                m.set("deploy.wire.decode_ns", codec.wire_decode_ns);
                m.set("deploy.wire.bytes_per_frame", codec.wire_bytes);
                m.set(
                    "deploy.conn.roundtrip_ns",
                    layers::conn_roundtrip_ns(&replay.sample_frames),
                );
                // `Conn` polls per frame carried: what coalescing saves.
                // (The system calls under them cannot be counted from
                // outside the program without a tracer.)
                let polls = ["deploy.conn.write", "deploy.conn.read_decode"]
                    .iter()
                    .filter_map(|name| costs.get(name))
                    .map(|c| c.calls as f64 / c.items.max(1) as f64)
                    .sum::<f64>();
                m.set("deploy.conn.polls_per_frame", polls);
            }
        }
    }
    notes.push(format!(
        "layers sum {sum:.3} us/delivery against {measured:.3} us CPU/delivery measured: {:.0} % accounted{}",
        sum / measured * 100.0,
        if flood { "" } else { " (not CPU-bound here: the share is reported on *-flood only)" }
    ));
}

/// [R] rows of `sim-scale`: the cores on the zipf pipeline, the bare event
/// loop, and what building the structures costs.
pub fn sim_replay_rows(m: &mut Metrics, notes: &mut Vec<String>, replay: &Replay) {
    let costs = replay.log.layer_costs();
    core_rows(m, replay, &costs);
    layer_table(notes, replay, &costs);
    m.set("sim.engine.bare_events_per_s", layers::bare_events_per_s());
    let s = layers::structure_costs();
    m.set("topology.generate_ms", s.topology_ms);
    m.set("overlap.build.graph_ms", s.graph_ms);
    m.set("overlap.colocate.ms", s.colocate_ms);
    m.set("overlap.place.ms", s.place_ms);
    m.set("overlap.build.atoms", s.atoms);
    m.set("overlap.build.mean_path_len", s.mean_path_len);
    m.set("overlap.colocate.nodes", s.nodes);
}
