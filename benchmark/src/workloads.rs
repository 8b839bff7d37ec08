//! The eight named workloads and how a run of one becomes metrics.

use std::path::Path;
use std::time::Duration;

use crate::alloc;
use crate::layers;
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::perlayer;
use crate::simscale::{self, SimOutcome, SimPlan};
use crate::slices::Sliced;
use crate::stats;
use crate::topo;
use crate::verify::Verdict;
use crate::wall::{self, Driver, Plan, Schedule, WallOutcome, WallSpec};

pub enum Kind {
    Wall(WallSpec),
    Sim,
}

pub struct Workload {
    pub name: &'static str,
    /// Driver · topology · schedule, for the human-readable header.
    pub shape: &'static str,
    pub kind: Kind,
}

const fn open(driver: Driver, rate_hz: f64) -> WallSpec {
    WallSpec {
        driver,
        schedule: Schedule::Open { rate_hz },
        payload_len: 1024,
        drop_probability: 0.0,
        crash_nodes: false,
    }
}

const fn flood(driver: Driver) -> WallSpec {
    WallSpec {
        driver,
        schedule: Schedule::Closed { in_flight: 2048 },
        payload_len: 16,
        drop_probability: 0.0,
        crash_nodes: false,
    }
}

/// Why each exists is in `BENCHMARK.json` and `README.md`.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "runtime-paced",
        shape: "Cluster, ring-12x6, open loop 5000 publishes/s, 1 KiB",
        kind: Kind::Wall(open(Driver::Runtime, 5000.0)),
    },
    Workload {
        name: "socket-paced",
        shape: "DeployCluster, ring-12x6, open loop 5000 publishes/s, 1 KiB",
        kind: Kind::Wall(open(Driver::Socket, 5000.0)),
    },
    Workload {
        name: "runtime-flood",
        shape: "Cluster, ring-12x6, closed loop 2048 in flight, 16 B",
        kind: Kind::Wall(flood(Driver::Runtime)),
    },
    Workload {
        name: "socket-flood",
        shape: "DeployCluster, ring-12x6, closed loop 2048 in flight, 16 B",
        kind: Kind::Wall(flood(Driver::Socket)),
    },
    Workload {
        name: "socket-trickle",
        shape: "DeployCluster, ring-12x6, open loop 250 publishes/s, 1 KiB",
        kind: Kind::Wall(open(Driver::Socket, 250.0)),
    },
    Workload {
        name: "runtime-lossy",
        shape: "Cluster, ring-12x6, 5 % frame loss, open loop 5000 publishes/s, 1 KiB",
        kind: Kind::Wall(WallSpec {
            drop_probability: 0.05,
            ..open(Driver::Runtime, 5000.0)
        }),
    },
    Workload {
        name: "socket-crash",
        shape: "DeployCluster, ring-12x6, open loop 1000 publishes/s, 1 KiB, six node kills",
        kind: Kind::Wall(WallSpec {
            crash_nodes: true,
            ..open(Driver::Socket, 1000.0)
        }),
    },
    Workload {
        name: "sim-scale",
        shape: "OrderedPubSub, zipf-128x64 on 10 000 routers, rounds to quiescence, 16 B",
        kind: Kind::Sim,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What one invocation reports.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Free-form lines for the human reader (sample counts, flags).
    pub notes: Vec<String>,
}

/// Set-ups per run; set-up time is their interquartile mean. Threads
/// start in ten milliseconds, so there can be many — and under injected
/// loss there must be: a set-up then takes ten milliseconds plus a
/// retransmit timeout for every probe frame lost, a lottery no handful of
/// samples settles.
const SETUPS_RUNTIME: usize = 15;
const SETUPS_SOCKET: usize = 7;
/// `sim-scale` spreads its window over up to this many simulators, of at
/// least [`SIMULATOR_SECONDS`] each: the simulator slows as its delivery
/// log grows, and a user's runs are short. Each is a set-up sample.
const SIMULATORS: usize = 5;
const SIMULATOR_SECONDS: f64 = 2.0;
/// Traced deployments stop after this many publishes (a trace of about
/// twenty events per publish stays near 50 MB) …
const TRACED_PUBLISHES: u64 = 20_000;
/// … and traced simulators after this many rounds.
const TRACED_ROUNDS: u64 = 150;
/// Time the layer replay may take in a traced run.
const REPLAY_BUDGET: Duration = Duration::from_millis(1500);

fn wall_plan(spec: &WallSpec, seed: u64, seconds: f64) -> Plan {
    Plan {
        seed,
        seconds,
        setups: match spec.driver {
            Driver::Runtime => SETUPS_RUNTIME,
            Driver::Socket => SETUPS_SOCKET,
        },
        traced: false,
        max_publishes: u64::MAX,
    }
}

fn sim_plan(seed: u64, seconds: f64) -> SimPlan {
    SimPlan {
        seed,
        seconds,
        simulators: ((seconds / SIMULATOR_SECONDS).round() as usize).clamp(1, SIMULATORS),
        traced: false,
        max_rounds: u64::MAX,
    }
}

/// The rows every workload computes the same way from its slices.
/// Returns `false` when the slices hold too few samples for a p99: such
/// a run measured nothing usable.
fn sliced_rows(metrics: &mut Metrics, notes: &mut Vec<String>, sliced: &Sliced) -> bool {
    let p50 = sliced.latency_us(0.50);
    let p99 = sliced.latency_us(0.99);
    metrics.set("deliveries_per_s", sliced.deliveries_per_s());
    metrics.set("delivery_p50_us", p50.unwrap_or(0.0));
    metrics.set("delivery_p99_us", p99.unwrap_or(0.0));
    notes.push(format!(
        "latency samples: {} in {} slices",
        sliced.samples(),
        sliced.slices.len()
    ));
    for (i, s) in sliced.slices.iter().enumerate() {
        let pct =
            |q| stats::percentile(&s.latency_us, q).map_or("-".to_string(), |v| v.to_string());
        notes.push(format!(
            "slice {i:>2} ({:.2} s): {:>8} deliveries, p50 {:>7} us, p99 {:>7} us, {:>8.3} us CPU/delivery",
            s.seconds,
            s.deliveries,
            pct(0.5),
            pct(0.99),
            s.cpu_ns as f64 / 1e3 / s.deliveries.max(1) as f64
        ));
    }
    if let Some((q, v)) = stats::highest_supported(&sliced.all_latencies()) {
        notes.push(format!(
            "whole run: highest supported percentile p{} = {v} us",
            q * 100.0
        ));
    }
    p50.is_some() && p99.is_some()
}

fn end_to_end_wall(o: &WallOutcome) -> RunResult {
    let mut metrics = Metrics::new(END_TO_END);
    let mut notes = Vec::new();
    metrics.set("setup_s", stats::midmean(&o.setup_s).unwrap_or(0.0));
    let supported = sliced_rows(&mut metrics, &mut notes, &o.sliced);
    notes.push(format!(
        "whole run: {:.1} deliveries/s, {:.3} us CPU/delivery over the slices, RSS {:.1} MiB typical, {:.1} MiB peak",
        o.deliveries_in_window as f64 / o.window_s,
        o.sliced.cpu_us_per_delivery(),
        o.sliced.rss_mb(),
        o.tree.peak_rss_mb
    ));
    notes.push(format!(
        "publishes {} deliveries {} (in window {}) set-ups {:?} (retried {})",
        o.publishes, o.deliveries_total, o.deliveries_in_window, o.setup_s, o.setup_retries
    ));
    if let Some(lag) = stats::percentile(&o.gen_lag_us, 0.99) {
        let flag = if lag > 1000 {
            "  ** generator-limited **"
        } else {
            ""
        };
        notes.push(format!("generator lag p99: {lag} us{flag}"));
    }
    notes.push(format!(
        "worst wait per window (ms): {:?}; node kills: {}",
        o.worst_wait_ms, o.faults_injected
    ));
    finish(metrics, notes, &o.verdict, supported)
}

fn end_to_end_sim(o: &SimOutcome) -> RunResult {
    let mut metrics = Metrics::new(END_TO_END);
    let mut notes = Vec::new();
    metrics.set("setup_s", stats::midmean(&o.setup_s).unwrap_or(0.0));
    let supported = sliced_rows(&mut metrics, &mut notes, &o.sliced);
    notes.push(format!(
        "whole run: {:.1} deliveries/s, {:.3} us CPU/delivery over the slices, RSS {:.1} MiB typical, {:.1} MiB peak",
        o.deliveries as f64 / o.window_s,
        o.sliced.cpu_us_per_delivery(),
        o.sliced.rss_mb(),
        o.peak_rss_mb
    ));
    notes.push(format!(
        "rounds {} publishes {} deliveries {} events {} stuck {} deterministic {} set-ups {:?}",
        o.rounds, o.publishes, o.deliveries, o.events, o.stuck, o.deterministic, o.setup_s
    ));
    let sound = supported && o.stuck == 0 && o.deterministic;
    finish(metrics, notes, &o.verdict, sound)
}

fn finish(metrics: Metrics, mut notes: Vec<String>, verdict: &Verdict, sound: bool) -> RunResult {
    notes.push(format!("checker: {verdict:?}"));
    RunResult {
        correct: sound && verdict.failed() == 0,
        attempted: verdict.expected.max(1),
        failed: verdict.failed(),
        metrics,
        notes,
    }
}

pub fn run_untraced(w: &Workload, seed: u64, seconds: f64) -> RunResult {
    match &w.kind {
        Kind::Wall(spec) => end_to_end_wall(&wall::run(
            spec,
            &topo::ring_12x6(),
            &wall_plan(spec, seed, seconds),
        )),
        Kind::Sim => end_to_end_sim(&simscale::run(&sim_plan(seed, seconds))),
    }
}

/// The traced run: half the time untraced with allocation counting on
/// (the counters, and the baseline tracing is priced against), the other
/// half with the program's lifecycle trace on, then the layer replay.
pub fn run_traced(w: &Workload, seed: u64, seconds: f64, spans_out: Option<&Path>) -> RunResult {
    alloc::set_counting(true);
    let mut metrics = Metrics::new(PER_LAYER);
    let mut notes = Vec::new();
    let half = seconds / 2.0;
    let mut verdict = Verdict::default();
    let mut sound = true;
    let replay = match &w.kind {
        Kind::Wall(spec) => {
            let membership = topo::ring_12x6();
            let plain = wall::run(spec, &membership, &wall_plan(spec, seed, half));
            let traced = wall::run(
                spec,
                &membership,
                &Plan {
                    setups: 1,
                    traced: true,
                    max_publishes: TRACED_PUBLISHES,
                    ..wall_plan(spec, seed, half)
                },
            );
            verdict.merge(&plain.verdict);
            verdict.merge(&traced.verdict);
            perlayer::wall_counters(&mut metrics, &mut notes, spec, &plain);
            perlayer::trace_rows(&mut metrics, &traced.trace, traced.deliveries_total);
            perlayer::trace_overhead_wall(&mut metrics, spec, &plain, &traced);
            let publish_rate = plain.publishes as f64 / plain.window_s;
            // As many publishes per replay tick as the driver sees per
            // snapshot interval at the measured rate.
            let per_tick = ((publish_rate * 0.003).round() as usize).clamp(1, 512);
            let replay = layers::replay_ring(
                spec.driver,
                &membership,
                spec.payload_len,
                seed,
                per_tick,
                REPLAY_BUDGET,
            );
            perlayer::replay_rows(&mut metrics, &mut notes, spec, &replay, &plain);
            replay
        }
        Kind::Sim => {
            let plain = simscale::run(&sim_plan(seed, half));
            let traced = simscale::run(&SimPlan {
                simulators: 1,
                traced: true,
                max_rounds: TRACED_ROUNDS,
                ..sim_plan(seed, half)
            });
            verdict.merge(&plain.verdict);
            verdict.merge(&traced.verdict);
            sound = plain.stuck == 0 && traced.stuck == 0 && plain.deterministic;
            perlayer::sim_counters(&mut metrics, &mut notes, &plain);
            perlayer::trace_rows(&mut metrics, &traced.trace, traced.deliveries);
            perlayer::trace_overhead_sim(&mut metrics, &plain, &traced);
            let replay = layers::replay_zipf_cores(seed, REPLAY_BUDGET);
            perlayer::sim_replay_rows(&mut metrics, &mut notes, &replay);
            replay
        }
    };
    if let Some(path) = spans_out {
        notes.push(match replay.log.write_json(path) {
            Ok(()) => format!("{} spans written to {}", replay.log.len(), path.display()),
            Err(e) => format!("could not write spans to {}: {e}", path.display()),
        });
    }
    perlayer::check_rows(&mut metrics, &verdict);
    // A delivery whose span cannot be reconstructed is a tracing defect,
    // and the traced run is where that shows.
    sound &= metrics.get("obs.span.incomplete") == 0.0;
    finish(metrics, notes, &verdict, sound)
}
