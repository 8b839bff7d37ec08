//! The wall-clock workloads: one generator thread driving the threaded
//! runtime (`seqnet::runtime::Cluster`) or the socket deployment
//! (`seqnet::deploy::DeployCluster`) through nothing but their public
//! publish / next-delivery surface, open or closed loop.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use seqnet::core::proto::trace::TraceEvent;
use seqnet::core::proto::RecoveryStats;
use seqnet::core::Message;
use seqnet::deploy::DeployCluster;
use seqnet::membership::{GroupId, Membership, NodeId};
use seqnet::runtime::{Cluster, ClusterConfig};

use crate::alloc;
use crate::payload;
use crate::procfs::{self, CpuTimes, TreeSample};
use crate::slices::{self, Slice, Sliced, TreeMeter};
use crate::topo::Groups;
use crate::verify::{self, Verdict};

/// How long after the window closes an undelivered message is still
/// waited for; past it, it is missing.
pub const DRAIN_LIMIT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    Runtime,
    Socket,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// Publishes fall due at a fixed rate whatever the system does;
    /// latency counts from the due time.
    Open { rate_hz: f64 },
    /// A fixed number of publishes in flight; latency counts from the
    /// publish call.
    Closed { in_flight: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct WallSpec {
    pub driver: Driver,
    pub schedule: Schedule,
    pub payload_len: usize,
    pub drop_probability: f64,
    /// Kill and respawn sequencing nodes on a schedule (socket only).
    pub crash_nodes: bool,
}

/// Counters every driver reports after shutdown, in one shape.
#[derive(Debug, Clone, Default)]
pub struct DriverCounters {
    pub frames_sent: u64,
    pub frames_dropped: u64,
    pub retransmissions: u64,
    pub duplicates: u64,
    pub heartbeat_misses: u64,
    pub snapshots: u64,
    pub recovery: RecoveryStats,
    pub batch_sizes: BTreeMap<usize, u64>,
}

impl DriverCounters {
    /// Mean frames per wire write.
    pub fn batch_mean(&self) -> f64 {
        let writes: u64 = self.batch_sizes.values().sum();
        let frames: u64 = self.batch_sizes.iter().map(|(&s, &c)| s as u64 * c).sum();
        frames as f64 / writes.max(1) as f64
    }
}

/// The slice of a deployment's public API the generator uses.
pub trait Target {
    /// `false` when the program refused the publish.
    fn publish(&mut self, sender: NodeId, group: GroupId, payload: Vec<u8>) -> bool;
    fn next_delivery(&mut self, timeout: Duration) -> Option<(NodeId, Message)>;
    fn num_nodes(&self) -> usize;
    /// Kills sequencing node `node` and respawns it at once. Only the
    /// socket deployment is asked to (`socket-crash`).
    fn crash(&mut self, node: usize);
    /// Shuts down and returns the complete counters.
    fn finish(&mut self) -> DriverCounters;
    /// The run's lifecycle trace; complete after [`finish`](Self::finish).
    fn trace_events(&self) -> Vec<TraceEvent>;
}

impl Target for Cluster {
    fn publish(&mut self, sender: NodeId, group: GroupId, payload: Vec<u8>) -> bool {
        Cluster::publish(self, sender, group, payload).is_ok()
    }
    fn next_delivery(&mut self, timeout: Duration) -> Option<(NodeId, Message)> {
        Cluster::next_delivery(self, timeout)
    }
    fn num_nodes(&self) -> usize {
        self.num_sequencing_nodes()
    }
    fn crash(&mut self, _node: usize) {
        unreachable!("no workload injects faults into the threaded runtime");
    }
    fn finish(&mut self) -> DriverCounters {
        self.shutdown();
        let s = self.stats();
        DriverCounters {
            frames_sent: s.frames_sent,
            frames_dropped: s.frames_dropped,
            retransmissions: s.retransmissions,
            duplicates: s.duplicates,
            heartbeat_misses: s.heartbeat_misses,
            snapshots: 0,
            recovery: s.recovery,
            batch_sizes: self.batch_size_counts(),
        }
    }
    fn trace_events(&self) -> Vec<TraceEvent> {
        Cluster::trace_events(self)
    }
}

impl Target for DeployCluster {
    fn publish(&mut self, sender: NodeId, group: GroupId, payload: Vec<u8>) -> bool {
        DeployCluster::publish(self, sender, group, payload).is_ok()
    }
    fn next_delivery(&mut self, timeout: Duration) -> Option<(NodeId, Message)> {
        DeployCluster::next_delivery(self, timeout)
    }
    fn num_nodes(&self) -> usize {
        self.num_sequencing_nodes()
    }
    fn crash(&mut self, node: usize) {
        self.kill_node(node);
        if let Err(e) = self.respawn_node(node) {
            eprintln!("benchmark: respawn of node {node} failed: {e}");
        }
    }
    fn finish(&mut self) -> DriverCounters {
        let s = self.shutdown();
        DriverCounters {
            frames_sent: s.frames_sent,
            frames_dropped: s.frames_dropped,
            retransmissions: s.retransmissions,
            duplicates: s.duplicates,
            heartbeat_misses: s.heartbeat_misses,
            snapshots: s.snapshots,
            recovery: s.recovery,
            batch_sizes: s.batch_sizes,
        }
    }
    fn trace_events(&self) -> Vec<TraceEvent> {
        // The coordinator's events are in memory; each node process
        // appended its own to a JSONL file in the run directory. Span
        // reconstruction needs no global order, so they concatenate.
        let mut events = DeployCluster::trace_events(self);
        for idx in 0..self.num_sequencing_nodes() {
            let path = self.dir().join(format!("node{idx}.obs.jsonl"));
            if let Ok(text) = std::fs::read_to_string(&path) {
                events.extend(text.lines().filter_map(seqnet::obs::jsonl::parse_jsonl));
            }
        }
        events
    }
}

/// Everything one wall-clock run measured.
#[derive(Debug, Default)]
pub struct WallOutcome {
    /// One entry per set-up that succeeded (start → probe round
    /// delivered), and how many did not and were started again.
    pub setup_s: Vec<f64>,
    pub setup_retries: u64,
    pub window_s: f64,
    pub publishes: u64,
    pub deliveries_total: u64,
    pub deliveries_in_window: u64,
    /// Overlap stamps carried by the delivered messages, summed.
    pub stamps: u64,
    /// The window cut into slices: deliveries, CPU and the latencies of
    /// measured messages, by arrival time.
    pub sliced: Sliced,
    /// Ascending latencies (µs) split by the destination group's path
    /// length: the shortest paths and the longest.
    pub latency_short_us: Vec<u32>,
    pub latency_long_us: Vec<u32>,
    /// Tick-accounted CPU of the measured deployment, start to shutdown.
    pub cpu: CpuTimes,
    pub tree: TreeSample,
    pub allocations: u64,
    /// Ascending generator lateness per open-loop publish (µs).
    pub gen_lag_us: Vec<u32>,
    pub publish_call_s: f64,
    /// The longest wait (ms) in each worst-wait window (see
    /// [`slices::worst_wait_windows`]).
    pub worst_wait_ms: Vec<f64>,
    pub faults_injected: u64,
    pub counters: DriverCounters,
    pub verdict: Verdict,
    pub trace: Vec<TraceEvent>,
}

/// How a run is laid out in time.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Length of the measure window.
    pub seconds: f64,
    /// Deployments started and probed in turn, all but the last shut down
    /// again at once: the set-up samples. Each gets its own configuration
    /// seed (`seed`, `seed + 1`, …), so that where the program draws on it
    /// — which wire writes `runtime-lossy` drops — they are independent.
    pub setups: usize,
    /// Record the program's own lifecycle trace.
    pub traced: bool,
    /// Close a deployment's window early once it has published this many
    /// messages (bounds the size of a trace).
    pub max_publishes: u64,
}

fn config(spec: &WallSpec, seed: u64, traced: bool) -> ClusterConfig {
    ClusterConfig {
        drop_probability: spec.drop_probability,
        coalesce: true,
        seed,
        trace: traced,
        ..ClusterConfig::default()
    }
}

pub fn run(spec: &WallSpec, membership: &Membership, plan: &Plan) -> WallOutcome {
    match spec.driver {
        Driver::Runtime => drive(spec, membership, plan, |seed| {
            Cluster::start(membership, config(spec, seed, plan.traced))
        }),
        Driver::Socket => drive(spec, membership, plan, |seed| {
            DeployCluster::start(membership, config(spec, seed, plan.traced))
                .expect("socket cluster starts")
        }),
    }
}

/// Harness-side record of what was published and what came back.
struct Ledger<'a> {
    groups: &'a Groups,
    base: Instant,
    seed: u64,
    payload_len: usize,
    /// Per publish index: destination group, reference time (µs after
    /// `base`; due time in open loop, publish call in closed loop),
    /// deliveries still owed, and the worst latency seen. The first
    /// `probes` indices are the set-up's probe round and count toward no
    /// latency metric.
    group_of: Vec<u16>,
    ref_us: Vec<u64>,
    probes: usize,
    owed: Vec<u8>,
    worst_us: Vec<u32>,
    per_host: Vec<Vec<u32>>,
    /// The measure window (µs after `base`) and its slices; `open` is the
    /// index of the slice still being filled.
    window: (u64, u64),
    sliced: Sliced,
    slice_us: u64,
    open: usize,
    meter: TreeMeter,
    cpu_at_open: u64,
    latency_short_us: Vec<u32>,
    latency_long_us: Vec<u32>,
    short_len: usize,
    long_len: usize,
    in_window: u64,
    stamps: u64,
    received: u64,
    expected: u64,
    corrupted: u64,
    refused: u64,
    in_flight: usize,
    publish_call: Duration,
}

impl<'a> Ledger<'a> {
    fn new(groups: &'a Groups, seed: u64, payload_len: usize) -> Self {
        let lens = || groups.path_len.iter().copied().filter(|&l| l > 0);
        Ledger {
            groups,
            base: Instant::now(),
            seed,
            payload_len,
            group_of: Vec::new(),
            ref_us: Vec::new(),
            probes: 0,
            owed: Vec::new(),
            worst_us: Vec::new(),
            per_host: vec![Vec::new(); groups.num_hosts],
            window: (u64::MAX, u64::MAX),
            sliced: Sliced::default(),
            slice_us: 0,
            open: 0,
            meter: TreeMeter::default(),
            cpu_at_open: 0,
            latency_short_us: Vec::new(),
            latency_long_us: Vec::new(),
            short_len: lens().min().unwrap_or(0),
            long_len: lens().max().unwrap_or(0),
            in_window: 0,
            stamps: 0,
            received: 0,
            expected: 0,
            corrupted: 0,
            refused: 0,
            in_flight: 0,
            publish_call: Duration::ZERO,
        }
    }

    fn micros(&self, at: Instant) -> u64 {
        at.duration_since(self.base).as_micros() as u64
    }

    /// Opens the measure window at `t0`, cut into slices of about
    /// `slice_s` seconds.
    fn open_window(&mut self, t0: Instant, seconds: f64, slice_s: f64) {
        let start = self.micros(t0);
        self.window = (start, start + (seconds * 1e6) as u64);
        let count = ((seconds / slice_s) as usize).max(1);
        self.slice_us = (self.window.1 - self.window.0) / count as u64;
        self.sliced.slices = (0..count).map(|_| Slice::default()).collect();
        self.open = 0;
        self.probes = self.group_of.len();
        self.meter.refresh();
        self.cpu_at_open = self.meter.cpu_ns();
    }

    /// End of slice `k`, µs after `base`.
    fn slice_end(&self, k: usize) -> u64 {
        self.window.0 + self.slice_us * (k as u64 + 1)
    }

    /// Closes every slice whose end has passed, reading the CPU meter at
    /// the boundary. Called on every turn of the generator loop.
    fn tick(&mut self, now: u64) {
        // A window cut short (publish cap) closes no slice past its end.
        while self.open < self.sliced.slices.len()
            && now >= self.slice_end(self.open)
            && self.slice_end(self.open) <= self.window.1
        {
            let cpu = self.meter.cpu_ns();
            let slice = &mut self.sliced.slices[self.open];
            slice.rss_mb = self.meter.rss_mb();
            slice.cpu_ns = cpu - self.cpu_at_open;
            slice.seconds = self.slice_us as f64 / 1e6;
            self.cpu_at_open = cpu;
            self.open += 1;
        }
    }

    /// Publishes the next message to `group`. `due` is its scheduled
    /// time in open loop; closed loop passes `None` and the call time is
    /// the reference.
    fn publish<T: Target>(&mut self, target: &mut T, group: u16, due: Option<Instant>) {
        let index = self.group_of.len() as u64;
        let members = &self.groups.members[group as usize];
        let pick = payload::splitmix(self.seed ^ index) as usize % members.len();
        let sender = NodeId(members[pick]);
        let bytes = payload::make(index, self.payload_len, self.seed);
        let called = Instant::now();
        let accepted = target.publish(sender, GroupId(u32::from(group)), bytes);
        self.publish_call += called.elapsed();
        if !accepted {
            self.refused += 1;
            return;
        }
        self.group_of.push(group);
        self.ref_us.push(self.micros(due.unwrap_or(called)));
        self.owed.push(members.len() as u8);
        self.worst_us.push(0);
        self.expected += members.len() as u64;
        self.in_flight += 1;
    }

    fn deliver(&mut self, host: NodeId, msg: &Message) {
        let now = self.micros(Instant::now());
        self.tick(now);
        self.received += 1;
        let Some(index) = payload::check(&msg.payload) else {
            self.corrupted += 1;
            return;
        };
        if let Some(seq) = self.per_host.get_mut(host.0 as usize) {
            seq.push(index as u32);
        }
        let i = index as usize;
        if i >= self.group_of.len() {
            return; // the checker reports it as unexpected
        }
        let latency = now.saturating_sub(self.ref_us[i]).min(u64::from(u32::MAX)) as u32;
        self.worst_us[i] = self.worst_us[i].max(latency);
        self.stamps += msg.stamps.len() as u64;
        let in_window = (self.window.0..self.window.1).contains(&now);
        self.in_window += u64::from(in_window);
        // Stragglers arriving after the window closes count toward the
        // last slice's latencies, never toward its rate.
        let last = self.sliced.slices.len().saturating_sub(1);
        if let Some(slice) = self.sliced.slices.get_mut(self.open.min(last)) {
            slice.deliveries += u64::from(in_window);
            if i >= self.probes {
                slice.latency_us.push(latency);
            }
        }
        if i >= self.probes {
            let len = self.groups.path_len[self.group_of[i] as usize];
            if len == self.short_len {
                self.latency_short_us.push(latency);
            } else if len == self.long_len {
                self.latency_long_us.push(latency);
            }
        }
        if self.owed[i] > 0 {
            self.owed[i] -= 1;
            if self.owed[i] == 0 {
                self.in_flight -= 1;
            }
        }
    }

    /// Receives until nothing is owed or `deadline` passes.
    fn drain<T: Target>(&mut self, target: &mut T, deadline: Instant) {
        while self.received < self.expected && Instant::now() < deadline {
            if let Some((host, msg)) = target.next_delivery(Duration::from_millis(20)) {
                self.deliver(host, &msg);
            }
        }
        let now = self.micros(Instant::now());
        self.tick(now);
    }
}

/// Slices hold at least twelve hundred latency samples, so each supports
/// a p99 with ten samples beyond it; never shorter than half a second.
fn slice_seconds(spec: &WallSpec, fanout: f64) -> f64 {
    match spec.schedule {
        Schedule::Open { rate_hz } => (1200.0 / (rate_hz * fanout)).max(0.5),
        Schedule::Closed { .. } => 0.5,
    }
}

/// A set-up that has not delivered its probe round after this long has
/// failed. (A healthy one takes tens of milliseconds.) The socket
/// deployment reserves its node ports by binding and releasing them; once
/// in a few hundred starts another connection's source port lands on one
/// before the node process binds it, the node gives up after five
/// seconds, and the deployment never carries a message. The benchmark
/// starts again and counts the retry (`deploy.coord.start_retries`).
const SETUP_LIMIT: Duration = Duration::from_secs(3);
const SETUP_ATTEMPTS: usize = 4;

fn drive<T: Target>(
    spec: &WallSpec,
    membership: &Membership,
    plan: &Plan,
    start: impl Fn(u64) -> T,
) -> WallOutcome {
    let groups = Groups::of(membership);
    let live = groups.live();
    let seconds = plan.seconds;
    let mut out = WallOutcome::default();

    // Set-up, `plan.setups` times; the last deployment stays up. CPU and
    // allocation baselines are taken just before it starts, when every
    // earlier deployment has been shut down and reaped.
    let mut cpu_before = CpuTimes::default();
    let mut tree_before = TreeSample::default();
    let mut allocs_before = 0;
    let mut kept = None;
    for round in 0..plan.setups.max(1) {
        let last = round + 1 == plan.setups.max(1);
        for attempt in 1..=SETUP_ATTEMPTS {
            if last {
                cpu_before = procfs::cpu_times_with_reaped_children();
                tree_before = procfs::sample_tree();
                allocs_before = alloc::allocations();
            }
            let began = Instant::now();
            let mut target = start(plan.seed.wrapping_add(round as u64));
            let mut ledger = Ledger::new(&groups, plan.seed, spec.payload_len);
            for &g in &live {
                ledger.publish(&mut target, g, None);
            }
            ledger.drain(&mut target, Instant::now() + SETUP_LIMIT);
            let ready = ledger.received == ledger.expected;
            if ready {
                out.setup_s.push(began.elapsed().as_secs_f64());
            } else if attempt < SETUP_ATTEMPTS {
                eprintln!(
                    "benchmark: set-up {round} did not come up in {SETUP_LIMIT:?}; starting again"
                );
                out.setup_retries += 1;
                target.finish();
                continue;
            }
            if last {
                kept = Some((target, ledger));
            } else {
                target.finish();
            }
            break;
        }
    }
    let (mut target, mut ledger) = kept.expect("the last set-up is kept");

    let t0 = Instant::now();
    let mut end = t0 + Duration::from_secs_f64(seconds);
    let fanout = ledger.expected as f64 / ledger.group_of.len().max(1) as f64;
    ledger.open_window(t0, seconds, slice_seconds(spec, fanout));
    // Kills go where the worst-wait windows open, node after node.
    let faults: Vec<f64> = if spec.crash_nodes {
        slices::worst_wait_windows(seconds)
            .into_iter()
            .map(|(open, _)| open)
            .collect()
    } else {
        Vec::new()
    };
    let first_index = ledger.group_of.len() as u64;
    let mut next_group = 0usize;
    let mut round_robin = || {
        let g = live[next_group % live.len()];
        next_group += 1;
        g
    };

    match spec.schedule {
        Schedule::Open { rate_hz } => {
            let period = Duration::from_secs_f64(1.0 / rate_hz);
            // A seed-drawn phase, so runs do not all align with the
            // program's own timers the same way.
            let phase = period.mul_f64((plan.seed % 1000) as f64 / 1000.0);
            let total = ((seconds * rate_hz) as u64).min(plan.max_publishes);
            let mut next = 0u64;
            while next < total {
                let due = t0 + phase + period.mul_f64(next as f64);
                let now = Instant::now();
                ledger.tick(ledger.micros(now));
                if let Some(&at) = faults.get(out.faults_injected as usize) {
                    if now >= t0 + Duration::from_secs_f64(at) {
                        let node = (out.faults_injected as usize) % target.num_nodes().max(1);
                        out.faults_injected += 1;
                        target.crash(node);
                        ledger.meter.refresh();
                        continue;
                    }
                }
                if now >= due {
                    let lag = now.duration_since(due).as_micros();
                    out.gen_lag_us.push(lag.min(u128::from(u32::MAX)) as u32);
                    let g = round_robin();
                    ledger.publish(&mut target, g, Some(due));
                    next += 1;
                    continue;
                }
                if let Some((host, msg)) = target.next_delivery(due - now) {
                    ledger.deliver(host, &msg);
                }
            }
            if total == plan.max_publishes {
                end = Instant::now();
            }
        }
        Schedule::Closed { in_flight } => loop {
            let now = Instant::now();
            let published = ledger.group_of.len() as u64 - first_index;
            if now >= end || published >= plan.max_publishes {
                end = now.min(end);
                break;
            }
            ledger.tick(ledger.micros(now));
            while ledger.in_flight < in_flight {
                let g = round_robin();
                ledger.publish(&mut target, g, None);
            }
            if let Some((host, msg)) = target.next_delivery(Duration::from_millis(1)) {
                ledger.deliver(host, &msg);
            }
        },
    }
    // A window cut short by the publish cap ends where it was cut.
    let start_us = ledger.window.0;
    ledger.window.1 = ledger.window.1.min(ledger.micros(end));
    out.window_s = (ledger.window.1 - start_us) as f64 / 1e6;
    ledger.drain(&mut target, end + DRAIN_LIMIT);

    out.tree = procfs::sample_tree();
    out.tree.ctx_switches = out
        .tree
        .ctx_switches
        .saturating_sub(tree_before.ctx_switches);
    out.tree.io_syscalls = out.tree.io_syscalls.saturating_sub(tree_before.io_syscalls);
    out.counters = target.finish();
    let cpu_after = procfs::cpu_times_with_reaped_children();
    out.cpu = CpuTimes {
        user_s: cpu_after.user_s - cpu_before.user_s,
        sys_s: cpu_after.sys_s - cpu_before.sys_s,
    };
    out.allocations = alloc::allocations() - allocs_before;
    out.trace = target.trace_events();
    drop(target);

    // From here on nothing is timed.
    out.publishes = ledger.group_of.len() as u64;
    out.deliveries_total = ledger.received;
    out.deliveries_in_window = ledger.in_window;
    out.stamps = ledger.stamps;
    out.publish_call_s = ledger.publish_call.as_secs_f64();
    let waits = (ledger.probes..ledger.ref_us.len())
        .filter(|&i| ledger.ref_us[i] >= start_us)
        .map(|i| {
            // Never fully delivered: an outage without end.
            let wait = if ledger.owed[i] > 0 {
                u32::MAX
            } else {
                ledger.worst_us[i]
            };
            ((ledger.ref_us[i] - start_us) as f64 / 1e6, wait)
        });
    out.worst_wait_ms = slices::worst_waits_ms(seconds, waits);
    out.verdict = verify::check(
        &verify::Published {
            group_of: &ledger.group_of,
            members: &groups.members,
            num_hosts: groups.num_hosts,
        },
        &verify::Observed {
            per_host: &ledger.per_host,
            corrupted: ledger.corrupted,
            refused_publishes: ledger.refused,
        },
    );
    // Slices the window never reached (publish cap) hold nothing.
    ledger.sliced.slices.retain(|s| s.seconds > 0.0);
    ledger.sliced.seal();
    ledger.latency_short_us.sort_unstable();
    ledger.latency_long_us.sort_unstable();
    out.gen_lag_us.sort_unstable();
    out.sliced = ledger.sliced;
    out.latency_short_us = ledger.latency_short_us;
    out.latency_long_us = ledger.latency_long_us;
    out
}
