//! `sim-scale`: the paper's own vehicle at the paper's scale — the
//! discrete-event simulator (`seqnet::core::OrderedPubSub`) on
//! `zipf-128x64` over a 10 000-router transit–stub network. The only
//! workload that exercises `topology`, `membership`, `overlap`, `sim` and
//! `core::engine`, and that bypasses `runtime` and `deploy` entirely.
//!
//! Traffic comes in rounds: every host publishes once to each of its
//! groups at seed-jittered virtual times, then the simulator runs to
//! quiescence. Rounds repeat until the wall-clock window is used up.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqnet::core::proto::trace::TraceEvent;
use seqnet::core::OrderedPubSub;
use seqnet::membership::{GroupId, Membership, NodeId};
use seqnet::obs::Recorder;

use crate::alloc;
use crate::payload;
use crate::procfs::{self, CpuTimes};
use crate::slices::{self, Slice, Sliced, TreeMeter};
use crate::topo::{self, Groups};
use crate::verify::{self, Verdict};

const PAYLOAD_LEN: usize = 16;
/// Publish times are jittered within this many virtual µs of the round
/// start, so rounds are bursts with seed-dependent internal order.
const JITTER_US: u64 = 1000;
/// Rounds re-run on a second simulator to check determinism.
const REPLAY_ROUNDS: usize = 100;
/// A slice closes at the first round boundary this long after it opened.
const SLICE_S: f64 = 0.5;

#[derive(Debug, Default)]
pub struct SimOutcome {
    /// One entry per simulator built.
    pub setup_s: Vec<f64>,
    pub window_s: f64,
    pub rounds: u64,
    pub publishes: u64,
    pub deliveries: u64,
    pub events: u64,
    /// Every simulator's window in slices of whole rounds. A delivery's
    /// latency is the wall µs from its message's publish call to the
    /// return of the `run_to_quiescence` that delivered it.
    pub sliced: Sliced,
    /// The longest such wait (ms) in each worst-wait window.
    pub worst_wait_ms: Vec<f64>,
    /// Ascending virtual µs from publish to delivery; repeats exactly for
    /// a given seed.
    pub virtual_us: Vec<u32>,
    pub stamps: u64,
    pub cpu: CpuTimes,
    pub peak_rss_mb: f64,
    pub allocations: u64,
    pub stuck: usize,
    pub max_buffered: usize,
    /// A second simulator fed the first rounds again delivered exactly
    /// the same messages at exactly the same virtual times.
    pub deterministic: bool,
    pub verdict: Verdict,
    pub trace: Vec<TraceEvent>,
}

/// How a `sim-scale` run is laid out; mirrors [`crate::wall::Plan`].
#[derive(Debug, Clone, Copy)]
pub struct SimPlan {
    pub seed: u64,
    pub seconds: f64,
    /// Simulators built one after another, each run for an equal share of
    /// `seconds` on identical traffic.
    pub simulators: usize,
    pub traced: bool,
    /// Stop a simulator after this many rounds (bounds a trace).
    pub max_rounds: u64,
}

/// One simulator plus the ledger of what was published into it.
struct Bus {
    bus: OrderedPubSub,
    /// (host, group) pairs in publish order within a round.
    pairs: Vec<(u32, u16)>,
    group_of: Vec<u16>,
    round_of: Vec<u32>,
    call_us: Vec<u64>,
    began: Instant,
    refused: u64,
}

impl Bus {
    /// Everything a user pays before the first publish: membership,
    /// router topology, sequencing graph, co-location, placement — and
    /// one probe publish per group delivered to every member.
    fn build(seed: u64) -> (Self, f64) {
        let began = Instant::now();
        let membership: Membership = topo::zipf_128x64();
        let network = topo::paper_network();
        let mut rng = StdRng::seed_from_u64(topo::STRUCTURE_SEED ^ 2);
        let bus = OrderedPubSub::with_network(&membership, &network, &mut rng);
        let mut pairs = Vec::new();
        for h in membership.nodes() {
            for g in membership.groups_of(h) {
                pairs.push((h.0, g.0 as u16));
            }
        }
        let mut this = Bus {
            bus,
            pairs,
            group_of: Vec::new(),
            round_of: Vec::new(),
            call_us: Vec::new(),
            began,
            refused: 0,
        };
        // Probe: one publish per group, from its first member.
        let mut probed = [false; topo::ZIPF_GROUPS];
        for i in 0..this.pairs.len() {
            let (h, g) = this.pairs[i];
            if !std::mem::replace(&mut probed[g as usize], true) {
                this.publish(seed, u32::MAX, h, g, 0);
            }
        }
        this.bus.run_to_quiescence();
        (this, began.elapsed().as_secs_f64())
    }

    fn publish(&mut self, seed: u64, round: u32, host: u32, group: u16, jitter_us: u64) {
        let index = self.group_of.len() as u64;
        let bytes = payload::make(index, PAYLOAD_LEN, seed);
        let at = self.bus.now() + seqnet::sim::SimTime::from_micros(jitter_us);
        self.call_us.push(self.began.elapsed().as_micros() as u64);
        match self
            .bus
            .publish_at(at, NodeId(host), GroupId(u32::from(group)), bytes)
        {
            Ok(_) => {
                self.group_of.push(group);
                self.round_of.push(round);
            }
            Err(_) => {
                self.call_us.pop();
                self.refused += 1;
            }
        }
    }

    /// Publishes one round and runs it to quiescence; returns the events
    /// processed.
    fn round(&mut self, seed: u64, round: u32) -> u64 {
        for i in 0..self.pairs.len() {
            let (h, g) = self.pairs[i];
            let jitter = payload::splitmix(seed ^ (u64::from(round) << 20) ^ i as u64) % JITTER_US;
            self.publish(seed, round, h, g, jitter);
        }
        self.bus.run_to_quiescence()
    }

    /// Folds every delivery of messages published before `limit` (host,
    /// publish index, virtual publish and delivery time) into one number.
    fn digest(&self, limit: usize) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(17);
        for host in 0..topo::ZIPF_HOSTS as u32 {
            for d in self.bus.delivered(NodeId(host)) {
                let Some(index) = payload::check(&d.payload) else {
                    continue;
                };
                if (index as usize) < limit {
                    mix(u64::from(host));
                    mix(index);
                    mix(d.published.as_micros());
                    mix(d.delivered.as_micros());
                }
            }
        }
        h
    }
}

pub fn run(plan: &SimPlan) -> SimOutcome {
    let mut out = SimOutcome::default();
    let simulators = plan.simulators.max(1);
    let seconds = plan.seconds / simulators as f64;
    let seed = plan.seed;
    let cpu_before = procfs::cpu_times_with_reaped_children();
    let allocs_before = alloc::allocations();
    let mut replayed = false;

    for _ in 0..simulators {
        let (mut main, setup) = Bus::build(seed);
        out.setup_s.push(setup);
        let recorder = plan.traced.then(|| {
            let recorder = Arc::new(Mutex::new(Recorder::new()));
            main.bus.set_trace_sink(recorder.clone());
            recorder
        });

        let mut meter = TreeMeter::default();
        meter.refresh();
        let mut cpu_at_open = meter.cpu_ns();
        let t0 = Instant::now();
        let start_us = main.began.elapsed().as_micros() as u64;
        let mut slice_opened = t0;
        let first_slice = out.sliced.slices.len();
        // Per round: when it reached quiescence, and the slice it fell in.
        let mut quiesced_us: Vec<u64> = Vec::new();
        let mut slice_of: Vec<usize> = Vec::new();
        let mut replay_limit = usize::MAX;
        let mut close_slice = |out: &mut SimOutcome, opened: Instant| {
            let cpu = meter.cpu_ns();
            out.sliced.slices.push(Slice {
                seconds: opened.elapsed().as_secs_f64(),
                cpu_ns: cpu - cpu_at_open,
                rss_mb: meter.rss_mb(),
                ..Slice::default()
            });
            cpu_at_open = cpu;
        };
        while t0.elapsed().as_secs_f64() < seconds && (quiesced_us.len() as u64) < plan.max_rounds {
            let round = quiesced_us.len() as u32;
            out.events += main.round(seed, round);
            quiesced_us.push(main.began.elapsed().as_micros() as u64);
            slice_of.push(out.sliced.slices.len());
            if quiesced_us.len() == REPLAY_ROUNDS {
                replay_limit = main.group_of.len();
            }
            if slice_opened.elapsed().as_secs_f64() >= SLICE_S {
                close_slice(&mut out, slice_opened);
                slice_opened = Instant::now();
            }
        }
        // A trailing part-slice counts if it is at least half a slice;
        // shorter, its rounds belong to no slice.
        if slice_opened.elapsed().as_secs_f64() >= SLICE_S / 2.0
            || out.sliced.slices.len() == first_slice
        {
            close_slice(&mut out, slice_opened);
        }
        out.window_s += t0.elapsed().as_secs_f64();
        out.rounds += quiesced_us.len() as u64;
        // Memory is sampled while this simulator — the thing a user would
        // be holding — is alive and at its largest.
        out.peak_rss_mb = out.peak_rss_mb.max(procfs::sample_tree().peak_rss_mb);

        // Outside the timed window: read the deliveries back, check them.
        let groups = Groups::of(main.bus.membership());
        let mut per_host = vec![Vec::new(); groups.num_hosts];
        let mut corrupted = 0u64;
        let mut worst_us = vec![0u32; main.group_of.len()];
        for host in 0..groups.num_hosts as u32 {
            for d in main.bus.delivered(NodeId(host)) {
                let Some(index) = payload::check(&d.payload) else {
                    corrupted += 1;
                    continue;
                };
                per_host[host as usize].push(index as u32);
                out.stamps += d.stamps as u64;
                let i = index as usize;
                let Some(&round) = main.round_of.get(i) else {
                    continue;
                };
                if round == u32::MAX {
                    continue; // probe
                }
                let wall = quiesced_us[round as usize].saturating_sub(main.call_us[i]);
                let wall = wall.min(u64::from(u32::MAX)) as u32;
                worst_us[i] = worst_us[i].max(wall);
                out.deliveries += 1;
                if let Some(slice) = out.sliced.slices.get_mut(slice_of[round as usize]) {
                    slice.deliveries += 1;
                    slice.latency_us.push(wall);
                }
                let virt = (d.delivered - d.published).as_micros();
                out.virtual_us.push(virt.min(u64::from(u32::MAX)) as u32);
            }
        }
        let waits = (0..main.group_of.len())
            .filter(|&i| main.round_of[i] != u32::MAX)
            .map(|i| {
                (
                    main.call_us[i].saturating_sub(start_us) as f64 / 1e6,
                    worst_us[i],
                )
            });
        out.worst_wait_ms
            .extend(slices::worst_waits_ms(seconds, waits));
        out.publishes += main.round_of.iter().filter(|&&r| r != u32::MAX).count() as u64;
        out.stuck += main.bus.stuck_messages();
        out.max_buffered = out.max_buffered.max(
            main.bus
                .receiver_buffer_highwater()
                .values()
                .copied()
                .max()
                .unwrap_or(0),
        );
        out.verdict.merge(&verify::check(
            &verify::Published {
                group_of: &main.group_of,
                members: &groups.members,
                num_hosts: groups.num_hosts,
            },
            &verify::Observed {
                per_host: &per_host,
                corrupted,
                refused_publishes: main.refused,
            },
        ));
        if let Some(recorder) = recorder {
            let recorder = recorder.lock().expect("trace sink poisoned");
            out.trace.extend_from_slice(recorder.events());
        }
        // Same seed, the first rounds again on a fresh simulator: the
        // deliveries must match to the bit. Once per run is enough.
        let replay_limit = replay_limit.min(main.group_of.len());
        let expected = (!replayed).then(|| main.digest(replay_limit));
        drop(per_host);
        drop(main);
        if let Some(expected) = expected {
            replayed = true;
            let (mut again, setup) = Bus::build(seed);
            out.setup_s.push(setup);
            for round in 0..quiesced_us.len().min(REPLAY_ROUNDS) as u32 {
                again.round(seed, round);
            }
            out.deterministic = again.digest(replay_limit) == expected;
        }
    }
    let cpu_after = procfs::cpu_times_with_reaped_children();
    out.allocations = alloc::allocations() - allocs_before;
    out.cpu = CpuTimes {
        user_s: cpu_after.user_s - cpu_before.user_s,
        sys_s: cpu_after.sys_s - cpu_before.sys_s,
    };
    out.sliced.seal();
    out.virtual_us.sort_unstable();
    out
}
