//! Sub-window statistics. A run is cut into equal slices and every
//! end-to-end rate or percentile is the *interquartile mean over slices*
//! of the per-slice value (the highest and lowest quarter of the slices
//! set aside, the middle half averaged).
//!
//! Two things measured on a small shared box force this. Throughput and
//! tail latency wander from second to second, and now and then the whole
//! box stalls for a second or two (other tenants): a few bad slices must
//! not move the result, hence the trimming — and a maximum over the run,
//! such as peak memory, is at the mercy of the one stall that queued a
//! backlog. And latency sits in one of a few discrete modes for a second
//! or two at a time (a node's group-commit tick locks just after, or just
//! before, its upstream's flush, and the lock drifts), so a *median* over
//! slices flips between modes from run to run where a mean reports the
//! mixture: hence the mean.

use std::collections::HashMap;

use crate::procfs;
use crate::stats;

#[derive(Debug, Default)]
pub struct Slice {
    pub seconds: f64,
    /// Deliveries that arrived inside the slice.
    pub deliveries: u64,
    /// On-CPU time of the process tree during the slice.
    pub cpu_ns: u64,
    /// Resident memory of the process tree when the slice closed, MiB.
    pub rss_mb: f64,
    /// Latencies (µs) of measured deliveries that arrived in the slice;
    /// sorted by [`Sliced::seal`].
    pub latency_us: Vec<u32>,
}

#[derive(Debug, Default)]
pub struct Sliced {
    pub slices: Vec<Slice>,
}

impl Sliced {
    pub fn seal(&mut self) {
        for s in &mut self.slices {
            s.latency_us.sort_unstable();
        }
    }

    fn typical(&self, f: impl Fn(&Slice) -> Option<f64>) -> Option<f64> {
        let per_slice: Vec<f64> = self.slices.iter().filter_map(f).collect();
        // A value most slices cannot supply is not a property of the run.
        (per_slice.len() * 2 > self.slices.len())
            .then(|| stats::midmean(&per_slice))
            .flatten()
    }

    pub fn deliveries_per_s(&self) -> f64 {
        self.typical(|s| (s.seconds > 0.0).then(|| s.deliveries as f64 / s.seconds))
            .unwrap_or(0.0)
    }

    pub fn cpu_us_per_delivery(&self) -> f64 {
        self.typical(|s| (s.deliveries > 0).then(|| s.cpu_ns as f64 / 1e3 / s.deliveries as f64))
            .unwrap_or(0.0)
    }

    pub fn rss_mb(&self) -> f64 {
        self.typical(|s| Some(s.rss_mb)).unwrap_or(0.0)
    }

    /// Interquartile mean over slices of the slice's `q`-quantile; `None`
    /// when most slices hold too few samples for it.
    pub fn latency_us(&self, q: f64) -> Option<f64> {
        self.typical(|s| stats::percentile(&s.latency_us, q).map(f64::from))
    }

    pub fn samples(&self) -> usize {
        self.slices.iter().map(|s| s.latency_us.len()).sum()
    }

    /// All latencies of the run, ascending.
    pub fn all_latencies(&self) -> Vec<u32> {
        let mut all: Vec<u32> = self
            .slices
            .iter()
            .flat_map(|s| s.latency_us.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }
}

/// Precise CPU, and resident memory, of this process and its node
/// processes. A process that has died keeps its last CPU reading, so a
/// kill does not make time run backwards.
#[derive(Debug, Default)]
pub struct TreeMeter {
    pids: Vec<u32>,
    last: HashMap<u32, u64>,
}

impl TreeMeter {
    /// Re-reads the list of child processes; call after spawning any.
    pub fn refresh(&mut self) {
        self.pids = vec![std::process::id()];
        self.pids.extend(procfs::children());
    }

    /// Total on-CPU nanoseconds seen so far.
    pub fn cpu_ns(&mut self) -> u64 {
        for &pid in &self.pids {
            let ns = procfs::run_ns(pid);
            let slot = self.last.entry(pid).or_insert(0);
            *slot = (*slot).max(ns);
        }
        self.last.values().sum()
    }

    /// Resident memory of the live processes right now, MiB.
    pub fn rss_mb(&self) -> f64 {
        self.pids.iter().map(|&pid| procfs::rss_mb(pid)).sum()
    }
}

/// Where the worst wait is read from: six windows, opening at 10 %,
/// 25 %, … 85 % of the measure window and lasting 15 % of it (at most
/// 2.5 s). `socket-crash` kills a node at each opening; every other
/// workload reads the same places undisturbed.
pub fn worst_wait_windows(seconds: f64) -> Vec<(f64, f64)> {
    let len = (0.15 * seconds).min(2.5);
    (0..6)
        .map(|k| {
            let open = (0.10 + 0.15 * k as f64) * seconds;
            (open, open + len)
        })
        .collect()
}

/// Per window, the longest wait (ms) among messages whose reference time
/// falls in it. `waits` yields, per message, its reference time (s after
/// the window opened) and its longest wait (µs; `u32::MAX` if it never
/// fully arrived).
pub fn worst_waits_ms(seconds: f64, waits: impl Iterator<Item = (f64, u32)> + Clone) -> Vec<f64> {
    worst_wait_windows(seconds)
        .into_iter()
        .filter_map(|(open, close)| {
            waits
                .clone()
                .filter(|&(at, _)| at >= open && at < close)
                .map(|(_, w)| w)
                .max()
        })
        .map(|w| f64::from(w) / 1000.0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_bad_slice_is_set_aside() {
        let mut s = Sliced::default();
        for i in 0..10u64 {
            s.slices.push(Slice {
                seconds: 1.0,
                deliveries: if i == 2 { 10 } else { 1000 },
                cpu_ns: 5_000_000,
                rss_mb: if i == 7 { 900.0 } else { 30.0 },
                latency_us: (1..=2000).collect(),
            });
        }
        s.seal();
        assert_eq!(s.deliveries_per_s(), 1000.0);
        assert_eq!(s.latency_us(0.5), Some(1000.0));
        assert_eq!(s.latency_us(0.99), Some(1980.0));
        assert!((s.cpu_us_per_delivery() - 5.0).abs() < 1e-9);
        assert_eq!(s.rss_mb(), 30.0);
    }

    #[test]
    fn unsupported_percentile_is_none() {
        let mut s = Sliced::default();
        s.slices.push(Slice {
            seconds: 1.0,
            deliveries: 5,
            latency_us: vec![1, 2, 3],
            ..Slice::default()
        });
        s.seal();
        assert_eq!(s.latency_us(0.99), None);
    }

    #[test]
    fn worst_wait_is_read_per_window() {
        // One message per 10 ms over 10 s, wait 5 ms; a 400 ms outlier at
        // t = 1.2 s lands in the first window only.
        let waits: Vec<(f64, u32)> = (0..1000)
            .map(|i| (i as f64 * 0.01, if i == 120 { 400_000 } else { 5_000 }))
            .collect();
        assert_eq!(
            worst_waits_ms(10.0, waits.iter().copied()),
            vec![400.0, 5.0, 5.0, 5.0, 5.0, 5.0]
        );
    }
}
