//! Process-tree accounting from `/proc`: CPU time, peak resident memory,
//! context switches and read/write system calls of this process and the
//! node processes it spawned.

use std::fs;

use crate::sys;

/// CPU seconds of one process: (user, system) of the process itself and
/// of the children it has reaped.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

fn stat_fields(pid: u32) -> Option<Vec<String>> {
    let text = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may itself contain spaces and parentheses; the
    // fields proper start after the last ')'.
    let rest = &text[text.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(str::to_owned).collect())
}

/// utime+cutime and stime+cstime of this process: its own threads plus
/// every child already waited for.
pub fn cpu_times_with_reaped_children() -> CpuTimes {
    let Some(f) = stat_fields(std::process::id()) else {
        return CpuTimes::default();
    };
    // After the ')' the fields are: state ppid ... with utime, stime,
    // cutime, cstime at 0-based offsets 11..=14.
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    let hz = sys::clock_ticks_per_second() as f64;
    CpuTimes {
        user_s: (tick(11) + tick(13)) as f64 / hz,
        sys_s: (tick(12) + tick(14)) as f64 / hz,
    }
}

/// On-CPU nanoseconds of every live thread of `pid`, from the scheduler's
/// own clock (`schedstat`) rather than the 10 ms ticks of `stat`. Threads
/// that have exited no longer count, so differences are meaningful only
/// while the thread set is stable.
pub fn run_ns(pid: u32) -> u64 {
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Resident set of `pid` right now (`VmRSS`), MiB; 0 once it is gone.
pub fn rss_mb(pid: u32) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .map(|status| status_value(&status, "VmRSS") as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// Live direct children of this process.
pub fn children() -> Vec<u32> {
    let me = std::process::id().to_string();
    let mut out = Vec::new();
    let Ok(dir) = fs::read_dir("/proc") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        // Offset 1 after the ')' is the parent pid.
        if stat_fields(pid).is_some_and(|f| f.get(1) == Some(&me)) {
            out.push(pid);
        }
    }
    out
}

fn status_value(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Resource counters summed over this process and its live children.
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeSample {
    /// Sum of `VmHWM` (peak resident set), MiB.
    pub peak_rss_mb: f64,
    /// Voluntary + involuntary context switches over every thread.
    pub ctx_switches: u64,
    /// `syscr + syscw`: `read`/`write`-family system calls — files and
    /// pipes, that is; sockets go through `recv`/`send`, which the kernel
    /// does not count here. In this program: snapshots and trace logs.
    pub io_syscalls: u64,
}

/// Samples the tree. Call just before shutting the deployment down:
/// counters of exited threads and of processes already reaped are gone.
pub fn sample_tree() -> TreeSample {
    let mut sample = TreeSample::default();
    let mut pids = vec![std::process::id()];
    pids.extend(children());
    for pid in pids {
        if let Ok(status) = fs::read_to_string(format!("/proc/{pid}/status")) {
            sample.peak_rss_mb += status_value(&status, "VmHWM") as f64 / 1024.0;
        }
        if let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) {
            for task in tasks.flatten() {
                if let Ok(status) = fs::read_to_string(task.path().join("status")) {
                    sample.ctx_switches += status_value(&status, "voluntary_ctxt_switches")
                        + status_value(&status, "nonvoluntary_ctxt_switches");
                }
            }
        }
        if let Ok(io) = fs::read_to_string(format!("/proc/{pid}/io")) {
            sample.io_syscalls += status_value(&io, "syscr") + status_value(&io, "syscw");
        }
    }
    sample
}

/// SIGKILLs every live child; the deadline watchdog's last act.
pub fn kill_children() {
    for pid in children() {
        sys::kill_process(pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_counters() {
        let total = |c: CpuTimes| c.user_s + c.sys_s;
        let before = total(cpu_times_with_reaped_children());
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = total(cpu_times_with_reaped_children());
        assert!(after >= before);
        let sample = sample_tree();
        assert!(sample.peak_rss_mb > 0.5, "{sample:?}");
        assert_eq!(status_value("VmHWM:\t  1234 kB\n", "VmHWM"), 1234);
    }

    #[test]
    fn sees_a_child() {
        let mut child = std::process::Command::new("sleep")
            .arg("5")
            .spawn()
            .unwrap();
        assert!(children().contains(&child.id()));
        sys::kill_process(child.id());
        child.wait().unwrap();
        assert!(!children().contains(&child.id()));
    }
}
