//! The two libc calls the benchmark needs and `std` does not offer:
//! the clock-tick unit of `/proc/*/stat` CPU times, and SIGKILL for the
//! deadline watchdog.

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SC_CLK_TCK: i32 = 2;
const SIGKILL: i32 = 9;

/// Clock ticks per second (`_SC_CLK_TCK`), the unit of utime/stime.
pub fn clock_ticks_per_second() -> u64 {
    // SAFETY: sysconf takes an integer selector and returns an integer;
    // it reads no memory of ours.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as u64
    } else {
        100
    }
}

/// Sends SIGKILL to `pid`. Errors (the process already exited) are
/// ignored: the caller only wants it gone.
pub fn kill_process(pid: u32) {
    let Ok(pid) = i32::try_from(pid) else { return };
    if pid <= 1 {
        return;
    }
    // SAFETY: kill takes two integers; a positive pid addresses exactly
    // that process, and pids 0, 1 and negatives are excluded above.
    unsafe {
        kill(pid, SIGKILL);
    }
}
