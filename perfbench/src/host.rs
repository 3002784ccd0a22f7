//! Process and host accounting: CPU time, peak RSS, and the host context
//! (CPU quota, steal and idle ticks) that makes noisy-neighbour runs
//! visible.

use std::time::Instant;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time of the calling thread, ms. For single-threaded work this is its
/// latency with host preemption (hypervisor steal) taken out.
pub fn thread_cpu_ms() -> f64 {
    let mut ts = Timespec::default();
    // SAFETY: `Timespec` matches the 64-bit Linux `struct timespec`;
    // CLOCK_THREAD_CPUTIME_ID = 3.
    let rc = unsafe { clock_gettime(3, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    ts.sec as f64 * 1e3 + ts.nsec as f64 * 1e-6
}

/// User + system CPU seconds of this process (all threads, live and
/// joined).
pub fn cpu_seconds() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `Rusage` matches the 64-bit Linux `struct rusage` layout
    // (two timevals then fourteen longs); RUSAGE_SELF = 0.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&ru.utime) + secs(&ru.stime)
}

/// Reset the process's peak-RSS mark to its current RSS, so the next
/// [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size since start or the last [`reset_peak_rss`], MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Wall and CPU time of one closure.
pub struct Timed<T> {
    pub out: T,
    pub wall_s: f64,
    pub cpu_s: f64,
}

pub fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let c0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    Timed { out, wall_s: t0.elapsed().as_secs_f64(), cpu_s: cpu_seconds() - c0 }
}

/// Aggregate `/proc/stat` CPU ticks at one instant.
pub struct HostSample {
    idle: u64,
    steal: u64,
    total: u64,
}

impl HostSample {
    pub fn take() -> HostSample {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|t| t.parse().ok())
            .collect();
        let at = |i: usize| ticks.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal ...
        HostSample { idle: at(3) + at(4), steal: at(7), total: ticks.iter().take(8).sum() }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The cgroup CPU quota: v2 `cpu.max`, else v1 `cfs_quota_us cfs_period_us`.
fn cgroup_cpu_max() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    read("/sys/fs/cgroup/cpu.max")
        .or_else(|| {
            let quota = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")?;
            let period = read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")?;
            Some(format!("{quota} {period}"))
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

/// One line describing the host over the run: nproc, the cgroup CPU quota,
/// and the steal and idle ticks between `before` and `after`.
pub fn context_line(before: &HostSample, after: &HostSample) -> String {
    let cpu_max = cgroup_cpu_max();
    let total = after.total.saturating_sub(before.total).max(1);
    let steal = after.steal.saturating_sub(before.steal);
    let idle = after.idle.saturating_sub(before.idle);
    format!(
        "{{\"nproc\": {}, \"cgroup_cpu_max\": \"{cpu_max}\", \"steal_ticks\": {steal}, \
         \"idle_ticks\": {idle}, \"total_ticks\": {total}, \"steal_frac\": {:.4}, \
         \"idle_frac\": {:.4}}}",
        nproc(),
        steal as f64 / total as f64,
        idle as f64 / total as f64
    )
}
