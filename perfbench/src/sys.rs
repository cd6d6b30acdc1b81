//! What the benchmark reads from `/proc`: CPU time per thread of its own
//! process (`schedstat`, nanoseconds), its peak resident memory, and the
//! host's stolen CPU time.

use std::fs;

/// The first field of a `schedstat` file: nanoseconds spent on a CPU.
fn schedstat_ns(path: &str) -> Option<u64> {
    fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Summed CPU time of this process's threads whose name passes `keep`.
fn task_cpu_ns(keep: impl Fn(&str) -> bool) -> u64 {
    let tasks = fs::read_dir("/proc/self/task").expect("/proc/self/task is readable on Linux");
    tasks
        .filter_map(Result::ok)
        .filter_map(|task| {
            let dir = task.path();
            let comm = fs::read_to_string(dir.join("comm")).ok()?;
            if !keep(comm.trim_end()) {
                return None;
            }
            schedstat_ns(dir.join("schedstat").to_str()?)
        })
        .sum()
}

/// CPU time of the runtime's own threads (workers, acceptor): every
/// thread the runtime names `sdrad-*`.
#[must_use]
pub fn runtime_cpu_ns() -> u64 {
    task_cpu_ns(|name| name.starts_with("sdrad-"))
}

/// CPU time of every thread of this process.
#[must_use]
pub fn process_cpu_ns() -> u64 {
    task_cpu_ns(|_| true)
}

/// Peak resident set size (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported on Linux");
    kib / 1024.0
}

/// The host's (steal, total) CPU ticks so far, from `/proc/stat`: time a
/// virtual machine's CPUs were ready to run but the hypervisor ran
/// something else. Only printed, so a noisy run can be told apart.
#[must_use]
pub fn host_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|field| field.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}
