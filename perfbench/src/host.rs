//! What the benchmark reads about the host: process CPU time, peak resident
//! memory, and the host record printed beside the results.

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` times (Linux's fixed
/// `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of every thread of this process so far,
/// exited threads included (0 where `/proc` is unavailable).
#[must_use]
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // The command name (field 2) may hold spaces; fields after its closing
    // parenthesis are space-separated: state is field 3, utime 14, stime 15.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Peak resident set size of this process in MiB (`VmHWM`; 0 where
/// `/proc` is unavailable).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn status_kb(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// The host the figures were measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPU model name.
    pub cpu: String,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
}

impl Host {
    /// Reads the host description.
    #[must_use]
    pub fn detect() -> Self {
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            cpu,
            nproc: harness::runner::effective_jobs(0),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_seconds() > before, "60 ms of spinning must register");
        assert!(peak_rss_mb() > 0.0);
    }
}
