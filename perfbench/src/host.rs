//! Host context printed with every report, and the process's peak
//! resident memory.

use std::path::Path;

/// Online CPUs, the CPU model, and whether a hardware PMU is exposed.
pub fn context_lines() -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let pmu = Path::new("/sys/bus/event_source/devices/cpu").exists();
    vec![
        format!("host nproc {nproc}"),
        format!("host cpu {cpu}"),
        format!(
            "host pmu {} (no hardware counters: every time below is wall clock, every count is computed by the program)",
            if pmu { "present" } else { "absent" }
        ),
    ]
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
