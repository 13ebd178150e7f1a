//! What the kernel reports about this process and this machine: peak
//! memory, context switches, CPU time split, thread count, cache sizes.

use std::fs;
use std::time::Instant;

fn status_kib(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(field))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set size of this process so far, in KiB (`VmHWM`); 0 when
/// the kernel does not say.
pub fn peak_rss_kib() -> u64 {
    status_kib("VmHWM:").unwrap_or(0.0) as u64
}

/// Resident set size right now, in KiB (`VmRSS`).
pub fn rss_kib() -> u64 {
    status_kib("VmRSS:").unwrap_or(0.0) as u64
}

/// Thread ids of this process that are alive right now.
fn task_dirs() -> Vec<std::path::PathBuf> {
    fs::read_dir("/proc/self/task")
        .map(|d| d.flatten().map(|e| e.path()).collect())
        .unwrap_or_default()
}

/// Number of live threads in this process.
pub fn thread_count() -> usize {
    task_dirs().len()
}

/// Voluntary plus involuntary context switches summed over every live
/// thread. Only differences between two reads with the same threads alive
/// mean anything, which is how the world loop uses it.
pub fn context_switches() -> u64 {
    task_dirs()
        .iter()
        .filter_map(|t| fs::read_to_string(t.join("status")).ok())
        .map(|status| {
            status
                .lines()
                .filter(|l| l.contains("ctxt_switches:"))
                .filter_map(|l| l.split(':').nth(1)?.trim().parse::<u64>().ok())
                .sum::<u64>()
        })
        .sum()
}

/// `(user, system)` CPU time of the whole process in clock ticks.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields are counted after its `)`.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let mut next = || fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let utime = next();
    (utime, next())
}

/// A fixed arithmetic loop, timed: the median of nine passes, since a single
/// pass of a few milliseconds swings by 20 % on a shared host. Run before and
/// after a measurement, the two agree within a few percent unless something
/// else took the CPU for most of one of them.
pub fn canary_ns() -> f64 {
    let passes: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            }
            std::hint::black_box(x);
            start.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&passes)
}

/// Static facts about the machine, recorded beside every result.
pub struct Machine {
    pub model: String,
    pub cpus: usize,
    pub kernel: String,
    /// `(level and type, size)` as sysfs names them, e.g. `("L2 Unified", "4096K")`.
    pub caches: Vec<(String, String)>,
}

impl Machine {
    pub fn read() -> Machine {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
        let cpus = cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count();
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |k| k.trim().to_string());
        let read = |index: usize, file: &str| {
            fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{index}/{file}"
            ))
            .ok()
            .map(|s| s.trim().to_string())
        };
        let caches = (0..8)
            .filter_map(|i| {
                Some((
                    format!("L{} {}", read(i, "level")?, read(i, "type")?),
                    read(i, "size")?,
                ))
            })
            .collect();
        Machine {
            model,
            cpus,
            kernel,
            caches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_live_values() {
        let rss = rss_kib();
        assert!(
            rss > 0 && peak_rss_kib() >= rss,
            "a peak read later is no lower"
        );
        assert!(thread_count() >= 1);
        let before = context_switches();
        std::thread::yield_now();
        assert!(context_switches() >= before);
        assert!(Machine::read().cpus >= 1);
    }
}
