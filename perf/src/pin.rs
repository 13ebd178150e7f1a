//! Pin the whole process to one CPU.
//!
//! The world has four rank threads (plus reader threads on TCP) and the
//! reference box has two cores. Left to the scheduler, identical runs differ
//! by 3x depending on which threads happen to share a core; on one CPU the
//! same loop repeats within a few percent. Pinned wall time is the world's
//! total software cost per collective. It cannot show overlap across cores
//! or lock contention; radix and round effects are read off the simulator.

use std::fs;

/// `cpu_set_t` is 1024 bits on Linux.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Restrict the calling thread, and every thread it later spawns, to `cpu`,
/// then confirm through `/proc/self/status` that the kernel agrees.
pub fn pin_to(cpu: usize) -> Result<usize, String> {
    if cpu >= MASK_WORDS * 64 {
        return Err(format!("cpu {cpu} does not fit a cpu_set_t"));
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the byte length passed and
    // is only read; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity(cpu {cpu}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let listed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(str::trim)
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    if listed != cpu.to_string() {
        return Err(format!("asked for cpu {cpu}, kernel reports `{listed}`"));
    }
    Ok(cpu)
}

/// Pin to the highest CPU of the allowed set (CPU 0 takes most interrupts).
pub fn pin_highest() -> Result<usize, String> {
    let cpus = allowed_cpus()?;
    let cpu = *cpus.last().ok_or("empty CPU affinity set")?;
    pin_to(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowed_set_is_not_empty() {
        assert!(!allowed_cpus().unwrap().is_empty());
    }

    /// `main` turns this `Err` into a non-zero exit before any measurement.
    /// Only the refusal is exercised: a successful pin would confine every
    /// other test of this process to one CPU.
    #[test]
    fn pinning_to_an_absent_cpu_is_refused() {
        let absent = MASK_WORDS * 64 - 1;
        assert!(!allowed_cpus().unwrap().contains(&absent));
        assert!(pin_to(absent).is_err());
        assert!(pin_to(MASK_WORDS * 64).is_err());
    }
}
