//! OS-side counters read from `/proc`: per-thread context switches and
//! CPU time summed over every task of this process (the lcw worker
//! thread, shm bridge threads, reapers), plus the leak checks the
//! launcher runs after each job.

use std::path::Path;

/// `/proc` reports CPU time in `USER_HZ` ticks, 100 per second on Linux.
const TICKS_PER_SEC: f64 = 100.0;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const MASK_WORDS: usize = 16;

/// Binds every thread of this process, and so every thread started
/// afterwards, to the `idx`-th CPU (round robin) of the set it may run
/// on, as MPI launchers bind a rank to a core. Returns the CPU, or
/// `None` when the affinity calls fail.
pub fn bind_process_to_cpu(idx: usize) -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = MASK_WORDS * 8;
    // SAFETY: the mask buffer is `bytes` long; pid 0 is the caller.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } < 0 {
        return None;
    }
    let cpus: Vec<usize> =
        (0..MASK_WORDS * 64).filter(|c| mask[c / 64] >> (c % 64) & 1 == 1).collect();
    let cpu = *cpus.get(idx % cpus.len().max(1))?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    let tids: Vec<i32> = std::fs::read_dir("/proc/self/task")
        .ok()?
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse().ok())
        .collect();
    // SAFETY: as above; every tid is a thread of this process and the
    // mask names one allowed CPU.
    let bound = tids.iter().filter(|&&t| unsafe { sched_setaffinity(t, bytes, one.as_ptr()) } == 0);
    (bound.count() == tids.len()).then_some(cpu)
}

/// Summed counters over all tasks of one process.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TaskTotals {
    pub ctx_switches: u64,
    pub user_s: f64,
    pub sys_s: f64,
}

impl TaskTotals {
    pub fn since(&self, earlier: &TaskTotals) -> TaskTotals {
        TaskTotals {
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            user_s: (self.user_s - earlier.user_s).max(0.0),
            sys_s: (self.sys_s - earlier.sys_s).max(0.0),
        }
    }
}

/// Parses `utime` and `stime` (fields 14 and 15) out of a
/// `/proc/<pid>/task/<tid>/stat` line. The command name may contain
/// spaces and parentheses, so fields are counted after the last `)`.
pub fn parse_stat_times(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut f = rest.split_whitespace();
    // After ")": field 3 (state) is the first token; utime is field 14.
    let utime = f.nth(11)?.parse().ok()?;
    let stime = f.next()?.parse().ok()?;
    Some((utime, stime))
}

/// Sums `voluntary_ctxt_switches` and `nonvoluntary_ctxt_switches` out
/// of a `/proc/.../status` body.
pub fn parse_status_ctx(status: &str) -> u64 {
    status
        .lines()
        .filter(|l| {
            l.starts_with("voluntary_ctxt_switches") || l.starts_with("nonvoluntary_ctxt_switches")
        })
        .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum()
}

/// Current totals over every task of this process.
pub fn self_totals() -> TaskTotals {
    let mut t = TaskTotals::default();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else { return t };
    for e in dir.flatten() {
        let p = e.path();
        if let Ok(s) = std::fs::read_to_string(p.join("stat")) {
            if let Some((u, k)) = parse_stat_times(&s) {
                t.user_s += u as f64 / TICKS_PER_SEC;
                t.sys_s += k as f64 / TICKS_PER_SEC;
            }
        }
        if let Ok(s) = std::fs::read_to_string(p.join("status")) {
            t.ctx_switches += parse_status_ctx(&s);
        }
    }
    t
}

/// Whether a process with this pid still exists (a zombie counts: it
/// was not reaped).
pub fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

/// Live processes whose parent is this process.
pub fn live_children() -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc") else { return Vec::new() };
    dir.flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read_to_string(format!("/proc/{pid}/stat")).ok().is_some_and(|s| {
                let rest = &s[s.rfind(')').map_or(0, |i| i + 1)..];
                rest.split_whitespace().nth(1).and_then(|p| p.parse::<u32>().ok()) == Some(me)
            })
        })
        .collect()
}

/// Segment files this launcher created that are still on disk. The
/// library names them `lci-seg-<launcher pid>-<n>` under `/dev/shm`
/// (or the temp dir where `/dev/shm` is absent).
pub fn leaked_segments() -> Vec<String> {
    let prefix = format!("lci-seg-{}-", std::process::id());
    [Path::new("/dev/shm").to_path_buf(), std::env::temp_dir()]
        .iter()
        .filter_map(|d| std::fs::read_dir(d).ok())
        .flat_map(|rd| rd.flatten())
        .filter_map(|e| e.file_name().to_str().map(str::to_string))
        .filter(|n| n.starts_with(&prefix))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_times_skip_odd_comm() {
        let line = "123 (a b) c) R 1 2 3 4 5 6 7 8 9 10 42 17 0 0 20 0 1 0";
        assert_eq!(parse_stat_times(line), Some((42, 17)));
    }

    #[test]
    fn status_ctx_sums_both_kinds() {
        let s = "Name:\tx\nvoluntary_ctxt_switches:\t5\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(parse_status_ctx(s), 12);
    }

    #[test]
    fn self_totals_reads_proc() {
        let t = self_totals();
        assert!(t.ctx_switches > 0);
    }
}
