//! Host measurements read from `/proc`, with no dependency beyond `std`:
//! user and system CPU time of the whole process (every thread, live or
//! exited) and its peak resident set.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// CPU time consumed by this process so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    /// User-mode seconds.
    pub user: f64,
    /// Kernel-mode seconds.
    pub sys: f64,
}

impl Cpu {
    /// User plus system seconds.
    pub fn total(self) -> f64 {
        self.user + self.sys
    }

    /// The CPU time spent between `earlier` and `self`.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }
}

/// Reads this process's CPU time from `/proc/self/stat`.
///
/// The resolution is one tick (10 ms), so callers measure windows of many
/// passes and divide, rather than timing one short pass.
pub fn cpu() -> Result<Cpu, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) is parenthesised and may hold spaces;
    // fields after it start at field 3 (`state`), so `utime` (field 14)
    // and `stime` (field 15) sit at offsets 11 and 12.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("/proc/self/stat field {} unreadable", i + 3))
    };
    Ok(Cpu {
        user: tick(11)?,
        sys: tick(12)?,
    })
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_owned())
}
