//! Parsers for the two `/proc/<pid>` files the harness polls while a
//! `zmap` child runs: `status` (peak resident set) and `stat` (CPU time).

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI this runs on;
/// reading it properly needs `sysconf`, which needs libc.
pub const TICKS_PER_SEC: u64 = 100;

/// `VmHWM` (peak resident set size) in kB from `/proc/<pid>/status` text.
/// `None` once the process has released its address space (a zombie has
/// no `Vm*` lines).
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// `(state, utime + stime in ticks)` from `/proc/<pid>/stat` text. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn stat_cpu_ticks(stat: &str) -> Option<(char, u64)> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    let state = fields.next()?.chars().next()?;
    // After the state (field 3) come fields 4..; utime is 14, stime 15.
    let utime: u64 = fields.nth(10)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((state, utime + stime))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tzmap\nVmPeak:\t  400000 kB\nVmHWM:\t   38912 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(38912));
        assert_eq!(vm_hwm_kb("Name:\tzmap\nState:\tZ (zombie)\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\tgarbage kB\n"), None);
    }

    #[test]
    fn stat_survives_hostile_command_names() {
        let stat = "1234 (z map) x) R 1 1234 1234 0 -1 4194304 500 0 0 0 \
                    217 13 0 0 20 0 3 0 100 1000000 2000 18446744073709551615";
        assert_eq!(stat_cpu_ticks(stat), Some(('R', 230)));
        let zombie = "99 (zmap) Z 1 99 99 0 -1 4228100 0 0 0 0 104 3 0 0 20 0 1 0 7 0 0";
        assert_eq!(stat_cpu_ticks(zombie), Some(('Z', 107)));
        assert_eq!(stat_cpu_ticks("truncated (zmap) R 1 2"), None);
        assert_eq!(stat_cpu_ticks("no parens"), None);
    }
}
