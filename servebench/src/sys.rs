//! Process and host facts read from `/proc`, without dependencies.

use std::fs;

/// Kernel clock ticks per second in `/proc/self/stat` (`USER_HZ`, 100 on
/// every mainstream Linux architecture).
const USER_HZ: f64 = 100.0;

/// Process CPU time, user + system, in milliseconds.
pub fn cpu_ms() -> Result<f64, String> {
    let stat = fs::read_to_string("/proc/self/stat").map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name: state is field 3, so
    // utime (field 14) and stime (field 15) are the 12th and 13th.
    let rest = stat.rsplit_once(')').map(|(_, rest)| rest).ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields.get(i).and_then(|v| v.parse::<f64>().ok()).ok_or_else(|| format!("no field {i} in /proc/self/stat"))
    };
    Ok((ticks(11)? + ticks(12)?) * 1000.0 / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).ok_or("malformed VmHWM line")?;
    Ok(kib / 1024.0)
}

/// The CPU model name from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, name)| name.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}
