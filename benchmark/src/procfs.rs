//! Process memory and CPU time from `/proc/self`, and a fixed spin loop
//! that flags a noisy measurement window.

use std::time::Instant;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux has
/// reported 100 on every architecture since 2.6; without libc there is no
/// `sysconf` to ask.
const TICKS_PER_S: f64 = 100.0;

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set of this process (`VmHWM`), MiB; 0 when `/proc` is
/// unreadable.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Current resident set of this process (`VmRSS`), MiB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:").unwrap_or(0.0) / 1024.0
}

/// User plus system CPU time of this process, all threads, in seconds
/// (10 ms resolution).
pub fn cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat")
}

/// User plus system CPU time of the calling thread alone, in seconds.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_s("/proc/thread-self/stat")
}

fn stat_cpu_s(path: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields count from
    // after its closing parenthesis. utime and stime are fields 14 and 15.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / TICKS_PER_S
}

/// Wall milliseconds of a fixed xorshift loop. The work never changes, so
/// a reading well above the usual one means the host was busy or
/// throttled when it ran.
pub fn spin_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_mb() > 0.0);
        assert!(peak_rss_mb() >= rss_mb() * 0.5);
        let before = cpu_s();
        let ms = spin_ms();
        assert!(ms > 0.0);
        assert!(cpu_s() >= before);
        assert!(thread_cpu_s() <= cpu_s() + 0.011);
    }
}
