//! Process and host readings for the run record: peak RSS, CPU steal
//! and the core count.

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Aggregate CPU jiffies from `/proc/stat`: `(total, steal)`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let fields: Vec<u64> = line.split_whitespace().filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    let total = fields.iter().take(8).sum();
    Some((total, *fields.get(7)?))
}

/// Steal share between two [`cpu_jiffies`] readings.
pub fn steal_share(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> Option<f64> {
    let ((t0, s0), (t1, s1)) = (start?, end?);
    let dt = t1.checked_sub(t0)?;
    (dt > 0).then(|| (s1.saturating_sub(s0)) as f64 / dt as f64)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
