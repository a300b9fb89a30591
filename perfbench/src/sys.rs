//! What the process and the machine report about themselves (Linux
//! `/proc`), for the result and its hardware stamp.

use std::time::Instant;

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU time of the whole process, threads that have
/// already exited included, in ms. `/proc/self/stat` counts in clock
/// ticks, which are 10 ms on Linux (`USER_HZ` = 100).
pub fn cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10.0)
}

/// Wall and CPU time since a starting point.
pub struct Stopwatch {
    wall: Instant,
    cpu_ms: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu_ms: cpu_ms().unwrap_or(0.0),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn cpu_ms(&self) -> f64 {
        cpu_ms().unwrap_or(0.0) - self.cpu_ms
    }
}

pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
