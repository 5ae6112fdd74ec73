//! Host-side probes (CPU time, peak memory, load, thread count), small
//! statistics helpers, and the private scratch directories the cache
//! workloads run against.

use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Clock ticks per second of `/proc/self/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Directory, relative to the working directory, that holds the
/// benchmark's scratch caches and written-out spans.
pub const WORK_DIR: &str = ".perfbench";

/// Host threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// User plus system CPU seconds the process has used so far, threads
/// that have already exited included.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 here.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => f64::NAN,
    }
}

/// Peak resident memory of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

fn status_kb(key: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// The 1-minute load average.
pub fn load1() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(f64::NAN)
}

/// Host-speed probe: median milliseconds of five runs of a fixed
/// single-thread integer loop. Printed before and after the timed
/// sweeps so that a run on a slowed-down host can be recognised.
pub fn probe_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for i in 0..black_box(20_000_000u64) {
                h = (h ^ i).wrapping_mul(0x0000_0100_0000_01b3);
            }
            black_box(h);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v` (NaN when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

static SCRATCH_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A private directory under [`WORK_DIR`], removed with everything in
/// it when dropped.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates a fresh, empty directory unique to this process.
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(WORK_DIR).join(format!("{tag}-{}-{n}", std::process::id()));
        if path.exists() {
            fs::remove_dir_all(&path)?;
        }
        fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total size of the regular files below the directory, in MiB.
    pub fn size_mb(&self) -> f64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.path) as f64 / (1024.0 * 1024.0)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
        // Leave no empty work directory behind either.
        let _ = fs::remove_dir(WORK_DIR);
    }
}
