//! Facts about this process and its host, read from `/proc` so that the
//! benchmark needs neither `libc` nor `unsafe`.

use std::path::Path;
use std::process::Command;

/// Linux reports process times in `USER_HZ` ticks, which is 100 on every
/// supported architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU time of the whole process (every thread: the nodes and
/// the generator together), in milliseconds.  The same figure `getrusage`
/// returns, at 10 ms resolution.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name is parenthesised and may hold spaces; fields are
    // counted from after it.  utime and stime are fields 14 and 15.
    let after = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let mut fields = after.split_ascii_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    (tick() + tick()) * 1000.0 / TICKS_PER_SECOND
}

fn status_kib(key: &str) -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {key}"))
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM") / 1024.0
}

/// Current resident set size (`VmRSS`), in bytes.
pub fn rss_bytes() -> f64 {
    status_kib("VmRSS") * 1024.0
}

/// Type and source of the filesystem holding `path`, from the mount with the
/// longest matching mount point.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            // `… mount-point options … - fstype source super-options`
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            path.starts_with(mount_point).then(|| {
                let mut right = right.split(' ');
                let fstype = right.next().unwrap_or("?");
                let source = right.next().unwrap_or("?");
                (mount_point.len(), format!("{fstype} ({source})"))
            })
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// The checked-out commit; the driver's checkout is not a repository, and
/// says so.
pub fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

/// The compiler that built this binary (recorded by `build.rs`).
pub fn rustc() -> &'static str {
    env!("BENCHMARK_RUSTC")
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Total size of the regular files under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}
