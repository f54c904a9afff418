//! What the benchmark reads from the operating system: its own memory
//! high-water mark and CPU times, and the environment block recorded
//! beside every result.

use std::process::Command;

use crate::json::Json;

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| line.strip_prefix(key).map(|rest| rest.trim().to_string()))
}

/// `VmHWM` of this process in MiB — its peak resident set so far.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM:")?;
    let kib: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `(utime, stime)` of this process in clock ticks, from `/proc/self/stat`.
#[must_use]
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

/// The 1-minute load average.
#[must_use]
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg").ok()?.split_whitespace().next()?.parse().ok()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The environment block of `result.json`.
#[must_use]
pub fn environment() -> Json {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::object([
        ("nproc", Json::from(nproc)),
        (
            "cpu_model",
            Json::from(
                proc_field("/proc/cpuinfo", "model name")
                    .map_or_else(unknown, |m| m.trim_start_matches(':').trim().to_string()),
            ),
        ),
        ("rustc", Json::from(command_line("rustc", &["--version"]).unwrap_or_else(unknown))),
        (
            "git_commit",
            Json::from(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("load_average_1m", load_average().map_or(Json::Null, Json::from)),
        ("network", Json::from("loopback only (127.0.0.1); no real link is crossed")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readers_return_plausible_values() {
        assert!(peak_rss_mib().expect("VmHWM") > 0.5);
        let (utime, stime) = cpu_ticks().expect("stat");
        assert!(utime + stime < 1_000_000_000);
        assert!(load_average().expect("loadavg") >= 0.0);
        let env = environment();
        assert!(env.get("nproc").and_then(Json::as_u64).unwrap() >= 1);
        assert!(env.get("cpu_model").and_then(Json::as_str).is_some());
    }
}
