//! Host fingerprint and process memory readings.

use std::process::Command;

/// The environment knobs that silently re-point engine construction. CI
/// jobs set them; the benchmark measures the shipped defaults only.
pub const CONFIG_KNOBS: [&str; 5] = [
    "OPS5_MATCHER",
    "OPS5_ACT",
    "OPS5_NETWORK_SHARING",
    "OPS5_NETWORK_UNLINKING",
    "OPS5_RUN_SLICE",
];

/// The knobs that are set in this environment (an empty value counts as
/// set: the builder reads some knobs by presence).
pub fn set_knobs() -> Vec<&'static str> {
    CONFIG_KNOBS
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `(key, value)` pairs naming the host and the code: core count, CPU
/// model, rustc version, git revision and whether the tree was dirty.
/// Values that cannot be read (a checkout that is not a git repository)
/// read `unknown`.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let rev = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = match command_line("git", &["status", "--porcelain"]) {
        Some(s) => (!s.is_empty()).to_string(),
        None => "unknown".into(),
    };
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", rustc),
        ("git_rev", rev),
        ("git_dirty", dirty),
    ]
}

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`).
pub fn status_kb(pid: &str, field: &str) -> Option<u64> {
    let s = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    s.lines()
        .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Total and stolen CPU time of the machine's processors so far, in clock
/// ticks, from the first line of `/proc/stat`. Steal is the time the
/// hypervisor ran something else while a virtual CPU wanted to run.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let s = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = s
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// The share of CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}
