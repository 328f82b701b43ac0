//! Host context printed with every result: the numbers mean little
//! without the machine, toolchain and build that produced them.

use bdm_metrics::json::JsonValue;
use std::path::Path;
use std::process::Command;

/// Where and how a run was made.
pub fn context() -> JsonValue {
    let mut o = JsonValue::obj();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    o.push("nproc", JsonValue::Num(nproc as f64));
    o.push("cpu_model", JsonValue::Str(cpu_model()));
    o.push("rustc", JsonValue::Str(rustc_version()));
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    o.push("build_profile", JsonValue::Str(profile.into()));
    o.push("target_cpu", JsonValue::Str(target_cpu()));
    o.push("git_commit", JsonValue::Str(git_commit()));
    o
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The `target-cpu` the checkout's `.cargo/config.toml` passes to rustc,
/// or `default` without one.
fn target_cpu() -> String {
    std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|cfg| {
            let at = cfg.find("target-cpu=")? + "target-cpu=".len();
            let rest = &cfg[at..];
            let end = rest
                .find(|c: char| c == '"' || c.is_whitespace())
                .unwrap_or(rest.len());
            Some(rest[..end].to_string())
        })
        .unwrap_or_else(|| "default".into())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
fn git_commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&git.join(r))
            .or_else(|| {
                read(&git.join("packed-refs"))?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// Resident-set figures of this process, in MiB, from
/// `/proc/self/status`: (current, high-water mark).
pub fn rss_mib() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}
