//! Host metadata, the host-speed probe and peak memory.
//!
//! The probe times two fixed loops that belong to no layer: a dependent
//! multiply chain (core speed) and stores over a 4 KiB buffer (what other
//! tenants do to this core's caches). It runs before and after the
//! workload and is only printed; no measurement is scaled, filtered or
//! retried by it.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        // Only the working directory's own repository, never a parent's.
        .env("GIT_DIR", ".git")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `# key: value` lines describing the host and the build.
#[must_use]
pub fn metadata(seed: u64) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    vec![
        format!("nproc: {nproc}"),
        format!("cpu: {}", cpu_model()),
        format!("kernel: {kernel}"),
        format!("rustc: {}", first_line("rustc", &["--version"])),
        format!(
            "commit: {}",
            first_line("git", &["rev-parse", "--short", "HEAD"])
        ),
        format!("seed: {seed}"),
        format!(
            "telemetry feature: {}",
            if nbsp_telemetry::enabled() {
                "on"
            } else {
                "off"
            }
        ),
    ]
}

/// Milliseconds of the two probe loops: (dependent multiply, 4 KiB stores).
#[must_use]
pub fn probe() -> (f64, f64) {
    let t = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..20_000_000 {
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ (x >> 29);
    }
    black_box(x);
    let mul_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut buf = [0u64; 512];
    let t = Instant::now();
    for i in 0..40_000_000usize {
        let b = black_box(&mut buf);
        b[(i * 7) & 511] = i as u64;
    }
    black_box(&buf);
    let store_ms = t.elapsed().as_secs_f64() * 1e3;
    (mul_ms, store_ms)
}

/// Peak resident set (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
