//! What the numbers were measured on: the host descriptor written into
//! every result record, and the process's peak resident set.

use crate::json::Json;
use std::fs;

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// `VmHWM` of this process in bytes; `None` where `/proc` does not give it.
pub fn peak_rss_bytes() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kib: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kib * 1024.0)
}

/// Size of the largest cache `cpu0` reports, in bytes.
pub fn llc_bytes() -> Option<usize> {
    (0..8)
        .filter_map(|i| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            let text = fs::read_to_string(path).ok()?;
            let text = text.trim();
            let (digits, unit) = text.split_at(text.find(|c: char| !c.is_ascii_digit())?);
            let scale = match unit {
                "K" => 1 << 10,
                "M" => 1 << 20,
                "G" => 1 << 30,
                _ => return None,
            };
            Some(digits.parse::<usize>().ok()? * scale)
        })
        .max()
}

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The SIMD path `parfact_dense::pack` takes on this host: it tests for
/// `avx` at run time and otherwise runs portable code.
pub fn simd_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        return "avx";
    }
    "portable"
}

/// `run.sh` exports these; a bare binary reports them as unknown.
fn env_or_unknown(key: &str) -> Json {
    Json::Str(std::env::var(key).unwrap_or_else(|_| "unknown".to_string()))
}

pub fn descriptor() -> Json {
    Json::obj(vec![
        ("nproc", Json::Num(threads() as f64)),
        (
            "cpu_model",
            Json::Str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string()),
            ),
        ),
        ("simd_path", Json::str(simd_path())),
        ("analysis_threads", Json::Num(threads() as f64)),
        ("smp_threads", Json::Num(threads() as f64)),
        ("rustc", env_or_unknown("PARFACT_BENCH_RUSTC")),
        ("git_commit", env_or_unknown("PARFACT_BENCH_COMMIT")),
        (
            "llc_bytes",
            llc_bytes().map_or(Json::Null, |b| Json::Num(b as f64)),
        ),
    ])
}
