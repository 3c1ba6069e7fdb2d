//! The machine block every result carries (absolute numbers do not carry
//! across machines) and the process's peak memory.

use pebble_io::json::escape;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str], env: Option<(&str, String)>) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some((key, value)) = env {
        cmd.env(key, value);
    }
    cmd.output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the working directory, looked up without leaving it: a
/// checkout that is not a git repository reports `unknown`.
fn git_commit() -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(|p| p.display().to_string()))
        .unwrap_or_default();
    command_line(
        "git",
        &["rev-parse", "HEAD"],
        Some(("GIT_CEILING_DIRECTORIES", ceiling)),
    )
}

/// One JSON object describing the machine and the run.
pub fn block(workload: &str, seed: u64, traced: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"machine\":{{\"nproc\":{nproc},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\
         \"workload\":\"{}\",\"seed\":{seed},\"traced\":{traced}}}}}",
        escape(&cpu_model()),
        escape(&command_line("rustc", &["--version"], None)),
        escape(&git_commit()),
        escape(workload),
    )
}

/// A field of `/proc/self/status` given in kB, in MB (2^20 bytes).
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `VmHWM`: the process's peak resident memory so far, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

/// Samples `VmRSS` every 20 ms on a thread of its own until finished.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<f64>>,
}

impl RssSampler {
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                samples.extend(status_mb("VmRSS:"));
                std::thread::sleep(Duration::from_millis(20));
            }
            samples
        });
        RssSampler { stop, handle }
    }

    /// Stop sampling; the samples in MB.
    pub fn finish(self) -> Vec<f64> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("the RSS sampler panicked")
    }
}
