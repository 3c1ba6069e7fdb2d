//! End-to-end test of `prbp trace` on a real capture: a `--deadline-ms`
//! compose solve writes a JSONL trace, and the analyzer turns it into a
//! phase table naming the CLI, compose and portfolio phases, down to
//! compose's decompose, extract, key and bound stages.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prbp-trace-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Run the binary in `dir`, asserting exit code 0; returns stdout.
fn run_ok(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_prbp"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn prbp");
    assert!(
        out.status.success(),
        "prbp {args:?} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("CLI output is UTF-8")
}

#[test]
fn trace_summarizes_a_deadline_solve_capture() {
    let dir = scratch_dir("fft64");
    run_ok(
        &dir,
        &["gen", "--family", "fft", "--m", "64", "--out", "fft64.el"],
    );
    run_ok(
        &dir,
        &[
            "schedule",
            "--input",
            "fft64.el",
            "--r",
            "16",
            "--deadline-ms",
            "2000",
            "--trace",
            "t.jsonl",
        ],
    );
    let table = run_ok(&dir, &["trace", "t.jsonl"]);
    assert!(table.contains("phase timings:"), "{table}");
    // Each phase row starts with the span name after two spaces.
    let phases: Vec<&str> = table
        .lines()
        .filter_map(|line| line.strip_prefix("  "))
        .filter_map(|row| row.split_whitespace().next())
        .collect();
    for phase in [
        "cli:solve",
        "compose:schedule",
        "compose:decompose",
        "compose:extract",
        "compose:key",
        "compose:bound",
        "portfolio:greedy",
    ] {
        assert!(phases.contains(&phase), "no `{phase}` row in\n{table}");
    }
}
