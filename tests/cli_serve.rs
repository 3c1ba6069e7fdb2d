//! End-to-end tests for the serving CLI surface: the `--deadline-ms`
//! no-incumbent contract (exit code 3 + machine-readable status) and the
//! `warm` / `serve` / `submit` round trip over a real socket.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prbp-serve-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

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

/// An expired deadline with no incumbent is the *documented* failure mode:
/// exit code 3 (distinct from runtime error 1 and usage error 2) and a JSON
/// document whose `status` field is machine-readable — not a bare error
/// string on stderr.
#[test]
fn deadline_with_no_incumbent_exits_3_with_machine_readable_status() {
    let dir = scratch_dir("deadline");
    // Large enough that a 1 ms budget cannot seed an incumbent: the beam's
    // first deadline check fires before any schedule exists.
    run_ok(
        &dir,
        &["gen", "--family", "fft", "--m", "4096", "--out", "big.json"],
    );
    let out = Command::new(env!("CARGO_BIN_EXE_prbp"))
        .args([
            "schedule",
            "--input",
            "big.json",
            "--r",
            "64",
            "--deadline-ms",
            "1",
        ])
        .current_dir(&dir)
        .output()
        .expect("spawn prbp");
    assert_eq!(
        out.status.code(),
        Some(3),
        "deadline-no-incumbent must exit 3, got {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("\"status\":\"deadline-no-incumbent\""),
        "document must carry the machine-readable status: {stdout}"
    );
    assert!(
        stdout.contains("\"deadline_ms\":1"),
        "document must echo the budget: {stdout}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// A generous deadline on the same path still succeeds with exit 0 and the
/// `"status":"ok"` anytime document.
#[test]
fn generous_deadline_still_exits_0() {
    let dir = scratch_dir("deadline-ok");
    run_ok(&dir, &["gen", "--family", "fig1", "--out", "fig1.el"]);
    let stdout = run_ok(
        &dir,
        &[
            "schedule",
            "--input",
            "fig1.el",
            "--r",
            "4",
            "--deadline-ms",
            "30000",
        ],
    );
    assert!(stdout.contains("\"status\":\"ok\""), "{stdout}");
    assert!(stdout.contains("\"report\":"), "{stdout}");
    let _ = std::fs::remove_dir_all(dir);
}

/// warm → serve → submit: the full service loop over a real socket. The
/// warmed shape must come back as a cache hit whose certificate matches the
/// compose schedule stored by `warm`.
#[test]
fn warm_serve_submit_roundtrip() {
    let dir = scratch_dir("roundtrip");
    std::fs::create_dir_all(dir.join("instances")).unwrap();
    run_ok(
        &dir,
        &[
            "gen",
            "--family",
            "fft",
            "--m",
            "64",
            "--out",
            "instances/fft64.json",
        ],
    );
    let warm = run_ok(
        &dir,
        &[
            "warm",
            "--cache-dir",
            "cache",
            "--dir",
            "instances",
            "--r",
            "16",
        ],
    );
    assert!(warm.contains("\"inserted\":1"), "{warm}");

    // Port 0 picks a free port; the server names it on its first stderr
    // line, once it is listening.
    let mut server = Command::new(env!("CARGO_BIN_EXE_prbp"))
        .args([
            "serve",
            "--cache-dir",
            "cache",
            "--addr",
            "127.0.0.1:0",
            "--deadline-ms",
            "10000",
        ])
        .current_dir(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn prbp serve");
    let mut stderr = BufReader::new(server.stderr.take().expect("piped stderr"));
    let mut banner = String::new();
    stderr
        .read_line(&mut banner)
        .expect("read the server banner");
    let addr = banner
        .strip_prefix("prbp-serve listening on http://")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no listening address in {banner:?}"))
        .to_string();
    let result = Command::new(env!("CARGO_BIN_EXE_prbp"))
        .args([
            "submit",
            "--addr",
            &addr,
            "--input",
            "instances/fft64.json",
            "--r",
            "16",
        ])
        .current_dir(&dir)
        .output()
        .expect("spawn prbp submit");
    let stdout = String::from_utf8_lossy(&result.stdout).into_owned();
    server.kill().expect("kill server");
    let _ = server.wait();
    assert!(
        result.status.success(),
        "submit failed: {stdout}\n{}",
        String::from_utf8_lossy(&result.stderr)
    );
    assert!(stdout.contains("\"cache\":\"hit\""), "{stdout}");
    assert!(stdout.contains("\"scheduler\":\"compose\""), "{stdout}");
    let _ = std::fs::remove_dir_all(dir);
}
