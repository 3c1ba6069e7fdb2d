//! Emit (and optionally gate on) the exact-solver benchmark baseline.
//!
//! ```text
//! bench_solvers [--quick] [--reps N] [--threads N] [--out PATH]
//!               [--check BASELINE] [--tolerance PCT] [--time-tolerance PCT]
//!               [--no-time-gate]
//! ```
//!
//! Runs the E1–E9 solver corpus with every heuristic, writes the results as
//! JSON to `--out` (default `BENCH_solvers.json` in the current directory),
//! and, when `--check` names a committed baseline, exits nonzero if the
//! expanded-state count of any (instance, heuristic) pair regressed by more
//! than `--tolerance` percent (default 25) or its median solver time by more
//! than `--time-tolerance` percent (default 100). Expanded-state counts are
//! deterministic and hardware-independent — the precise gate; wall-clock is
//! a loose backstop, only gated above a 5 ms noise floor, and only
//! meaningful when the baseline was produced on comparable hardware — pass
//! `--no-time-gate` to skip it entirely (what CI does: its runners are a
//! different machine class than whoever committed the baseline).

use bench::solver_baseline::{self, SolverBaseline};
use std::process::ExitCode;

struct Args {
    quick: bool,
    reps: Option<usize>,
    threads: usize,
    out: String,
    check: Option<String>,
    tolerance: u64,
    time_tolerance: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        reps: None,
        threads: pebble_experiments::runner::default_threads(),
        out: "BENCH_solvers.json".to_string(),
        check: None,
        tolerance: 25,
        time_tolerance: Some(100),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--reps" => {
                args.reps = Some(
                    value("--reps")?
                        .parse()
                        .map_err(|e| format!("--reps: {e}"))?,
                )
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--out" => args.out = value("--out")?,
            "--check" => args.check = Some(value("--check")?),
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
            "--time-tolerance" => {
                args.time_tolerance = Some(
                    value("--time-tolerance")?
                        .parse()
                        .map_err(|e| format!("--time-tolerance: {e}"))?,
                )
            }
            "--no-time-gate" => args.time_tolerance = None,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_solvers: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mode, reps) = if args.quick {
        ("quick", args.reps.unwrap_or(3))
    } else {
        ("full", args.reps.unwrap_or(9))
    };

    // Read the gate baseline before any measurement is written (see
    // `bench::load_baseline`).
    let baseline: Option<SolverBaseline> = match &args.check {
        None => None,
        Some(check_path) => match bench::load_baseline("bench_solvers", check_path) {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
    };

    eprintln!(
        "bench_solvers: sweeping {} instances x {} heuristics ({mode}, {reps} reps, {} threads)",
        solver_baseline::corpus().len(),
        solver_baseline::heuristic_names().len(),
        args.threads
    );
    let current = solver_baseline::run(mode, reps, args.threads);

    let json = serde_json::to_string(&current).expect("baseline serialises");
    if let Err(e) = std::fs::write(&args.out, json + "\n") {
        eprintln!("bench_solvers: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!("bench_solvers: wrote {}", args.out);

    for inst in &current.instances {
        let zero = inst
            .heuristics
            .iter()
            .find(|h| h.heuristic == "zero")
            .map(|h| h.expanded)
            .unwrap_or(0);
        let line: Vec<String> = inst
            .heuristics
            .iter()
            .map(|h| {
                format!(
                    "{}={} ({:.1}x)",
                    h.heuristic,
                    h.expanded,
                    zero as f64 / h.expanded.max(1) as f64
                )
            })
            .collect();
        eprintln!(
            "  {:<18} {:<5} r={:<2} expanded: {}",
            inst.id,
            inst.model,
            inst.r,
            line.join("  ")
        );
    }

    let (Some(baseline), Some(check_path)) = (baseline, args.check) else {
        return ExitCode::SUCCESS;
    };
    let regressions =
        solver_baseline::regressions(&baseline, &current, args.tolerance, args.time_tolerance);
    if regressions.is_empty() {
        let time_gate = match args.time_tolerance {
            Some(pct) => format!("time +{pct}%"),
            None => "time gate off".to_string(),
        };
        eprintln!(
            "bench_solvers: no regressions vs {check_path} (expanded +{}%, {time_gate})",
            args.tolerance
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench_solvers: {} regression(s) vs {check_path}:",
            regressions.len()
        );
        for r in &regressions {
            eprintln!("  REGRESSION: {r}");
        }
        ExitCode::FAILURE
    }
}
