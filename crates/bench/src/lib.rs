//! Shared helpers for the Criterion benchmark suites.
//!
//! The benchmarks mirror the experiment families of `pebble-experiments`
//! (which print the paper's tables); here the same workloads are measured for
//! *throughput* of the library itself — simulator replay speed, exact-solver
//! latency on the gadget DAGs, strategy generation and partition
//! construction.

#![deny(missing_docs)]

pub mod sched_baseline;
pub mod solver_baseline;

use pebble_dag::Dag;
use pebble_game::prbp::PrbpConfig;
use pebble_game::rbp::RbpConfig;
use pebble_game::trace::{PrbpTrace, RbpTrace};

/// Where a baseline binary writes its measurement, from its `--out` and
/// `--check` arguments; checked before anything is measured.
///
/// * Without `--check`, the measurement goes to `--out`, or to `default`
///   (the committed baseline) for a deliberate refresh.
/// * With `--check`, it is written only to an explicit `--out`, so a gate
///   run never overwrites the baseline it compares against.
/// * An `--out` naming the `--check` file is a usage error.
pub fn output_path(
    out: Option<&str>,
    check: Option<&str>,
    default: &str,
) -> Result<Option<String>, String> {
    let Some(check) = check else {
        return Ok(Some(out.unwrap_or(default).to_string()));
    };
    match out {
        Some(out) if same_file(out, check) => Err(format!(
            "--out {out} names the --check baseline; a gate run must not overwrite it"
        )),
        out => Ok(out.map(str::to_string)),
    }
}

/// Whether two paths name the same file: equal as given, or resolving to
/// one existing file.
fn same_file(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    match (std::fs::canonicalize(a), std::fs::canonicalize(b)) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    }
}

/// Write `doc` as one line of JSON to `path`, when there is one, reporting
/// the write on stderr under `tool`.
pub fn write_measurement<T: serde::Serialize>(
    tool: &str,
    path: Option<&str>,
    doc: &T,
) -> Result<(), String> {
    let Some(path) = path else {
        return Ok(());
    };
    let json = serde_json::to_string(doc).expect("baseline serialises");
    std::fs::write(path, json + "\n").map_err(|e| format!("{tool}: cannot write {path}: {e}"))?;
    eprintln!("{tool}: wrote {path}");
    Ok(())
}

/// Read and parse a committed baseline JSON document, with the tool name
/// prefixed to any error.
pub fn load_baseline<T: serde::Deserialize>(tool: &str, path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{tool}: cannot read baseline {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{tool}: cannot parse baseline {path}: {e:?}"))
}

/// Replay an RBP trace and return its validated cost (panics on an invalid
/// trace — benchmarks must only measure correct pebblings).
pub fn replay_rbp(dag: &Dag, trace: &RbpTrace, r: usize) -> usize {
    trace
        .validate(dag, RbpConfig::new(r))
        .expect("benchmark trace must be valid")
}

/// Replay a PRBP trace and return its validated cost.
pub fn replay_prbp(dag: &Dag, trace: &PrbpTrace, r: usize) -> usize {
    trace
        .validate(dag, PrbpConfig::new(r))
        .expect("benchmark trace must be valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_dag::generators::fig1_full;
    use pebble_game::strategies::fig1;

    #[test]
    fn check_runs_never_write_the_baseline() {
        let default = "BENCH_sched.json";
        // A refresh writes the default baseline, or an explicit --out.
        assert_eq!(output_path(None, None, default), Ok(Some(default.into())));
        assert_eq!(
            output_path(Some("x.json"), None, default),
            Ok(Some("x.json".into()))
        );
        // A gate run writes only to an explicit --out.
        assert_eq!(output_path(None, Some(default), default), Ok(None));
        assert_eq!(
            output_path(Some("current.json"), Some(default), default),
            Ok(Some("current.json".into()))
        );
        // An --out naming the --check file is refused, also when spelt
        // differently (`Cargo.toml` exists in the crate's directory).
        assert!(output_path(Some(default), Some(default), default).is_err());
        assert!(output_path(Some("./Cargo.toml"), Some("Cargo.toml"), default).is_err());
    }

    #[test]
    fn replay_helpers_return_costs() {
        let f = fig1_full();
        assert_eq!(replay_rbp(&f.dag, &fig1::rbp_optimal_trace(&f), 4), 3);
        assert_eq!(replay_prbp(&f.dag, &fig1::prbp_optimal_trace(&f), 4), 2);
    }
}
