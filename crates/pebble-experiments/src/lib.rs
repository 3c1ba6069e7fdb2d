//! # pebble-experiments
//!
//! One function per quantitative claim of the paper; each returns a
//! [`Table`] that the corresponding `exp_*` binary prints. `EXPERIMENTS.md`
//! records the expected (paper) versus the measured (this crate) values.
//!
//! Every number in these tables is a *validated* pebbling cost (the move
//! sequence was replayed through the simulators) or an exact optimum from the
//! solvers — never a formula evaluated on faith.

#![deny(missing_docs)]

pub mod runner;
pub mod table;

pub mod e01_fig1;
pub mod e02_matvec;
pub mod e03_zipper;
pub mod e04_trees;
pub mod e05_collection;
pub mod e06_linear_gap;
pub mod e07_hardness_48;
pub mod e08_counterexample;
pub mod e09_partitions;
pub mod e10_fft;
pub mod e11_matmul;
pub mod e12_attention;
pub mod e13_hardness_71;
pub mod e14_convert;
pub mod e15_variants;
pub mod e16_sched;
pub mod e17_compose;

pub use table::Table;

/// An experiment entry: stable id plus the function building its table.
pub type Experiment = (&'static str, fn() -> Table);

/// Every experiment in order: id and the function building its table.
pub const EXPERIMENTS: [Experiment; 17] = [
    ("e01", e01_fig1::run),
    ("e02", e02_matvec::run),
    ("e03", e03_zipper::run),
    ("e04", e04_trees::run),
    ("e05", e05_collection::run),
    ("e06", e06_linear_gap::run),
    ("e07", e07_hardness_48::run),
    ("e08", e08_counterexample::run),
    ("e09", e09_partitions::run),
    ("e10", e10_fft::run),
    ("e11", e11_matmul::run),
    ("e12", e12_attention::run),
    ("e13", e13_hardness_71::run),
    ("e14", e14_convert::run),
    ("e15", e15_variants::run),
    ("e16", e16_sched::run),
    ("e17", e17_compose::run),
];

/// Run every experiment across all cores, printing each table in order
/// (used by the `exp_all` binary). Returns the total number of failed
/// validation checks; a nonzero result means the reproduction is broken and
/// callers should exit nonzero.
pub fn run_all() -> usize {
    run_all_with(false)
}

/// [`run_all`], optionally followed by one JSON array of every table (the
/// `--json` flag of `exp_all`). The plain-text tables are unchanged either
/// way.
pub fn run_all_with(json: bool) -> usize {
    let mut failures = 0;
    let tables = all_tables_parallel(runner::default_threads());
    for table in &tables {
        println!("{table}");
        println!();
        failures += table.failures;
    }
    if json {
        let rendered: Vec<String> = tables.iter().map(|t| t.to_json()).collect();
        println!("[{}]", rendered.join(","));
    }
    failures
}

/// Print a table and return the exit code for its `exp_*` binary: success
/// only if every validation check registered while building it passed. The
/// table itself goes to stdout (unchanged format); the failure summary goes
/// to stderr.
pub fn emit(table: Table) -> std::process::ExitCode {
    emit_with(table, false)
}

/// [`emit`], optionally followed by the table's JSON rendering (the `--json`
/// flag of the experiment binaries). The plain-text table is unchanged.
pub fn emit_with(table: Table, json: bool) -> std::process::ExitCode {
    println!("{table}");
    if json {
        println!("{}", table.to_json());
    }
    if table.is_ok() {
        std::process::ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}: {} validation check(s) FAILED",
            table.title, table.failures
        );
        std::process::ExitCode::FAILURE
    }
}

/// All experiment tables in order, built concurrently on `threads` workers.
/// Each experiment is independent, so the sweep scales with the core count;
/// results come back in the canonical E1..E15 order regardless.
pub fn all_tables_parallel(threads: usize) -> Vec<Table> {
    pebble_sched::par_map(EXPERIMENTS.to_vec(), threads, |(_, run)| run())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_produces_a_nonempty_passing_table() {
        // This is the cheap smoke test; the individual experiment modules
        // assert their paper-specific invariants. Built in parallel, which
        // also exercises the work queue on the real workload. E16 sweeps the
        // at-scale scheduling corpus (10⁴-node instances) and E17 runs
        // several full portfolio passes per instance; both take minutes
        // unoptimised, so they are exercised in release builds only —
        // CI's release `exp_all` run and this test under `--release` still
        // cover them; their cheap invariants live in `e16_sched::tests` /
        // `e17_compose::tests`.
        let experiments: Vec<Experiment> = EXPERIMENTS
            .iter()
            .copied()
            .filter(|&(id, _)| !cfg!(debug_assertions) || (id != "e16" && id != "e17"))
            .collect();
        let count = experiments.len();
        let tables =
            pebble_sched::par_map(experiments, runner::default_threads(), |(_, run)| run());
        assert_eq!(tables.len(), count);
        for table in tables {
            assert!(!table.rows.is_empty(), "{} has no rows", table.title);
            assert!(!table.columns.is_empty());
            for row in &table.rows {
                assert_eq!(
                    row.len(),
                    table.columns.len(),
                    "ragged row in {}",
                    table.title
                );
            }
            assert!(
                table.is_ok(),
                "{}: {} validation checks failed",
                table.title,
                table.failures
            );
        }
    }
}
