//! Golden-file snapshots of the `prbp` CLI's JSON output documents.
//!
//! CLI consumers parse the `schedule` / `bound` documents programmatically,
//! so their schema — field names, nesting, `gap` semantics, string escaping
//! — must not drift silently. Each test runs the real binary
//! (`CARGO_BIN_EXE_prbp`) in a scratch directory with a fixed input file
//! name (paths are embedded in the document, so the name must be stable)
//! and compares stdout byte-for-byte against the committed snapshot under
//! `tests/golden_cli/`.
//!
//! To refresh after an *intentional* schema or cost change:
//! `UPDATE_GOLDEN=1 cargo test --test cli_golden` and commit the diff.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prbp-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Run the binary in `dir`, asserting exit code 0; returns stdout.
fn run(dir: &Path, args: &[&str]) -> String {
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

fn check_golden(snapshot: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden_cli")
        .join(snapshot);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate with UPDATE_GOLDEN=1 cargo test --test cli_golden"
        , path.display())
    });
    assert!(
        expected == actual,
        "CLI output drifted from {}.\n--- expected\n{expected}\n--- actual\n{actual}\n\
         If the change is intentional, refresh with UPDATE_GOLDEN=1 cargo test --test cli_golden",
        path.display()
    );
}

/// Generate the fixed fig1 edge-list input in `dir`.
fn gen_fig1(dir: &Path) {
    run(dir, &["gen", "--family", "fig1", "--out", "fig1.el"]);
}

#[test]
fn schedule_document_beam() {
    let dir = scratch_dir("beam");
    gen_fig1(&dir);
    let doc = run(
        &dir,
        &[
            "schedule",
            "--input",
            "fig1.el",
            "--r",
            "4",
            "--scheduler",
            "beam:1",
        ],
    );
    check_golden("schedule_fig1_beam1.json", &doc);
}

#[test]
fn schedule_document_streaming_greedy() {
    // The default scheduler takes the streaming certification path, which
    // must emit the identical document schema.
    let dir = scratch_dir("greedy");
    gen_fig1(&dir);
    let doc = run(&dir, &["schedule", "--input", "fig1.el", "--r", "4"]);
    check_golden("schedule_fig1_greedy.json", &doc);
}

#[test]
fn schedule_document_compose() {
    let dir = scratch_dir("compose");
    gen_fig1(&dir);
    let doc = run(
        &dir,
        &[
            "schedule",
            "--input",
            "fig1.el",
            "--r",
            "4",
            "--scheduler",
            "compose",
        ],
    );
    check_golden("schedule_fig1_compose.json", &doc);
}

#[test]
fn schedule_document_rbp_model() {
    let dir = scratch_dir("rbp");
    gen_fig1(&dir);
    let doc = run(
        &dir,
        &[
            "schedule",
            "--input",
            "fig1.el",
            "--r",
            "6",
            "--model",
            "rbp",
            "--scheduler",
            "greedy:belady:natural",
        ],
    );
    check_golden("schedule_fig1_rbp.json", &doc);
}

#[test]
fn schedule_compose_certifies_the_composable_bound() {
    // `--scheduler compose` runs the same certified solve as `--deadline-ms`,
    // `serve` and `warm`: on fig1 at r = 2 the composable bound proves the
    // cost-12 schedule optimal, where the initial-state ladder alone says 2.
    let dir = scratch_dir("compose-r2");
    gen_fig1(&dir);
    let doc = run(
        &dir,
        &[
            "schedule",
            "--input",
            "fig1.el",
            "--r",
            "2",
            "--scheduler",
            "compose",
        ],
    );
    assert!(doc.contains("\"cost\":12,"), "{doc}");
    assert!(doc.contains("{\"name\":\"compose\",\"value\":12}"), "{doc}");
    assert!(doc.contains("\"best_bound\":12}"), "{doc}");
}

/// Run the binary in `dir`, asserting exit code 2 (a usage error); returns
/// the first line of stderr, the error message.
fn usage_error(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_prbp"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn prbp");
    assert_eq!(out.status.code(), Some(2), "prbp {args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    stderr.lines().next().unwrap_or_default().to_string()
}

#[test]
fn retired_eviction_policies_are_usage_errors() {
    let dir = scratch_dir("policies");
    gen_fig1(&dir);
    for scheduler in ["greedy:lru:natural", "greedy:fewest:dfs"] {
        let args = [
            "schedule",
            "--input",
            "fig1.el",
            "--r",
            "4",
            "--scheduler",
            scheduler,
        ];
        let error = usage_error(&dir, &args);
        assert!(error.contains("unknown eviction policy"), "{error}");
    }
}

#[test]
fn retired_options_are_usage_errors() {
    // Each entry point certifies with one configuration: the bound-set,
    // suite and exact-budget knobs are gone, and naming one is a usage
    // error that names it.
    let dir = scratch_dir("retired");
    gen_fig1(&dir);
    let schedule = ["schedule", "--input", "fig1.el", "--r", "4"];
    let bound = ["bound", "--input", "fig1.el", "--r", "4"];
    let warm = ["warm", "--cache-dir", "cache", "--dir", ".", "--r", "4"];
    let cases: [(&[&str], [&str; 2], &str); 5] = [
        (&schedule, ["--bounds", "full"], "--bounds"),
        (&bound, ["--bounds", "fast"], "--bounds"),
        (&schedule, ["--scheduler", "suite"], "`suite`"),
        (&schedule, ["--scheduler", "compose:20"], "`compose:20`"),
        (&warm, ["--exact-budget", "30"], "--exact-budget"),
    ];
    for (command, option, named) in cases {
        let error = usage_error(&dir, &[command, &option].concat());
        assert!(error.contains(named), "{option:?}: {error}");
    }
}

#[test]
fn bound_document() {
    let dir = scratch_dir("bound");
    gen_fig1(&dir);
    let doc = run(&dir, &["bound", "--input", "fig1.el", "--r", "4"]);
    check_golden("bound_fig1.json", &doc);
}

#[test]
fn schedule_document_escapes_awkward_paths() {
    // Paths land inside JSON strings; quotes and non-ASCII must be escaped
    // with real JSON escapes (schema consumers use strict parsers).
    let dir = scratch_dir("escape");
    run(
        dir.as_path(),
        &["gen", "--family", "fig1", "--out", "fig\"1ü.el"],
    );
    let doc = run(
        &dir,
        &[
            "schedule",
            "--input",
            "fig\"1ü.el",
            "--r",
            "4",
            "--scheduler",
            "beam:1",
        ],
    );
    check_golden("schedule_escaped_path.json", &doc);
    // And it must still be machine-parseable JSON.
    assert!(doc.contains("\\\""));
}
