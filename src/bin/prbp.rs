//! `prbp` — schedule and certify DAG workloads from the command line.
//!
//! Subcommands:
//!
//! * `prbp gen` — generate a paper DAG family (FFT, matmul, attention, tree,
//!   random layered, fig1) in any interchange format;
//! * `prbp schedule` — read a DAG (edge-list / DOT subset / JSON), schedule
//!   it under RBP or PRBP and emit a certified [`ScheduleReport`] as JSON.
//!   Greedy schedulers run through the *streaming* pipeline: the move
//!   sequence is validated and certified as it is produced, never stored, so
//!   million-node DAGs run in memory proportional to the graph itself;
//! * `prbp bound` — evaluate the admissible lower-bound ladder only;
//! * `prbp convert` — translate between the interchange formats;
//! * `prbp serve` — run the certified-scheduling HTTP service over a
//!   content-addressed schedule cache;
//! * `prbp warm` — precompute that cache from a directory of instances;
//! * `prbp submit` — client for a running `prbp serve` (deterministic
//!   exponential-backoff retries on transient connection failures);
//! * `prbp trace` — analyse a `--trace` JSONL capture: per-phase span
//!   counts and total times.
//!
//! Exit codes: 0 success, 1 runtime/parse error, 2 usage error, 3 deadline
//! expired before any incumbent schedule existed (`--deadline-ms` solves and
//! `submit`; the JSON document carries `"status":"deadline-no-incumbent"`).

use pebble_dag::{generators, Dag};
use pebble_io::Format;
use pebble_obs::trace::JsonlSink;
use pebble_sched::{
    certify_greedy_prbp, certify_greedy_rbp, certify_prbp_with, certify_rbp_with,
    compose_certified, prbp_bound_ladder, rbp_bound_ladder, BoundSet, BoundValue, ComposeConfig,
    ComposeError, FurthestInFuture, ScheduleReport, Scheduler,
};
use pebble_serve::http::{client_request_with_retries, Backoff};
use pebble_serve::{warm_from_dir, ScheduleCache, ServeConfig, Server};
use std::collections::HashMap;
use std::io::Read;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "prbp — schedule and certify DAG workloads in the (P)RBP pebble games

USAGE:
  prbp gen --family <name> [family options] [--format F] [--out PATH]
      families:
        fft        --m <points>                  (m-point FFT butterfly)
        matmul     --m1 <n> --m2 <n> --m3 <n>    (matrix multiplication)
        attention  --m <rows> --d <cols>         (Q.K^T attention)
        tree       --depth <d>                   (binary reduction tree)
        random     --layers <n> --width <n> [--max-in <n>] [--seed <n>]
        fig1                                     (the paper's Figure 1 DAG)
  prbp schedule --input PATH --r <cache> [--model prbp|rbp] [--format F]
                [--scheduler S] [--out PATH]
                [--deadline-ms MS [--workers N]] [--trace FILE.jsonl]
      S: greedy:belady:<natural|dfs> (default greedy:belady:dfs,
         streaming), baseline, beam:<width>[:<branch>] (PRBP only), or
         compose (structure-aware decomposition, certified with the
         composable `compose` bound; PRBP only)
      --deadline-ms runs the certified compose solve instead of
         --scheduler (PRBP only): the best stitched schedule found within
         the wall-clock budget, components scheduled on --workers threads
         (0 = all cores; above 512 nodes the whole-DAG portfolio members
         and the candidate decompositions also run side by side on them,
         with the same answer for every count), certified with the bound
         ladder plus the composable `compose` bound
      --trace FILE.jsonl streams typed observability events (phase spans)
         to FILE; analyse with `prbp trace`
  prbp bound --input PATH --r <cache> [--model prbp|rbp] [--format F]
             [--out PATH]
  prbp convert --input PATH --out PATH [--from F] [--to F]
  prbp serve --cache-dir DIR [--addr HOST:PORT] [--deadline-ms MS]
             [--workers N] [--solver-workers N]
      certified scheduling as a service: POST /v1/schedule answers with a
      validated ScheduleReport, repeated shapes from the content-addressed
      cache (see docs/API.md)
  prbp warm --cache-dir DIR --dir INSTANCE_DIR --r <cache> [--out PATH]
      precompute the cache: schedule every instance file in INSTANCE_DIR
      with the structure-aware compose pipeline and store the certificates
  prbp submit --addr HOST:PORT --input PATH --r <cache>
              [--deadline-ms MS] [--format F] [--out PATH]
      send one DAG to a running server; exit 3 if the server reports
      deadline-no-incumbent. Transient connection failures retry under
      deterministic exponential backoff (250 ms doubling, capped at 4 s)
  prbp trace FILE.jsonl
      analyse a --trace capture: per-phase span counts and total times;
      `-` reads stdin

  F: edgelist | dot | json (default: by file extension, else sniffed;
     `--input -` reads stdin)
";

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "-h" || argv[0] == "help" {
        print!("{USAGE}");
        return if argv.is_empty() { 2 } else { 0 };
    }
    let cmd = argv[0].clone();
    let result = if cmd == "trace" {
        // `trace` takes a positional path, not `--key value` flags.
        cmd_trace(&argv[1..])
    } else {
        let args = match Args::parse(&argv[1..]) {
            Ok(a) => a,
            Err(e) => return usage_error(&e),
        };
        match cmd.as_str() {
            "gen" => cmd_gen(&args),
            "schedule" => cmd_schedule(&args),
            "bound" => cmd_bound(&args),
            "convert" => cmd_convert(&args),
            "serve" => cmd_serve(&args),
            "warm" => cmd_warm(&args),
            "submit" => cmd_submit(&args),
            other => return usage_error(&format!("unknown subcommand `{other}`")),
        }
    };
    match result {
        Ok(()) => 0,
        Err(CliError::Usage(msg)) => usage_error(&msg),
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            1
        }
        Err(CliError::DeadlineNoIncumbent(msg)) => {
            eprintln!("error: {msg}");
            3
        }
    }
}

fn usage_error(msg: &str) -> i32 {
    eprintln!("error: {msg}\n\n{USAGE}");
    2
}

enum CliError {
    Usage(String),
    Runtime(String),
    /// The deadline expired before any incumbent schedule existed. Exit
    /// code 3; the machine-readable document has already been written.
    DeadlineNoIncumbent(String),
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn runtime(msg: impl Into<String>) -> CliError {
    CliError::Runtime(msg.into())
}

/// `--key value` / `--key=value` flag parser; every flag takes a value.
struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags = HashMap::new();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}`"));
            };
            let (key, value) = match key.split_once('=') {
                Some((k, v)) => (k.to_string(), v.to_string()),
                None => {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("flag --{key} needs a value"))?;
                    (key.to_string(), v.clone())
                }
            };
            if flags.insert(key.clone(), value).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
        }
        Ok(Args { flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| usage(format!("missing required flag --{key}")))
    }

    fn parse_usize(&self, key: &str) -> Result<Option<usize>, CliError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse::<usize>()
                .map(Some)
                .map_err(|_| usage(format!("--{key} expects a non-negative integer, got `{v}`"))),
        }
    }

    fn require_usize(&self, key: &str) -> Result<usize, CliError> {
        self.require(key)?;
        Ok(self.parse_usize(key)?.expect("checked by require"))
    }

    fn usize_or(&self, key: &str, default: usize) -> Result<usize, CliError> {
        Ok(self.parse_usize(key)?.unwrap_or(default))
    }

    /// Reject flags this subcommand does not know (catches typos early).
    fn check_known(&self, known: &[&str]) -> Result<(), CliError> {
        for key in self.flags.keys() {
            if !known.contains(&key.as_str()) {
                return Err(usage(format!("unknown flag --{key}")));
            }
        }
        Ok(())
    }
}

/// Resolve a format from an explicit flag, a path's extension, or content.
fn resolve_format(
    explicit: Option<&str>,
    path: Option<&str>,
    content: Option<&str>,
) -> Result<Format, CliError> {
    if let Some(f) = explicit {
        return f.parse::<Format>().map_err(usage);
    }
    if let Some(p) = path {
        if p != "-" {
            if let Some(f) = Format::from_path(p) {
                return Ok(f);
            }
        }
    }
    match content {
        Some(text) => Ok(Format::sniff(text)),
        None => Err(usage(
            "cannot infer a format from the file extension; pass --format",
        )),
    }
}

fn read_input(path: &str) -> Result<String, CliError> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| runtime(format!("reading stdin: {e}")))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| runtime(format!("{path}: {e}")))
    }
}

fn write_output(out: Option<&str>, text: &str) -> Result<(), CliError> {
    match out {
        None | Some("-") => {
            print!("{text}");
            Ok(())
        }
        Some(path) => std::fs::write(path, text).map_err(|e| runtime(format!("{path}: {e}"))),
    }
}

fn load_dag(args: &Args) -> Result<(Dag, Format, String), CliError> {
    let path = args.require("input")?.to_string();
    let text = read_input(&path)?;
    let format = resolve_format(args.get("format"), Some(&path), Some(&text))?;
    let dag = pebble_io::parse(&text, format).map_err(|e| runtime(format!("{path}: {e}")))?;
    Ok((dag, format, path))
}

fn cmd_gen(args: &Args) -> Result<(), CliError> {
    args.check_known(&[
        "family", "m", "d", "m1", "m2", "m3", "depth", "layers", "width", "max-in", "seed",
        "format", "out",
    ])?;
    let family = args.require("family")?;
    // Validate parameters up-front: the generators enforce their invariants
    // with `assert!`, and a panic (exit 101) is not part of this tool's
    // documented exit-code contract.
    let dag = match family {
        "fft" => {
            let m = args.usize_or("m", 1024)?;
            if m < 2 || !m.is_power_of_two() {
                return Err(usage(format!("--m must be a power of two >= 2, got {m}")));
            }
            generators::fft(m).dag
        }
        "matmul" => {
            let (m1, m2, m3) = (
                args.usize_or("m1", 8)?,
                args.usize_or("m2", 8)?,
                args.usize_or("m3", 8)?,
            );
            if m1 == 0 || m2 == 0 || m3 == 0 {
                return Err(usage("--m1/--m2/--m3 must all be >= 1"));
            }
            generators::matmul(m1, m2, m3).dag
        }
        "attention" => {
            let (m, d) = (args.usize_or("m", 64)?, args.usize_or("d", 16)?);
            if m == 0 || d == 0 {
                return Err(usage("--m and --d must be >= 1"));
            }
            generators::attention_qk(m, d).dag
        }
        "tree" => {
            let depth = args.usize_or("depth", 8)?;
            if depth == 0 {
                return Err(usage("--depth must be >= 1"));
            }
            generators::binary_tree(depth)
        }
        "random" => {
            let (layers, width, max_in) = (
                args.usize_or("layers", 8)?,
                args.usize_or("width", 32)?,
                args.usize_or("max-in", 3)?,
            );
            if layers < 2 || width == 0 || max_in == 0 {
                return Err(usage(
                    "random needs --layers >= 2, --width >= 1 and --max-in >= 1",
                ));
            }
            generators::random_layered(generators::RandomLayeredConfig {
                layers,
                width,
                max_in_degree: max_in,
                seed: args.usize_or("seed", 0)? as u64,
            })
        }
        "fig1" => generators::fig1_full().dag,
        other => {
            return Err(usage(format!(
                "unknown family `{other}` (expected fft, matmul, attention, tree, random or fig1)"
            )))
        }
    };
    // An explicit --format must parse; only a failed *inference* (no flag,
    // no recognisable extension) falls back to the edge-list default.
    let format = match args.get("format") {
        Some(f) => f.parse::<Format>().map_err(usage)?,
        None => args
            .get("out")
            .filter(|p| *p != "-")
            .and_then(Format::from_path)
            .unwrap_or(Format::EdgeList),
    };
    eprintln!(
        "generated {family}: {} nodes, {} edges ({format})",
        dag.node_count(),
        dag.edge_count()
    );
    write_output(args.get("out"), &pebble_io::write(&dag, format))
}

use pebble_io::json::escape as json_escape;

/// The `input` object of the output documents.
fn input_json(path: &str, format: Format, dag: &Dag) -> String {
    format!(
        "{{\"path\":\"{}\",\"format\":\"{}\",\"nodes\":{},\"edges\":{}}}",
        json_escape(path),
        format.name(),
        dag.node_count(),
        dag.edge_count()
    )
}

/// Serialise the schedule output document: input metadata, the certified
/// report, and the gap as a top-level convenience field. A `--deadline-ms`
/// solve adds `"status":"ok"` and its `"deadline":{...}` member.
fn schedule_doc(
    path: &str,
    format: Format,
    dag: &Dag,
    report: &ScheduleReport,
    deadline: Option<&str>,
) -> String {
    let report_json = serde_json::to_string(report).expect("report serialises");
    let (status, deadline) = match deadline {
        Some(member) => ("\"status\":\"ok\",", format!(",{member}")),
        None => ("", String::new()),
    };
    format!(
        "{{{status}\"input\":{}{deadline},\"report\":{},\"gap\":{:.4}}}\n",
        input_json(path, format, dag),
        report_json,
        report.gap()
    )
}

fn cmd_schedule(args: &Args) -> Result<(), CliError> {
    args.check_known(&[
        "input",
        "format",
        "r",
        "model",
        "scheduler",
        "out",
        "deadline-ms",
        "workers",
        "trace",
    ])?;
    let traced = match args.get("trace") {
        Some(p) => {
            let sink = JsonlSink::create(std::path::Path::new(p))
                .map_err(|e| runtime(format!("--trace {p}: {e}")))?;
            pebble_obs::trace::set_sink(Arc::new(sink));
            true
        }
        None => false,
    };
    let result = schedule_run(args);
    if traced {
        // Flush and detach the JSONL sink: the process exits through
        // `std::process::exit`, which runs no destructors.
        pebble_obs::trace::clear_sink();
    }
    result
}

fn schedule_run(args: &Args) -> Result<(), CliError> {
    let parse_span = pebble_obs::trace::span("cli:parse");
    let (dag, format, path) = load_dag(args)?;
    drop(parse_span);
    let r = args.require_usize("r")?;
    let model = args.get("model").unwrap_or("prbp");
    let sched_name = args.get("scheduler").unwrap_or("greedy:belady:dfs");

    let solve_span = pebble_obs::trace::span("cli:solve");
    // The `"deadline":{...}` member of a `--deadline-ms` solve's document.
    let mut deadline_member = None;
    let report = if let Some(deadline_ms) = args.parse_usize("deadline-ms")? {
        if model != "prbp" {
            return Err(usage("--deadline-ms (the compose solve) is PRBP-only"));
        }
        if args.get("scheduler").is_some() {
            return Err(usage(
                "--deadline-ms runs the compose solve; drop --scheduler",
            ));
        }
        if deadline_ms == 0 {
            return Err(usage("--deadline-ms must be >= 1"));
        }
        let workers = args.usize_or("workers", 0)?;
        let config = ComposeConfig {
            deadline: Some(Duration::from_millis(deadline_ms as u64)),
            threads: workers,
            ..ComposeConfig::default()
        };
        let started = Instant::now();
        let solved = compose_certified(&dag, r, &config);
        let solve_ms = started.elapsed().as_millis();
        let member = format!("\"deadline\":{{\"deadline_ms\":{deadline_ms},\"workers\":{workers}");
        match solved {
            Ok(certified) => {
                deadline_member = Some(format!("{member},\"solve_ms\":{solve_ms}}}"));
                certified.report
            }
            Err(ComposeError::SmallR { r }) => {
                return Err(runtime(format!("r = {r} is too small (PRBP needs r >= 2)")))
            }
            Err(ComposeError::DeadlineNoIncumbent) => {
                // A budget too small to stitch even one candidate is a
                // distinct, machine-readable outcome (exit code 3).
                let doc = format!(
                    "{{\"status\":\"deadline-no-incumbent\",\"input\":{},{member}}}}}\n",
                    input_json(&path, format, &dag)
                );
                write_output(args.get("out"), &doc)?;
                return Err(CliError::DeadlineNoIncumbent(format!(
                    "deadline of {deadline_ms} ms expired before any incumbent schedule \
                     existed for {path} at r = {r}"
                )));
            }
            Err(e @ ComposeError::Invalid(_)) => return Err(runtime(e.to_string())),
        }
    } else if args.get("workers").is_some() {
        return Err(usage("--workers requires --deadline-ms"));
    } else {
        let scheduler: Scheduler = sched_name.parse().map_err(|e: String| usage(e))?;
        let set = BoundSet::auto_for(&dag);
        match (scheduler, model) {
            // Greedy schedulers go through the streaming pipeline: moves are
            // certified as they are emitted and never materialised.
            (Scheduler::Greedy { order }, "prbp") => {
                let ord = order.build(&dag);
                certify_greedy_prbp(&dag, r, &ord, &mut FurthestInFuture, sched_name, set)
                    .ok_or_else(|| runtime(format!("r = {r} is too small (PRBP needs r >= 2)")))?
                    .map_err(|e| runtime(format!("certification failed: {e}")))?
            }
            (Scheduler::Greedy { order }, "rbp") => {
                let ord = order.build(&dag);
                certify_greedy_rbp(&dag, r, &ord, &mut FurthestInFuture, sched_name, set)
                    .ok_or_else(|| {
                        runtime(format!(
                            "r = {r} is too small (RBP needs r >= max in-degree + 1 = {})",
                            dag.max_in_degree() + 1
                        ))
                    })?
                    .map_err(|e| runtime(format!("certification failed: {e}")))?
            }
            // The same certified solve as `--deadline-ms`, `serve` and `warm`,
            // so the ladder carries the composable `compose` bound.
            (Scheduler::Compose, "prbp") => {
                compose_certified(&dag, r, &ComposeConfig::default())
                    .map_err(|e| runtime(e.to_string()))?
                    .report
            }
            (s, "prbp") => {
                let trace = s.run_prbp(&dag, r).ok_or_else(|| {
                    runtime(format!(
                        "scheduler `{s}` cannot handle this instance at r = {r}"
                    ))
                })?;
                certify_prbp_with(&dag, r, &trace, sched_name, set)
                    .map_err(|e| runtime(format!("certification failed: {e}")))?
            }
            (Scheduler::Beam { .. } | Scheduler::Compose, "rbp") => {
                return Err(usage(format!(
                    "scheduler `{sched_name}` is PRBP-only; drop --model rbp"
                )))
            }
            (s, "rbp") => {
                let trace = s.run_rbp(&dag, r).ok_or_else(|| {
                    runtime(format!(
                        "scheduler `{s}` cannot handle this instance in RBP at r = {r}"
                    ))
                })?;
                certify_rbp_with(&dag, r, &trace, sched_name, set)
                    .map_err(|e| runtime(format!("certification failed: {e}")))?
            }
            (_, other) => return Err(usage(format!("--model expects prbp or rbp, got `{other}`"))),
        }
    };
    drop(solve_span);

    eprintln!(
        "{}: {} nodes, {} edges | {} r={} cost={} best_bound={} gap={:.2}x",
        path,
        dag.node_count(),
        dag.edge_count(),
        report.scheduler,
        r,
        report.cost,
        report.best_bound,
        report.gap()
    );
    let _write_span = pebble_obs::trace::span("cli:write");
    let doc = schedule_doc(&path, format, &dag, &report, deadline_member.as_deref());
    write_output(args.get("out"), &doc)
}

fn cmd_trace(rest: &[String]) -> Result<(), CliError> {
    let path = match rest {
        [p] if !p.starts_with("--") => p.as_str(),
        _ => {
            return Err(usage(
                "trace expects exactly one JSONL file path (`-` reads stdin)",
            ))
        }
    };
    let text = read_input(path)?;
    let events =
        pebble_obs::analyze::parse_jsonl(&text).map_err(|e| runtime(format!("{path}: {e}")))?;
    print!("{}", pebble_obs::analyze::summarize(&events));
    Ok(())
}

fn cmd_bound(args: &Args) -> Result<(), CliError> {
    args.check_known(&["input", "format", "r", "model", "out"])?;
    let (dag, _, path) = load_dag(args)?;
    let r = args.require_usize("r")?;
    let set = BoundSet::auto_for(&dag);
    let model = args.get("model").unwrap_or("prbp");
    let (bounds, best): (Vec<BoundValue>, usize) = match model {
        "prbp" => prbp_bound_ladder(&dag, r, set),
        "rbp" => rbp_bound_ladder(&dag, r, set),
        other => return Err(usage(format!("--model expects prbp or rbp, got `{other}`"))),
    };
    let bounds_json = serde_json::to_string(&bounds).expect("bounds serialise");
    let doc = format!(
        "{{\"input\":\"{}\",\"model\":\"{model}\",\"r\":{r},\"bounds\":{bounds_json},\"best_bound\":{best}}}\n",
        json_escape(&path)
    );
    write_output(args.get("out"), &doc)
}

fn cmd_convert(args: &Args) -> Result<(), CliError> {
    args.check_known(&["input", "out", "from", "to"])?;
    let path = args.require("input")?.to_string();
    let text = read_input(&path)?;
    let from = resolve_format(args.get("from"), Some(&path), Some(&text))?;
    let dag = pebble_io::parse(&text, from).map_err(|e| runtime(format!("{path}: {e}")))?;
    let out = args.require("out")?.to_string();
    // This subcommand's format flags are --from/--to, so the generic
    // "pass --format" advice of resolve_format would send users to a flag
    // convert rejects.
    let to = match args.get("to") {
        Some(f) => f.parse::<Format>().map_err(usage)?,
        None => Format::from_path(&out)
            .ok_or_else(|| usage("cannot infer the output format from `--out`; pass --to"))?,
    };
    eprintln!(
        "{path} ({from}) -> {out} ({to}): {} nodes, {} edges",
        dag.node_count(),
        dag.edge_count()
    );
    write_output(Some(&out), &pebble_io::write(&dag, to))
}

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    args.check_known(&[
        "cache-dir",
        "addr",
        "deadline-ms",
        "workers",
        "solver-workers",
    ])?;
    let cache_dir = args.require("cache-dir")?.to_string();
    let deadline_ms = args.usize_or("deadline-ms", 250)?;
    if deadline_ms == 0 {
        return Err(usage("--deadline-ms must be >= 1"));
    }
    let config = ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7117").to_string(),
        workers: args.usize_or("workers", 4)?.max(1),
        deadline: Duration::from_millis(deadline_ms as u64),
        solver_workers: args.usize_or("solver-workers", 0)?,
        ..ServeConfig::default()
    };
    let cache = Arc::new(
        ScheduleCache::open(&cache_dir).map_err(|e| runtime(format!("--cache-dir: {e}")))?,
    );
    let entries = cache.entry_count();
    let server =
        Server::start(&config, cache).map_err(|e| runtime(format!("starting server: {e}")))?;
    eprintln!(
        "prbp-serve listening on http://{} (cache {cache_dir}: {entries} entries, \
         default deadline {deadline_ms} ms, {} workers)",
        server.local_addr(),
        config.workers
    );
    // Serve until killed; the acceptor and pool run on their own threads.
    loop {
        std::thread::park();
    }
}

fn cmd_warm(args: &Args) -> Result<(), CliError> {
    args.check_known(&["cache-dir", "dir", "r", "out"])?;
    let cache_dir = args.require("cache-dir")?.to_string();
    let dir = args.require("dir")?.to_string();
    let r = args.require_usize("r")?;
    let cache =
        ScheduleCache::open(&cache_dir).map_err(|e| runtime(format!("--cache-dir: {e}")))?;
    let summary = warm_from_dir(&cache, std::path::Path::new(&dir), r)
        .map_err(|e| runtime(format!("warming from {dir}: {e}")))?;
    eprintln!(
        "warmed {cache_dir} from {dir} at r={r}: {} files, {} inserted, {} skipped \
         (already cached at <= cost), {} failed",
        summary.files, summary.inserted, summary.skipped, summary.failed
    );
    let doc = format!(
        "{{\"status\":\"ok\",\"r\":{r},\"files\":{},\"inserted\":{},\"skipped\":{},\"failed\":{}}}\n",
        summary.files, summary.inserted, summary.skipped, summary.failed
    );
    write_output(args.get("out"), &doc)
}

fn cmd_submit(args: &Args) -> Result<(), CliError> {
    args.check_known(&["addr", "input", "r", "deadline-ms", "format", "out"])?;
    let addr = args.require("addr")?.to_string();
    let r = args.require_usize("r")?;
    let path = args.require("input")?.to_string();
    let text = read_input(&path)?;
    let mut target = format!("/v1/schedule?r={r}");
    if let Some(deadline_ms) = args.parse_usize("deadline-ms")? {
        target.push_str(&format!("&deadline_ms={deadline_ms}"));
    }
    if let Some(f) = args.get("format") {
        let f = f.parse::<Format>().map_err(usage)?;
        target.push_str(&format!("&format={}", f.name()));
    }
    // Generous retry window: the server may still be binding its listener
    // when a script starts both back-to-back. Backoff doubles from 250 ms
    // and plateaus at 4 s, deterministically.
    let (status, body) = client_request_with_retries(
        &addr,
        "POST",
        &target,
        text.as_bytes(),
        Duration::from_secs(600),
        20,
        Backoff::new(Duration::from_millis(250), Duration::from_secs(4)),
    )
    .map_err(|e| runtime(format!("request to {addr} failed: {e}")))?;
    let mut body = String::from_utf8_lossy(&body).into_owned();
    if !body.ends_with('\n') {
        body.push('\n');
    }
    write_output(args.get("out"), &body)?;
    match status {
        200 => Ok(()),
        504 => Err(CliError::DeadlineNoIncumbent(format!(
            "server at {addr} reported deadline-no-incumbent for {path} at r = {r}"
        ))),
        other => Err(runtime(format!(
            "server at {addr} answered {other}: {}",
            body.trim_end()
        ))),
    }
}
