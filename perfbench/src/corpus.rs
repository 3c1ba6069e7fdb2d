//! `corpus-compose`: the structure-aware batch path. Each instance goes
//! from edge-list text to a certified report through `compose_prbp` and
//! `certify_prbp_with_bounds` (the `BoundSet::auto_for` ladder plus the
//! composable `compose` bound), all at r = 16.

use crate::check::{check_report, COMPOSE_BOUND};
use crate::ledger::{Layers, Snapshot, SpanLedger};
use crate::stats::{geomean, median, Tally};
use crate::{machine, metric, time_set_ups, Opts, Outcome, SETUPS};
use pebble_dag::generators::{attention_full, fft, matmul, random_layered, RandomLayeredConfig};
use pebble_game::{PrbpConfig, PrbpTrace};
use pebble_io::Format;
use pebble_sched::{
    certify_prbp_with_bounds, compose_prbp, prbp_bound_ladder, BoundSet, BoundValue, ComposeConfig,
    ScheduleReport,
};
use std::time::Instant;

const R: usize = 16;

struct Instance {
    name: &'static str,
    text: String,
}

/// The corpus; only the random-layered DAG depends on the seed.
fn instances(seed: u64) -> Vec<Instance> {
    let random = random_layered(RandomLayeredConfig {
        layers: 80,
        width: 128,
        max_in_degree: 3,
        seed,
    });
    [
        ("fft-256", fft(256).dag),
        ("fft-1024", fft(1024).dag),
        ("matmul-8", matmul(8, 8, 8).dag),
        ("matmul-16", matmul(16, 16, 16).dag),
        ("attention-24x8", attention_full(24, 8).dag),
        ("random-80x128", random),
    ]
    .into_iter()
    .map(|(name, dag)| Instance {
        name,
        text: pebble_io::write(&dag, Format::EdgeList),
    })
    .collect()
}

/// One certification, with the wall time of each step on its path.
struct Certified {
    report: ScheduleReport,
    trace: PrbpTrace,
    components: usize,
    exact_components: usize,
    parse_s: f64,
    compose_s: f64,
    total_s: f64,
}

/// DAG text in memory to a certified report.
fn certify(text: &str) -> Result<Certified, String> {
    let started = Instant::now();
    let dag = pebble_io::parse(text, Format::EdgeList).map_err(|e| e.to_string())?;
    let parse_s = started.elapsed().as_secs_f64();
    let outcome = compose_prbp(&dag, R, &ComposeConfig::default())
        .ok_or_else(|| format!("compose cannot schedule at r={R}"))?;
    let compose_s = started.elapsed().as_secs_f64() - parse_s;
    let extra: Vec<BoundValue> = outcome
        .composed_bound
        .map(|value| BoundValue {
            name: COMPOSE_BOUND.to_string(),
            value,
        })
        .into_iter()
        .collect();
    let report = certify_prbp_with_bounds(
        &dag,
        R,
        &outcome.trace,
        "compose",
        BoundSet::auto_for(&dag),
        extra,
    )
    .map_err(|e| format!("certification failed: {e}"))?;
    Ok(Certified {
        report,
        trace: outcome.trace,
        components: outcome.components,
        exact_components: outcome.exact_components,
        parse_s,
        compose_s,
        total_s: started.elapsed().as_secs_f64(),
    })
}

/// Passes over the corpus until `seconds` have elapsed (at least one).
fn passes(corpus: &[Instance], seconds: f64) -> Vec<Vec<Result<Certified, String>>> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || started.elapsed().as_secs_f64() < seconds {
        out.push(corpus.iter().map(|inst| certify(&inst.text)).collect());
    }
    out
}

/// The time one pass spent on certification: the sum of its instances'.
fn pass_s(pass: &[Result<Certified, String>]) -> f64 {
    pass.iter().flatten().map(|c| c.total_s).sum()
}

/// One pass with every instance at its fastest over `passes`: other work on
/// a shared machine only ever adds time, often half again for seconds at a
/// time.
fn best_pass_s(passes: &[Vec<Result<Certified, String>>]) -> f64 {
    (0..passes[0].len())
        .map(|i| {
            passes
                .iter()
                .filter_map(|pass| pass[i].as_ref().ok())
                .map(|c| c.total_s)
                .reduce(f64::min)
                .unwrap_or(0.0)
        })
        .sum()
}

/// Time the benchmark's own ladder and replay calls took, per instance.
struct CheckTimes {
    ladder_s: Vec<f64>,
    validate_s: Vec<f64>,
}

/// Check every certificate of every pass and tally the operations. A
/// certificate identical to one already checked for the same instance is
/// not checked twice.
fn check_all(
    corpus: &[Instance],
    runs: &[Vec<Vec<Result<Certified, String>>>],
    tally: &mut Tally,
) -> CheckTimes {
    let mut times = CheckTimes {
        ladder_s: vec![0.0; corpus.len()],
        validate_s: vec![0.0; corpus.len()],
    };
    let mut checked: Vec<Vec<(ScheduleReport, PrbpTrace)>> = vec![Vec::new(); corpus.len()];
    for pass in runs.iter().flatten() {
        for (i, result) in pass.iter().enumerate() {
            let verdict = match result {
                Err(e) => Err(e.clone()),
                Ok(c)
                    if checked[i]
                        .iter()
                        .any(|(r, t)| *r == c.report && *t == c.trace) =>
                {
                    Ok(())
                }
                Ok(c) => {
                    let dag = pebble_io::parse(&corpus[i].text, Format::EdgeList)
                        .expect("the corpus parsed once already");
                    let started = Instant::now();
                    let (ladder, _) = prbp_bound_ladder(&dag, R, BoundSet::auto_for(&dag));
                    let ladder_done = Instant::now();
                    let replayed = c.trace.validate(&dag, PrbpConfig::new(R));
                    times.ladder_s[i] = (ladder_done - started).as_secs_f64();
                    times.validate_s[i] = ladder_done.elapsed().as_secs_f64();
                    checked[i].push((c.report.clone(), c.trace.clone()));
                    match replayed {
                        Ok(cost) => {
                            check_report(&c.report, R, &ladder, Some((cost, c.trace.len())))
                        }
                        Err(e) => Err(format!("trace does not replay: {e}")),
                    }
                }
            };
            if let Err(e) = &verdict {
                eprintln!("corpus-compose: {}: {e}", corpus[i].name);
            }
            tally.record(verdict.is_ok());
        }
    }
    times
}

/// Program set-up: the first certification in a process, of a tiny DAG
/// through the workload's own path (first-call lazy initialisation).
pub fn set_up(ready: impl FnOnce()) -> Result<(), String> {
    certify(&pebble_io::write(&fft(16).dag, Format::EdgeList))?;
    ready();
    Ok(())
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let corpus = instances(opts.seed);
    let mut setups = time_set_ups(&opts.workload, SETUPS / 2)?;

    let phase_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let rss = machine::RssSampler::start();
    let untraced = passes(&corpus, phase_s);
    let rss_mb = rss.finish();
    let peak_rss_mb = machine::peak_rss_mb();
    setups.extend(time_set_ups(&opts.workload, SETUPS - SETUPS / 2)?);
    let mut runs = vec![untraced];
    let mut traced_layers = None;
    if opts.trace {
        let before = Snapshot::take();
        let spans = SpanLedger::install();
        let traced = passes(&corpus, phase_s);
        SpanLedger::uninstall();
        traced_layers = Some((spans, Snapshot::take().since(&before)));
        runs.push(traced);
    }

    let mut tally = Tally::default();
    let times = check_all(&corpus, &runs, &mut tally);
    let untraced = &runs[0];
    for (inst, result) in corpus.iter().zip(&untraced[0]) {
        if let Ok(c) = result {
            println!(
                "instance {:<16} {:>10.4} s  cost {:>8}  bound {:>7}  gap {:.4}",
                inst.name,
                c.total_s,
                c.report.cost,
                c.report.best_bound,
                c.report.gap()
            );
        }
    }
    let certify_s = best_pass_s(untraced);
    let gaps: Vec<f64> = runs
        .iter()
        .flatten()
        .flatten()
        .flatten()
        .map(|c| c.report.gap())
        .collect();
    let end_to_end = vec![
        metric("setup_s", median(&setups).expect("set-ups ran"), "s"),
        metric("certify_s", certify_s, "s"),
        metric("gap_geomean", geomean(&gaps).unwrap_or(0.0), "ratio"),
    ];

    let mut per_layer = Vec::new();
    if let Some((spans, counters)) = traced_layers {
        let traced = &runs[1];
        let n = traced.len() as f64;
        let all: Vec<&Certified> = traced.iter().flatten().flatten().collect();
        let sum = |f: fn(&Certified) -> f64| all.iter().map(|c| f(c)).sum::<f64>() / n;
        let traced_certify_s = traced.iter().map(|p| pass_s(p)).sum::<f64>() / n;
        let parse_s = sum(|c| c.parse_s);
        let compose_s = sum(|c| c.compose_s);
        let bytes: usize = corpus.iter().map(|i| i.text.len()).sum();
        let components = sum(|c| c.components as f64);
        let mut layers = Layers::default();
        layers.set("io.parse_s", parse_s);
        layers.set("io.parse_mb_per_s", bytes as f64 / 1e6 / parse_s);
        layers.set("compose.s", compose_s);
        layers.set(
            "compose.decompose_busy_s",
            spans.busy_s("compose:decompose") / n,
        );
        layers.set(
            "compose.components_busy_s",
            spans.busy_s("compose:component") / n,
        );
        layers.set("compose.stitch_busy_s", spans.busy_s("compose:stitch") / n);
        layers.set("compose.components", components);
        layers.set(
            "compose.exact_ratio",
            sum(|c| c.exact_components as f64) / components,
        );
        layers.set_portfolio(&spans, n);
        let ladder_s: f64 = times.ladder_s.iter().sum();
        let validate_s: f64 = times.validate_s.iter().sum();
        layers.set("bounds.ladder_s", ladder_s);
        layers.set("sim.validate_s", validate_s);
        layers.set_engine(&counters, n);
        let path_s = parse_s + compose_s + ladder_s + validate_s;
        layers.set("blocking_path_pct", 100.0 * path_s / traced_certify_s);
        layers.set(
            "trace_overhead_pct",
            100.0 * (best_pass_s(traced) - certify_s) / certify_s,
        );
        layers.set_opt("mem.peak_rss_mb", peak_rss_mb);
        layers.set_opt("mem.rss_mb_p50", median(&rss_mb));
        layers.set("fail_ratio", tally.ratio());
        per_layer = layers.into_metrics();
    }
    Ok(Outcome {
        tally,
        end_to_end,
        per_layer,
    })
}
