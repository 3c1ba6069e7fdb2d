//! `stream-fft-245k`: the default streaming path on the 245,760-node FFT
//! (m = 16384). Edge-list text is parsed and certified by
//! `certify_greedy_prbp` at r = 128 with Belady eviction over a DFS
//! postorder and the `BoundSet::auto_for` (here: linear-time) ladder.
//!
//! r = 128 keeps Belady's O(r)-per-eviction scan the largest cost. The
//! graph is a quarter of the 1,114,112-node FFT so that a run holds a few
//! dozen certifications, of which the fastest is reported: on a shared
//! machine the 1.1M-node one, four to six a run, spread by more than a
//! quarter from run to run.

use crate::check::check_report;
use crate::ledger::{Layers, Snapshot, SpanLedger};
use crate::stats::{geomean, median, Tally};
use crate::{machine, metric, time_set_ups, Opts, Outcome, SETUPS};
use pebble_dag::generators::fft;
use pebble_dag::{Dag, NodeId};
use pebble_game::PrbpConfig;
use pebble_io::Format;
use pebble_sched::{
    certify_greedy_prbp, greedy_prbp, order, prbp_bound_ladder, BoundSet, FurthestInFuture,
    ScheduleReport,
};
use std::time::Instant;

const M: usize = 16384;
const R: usize = 128;

struct Certified {
    report: ScheduleReport,
    parse_s: f64,
    order_s: f64,
    /// The `certify_greedy_prbp` call.
    call_s: f64,
    total_s: f64,
}

/// DAG text in memory to a certified report, as `prbp schedule` does by
/// default.
fn certify(text: &str) -> Result<Certified, String> {
    let started = Instant::now();
    let dag = pebble_io::parse(text, Format::EdgeList).map_err(|e| e.to_string())?;
    let parsed = Instant::now();
    let ord = order::dfs_postorder(&dag);
    let ordered = Instant::now();
    let report = certify_greedy_prbp(
        &dag,
        R,
        &ord,
        &mut FurthestInFuture,
        "greedy:belady:dfs",
        BoundSet::auto_for(&dag),
    )
    .ok_or_else(|| format!("greedy cannot schedule at r={R}"))?
    .map_err(|e| format!("certification failed: {e}"))?;
    let certified = Instant::now();
    drop((dag, ord));
    Ok(Certified {
        report,
        parse_s: (parsed - started).as_secs_f64(),
        order_s: (ordered - parsed).as_secs_f64(),
        call_s: (certified - ordered).as_secs_f64(),
        total_s: started.elapsed().as_secs_f64(),
    })
}

/// The steps `certify_greedy_prbp` runs back to back, called one at a time
/// by the benchmark on an already parsed and ordered DAG: the greedy
/// executor alone (its moves kept), the ladder, and the replay of the kept
/// moves.
struct Steps {
    greedy_s: f64,
    ladder_s: f64,
    validate_s: f64,
    /// The replay's cost and the number of moves replayed.
    replayed: (usize, usize),
}

fn steps(dag: &Dag, ord: &[NodeId]) -> Result<Steps, String> {
    let started = Instant::now();
    let trace = greedy_prbp(dag, R, ord, &mut FurthestInFuture)
        .ok_or_else(|| format!("greedy cannot schedule at r={R}"))?;
    let executed = Instant::now();
    prbp_bound_ladder(dag, R, BoundSet::auto_for(dag));
    let laddered = Instant::now();
    let cost = trace
        .validate(dag, PrbpConfig::new(R))
        .map_err(|e| format!("trace does not replay: {e}"))?;
    Ok(Steps {
        greedy_s: (executed - started).as_secs_f64(),
        ladder_s: (laddered - executed).as_secs_f64(),
        validate_s: laddered.elapsed().as_secs_f64(),
        replayed: (cost, trace.len()),
    })
}

/// The time of the fastest certification: other work on a shared machine
/// only ever adds time, often half again for seconds at a time.
fn fastest(times: impl Iterator<Item = f64>) -> f64 {
    times.reduce(f64::min).unwrap_or(0.0)
}

/// Program set-up: the first certification in a process, of a tiny DAG
/// through the workload's own path (first-call lazy initialisation).
pub fn set_up(ready: impl FnOnce()) -> Result<(), String> {
    certify(&pebble_io::write(&fft(16).dag, Format::EdgeList))?;
    ready();
    Ok(())
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    // The seed selects nothing here: the instance is the fixed FFT.
    let text = pebble_io::write(&fft(M).dag, Format::EdgeList);
    let mut setups = time_set_ups(&opts.workload, SETUPS / 2)?;

    let phase_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let rss = machine::RssSampler::start();
    let started = Instant::now();
    let mut untraced = Vec::new();
    while untraced.is_empty() || started.elapsed().as_secs_f64() < phase_s {
        untraced.push(certify(&text));
    }
    let rss_mb = rss.finish();
    let peak_rss_mb = machine::peak_rss_mb();
    setups.extend(time_set_ups(&opts.workload, SETUPS - SETUPS / 2)?);

    // The benchmark's own ladder, which every report must carry.
    let dag = pebble_io::parse(&text, Format::EdgeList).map_err(|e| e.to_string())?;
    let (ladder, _) = prbp_bound_ladder(&dag, R, BoundSet::auto_for(&dag));
    // Traced: each certification is followed by its steps, called one at a
    // time, so the blocking path is a sum of separate measurements.
    let traced = if opts.trace {
        let ord = order::dfs_postorder(&dag);
        let before = Snapshot::take();
        let spans = SpanLedger::install();
        let started = Instant::now();
        let mut traced = Vec::new();
        while traced.is_empty() || started.elapsed().as_secs_f64() < phase_s {
            traced.push(certify(&text).and_then(|c| Ok((c, steps(&dag, &ord)?))));
        }
        SpanLedger::uninstall();
        Some((spans, traced, Snapshot::take().since(&before)))
    } else {
        None
    };
    drop(dag);

    let mut tally = Tally::default();
    let untraced_checks = untraced.iter().map(|result| {
        result
            .as_ref()
            .map_err(String::clone)
            .and_then(|c| check_report(&c.report, R, &ladder, None))
    });
    let traced_results = traced.iter().flat_map(|(_, t, _)| t.iter());
    let traced_checks = traced_results.map(|result| {
        result
            .as_ref()
            .map_err(String::clone)
            .and_then(|(c, s)| check_report(&c.report, R, &ladder, Some(s.replayed)))
    });
    for verdict in untraced_checks.chain(traced_checks) {
        if let Err(e) = &verdict {
            eprintln!("stream-fft-245k: {e}");
        }
        tally.record(verdict.is_ok());
    }

    let ok: Vec<&Certified> = untraced.iter().flatten().collect();
    for c in &ok {
        println!(
            "certified in {:.4} s (parse {:.4} s, order {:.4} s)  cost {}  bound {}",
            c.total_s, c.parse_s, c.order_s, c.report.cost, c.report.best_bound
        );
    }
    let certify_s = fastest(ok.iter().map(|c| c.total_s));
    let gaps: Vec<f64> = ok.iter().map(|c| c.report.gap()).collect();
    let end_to_end = vec![
        metric("setup_s", median(&setups).expect("set-ups ran"), "s"),
        metric("certify_s", certify_s, "s"),
        metric("gap_geomean", geomean(&gaps).unwrap_or(0.0), "ratio"),
    ];

    let mut per_layer = Vec::new();
    if let Some((spans, traced, counters)) = traced {
        let ok: Vec<&(Certified, Steps)> = traced.iter().flatten().collect();
        let n = ok.len().max(1) as f64;
        let mean = |f: fn(&(Certified, Steps)) -> f64| ok.iter().map(|c| f(c)).sum::<f64>() / n;
        let parse_s = mean(|(c, _)| c.parse_s);
        let order_s = mean(|(c, _)| c.order_s);
        let greedy_s = mean(|(_, s)| s.greedy_s);
        let ladder_s = mean(|(_, s)| s.ladder_s);
        let validate_s = mean(|(_, s)| s.validate_s);
        let total_s = mean(|(c, _)| c.total_s);
        let moves = mean(|(c, _)| c.report.moves as f64);
        let mut layers = Layers::default();
        layers.set("io.parse_s", parse_s);
        layers.set("io.parse_mb_per_s", text.len() as f64 / 1e6 / parse_s);
        layers.set("order.s", order_s);
        layers.set("greedy.certify_s", mean(|(c, _)| c.call_s));
        layers.set("greedy.moves", moves);
        layers.set("greedy.io_cost", mean(|(c, _)| c.report.cost as f64));
        layers.set("greedy.moves_per_s", moves / greedy_s);
        layers.set("bounds.ladder_s", ladder_s);
        layers.set("sim.validate_s", validate_s);
        layers.set_portfolio(&spans, n);
        layers.set_engine(&counters, n);
        layers.set(
            "blocking_path_pct",
            100.0 * (parse_s + order_s + greedy_s + ladder_s + validate_s) / total_s,
        );
        let traced_certify_s = fastest(ok.iter().map(|(c, _)| c.total_s));
        layers.set(
            "trace_overhead_pct",
            100.0 * (traced_certify_s - certify_s) / certify_s,
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
