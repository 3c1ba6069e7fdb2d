//! The CI-tracked scheduler benchmark baseline (`BENCH_sched.json`).
//!
//! The E16 scheduling corpus (`pebble_experiments::e16_sched`) is swept
//! through the full scheduler portfolio; per (instance, scheduler) the
//! simulator-replayed cost and move count are recorded, together with the
//! per-instance admissible lower bounds and the resulting best certified
//! gap. Unlike the solver baseline there is no wall-clock in the document at
//! all: every scheduler is deterministic (id-ordered tie-breaks, no
//! randomness), so the committed baseline is gated *exactly* — any cost
//! change is a real behaviour change that must be committed consciously.
//! Wall-clock per instance goes to stderr for eyeballing only.

use pebble_experiments::e16_sched::{self, SchedInstance};
use serde::{Deserialize, Serialize};

/// One (instance, scheduler) measurement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerResult {
    /// Scheduler identifier (`greedy:belady:natural`, `beam:8`, `tiled`, …).
    pub scheduler: String,
    /// Simulator-replayed I/O cost.
    pub cost: usize,
    /// Number of moves in the validated trace.
    pub moves: usize,
}

/// All measurements for one corpus instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceResult {
    /// Stable instance id.
    pub id: String,
    /// `"rbp"` or `"prbp"`.
    pub model: String,
    /// Cache size.
    pub r: usize,
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Best admissible lower bound on the optimal I/O cost.
    pub best_bound: usize,
    /// Per-scheduler results in sweep order.
    pub schedulers: Vec<SchedulerResult>,
    /// Cheapest cost across the portfolio.
    pub best_cost: usize,
    /// Certified optimality gap `best_cost / best_bound`.
    pub gap: f64,
}

/// The complete baseline document. Fully deterministic: regenerating it on
/// any machine must reproduce it byte for byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedBaseline {
    /// Schema version of this document.
    pub schema: usize,
    /// One entry per corpus instance.
    pub instances: Vec<InstanceResult>,
}

/// Measure one corpus instance: sweep its portfolio and assemble the record.
pub fn measure(inst: &SchedInstance) -> InstanceResult {
    let reports = e16_sched::sweep_instance(inst);
    assert!(!reports.is_empty(), "{}: empty portfolio", inst.id);
    let best_bound = reports
        .iter()
        .map(|rep| rep.best_bound)
        .max()
        .expect("non-empty");
    let best_cost = reports.iter().map(|rep| rep.cost).min().expect("non-empty");
    InstanceResult {
        id: inst.id.to_string(),
        model: inst.model.short_name().to_string(),
        r: inst.r,
        nodes: inst.dag.node_count(),
        edges: inst.dag.edge_count(),
        best_bound,
        schedulers: reports
            .iter()
            .map(|rep| SchedulerResult {
                scheduler: rep.scheduler.clone(),
                cost: rep.cost,
                moves: rep.moves,
            })
            .collect(),
        best_cost,
        gap: best_cost as f64 / best_bound as f64,
    }
}

/// Sweep the whole corpus across `threads` workers and assemble the baseline.
pub fn run(threads: usize) -> SchedBaseline {
    let corpus = e16_sched::corpus();
    let instances = pebble_sched::par_map(corpus.iter().collect(), threads, |inst| {
        let t0 = std::time::Instant::now();
        let result = measure(inst);
        eprintln!(
            "  {:<16} {:<5} r={:<4} best {:>8} / lb {:>6} (gap {:.2}) [{} ms]",
            result.id,
            result.model,
            result.r,
            result.best_cost,
            result.best_bound,
            result.gap,
            t0.elapsed().as_millis()
        );
        result
    });
    SchedBaseline {
        schema: 1,
        instances,
    }
}

/// Compare a fresh run against the committed baseline. Scheduler costs are
/// deterministic, so the gate is *exact*: any difference in cost, move
/// count, bound or corpus shape is reported. Returns human-readable
/// regression lines; empty means the gate passes.
pub fn diffs(baseline: &SchedBaseline, current: &SchedBaseline) -> Vec<String> {
    let mut out = Vec::new();
    for base_inst in &baseline.instances {
        let Some(cur_inst) = current
            .instances
            .iter()
            .find(|i| i.id == base_inst.id && i.model == base_inst.model && i.r == base_inst.r)
        else {
            out.push(format!(
                "{} ({}, r={}): instance missing from current run",
                base_inst.id, base_inst.model, base_inst.r
            ));
            continue;
        };
        if cur_inst.best_bound != base_inst.best_bound {
            out.push(format!(
                "{} ({}): best bound {} -> {}",
                base_inst.id, base_inst.model, base_inst.best_bound, cur_inst.best_bound
            ));
        }
        for base_s in &base_inst.schedulers {
            let Some(cur_s) = cur_inst
                .schedulers
                .iter()
                .find(|s| s.scheduler == base_s.scheduler)
            else {
                out.push(format!(
                    "{} ({}) [{}]: scheduler missing from current run",
                    base_inst.id, base_inst.model, base_s.scheduler
                ));
                continue;
            };
            if cur_s.cost != base_s.cost || cur_s.moves != base_s.moves {
                out.push(format!(
                    "{} ({}) [{}]: cost {} -> {}, moves {} -> {}",
                    base_inst.id,
                    base_inst.model,
                    base_s.scheduler,
                    base_s.cost,
                    cur_s.cost,
                    base_s.moves,
                    cur_s.moves
                ));
            }
        }
        for cur_s in &cur_inst.schedulers {
            if !base_inst
                .schedulers
                .iter()
                .any(|s| s.scheduler == cur_s.scheduler)
            {
                out.push(format!(
                    "{} ({}) [{}]: scheduler missing from baseline (refresh it)",
                    base_inst.id, base_inst.model, cur_s.scheduler
                ));
            }
        }
    }
    for cur_inst in &current.instances {
        if !baseline
            .instances
            .iter()
            .any(|i| i.id == cur_inst.id && i.model == cur_inst.model && i.r == cur_inst.r)
        {
            out.push(format!(
                "{} ({}, r={}): instance missing from baseline (refresh it)",
                cur_inst.id, cur_inst.model, cur_inst.r
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(cost: usize) -> SchedBaseline {
        SchedBaseline {
            schema: 1,
            instances: vec![InstanceResult {
                id: "x".into(),
                model: "prbp".into(),
                r: 4,
                nodes: 10,
                edges: 12,
                best_bound: 6,
                schedulers: vec![SchedulerResult {
                    scheduler: "beam:1".into(),
                    cost,
                    moves: 30,
                }],
                best_cost: cost,
                gap: cost as f64 / 6.0,
            }],
        }
    }

    #[test]
    fn identical_baselines_have_no_diffs() {
        assert!(diffs(&tiny(12), &tiny(12)).is_empty());
    }

    #[test]
    fn any_cost_change_is_flagged() {
        assert_eq!(diffs(&tiny(12), &tiny(13)).len(), 1);
        assert_eq!(diffs(&tiny(13), &tiny(12)).len(), 1, "improvements too");
    }

    #[test]
    fn corpus_shape_changes_are_flagged_both_ways() {
        let b = tiny(12);
        let mut c = tiny(12);
        c.instances[0].schedulers.push(SchedulerResult {
            scheduler: "new".into(),
            cost: 1,
            moves: 2,
        });
        assert_eq!(diffs(&b, &c).len(), 1);
        let mut empty = tiny(12);
        empty.instances.clear();
        assert_eq!(diffs(&b, &empty).len(), 1);
        assert_eq!(diffs(&empty, &b).len(), 1);
    }

    #[test]
    fn baseline_roundtrips_through_json() {
        let b = tiny(42);
        let s = serde_json::to_string(&b).unwrap();
        let back: SchedBaseline = serde_json::from_str(&s).unwrap();
        assert_eq!(b, back);
    }
}
