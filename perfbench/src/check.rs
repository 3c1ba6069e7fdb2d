//! The benchmark's own certificate checks. They recompute what a
//! certificate claims instead of trusting the program that produced it.

use pebble_sched::{BoundValue, ScheduleReport};

/// The ladder entry that `compose` appends: admissible by construction only
/// if it never exceeds a valid schedule's cost.
pub const COMPOSE_BOUND: &str = "compose";

/// Check one certified report.
///
/// * `r` is the cache size the request asked for;
/// * `ladder` is the benchmark's own `prbp_bound_ladder` recomputation on
///   the request's DAG, which every non-`compose` entry must equal;
/// * `replayed` is the cost the benchmark got by replaying the trace through
///   `PrbpTrace::validate`, together with the trace's length, when the trace
///   is materialised.
pub fn check_report(
    report: &ScheduleReport,
    r: usize,
    ladder: &[BoundValue],
    replayed: Option<(usize, usize)>,
) -> Result<(), String> {
    if report.model != "prbp" || report.r != r {
        return Err(format!(
            "report is for {} at r={}, expected prbp at r={r}",
            report.model, report.r
        ));
    }
    let own: Vec<&BoundValue> = report
        .bounds
        .iter()
        .filter(|b| b.name != COMPOSE_BOUND)
        .collect();
    if own.len() != ladder.len() || own.iter().zip(ladder).any(|(a, b)| *a != b) {
        return Err(format!(
            "ladder {:?} differs from the recomputed {:?}",
            own, ladder
        ));
    }
    for b in report.bounds.iter().filter(|b| b.name == COMPOSE_BOUND) {
        if b.value > report.cost {
            return Err(format!(
                "compose bound {} exceeds the cost {}",
                b.value, report.cost
            ));
        }
    }
    let best = report.bounds.iter().map(|b| b.value).max();
    if best != Some(report.best_bound) {
        return Err(format!(
            "best_bound {} is not the ladder maximum {best:?}",
            report.best_bound
        ));
    }
    if report.best_bound > report.cost {
        return Err(format!(
            "best_bound {} exceeds the cost {}: the bound is unsound",
            report.best_bound, report.cost
        ));
    }
    if let Some((cost, moves)) = replayed {
        if cost != report.cost || moves != report.moves {
            return Err(format!(
                "trace replays at cost {cost} in {moves} moves, report claims {} in {}",
                report.cost, report.moves
            ));
        }
    }
    Ok(())
}

/// A cache hit must serve the very certificate the cold request produced:
/// the response suffix from `"report":` is compared byte for byte.
pub fn check_hit(hit: &str, cold: &str) -> Result<(), String> {
    if hit == cold {
        Ok(())
    } else {
        Err(format!("hit certificate {hit} differs from cold {cold}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_dag::generators::fft;
    use pebble_game::PrbpConfig;
    use pebble_sched::{
        beam_prbp, certify_prbp_with_bounds, prbp_bound_ladder, BeamConfig, BoundSet,
    };

    /// A genuine certified report on fft-8 at r=4, with its recomputed
    /// ladder and replayed `(cost, moves)`.
    fn genuine() -> (ScheduleReport, Vec<BoundValue>, (usize, usize)) {
        let dag = fft(8).dag;
        let trace = beam_prbp(&dag, 4, BeamConfig::adaptive()).unwrap();
        let compose = BoundValue {
            name: COMPOSE_BOUND.to_string(),
            value: 3,
        };
        let report =
            certify_prbp_with_bounds(&dag, 4, &trace, "beam", BoundSet::Full, vec![compose])
                .unwrap();
        let (ladder, _) = prbp_bound_ladder(&dag, 4, BoundSet::Full);
        let cost = trace.validate(&dag, PrbpConfig::new(4)).unwrap();
        (report, ladder, (cost, trace.len()))
    }

    #[test]
    fn a_genuine_certificate_passes() {
        let (report, ladder, replayed) = genuine();
        assert_eq!(check_report(&report, 4, &ladder, Some(replayed)), Ok(()));
        assert_eq!(check_report(&report, 4, &ladder, None), Ok(()));
    }

    #[test]
    fn a_planted_wrong_cost_is_caught() {
        let (mut report, ladder, replayed) = genuine();
        report.cost -= 1;
        assert!(check_report(&report, 4, &ladder, Some(replayed)).is_err());
    }

    #[test]
    fn a_planted_wrong_bound_is_caught() {
        let (report, ladder, replayed) = genuine();
        // A bound computed for another DAG: one entry off by one.
        let mut wrong = report.clone();
        wrong.bounds[1].value += 1;
        wrong.best_bound = wrong.bounds.iter().map(|b| b.value).max().unwrap();
        assert!(check_report(&wrong, 4, &ladder, Some(replayed)).is_err());
        // A best_bound that is not the ladder maximum.
        let mut wrong = report.clone();
        wrong.best_bound += 1;
        assert!(check_report(&wrong, 4, &ladder, Some(replayed)).is_err());
        // A compose bound above the cost.
        let mut wrong = report.clone();
        let last = wrong.bounds.len() - 1;
        wrong.bounds[last].value = wrong.cost + 1;
        wrong.best_bound = wrong.cost + 1;
        assert!(check_report(&wrong, 4, &ladder, Some(replayed)).is_err());
        // The right report checked against another request's r.
        assert!(check_report(&report, 5, &ladder, Some(replayed)).is_err());
    }

    #[test]
    fn a_mismatched_hit_certificate_is_caught() {
        let (report, _, _) = genuine();
        let cold = format!("\"report\":{}}}", serde_json::to_string(&report).unwrap());
        assert_eq!(check_hit(&cold, &cold), Ok(()));
        let mut other = report.clone();
        other.bounds[0].value += 1;
        let hit = format!("\"report\":{}}}", serde_json::to_string(&other).unwrap());
        assert!(check_hit(&hit, &cold).is_err());
    }
}
