//! The scheduler's hook into the `pebble-obs` metrics registry: which
//! portfolio family wins, which member wins alone, how compose obtained each
//! component's schedule, and which compose candidates were scheduled or
//! pruned. All are labelled by small fixed sets (a member label takes the
//! display names of the suite swept), so cardinality stays bounded; all are
//! recorded once per portfolio sweep, decomposition or candidate, never
//! inside a scheduler's loop.

use pebble_obs::metrics::Registry;

/// Count one portfolio sweep won by a member of `family`.
pub(crate) fn portfolio_win(family: &'static str) {
    Registry::global()
        .counter(
            "sched_portfolio_wins_total",
            "Portfolio sweeps won, by member family",
            &[("member", family)],
        )
        .inc();
}

/// Count one portfolio sweep whose winner, `member` (its display name), was
/// the sole minimum: every member produced a validated trace and the
/// winner's cost is strictly below all the others. Unlike
/// [`portfolio_win`], a tie is nobody's win here.
pub(crate) fn portfolio_sole_win(member: &str) {
    Registry::global()
        .counter(
            "sched_portfolio_sole_wins_total",
            "Portfolio sweeps won with a cost strictly below every other member's, by member",
            &[("member", member)],
        )
        .inc();
}

/// How compose obtained one component's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ComponentOutcome {
    /// Copied from an identical component scheduled earlier in the same call.
    Reused,
    /// The portfolio met the component's load-count bound.
    Bound,
    /// The exact engine proved the schedule optimal.
    Exact,
    /// Neither: the best heuristic schedule.
    Heuristic,
}

impl ComponentOutcome {
    const ALL: [ComponentOutcome; 4] = [
        ComponentOutcome::Reused,
        ComponentOutcome::Bound,
        ComponentOutcome::Exact,
        ComponentOutcome::Heuristic,
    ];

    fn as_str(self) -> &'static str {
        match self {
            ComponentOutcome::Reused => "reused",
            ComponentOutcome::Bound => "bound",
            ComponentOutcome::Exact => "exact",
            ComponentOutcome::Heuristic => "heuristic",
        }
    }
}

/// Count the outcomes of one decomposition's components.
pub(crate) fn compose_components(outcomes: impl IntoIterator<Item = ComponentOutcome>) {
    let mut tally = [0u64; ComponentOutcome::ALL.len()];
    for outcome in outcomes {
        tally[outcome as usize] += 1;
    }
    for (outcome, n) in ComponentOutcome::ALL.into_iter().zip(tally) {
        if n > 0 {
            Registry::global()
                .counter(
                    "compose_components_total",
                    "Compose components scheduled, by how the schedule was obtained",
                    &[("outcome", outcome.as_str())],
                )
                .add(n);
        }
    }
}

/// Count one compose candidate decomposition: `scheduled` and stitched, or
/// `pruned` because its stitched-cost bound reached the incumbent's cost.
pub(crate) fn compose_candidate(outcome: &'static str) {
    Registry::global()
        .counter(
            "compose_candidates_total",
            "Compose candidate decompositions, scheduled or pruned by the stitched-cost bound",
            &[("outcome", outcome)],
        )
        .inc();
}
