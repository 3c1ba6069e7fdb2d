//! The named scheduler portfolio swept by experiments and benchmarks.
//!
//! Each [`Scheduler`] value is a fully-determined configuration with a stable
//! display name, so experiment tables and the committed benchmark baseline
//! can refer to schedulers by string and replay them bit-for-bit.

use crate::beam::{beam_prbp, beam_prbp_until, BeamConfig};
use crate::greedy::{greedy_prbp, greedy_rbp};
use crate::order;
use crate::policy::FurthestInFuture;
use pebble_dag::{Dag, NodeId};
use pebble_game::exact::{self, LoadCountHeuristic};
use pebble_game::prbp::PrbpConfig;
use pebble_game::strategies::topological;
use pebble_game::trace::{PrbpTrace, RbpTrace};
use std::fmt;
use std::time::Instant;

/// Compute-order selector for the greedy schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderKind {
    /// Layer-major (Kahn FIFO) order.
    Natural,
    /// Memoised DFS postorder from the sinks.
    DfsPostorder,
}

impl std::str::FromStr for OrderKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "natural" => Ok(OrderKind::Natural),
            "dfs" => Ok(OrderKind::DfsPostorder),
            other => Err(format!(
                "unknown compute order `{other}` (expected natural or dfs)"
            )),
        }
    }
}

impl OrderKind {
    /// Materialise this compute order for `dag`.
    pub fn build(self, dag: &Dag) -> Vec<NodeId> {
        match self {
            OrderKind::Natural => order::natural(dag),
            OrderKind::DfsPostorder => order::dfs_postorder(dag),
        }
    }

    fn name(self) -> &'static str {
        match self {
            OrderKind::Natural => "natural",
            OrderKind::DfsPostorder => "dfs",
        }
    }
}

/// A fully-determined scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// The generic topological strategies of `pebble-game`: the reference
    /// floor that the experiments and property tests compare the portfolio
    /// against. Not a [`default_suite`] member, since it never changed a
    /// best cost there.
    Baseline,
    /// Order-driven greedy with Belady eviction.
    Greedy {
        /// Compute order.
        order: OrderKind,
    },
    /// Beam search over partial schedules (width 1 = adaptive greedy).
    Beam {
        /// Beam width.
        width: usize,
        /// Candidates proposed per entry per level.
        branch: usize,
    },
    /// Structure-aware divide-and-conquer: decompose (weak components /
    /// level bands / sink-cone tiles), schedule each component independently
    /// (exact A* below the node budget), stitch with boundary-aware
    /// eviction. Never worse than the plain portfolio, which participates
    /// as the single-component candidate. PRBP-only.
    Compose,
}

impl fmt::Display for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Scheduler::Baseline => write!(f, "baseline"),
            Scheduler::Greedy { order } => write!(f, "greedy:belady:{}", order.name()),
            Scheduler::Beam { width, .. } => write!(f, "beam:{width}"),
            Scheduler::Compose => write!(f, "compose"),
        }
    }
}

impl std::str::FromStr for Scheduler {
    type Err = String;

    /// Parse the display form back into a configuration: `baseline`,
    /// `greedy:belady:<order>`, `beam:<width>[:<branch>]` (branch defaults
    /// to 4, the [`crate::beam::BeamConfig::default`] value) or `compose`.
    fn from_str(s: &str) -> Result<Self, String> {
        if s == "baseline" {
            return Ok(Scheduler::Baseline);
        }
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or_default();
        match head {
            "greedy" => {
                let policy = parts
                    .next()
                    .ok_or_else(|| "greedy needs a policy: greedy:belady:<order>".to_string())?;
                if policy != "belady" {
                    return Err(format!(
                        "unknown eviction policy `{policy}` (expected belady)"
                    ));
                }
                let order = parts
                    .next()
                    .ok_or_else(|| "greedy needs an order: greedy:belady:<order>".to_string())?
                    .parse()?;
                if parts.next().is_some() {
                    return Err(format!("trailing components in scheduler `{s}`"));
                }
                Ok(Scheduler::Greedy { order })
            }
            "beam" => {
                let width: usize = parts
                    .next()
                    .ok_or_else(|| "beam needs a width: beam:<width>[:<branch>]".to_string())?
                    .parse()
                    .map_err(|_| format!("invalid beam width in `{s}`"))?;
                let branch: usize = match parts.next() {
                    Some(b) => b
                        .parse()
                        .map_err(|_| format!("invalid beam branch in `{s}`"))?,
                    None => 4,
                };
                if width == 0 || branch == 0 || parts.next().is_some() {
                    return Err(format!("invalid beam configuration `{s}`"));
                }
                Ok(Scheduler::Beam { width, branch })
            }
            "compose" => match parts.next() {
                None => Ok(Scheduler::Compose),
                Some(_) => Err(format!("compose takes no parameters, got `{s}`")),
            },
            other => Err(format!(
                "unknown scheduler `{other}` (expected baseline, greedy:belady:<order>, \
                 beam:<width>[:<branch>] or compose)"
            )),
        }
    }
}

impl Scheduler {
    /// The scheduler's family: the `member` label of
    /// `sched_portfolio_wins_total`. Static per family (not per
    /// parameterisation) so the label set stays bounded.
    fn family(self) -> &'static str {
        match self {
            Scheduler::Baseline => "baseline",
            Scheduler::Greedy { .. } => "greedy",
            Scheduler::Beam { .. } => "beam",
            Scheduler::Compose => "compose",
        }
    }

    /// Stable phase label for trace spans and the `phase_duration_us`
    /// metric, per family like [`Scheduler::family`].
    fn phase_name(self) -> &'static str {
        match self {
            Scheduler::Baseline => "portfolio:baseline",
            Scheduler::Greedy { .. } => "portfolio:greedy",
            Scheduler::Beam { .. } => "portfolio:beam",
            Scheduler::Compose => "portfolio:compose",
        }
    }

    /// Run this scheduler in PRBP. `None` when the configuration cannot
    /// schedule the instance (`r` too small).
    pub fn run_prbp(self, dag: &Dag, r: usize) -> Option<PrbpTrace> {
        match self {
            Scheduler::Baseline => topological::prbp_topological(dag, r),
            Scheduler::Greedy { order } => {
                greedy_prbp(dag, r, &order.build(dag), &mut FurthestInFuture)
            }
            Scheduler::Beam { width, branch } => beam_prbp(dag, r, BeamConfig { width, branch }),
            Scheduler::Compose => {
                crate::compose::compose_prbp(dag, r, &Default::default()).map(|o| o.trace)
            }
        }
    }

    /// Run this scheduler in RBP. Beam and compose are
    /// PRBP-only and return `None`; the others return `None` when
    /// `r < Δ_in + 1`.
    pub fn run_rbp(self, dag: &Dag, r: usize) -> Option<RbpTrace> {
        match self {
            Scheduler::Baseline => topological::rbp_topological(dag, r),
            Scheduler::Greedy { order } => {
                greedy_rbp(dag, r, &order.build(dag), &mut FurthestInFuture)
            }
            Scheduler::Beam { .. } | Scheduler::Compose => None,
        }
    }
}

/// The default portfolio, cheap enough to sweep on every instance: Belady
/// greedy on the natural and on the DFS order, each `O((n + m) log r)`. A
/// beam level copies an `O(n)` entry per child, so the beams are quadratic
/// and only pay off on small DAGs: compose adds them to components of at
/// most 512 nodes.
pub fn default_suite() -> Vec<Scheduler> {
    vec![
        Scheduler::Greedy {
            order: OrderKind::Natural,
        },
        Scheduler::Greedy {
            order: OrderKind::DfsPostorder,
        },
    ]
}

/// Run the schedulers of `suite` in order in PRBP and return the first
/// cheapest result as `(scheduler, trace, validated cost)`. Costs come from a
/// full simulator re-validation of each trace, not from the builders'
/// counters.
///
/// The sweep stops at the first member whose cost meets the admissible
/// load-count bound: no later member can be strictly cheaper, so the result
/// is the one a full sweep would return. A member that emits no trace, or an
/// invalid one, is skipped. The winner's family is counted in
/// `sched_portfolio_wins_total`, and the winner in
/// `sched_portfolio_sole_wins_total` when every member produced a validated
/// trace and the winner's cost is strictly below all the others.
pub fn best_prbp(
    dag: &Dag,
    r: usize,
    suite: &[Scheduler],
) -> Option<(Scheduler, PrbpTrace, usize)> {
    best_prbp_until(dag, r, suite, None, load_count(dag, r))
}

/// The admissible load-count bound of `dag`'s initial state at cache size
/// `r`, an `O(n + m)` pass: a member meeting it ends a portfolio sweep.
pub(crate) fn load_count(dag: &Dag, r: usize) -> usize {
    exact::prbp_initial_bound(dag, PrbpConfig::new(r), &LoadCountHeuristic)
}

/// [`best_prbp`] under a deadline, with `dag`'s [`load_count`] bound
/// `lower` passed in: once the deadline has passed, the sweep stops at the
/// next member that would start after a result exists, and a beam member it
/// cuts greedy-completes its schedule.
pub(crate) fn best_prbp_until(
    dag: &Dag,
    r: usize,
    suite: &[Scheduler],
    deadline: Option<Instant>,
    lower: usize,
) -> Option<(Scheduler, PrbpTrace, usize)> {
    first_minimum(suite, lower, deadline, |s| run_member(dag, r, s, deadline))
}

/// Run one portfolio member in PRBP, a beam under `deadline`, and replay
/// its trace: the validated trace and its cost, or `None` when the member
/// emits no trace or an invalid one. Members share nothing, so compose runs
/// them side by side.
pub(crate) fn run_member(
    dag: &Dag,
    r: usize,
    s: Scheduler,
    deadline: Option<Instant>,
) -> Option<(PrbpTrace, usize)> {
    replayed(dag, r, s, |s| match s {
        Scheduler::Beam { width, branch } => {
            beam_prbp_until(dag, r, BeamConfig { width, branch }, deadline)
        }
        s => s.run_prbp(dag, r),
    })
}

/// The trace `run` produces for `s`, with its validated cost, under the
/// member's phase span.
fn replayed(
    dag: &Dag,
    r: usize,
    s: Scheduler,
    run: impl FnOnce(Scheduler) -> Option<PrbpTrace>,
) -> Option<(PrbpTrace, usize)> {
    let _span = pebble_obs::trace::span(s.phase_name());
    let trace = run(s)?;
    let cost = validated_cost(dag, r, &trace, &s)?;
    Some((trace, cost))
}

/// [`best_prbp`]'s sweep over `suite`, in order: `result` gives a member's
/// validated trace and cost, running it or taking a result computed ahead.
/// It is not called for a member after one whose cost meets `lower`, nor,
/// once a result exists, after `deadline`. Counts the win.
pub(crate) fn first_minimum(
    suite: &[Scheduler],
    lower: usize,
    deadline: Option<Instant>,
    mut result: impl FnMut(Scheduler) -> Option<(PrbpTrace, usize)>,
) -> Option<(Scheduler, PrbpTrace, usize)> {
    let mut best: Option<(Scheduler, PrbpTrace, usize)> = None;
    // The swept members' costs, `None` for a skipped one.
    let mut costs = Vec::with_capacity(suite.len());
    for &s in suite {
        if best.is_some() && deadline.is_some_and(|at| Instant::now() >= at) {
            break;
        }
        let swept = result(s);
        costs.push(swept.as_ref().map(|&(_, cost)| cost));
        let Some((trace, cost)) = swept else {
            continue;
        };
        if best.as_ref().map_or(true, |&(_, _, c)| cost < c) {
            best = Some((s, trace, cost));
        }
        if cost == lower {
            break;
        }
    }
    let (winner, _, cost) = best.as_ref()?;
    crate::obs::portfolio_win(winner.family());
    if sole_minimum(&costs, suite.len(), *cost) {
        crate::obs::portfolio_sole_win(&winner.to_string());
    }
    best
}

/// Whether a sweep of `members` members that recorded `costs` had a sole
/// winner at cost `best`: every member was swept and produced a cost, and
/// exactly one of them is `best`.
fn sole_minimum(costs: &[Option<usize>], members: usize, best: usize) -> bool {
    costs.len() == members
        && costs.iter().all(Option::is_some)
        && costs.iter().filter(|&&c| c == Some(best)).count() == 1
}

/// The replayed cost of a scheduler's trace. An invalid trace is a bug in
/// that scheduler: debug builds stop on it, release builds return `None` so
/// the caller skips the member instead of panicking.
pub(crate) fn validated_cost(
    dag: &Dag,
    r: usize,
    trace: &PrbpTrace,
    scheduler: &dyn fmt::Display,
) -> Option<usize> {
    match trace.validate(dag, PrbpConfig::new(r)) {
        Ok(cost) => Some(cost),
        Err(e) => {
            debug_assert!(false, "{scheduler} emitted an invalid trace: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_dag::generators::{fft, fig1_full, matmul};

    #[test]
    fn names_are_stable() {
        assert_eq!(Scheduler::Baseline.to_string(), "baseline");
        assert_eq!(
            Scheduler::Greedy {
                order: OrderKind::Natural
            }
            .to_string(),
            "greedy:belady:natural"
        );
        assert_eq!(
            Scheduler::Beam {
                width: 8,
                branch: 4
            }
            .to_string(),
            "beam:8"
        );
    }

    #[test]
    fn parsing_roundtrips_display_names() {
        for s in default_suite().into_iter().chain([Scheduler::Compose]) {
            let parsed = s.to_string().parse::<Scheduler>().unwrap();
            match (parsed, s) {
                // The display form `beam:<width>` intentionally omits the
                // branch; parsing restores the default branch instead.
                (Scheduler::Beam { width: pw, .. }, Scheduler::Beam { width, .. }) => {
                    assert_eq!(pw, width);
                }
                (parsed, s) => assert_eq!(parsed, s),
            }
        }
        assert_eq!(
            "beam:8:4".parse::<Scheduler>().unwrap(),
            Scheduler::Beam {
                width: 8,
                branch: 4
            }
        );
        for bad in [
            "",
            "greedy",
            "greedy:belady",
            "greedy:belady:dfs:extra",
            "greedy:lru:natural",
            "greedy:fewest:dfs",
            "beam:0",
            "beam:x",
            "local:120",
            "annealing:3",
            "suite",
            "compose:",
            "compose:20",
        ] {
            assert!(bad.parse::<Scheduler>().is_err(), "{bad} should not parse");
        }
    }

    /// [`first_minimum`] over `suite` without a deadline, each member run
    /// by `run`.
    fn sweep(
        dag: &Dag,
        r: usize,
        suite: &[Scheduler],
        run: impl Fn(Scheduler) -> Option<PrbpTrace>,
    ) -> Option<(Scheduler, PrbpTrace, usize)> {
        first_minimum(suite, load_count(dag, r), None, |s| {
            replayed(dag, r, s, &run)
        })
    }

    #[test]
    fn the_winning_family_is_counted() {
        let wins = |family| {
            pebble_obs::metrics::Registry::global()
                .counter("sched_portfolio_wins_total", "", &[("member", family)])
                .get()
        };
        let dag = fft(16).dag;
        let (s, ..) = best_prbp(&dag, 4, &default_suite()).unwrap();
        assert!(wins(s.family()) >= 1);
    }

    #[test]
    fn a_strict_minimum_over_every_member_is_a_sole_win() {
        assert!(sole_minimum(&[Some(5), Some(7)], 2, 5));
        assert!(sole_minimum(&[Some(7), Some(5), Some(9)], 3, 5));
        // A tie, a skipped member or an unswept one is not.
        assert!(!sole_minimum(&[Some(5), Some(5)], 2, 5));
        assert!(!sole_minimum(&[Some(5), None], 2, 5));
        assert!(!sole_minimum(&[Some(5)], 2, 5));
    }

    #[test]
    fn a_strict_dfs_win_on_matmul_is_counted_as_sole() {
        let sole_wins = |member: &str| {
            pebble_obs::metrics::Registry::global()
                .counter("sched_portfolio_sole_wins_total", "", &[("member", member)])
                .get()
        };
        let dag = matmul(4, 4, 4).dag;
        let r = 8;
        let suite = default_suite();
        let costs: Vec<usize> = suite
            .iter()
            .map(|&s| run_member(&dag, r, s, None).unwrap().1)
            .collect();
        assert!(
            costs[1] < costs[0],
            "dfs {} >= natural {}",
            costs[1],
            costs[0]
        );
        let dfs = suite[1].to_string();
        let before = sole_wins(&dfs);
        let (s, _, cost) = best_prbp(&dag, r, &suite).unwrap();
        assert_eq!((s, cost), (suite[1], costs[1]));
        assert!(sole_wins(&dfs) > before);
    }

    #[test]
    fn best_of_suite_never_loses_to_baseline() {
        for dag in [fig1_full().dag, fft(16).dag] {
            for r in [2usize, 4, 8] {
                let (_, _, best) = best_prbp(&dag, r, &default_suite()).unwrap();
                let base = Scheduler::Baseline
                    .run_prbp(&dag, r)
                    .unwrap()
                    .validate(&dag, pebble_game::prbp::PrbpConfig::new(r))
                    .unwrap();
                assert!(best <= base, "best {best} > baseline {base}");
            }
        }
    }

    #[test]
    fn a_member_without_a_trace_is_skipped() {
        let dag = fft(16).dag;
        let r = 4;
        let suite = default_suite();
        let skipped = |s: Scheduler| (s != suite[0]).then(|| s.run_prbp(&dag, r)).flatten();
        let (s, trace, cost) = sweep(&dag, r, &suite, skipped).unwrap();
        assert_ne!(s, suite[0]);
        assert_eq!(Some(trace), s.run_prbp(&dag, r));
        let others = suite[1..]
            .iter()
            .map(|m| validated_cost(&dag, r, &m.run_prbp(&dag, r).unwrap(), m).unwrap());
        assert_eq!(Some(cost), others.min());
        // No member at all: no result.
        assert!(sweep(&dag, r, &suite, |_| None).is_none());
    }

    // Release builds skip an invalid trace; debug builds stop on it.
    #[cfg(not(debug_assertions))]
    #[test]
    fn an_invalid_trace_is_skipped() {
        let dag = fft(16).dag;
        let r = 4;
        let suite = default_suite();
        let broken = |s: Scheduler| {
            if s == suite[0] {
                Some(PrbpTrace::new())
            } else {
                s.run_prbp(&dag, r)
            }
        };
        let (s, ..) = sweep(&dag, r, &suite, broken).unwrap();
        assert_ne!(s, suite[0]);
        assert_eq!(validated_cost(&dag, r, &PrbpTrace::new(), &"empty"), None);
    }

    #[test]
    fn rbp_suite_respects_capacity() {
        let dag = fig1_full().dag;
        assert!(Scheduler::Baseline.run_rbp(&dag, 2).is_none());
        assert!(Scheduler::Beam {
            width: 4,
            branch: 4
        }
        .run_rbp(&dag, 8)
        .is_none());
        let t = Scheduler::Greedy {
            order: OrderKind::Natural,
        }
        .run_rbp(&dag, 4)
        .unwrap();
        assert!(t
            .validate(&dag, pebble_game::rbp::RbpConfig::new(4))
            .is_ok());
    }
}
