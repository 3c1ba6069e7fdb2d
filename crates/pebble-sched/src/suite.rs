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
    Compose {
        /// Node budget below which components are solved exactly.
        exact_budget: usize,
    },
}

impl fmt::Display for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Scheduler::Baseline => write!(f, "baseline"),
            Scheduler::Greedy { order } => write!(f, "greedy:belady:{}", order.name()),
            Scheduler::Beam { width, .. } => write!(f, "beam:{width}"),
            Scheduler::Compose { exact_budget } => {
                if exact_budget == crate::compose::DEFAULT_EXACT_BUDGET {
                    write!(f, "compose")
                } else {
                    write!(f, "compose:{exact_budget}")
                }
            }
        }
    }
}

impl std::str::FromStr for Scheduler {
    type Err = String;

    /// Parse the display form back into a configuration: `baseline`,
    /// `greedy:belady:<order>`, `beam:<width>[:<branch>]` (branch defaults
    /// to 4, the [`crate::beam::BeamConfig::default`] value) or
    /// `compose[:<budget>]`.
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
            "compose" => {
                let exact_budget: usize = match parts.next() {
                    Some(b) => b
                        .parse()
                        .map_err(|_| format!("invalid exact budget in `{s}`"))?,
                    None => crate::compose::DEFAULT_EXACT_BUDGET,
                };
                if parts.next().is_some() {
                    return Err(format!("trailing components in scheduler `{s}`"));
                }
                Ok(Scheduler::Compose { exact_budget })
            }
            other => Err(format!(
                "unknown scheduler `{other}` (expected baseline, greedy:belady:<order>, \
                 beam:<width>[:<branch>] or compose[:<budget>])"
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
            Scheduler::Compose { .. } => "compose",
        }
    }

    /// Stable phase label for trace spans and the `phase_duration_us`
    /// metric, per family like [`Scheduler::family`].
    fn phase_name(self) -> &'static str {
        match self {
            Scheduler::Baseline => "portfolio:baseline",
            Scheduler::Greedy { .. } => "portfolio:greedy",
            Scheduler::Beam { .. } => "portfolio:beam",
            Scheduler::Compose { .. } => "portfolio:compose",
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
            Scheduler::Compose { exact_budget } => {
                let config = crate::compose::ComposeConfig {
                    exact_budget,
                    ..Default::default()
                };
                crate::compose::compose_prbp(dag, r, &config).map(|outcome| outcome.trace)
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
            Scheduler::Beam { .. } | Scheduler::Compose { .. } => None,
        }
    }
}

/// The default portfolio, cheap enough to sweep on every instance: Belady
/// greedy on the natural and on the DFS order, each `O((n + m) log r)`. A beam level copies an `O(n)` entry per child, so the
/// beams are quadratic and only pay off on small DAGs: compose adds them to
/// components of at most 512 nodes.
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
/// `sched_portfolio_wins_total`.
pub fn best_prbp(
    dag: &Dag,
    r: usize,
    suite: &[Scheduler],
) -> Option<(Scheduler, PrbpTrace, usize)> {
    best_prbp_until(dag, r, suite, None)
}

/// [`best_prbp`] under a deadline: once it has passed, the sweep stops at
/// the next member that would start after a result exists, and a beam
/// member it cuts greedy-completes its schedule.
pub(crate) fn best_prbp_until(
    dag: &Dag,
    r: usize,
    suite: &[Scheduler],
    deadline: Option<Instant>,
) -> Option<(Scheduler, PrbpTrace, usize)> {
    let best = first_minimum(dag, r, suite, deadline, |s| match s {
        Scheduler::Beam { width, branch } => {
            beam_prbp_until(dag, r, BeamConfig { width, branch }, deadline)
        }
        s => s.run_prbp(dag, r),
    });
    if let Some((s, ..)) = &best {
        crate::obs::portfolio_win(s.family());
    }
    best
}

/// [`best_prbp`]'s sweep, with the way a member is run passed in.
fn first_minimum(
    dag: &Dag,
    r: usize,
    suite: &[Scheduler],
    deadline: Option<Instant>,
    run: impl Fn(Scheduler) -> Option<PrbpTrace>,
) -> Option<(Scheduler, PrbpTrace, usize)> {
    let lower = exact::prbp_initial_bound(dag, PrbpConfig::new(r), &LoadCountHeuristic);
    let mut best: Option<(Scheduler, PrbpTrace, usize)> = None;
    for &s in suite {
        if best.is_some() && deadline.is_some_and(|at| Instant::now() >= at) {
            break;
        }
        let _span = pebble_obs::trace::span(s.phase_name());
        let Some(trace) = run(s) else {
            continue;
        };
        let Some(cost) = validated_cost(dag, r, &trace, &s) else {
            continue;
        };
        if best.as_ref().map_or(true, |&(_, _, c)| cost < c) {
            best = Some((s, trace, cost));
        }
        if cost == lower {
            break;
        }
    }
    best
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
    use pebble_dag::generators::{fft, fig1_full};

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
        for s in default_suite() {
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
        ] {
            assert!(bad.parse::<Scheduler>().is_err(), "{bad} should not parse");
        }
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
        let (s, trace, cost) = first_minimum(&dag, r, &suite, None, skipped).unwrap();
        assert_ne!(s, suite[0]);
        assert_eq!(Some(trace), s.run_prbp(&dag, r));
        let others = suite[1..]
            .iter()
            .map(|m| validated_cost(&dag, r, &m.run_prbp(&dag, r).unwrap(), m).unwrap());
        assert_eq!(Some(cost), others.min());
        // No member at all: no result.
        assert!(first_minimum(&dag, r, &suite, None, |_| None).is_none());
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
        let (s, ..) = first_minimum(&dag, r, &suite, None, broken).unwrap();
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
