//! E13 — Theorem 7.1 / Figure 5: the level-gadget towers with auxiliary
//! levels. The table reports, for a few tower profiles, how many auxiliary
//! levels the PRBP adjustment inserts and verifies (on instances small enough
//! for the exact solver) that the adjustment leaves the RBP optimum
//! unchanged.

use crate::Table;
use pebble_game::engine::{solve_rbp, EngineConfig};
use pebble_game::exact::LoadCountHeuristic;
use pebble_game::rbp::RbpConfig;
use pebble_hardness::level_gadgets::build_tower;

/// Tower level-size profiles swept by the experiment. Only the first two are
/// small enough for the exact solver; the rest report structure only.
pub const PROFILES: [&[usize]; 4] = [&[2, 2], &[3, 2], &[3, 3, 2], &[5, 4, 4, 2]];

/// Build the E13 table.
pub fn run() -> Table {
    let mut t = Table::new(
        "E13 (Thm 7.1, Fig 5): level gadgets with auxiliary levels",
        &[
            "levels",
            "plain nodes",
            "adjusted nodes",
            "aux levels",
            "RBP opt plain",
            "RBP opt adjusted",
        ],
    );
    for (idx, profile) in PROFILES.iter().enumerate() {
        let plain = build_tower(profile, false);
        let adjusted = build_tower(profile, true);
        let aux_count = adjusted.tower.levels.iter().filter(|l| l.auxiliary).count();
        let exact_small = idx < 2;
        let (plain_opt, adjusted_opt) = if exact_small {
            let r = plain.dag.max_in_degree().max(adjusted.dag.max_in_degree()) + 1;
            // A search that exceeds the state budget reports "-".
            let engine = EngineConfig {
                node_budget: Some(5_000_000),
                ..EngineConfig::default()
            };
            let opt = |dag| {
                solve_rbp(
                    dag,
                    RbpConfig::new(r),
                    &engine,
                    &LoadCountHeuristic,
                    None,
                    None,
                )
                .map(|out| out.cost.to_string())
                .unwrap_or_else(|_| "-".into())
            };
            (opt(&plain.dag), opt(&adjusted.dag))
        } else {
            ("-".into(), "-".into())
        };
        // Theorem 7.1: the auxiliary levels must not change the optimum.
        if plain_opt != "-" && adjusted_opt != "-" {
            t.check(plain_opt == adjusted_opt);
        }
        t.check(adjusted.dag.node_count() > plain.dag.node_count());
        t.push_row([
            format!("{profile:?}"),
            plain.dag.node_count().to_string(),
            adjusted.dag.node_count().to_string(),
            aux_count.to_string(),
            plain_opt,
            adjusted_opt,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn auxiliary_levels_preserve_the_rbp_optimum_where_computed() {
        let t = super::run();
        for row in &t.rows {
            if row[4] != "-" && row[5] != "-" {
                assert_eq!(row[4], row[5], "{row:?}");
            }
            let plain: usize = row[1].parse().unwrap();
            let adjusted: usize = row[2].parse().unwrap();
            assert!(adjusted > plain);
        }
    }
}
