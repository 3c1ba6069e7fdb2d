//! The Section 6 bounds at a DAG's initial state.
//!
//! The `s-dominator` (Theorem 6.7) and `s-edge` (Theorem 6.5) bounds reach
//! the workspace only as entries of the certification ladder
//! ([`crate::report`]), where they take the load-count value. These tests
//! pin that the entries keep their names and never exceed the exact
//! optimum.

#[cfg(test)]
mod tests {
    use crate::report::{prbp_bound_ladder, rbp_bound_ladder, BoundSet, BoundValue};
    use pebble_dag::generators::{fig1_full, kary_tree, matvec, zipper};
    use pebble_dag::Dag;
    use pebble_game::engine::{solve_prbp, solve_rbp, EngineConfig};
    use pebble_game::exact::LoadCountHeuristic;
    use pebble_game::prbp::PrbpConfig;
    use pebble_game::rbp::RbpConfig;

    fn assert_below(ladder: &[BoundValue], opt: usize) {
        assert_eq!(ladder.len(), 3);
        for b in ladder {
            assert!(b.value <= opt, "{}: {} > OPT {opt}", b.name, b.value);
        }
    }

    fn assert_admissible_prbp(dag: &Dag, r: usize) {
        let opt = solve_prbp(
            dag,
            PrbpConfig::new(r),
            &EngineConfig::default(),
            &LoadCountHeuristic,
            None,
            None,
        )
        .expect("solvable")
        .cost;
        assert_below(&prbp_bound_ladder(dag, r, BoundSet::Full).0, opt);
    }

    #[test]
    fn initial_bounds_are_admissible_on_fig1() {
        let f = fig1_full();
        assert_admissible_prbp(&f.dag, 4);
        let opt = solve_rbp(
            &f.dag,
            RbpConfig::new(4),
            &EngineConfig::default(),
            &LoadCountHeuristic,
            None,
            None,
        )
        .unwrap()
        .cost;
        assert_below(&rbp_bound_ladder(&f.dag, 4, BoundSet::Full).0, opt);
    }

    #[test]
    fn initial_bounds_are_admissible_on_small_families() {
        assert_admissible_prbp(&zipper(2, 3).dag, 4);
        assert_admissible_prbp(&matvec(2).dag, 5);
        assert_admissible_prbp(&kary_tree(2, 2).dag, 3);
    }

    #[test]
    fn names_are_stable() {
        let dag = fig1_full().dag;
        for (ladder, _) in [
            prbp_bound_ladder(&dag, 4, BoundSet::Full),
            rbp_bound_ladder(&dag, 4, BoundSet::Full),
        ] {
            let names: Vec<&str> = ladder.iter().map(|b| b.name.as_str()).collect();
            assert_eq!(names, ["load-count", "s-dominator", "s-edge"]);
        }
    }
}
