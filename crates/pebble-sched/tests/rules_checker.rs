//! A second, independent implementation of the PRBP rules, run beside the
//! simulator.
//!
//! Every certificate rests on the simulator, `PrbpGame::apply`: a greedy
//! executor's builder applies each move to it as the move is emitted, and a
//! materialised trace is replayed through it. The checker below implements
//! the rules again from the paper's Section 3, for the standard game
//! (deletes allowed, no `clear`), and shares no code with `pebble-game`: it
//! reads only the DAG's edge list and keeps its own pebbles, edge marks and
//! red count. The properties run both on greedy and beam traces, as they
//! are and with moves dropped, swapped or inserted, and require the same
//! accept/reject decision, the same first-error index and the same I/O cost.

use pebble_dag::generators::{fft, fig1_full, matmul, random_layered, RandomLayeredConfig};
use pebble_dag::{Dag, NodeId};
use pebble_game::moves::PrbpMove;
use pebble_game::prbp::PrbpConfig;
use pebble_game::trace::{PrbpTrace, TraceError};
use pebble_sched::{greedy_prbp, order, FurthestInFuture, Scheduler};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// A node's pebbles. Blue marks a value in slow memory; a light red one
/// equals its blue copy, a dark red one has changed since its last I/O.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pebbles {
    None,
    Blue,
    BlueLight,
    Dark,
}

/// The rules of the game on one DAG, with capacity `r`.
struct Rules {
    r: usize,
    pebbles: Vec<Pebbles>,
    /// Every edge `(u, v)`, with whether it is marked (aggregated).
    marked: HashMap<(usize, usize), bool>,
    /// Unmarked in-edges and out-edges per node.
    open_in: Vec<usize>,
    open_out: Vec<usize>,
    sinks: Vec<usize>,
    red: usize,
    io: usize,
}

impl Rules {
    /// The initial state: a blue pebble on every source, nothing marked.
    fn new(dag: &Dag, r: usize) -> Self {
        let n = dag.node_count();
        let (mut open_in, mut open_out) = (vec![0; n], vec![0; n]);
        let mut marked = HashMap::new();
        for e in dag.edges() {
            let (u, v) = dag.edge_endpoints(e);
            open_out[u.index()] += 1;
            open_in[v.index()] += 1;
            marked.insert((u.index(), v.index()), false);
        }
        let pebbles = (0..n)
            .map(|v| {
                if open_in[v] == 0 {
                    Pebbles::Blue
                } else {
                    Pebbles::None
                }
            })
            .collect();
        let sinks = (0..n).filter(|&v| open_out[v] == 0).collect();
        Rules {
            r,
            pebbles,
            marked,
            open_in,
            open_out,
            sinks,
            red: 0,
            io: 0,
        }
    }

    /// One move; `false`, with the state unchanged, if the rules forbid it.
    fn step(&mut self, mv: PrbpMove) -> bool {
        match mv {
            // Rule 1, save: a dark red pebble becomes a blue and a light red
            // one. Costs one I/O.
            PrbpMove::Save(v) => {
                let v = v.index();
                if self.pebbles[v] != Pebbles::Dark {
                    return false;
                }
                self.pebbles[v] = Pebbles::BlueLight;
                self.io += 1;
            }
            // Rule 2, load: a node with a blue pebble gets a light red one,
            // if it has none, within the capacity. Costs one I/O.
            PrbpMove::Load(v) => {
                let v = v.index();
                match self.pebbles[v] {
                    Pebbles::Blue if self.red < self.r => self.red += 1,
                    Pebbles::BlueLight => {}
                    _ => return false,
                }
                self.pebbles[v] = Pebbles::BlueLight;
                self.io += 1;
            }
            // Rule 3, partial compute: along an unmarked edge (u, v) whose
            // source is fully computed (every in-edge marked) and red, into
            // a target that is red or holds no pebble at all. The target
            // ends dark red and the edge marked. Free.
            PrbpMove::PartialCompute { from, to } => {
                let (u, v) = (from.index(), to.index());
                if self.marked.get(&(u, v)) != Some(&false)
                    || self.open_in[u] != 0
                    || !matches!(self.pebbles[u], Pebbles::BlueLight | Pebbles::Dark)
                {
                    return false;
                }
                match self.pebbles[v] {
                    Pebbles::None if self.red < self.r => self.red += 1,
                    Pebbles::BlueLight | Pebbles::Dark => {}
                    _ => return false,
                }
                self.pebbles[v] = Pebbles::Dark;
                self.marked.insert((u, v), true);
                self.open_in[v] -= 1;
                self.open_out[u] -= 1;
            }
            // Rule 4, delete: a light red pebble, or a dark red one whose
            // every out-edge is marked. A dark red sink never goes: its
            // value is an output with no copy, and once its in-edges are
            // marked nothing can produce it again (the observation in the
            // proof of Lemma 6.4). Free.
            PrbpMove::Delete(v) => {
                let v = v.index();
                self.pebbles[v] = match self.pebbles[v] {
                    Pebbles::BlueLight => Pebbles::Blue,
                    Pebbles::Dark if self.open_out[v] == 0 && !self.sinks.contains(&v) => {
                        Pebbles::None
                    }
                    _ => return false,
                };
                self.red -= 1;
            }
            PrbpMove::Clear(_) => return false,
        }
        true
    }

    /// Every edge marked and a blue pebble on every sink.
    fn terminal(&self) -> bool {
        self.marked.values().all(|&m| m)
            && self
                .sinks
                .iter()
                .all(|&s| matches!(self.pebbles[s], Pebbles::Blue | Pebbles::BlueLight))
    }
}

/// The checker's verdict on `moves`: the I/O cost of a valid pebbling, or
/// the index of the first illegal move (`None` for a legal sequence that
/// does not end terminal).
fn check(dag: &Dag, r: usize, moves: &[PrbpMove]) -> Result<usize, Option<usize>> {
    let mut rules = Rules::new(dag, r);
    for (i, &mv) in moves.iter().enumerate() {
        if !rules.step(mv) {
            return Err(Some(i));
        }
    }
    if rules.terminal() {
        Ok(rules.io)
    } else {
        Err(None)
    }
}

/// The simulator's verdict on `moves`, in the checker's terms.
fn simulate(dag: &Dag, r: usize, moves: &[PrbpMove]) -> Result<usize, Option<usize>> {
    let trace = PrbpTrace {
        moves: moves.to_vec(),
    };
    trace
        .validate(dag, PrbpConfig::new(r))
        .map_err(|err| match err {
            TraceError::InvalidMove { index, .. } => Some(index),
            TraceError::NotTerminal => None,
        })
}

/// A random move on `dag`'s nodes: a partial compute along an edge half of
/// the time, between two random nodes otherwise.
fn random_move(rng: &mut ChaCha8Rng, dag: &Dag) -> PrbpMove {
    let n = dag.node_count();
    let node = |rng: &mut ChaCha8Rng| NodeId::from_index(rng.gen_range(0..n));
    match rng.gen_range(0..4usize) {
        0 => PrbpMove::Load(node(rng)),
        1 => PrbpMove::Save(node(rng)),
        2 => PrbpMove::Delete(node(rng)),
        _ if rng.gen_bool(0.5) => {
            let e = dag.edges().nth(rng.gen_range(0..dag.edge_count())).unwrap();
            let (from, to) = dag.edge_endpoints(e);
            PrbpMove::PartialCompute { from, to }
        }
        _ => PrbpMove::PartialCompute {
            from: node(rng),
            to: node(rng),
        },
    }
}

/// `moves` with one to three moves dropped, swapped or inserted.
fn mutate(rng: &mut ChaCha8Rng, dag: &Dag, moves: &[PrbpMove]) -> Vec<PrbpMove> {
    let mut out = moves.to_vec();
    for _ in 0..rng.gen_range(1..4usize) {
        let len = out.len();
        match rng.gen_range(0..3usize) {
            0 if len > 0 => {
                out.remove(rng.gen_range(0..len));
            }
            1 if len > 1 => {
                let i = rng.gen_range(0..len - 1);
                // Mostly neighbours, where a swap of commuting moves stays
                // legal; sometimes far apart.
                let j = if rng.gen_bool(0.7) {
                    i + 1
                } else {
                    rng.gen_range(i + 1..len)
                };
                out.swap(i, j);
            }
            _ => {
                let mv = random_move(rng, dag);
                out.insert(rng.gen_range(0..=len), mv);
            }
        }
    }
    out
}

/// Greedy traces in natural and DFS order and a narrow and a wide beam's
/// trace of `dag` at `r`.
fn traces(dag: &Dag, r: usize) -> Vec<Vec<PrbpMove>> {
    let mut out = Vec::new();
    for ord in [order::natural(dag), order::dfs_postorder(dag)] {
        out.extend(greedy_prbp(dag, r, &ord, &mut FurthestInFuture).map(|t| t.moves));
    }
    for (width, branch) in [(1, 1), (8, 4)] {
        out.extend(
            Scheduler::Beam { width, branch }
                .run_prbp(dag, r)
                .map(|t| t.moves),
        );
    }
    out
}

/// The checker and the simulator on `dag`'s traces at `r` and on
/// `mutants` mutations of each. Returns how many sequences each accepted and
/// rejected.
fn compare(dag: &Dag, r: usize, rng: &mut ChaCha8Rng, mutants: usize) -> (usize, usize) {
    let (mut accepted, mut rejected) = (0, 0);
    for moves in traces(dag, r) {
        let want = simulate(dag, r, &moves);
        assert!(want.is_ok(), "an executor's trace is valid");
        assert_eq!(check(dag, r, &moves), want);
        for _ in 0..mutants {
            let mutant = mutate(rng, dag, &moves);
            let want = simulate(dag, r, &mutant);
            assert_eq!(check(dag, r, &mutant), want, "{mutant:?}");
            match want {
                Ok(_) => accepted += 1,
                Err(_) => rejected += 1,
            }
        }
    }
    (accepted, rejected)
}

fn dag_strategy() -> impl Strategy<Value = (Dag, usize, u64)> {
    (2usize..5, 2usize..6, 1usize..4, 0usize..3, any::<u64>()).prop_map(
        |(layers, width, deg, extra, seed)| {
            let dag = random_layered(RandomLayeredConfig {
                layers,
                width,
                max_in_degree: deg,
                seed,
            });
            (dag, 2 + extra, seed)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_checker_agrees_with_the_simulator((dag, r, seed) in dag_strategy()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        compare(&dag, r, &mut rng, 16);
    }
}

/// The same comparison on the structured families, tallied: mutants must
/// land on both sides, so the agreement covers rejections and acceptances.
#[test]
fn the_checker_agrees_on_structured_dags_and_both_verdicts_occur() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let (mut accepted, mut rejected) = (0, 0);
    for dag in [
        fig1_full().dag,
        fft(8).dag,
        fft(16).dag,
        matmul(3, 3, 3).dag,
    ] {
        for r in [2, 3, 4, 8] {
            let (a, b) = compare(&dag, r, &mut rng, 40);
            accepted += a;
            rejected += b;
        }
    }
    assert!(
        accepted >= 50 && rejected >= 500,
        "{accepted} accepted, {rejected} rejected"
    );
}
