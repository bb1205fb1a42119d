//! SAT-core fuzz against brute force.
//!
//! Random CNFs over at most ten variables, mixing unit, binary and long
//! clauses with parity constraints, are each loaded into one incremental
//! [`SatSolver`] and queried under a sequence of random assumption sets.
//! Every verdict is checked by truth-table enumeration:
//!
//! * a SAT model satisfies every clause and every assumption;
//! * an UNSAT core is a subset of the assumptions and is unsatisfiable
//!   together with the clauses on its own.
//!
//! Half of the rounds set `set_reduce_interval(1)` before every query, so
//! learnt-clause deletion, arena compaction and clause-reference remapping
//! happen while the trail still holds reasons.
//!
//! The stream is seeded from `SEPE_FAULT_SEED` (default 42), the knob the
//! fault-injection CI matrix sweeps, so each matrix job fuzzes a different
//! population; failures print the round's formula and reproduce exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sepe_smt::{Lit, SatSolver, SolveOutcome, Var};

const ROUNDS: usize = 400;
const QUERIES: usize = 24;

fn seed_from_env() -> u64 {
    std::env::var("SEPE_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn holds(l: Lit, assignment: u32) -> bool {
    ((assignment >> l.var().0) & 1 == 1) == l.is_positive()
}

/// Whether some assignment of `num_vars` variables satisfies every clause
/// and every literal of `units`.
fn brute_force_sat(num_vars: u32, clauses: &[Vec<Lit>], units: &[Lit]) -> bool {
    (0u32..1 << num_vars).any(|m| {
        units.iter().all(|&l| holds(l, m)) && clauses.iter().all(|c| c.iter().any(|&l| holds(l, m)))
    })
}

fn random_lit(rng: &mut StdRng, num_vars: u32) -> Lit {
    Lit::new(Var(rng.gen_range(0..num_vars)), rng.gen_bool(0.5))
}

#[test]
fn sat_core_agrees_with_truth_tables() {
    let seed = seed_from_env();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut sat, mut unsat, mut reductions, mut deleted) = (0, 0, 0, 0);
    for round in 0..ROUNDS {
        let num_vars = rng.gen_range(1..=10u32);
        let num_clauses = rng.gen_range(0..=2 * num_vars as usize);
        let mut clauses: Vec<Vec<Lit>> = (0..num_clauses)
            .map(|_| {
                // Mostly long: units and binaries alone rarely need search,
                // and only learnt clauses of three or more literals are
                // deletion candidates.
                let width = match rng.gen_range(0..20) {
                    0 => 1,
                    1..=3 => 2,
                    4..=9 => 3,
                    10..=14 => 4,
                    _ => 5,
                };
                (0..width).map(|_| random_lit(&mut rng, num_vars)).collect()
            })
            .collect();
        // Parity constraints make small formulas conflict-heavy: each
        // x ⊕ y ⊕ z = b over distinct variables becomes its four clauses.
        if num_vars >= 3 {
            for _ in 0..rng.gen_range(num_vars / 2..=num_vars) {
                let mut vars = [0u32; 3];
                for k in 0..3 {
                    vars[k] = loop {
                        let v = rng.gen_range(0..num_vars);
                        if !vars[..k].contains(&v) {
                            break v;
                        }
                    };
                }
                let parity = rng.gen_bool(0.5);
                for signs in 0..8u32 {
                    // Forbid every assignment of the wrong parity.
                    if (signs.count_ones() % 2 == 1) != parity {
                        clauses.push(
                            (0..3)
                                .map(|k| Lit::new(Var(vars[k]), signs >> k & 1 == 0))
                                .collect(),
                        );
                    }
                }
            }
        }
        let mut solver = SatSolver::new();
        solver.reserve_vars(num_vars);
        for c in &clauses {
            solver.add_clause(c);
        }
        let reduce_hard = round % 2 == 1;
        for query in 0..QUERIES {
            if reduce_hard {
                // Re-armed per query: the interval grows after each pass.
                solver.set_reduce_interval(1);
            }
            let width = rng.gen_range(0..=num_vars as usize);
            let assumps: Vec<Lit> = (0..width).map(|_| random_lit(&mut rng, num_vars)).collect();
            let context = || {
                format!(
                    "seed {seed} round {round} query {query}: {num_vars} vars, \
                     clauses {clauses:?}, assumptions {assumps:?}"
                )
            };
            let outcome = solver.solve_under_assumptions(&assumps);
            let expected = brute_force_sat(num_vars, &clauses, &assumps);
            match outcome {
                SolveOutcome::Sat => {
                    assert!(expected, "SAT, truth table says UNSAT — {}", context());
                    let model = (0..num_vars)
                        .filter(|&v| solver.value_of(Var(v)))
                        .fold(0u32, |m, v| m | 1 << v);
                    for c in &clauses {
                        assert!(
                            c.iter().any(|&l| holds(l, model)),
                            "model violates {c:?} — {}",
                            context()
                        );
                    }
                    for &a in &assumps {
                        assert!(
                            holds(a, model),
                            "model violates assumption {a:?} — {}",
                            context()
                        );
                    }
                    sat += 1;
                }
                SolveOutcome::Unsat => {
                    assert!(!expected, "UNSAT, truth table says SAT — {}", context());
                    let core = solver.unsat_assumptions().to_vec();
                    assert!(
                        core.iter().all(|l| assumps.contains(l)),
                        "core {core:?} is not a subset of the assumptions — {}",
                        context()
                    );
                    assert!(
                        !brute_force_sat(num_vars, &clauses, &core),
                        "core {core:?} is satisfiable with the clauses — {}",
                        context()
                    );
                    unsat += 1;
                }
                SolveOutcome::Unknown => panic!("no budget was set, got Unknown — {}", context()),
            }
        }
        if reduce_hard {
            reductions += solver.reduce_stats().reductions;
            deleted += solver.reduce_stats().clauses_deleted;
        }
    }
    println!(
        "sat_fuzz seed {seed}: {sat} SAT / {unsat} UNSAT answers, \
         {reductions} reductions deleting {deleted} learnt clauses"
    );
    assert!(
        sat > 0 && unsat > 0,
        "the population must hit both verdicts"
    );
    assert!(deleted > 0, "the forced-reduction half must delete clauses");
}
