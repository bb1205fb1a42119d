//! Randomized differential test: a long-lived [`IncrementalSolver`] vs a
//! fresh one per query on random term-graph query sequences.
//!
//! Each round builds a random bit-vector term graph, then drives one
//! incremental solver through a sequence of queries — permanent assertions
//! interleaved with `check_assuming` calls over random boolean terms — and
//! cross-checks every verdict against a scratch reference: a fresh solver
//! given the same conjunction in one
//! [`assert_all`](IncrementalSolver::assert_all).  UNSAT answers also get core sanity checks: the core is a
//! subset of the assumptions and is itself unsatisfiable together with the
//! permanent assertions.
//!
//! Everything is seeded (no time/randomness nondeterminism), so failures
//! reproduce exactly.  Each test has a fixed seed; setting `SEPE_FAULT_SEED`
//! (the knob the fault-injection CI matrix sweeps) mixes it in, so each
//! matrix leg draws different query sequences.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sepe_smt::{IncrementalSolver, SatResult, Sort, TermId, TermManager};

/// A test's RNG seed: its fixed seed, mixed with `SEPE_FAULT_SEED` when that
/// is set.
fn seed(fixed: u64) -> u64 {
    std::env::var("SEPE_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map_or(fixed, |env| fixed ^ env.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The scratch reference: a fresh solver over the conjunction of `terms`.
fn scratch_check(tm: &mut TermManager, terms: &[TermId]) -> SatResult {
    let mut scratch = IncrementalSolver::new();
    scratch.assert_all(tm, terms);
    scratch.check(tm)
}

/// Builds a pool of random bit-vector terms over three variables.
fn random_bv_pool(tm: &mut TermManager, rng: &mut StdRng, width: u32) -> Vec<TermId> {
    let x = tm.var("x", Sort::BitVec(width));
    let y = tm.var("y", Sort::BitVec(width));
    let z = tm.var("z", Sort::BitVec(width));
    let mut pool = vec![x, y, z];
    for _ in 0..10 {
        let a = pool[rng.gen_range(0..pool.len())];
        let b = pool[rng.gen_range(0..pool.len())];
        let t = match rng.gen_range(0..8) {
            0 => tm.bv_add(a, b),
            1 => tm.bv_sub(a, b),
            2 => tm.bv_and(a, b),
            3 => tm.bv_or(a, b),
            4 => tm.bv_xor(a, b),
            5 => tm.bv_mul(a, b),
            6 => tm.bv_not(a),
            _ => {
                let c = tm.bv_ult(a, b);
                tm.ite(c, a, b)
            }
        };
        pool.push(t);
    }
    pool
}

/// Builds a random boolean constraint over the term pool.
fn random_constraint(
    tm: &mut TermManager,
    rng: &mut StdRng,
    pool: &[TermId],
    width: u32,
) -> TermId {
    let a = pool[rng.gen_range(0..pool.len())];
    let b = pool[rng.gen_range(0..pool.len())];
    match rng.gen_range(0..5) {
        0 => tm.eq(a, b),
        1 => tm.neq(a, b),
        2 => tm.bv_ult(a, b),
        3 => tm.bv_ule(a, b),
        _ => {
            let c = tm.bv_const(rng.gen_range(0..(1u64 << width)), width);
            tm.eq(a, c)
        }
    }
}

#[test]
fn incremental_agrees_with_scratch_on_random_query_sequences() {
    let mut rng = StdRng::seed_from_u64(seed(0x01ec_5eed));
    let width = 6;
    let mut checks = 0usize;
    for round in 0..25 {
        let mut tm = TermManager::new();
        let pool = random_bv_pool(&mut tm, &mut rng, width);
        let mut incremental = IncrementalSolver::new();
        let mut permanent: Vec<TermId> = Vec::new();
        let mut permanently_unsat = false;

        // A sequence of interleaved asserts and checks per round.
        for _step in 0..6 {
            if rng.gen_bool(0.4) && !permanently_unsat {
                let c = random_constraint(&mut tm, &mut rng, &pool, width);
                incremental.assert_term(&mut tm, c);
                permanent.push(c);
            }
            let num_assumed = rng.gen_range(0..3);
            let assumed: Vec<TermId> = (0..num_assumed)
                .map(|_| random_constraint(&mut tm, &mut rng, &pool, width))
                .collect();

            let got = incremental.check_assuming(&mut tm, &assumed);
            checks += 1;

            // Scratch reference over the identical conjunction.
            let conjunction: Vec<TermId> = permanent.iter().chain(&assumed).copied().collect();
            let expected = scratch_check(&mut tm, &conjunction);
            assert_eq!(
                got, expected,
                "round {round}: incremental disagrees with scratch \
                 (permanent: {permanent:?}, assumed: {assumed:?})"
            );

            match got {
                SatResult::Sat => {
                    // The incremental model must satisfy every constraint.
                    let model = incremental.model(&tm);
                    for &p in permanent.iter().chain(&assumed) {
                        assert_eq!(
                            model.eval(&tm, p),
                            1,
                            "round {round}: model violates a constraint"
                        );
                    }
                }
                SatResult::Unsat => {
                    // Core sanity: subset of assumptions, itself UNSAT with
                    // the permanent assertions (checked on a fresh solver so
                    // the incremental state is not disturbed).
                    let core: Vec<TermId> = incremental.unsat_core().to_vec();
                    for t in &core {
                        assert!(
                            assumed.contains(t),
                            "round {round}: core member not among assumptions"
                        );
                    }
                    let core_query: Vec<TermId> = permanent.iter().chain(&core).copied().collect();
                    assert_eq!(
                        scratch_check(&mut tm, &core_query),
                        SatResult::Unsat,
                        "round {round}: unsat core {core:?} is not unsatisfiable"
                    );
                    if assumed.is_empty() || core.is_empty() {
                        permanently_unsat = true;
                    }
                }
                SatResult::Unknown => unreachable!("no conflict limit is set"),
            }
        }
    }
    assert!(checks >= 100, "need ≥100 differential checks, ran {checks}");
}

/// Randomized differential check with learnt-database reduction forced on:
/// a reduction interval of a handful of conflicts makes `reduce_db` (and its
/// arena compaction) fire many times within every query sequence, and the
/// verdicts must still agree with scratch solving query for query.
#[test]
fn forced_reduction_agrees_with_scratch_on_random_query_sequences() {
    let mut rng = StdRng::seed_from_u64(seed(0x9ed_0cee));
    let width = 6;
    let mut reduced_total = 0u64;
    for round in 0..20 {
        let mut tm = TermManager::new();
        let pool = random_bv_pool(&mut tm, &mut rng, width);
        let mut incremental = IncrementalSolver::new();
        // Reduce every 5 conflicts: even the small random instances here
        // conflict often enough to trigger many reduction passes.
        incremental.set_reduce_interval(5);
        let mut permanent: Vec<TermId> = Vec::new();
        let mut permanently_unsat = false;

        for _step in 0..6 {
            if rng.gen_bool(0.4) && !permanently_unsat {
                let c = random_constraint(&mut tm, &mut rng, &pool, width);
                incremental.assert_term(&mut tm, c);
                permanent.push(c);
            }
            let num_assumed = rng.gen_range(0..3);
            let assumed: Vec<TermId> = (0..num_assumed)
                .map(|_| random_constraint(&mut tm, &mut rng, &pool, width))
                .collect();

            let got = incremental.check_assuming(&mut tm, &assumed);
            let conjunction: Vec<TermId> = permanent.iter().chain(&assumed).copied().collect();
            assert_eq!(
                got,
                scratch_check(&mut tm, &conjunction),
                "round {round}: reduced incremental disagrees with scratch \
                 (permanent: {permanent:?}, assumed: {assumed:?})"
            );
            match got {
                SatResult::Sat => {
                    let model = incremental.model(&tm);
                    for &p in permanent.iter().chain(&assumed) {
                        assert_eq!(
                            model.eval(&tm, p),
                            1,
                            "round {round}: model violates a constraint after reduction"
                        );
                    }
                }
                SatResult::Unsat => {
                    if assumed.is_empty() || incremental.unsat_core().is_empty() {
                        permanently_unsat = true;
                    }
                }
                SatResult::Unknown => unreachable!("no conflict limit is set"),
            }
        }
        reduced_total += incremental.stats().reduce_passes;
    }
    assert!(
        reduced_total > 0,
        "a 5-conflict interval must trigger reductions somewhere in 20 rounds"
    );
}

/// A wall-clock interrupt in the middle of a search that has already reduced
/// (and compacted) its learnt database must leave the solver reusable: after
/// clearing the deadline, the same solver finishes the query with the right
/// verdict.
#[test]
fn deadline_interrupt_during_reduced_search_leaves_the_solver_reusable() {
    use std::time::{Duration, Instant};

    let mut tm = TermManager::new();
    // A hard query: factor a prime (wrapping at 2^20 a factorization exists,
    // but finding it takes a conflict-heavy search).
    let x = tm.var("x", Sort::BitVec(20));
    let y = tm.var("y", Sort::BitVec(20));
    let p = tm.bv_mul(x, y);
    let c = tm.bv_const(1_048_573, 20);
    let goal = tm.eq(p, c);
    let one = tm.one(20);
    let gx = tm.bv_ugt(x, one);
    let gy = tm.bv_ugt(y, one);

    let mut inc = IncrementalSolver::new();
    inc.assert_term(&mut tm, goal);
    // Force frequent reductions, then interrupt the search almost instantly.
    inc.set_reduce_interval(10);
    inc.set_deadline(Some(Instant::now() + Duration::from_millis(50)));
    let first = inc.check_assuming(&mut tm, &[gx, gy]);
    assert!(
        matches!(first, SatResult::Unknown | SatResult::Sat),
        "a 50ms deadline either interrupts or gets lucky, got {first:?}"
    );
    // Clearing the deadline must let the same solver (reduced database,
    // compacted arena, retained learnt clauses) finish the job.
    inc.set_deadline(None);
    assert_eq!(inc.check_assuming(&mut tm, &[gx, gy]), SatResult::Sat);
    let m = inc.model(&tm);
    assert_eq!((m.value(x) * m.value(y)) & 0xf_ffff, 1_048_573);
    assert!(m.value(x) > 1 && m.value(y) > 1);
    // The solver keeps answering correctly: x = 0 contradicts the permanent
    // product constraint, and the core names the new assumption.
    let zero = tm.zero(20);
    let x0 = tm.eq(x, zero);
    assert_eq!(inc.check_assuming(&mut tm, &[x0]), SatResult::Unsat);
    assert_eq!(inc.unsat_core(), &[x0]);
}

#[test]
fn incremental_depth_sweep_matches_scratch_with_growing_assertions() {
    // A second shape: monotonically growing assertion sets (the BMC pattern)
    // with one retractable "bad state" per check.
    let mut rng = StdRng::seed_from_u64(seed(0xb0c5));
    let width = 5;
    for round in 0..15 {
        let mut tm = TermManager::new();
        let pool = random_bv_pool(&mut tm, &mut rng, width);
        let mut incremental = IncrementalSolver::new();
        let mut permanent: Vec<TermId> = Vec::new();
        for _depth in 0..5 {
            let c = random_constraint(&mut tm, &mut rng, &pool, width);
            incremental.assert_term(&mut tm, c);
            permanent.push(c);
            let bad = random_constraint(&mut tm, &mut rng, &pool, width);

            let got = incremental.check_assuming(&mut tm, &[bad]);
            let conjunction: Vec<TermId> = permanent.iter().chain([&bad]).copied().collect();
            assert_eq!(
                got,
                scratch_check(&mut tm, &conjunction),
                "round {round} diverged"
            );
        }
        let stats = incremental.stats();
        assert_eq!(stats.checks, 5);
        assert!(
            stats.encode.total_reuse() > 0,
            "round {round}: growing assertion sets must reuse cached encodings"
        );
    }
}

/// A random clause literal: a pool constraint, a single bit of a pool term,
/// or the negation of either.
fn random_clause_lit(
    tm: &mut TermManager,
    rng: &mut StdRng,
    pool: &[TermId],
    width: u32,
) -> TermId {
    let lit = if rng.gen_bool(0.5) {
        random_constraint(tm, rng, pool, width)
    } else {
        let t = pool[rng.gen_range(0..pool.len())];
        tm.bv_bit(t, rng.gen_range(0..width))
    };
    if rng.gen_bool(0.5) {
        tm.not(lit)
    } else {
        lit
    }
}

/// `assert_clause(lits)` is the flat-clause spelling of
/// `assert_term(or_many(lits))`: two solvers fed the same random assertions,
/// one through each, must agree on every verdict under the same
/// assumptions, and a model of the flat-clause solver satisfies every
/// clause it was given.
#[test]
fn assert_clause_agrees_with_an_asserted_disjunction() {
    let mut rng = StdRng::seed_from_u64(seed(0xc1a0_5eed));
    let width = 5;
    let mut checks = 0usize;
    for round in 0..30 {
        let mut tm = TermManager::new();
        let pool = random_bv_pool(&mut tm, &mut rng, width);
        let mut flat = IncrementalSolver::new();
        let mut gated = IncrementalSolver::new();
        let mut clauses: Vec<TermId> = Vec::new();
        for _step in 0..5 {
            if rng.gen_bool(0.3) {
                let c = random_constraint(&mut tm, &mut rng, &pool, width);
                flat.assert_term(&mut tm, c);
                gated.assert_term(&mut tm, c);
                clauses.push(c);
            }
            let len = rng.gen_range(1..5);
            let lits: Vec<TermId> = (0..len)
                .map(|_| random_clause_lit(&mut tm, &mut rng, &pool, width))
                .collect();
            flat.assert_clause(&mut tm, &lits);
            let disjunction = tm.or_many(lits);
            gated.assert_term(&mut tm, disjunction);
            clauses.push(disjunction);

            let num_assumed = rng.gen_range(0..3);
            let assumed: Vec<TermId> = (0..num_assumed)
                .map(|_| random_clause_lit(&mut tm, &mut rng, &pool, width))
                .collect();
            let got = flat.check_assuming(&mut tm, &assumed);
            let expected = gated.check_assuming(&mut tm, &assumed);
            checks += 1;
            assert_eq!(
                got, expected,
                "round {round}: flat clause disagrees with the asserted disjunction \
                 (assumed: {assumed:?})"
            );
            if got == SatResult::Sat {
                let model = flat.model(&tm);
                for &c in clauses.iter().chain(&assumed) {
                    assert_eq!(
                        model.eval(&tm, c),
                        1,
                        "round {round}: flat-clause model violates an assertion"
                    );
                }
            }
        }
    }
    assert!(checks >= 100, "need ≥100 differential checks, ran {checks}");
}
