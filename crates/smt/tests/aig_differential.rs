//! Randomized differential tests of the gate-level AIG layer.
//!
//! Every round builds a random assertion set and checks that with the AIG
//! reductions (structural hashing, local rewriting, polarity-aware Tseitin)
//! forced **on** and **off** (the direct-blasting baseline):
//!
//! * a fresh solver's one-shot `assert_all` + `check` returns the same
//!   verdict, and on SAT both models
//!   satisfy every asserted term under the concrete evaluator — i.e. the
//!   polarity-aware encoding reads models back exactly like the
//!   biconditional one;
//! * `IncrementalSolver::check_assuming` returns the same verdict per round
//!   across a shared permanent prefix and changing assumption sets, with
//!   the same model guarantee and sane unsat cores — including runs with
//!   the word-level simplification off and with the clause-database
//!   reduction forced to fire constantly, so the append-only node→variable
//!   mapping is exercised against SAT-state churn.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sepe_smt::concrete::eval;
use sepe_smt::{IncrementalSolver, SatResult, Sort, TermId, TermManager};

const WIDTH: u32 = 8;

struct Gen {
    rng: StdRng,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A random bit-vector expression over the given leaves.
    fn bv_expr(&mut self, tm: &mut TermManager, leaves: &[TermId], depth: usize) -> TermId {
        if depth == 0 || self.rng.gen_bool(0.3) {
            if self.rng.gen_bool(0.3) {
                return tm.bv_const(self.rng.gen_range(0..1u64 << WIDTH), WIDTH);
            }
            return leaves[self.rng.gen_range(0..leaves.len())];
        }
        let a = self.bv_expr(tm, leaves, depth - 1);
        let b = self.bv_expr(tm, leaves, depth - 1);
        match self.rng.gen_range(0..14) {
            0 => tm.bv_add(a, b),
            1 => tm.bv_sub(a, b),
            2 => tm.bv_and(a, b),
            3 => tm.bv_or(a, b),
            4 => tm.bv_xor(a, b),
            5 => tm.bv_mul(a, b),
            6 => tm.bv_shl(a, b),
            7 => tm.bv_lshr(a, b),
            8 => tm.bv_ashr(a, b),
            9 => tm.bv_not(a),
            10 => tm.bv_neg(a),
            11 => {
                let c = self.bool_expr(tm, leaves, 1);
                tm.ite(c, a, b)
            }
            12 => {
                let lo = tm.bv_extract(a, 3, 0);
                let hi = tm.bv_extract(b, 7, 4);
                tm.bv_concat(hi, lo)
            }
            _ => tm.bv_urem(a, b),
        }
    }

    /// A random boolean expression over the given bit-vector leaves.
    fn bool_expr(&mut self, tm: &mut TermManager, leaves: &[TermId], depth: usize) -> TermId {
        let a = self.bv_expr(tm, leaves, depth);
        let b = self.bv_expr(tm, leaves, depth);
        let base = match self.rng.gen_range(0..6) {
            0 => tm.eq(a, b),
            1 => tm.bv_ult(a, b),
            2 => tm.bv_ule(a, b),
            3 => tm.bv_slt(a, b),
            4 => tm.bv_sle(a, b),
            _ => tm.neq(a, b),
        };
        if depth > 0 && self.rng.gen_bool(0.4) {
            let other = self.bool_expr(tm, leaves, depth - 1);
            return match self.rng.gen_range(0..4) {
                0 => tm.and(base, other),
                1 => tm.or(base, other),
                2 => tm.implies(base, other),
                _ => tm.xor(base, other),
            };
        }
        base
    }

    /// A random assertion set with deliberately repeated substructure, so
    /// structural hashing has sharing to find.
    fn assertion_set(&mut self, tm: &mut TermManager, tag: &str) -> Vec<TermId> {
        let x = tm.var(&format!("x_{tag}"), Sort::BitVec(WIDTH));
        let y = tm.var(&format!("y_{tag}"), Sort::BitVec(WIDTH));
        let z = tm.var(&format!("z_{tag}"), Sort::BitVec(WIDTH));
        let leaves = vec![x, y, z];
        let mut out = Vec::new();
        for _ in 0..self.rng.gen_range(2..6) {
            let c = self.bool_expr(tm, &leaves, 2);
            out.push(c);
        }
        out
    }
}

/// Every original assertion must evaluate to 1 under the model.
fn model_satisfies(tm: &TermManager, model: &sepe_smt::Model, asserted: &[TermId]) -> bool {
    asserted
        .iter()
        .all(|&t| eval(tm, t, model.assignment()) == 1)
}

#[test]
fn scratch_solver_aig_is_equisatisfiable_with_agreeing_models() {
    for round in 0..60 {
        let mut gen = Gen::new(0xa160 + round);
        let mut tm = TermManager::new();
        let asserted = gen.assertion_set(&mut tm, "s");

        // Both word-level settings, so the AIG layer is also exercised on
        // raw (unsimplified) structure.
        let simplify = round % 2 == 0;
        let mut on = IncrementalSolver::new();
        let mut off = IncrementalSolver::new();
        off.set_aig(false);
        on.set_simplify(simplify);
        off.set_simplify(simplify);
        on.assert_all(&mut tm, &asserted);
        off.assert_all(&mut tm, &asserted);
        let r_on = on.check(&mut tm);
        let r_off = off.check(&mut tm);
        assert_eq!(r_on, r_off, "round {round}: scratch verdicts diverge");
        if r_on == SatResult::Sat {
            assert!(
                model_satisfies(&tm, on.model(&tm), &asserted),
                "round {round}: AIG model violates an assertion"
            );
            assert!(
                model_satisfies(&tm, off.model(&tm), &asserted),
                "round {round}: direct-blasting model violates an assertion"
            );
        }
    }
}

#[test]
fn incremental_aig_matches_direct_blasting_across_assumption_rounds() {
    for round in 0..40 {
        let mut gen = Gen::new(0xcafe + round);
        let mut tm = TermManager::new();
        let asserted = gen.assertion_set(&mut tm, "i");
        // Last few terms become a pool of retractable assumptions; their
        // complements join it so both polarities of shared cones are
        // assumed across checks (the polarity top-up path).
        let split = 1 + asserted.len() / 2;
        let (permanent, base_pool) = asserted.split_at(split.min(asserted.len() - 1));
        let mut pool: Vec<TermId> = base_pool.to_vec();
        for &t in base_pool {
            pool.push(tm.not(t));
        }

        let simplify = round % 2 == 0;
        let mut on = IncrementalSolver::new();
        let mut off = IncrementalSolver::new();
        off.set_aig(false);
        on.set_simplify(simplify);
        off.set_simplify(simplify);
        if round % 3 == 0 {
            // Force the learnt-database reduction to fire constantly, so
            // the append-only mapping is exercised against clause-arena
            // compaction and watcher remapping.
            on.set_reduce_interval(1);
            off.set_reduce_interval(1);
        }
        for &t in permanent {
            on.assert_term(&mut tm, t);
            off.assert_term(&mut tm, t);
        }
        for sub_round in 0..4 {
            let assumed: Vec<TermId> = pool
                .iter()
                .copied()
                .filter(|_| gen.rng.gen_bool(0.4))
                .collect();
            let r_on = on.check_assuming(&mut tm, &assumed);
            let r_off = off.check_assuming(&mut tm, &assumed);
            assert_eq!(
                r_on, r_off,
                "round {round}.{sub_round}: incremental verdicts diverge"
            );
            match r_on {
                SatResult::Sat => {
                    let mut all: Vec<TermId> = permanent.to_vec();
                    all.extend(&assumed);
                    assert!(
                        model_satisfies(&tm, on.model(&tm), &all),
                        "round {round}.{sub_round}: AIG incremental model is wrong"
                    );
                    assert!(
                        model_satisfies(&tm, off.model(&tm), &all),
                        "round {round}.{sub_round}: direct incremental model is wrong"
                    );
                }
                SatResult::Unsat => {
                    let core = on.unsat_core().to_vec();
                    assert!(
                        core.iter().all(|t| assumed.contains(t)),
                        "round {round}.{sub_round}: core ⊄ assumptions"
                    );
                    assert_eq!(
                        on.check_assuming(&mut tm, &core),
                        SatResult::Unsat,
                        "round {round}.{sub_round}: core is not unsatisfiable"
                    );
                }
                SatResult::Unknown => unreachable!("no budgets set"),
            }
        }
    }
}

#[test]
fn aig_on_emits_fewer_clauses_on_shared_structure() {
    // A set with heavy cross-assertion sharing: the same products appear
    // under many roots, so strash + one-definition-per-node must beat
    // direct blasting on both variables and clauses.
    let mut tm = TermManager::new();
    let x = tm.var("x", Sort::BitVec(WIDTH));
    let y = tm.var("y", Sort::BitVec(WIDTH));
    let z = tm.var("z", Sort::BitVec(WIDTH));
    let sum = tm.bv_add(x, y);
    let prod_a = tm.bv_and(sum, z);
    let xo = tm.bv_xor(sum, z);
    let asserted = vec![
        {
            let c = tm.bv_const(9, WIDTH);
            tm.bv_ult(prod_a, c)
        },
        {
            let c = tm.bv_const(100, WIDTH);
            tm.bv_ult(xo, c)
        },
        {
            // xnor of the same operands: one complement away from `xo`
            let n = tm.bv_not(xo);
            let c = tm.bv_const(17, WIDTH);
            tm.neq(n, c)
        },
    ];
    let run = |aig: bool, tm: &mut TermManager| {
        let mut s = IncrementalSolver::new();
        s.set_aig(aig);
        s.set_simplify(false);
        s.assert_all(tm, &asserted);
        assert_eq!(s.check(tm), SatResult::Sat);
        s.stats().encode
    };
    let on = run(true, &mut tm);
    let off = run(false, &mut tm);
    assert!(
        on.aig.cnf_clauses < off.aig.cnf_clauses,
        "AIG must emit fewer clauses: {} vs {}",
        on.aig.cnf_clauses,
        off.aig.cnf_clauses
    );
    assert!(
        on.aig.cnf_vars < off.aig.cnf_vars,
        "AIG must emit fewer variables: {} vs {}",
        on.aig.cnf_vars,
        off.aig.cnf_vars
    );
    assert!(on.aig.strash_hits > 0);
    assert_eq!(off.aig.strash_hits, 0);
}

#[test]
fn deadline_interrupted_aig_solver_stays_reusable() {
    // A hard query under an already-expired deadline returns Unknown; the
    // same solver must then finish an easy query correctly, with the AIG
    // mapping intact.
    let mut tm = TermManager::new();
    let x = tm.var("x", Sort::BitVec(20));
    let y = tm.var("y", Sort::BitVec(20));
    let p = tm.bv_mul(x, y);
    let c = tm.bv_const(1048573, 20); // prime
    let goal = tm.eq(p, c);
    let one = tm.one(20);
    let gx = tm.bv_ugt(x, one);
    let gy = tm.bv_ugt(y, one);
    let mut inc = IncrementalSolver::new();
    inc.assert_term(&mut tm, goal);
    inc.set_deadline(Some(std::time::Instant::now()));
    let r = inc.check_assuming(&mut tm, &[gx, gy]);
    // the deadline is polled every few conflicts, so a lucky early model
    // can still slip through
    assert!(matches!(r, SatResult::Unknown | SatResult::Sat));
    inc.set_deadline(None);
    let easy = tm.eq(x, one);
    assert_eq!(inc.check_assuming(&mut tm, &[easy]), SatResult::Sat);
    let m = inc.model(&tm);
    assert_eq!(m.value(x), 1);
    assert_eq!((m.value(x) * m.value(y)) & 0xf_ffff, 1048573);
}
