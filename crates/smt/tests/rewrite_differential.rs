//! Randomized differential tests of the word-level rewriting pipeline.
//!
//! Every round builds a random assertion set (random bit-vector/boolean
//! structure plus deliberate `var = term` definitions, so equality pinning
//! actually fires) and checks that with rewriting forced **on** and **off**:
//!
//! * a fresh solver's one-shot `assert_all` + `check` returns the same
//!   verdict, and on SAT both models
//!   satisfy every *original* (unrewritten) assertion under the concrete
//!   evaluator — i.e. eliminated variables read back correctly;
//! * `IncrementalSolver::check_assuming` returns the same verdict per
//!   round across a shared permanent prefix and changing assumption sets,
//!   with the same model-evaluation guarantee and sane unsat cores.

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
        match self.rng.gen_range(0..12) {
            0 => tm.bv_add(a, b),
            1 => tm.bv_sub(a, b),
            2 => tm.bv_and(a, b),
            3 => tm.bv_or(a, b),
            4 => tm.bv_xor(a, b),
            5 => tm.bv_mul(a, b),
            6 => tm.bv_shl(a, b),
            7 => tm.bv_lshr(a, b),
            8 => tm.bv_not(a),
            9 => {
                let c = self.bool_expr(tm, leaves, 1);
                tm.ite(c, a, b)
            }
            10 => {
                let lo = tm.bv_extract(a, 3, 0);
                let hi = tm.bv_extract(b, 7, 4);
                tm.bv_concat(hi, lo)
            }
            _ => {
                let lo = tm.bv_extract(a, 3, 0);
                tm.bv_zero_ext(lo, 4)
            }
        }
    }

    /// A random boolean expression over the given bit-vector leaves.
    fn bool_expr(&mut self, tm: &mut TermManager, leaves: &[TermId], depth: usize) -> TermId {
        let a = self.bv_expr(tm, leaves, depth);
        let b = self.bv_expr(tm, leaves, depth);
        let base = match self.rng.gen_range(0..4) {
            0 => tm.eq(a, b),
            1 => tm.bv_ult(a, b),
            2 => tm.bv_ule(a, b),
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

    /// A random assertion set: structural constraints plus `d_i = expr`
    /// definitions over fresh variables, so pinning has work to do.
    fn assertion_set(&mut self, tm: &mut TermManager, tag: &str) -> Vec<TermId> {
        let x = tm.var(&format!("x_{tag}"), Sort::BitVec(WIDTH));
        let y = tm.var(&format!("y_{tag}"), Sort::BitVec(WIDTH));
        let mut leaves = vec![x, y];
        let mut out = Vec::new();
        for i in 0..self.rng.gen_range(1..4) {
            let d = tm.var(&format!("d{i}_{tag}"), Sort::BitVec(WIDTH));
            let value = self.bv_expr(tm, &leaves, 2);
            let def = if self.rng.gen_bool(0.5) {
                tm.eq(d, value)
            } else {
                tm.eq(value, d)
            };
            out.push(def);
            leaves.push(d);
        }
        for _ in 0..self.rng.gen_range(1..5) {
            let c = self.bool_expr(tm, &leaves, 2);
            out.push(c);
        }
        // Shuffle so definitions are interleaved with their uses (pins must
        // stay sound whichever side is asserted first).
        for i in (1..out.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            out.swap(i, j);
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
fn scratch_solver_rewriting_is_equisatisfiable_with_agreeing_models() {
    for round in 0..60 {
        let mut gen = Gen::new(0xd1ff + round);
        let mut tm = TermManager::new();
        let asserted = gen.assertion_set(&mut tm, "s");

        let mut on = IncrementalSolver::new();
        let mut off = IncrementalSolver::new();
        off.set_simplify(false);
        on.assert_all(&mut tm, &asserted);
        off.assert_all(&mut tm, &asserted);
        let r_on = on.check(&mut tm);
        let r_off = off.check(&mut tm);
        assert_eq!(r_on, r_off, "round {round}: scratch verdicts diverge");
        if r_on == SatResult::Sat {
            assert!(
                model_satisfies(&tm, on.model(&tm), &asserted),
                "round {round}: rewritten model violates an original assertion"
            );
            assert!(
                model_satisfies(&tm, off.model(&tm), &asserted),
                "round {round}: baseline model violates an assertion"
            );
        }
    }
}

#[test]
fn incremental_rewriting_matches_unrewritten_across_assumption_rounds() {
    for round in 0..40 {
        let mut gen = Gen::new(0xabc0 + round);
        let mut tm = TermManager::new();
        let asserted = gen.assertion_set(&mut tm, "i");
        // Last few terms become a pool of retractable assumptions.
        let split = 1 + asserted.len() / 2;
        let (permanent, pool) = asserted.split_at(split.min(asserted.len() - 1));

        let mut on = IncrementalSolver::new();
        let mut off = IncrementalSolver::new();
        off.set_simplify(false);
        for &t in permanent {
            on.assert_term(&mut tm, t);
            off.assert_term(&mut tm, t);
        }
        // Several checks on the same pair of solvers: subsets of the pool.
        for sub_round in 0..4 {
            let assumed: Vec<TermId> = pool
                .iter()
                .copied()
                .filter(|_| gen.rng.gen_bool(0.6))
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
                        "round {round}.{sub_round}: rewritten incremental model is wrong"
                    );
                    assert!(
                        model_satisfies(&tm, off.model(&tm), &all),
                        "round {round}.{sub_round}: baseline incremental model is wrong"
                    );
                }
                SatResult::Unsat => {
                    // Core sanity on the rewriting solver: a subset of the
                    // assumptions that is itself unsatisfiable.
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
fn rewriting_forced_on_pins_definitions_and_still_agrees_with_scratch() {
    // A shape guaranteed to pin: chained definitions folding to constants,
    // checked against an unrewritten scratch solver at every step.
    let mut tm = TermManager::new();
    let x = tm.var("x", Sort::BitVec(WIDTH));
    let a = tm.var("a", Sort::BitVec(WIDTH));
    let b = tm.var("b", Sort::BitVec(WIDTH));
    let five = tm.bv_const(5, WIDTH);
    let def_a = tm.eq(a, five); // a = 5
    let ax = tm.bv_add(a, x);
    let def_b = tm.eq(b, ax); // b = a + x
    let twelve = tm.bv_const(12, WIDTH);
    let goal = tm.eq(b, twelve); // b = 12  ⇒  x = 7

    let mut inc = IncrementalSolver::new();
    inc.assert_term(&mut tm, def_a);
    inc.assert_term(&mut tm, def_b);
    assert!(
        inc.stats().encode.rewrite.pins == 0,
        "stats update lazily — only at check time"
    );
    assert_eq!(inc.check_assuming(&mut tm, &[goal]), SatResult::Sat);
    let stats = inc.stats();
    assert!(stats.encode.rewrite.pins >= 2, "a and b must be pinned");
    let m = inc.model(&tm);
    assert_eq!(m.value(x), 7);
    assert_eq!(m.value(a), 5, "eliminated variable reads back");
    assert_eq!(m.value(b), 12, "chained eliminated variable reads back");

    let mut scratch = IncrementalSolver::new();
    scratch.set_simplify(false);
    scratch.assert_all(&mut tm, &[def_a, def_b, goal]);
    assert_eq!(scratch.check(&mut tm), SatResult::Sat);
    assert_eq!(scratch.model(&tm).value(x), 7);
}
