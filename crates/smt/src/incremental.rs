//! Incremental SMT solving: one bit-blaster, one SAT solver, many queries.
//!
//! [`IncrementalSolver`] is the crate's one SMT front end.  It keeps a single
//! [`BitBlaster`] and a single [`SatSolver`] alive for its lifetime, so a
//! depth-`k` BMC sweep encodes each frame once instead of re-encoding the
//! prefix per depth (O(k²) total), and no search restarts cold.  A one-shot
//! query is a fresh solver: [`assert_all`](IncrementalSolver::assert_all),
//! then [`check`](IncrementalSolver::check).
//!
//! * [`assert_term`](IncrementalSolver::assert_term) and
//!   [`assert_all`](IncrementalSolver::assert_all) add *permanent*
//!   assertions — only the not-yet-encoded subgraph of a term is
//!   bit-blasted, everything already seen is a cache hit;
//! * [`assert_clause`](IncrementalSolver::assert_clause) adds a permanent
//!   *flat* clause whose literals are lowered like assumptions — no OR gate,
//!   and no new CNF variable when every literal is already encoded;
//! * [`check_assuming`](IncrementalSolver::check_assuming) decides the
//!   permanent assertions conjoined with a set of *retractable* boolean
//!   terms, lowered to assumption literals (the MiniSat `solve(assumps)`
//!   model) — learnt clauses, VSIDS activity and saved phases carry over
//!   from call to call;
//! * on an assumption-caused UNSAT,
//!   [`unsat_core`](IncrementalSolver::unsat_core) names the subset of
//!   assumed terms that participated in the final conflict.
//!
//! The blaster lowers terms to a structurally hashed and-inverter graph and
//! emits CNF through a polarity-aware Tseitin pass whose node→variable
//! mapping is append-only: clauses are only ever added, so learnt clauses,
//! VSIDS state and the clause-database reduction machinery stay valid across
//! checks.  Assuming the literal [`check_assuming`] obtains for a term is
//! exactly "this term holds" (the emission call tops up whatever polarity
//! implications that occurrence needs) — no auxiliary activation variables,
//! and re-assuming the same term in a later call is free.
//!
//! [`check_assuming`]: IncrementalSolver::check_assuming

use std::time::{Duration, Instant};

use crate::bitblast::BitBlaster;
use crate::cnf::Lit;
use crate::rewrite::{EncodeStats, Rewriter};
use crate::sat::{CancelFlag, FaultHooks, SatSolver, SolveOutcome, StopReason};
use crate::solver::{Model, SatResult};
use crate::term::{TermId, TermManager};

/// Solver-reuse counters shared by everything that runs on top of the
/// incremental pipeline (BMC, CEGIS, the bench harness).
///
/// `*_last_check` fields describe the most recent
/// [`check_assuming`](IncrementalSolver::check_assuming) call; the rest are
/// cumulative over the solver's lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverReuseStats {
    /// Checks issued so far.
    pub checks: u64,
    /// The joint encoding picture: bit-blaster cache counters and the
    /// word-level rewriting counters in one block.
    pub encode: EncodeStats,
    /// CNF variables allocated so far.
    pub cnf_vars: u64,
    /// CNF clauses fed to the SAT solver so far (excluding learnt).
    pub cnf_clauses: u64,
    /// Clauses that were new in the last check.
    pub clauses_last_check: u64,
    /// Learnt clauses retained at the end of the last check (available to
    /// the next one).
    pub learnt_retained: u64,
    /// Learnt-database reduction passes run over the solver's lifetime.
    pub reduce_passes: u64,
    /// Learnt clauses deleted (and their arena slots compacted away) by
    /// reduction over the solver's lifetime.
    pub learnt_deleted: u64,
    /// Most live learnt clauses ever resident at once — with reduction on,
    /// this stays below `learnt_deleted + learnt_retained` (what an
    /// unreduced solver would be holding).
    pub learnt_high_water: u64,
    /// SAT conflicts over the solver's lifetime.
    pub conflicts: u64,
    /// SAT conflicts of the last check.
    pub conflicts_last_check: u64,
    /// SAT propagations over the solver's lifetime.
    pub propagations: u64,
    /// Wall-clock time spent inside checks.
    pub duration: Duration,
    /// Wall-clock time of the last check.
    pub duration_last_check: Duration,
}

impl SolverReuseStats {
    /// Merges another stats block into this one (for drivers aggregating
    /// over several solver lifetimes).
    pub fn absorb(&mut self, other: &SolverReuseStats) {
        self.checks += other.checks;
        self.encode.absorb(&other.encode);
        self.cnf_vars += other.cnf_vars;
        self.cnf_clauses += other.cnf_clauses;
        self.clauses_last_check = other.clauses_last_check;
        self.learnt_retained += other.learnt_retained;
        self.reduce_passes += other.reduce_passes;
        self.learnt_deleted += other.learnt_deleted;
        self.learnt_high_water = self.learnt_high_water.max(other.learnt_high_water);
        self.conflicts += other.conflicts;
        self.conflicts_last_check = other.conflicts_last_check;
        self.propagations += other.propagations;
        self.duration += other.duration;
        self.duration_last_check = other.duration_last_check;
    }
}

/// An SMT solver that persists its encoding and search state across checks.
#[derive(Debug, Clone)]
pub struct IncrementalSolver {
    blaster: BitBlaster,
    sat: SatSolver,
    rewriter: Rewriter,
    simplify: bool,
    conflict_limit: Option<u64>,
    last_model: Option<Model>,
    last_core: Vec<TermId>,
    stats: SolverReuseStats,
}

impl Default for IncrementalSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalSolver {
    /// Creates an empty incremental solver.
    pub fn new() -> Self {
        IncrementalSolver {
            blaster: BitBlaster::new(),
            sat: SatSolver::new(),
            rewriter: Rewriter::new(),
            simplify: true,
            conflict_limit: None,
            last_model: None,
            last_core: Vec::new(),
            stats: SolverReuseStats::default(),
        }
    }

    /// Turns the gate-level AIG reductions of the underlying bit-blaster on
    /// or off (on by default): structural hashing, local rewriting and
    /// polarity-aware Tseitin.  Off is the direct-blasting baseline of the
    /// `aig_off` differential/bench arms.  Must be called before anything is
    /// asserted or checked (the blaster panics otherwise).
    pub fn set_aig(&mut self, on: bool) {
        self.blaster.set_aig(on);
    }

    /// Turns the word-level simplification pass on or off (on by default).
    ///
    /// With simplification on, every permanent assertion is rewritten modulo
    /// the equalities asserted before it (rule catalogue + variable pinning)
    /// and assumptions are rewritten under the same — permanent only — pin
    /// set, so the encoding cache stays coherent across checks.  Models read
    /// back identically either way: variables whose defining equality was
    /// eliminated are reconstructed after each satisfiable check.  Toggling
    /// mid-life is safe in both directions: turning the pass off stops
    /// *harvesting* new pins and applying rules to fresh assertions, but
    /// variables already eliminated keep being substituted (their defining
    /// equality no longer exists in the CNF, so dropping the substitution
    /// would silently unconstrain them); turning it on after unsimplified
    /// assertions is also safe — pins only ever eliminate variables the
    /// bit-blaster has not seen.
    pub fn set_simplify(&mut self, on: bool) {
        self.simplify = on;
    }

    /// CNF variables allocated by the underlying bit-blaster so far.
    pub fn num_cnf_vars(&self) -> u32 {
        self.blaster.cnf().num_vars()
    }

    /// Limits the SAT conflict budget of each subsequent check; `None` means
    /// unlimited.  Exceeding the budget makes the check return
    /// [`SatResult::Unknown`].
    pub fn set_conflict_limit(&mut self, limit: Option<u64>) {
        self.conflict_limit = limit;
    }

    /// Sets a wall-clock deadline for subsequent checks; a check that passes
    /// the deadline returns [`SatResult::Unknown`].  The solver state stays
    /// valid — raise or clear the deadline and check again to continue.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.sat.set_deadline(deadline);
    }

    /// Attaches a *set* of cancellation flags: any raised flag cancels the
    /// check.  Independent cancellation sources (a caller's own flag, the
    /// detection service's request and drain flags) chain this way instead
    /// of replacing each other.
    /// Replaces previously attached flags; an empty set detaches.
    pub fn set_cancel_flags(&mut self, cancel: Vec<CancelFlag>) {
        self.sat.set_cancel_flags(cancel);
    }

    /// Caps the estimated clause-arena + watcher bytes of the underlying SAT
    /// solver ([`SatSolver::memory_estimate`](crate::SatSolver::memory_estimate):
    /// arena words × 4 plus two watchers per clause, which reduction's
    /// compaction lowers); a check whose estimate exceeds the cap returns
    /// [`SatResult::Unknown`] with [`StopReason::MemoryBudget`].  The solver
    /// state stays valid — learnt-database reduction or a raised cap lets a
    /// later check continue.  `None` (default) means unlimited.
    pub fn set_memory_limit(&mut self, limit: Option<usize>) {
        self.sat.set_memory_limit(limit);
    }

    /// Arms the deterministic fault-injection hooks (see [`FaultHooks`]) on
    /// the underlying SAT solver for subsequent checks.
    pub fn set_fault_hooks(&mut self, fault: FaultHooks) {
        self.sat.set_fault_hooks(fault);
    }

    /// Why the last check returned [`SatResult::Unknown`]; `None` after a
    /// conclusive verdict (or before any check).
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.sat.stop_reason()
    }

    /// High-water mark of the SAT solver's memory estimate (bytes), sampled
    /// at the same 1-in-64-conflict point as the budget check.
    pub fn memory_high_water(&self) -> usize {
        self.sat.memory_high_water()
    }

    /// Overrides the learnt-database reduction schedule of the underlying
    /// SAT solver: the next reduction fires `interval` conflicts from now
    /// and the interval grows geometrically from there.  Small values force
    /// frequent reductions (used by the differential tests); the default
    /// schedule is tuned for long-lived solvers and needs no adjustment.
    pub fn set_reduce_interval(&mut self, interval: u64) {
        self.sat.set_reduce_interval(interval);
    }

    /// Permanently asserts a boolean term: [`assert_all`](Self::assert_all)
    /// of the one term.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a boolean term.
    pub fn assert_term(&mut self, tm: &mut TermManager, t: TermId) {
        self.assert_all(tm, &[t]);
    }

    /// Permanently asserts a set of boolean terms.  With simplification on
    /// (the default) the set is rewritten in one joint fixpoint modulo its
    /// own equalities and the already-asserted ones — definitions of
    /// not-yet-encoded variables are eliminated entirely — and only then is
    /// the surviving subgraph bit-blasted (and of that, only the part not
    /// already encoded by earlier work).  On a fresh solver this is a
    /// one-shot query: assert everything at once, then
    /// [`check`](Self::check).
    ///
    /// # Panics
    ///
    /// Panics if a term is not boolean — asserting a bit-vector has no
    /// meaning, so the misuse is rejected at the call site rather than
    /// surfacing as an encoding error later.
    pub fn assert_all(&mut self, tm: &mut TermManager, terms: &[TermId]) {
        for &t in terms {
            assert!(tm.sort(t).is_bool(), "assertions must be boolean terms");
        }
        if !self.simplify {
            // Simplification may have been on earlier: variables it
            // eliminated have no defining equality in the CNF, so their
            // occurrences must keep substituting even with the pass off —
            // blasting such a variable raw would leave it unconstrained.
            for &t in terms {
                let t = if self.rewriter.num_pins() > 0 {
                    self.rewriter.rewrite(tm, t)
                } else {
                    t
                };
                self.blaster.assert_true(tm, t);
            }
            return;
        }
        let to_assert = {
            let blaster = &self.blaster;
            self.rewriter
                .assert_simplify(tm, terms, &|v| blaster.var_encodings().contains_key(&v))
        };
        for c in to_assert {
            self.blaster.assert_true(tm, c);
        }
    }

    /// Permanently asserts the disjunction of boolean terms as **one flat
    /// CNF clause**.  Each literal is rewritten and lowered exactly like an
    /// assumption of [`check_assuming`](Self::check_assuming) — so a term
    /// that is already encoded costs no CNF variable — and the clause is
    /// their disjunction; no OR gate is built.  This is how IC3/PDR adds
    /// guarded frame clauses `¬act ∨ ¬cube` over existing state bits without
    /// growing the encoding per clause.
    ///
    /// # Panics
    ///
    /// Panics if a literal is not a boolean term.
    pub fn assert_clause(&mut self, tm: &mut TermManager, lits: &[TermId]) {
        let mut clause = Vec::with_capacity(lits.len());
        for &t in lits {
            assert!(
                tm.sort(t).is_bool(),
                "clause literals must be boolean terms"
            );
            clause.push(self.literal(tm, t));
        }
        self.blaster.cnf_mut().add_clause(clause);
    }

    /// The CNF literal meaning "`t` holds", with whatever definitions that
    /// needs emitted.  Retractable literals are rewritten under the
    /// permanent pin set but never contribute pins of their own.  Pins stay
    /// applied even with simplification off: an eliminated variable has no
    /// defining equality in the CNF to fall back on.
    fn literal(&mut self, tm: &mut TermManager, t: TermId) -> Lit {
        let r = if self.simplify || self.rewriter.num_pins() > 0 {
            self.rewriter.rewrite(tm, t)
        } else {
            t
        };
        self.blaster.assume_lit(tm, r)
    }

    /// Decides satisfiability of the permanent assertions.
    pub fn check(&mut self, tm: &mut TermManager) -> SatResult {
        self.check_assuming(tm, &[])
    }

    /// Decides satisfiability of the permanent assertions conjoined with the
    /// given boolean terms, which are *retracted* when the call returns.
    ///
    /// On [`SatResult::Unsat`], [`unsat_core`](Self::unsat_core) holds the
    /// subset of `assumptions` involved in the final conflict (empty when the
    /// permanent assertions are unsatisfiable on their own).
    ///
    /// # Panics
    ///
    /// Panics if an assumption is not a boolean term (the same invariant as
    /// [`assert_term`](Self::assert_term)).
    pub fn check_assuming(&mut self, tm: &mut TermManager, assumptions: &[TermId]) -> SatResult {
        let start = Instant::now();
        let mut assumption_lits: Vec<(Lit, TermId)> = Vec::with_capacity(assumptions.len());
        for &t in assumptions {
            assert!(tm.sort(t).is_bool(), "assumptions must be boolean terms");
            let l = self.literal(tm, t);
            assumption_lits.push((l, t));
        }
        let new_clauses = self.sync_clauses();
        self.sat.set_conflict_limit(self.conflict_limit);
        let conflicts_before = self.sat.num_conflicts();
        let lits: Vec<Lit> = assumption_lits.iter().map(|&(l, _)| l).collect();
        let outcome = self.sat.solve_under_assumptions(&lits);

        self.stats.checks += 1;
        self.stats.encode.terms_cached = self.blaster.cached_terms();
        self.stats.encode.terms_reused = self.blaster.cache_hits();
        self.stats.encode.rewrite = self.rewriter.stats();
        self.stats.encode.aig = self.blaster.aig_stats();
        self.stats.clauses_last_check = new_clauses;
        self.stats.learnt_retained = self.sat.num_learnt() as u64;
        let reduce = self.sat.reduce_stats();
        self.stats.reduce_passes = reduce.reductions;
        self.stats.learnt_deleted = reduce.clauses_deleted;
        self.stats.learnt_high_water = reduce.learnt_high_water;
        self.stats.conflicts_last_check = self.sat.num_conflicts() - conflicts_before;
        self.stats.conflicts = self.sat.num_conflicts();
        self.stats.propagations = self.sat.num_propagations();
        self.stats.duration_last_check = start.elapsed();
        self.stats.duration += self.stats.duration_last_check;

        self.last_core.clear();
        match outcome {
            SolveOutcome::Sat => {
                let mut model = Model::read_back(self.blaster.var_encodings(), &self.sat);
                self.rewriter.complete_model(tm, model.assignment_mut());
                self.last_model = Some(model);
                SatResult::Sat
            }
            SolveOutcome::Unsat => {
                self.last_model = None;
                for &failed in self.sat.unsat_assumptions() {
                    for &(l, t) in &assumption_lits {
                        if l == failed && !self.last_core.contains(&t) {
                            self.last_core.push(t);
                        }
                    }
                }
                SatResult::Unsat
            }
            SolveOutcome::Unknown => {
                self.last_model = None;
                SatResult::Unknown
            }
        }
    }

    /// Feeds every clause produced since the last check to the SAT solver.
    fn sync_clauses(&mut self) -> u64 {
        let num_vars = self.blaster.cnf().num_vars();
        self.sat.reserve_vars(num_vars);
        self.stats.cnf_vars = u64::from(num_vars);
        let count = self.blaster.cnf().num_clauses() as u64;
        let sat = &mut self.sat;
        self.blaster.cnf_mut().drain_clauses(|clause| {
            // A `false` return marks permanent unsatisfiability; the solver
            // itself remembers, so no separate flag is needed here.
            let _ = sat.add_clause(clause);
        });
        self.stats.cnf_clauses += count;
        count
    }

    /// The model of the last satisfiable check.
    ///
    /// # Panics
    ///
    /// Panics if the last check was not satisfiable.
    pub fn model(&self, _tm: &TermManager) -> &Model {
        self.last_model
            .as_ref()
            .expect("model requested but last check was not SAT")
    }

    /// The model of the last satisfiable check, if any.
    pub fn try_model(&self) -> Option<&Model> {
        self.last_model.as_ref()
    }

    /// The subset of the last check's assumptions involved in its final
    /// conflict, when the check returned [`SatResult::Unsat`].
    pub fn unsat_core(&self) -> &[TermId] {
        &self.last_core
    }

    /// Cumulative and per-check reuse statistics.
    pub fn stats(&self) -> SolverReuseStats {
        self.stats
    }
}

/// Builds the one-hot assumption set of the activation-literal multiplexing
/// idiom (Eén–Sörensson): assume `literals[selected]` true and every other
/// literal false, followed by any `extra` retractable assumptions (typically
/// the query's goal, e.g. a BMC depth's bad state).
///
/// Passing the whole set — negations included — on *every* check is what
/// keeps a shared encoding sound: a guard `aᵢ ∧ triggerᵢ` is pinned false
/// for each unselected entry, so the one active mutation sees exactly the
/// clauses a dedicated single-mutation encoding would, while learnt clauses
/// that do not depend on any activation literal transfer across the whole
/// catalogue.
///
/// # Panics
///
/// Panics if `selected` is out of range.
pub fn one_hot_assumptions(
    tm: &mut TermManager,
    literals: &[TermId],
    selected: usize,
    extra: &[TermId],
) -> Vec<TermId> {
    assert!(
        selected < literals.len(),
        "selected activation literal {selected} out of range ({} literals)",
        literals.len()
    );
    let mut assumptions = Vec::with_capacity(literals.len() + extra.len());
    for (i, &lit) in literals.iter().enumerate() {
        if i == selected {
            assumptions.push(lit);
        } else {
            assumptions.push(tm.not(lit));
        }
    }
    assumptions.extend_from_slice(extra);
    assumptions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    #[test]
    fn incremental_matches_scratch_on_a_depth_sweep() {
        // x0 = 0, x_{k+1} = x_k + 1; "bad at depth k" ⇔ x_k == 3.
        let mut tm = TermManager::new();
        let width = 8;
        let mut inc = IncrementalSolver::new();
        let mut frames = vec![tm.var("x@0", Sort::BitVec(width))];
        let zero = tm.zero(width);
        let init = tm.eq(frames[0], zero);
        inc.assert_term(&mut tm, init);
        let three = tm.bv_const(3, width);
        for k in 0..6 {
            let next = tm.var(&format!("x@{}", k + 1), Sort::BitVec(width));
            let one = tm.one(width);
            let step = tm.bv_add(frames[k], one);
            let tr = tm.eq(next, step);
            inc.assert_term(&mut tm, tr);
            frames.push(next);
            let bad = tm.eq(next, three);
            let got = inc.check_assuming(&mut tm, &[bad]);
            // Scratch reference: a fresh solver asserting everything at once.
            let mut path = vec![init];
            for j in 0..=k {
                let one = tm.one(width);
                let step = tm.bv_add(frames[j], one);
                path.push(tm.eq(frames[j + 1], step));
            }
            path.push(bad);
            let mut scratch = IncrementalSolver::new();
            scratch.assert_all(&mut tm, &path);
            assert_eq!(got, scratch.check(&mut tm), "divergence at depth {k}");
            if got == SatResult::Sat {
                assert_eq!(inc.model(&tm).eval(&tm, bad), 1);
                assert_eq!(k, 2, "counter reaches 3 exactly at depth 3");
            }
        }
        let stats = inc.stats();
        assert_eq!(stats.checks, 6);
        assert!(
            stats.encode.total_reuse() > 0,
            "depth k+1 must reuse depth k encodings"
        );
    }

    #[test]
    fn retracted_assumptions_do_not_pollute_later_checks() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let five = tm.bv_const(5, 8);
        let six = tm.bv_const(6, 8);
        let is5 = tm.eq(x, five);
        let is6 = tm.eq(x, six);
        let mut inc = IncrementalSolver::new();
        assert_eq!(inc.check_assuming(&mut tm, &[is5, is6]), SatResult::Unsat);
        assert_eq!(inc.check_assuming(&mut tm, &[is5]), SatResult::Sat);
        assert_eq!(inc.model(&tm).value(x), 5);
        assert_eq!(inc.check_assuming(&mut tm, &[is6]), SatResult::Sat);
        assert_eq!(inc.model(&tm).value(x), 6);
    }

    #[test]
    fn unsat_core_names_the_conflicting_terms() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let y = tm.var("y", Sort::BitVec(8));
        let c1 = tm.bv_const(1, 8);
        let c2 = tm.bv_const(2, 8);
        let x_is_1 = tm.eq(x, c1);
        let x_is_2 = tm.eq(x, c2);
        let y_is_1 = tm.eq(y, c1);
        let mut inc = IncrementalSolver::new();
        assert_eq!(
            inc.check_assuming(&mut tm, &[x_is_1, y_is_1, x_is_2]),
            SatResult::Unsat
        );
        let core = inc.unsat_core().to_vec();
        assert!(
            core.contains(&x_is_1) || core.contains(&x_is_2),
            "core {core:?}"
        );
        assert!(!core.contains(&y_is_1), "y is irrelevant to the conflict");
        // Core is itself unsatisfiable.
        assert_eq!(inc.check_assuming(&mut tm, &core), SatResult::Unsat);
    }

    #[test]
    fn assert_clause_over_encoded_literals_allocates_no_variable() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(4));
        let y = tm.var("y", Sort::BitVec(4));
        let b = tm.var("b", Sort::Bool);
        let lt = tm.bv_ult(x, y);
        let either = tm.or(lt, b);
        let mut inc = IncrementalSolver::new();
        inc.assert_term(&mut tm, either);
        assert_eq!(inc.check(&mut tm), SatResult::Sat);
        let before = inc.num_cnf_vars();
        // State-bit literals over already-encoded variables, in both
        // polarities, plus a literal the assertion already encoded.
        let x0 = tm.bv_bit(x, 0);
        let y3 = tm.bv_bit(y, 3);
        let not_y3 = tm.not(y3);
        let not_b = tm.not(b);
        inc.assert_clause(&mut tm, &[x0, not_y3, not_b]);
        inc.assert_clause(&mut tm, &[lt, y3]);
        assert_eq!(inc.num_cnf_vars(), before, "flat clauses build no gates");
        // The clauses bind: ¬x0 ∧ y3 ∧ b falsifies the first one.
        let not_x0 = tm.not(x0);
        assert_eq!(
            inc.check_assuming(&mut tm, &[not_x0, y3, b]),
            SatResult::Unsat
        );
        assert_eq!(inc.check_assuming(&mut tm, &[x0, y3, b]), SatResult::Sat);
        assert_eq!(inc.num_cnf_vars(), before);
    }

    #[test]
    fn permanent_unsat_yields_empty_core() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(4));
        let c1 = tm.bv_const(1, 4);
        let c2 = tm.bv_const(2, 4);
        let a = tm.eq(x, c1);
        let b = tm.eq(x, c2);
        let mut inc = IncrementalSolver::new();
        inc.assert_term(&mut tm, a);
        inc.assert_term(&mut tm, b);
        let t = tm.tru();
        assert_eq!(inc.check_assuming(&mut tm, &[t]), SatResult::Unsat);
        assert!(inc.unsat_core().is_empty());
        assert!(inc.try_model().is_none());
        // Permanent assertions stay contradictory forever.
        assert_eq!(inc.check(&mut tm), SatResult::Unsat);
    }

    #[test]
    fn toggling_simplify_off_keeps_eliminated_variables_constrained() {
        // v = 5 is pin-eliminated (never bit-blasted); turning the pass off
        // afterwards must not let later assertions/assumptions see v as a
        // fresh unconstrained variable.
        let mut tm = TermManager::new();
        let v = tm.var("v", Sort::BitVec(8));
        let five = tm.bv_const(5, 8);
        let six = tm.bv_const(6, 8);
        let is5 = tm.eq(v, five);
        let is6 = tm.eq(v, six);
        let mut inc = IncrementalSolver::new();
        inc.assert_term(&mut tm, is5);
        inc.set_simplify(false);
        assert_eq!(
            inc.check_assuming(&mut tm, &[is6]),
            SatResult::Unsat,
            "assumption on an eliminated variable must still see its pin"
        );
        assert_eq!(inc.check(&mut tm), SatResult::Sat);
        assert_eq!(inc.model(&tm).value(v), 5);
        // ... and a permanent assertion after the toggle, too.
        inc.assert_term(&mut tm, is6);
        assert_eq!(inc.check(&mut tm), SatResult::Unsat);
    }

    #[test]
    fn conflict_limit_yields_unknown_and_recovers() {
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
        inc.set_conflict_limit(Some(3));
        let r = inc.check_assuming(&mut tm, &[gx, gy]);
        assert!(matches!(r, SatResult::Unknown | SatResult::Sat));
        // Raising the budget on the same solver finishes the job, reusing
        // everything learnt so far (x*y wraps mod 2^20, so a factorization
        // of the prime exists via the modular inverse).
        inc.set_conflict_limit(None);
        assert_eq!(inc.check_assuming(&mut tm, &[gx, gy]), SatResult::Sat);
        let m = inc.model(&tm);
        assert_eq!((m.value(x) * m.value(y)) & 0xf_ffff, 1048573);
        assert!(m.value(x) > 1 && m.value(y) > 1);
    }

    #[test]
    fn finds_a_model_for_linear_equation() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(16));
        let y = tm.var("y", Sort::BitVec(16));
        let three = tm.bv_const(3, 16);
        let lhs = tm.bv_mul(x, three);
        let sum = tm.bv_add(lhs, y);
        let target = tm.bv_const(1000, 16);
        let goal = tm.eq(sum, target);
        let hundred = tm.bv_const(100, 16);
        let constraint = tm.bv_ult(y, hundred);

        let mut solver = IncrementalSolver::new();
        solver.assert_all(&mut tm, &[goal, constraint]);
        assert_eq!(solver.check(&mut tm), SatResult::Sat);
        let m = solver.model(&tm);
        let xv = m.value(x);
        let yv = m.value(y);
        assert_eq!((3 * xv + yv) & 0xffff, 1000);
        assert!(yv < 100);
        assert_eq!(m.eval(&tm, goal), 1);
    }

    #[test]
    fn stats_are_populated() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(24));
        let y = tm.var("y", Sort::BitVec(24));
        let p = tm.bv_mul(x, y);
        let c = tm.bv_const(0xbeef, 24);
        let goal = tm.eq(p, c);
        let mut solver = IncrementalSolver::new();
        solver.assert_term(&mut tm, goal);
        let _ = solver.check(&mut tm);
        assert!(solver.stats().cnf_vars > 0);
        assert!(solver.stats().cnf_clauses > 0);
    }

    #[test]
    #[should_panic(expected = "model requested")]
    fn model_panics_without_sat() {
        let tm = TermManager::new();
        let solver = IncrementalSolver::new();
        let _ = solver.model(&tm);
    }

    #[test]
    #[should_panic(expected = "assertions must be boolean")]
    fn asserting_bitvector_panics() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let mut solver = IncrementalSolver::new();
        solver.assert_term(&mut tm, x);
    }
}
