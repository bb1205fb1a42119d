//! Bradley-style IC3/PDR over the incremental stack, at the bit level.
//!
//! One persistent [`IncrementalSolver`] carries a **two-frame** unrolling —
//! `T(0→1)` with the frame constraints of both copies — and every
//! frame-wise reachability query rides on retractable assumptions:
//!
//! * the initial states are asserted under an `init` **activation literal**,
//!   so `F_0 = init` queries assume it and relative-induction queries leave
//!   it retracted;
//! * a frame clause learned at level `l` is asserted as the flat clause
//!   `¬act_l ∨ ¬cube@0`; querying `F_j` assumes `act_l` for every `l ≥ j`,
//!   which makes the frame-monotonicity `F_{j+1} ⊆ F_j` a property of the
//!   assumption set instead of a copying discipline.  *Pushing* a clause to
//!   the next frame just re-asserts it under the next level's literal — the
//!   old guarded copy stays valid because the clause also still holds in
//!   every earlier frame.
//!
//! **Cubes range over state bits.**  A cube literal pins one bit of one
//! state variable (the variable itself for a boolean), so its frame-0
//! literal is the state bit and its frame-1 literal the next-state bit the
//! transition relation already encodes.  Both are encoded once, when the
//! engine opens; every clause PDR adds afterwards goes through
//! [`IncrementalSolver::assert_clause`] as one flat CNF clause over those
//! existing literals, so no query builds a gate.  The only variable a query
//! allocates is the `¬cube` literal of a relative-induction query (below),
//! which keeps the solver at the size of the two-frame encoding plus one
//! variable per such query.
//!
//! A satisfiable frontier query `F_N ∧ bad` yields a **cube** (every state
//! bit's model value) and a proof obligation at level `N`.  Blocking an
//! obligation `(s, k)` first checks `init ∧ s` — a hit is a real
//! counterexample — and then asks the relative-induction query
//! `F_{k-1} ∧ ¬s ∧ T ∧ s′`: `¬s` is a flat clause guarded by a fresh
//! literal `q` that the query assumes and that is retired by the unit `¬q`
//! straight after it, and the primed cube is passed as *individual*
//! assumptions.  **Generalisation is init-safe by construction**: on UNSAT
//! the learned cube keeps the primed literals of the relative-induction
//! core plus the frame-0 literals of the init check's core.  The latter
//! alone already excludes every initial state, and the former keeps the
//! cube inductive relative to `F_{k-1}`, so the union needs no further
//! check.
//!
//! The frames converge when some level `i < N` holds no clause of exactly
//! level `i` — then `F_i = F_{i+1}`, and the conjunction of the clauses at
//! level `≥ i` is a 1-inductive invariant.  It ships as a
//! [`ProofCertificate`] for the independent self-check.
//!
//! On falsification PDR does **not** reconstruct the trace from its
//! obligation chain (generalised frames make that fragile); it re-runs the
//! bounded checker at the discovered depth and returns *its* witness — the
//! reference path, shortest-first, already wired for witness replay.
//!
//! Cone-of-influence reduction is disabled throughout: cubes range over
//! *all* state bits, and a variable whose next-state update the cone pass
//! dropped would float unconstrained inside them.  Word-level rewriting and
//! the AIG layer stay on (equisatisfiability-preserving).

use std::time::Instant;

use sepe_smt::{FastMap, IncrementalSolver, SatResult, Sort, StopReason, TermId, TermManager};

use crate::bmc::{Bmc, BmcConfig, BmcMode, BmcResult};
use crate::prove::{ProofCertificate, ProofMethod, ProofRun, ProveStats};
use crate::ts::TransitionSystem;
use crate::unroll::Unroller;

/// One cube literal: a single state bit pinned to a model value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CubeLit {
    /// The original (unprimed) state variable.
    var: TermId,
    /// The bit of `var` (0 for a boolean variable).
    bit: u32,
    /// Its value in the model.
    value: bool,
}

impl CubeLit {
    /// The literal with the opposite value.
    fn negated(self) -> CubeLit {
        CubeLit {
            value: !self.value,
            ..self
        }
    }
}

/// A conjunction of [`CubeLit`]s — a (possibly generalised) state cube.
type Cube = Vec<CubeLit>;

/// A frame clause: the negation of a blocked cube, tracked at the highest
/// frame level it is known to hold relative to.
#[derive(Debug, Clone)]
struct FrameClause {
    /// The blocked cube (over original state variables).
    cube: Cube,
    /// The clause `¬cube` as a term over the original state variables.
    clause: TermId,
    /// Highest level the clause belongs to: it holds in `F_j` for every
    /// `j ≤ level`.
    level: usize,
}

/// The IC3/PDR prover.  Reuses [`BmcConfig`] wholesale (budgets,
/// cancellation, preprocessing toggles, fault plan); `mode` and the
/// cone-of-influence half of `simplify` are ignored.
#[derive(Debug, Clone, Default)]
pub struct Pdr {
    config: BmcConfig,
}

/// Internal signal that a run must stop without a verdict.
struct Interrupted(StopReason);

impl Pdr {
    /// Creates a prover with the given configuration.
    pub fn new(config: BmcConfig) -> Self {
        Pdr { config }
    }

    /// Runs the frame loop up to frontier `max_frames`.
    ///
    /// Outcomes: [`BmcResult::Counterexample`] with a reference-BMC witness,
    /// [`BmcResult::Proved`] with an inductive-invariant certificate,
    /// [`BmcResult::NoCounterexample`] when the frontier cap passes without
    /// convergence (still a sound bounded verdict: `F_N ⊨ ¬bad` was
    /// established for every opened frontier), [`BmcResult::Unknown`] on a
    /// budget or fault.  `config.start_bound ≥ 1` skips the depth-0
    /// `init ∧ bad` check, mirroring the bounded modes.
    pub fn check(
        &mut self,
        tm: &mut TermManager,
        ts: &TransitionSystem,
        max_frames: usize,
    ) -> ProofRun {
        let mut engine = PdrEngine::open(tm, ts, &self.config);
        let started = engine.started;
        match engine.run(tm, max_frames) {
            Ok(result) => {
                let certificate = match &result {
                    BmcResult::Proved { .. } => Some(ProofCertificate {
                        clauses: engine.invariant_clauses(),
                    }),
                    _ => None,
                };
                let mut stats = engine.stats();
                stats.duration = started.elapsed();
                ProofRun {
                    result,
                    certificate,
                    stats,
                }
            }
            Err(Interrupted(reason)) => {
                let mut stats = engine.stats();
                stats.duration = started.elapsed();
                ProofRun {
                    result: BmcResult::Unknown {
                        bound: engine.frontier,
                        reason,
                    },
                    certificate: None,
                    stats,
                }
            }
        }
    }
}

/// The live state of one PDR run.
struct PdrEngine<'ts> {
    ts: &'ts TransitionSystem,
    config: BmcConfig,
    solver: IncrementalSolver,
    unroller: Unroller<'ts>,
    /// Activation literal guarding the initial-state assertion.
    init_act: TermId,
    not_init_act: TermId,
    /// The bad-state predicate at frame 0.
    bad0: TermId,
    /// Every state bit `(var, bit)` with its literal at frames 0 and 1.
    bits: FastMap<(TermId, u32), [TermId; 2]>,
    /// Per-level clause activation literals (index 0 unused).
    level_acts: Vec<TermId>,
    clauses: Vec<FrameClause>,
    frontier: usize,
    /// Level of the invariant when the frames converged.
    converged_at: Option<usize>,
    started: Instant,
    queries: u64,
    induction_queries: u64,
    cubes_blocked: u64,
    literals_dropped: u64,
    clauses_pushed: u64,
}

/// Width in bits of a state variable (1 for a boolean).
fn bit_width(tm: &TermManager, var: TermId) -> u32 {
    match tm.sort(var) {
        Sort::Bool => 1,
        Sort::BitVec(w) => w,
    }
}

/// The term "bit `bit` of `var` is set" (`var` itself for a boolean).
fn bit_term(tm: &mut TermManager, var: TermId, bit: u32) -> TermId {
    match tm.sort(var) {
        Sort::Bool => var,
        Sort::BitVec(_) => tm.bv_bit(var, bit),
    }
}

impl<'ts> PdrEngine<'ts> {
    fn open(tm: &mut TermManager, ts: &'ts TransitionSystem, config: &BmcConfig) -> Self {
        let started = Instant::now();
        let mut solver = config.solver(started);
        let mut unroller = Unroller::new(ts);
        let c0 = unroller.constraints_at(tm, 0);
        solver.assert_term(tm, c0);
        let c1 = unroller.constraints_at(tm, 1);
        solver.assert_term(tm, c1);
        let t01 = unroller.transition(tm, 0);
        solver.assert_term(tm, t01);
        let init_act = tm.fresh_var("pdr_init_act", Sort::Bool);
        let init = unroller.init(tm);
        let guarded = tm.implies(init_act, init);
        solver.assert_term(tm, guarded);
        let not_init_act = tm.not(init_act);
        let bad0 = unroller.bad_at(tm, 0);
        // Encode every literal a query can mention — each state bit at both
        // frames, and the bad predicate — in both polarities now, through the
        // tautology `l ∨ ¬l` (the SAT core drops the clause itself).  From
        // here on the only new CNF variables are one `¬cube` literal per
        // relative-induction query and one activation literal per level.
        let mut bits = FastMap::default();
        let mut encoded = vec![bad0];
        for sv in ts.state_vars() {
            for bit in 0..bit_width(tm, sv.current) {
                let at = [0, 1].map(|k| {
                    let var = unroller.var_at(tm, sv.current, k);
                    bit_term(tm, var, bit)
                });
                encoded.extend(at);
                bits.insert((sv.current, bit), at);
            }
        }
        for lit in encoded {
            let not_lit = tm.not(lit);
            solver.assert_clause(tm, &[lit, not_lit]);
        }
        PdrEngine {
            ts,
            config: config.clone(),
            solver,
            unroller,
            init_act,
            not_init_act,
            bad0,
            bits,
            level_acts: Vec::new(),
            clauses: Vec::new(),
            frontier: 0,
            converged_at: None,
            started,
            queries: 0,
            induction_queries: 0,
            cubes_blocked: 0,
            literals_dropped: 0,
            clauses_pushed: 0,
        }
    }

    fn stats(&self) -> ProveStats {
        let solver = self.solver.stats();
        ProveStats {
            queries: self.queries,
            conflicts: solver.conflicts,
            duration: self.started.elapsed(),
            depth_reached: self.frontier,
            cubes_blocked: self.cubes_blocked,
            literals_dropped: self.literals_dropped,
            clauses_pushed: self.clauses_pushed,
            solver,
        }
    }

    /// The converged invariant's clauses over the original state variables.
    fn invariant_clauses(&self) -> Vec<TermId> {
        let at = self.converged_at.unwrap_or(usize::MAX);
        self.clauses
            .iter()
            .filter(|c| c.level >= at)
            .map(|c| c.clause)
            .collect()
    }

    /// The activation literal of `level`, created on first use.
    fn act(&mut self, tm: &mut TermManager, level: usize) -> TermId {
        while self.level_acts.len() <= level {
            let idx = self.level_acts.len();
            self.level_acts
                .push(tm.fresh_var(&format!("pdr_act_l{idx}"), Sort::Bool));
        }
        self.level_acts[level]
    }

    /// Assumption set selecting frame `m`: `F_0` is the initial states,
    /// `F_m` (m ≥ 1) is every clause of level ≥ m.
    fn frame_assumptions(&mut self, tm: &mut TermManager, m: usize) -> Vec<TermId> {
        if m == 0 {
            return vec![self.init_act];
        }
        let top = self.level_acts.len().saturating_sub(1).max(m);
        let mut assumptions = vec![self.not_init_act];
        for level in m..=top {
            let a = self.act(tm, level);
            assumptions.push(a);
        }
        assumptions
    }

    /// One `check_assuming` with budget classification.  The wall budget is
    /// re-polled out here too: PDR issues thousands of individually cheap
    /// queries, so the solver-side deadline (checked during search) alone
    /// would let a run overshoot by the full obligation cascade.
    fn query(
        &mut self,
        tm: &mut TermManager,
        assumptions: &[TermId],
    ) -> Result<SatResult, Interrupted> {
        if let Some(limit) = self.config.time_limit {
            if self.started.elapsed() >= limit {
                return Err(Interrupted(StopReason::Deadline));
            }
        }
        let result = self.solver.check_assuming(tm, assumptions);
        self.queries += 1;
        if result == SatResult::Unknown {
            let reason = self
                .solver
                .stop_reason()
                .unwrap_or(StopReason::ConflictBudget);
            return Err(Interrupted(reason));
        }
        Ok(result)
    }

    /// Which of `lits` the last UNSAT query's core used, position by
    /// position.
    fn core_mask(&self, lits: &[TermId]) -> Vec<bool> {
        let core = self.solver.unsat_core();
        lits.iter().map(|t| core.contains(t)).collect()
    }

    /// Extracts the full state-bit cube of the model's frame 0.
    fn model_cube(&mut self, tm: &mut TermManager) -> Cube {
        let mut cube = Vec::with_capacity(self.bits.len());
        for sv in self.ts.state_vars() {
            let at0 = self.unroller.var_at(tm, sv.current, 0);
            let value = self.solver.model(tm).value(at0);
            for bit in 0..bit_width(tm, sv.current) {
                cube.push(CubeLit {
                    var: sv.current,
                    bit,
                    value: (value >> bit) & 1 == 1,
                });
            }
        }
        cube
    }

    /// The cube literal as a term at frame `k` (0 or 1).
    fn lit_at(&self, tm: &mut TermManager, lit: CubeLit, k: usize) -> TermId {
        let bit = self.bits[&(lit.var, lit.bit)][k];
        if lit.value {
            bit
        } else {
            tm.not(bit)
        }
    }

    /// The clause `¬cube` over the *original* state variables (certificate
    /// currency).
    fn clause_term(tm: &mut TermManager, cube: &Cube) -> TermId {
        let lits: Vec<TermId> = cube
            .iter()
            .map(|lit| {
                let bit = bit_term(tm, lit.var, lit.bit);
                if lit.value {
                    tm.not(bit)
                } else {
                    bit
                }
            })
            .collect();
        tm.or_many(lits)
    }

    /// Asserts the flat clause `¬guard ∨ ¬cube@0`: while `guard` is
    /// assumed, no frame-0 state lies in the cube.
    fn assert_blocked(&mut self, tm: &mut TermManager, guard: TermId, cube: &Cube) {
        let mut lits = Vec::with_capacity(cube.len() + 1);
        lits.push(tm.not(guard));
        for &lit in cube {
            lits.push(self.lit_at(tm, lit.negated(), 0));
        }
        self.solver.assert_clause(tm, &lits);
    }

    /// Records `¬cube` as a frame clause at `level` and asserts its guarded
    /// frame-0 copy.
    fn add_clause(&mut self, tm: &mut TermManager, cube: Cube, level: usize) {
        let act = self.act(tm, level);
        self.assert_blocked(tm, act, &cube);
        let clause = Self::clause_term(tm, &cube);
        self.clauses.push(FrameClause {
            cube,
            clause,
            level,
        });
        self.cubes_blocked += 1;
    }

    /// The init check `init ∧ cube@0`: `None` when the cube holds an
    /// initial state, otherwise which of its literals the UNSAT core used —
    /// a sub-cube that on its own excludes every initial state.
    fn init_core(
        &mut self,
        tm: &mut TermManager,
        cube: &Cube,
    ) -> Result<Option<Vec<bool>>, Interrupted> {
        let mut assumptions = Vec::with_capacity(cube.len() + 1);
        assumptions.push(self.init_act);
        for &lit in cube {
            assumptions.push(self.lit_at(tm, lit, 0));
        }
        if self.query(tm, &assumptions)? == SatResult::Sat {
            return Ok(None);
        }
        Ok(Some(self.core_mask(&assumptions[1..])))
    }

    /// The relative-induction query `F_{k-1} ∧ ¬cube ∧ T ∧ cube′`: `None`
    /// when it is satisfiable (the model's frame 0 is a predecessor),
    /// otherwise which primed literals the UNSAT core used.  `¬cube` is a
    /// flat clause behind a fresh literal `q`, retired by the unit `¬q`
    /// straight after the query whatever its outcome, so it never
    /// constrains a later query.
    fn relative_induction(
        &mut self,
        tm: &mut TermManager,
        cube: &Cube,
        k: usize,
    ) -> Result<Option<Vec<bool>>, Interrupted> {
        let q = tm.fresh_var("pdr_q", Sort::Bool);
        self.assert_blocked(tm, q, cube);
        let mut assumptions = self.frame_assumptions(tm, k - 1);
        assumptions.push(q);
        let primed = assumptions.len();
        for &lit in cube {
            assumptions.push(self.lit_at(tm, lit, 1));
        }
        let result = self.query(tm, &assumptions);
        let not_q = tm.not(q);
        self.solver.assert_clause(tm, &[not_q]);
        self.induction_queries += 1;
        if result? == SatResult::Sat {
            return Ok(None);
        }
        Ok(Some(self.core_mask(&assumptions[primed..])))
    }

    /// Handles the obligation queue rooted at one frontier counterexample
    /// cube; `Ok(Some(steps))` means a real counterexample was traced to
    /// the initial states, with `steps` transitions between the initial
    /// cube and the bad state.  Each obligation carries its exact
    /// distance-to-bad: re-enqueued cubes keep chasing the frontier at the
    /// same distance, so a chain can be *longer* than the frontier and the
    /// frontier alone would under-report the trace depth.
    fn block_obligations(
        &mut self,
        tm: &mut TermManager,
        root: Cube,
        root_level: usize,
    ) -> Result<Option<usize>, Interrupted> {
        // (cube, level, transitions from the cube to the bad state)
        let mut obligations: Vec<(Cube, usize, usize)> = vec![(root, root_level, 0)];
        while !obligations.is_empty() {
            // Lowest level first: counterexamples surface at the initial
            // states as early as possible.
            let idx = obligations
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, k, _))| *k)
                .map(|(i, _)| i)
                .expect("queue is non-empty");
            let (cube, k, dist) = obligations.swap_remove(idx);
            // An obligation cube that contains an initial state is a real
            // counterexample: the obligation chain connects it to bad.
            let Some(init_core) = self.init_core(tm, &cube)? else {
                return Ok(Some(dist));
            };
            if k == 0 {
                // Cannot happen with the init check above (a level-0
                // predecessor was extracted under the init assumption),
                // but a queue entry at 0 is by definition traced to init.
                return Ok(Some(dist));
            }
            match self.relative_induction(tm, &cube, k)? {
                Some(induction_core) => {
                    // Generalise to the union of the two cores: the init
                    // core excludes the initial states, the induction core
                    // keeps the cube inductive relative to F_{k-1}.
                    let general: Cube = cube
                        .iter()
                        .zip(init_core.iter().zip(&induction_core))
                        .filter(|(_, (&in_init, &in_induction))| in_init || in_induction)
                        .map(|(&lit, _)| lit)
                        .collect();
                    self.literals_dropped += (cube.len() - general.len()) as u64;
                    self.add_clause(tm, general, k);
                    // Re-enqueue one frame later: re-blocking the same cube
                    // at k+1 is how obligations chase the frontier and how
                    // clauses end up high enough to converge.
                    if k < self.frontier {
                        obligations.push((cube, k + 1, dist));
                    }
                }
                None => {
                    let predecessor = self.model_cube(tm);
                    obligations.push((predecessor, k - 1, dist + 1));
                    obligations.push((cube, k, dist));
                }
            }
        }
        Ok(None)
    }

    /// Pushes every clause that is inductive relative to its own level one
    /// frame forward; reports whether some level `i < frontier` emptied
    /// (frame convergence).
    fn push_clauses(&mut self, tm: &mut TermManager) -> Result<Option<usize>, Interrupted> {
        for level in 1..self.frontier {
            let candidates: Vec<usize> = (0..self.clauses.len())
                .filter(|&i| self.clauses[i].level == level)
                .collect();
            for i in candidates {
                let cube = self.clauses[i].cube.clone();
                // F_level ∧ T ∧ cube′ unsat ⇒ ¬cube also holds in
                // F_{level+1}.
                let mut assumptions = self.frame_assumptions(tm, level);
                for &lit in &cube {
                    assumptions.push(self.lit_at(tm, lit, 1));
                }
                if self.query(tm, &assumptions)? == SatResult::Unsat {
                    let act = self.act(tm, level + 1);
                    self.assert_blocked(tm, act, &cube);
                    self.clauses[i].level = level + 1;
                    self.clauses_pushed += 1;
                }
            }
        }
        for level in 1..self.frontier {
            if !self.clauses.iter().any(|c| c.level == level) {
                return Ok(Some(level));
            }
        }
        Ok(None)
    }

    fn run(&mut self, tm: &mut TermManager, max_frames: usize) -> Result<BmcResult, Interrupted> {
        // Depth-0 base: init ∧ bad (skipped when start_bound ≥ 1, exactly
        // like the bounded modes' by-construction guarantee).
        if self.config.start_bound == 0 {
            let assumptions = [self.init_act, self.bad0];
            if self.query(tm, &assumptions)? == SatResult::Sat {
                return self.confirmed_counterexample(tm, 0);
            }
        }
        for frontier in 1..=max_frames {
            self.frontier = frontier;
            if self.config.fault.cancel_at_depth == Some(frontier) {
                return Err(Interrupted(StopReason::Cancelled));
            }
            // Block every bad state out of the frontier frame.
            loop {
                let mut assumptions = self.frame_assumptions(tm, frontier);
                assumptions.push(self.bad0);
                if self.query(tm, &assumptions)? == SatResult::Unsat {
                    break;
                }
                let cube = self.model_cube(tm);
                if let Some(steps) = self.block_obligations(tm, cube, frontier)? {
                    return self.confirmed_counterexample(tm, steps);
                }
            }
            if let Some(level) = self.push_clauses(tm)? {
                self.converged_at = Some(level);
                return Ok(BmcResult::Proved {
                    method: ProofMethod::Pdr,
                    depth: frontier,
                });
            }
        }
        Ok(BmcResult::NoCounterexample { bound: max_frames })
    }

    /// Re-derives a falsification through the bounded reference checker so
    /// the returned witness is a genuine shortest-first BMC trace (PDR's
    /// own obligation chain is generalised away from concrete inputs).
    fn confirmed_counterexample(
        &mut self,
        tm: &mut TermManager,
        depth_hint: usize,
    ) -> Result<BmcResult, Interrupted> {
        let config = BmcConfig {
            mode: BmcMode::PerDepth,
            ..self.config.clone()
        };
        let mut bmc = Bmc::new(config);
        match bmc.check(tm, self.ts, depth_hint) {
            BmcResult::Counterexample(witness) => Ok(BmcResult::Counterexample(witness)),
            BmcResult::Unknown { reason, .. } => Err(Interrupted(reason)),
            // The frames said "reachable", the reference checker says "not
            // within the hinted depth": a structured disagreement, the
            // falsification-side analogue of a failed certificate check.
            _ => Err(Interrupted(StopReason::ProofMismatch)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prove::verify_certificate;

    fn capped_counter(tm: &mut TermManager) -> TransitionSystem {
        let count = tm.var("count", Sort::BitVec(2));
        let zero = tm.zero(2);
        let one = tm.one(2);
        let two = tm.bv_const(2, 2);
        let three = tm.bv_const(3, 2);
        let at_two = tm.eq(count, two);
        let inc = tm.bv_add(count, one);
        let next = tm.ite(at_two, zero, inc);
        let bad = tm.eq(count, three);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(tm, count, Some(zero), next);
        ts.add_bad(bad);
        ts
    }

    fn free_counter(tm: &mut TermManager) -> TransitionSystem {
        let count = tm.var("count", Sort::BitVec(2));
        let zero = tm.zero(2);
        let one = tm.one(2);
        let three = tm.bv_const(3, 2);
        let next = tm.bv_add(count, one);
        let bad = tm.eq(count, three);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(tm, count, Some(zero), next);
        ts.add_bad(bad);
        ts
    }

    /// Two 3-bit registers and a boolean flag: `x` counts 0..=5 and wraps,
    /// `y` shadows `x` one step behind, `f` is raised exactly when `x`
    /// wraps.  Safe: `x ≠ 6`, `y ≠ 7`, and `f` implies `x = 0`.
    fn shadowed_counter(tm: &mut TermManager) -> TransitionSystem {
        let x = tm.var("x", Sort::BitVec(3));
        let y = tm.var("y", Sort::BitVec(3));
        let f = tm.var("f", Sort::Bool);
        let zero = tm.zero(3);
        let one = tm.one(3);
        let five = tm.bv_const(5, 3);
        let six = tm.bv_const(6, 3);
        let seven = tm.bv_const(7, 3);
        let at_five = tm.eq(x, five);
        let inc = tm.bv_add(x, one);
        let next_x = tm.ite(at_five, zero, inc);
        let fls = tm.fls();
        let x_six = tm.eq(x, six);
        let y_seven = tm.eq(y, seven);
        let x_nonzero = tm.neq(x, zero);
        let f_wrong = tm.and(f, x_nonzero);
        let bad = tm.or_many([x_six, y_seven, f_wrong]);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(tm, x, Some(zero), next_x);
        ts.add_state_var(tm, y, Some(zero), x);
        ts.add_state_var(tm, f, Some(fls), at_five);
        ts.add_bad(bad);
        ts
    }

    /// Proves `ts` on a bare engine, re-verifies the invariant and checks
    /// the growth bound: past `open`, the solver gains at most one CNF
    /// variable per relative-induction query (its `¬cube` literal) and one
    /// per frame level (its activation literal) — never a gate per query.
    /// Returns the number of literals generalisation dropped.
    fn prove_without_per_query_gates(tm: &mut TermManager, ts: &TransitionSystem) -> u64 {
        let mut engine = PdrEngine::open(tm, ts, &BmcConfig::default());
        let opened = u64::from(engine.solver.num_cnf_vars());
        let proved = matches!(engine.run(tm, 16), Ok(BmcResult::Proved { .. }));
        assert!(proved, "the system is safe and PDR must prove it");
        let cert = ProofCertificate {
            clauses: engine.invariant_clauses(),
        };
        assert_eq!(verify_certificate(tm, ts, &cert), Ok(()));
        let allowance = engine.induction_queries + engine.level_acts.len() as u64;
        let final_vars = engine.stats().solver.cnf_vars;
        assert!(
            final_vars <= opened + allowance,
            "PDR grew from {opened} to {final_vars} CNF variables over {} \
             relative-induction queries and {} levels",
            engine.induction_queries,
            engine.level_acts.len()
        );
        engine.literals_dropped
    }

    #[test]
    fn queries_allocate_no_gates_on_the_capped_counter() {
        let mut tm = TermManager::new();
        let ts = capped_counter(&mut tm);
        prove_without_per_query_gates(&mut tm, &ts);
    }

    #[test]
    fn queries_allocate_no_gates_on_a_multi_bit_system_with_a_flag() {
        let mut tm = TermManager::new();
        let ts = shadowed_counter(&mut tm);
        let dropped = prove_without_per_query_gates(&mut tm, &ts);
        assert!(dropped > 0, "cores generalise the bit cubes");
    }

    #[test]
    fn proves_the_capped_counter_with_a_verifying_invariant() {
        let mut tm = TermManager::new();
        let ts = capped_counter(&mut tm);
        let run = Pdr::new(BmcConfig::default()).check(&mut tm, &ts, 16);
        let BmcResult::Proved { method, .. } = run.result else {
            panic!("expected a proof, got {:?}", run.result);
        };
        assert_eq!(method, ProofMethod::Pdr);
        assert!(run.stats.cubes_blocked > 0, "the proof blocked some cube");
        let cert = run.certificate.expect("proof carries a certificate");
        assert_eq!(verify_certificate(&mut tm, &ts, &cert), Ok(()));
    }

    #[test]
    fn falsifies_the_free_counter_with_a_reference_witness() {
        let mut tm = TermManager::new();
        let ts = free_counter(&mut tm);
        let run = Pdr::new(BmcConfig::default()).check(&mut tm, &ts, 16);
        let BmcResult::Counterexample(w) = run.result else {
            panic!("expected a counterexample, got {:?}", run.result);
        };
        assert_eq!(w.num_steps(), 3, "0 → 1 → 2 → 3, shortest-first");
    }

    #[test]
    fn depth_zero_falsification_is_found() {
        // init already violates the property.
        let mut tm = TermManager::new();
        let count = tm.var("count", Sort::BitVec(2));
        let zero = tm.zero(2);
        let one = tm.one(2);
        let next = tm.bv_add(count, one);
        let bad = tm.eq(count, zero);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(&tm, count, Some(zero), next);
        ts.add_bad(bad);
        let run = Pdr::new(BmcConfig::default()).check(&mut tm, &ts, 8);
        let BmcResult::Counterexample(w) = run.result else {
            panic!("expected a depth-0 counterexample, got {:?}", run.result);
        };
        assert_eq!(w.num_steps(), 0);
    }

    #[test]
    fn frame_cap_reports_the_bounded_verdict() {
        // Convergence needs a level strictly below the frontier, so a cap
        // of one frame can never close a proof: a safe system must come
        // back with the bounded verdict.
        let mut tm = TermManager::new();
        let ts = capped_counter(&mut tm);
        let run = Pdr::new(BmcConfig::default()).check(&mut tm, &ts, 1);
        assert!(
            matches!(run.result, BmcResult::NoCounterexample { bound: 1 }),
            "got {:?}",
            run.result
        );
    }

    #[test]
    fn injected_cancellation_stops_cleanly() {
        let mut tm = TermManager::new();
        let ts = capped_counter(&mut tm);
        let config = BmcConfig {
            fault: crate::BmcFaultPlan {
                cancel_at_depth: Some(1),
                ..Default::default()
            },
            ..Default::default()
        };
        let run = Pdr::new(config).check(&mut tm, &ts, 8);
        assert!(
            matches!(
                run.result,
                BmcResult::Unknown {
                    reason: StopReason::Cancelled,
                    ..
                }
            ),
            "got {:?}",
            run.result
        );
    }
}
