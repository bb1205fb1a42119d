//! A multi-query bounded-model-checking *session* over one shared unrolling.
//!
//! A [`BmcSession`] keeps the unrolling, the cone-of-influence refinement
//! state and one persistent [`IncrementalSolver`] open so a *caller-directed*
//! sequence of queries — each a `check_assuming` call with its own
//! retractable assumption set — can share every encoded frame and every
//! learnt clause.  [`Bmc`](crate::Bmc)'s default
//! [`BmcMode::PerDepth`](crate::BmcMode::PerDepth) driver is the simplest
//! such sequence: one query per depth, assuming only that depth's bad state.
//! The batched multi-bug detector (`sepe_sqed::batch`) is the richer one:
//! the transition system carries one activation literal per catalogue entry,
//! and each query selects an entry by assuming its literal true and the
//! others false on top of the depth's bad state.
//!
//! The session inherits the incremental-solving contract wholesale: frames
//! are asserted append-only (with per-depth cone-of-influence refinement
//! deltas for frames asserted at a shallower bound), assumptions never
//! contribute rewrite pins, and the node→CNF-variable mapping only grows —
//! so interleaving queries for different assumption sets cannot invalidate
//! each other's encodings.

use std::time::Instant;

use sepe_smt::{IncrementalSolver, Model, SatResult, StopReason, TermId, TermManager};

use crate::bmc::{extract_witness, BmcConfig, BmcStats, DepthStats};
use crate::ts::{CoiInfo, TransitionSystem};
use crate::unroll::Unroller;
use crate::witness::Witness;

/// Outcome of one session query at one bound.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// The assumption set is satisfiable at this bound: a counterexample.
    Counterexample(Witness),
    /// Unsatisfiable at this bound.
    Unreachable,
    /// The query gave up without an answer (budget, cancellation, …).
    Unknown(StopReason),
}

/// A persistent per-depth BMC session: one unrolling, one incremental
/// solver, arbitrarily many assumption-parameterised queries per depth.
///
/// The session borrows its [`TransitionSystem`] for its whole lifetime (the
/// unroller caches per-frame substitutions of its state variables and
/// inputs); drop the session to rebuild on a different system.
#[derive(Debug)]
pub struct BmcSession<'ts> {
    ts: &'ts TransitionSystem,
    unroller: Unroller<'ts>,
    coi: Option<CoiInfo>,
    solver: IncrementalSolver,
    levels: Vec<usize>,
    started: Instant,
    queries: u64,
    depths: Vec<DepthStats>,
    extended_to: usize,
}

impl<'ts> BmcSession<'ts> {
    /// Opens a session: configures the solver from `config` (AIG layer,
    /// word-level rewriting, per-query conflict budget, wall deadline,
    /// cancellation flags, memory cap — fault hooks are *not* armed here;
    /// see [`BmcSession::solver`]) and asserts the initial state and the
    /// frame-0 constraints.
    pub fn open(tm: &mut TermManager, ts: &'ts TransitionSystem, config: &BmcConfig) -> Self {
        let started = Instant::now();
        let coi = config.simplify.then(|| ts.cone_of_influence(tm));
        let mut solver = IncrementalSolver::new();
        solver.set_aig(config.aig);
        solver.set_simplify(config.simplify);
        solver.set_conflict_limit(config.conflict_limit);
        solver.set_deadline(config.time_limit.map(|limit| started + limit));
        solver.set_cancel_flags(config.cancel.clone());
        solver.set_memory_limit(config.memory_limit);
        let mut unroller = Unroller::new(ts);
        let init = unroller.init(tm);
        solver.assert_term(tm, init);
        let c0 = unroller.constraints_at(tm, 0);
        solver.assert_term(tm, c0);
        BmcSession {
            ts,
            unroller,
            coi,
            solver,
            levels: Vec::new(),
            started,
            queries: 0,
            depths: Vec::new(),
            extended_to: 0,
        }
    }

    /// Extends the asserted unrolling (append-only, with cone-of-influence
    /// refinement deltas for already-asserted frames) so queries at `bound`
    /// are answerable.  Idempotent per bound; bounds must not decrease the
    /// refinement (calling with a smaller bound is a no-op for frames but
    /// never retracts anything).
    pub fn extend(&mut self, tm: &mut TermManager, bound: usize) {
        for t in extend_unrolling(
            tm,
            &mut self.unroller,
            self.coi.as_ref(),
            &mut self.levels,
            bound,
        ) {
            self.solver.assert_term(tm, t);
        }
        self.extended_to = self.extended_to.max(bound);
    }

    /// The underlying incremental solver, for arming per-query budgets or
    /// fault hooks around individual queries (the batched detector arms a
    /// catalogue entry's injected fault only while that entry's query runs).
    pub fn solver(&mut self) -> &mut IncrementalSolver {
        &mut self.solver
    }

    /// The bad-state disjunct at `bound` (the usual final retractable
    /// assumption of a query at that depth).
    pub fn bad_at(&mut self, tm: &mut TermManager, bound: usize) -> TermId {
        self.unroller.bad_at(tm, bound)
    }

    /// Issues one query: the permanent unrolling conjoined with the given
    /// retractable `assumptions` (activation literals, the depth's bad
    /// state, …).  On SAT, extracts the witness at `bound`, reconstructing
    /// cone-dropped state values by forward evaluation.
    ///
    /// The caller must have [`extend`](Self::extend)ed the session to at
    /// least `bound` first.
    pub fn query(
        &mut self,
        tm: &mut TermManager,
        bound: usize,
        assumptions: &[TermId],
    ) -> QueryOutcome {
        assert!(
            bound <= self.extended_to,
            "query at bound {bound} but the session is only extended to {}",
            self.extended_to
        );
        let result = self.solver.check_assuming(tm, assumptions);
        self.queries += 1;
        let sstats = self.solver.stats();
        self.depths.push(DepthStats {
            bound,
            conflicts: sstats.conflicts_last_check,
            clauses_added: sstats.clauses_last_check,
            learnt_retained: sstats.learnt_retained,
            duration: sstats.duration_last_check,
        });
        match result {
            SatResult::Sat => {
                let model: Model = self.solver.model(tm).clone();
                let witness = extract_witness(
                    tm,
                    self.ts,
                    &mut self.unroller,
                    &model,
                    bound,
                    self.coi.as_ref(),
                );
                QueryOutcome::Counterexample(witness)
            }
            SatResult::Unsat => QueryOutcome::Unreachable,
            SatResult::Unknown => QueryOutcome::Unknown(
                self.solver
                    .stop_reason()
                    .unwrap_or(StopReason::ConflictBudget),
            ),
        }
    }

    /// Per-query work deltas of the most recent query (conflicts, clauses
    /// newly encoded, duration) — the last entry pushed by
    /// [`query`](Self::query).
    pub fn last_query_stats(&self) -> Option<&DepthStats> {
        self.depths.last()
    }

    /// Session statistics in the familiar [`BmcStats`] shape: cumulative
    /// solver counters (with the cone-dropped-update total folded in), every
    /// query's per-depth delta in issue order, and the wall time since the
    /// session opened.
    pub fn stats(&self) -> BmcStats {
        let mut solver = self.solver.stats();
        solver.encode.rewrite.coi_dropped_updates =
            coi_dropped_total(self.coi.as_ref(), &self.levels);
        BmcStats {
            queries: self.queries,
            conflicts: solver.conflicts,
            duration: self.started.elapsed(),
            deepest_bound: self.extended_to,
            solver,
            depths: self.depths.clone(),
        }
    }
}

/// Extends the asserted unrolling so that frames `0..bound` cover the
/// per-depth cone of influence at that bound: the update into frame `k + 1`
/// is needed only for variables within `bound - k - 1` remaining transition
/// steps of a bad state or constraint ([`CoiInfo::keeps_within`]).  New
/// frames contribute their depth-restricted transition plus the next
/// frame's constraints; frames asserted by an earlier, shallower bound
/// contribute only the refinement delta for the levels they gained
/// ([`Unroller::transition_refinement`]), so an incremental solver never
/// re-asserts what it already has.  `levels[k]` tracks the remaining depth
/// frame `k` is topped up to.  Without a cone (`coi == None`, preprocessing
/// off) frames are asserted whole, once.  Returns the terms to assert, in
/// order.
fn extend_unrolling(
    tm: &mut TermManager,
    unroller: &mut Unroller<'_>,
    coi: Option<&CoiInfo>,
    levels: &mut Vec<usize>,
    bound: usize,
) -> Vec<TermId> {
    let mut out = Vec::new();
    for k in 0..bound {
        // The per-frame cone saturates at the largest finite distance:
        // capping here makes old frames' levels converge, so deep sweeps
        // skip them instead of re-filtering every variable per bound.
        let required = match coi {
            Some(coi) => (bound - k - 1).min(coi.max_dist()),
            None => 0, // whole frames are asserted once, never refined
        };
        if k >= levels.len() {
            let tr = match coi {
                Some(coi) => unroller.transition_within(tm, k, coi, required),
                None => unroller.transition(tm, k),
            };
            out.push(tr);
            out.push(unroller.constraints_at(tm, k + 1));
            levels.push(required);
        } else if levels[k] < required {
            if let Some(coi) = coi {
                out.push(unroller.transition_refinement(tm, k, coi, levels[k], required));
            }
            levels[k] = required;
        }
    }
    out
}

/// Total next-state updates dropped across the asserted frames at their
/// current refinement levels.
fn coi_dropped_total(coi: Option<&CoiInfo>, levels: &[usize]) -> u64 {
    match coi {
        Some(coi) => levels.iter().map(|&r| coi.dropped_within(r) as u64).sum(),
        None => 0,
    }
}
