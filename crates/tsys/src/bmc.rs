//! The bounded model checker.

use std::time::{Duration, Instant};

use sepe_smt::concrete::{self, Assignment};
use sepe_smt::{
    CancelFlag, FaultHooks, IncrementalSolver, Model, SolverReuseStats, StopReason, TermManager,
};

use crate::prove::ProofMethod;
use crate::session::{BmcSession, QueryOutcome};
use crate::ts::{CoiInfo, TransitionSystem};
use crate::unroll::Unroller;
use crate::witness::{Frame, Witness};

/// How the checker explores depths.  [`BmcMode::PerDepth`] is the only
/// mode; the type stays so that configurations naming it keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BmcMode {
    /// One SAT query per depth on a single persistent [`BmcSession`]: the
    /// unrolling is asserted once and grows monotonically, each depth's bad
    /// state rides along as a retractable assumption, and learnt clauses
    /// carry over between depths.  The first counterexample found is a
    /// shortest one.
    #[default]
    PerDepth,
}

/// Configuration of a BMC run.
#[derive(Debug, Clone)]
pub struct BmcConfig {
    /// Conflict budget per SAT call (`None` = unlimited).
    pub conflict_limit: Option<u64>,
    /// Wall-clock budget for the whole run (`None` = unlimited).  When the
    /// budget is exhausted the check returns [`BmcResult::Unknown`]; the
    /// budget also interrupts in-flight SAT calls (checked every few
    /// conflicts), so a run overshoots it only by a short burst.
    pub time_limit: Option<Duration>,
    /// First depth to check (0 checks the initial state itself).
    pub start_bound: usize,
    /// Depth-exploration strategy ([`BmcMode::PerDepth`], the only one).
    pub mode: BmcMode,
    /// Word-level preprocessing (on by default): the solvers run the
    /// `sepe_smt` rewriting pass ahead of bit-blasting, and the unrolling
    /// drops next-state updates outside the cone of influence of the
    /// bad-state properties before frames are asserted
    /// ([`TransitionSystem::cone_of_influence`]).  Witnesses are identical
    /// either way — dropped state variables are reconstructed by forward
    /// evaluation.
    pub simplify: bool,
    /// Gate-level AIG reductions in the solvers (on by default): structural
    /// hashing, local rewriting and polarity-aware Tseitin below the word
    /// level.  Off is the direct-blasting baseline of the `aig_off`
    /// differential/bench arms.  Orthogonal to
    /// [`simplify`](BmcConfig::simplify), which governs the word-level pass
    /// and the cone-of-influence reduction.
    pub aig: bool,
    /// Retired knob: always `None`.  Its type admits no other value; the
    /// field stays only so existing `frame_rescore: None` literals compile.
    pub frame_rescore: Option<std::convert::Infallible>,
    /// Shared cancellation flags (default empty).  *Any* raised flag makes
    /// an in-flight SAT search abort within a short burst of conflicts and
    /// the check return [`BmcResult::Unknown`] with
    /// [`StopReason::Cancelled`]; the flags are also polled between depths.
    /// Independent cancellation sources chain by each pushing their own
    /// flag instead of replacing each other.
    pub cancel: Vec<CancelFlag>,
    /// Caps the estimated clause-arena + watcher bytes of each SAT solver
    /// (`None` = unlimited); a query whose estimate exceeds the cap returns
    /// [`BmcResult::Unknown`] with [`StopReason::MemoryBudget`] instead of
    /// growing without bound.
    pub memory_limit: Option<usize>,
    /// Deterministic fault injection (default: no faults).  Test-only
    /// machinery for exercising the failure paths above without wall-clock
    /// coupling; see [`BmcFaultPlan`].
    pub fault: BmcFaultPlan,
}

/// Deterministic fault injection for a BMC run: which failure to force and
/// exactly where.  Everything here is counter-indexed (conflicts, depths),
/// never wall-clock, so an injected failure reproduces bit-identically on
/// any machine.  The default plan injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BmcFaultPlan {
    /// Hooks armed on every SAT solver the run constructs: forced panic or
    /// faked memory-cap breach at the k-th conflict (see
    /// [`FaultHooks`]).
    pub sat: FaultHooks,
    /// Acts as a raised cancellation flag at the between-depths poll of the
    /// given depth: the run trips when about to query exactly this depth.
    pub cancel_at_depth: Option<usize>,
}

impl BmcFaultPlan {
    /// Whether the plan injects nothing (the default).
    pub fn is_empty(&self) -> bool {
        *self == BmcFaultPlan::default()
    }
}

impl Default for BmcConfig {
    fn default() -> Self {
        BmcConfig {
            conflict_limit: None,
            time_limit: None,
            start_bound: 0,
            mode: BmcMode::PerDepth,
            simplify: true,
            aig: true,
            frame_rescore: None,
            cancel: Vec::new(),
            memory_limit: None,
            fault: BmcFaultPlan::default(),
        }
    }
}

impl BmcConfig {
    /// A fresh solver configured for a run of this configuration: the AIG
    /// layer and word-level rewriting as set, the per-query conflict budget,
    /// a wall deadline `time_limit` after `started`, the cancellation flags,
    /// the memory cap and the fault plan's SAT hooks.
    pub(crate) fn solver(&self, started: Instant) -> IncrementalSolver {
        let mut solver = IncrementalSolver::new();
        solver.set_aig(self.aig);
        solver.set_simplify(self.simplify);
        solver.set_conflict_limit(self.conflict_limit);
        solver.set_deadline(self.time_limit.map(|limit| started + limit));
        solver.set_cancel_flags(self.cancel.clone());
        solver.set_memory_limit(self.memory_limit);
        solver.set_fault_hooks(self.fault.sat);
        solver
    }
}

/// Per-query solver-work deltas: what one depth's query added and cost on
/// top of the previous one.
///
/// The cumulative counters in [`BmcStats`]/[`SolverReuseStats`] only say
/// what a whole sweep cost; the per-depth deltas are what make the effect of
/// learnt-clause reduction readable off a bench run (per-depth conflicts
/// stay flat instead of ballooning with the retained database).
#[derive(Debug, Clone, Copy, Default)]
pub struct DepthStats {
    /// The bound this query checked.
    pub bound: usize,
    /// SAT conflicts of this query alone.
    pub conflicts: u64,
    /// CNF clauses newly encoded for this query.
    pub clauses_added: u64,
    /// Learnt clauses retained when this query returned.
    pub learnt_retained: u64,
    /// Wall-clock time of this query alone.
    pub duration: Duration,
}

/// Statistics of a BMC run.
#[derive(Debug, Clone, Default)]
pub struct BmcStats {
    /// Number of SAT queries issued.
    pub queries: u64,
    /// Total SAT conflicts over all queries.
    pub conflicts: u64,
    /// Total wall-clock time.
    pub duration: Duration,
    /// Deepest bound that was fully checked (or at which a counterexample was
    /// found).
    pub deepest_bound: usize,
    /// Solver-reuse counters (term encodings cached/reused, word-level
    /// rewriting and cone-of-influence work, learnt clauses retained across
    /// depths, learnt-database reduction work).
    pub solver: SolverReuseStats,
    /// Per-query deltas, one entry per SAT query (one per depth) in issue
    /// order.
    pub depths: Vec<DepthStats>,
}

/// Outcome of a model-checking run.
///
/// Bounded runs ([`Bmc::check`]) produce the first three variants; the
/// unbounded prover ([`Pdr`](crate::Pdr)) additionally produces
/// [`BmcResult::Proved`] when it certifies the bad states unreachable at
/// *every* depth, not just within the bound.
#[derive(Debug, Clone)]
pub enum BmcResult {
    /// A counterexample reaching a bad state was found.
    Counterexample(Witness),
    /// No bad state is reachable within the bound.
    NoCounterexample {
        /// The bound that was exhaustively checked.
        bound: usize,
    },
    /// No bad state is reachable at any depth — an unbounded proof.
    Proved {
        /// Which prover closed the proof.
        method: ProofMethod,
        /// The proof's depth parameter: the PDR frontier frame at which the
        /// reachability frames converged.
        depth: usize,
    },
    /// The run stopped without a verdict at the given bound.
    Unknown {
        /// The bound being checked when the run stopped.
        bound: usize,
        /// Which budget ran out or which interruption fired — the previously
        /// indistinguishable give-ups, classified (see [`StopReason`]).
        reason: StopReason,
    },
}

impl BmcResult {
    /// Whether an unbounded proof was closed.
    pub fn is_proved(&self) -> bool {
        matches!(self, BmcResult::Proved { .. })
    }

    /// The witness, if a counterexample was found.
    pub fn witness(&self) -> Option<&Witness> {
        match self {
            BmcResult::Counterexample(w) => Some(w),
            _ => None,
        }
    }
}

/// The bounded model checker.
#[derive(Debug, Clone, Default)]
pub struct Bmc {
    config: BmcConfig,
    stats: BmcStats,
}

impl Bmc {
    /// Creates a checker with the given configuration.
    pub fn new(config: BmcConfig) -> Self {
        Bmc {
            config,
            stats: BmcStats::default(),
        }
    }

    /// Statistics of the most recent [`check`](Self::check) call.
    pub fn stats(&self) -> BmcStats {
        self.stats.clone()
    }

    /// The pre-query poll: why the run must stop before querying `bound`
    /// (wall budget gone, a raised cancellation flag, or an injected
    /// cancellation at this depth), if it must.
    fn stop_before(&self, start: Instant, bound: usize) -> Option<StopReason> {
        let config = &self.config;
        if config
            .time_limit
            .is_some_and(|limit| start.elapsed() > limit)
        {
            Some(StopReason::Deadline)
        } else if config.fault.cancel_at_depth == Some(bound)
            || config
                .cancel
                .iter()
                .any(|c| c.load(std::sync::atomic::Ordering::Relaxed))
        {
            Some(StopReason::Cancelled)
        } else {
            None
        }
    }

    /// Checks whether any bad state of `ts` is reachable within `max_bound`
    /// transition steps, searching depth by depth so that the first
    /// counterexample found is a shortest one.  All depths run on one
    /// [`BmcSession`]: the unrolling prefix is asserted exactly once (each
    /// depth adds only the new frame's transition and constraints), the
    /// depth's bad state is a retractable assumption, and all SAT-level
    /// learning carries over.
    pub fn check(
        &mut self,
        tm: &mut TermManager,
        ts: &TransitionSystem,
        max_bound: usize,
    ) -> BmcResult {
        let start = Instant::now();
        let mut session = BmcSession::open(tm, ts, &self.config);
        let mut result = BmcResult::NoCounterexample { bound: max_bound };
        for bound in self.config.start_bound..=max_bound {
            session.extend(tm, bound);
            if let Some(reason) = self.stop_before(start, bound) {
                result = BmcResult::Unknown { bound, reason };
                break;
            }
            let bad = session.bad_at(tm, bound);
            match session.query(tm, bound, &[bad]) {
                QueryOutcome::Counterexample(witness) => {
                    result = BmcResult::Counterexample(witness);
                    break;
                }
                QueryOutcome::Unreachable => {}
                QueryOutcome::Unknown(reason) => {
                    result = BmcResult::Unknown { bound, reason };
                    break;
                }
            }
        }
        self.stats = session.stats();
        // The session reports how far it is extended; the run reports the
        // deepest bound it actually queried.
        self.stats.deepest_bound = self.stats.depths.last().map_or(0, |d| d.bound);
        self.stats.duration = start.elapsed();
        result
    }
}

/// Reads the counterexample trace out of a model.
///
/// When a cone-of-influence reduction was active, dropped state variables
/// have no encoded frame copies — statically dropped ones beyond frame 0,
/// per-depth dropped ones in the frames whose remaining depth was below
/// their cone distance.  Their values are reconstructed by evaluating their
/// next-state functions forward over the (progressively extended)
/// assignment, so the witness is complete and consistent with a concrete
/// replay either way.  Variables the solver did encode (e.g. because a
/// session was extended past this counterexample's bound) re-evaluate to
/// their model values — the asserted frame equality forces agreement — so
/// the overwrite is harmless.
pub(crate) fn extract_witness(
    tm: &mut TermManager,
    ts: &TransitionSystem,
    unroller: &mut Unroller<'_>,
    model: &Model,
    bound: usize,
    coi: Option<&CoiInfo>,
) -> Witness {
    let mut env: Assignment = model.assignment().clone();
    if let Some(coi) = coi {
        let state_vars: Vec<_> = ts.state_vars().to_vec();
        for k in 1..=bound {
            let remaining = bound - k;
            for sv in &state_vars {
                if coi.keeps_within(sv.current, remaining) {
                    continue;
                }
                let next_at = unroller.term_at(tm, sv.next, k - 1);
                let value = concrete::eval(tm, next_at, &env);
                let var_at = unroller.var_at(tm, sv.current, k);
                env.insert(var_at, value);
            }
        }
    }
    let mut frames = Vec::with_capacity(bound + 1);
    // The `expect`s below restate the registration-time invariant of
    // `TransitionSystem::add_state_var`/`add_input`: state vars and inputs
    // are variable terms, so they always have names.
    for k in 0..=bound {
        let mut frame = Frame::default();
        for sv in ts.state_vars() {
            let name = tm
                .var_name(sv.current)
                .expect("state vars are variables")
                .to_string();
            let at = unroller.var_at(tm, sv.current, k);
            frame.states.insert(name, concrete::eval(tm, at, &env));
        }
        for &input in ts.inputs() {
            let name = tm
                .var_name(input)
                .expect("inputs are variables")
                .to_string();
            let at = unroller.var_at(tm, input, k);
            frame.inputs.insert(name, concrete::eval(tm, at, &env));
        }
        frames.push(frame);
    }
    Witness::new(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_smt::Sort;

    /// Counter with symbolic increment input; bad state: counter == target.
    fn counter_system(
        tm: &mut TermManager,
        width: u32,
        target: u64,
        constrain_inc_to_one: bool,
    ) -> TransitionSystem {
        let c = tm.var("count", Sort::BitVec(width));
        let inc = tm.var("inc", Sort::BitVec(width));
        let next = tm.bv_add(c, inc);
        let zero = tm.zero(width);
        let tgt = tm.bv_const(target, width);
        let bad = tm.eq(c, tgt);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(tm, c, Some(zero), next);
        ts.add_input(tm, inc);
        ts.add_bad(bad);
        if constrain_inc_to_one {
            let one = tm.one(width);
            let c1 = tm.eq(inc, one);
            ts.add_constraint(c1);
        }
        ts
    }

    #[test]
    fn finds_shortest_counterexample_with_free_inputs() {
        let mut tm = TermManager::new();
        let ts = counter_system(&mut tm, 8, 200, false);
        let mut bmc = Bmc::new(BmcConfig::default());
        // with a free increment the counter can jump to 200 in one step
        match bmc.check(&mut tm, &ts, 10) {
            BmcResult::Counterexample(w) => {
                assert_eq!(w.num_steps(), 1);
                assert_eq!(w.last().state("count"), 200);
                assert_eq!(w.frame(0).input("inc"), 200);
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
        assert!(bmc.stats().queries >= 1);
    }

    #[test]
    fn respects_constraints_when_searching() {
        let mut tm = TermManager::new();
        let ts = counter_system(&mut tm, 8, 5, true);
        let mut bmc = Bmc::new(BmcConfig::default());
        // increments constrained to one: needs exactly 5 steps
        match bmc.check(&mut tm, &ts, 10) {
            BmcResult::Counterexample(w) => {
                assert_eq!(w.num_steps(), 5);
                let counts: Vec<u64> = w.frames().iter().map(|f| f.state("count")).collect();
                assert_eq!(counts, vec![0, 1, 2, 3, 4, 5]);
            }
            other => panic!("expected a counterexample, got {other:?}"),
        }
    }

    #[test]
    fn reports_no_counterexample_when_unreachable_within_bound() {
        let mut tm = TermManager::new();
        let ts = counter_system(&mut tm, 8, 50, true);
        let mut bmc = Bmc::new(BmcConfig::default());
        match bmc.check(&mut tm, &ts, 10) {
            BmcResult::NoCounterexample { bound } => assert_eq!(bound, 10),
            other => panic!("expected no counterexample, got {other:?}"),
        }
    }

    #[test]
    fn witness_replays_on_the_concrete_simulator() {
        let mut tm = TermManager::new();
        let ts = counter_system(&mut tm, 8, 42, false);
        let mut bmc = Bmc::new(BmcConfig::default());
        let witness = match bmc.check(&mut tm, &ts, 10) {
            BmcResult::Counterexample(w) => w,
            other => panic!("expected a counterexample, got {other:?}"),
        };
        // replay the witness inputs through TransitionSystem::simulate
        let inc = tm.find_var("inc").expect("input exists");
        let count = tm.find_var("count").expect("state exists");
        let inputs: Vec<Assignment> = witness.frames()[..witness.num_steps()]
            .iter()
            .map(|f| Assignment::from_iter([(inc, f.input("inc"))]))
            .collect();
        let trace = ts.simulate(&tm, &inputs);
        assert_eq!(trace.last().expect("trace non-empty")[&count], 42);
    }

    #[test]
    fn zero_bound_checks_the_initial_state() {
        let mut tm = TermManager::new();
        // bad state: count == 0 (true initially)
        let ts = counter_system(&mut tm, 8, 0, true);
        let mut bmc = Bmc::new(BmcConfig::default());
        match bmc.check(&mut tm, &ts, 4) {
            BmcResult::Counterexample(w) => assert_eq!(w.num_steps(), 0),
            other => panic!("expected an immediate counterexample, got {other:?}"),
        }
    }

    /// The shortest counterexample length of a run, `None` when the bad
    /// state is unreachable within the bound.
    fn shortest_depth(result: &BmcResult, max_bound: usize) -> Option<usize> {
        match result {
            BmcResult::Counterexample(w) => Some(w.num_steps()),
            BmcResult::NoCounterexample { bound } => {
                assert_eq!(*bound, max_bound);
                None
            }
            other => panic!("expected a verdict, got {other:?}"),
        }
    }

    #[test]
    fn per_depth_finds_the_analytic_shortest_depths() {
        // Both verdict polarities: a constrained counter reaches its target
        // in exactly `target` steps, a free one reaches 200 in one.
        for (target, constrain, want) in [
            (5u64, true, Some(5)),
            (50, true, None),
            (200, false, Some(1)),
            (3, true, Some(3)),
        ] {
            let mut tm = TermManager::new();
            let ts = counter_system(&mut tm, 8, target, constrain);
            let mut bmc = Bmc::new(BmcConfig::default());
            let result = bmc.check(&mut tm, &ts, 8);
            assert_eq!(shortest_depth(&result, 8), want, "target {target}");
            // One query per depth from 0 to the verdict's depth.
            assert_eq!(bmc.stats().queries, want.unwrap_or(8) as u64 + 1);
        }
    }

    #[test]
    fn incremental_per_depth_reuses_encodings_across_depths() {
        let mut tm = TermManager::new();
        let ts = counter_system(&mut tm, 8, 50, true); // unreachable in 10 steps
        let mut bmc = Bmc::new(BmcConfig::default());
        let result = bmc.check(&mut tm, &ts, 10);
        assert!(matches!(result, BmcResult::NoCounterexample { .. }));
        let reuse = bmc.stats().solver;
        assert_eq!(reuse.checks, 11, "one check per depth 0..=10");
        assert!(
            reuse.encode.total_reuse() > 0,
            "later depths must reuse encodings or rewrites"
        );
        assert!(
            reuse.encode.rewrite.pins > 0,
            "frame equalities must become pins"
        );
    }

    #[test]
    fn per_depth_stats_report_per_query_deltas() {
        let mut tm = TermManager::new();
        let ts = counter_system(&mut tm, 8, 50, true);
        let mut bmc = Bmc::new(BmcConfig::default());
        let result = bmc.check(&mut tm, &ts, 10);
        assert!(matches!(result, BmcResult::NoCounterexample { .. }));
        let stats = bmc.stats();
        assert_eq!(stats.depths.len(), 11, "one delta entry per depth 0..=10");
        assert_eq!(
            stats.depths.iter().map(|d| d.bound).collect::<Vec<_>>(),
            (0..=10).collect::<Vec<_>>()
        );
        let total: u64 = stats.depths.iter().map(|d| d.conflicts).sum();
        assert_eq!(
            total, stats.conflicts,
            "per-depth conflict deltas must sum to the cumulative count"
        );
    }

    #[test]
    fn early_stop_reports_the_queries_before_it() {
        // Depths 1 and 2 are queried (both UNSAT); the injected cancellation
        // trips at the poll before depth 3.
        let mut tm = TermManager::new();
        let ts = counter_system(&mut tm, 8, 50, true);
        let mut bmc = Bmc::new(BmcConfig {
            start_bound: 1,
            fault: BmcFaultPlan {
                cancel_at_depth: Some(3),
                ..BmcFaultPlan::default()
            },
            ..BmcConfig::default()
        });
        match bmc.check(&mut tm, &ts, 10) {
            BmcResult::Unknown { bound, reason } => {
                assert_eq!(bound, 3);
                assert_eq!(reason, StopReason::Cancelled);
            }
            other => panic!("expected a cancelled run, got {other:?}"),
        }
        let stats = bmc.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.deepest_bound, 2);
        assert_eq!(stats.depths.len(), 2);
    }

    /// Counter system plus a "shadow" accumulator state variable that the
    /// bad state never observes (it is outside the cone of influence) and a
    /// second dead variable feeding only the shadow.
    fn counter_with_shadow(tm: &mut TermManager, target: u64) -> TransitionSystem {
        let mut ts = counter_system(tm, 8, target, true);
        let c = tm.find_var("count").expect("state exists");
        let shadow = tm.var("shadow", Sort::BitVec(8));
        let dead = tm.var("dead", Sort::BitVec(8));
        let sum = tm.bv_add(shadow, c);
        let next_shadow = tm.bv_add(sum, dead);
        let zero = tm.zero(8);
        ts.add_state_var(tm, shadow, Some(zero), next_shadow);
        let one = tm.one(8);
        let next_dead = tm.bv_add(dead, one);
        ts.add_state_var(tm, dead, Some(zero), next_dead);
        ts
    }

    #[test]
    fn coi_reduction_matches_the_full_unrolling() {
        // Both verdict polarities, simplify+COI on against the same session
        // with simplify (and so COI) off.  The shadow never slows the
        // counter: target 4 takes 4 steps, 50 is out of reach within 6.
        for (target, want) in [(4u64, Some(4)), (50, None)] {
            let mut tm = TermManager::new();
            let ts = counter_with_shadow(&mut tm, target);
            let mut reduced = Bmc::new(BmcConfig::default());
            let got = reduced.check(&mut tm, &ts, 6);
            assert!(
                reduced.stats().solver.encode.rewrite.coi_dropped_updates > 0,
                "shadow/dead updates must be dropped"
            );
            let mut tm2 = TermManager::new();
            let ts2 = counter_with_shadow(&mut tm2, target);
            let mut full = Bmc::new(BmcConfig {
                simplify: false,
                ..BmcConfig::default()
            });
            let reference = full.check(&mut tm2, &ts2, 6);
            assert_eq!(full.stats().solver.encode.rewrite.coi_dropped_updates, 0);
            assert_eq!(shortest_depth(&got, 6), want, "target {target}");
            assert_eq!(shortest_depth(&reference, 6), want, "target {target}");
        }
    }

    #[test]
    fn coi_dropped_variables_still_read_back_in_witnesses() {
        let mut tm = TermManager::new();
        let ts = counter_with_shadow(&mut tm, 3);
        let mut bmc = Bmc::new(BmcConfig::default());
        let witness = match bmc.check(&mut tm, &ts, 6) {
            BmcResult::Counterexample(w) => w,
            other => panic!("expected a counterexample, got {other:?}"),
        };
        assert_eq!(witness.num_steps(), 3);
        // count: 0,1,2,3; dead: 0,1,2,3; shadow accumulates count+dead:
        // 0, 0+0+0=0, 0+1+1=2, 2+2+2=6 — reconstructed, not solver-assigned.
        let shadows: Vec<u64> = witness.frames().iter().map(|f| f.state("shadow")).collect();
        assert_eq!(shadows, vec![0, 0, 2, 6]);
        let deads: Vec<u64> = witness.frames().iter().map(|f| f.state("dead")).collect();
        assert_eq!(deads, vec![0, 1, 2, 3]);
    }

    /// A dependency chain `c -> b -> a` with only `a` observed by the bad
    /// state: dist(a)=0, dist(b)=1, dist(c)=2, nothing statically dropped.
    /// a: 0,0,0,1,4,10,20,…  b: 0,0,1,3,6,…  c: 0,1,2,3,…
    fn chain_system(tm: &mut TermManager, target: u64) -> TransitionSystem {
        let a = tm.var("a", Sort::BitVec(8));
        let b = tm.var("b", Sort::BitVec(8));
        let c = tm.var("c", Sort::BitVec(8));
        let one = tm.one(8);
        let zero = tm.zero(8);
        let next_a = tm.bv_add(a, b);
        let next_b = tm.bv_add(b, c);
        let next_c = tm.bv_add(c, one);
        let tgt = tm.bv_const(target, 8);
        let bad = tm.eq(a, tgt);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(tm, a, Some(zero), next_a);
        ts.add_state_var(tm, b, Some(zero), next_b);
        ts.add_state_var(tm, c, Some(zero), next_c);
        ts.add_bad(bad);
        ts
    }

    #[test]
    fn per_depth_refinement_drops_beyond_the_static_cone() {
        // Every variable is in the static cone (static dropped == 0), yet
        // the per-depth refinement drops the tail frames' b/c updates; the
        // verdicts must match the unreduced session either way.
        for (target, want) in [(4u64, Some(4)), (3, None)] {
            // a reaches 4 at depth 4; it never equals 3
            let mut tm = TermManager::new();
            let ts = chain_system(&mut tm, target);
            assert_eq!(ts.cone_of_influence(&tm).dropped, 0);
            let mut refined = Bmc::new(BmcConfig::default());
            let got = refined.check(&mut tm, &ts, 6);
            assert!(
                refined.stats().solver.encode.rewrite.coi_dropped_updates > 0,
                "tail-frame b/c updates must be dropped per depth"
            );
            let mut tm2 = TermManager::new();
            let ts2 = chain_system(&mut tm2, target);
            let mut full = Bmc::new(BmcConfig {
                simplify: false,
                ..BmcConfig::default()
            });
            let reference = full.check(&mut tm2, &ts2, 6);
            assert_eq!(full.stats().solver.encode.rewrite.coi_dropped_updates, 0);
            assert_eq!(shortest_depth(&got, 6), want, "target {target}");
            assert_eq!(shortest_depth(&reference, 6), want, "target {target}");
        }
    }

    #[test]
    fn per_depth_refinement_witnesses_reconstruct_tail_frames() {
        // The counterexample ends at depth 4, where the last frames' b/c
        // updates were never encoded — the witness must still carry their
        // forward-evaluated values.
        let mut tm = TermManager::new();
        let ts = chain_system(&mut tm, 4);
        let mut bmc = Bmc::new(BmcConfig::default());
        let witness = match bmc.check(&mut tm, &ts, 6) {
            BmcResult::Counterexample(w) => w,
            other => panic!("expected a counterexample, got {other:?}"),
        };
        assert_eq!(witness.num_steps(), 4);
        let values =
            |name: &str| -> Vec<u64> { witness.frames().iter().map(|f| f.state(name)).collect() };
        assert_eq!(values("a"), vec![0, 0, 0, 1, 4]);
        assert_eq!(values("b"), vec![0, 0, 1, 3, 6]);
        assert_eq!(values("c"), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn aig_off_is_a_faithful_baseline() {
        for (target, constrain) in [(5u64, true), (50, true), (200, false)] {
            let mut tm = TermManager::new();
            let ts = counter_system(&mut tm, 8, target, constrain);
            let mut on = Bmc::new(BmcConfig::default());
            let got = on.check(&mut tm, &ts, 8);
            let mut tm2 = TermManager::new();
            let ts2 = counter_system(&mut tm2, 8, target, constrain);
            let mut off = Bmc::new(BmcConfig {
                aig: false,
                ..BmcConfig::default()
            });
            let want = off.check(&mut tm2, &ts2, 8);
            match (&got, &want) {
                (BmcResult::Counterexample(a), BmcResult::Counterexample(b)) => {
                    assert_eq!(a.num_steps(), b.num_steps(), "target {target}");
                }
                (
                    BmcResult::NoCounterexample { bound: a },
                    BmcResult::NoCounterexample { bound: b },
                ) => assert_eq!(a, b),
                other => panic!("verdicts diverge for target {target}: {other:?}"),
            }
            assert!(
                on.stats().solver.encode.aig.strash_hits
                    >= off.stats().solver.encode.aig.strash_hits,
                "aig off must not structurally hash"
            );
            assert_eq!(off.stats().solver.encode.aig.strash_hits, 0);
        }
    }

    #[test]
    fn simplify_off_is_a_faithful_baseline() {
        for (target, constrain) in [(5u64, true), (50, true), (200, false)] {
            let mut tm = TermManager::new();
            let ts = counter_system(&mut tm, 8, target, constrain);
            let mut on = Bmc::new(BmcConfig::default());
            let got = on.check(&mut tm, &ts, 8);
            let mut tm2 = TermManager::new();
            let ts2 = counter_system(&mut tm2, 8, target, constrain);
            let mut off = Bmc::new(BmcConfig {
                simplify: false,
                ..BmcConfig::default()
            });
            let want = off.check(&mut tm2, &ts2, 8);
            match (&got, &want) {
                (BmcResult::Counterexample(a), BmcResult::Counterexample(b)) => {
                    assert_eq!(a.num_steps(), b.num_steps(), "target {target}");
                }
                (
                    BmcResult::NoCounterexample { bound: a },
                    BmcResult::NoCounterexample { bound: b },
                ) => assert_eq!(a, b),
                other => panic!("verdicts diverge for target {target}: {other:?}"),
            }
            assert!(
                off.stats().solver.encode.rewrite.pins == 0,
                "simplify off must not pin"
            );
        }
    }

    #[test]
    fn unknown_on_tiny_conflict_budget() {
        let mut tm = TermManager::new();
        // a harder target at 16 bits with constrained increments of exactly 3
        let c = tm.var("count", Sort::BitVec(16));
        let inc = tm.var("inc", Sort::BitVec(16));
        let prod = tm.bv_mul(c, inc);
        let next = tm.bv_add(prod, inc);
        let one = tm.one(16);
        let tgt = tm.bv_const(0x8d2b, 16);
        let bad = tm.eq(c, tgt);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(&tm, c, Some(one), next);
        ts.add_input(&tm, inc);
        ts.add_bad(bad);
        let mut bmc = Bmc::new(BmcConfig {
            conflict_limit: Some(1),
            ..BmcConfig::default()
        });
        let result = bmc.check(&mut tm, &ts, 6);
        assert!(
            matches!(
                result,
                BmcResult::Unknown { .. } | BmcResult::Counterexample(_)
            ),
            "tiny budgets either give up or get lucky, got {result:?}"
        );
    }
}
