//! A CDCL SAT solver.
//!
//! The solver implements the standard conflict-driven clause-learning loop:
//! two-watched-literal propagation, first-UIP conflict analysis, VSIDS-style
//! branching with phase saving, Luby restarts and activity/LBD-based learnt
//! clause database reduction.  It is deliberately self-contained (no
//! dependencies) and deterministic, so every experiment in the reproduction
//! is repeatable.
//!
//! The solver is *incremental* in the MiniSat sense: clauses may be added
//! between calls, and [`SatSolver::solve_under_assumptions`] decides
//! satisfiability under a set of assumption literals that are retracted when
//! the call returns.  Learnt clauses, variable activities and saved phases
//! all persist across calls, so sequences of closely related queries (BMC
//! depth sweeps, CEGIS refinements) reuse the work of earlier calls.  When a
//! call returns [`SolveOutcome::Unsat`] because of the assumptions,
//! [`SatSolver::unsat_assumptions`] yields the subset of assumptions that
//! participated in the final conflict (an unsat core over assumptions).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::cnf::{Clause, Cnf, Lit, Var};

/// A shared cancellation flag: set it from any thread and every solver
/// holding a clone abandons its in-flight search with
/// [`SolveOutcome::Unknown`] at the next check point (the same sampled spot
/// where the wall-clock deadline is polled).  This is what lets a parallel
/// detection batch cut every worker loose when a global time budget expires,
/// and what lets the detection service stop a request whose client has
/// gone.
pub type CancelFlag = Arc<AtomicBool>;

/// Why a call gave up with [`SolveOutcome::Unknown`] (or why a detection
/// run ended without a verdict) — the error taxonomy of the whole stack.
///
/// Every layer that can abandon work (`SatSolver`, the SMT front-ends, the
/// BMC driver, the parallel detection engine) reports one of these instead
/// of an undifferentiated "unknown", so a server loop can tell a job that
/// needs a bigger budget from one that was cancelled or crashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The conflict budget was exhausted.
    ConflictBudget,
    /// The memory budget (clause arena + watcher estimate) was exceeded.
    MemoryBudget,
    /// A shared cancellation flag was raised from outside.
    Cancelled,
    /// The job panicked and was caught by the isolation layer.  Never
    /// produced by the solver itself; the parallel engine maps caught
    /// panics to this variant so they share the taxonomy.
    Panicked,
    /// The solver produced a counterexample, but replaying it on the
    /// concrete processor twin did not reproduce the inconsistency.  Never
    /// produced by the solver itself; the detection layer's witness
    /// self-check demotes the would-be `Bug` verdict to this structured
    /// failure instead of reporting a silently wrong result.
    WitnessMismatch,
    /// An unbounded prover produced an inductive-invariant certificate, but
    /// re-checking its proof obligations on a fresh independent solver did
    /// not confirm them.  Never produced by the solver itself; the
    /// detection layer's proof self-check demotes the would-be `Proved`
    /// verdict to this structured failure — the proof-side twin of
    /// [`StopReason::WitnessMismatch`].
    ProofMismatch,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StopReason::Deadline => "deadline",
            StopReason::ConflictBudget => "conflict-budget",
            StopReason::MemoryBudget => "memory-budget",
            StopReason::Cancelled => "cancelled",
            StopReason::Panicked => "panicked",
            StopReason::WitnessMismatch => "witness-mismatch",
            StopReason::ProofMismatch => "proof-mismatch",
        };
        write!(f, "{s}")
    }
}

/// Deterministic fault-injection hooks for the SAT core (test-only in
/// spirit, but compiled in: the checks are two `Option` compares per
/// conflict, noise next to conflict analysis).
///
/// Both hooks key on the solver's *cumulative* conflict counter, which is
/// deterministic for a fixed formula and configuration — so a forced fault
/// lands at exactly the same point on every run, which is what lets the
/// recovery paths be tested by counters instead of wall clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultHooks {
    /// Panic (deliberately) once the cumulative conflict count reaches this
    /// value — exercises the panic-isolation layer above.
    pub panic_at_conflict: Option<u64>,
    /// Report a fake memory-budget breach once the cumulative conflict
    /// count reaches this value — exercises the [`StopReason::MemoryBudget`]
    /// path without allocating anything.
    pub memory_breach_at_conflict: Option<u64>,
}

impl FaultHooks {
    /// Whether no hook is armed.
    pub fn is_empty(&self) -> bool {
        self.panic_at_conflict.is_none() && self.memory_breach_at_conflict.is_none()
    }
}

/// Result of a SAT call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A satisfying assignment was found; read it back with
    /// [`SatSolver::value_of`].
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before a verdict.
    Unknown,
}

/// Conflicts before the first learnt-database reduction (the interval then
/// grows geometrically by [`REDUCE_GROWTH`] per pass).
const DEFAULT_REDUCE_INTERVAL: u64 = 2000;

/// Numerator/denominator of the geometric growth of the reduction interval.
const REDUCE_GROWTH: (u64, u64) = (13, 10);

/// Live learnt clauses that force a reduction even before the conflict
/// schedule fires (grows geometrically like the interval).
const DEFAULT_REDUCE_CAP: u64 = 4000;

const UNASSIGNED: i8 = 0;
const VALUE_TRUE: i8 = 1;
const VALUE_FALSE: i8 = -1;

/// Outcome of one decision step of the search loop.
enum Decision {
    /// A (pseudo-)decision was enqueued; keep propagating.
    Continue,
    /// Every variable is assigned: the formula is satisfiable.
    Sat,
    /// This assumption is falsified by the current trail.
    FailedAssumption(Lit),
}

/// A clause reference: the offset of the clause's header in the arena.
type CRef = u32;

/// Arena words ahead of a clause's literals: the size word
/// (`len << LEN_SHIFT | mark | learnt`), the LBD, and the `f64` activity
/// split over two words.
const HEADER_WORDS: usize = 4;
const LEARNT_BIT: u32 = 1;
/// Scratch flag of [`SatSolver::reduce_db`]: set on locked clauses while
/// the deletion candidates are collected, then on the deleted ones.
const MARK_BIT: u32 = 2;
const LEN_SHIFT: u32 = 2;

/// All clauses, original and learnt, in one flat `u32` buffer (MiniSat
/// layout): each clause is its header followed by its literal codes, so a
/// clause visit is one contiguous read instead of a pointer chase, and
/// [`SatSolver::reduce_db`] returns memory by compacting one buffer.
#[derive(Debug, Clone, Default)]
struct ClauseArena {
    words: Vec<u32>,
}

impl ClauseArena {
    fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32, activity: f64) -> CRef {
        let c = u32::try_from(self.words.len()).expect("clause arena overflow");
        let len = u32::try_from(lits.len()).expect("clause length overflow");
        let bits = activity.to_bits();
        self.words.extend([
            len << LEN_SHIFT | u32::from(learnt),
            lbd,
            bits as u32,
            (bits >> 32) as u32,
        ]);
        self.words.extend(lits.iter().map(|l| l.code()));
        c
    }

    fn len(&self, c: CRef) -> usize {
        (self.words[c as usize] >> LEN_SHIFT) as usize
    }

    fn is_learnt(&self, c: CRef) -> bool {
        self.words[c as usize] & LEARNT_BIT != 0
    }

    fn marked(&self, c: CRef) -> bool {
        self.words[c as usize] & MARK_BIT != 0
    }

    fn set_mark(&mut self, c: CRef, on: bool) {
        if on {
            self.words[c as usize] |= MARK_BIT;
        } else {
            self.words[c as usize] &= !MARK_BIT;
        }
    }

    fn lbd(&self, c: CRef) -> u32 {
        self.words[c as usize + 1]
    }

    fn activity(&self, c: CRef) -> f64 {
        let i = c as usize + 2;
        f64::from_bits(u64::from(self.words[i]) | u64::from(self.words[i + 1]) << 32)
    }

    fn set_activity(&mut self, c: CRef, activity: f64) {
        let i = c as usize + 2;
        let bits = activity.to_bits();
        self.words[i] = bits as u32;
        self.words[i + 1] = (bits >> 32) as u32;
    }

    /// The `k`-th literal of clause `c`.
    fn lit(&self, c: CRef, k: usize) -> Lit {
        Lit::from_code(self.words[c as usize + HEADER_WORDS + k])
    }

    fn swap_lits(&mut self, c: CRef, a: usize, b: usize) {
        let base = c as usize + HEADER_WORDS;
        self.words.swap(base + a, base + b);
    }

    fn rescale_learnt_activities(&mut self, factor: f64) {
        let mut c = 0;
        while c < self.words.len() {
            let cref = c as CRef;
            if self.is_learnt(cref) {
                self.set_activity(cref, self.activity(cref) * factor);
            }
            c += HEADER_WORDS + self.len(cref);
        }
    }

    /// Where compaction moved clause `c`: a moved clause's old LBD word
    /// holds its new reference (see [`SatSolver::reduce_db`]).
    fn forwarding(&self, c: CRef) -> CRef {
        self.words[c as usize + 1]
    }

    fn set_forwarding(&mut self, c: CRef, to: CRef) {
        self.words[c as usize + 1] = to;
    }

    /// Every clause reference, in allocation order.
    fn crefs(&self) -> impl Iterator<Item = CRef> + '_ {
        let mut c = 0usize;
        std::iter::from_fn(move || {
            (c < self.words.len()).then(|| {
                let cref = c as CRef;
                c += HEADER_WORDS + self.len(cref);
                cref
            })
        })
    }
}

/// `Watcher::other` of a long clause.
const NO_OTHER: u32 = u32::MAX;

/// A watch-list entry: the clause, and for a binary clause the code of its
/// other literal, so propagation decides binary clauses without reading
/// the arena.  Binary and long clauses share one list, in registration
/// order.
#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: CRef,
    other: u32,
}

impl Watcher {
    fn binary_other(self) -> Option<Lit> {
        (self.other != NO_OTHER).then(|| Lit::from_code(self.other))
    }
}

/// Counters of the learnt-clause database reduction.
///
/// Long-lived incremental solvers accumulate learnt clauses across calls;
/// the periodic [`reduce_db`](SatSolver) passes delete the cold half of them
/// and compact the clause arena so the memory is actually returned.  These
/// counters quantify that: how often reduction ran, how much it deleted, and
/// the high-water mark of live learnt clauses (the bound on what an
/// unreduced solver would have retained is `clauses_deleted +` the current
/// live count).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReduceStats {
    /// Reduction passes run so far.
    pub reductions: u64,
    /// Learnt clauses deleted over all passes.
    pub clauses_deleted: u64,
    /// Literal slots returned to memory by arena compaction.
    pub literals_freed: u64,
    /// Most live learnt clauses ever resident at once.
    pub learnt_high_water: u64,
}

/// Indexed max-heap over variable activities (MiniSat-style order heap).
#[derive(Debug, Default, Clone)]
struct VarOrder {
    heap: Vec<Var>,
    positions: Vec<Option<usize>>,
}

impl VarOrder {
    fn grow(&mut self, n: usize) {
        if self.positions.len() < n {
            self.positions.resize(n, None);
        }
    }

    fn contains(&self, v: Var) -> bool {
        self.positions.get(v.index()).copied().flatten().is_some()
    }

    fn insert(&mut self, v: Var, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.grow(v.index() + 1);
        let i = self.heap.len();
        self.heap.push(v);
        self.positions[v.index()] = Some(i);
        self.sift_up(i, activity);
    }

    fn pop_max(&mut self, activity: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("heap not empty");
        self.positions[top.index()] = None;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.positions[last.index()] = Some(0);
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn update(&mut self, v: Var, activity: &[f64]) {
        if let Some(i) = self.positions.get(v.index()).copied().flatten() {
            self.sift_up(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if activity[self.heap[i].index()] > activity[self.heap[parent].index()] {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len()
                && activity[self.heap[l].index()] > activity[self.heap[best].index()]
            {
                best = l;
            }
            if r < self.heap.len()
                && activity[self.heap[r].index()] > activity[self.heap[best].index()]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.positions[self.heap[i].index()] = Some(i);
        self.positions[self.heap[j].index()] = Some(j);
    }
}

/// The CDCL solver.
///
/// Typical use: construct with [`SatSolver::from_cnf`] (or add clauses with
/// [`SatSolver::add_clause`]), call [`SatSolver::solve`], and on
/// [`SolveOutcome::Sat`] read variable values with [`SatSolver::value_of`].
#[derive(Debug, Clone)]
pub struct SatSolver {
    arena: ClauseArena,
    /// Stored clauses (original + learnt); every stored clause is live.
    num_clauses: usize,
    watches: Vec<Vec<Watcher>>,
    /// Value of every literal, indexed by [`Lit::index`]: a variable's two
    /// literals always hold opposite values (or are both unassigned), so a
    /// literal's value is one load with no polarity branch.
    assign: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<Option<CRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: VarOrder,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// Learnt clause under construction (reused across conflicts).
    learnt: Vec<Lit>,
    /// Per-decision-level flags of [`compute_lbd`](Self::compute_lbd),
    /// all `false` between calls.
    level_seen: Vec<bool>,
    ok: bool,
    num_vars: u32,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    conflict_limit: Option<u64>,
    /// Conflicts between learnt-database reductions; grows geometrically
    /// after each pass so reduction stays cheap relative to search.
    reduce_interval: u64,
    /// Conflict count at which the next reduction fires.
    reduce_next: u64,
    /// Live-learnt-count safety cap that also fires a reduction.
    reduce_cap: u64,
    reduce_stats: ReduceStats,
    /// Assumption literals of the solve call in progress (enqueued as
    /// pseudo-decisions on their own levels, retracted on return).
    assumptions: Vec<Lit>,
    /// Subset of the assumptions responsible for the last assumption-caused
    /// UNSAT answer.
    conflict_core: Vec<Lit>,
    /// Assignment snapshot of the last SAT answer, indexed like `assign`
    /// (the trail itself is unwound to level 0 between calls so clauses can
    /// keep being added).
    model: Vec<i8>,
    /// Live (non-deleted) learnt clauses, kept as a counter so the search
    /// loop's database-reduction trigger is O(1) instead of O(|arena|).
    num_learnt_live: usize,
    /// Wall-clock deadline for the current solve call; exceeding it yields
    /// [`SolveOutcome::Unknown`] (checked every few conflicts, so a call
    /// overruns the deadline by at most a short burst of conflicts).
    deadline: Option<Instant>,
    /// Externally shared cancellation flags, polled at the same sampled
    /// check point as the deadline; any raised flag yields
    /// [`SolveOutcome::Unknown`] and leaves the solver reusable.  A `Vec`
    /// so independent cancellation sources chain instead of replacing each
    /// other (a caller's private flag plus a batch's global flag).
    cancel: Vec<CancelFlag>,
    /// Byte budget for the clause arena + watcher estimate; exceeding it at
    /// the sampled check point yields [`SolveOutcome::Unknown`] with
    /// [`StopReason::MemoryBudget`].
    memory_limit: Option<usize>,
    /// High-water mark of the memory estimate (sampled alongside the
    /// deadline poll).
    mem_high_water: usize,
    /// Why the last call returned [`SolveOutcome::Unknown`]; `None` after a
    /// verdict.
    stop_reason: Option<StopReason>,
    /// Deterministic fault-injection hooks (empty by default).
    fault: FaultHooks,
}

impl Default for SatSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        SatSolver {
            arena: ClauseArena::default(),
            num_clauses: 0,
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: VarOrder::default(),
            phase: Vec::new(),
            seen: Vec::new(),
            learnt: Vec::new(),
            level_seen: Vec::new(),
            ok: true,
            num_vars: 0,
            conflicts: 0,
            decisions: 0,
            propagations: 0,
            conflict_limit: None,
            reduce_interval: DEFAULT_REDUCE_INTERVAL,
            reduce_next: DEFAULT_REDUCE_INTERVAL,
            reduce_cap: DEFAULT_REDUCE_CAP,
            reduce_stats: ReduceStats::default(),
            assumptions: Vec::new(),
            conflict_core: Vec::new(),
            model: Vec::new(),
            num_learnt_live: 0,
            deadline: None,
            cancel: Vec::new(),
            memory_limit: None,
            mem_high_water: 0,
            stop_reason: None,
            fault: FaultHooks::default(),
        }
    }

    /// Builds a solver pre-loaded with the clauses of `cnf`.
    ///
    /// Takes the formula by value so the clause storage moves straight into
    /// the solver; callers that need to keep their `Cnf` clone explicitly.
    pub fn from_cnf(cnf: Cnf) -> Self {
        let mut s = Self::new();
        s.reserve_vars(cnf.num_vars());
        for clause in cnf.into_clauses() {
            s.add_clause(clause);
        }
        s
    }

    /// Ensures variables `0..n` exist.
    pub fn reserve_vars(&mut self, n: u32) {
        while self.num_vars < n {
            self.new_var();
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        self.assign.extend([UNASSIGNED, UNASSIGNED]);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of conflicts encountered so far (useful as a cost metric).
    pub fn num_conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Number of decisions made so far.
    pub fn num_decisions(&self) -> u64 {
        self.decisions
    }

    /// Number of propagated literals so far.
    pub fn num_propagations(&self) -> u64 {
        self.propagations
    }

    /// Limits the number of conflicts of the next [`solve`](Self::solve) call;
    /// exceeding the limit yields [`SolveOutcome::Unknown`].
    pub fn set_conflict_limit(&mut self, limit: Option<u64>) {
        self.conflict_limit = limit;
    }

    /// Sets a wall-clock deadline for subsequent solve calls; a search that
    /// passes the deadline returns [`SolveOutcome::Unknown`].  Unlike the
    /// conflict limit this bounds real time, which makes solver calls
    /// interruptible from drivers with wall-clock budgets.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Attaches a set of shared cancellation flags to subsequent solve
    /// calls; when another thread raises *any* of them, an in-flight search
    /// returns [`SolveOutcome::Unknown`] at its next check point (the same
    /// 1-in-64 conflict sampling as the deadline, so cancellation lands
    /// within a short burst of conflicts).  Independent cancellation sources
    /// chain by each contributing a flag — e.g. a caller's private flag plus
    /// the parallel engine's batch flag — instead of one silently replacing
    /// the other.  The solver state stays valid: lower the flags and solve
    /// again to continue.  Replaces any previously attached flags; an empty
    /// set detaches.
    pub fn set_cancel_flags(&mut self, cancel: Vec<CancelFlag>) {
        self.cancel = cancel;
    }

    /// Whether any attached cancellation flag has been raised.
    fn cancelled(&self) -> bool {
        self.cancel.iter().any(|c| c.load(Ordering::Relaxed))
    }

    /// Caps the estimated bytes held by the clause arena and watcher lists
    /// (see [`memory_estimate`](Self::memory_estimate)); a search that
    /// exceeds the cap at the sampled check point returns
    /// [`SolveOutcome::Unknown`] with [`StopReason::MemoryBudget`] instead
    /// of growing without bound.  The solver stays reusable — raise the cap
    /// (or let reduction shrink the arena) and solve again.  `None` (the
    /// default) means unlimited.
    pub fn set_memory_limit(&mut self, limit: Option<usize>) {
        self.memory_limit = limit;
    }

    /// Estimated bytes held by the clause arena and watcher lists, read off
    /// O(1) counters so the search loop can poll it: the arena's words
    /// (clause headers and literals) plus the two watcher entries every
    /// stored clause registers.  Reduction compacts the arena, so the
    /// estimate falls when it deletes clauses.
    pub fn memory_estimate(&self) -> usize {
        self.arena.words.len() * std::mem::size_of::<u32>()
            + self.num_clauses * 2 * std::mem::size_of::<Watcher>()
    }

    /// High-water mark of [`memory_estimate`](Self::memory_estimate),
    /// sampled at the same check point as the deadline poll.
    pub fn memory_high_water(&self) -> usize {
        self.mem_high_water
    }

    /// Why the last solve call returned [`SolveOutcome::Unknown`]; `None`
    /// after a conclusive verdict (or before any call).
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stop_reason
    }

    /// Arms the deterministic fault-injection hooks for subsequent solve
    /// calls (see [`FaultHooks`]).  The default hooks are empty.
    pub fn set_fault_hooks(&mut self, fault: FaultHooks) {
        self.fault = fault;
    }

    /// Overrides the learnt-database reduction schedule: the next reduction
    /// pass fires `interval` conflicts from now, and the
    /// interval keeps growing geometrically from that value.  Small values
    /// force frequent reductions (the differential tests use this to
    /// exercise reduction on small formulas).
    pub fn set_reduce_interval(&mut self, interval: u64) {
        self.reduce_interval = interval.max(1);
        self.reduce_next = self.conflicts + self.reduce_interval;
    }

    /// Counters of the learnt-clause database reduction.
    pub fn reduce_stats(&self) -> ReduceStats {
        self.reduce_stats
    }

    fn lit_value(&self, l: Lit) -> i8 {
        self.assign[l.index()]
    }

    /// Value of a variable in the model of the last satisfiable call.
    pub fn value_of(&self, v: Var) -> bool {
        self.model
            .get(Lit::pos(v).index())
            .copied()
            .unwrap_or(UNASSIGNED)
            == VALUE_TRUE
    }

    /// The subset of the last call's assumptions that participated in the
    /// final conflict, when
    /// [`solve_under_assumptions`](Self::solve_under_assumptions)
    /// returned [`SolveOutcome::Unsat`]
    /// because of its assumptions.  Empty when the formula is unsatisfiable
    /// on its own.
    pub fn unsat_assumptions(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// Number of stored clauses (original + learnt).  Deleted learnt clauses
    /// are physically removed from the arena by reduction, so every stored
    /// clause is live.
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// Number of live learnt clauses retained for future calls.
    ///
    /// Maintained as a counter (updated by learning and database reduction)
    /// so the search loop never scans the clause arena, which grows with the
    /// lifetime of an incremental solver.
    pub fn num_learnt(&self) -> usize {
        self.num_learnt_live
    }

    /// Adds a clause.  Returns `false` if the solver became trivially
    /// unsatisfiable (empty clause or conflicting units).
    pub fn add_clause(&mut self, mut lits: Clause) -> bool {
        if !self.ok {
            return false;
        }
        debug_assert_eq!(self.decision_level(), 0, "clauses must be added at level 0");
        for l in &lits {
            self.reserve_vars(l.var().0 + 1);
        }
        lits.sort();
        lits.dedup();
        // Tautology / falsified-literal simplification at level 0, in place.
        let mut kept = 0;
        let mut i = 0;
        while i < lits.len() {
            let l = lits[i];
            if i + 1 < lits.len() && lits[i + 1] == !l {
                return true; // tautology: x ∨ ¬x
            }
            match self.lit_value(l) {
                VALUE_TRUE => return true, // already satisfied at level 0
                VALUE_FALSE => {}          // drop the falsified literal
                _ => {
                    lits[kept] = l;
                    kept += 1;
                }
            }
            i += 1;
        }
        lits.truncate(kept);
        match lits.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(lits[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach(&lits, false, 0, 0.0);
                true
            }
        }
    }

    /// Stores a clause of at least two literals in the arena and watches its
    /// first two literals.
    fn attach(&mut self, lits: &[Lit], learnt: bool, lbd: u32, activity: f64) -> CRef {
        let c = self.arena.alloc(lits, learnt, lbd, activity);
        let (a, b) = (lits[0], lits[1]);
        let (other_a, other_b) = if lits.len() == 2 {
            (b.code(), a.code())
        } else {
            (NO_OTHER, NO_OTHER)
        };
        self.watches[a.index()].push(Watcher {
            cref: c,
            other: other_a,
        });
        self.watches[b.index()].push(Watcher {
            cref: c,
            other: other_b,
        });
        self.num_clauses += 1;
        c
    }

    fn decision_level(&self) -> u32 {
        u32::try_from(self.trail_lim.len()).expect("level overflow")
    }

    fn enqueue(&mut self, l: Lit, reason: Option<CRef>) {
        debug_assert_eq!(self.lit_value(l), UNASSIGNED);
        let v = l.var();
        self.assign[l.index()] = VALUE_TRUE;
        self.assign[(!l).index()] = VALUE_FALSE;
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = reason;
        self.phase[v.index()] = l.is_positive();
        self.trail.push(l);
    }

    /// Propagates the trail to fixpoint; returns the conflicting clause, if
    /// any.
    ///
    /// Each watch list is compacted in place (`i` reads, `j` writes) and
    /// keeps its order.  A clause reached through the list stores its
    /// implied or conflicting literal first and the falsified watch second,
    /// which is the order analysis reads reasons in.  A long clause is
    /// brought into that order on every visit; a binary clause is decided
    /// from its watcher alone and is written only when it implies a literal
    /// or conflicts.
    fn propagate(&mut self) -> Option<CRef> {
        // One split borrow for the whole fixpoint: the watcher loop reads
        // and writes the arena, the watch lists and the assignment arrays
        // directly instead of re-borrowing `self` per watcher.
        let SatSolver {
            arena,
            watches,
            assign,
            level,
            reason,
            phase,
            trail,
            trail_lim,
            qhead,
            propagations,
            ..
        } = self;
        let decision_level = u32::try_from(trail_lim.len()).expect("level overflow");
        // `enqueue` with the borrows above.
        let mut imply = |l: Lit, c: CRef, assign: &mut [i8], trail: &mut Vec<Lit>| {
            debug_assert_eq!(assign[l.index()], UNASSIGNED);
            let v = l.var().index();
            assign[l.index()] = VALUE_TRUE;
            assign[(!l).index()] = VALUE_FALSE;
            level[v] = decision_level;
            reason[v] = Some(c);
            phase[v] = l.is_positive();
            trail.push(l);
        };
        while *qhead < trail.len() {
            let p = trail[*qhead];
            *qhead += 1;
            *propagations += 1;
            let false_lit = !p;
            // Taken out for the loop and put back below: every watcher
            // moved off this list goes to a non-false literal's list, never
            // back to this one.
            let mut ws = std::mem::take(&mut watches[false_lit.index()]);
            let mut conflict = None;
            let (mut i, mut j) = (0, 0);
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                let c = w.cref;
                if let Some(other) = w.binary_other() {
                    ws[j] = w;
                    j += 1;
                    let value = assign[other.index()];
                    if value == VALUE_TRUE {
                        continue;
                    }
                    if arena.lit(c, 0) == false_lit {
                        arena.swap_lits(c, 0, 1);
                    }
                    if value == VALUE_FALSE {
                        conflict = Some(c);
                        break;
                    }
                    imply(other, c, assign, trail);
                    continue;
                }
                // Make sure the false literal is at position 1.
                if arena.lit(c, 0) == false_lit {
                    arena.swap_lits(c, 0, 1);
                }
                let first = arena.lit(c, 0);
                if assign[first.index()] == VALUE_TRUE {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in 2..arena.len(c) {
                    let lk = arena.lit(c, k);
                    if assign[lk.index()] != VALUE_FALSE {
                        arena.swap_lits(c, 1, k);
                        watches[lk.index()].push(w);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                ws[j] = w;
                j += 1;
                if assign[first.index()] == VALUE_FALSE {
                    conflict = Some(c);
                    break;
                }
                imply(first, c, assign, trail);
            }
            // On a conflict, keep the watchers not yet visited.
            ws.copy_within(i.., j);
            ws.truncate(j + (ws.len() - i));
            watches[false_lit.index()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn var_bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v, &self.activity);
    }

    fn var_decay(&mut self) {
        self.var_inc /= 0.95;
    }

    /// Decays clause activities (by inflating the bump increment, MiniSat
    /// style): clauses that stop participating in conflicts grow relatively
    /// cold and become reduction candidates.  The factor is deliberately
    /// gentle — a strong recency bias would delete the cross-depth lemmas
    /// that make a long-lived incremental solver worth keeping (measured:
    /// 0.999 costs ~45% more conflicts than 0.9999 on the Table-1 sweep).
    fn cla_decay(&mut self) {
        self.cla_inc *= 1.0 / 0.9999;
    }

    /// Bumps a learnt clause's activity.  Original clauses are never
    /// reduction candidates, so they carry no activity: bumping them would
    /// let one cross the rescale threshold without ever being rescaled, and
    /// every later bump of it would divide the learnt activities again.
    fn clause_bump(&mut self, c: CRef) {
        if !self.arena.is_learnt(c) {
            return;
        }
        let activity = self.arena.activity(c) + self.cla_inc;
        self.arena.set_activity(c, activity);
        if activity > 1e20 {
            self.arena.rescale_learnt_activities(1e-20);
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis.  Leaves the learnt clause in
    /// `self.learnt` (asserting literal first, a literal of the backtrack
    /// level second) and returns the backtrack level.
    fn analyze(&mut self, mut conflict: CRef) -> u32 {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit::pos(Var(0))); // placeholder for the asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut trail_index = self.trail.len();

        loop {
            self.clause_bump(conflict);
            let start = usize::from(p.is_some());
            for k in start..self.arena.len(conflict) {
                let q = self.arena.lit(conflict, k);
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.var_bump(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next literal of the current level on the trail.
            loop {
                trail_index -= 1;
                let l = self.trail[trail_index];
                if self.seen[l.var().index()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found a seen literal").var();
            self.seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !p.expect("asserting literal");
                break;
            }
            conflict = self.reason[pv.index()].expect("non-decision literal has a reason");
        }

        // Conflict-clause minimisation (self-subsumption with direct
        // reasons).  Kept literals move to the front in order; removed ones
        // collect behind them until their `seen` flags are cleared.
        let mut kept = 1;
        for i in 1..learnt.len() {
            if !self.literal_is_redundant(learnt[i]) {
                learnt.swap(kept, i);
                kept += 1;
            }
        }

        // Compute the backtrack level: second highest level in the clause.
        let mut backtrack = 0;
        if kept > 1 {
            let mut max_i = 1;
            for i in 2..kept {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            backtrack = self.level[learnt[1].var().index()];
        }

        for l in &learnt {
            self.seen[l.var().index()] = false;
        }
        learnt.truncate(kept);
        self.learnt = learnt;
        backtrack
    }

    /// A literal is redundant in the learnt clause if every literal of its
    /// reason clause is already in the learnt clause (one-step
    /// self-subsumption).  During minimisation the `seen` flags at levels
    /// above 0 mark exactly the variables of the learnt clause's non-UIP
    /// literals, and a reason's literals sit below the UIP's level, so the
    /// flags answer membership without scanning the clause.
    fn literal_is_redundant(&self, l: Lit) -> bool {
        let Some(r) = self.reason[l.var().index()] else {
            return false;
        };
        (1..self.arena.len(r)).all(|k| {
            let v = self.arena.lit(r, k).var();
            self.seen[v.index()] || self.level[v.index()] == 0
        })
    }

    fn backtrack(&mut self, target: u32) {
        while self.decision_level() > target {
            let limit = self.trail_lim.pop().expect("decision level exists");
            while self.trail.len() > limit {
                let l = self.trail.pop().expect("trail not empty");
                let v = l.var();
                self.phase[v.index()] = l.is_positive();
                self.assign[l.index()] = UNASSIGNED;
                self.assign[(!l).index()] = UNASSIGNED;
                self.reason[v.index()] = None;
                if !self.order.contains(v) {
                    self.order.insert(v, &self.activity);
                }
            }
        }
        self.qhead = self.trail.len();
    }

    /// Stores the clause `analyze` left in `self.learnt`; returns its
    /// reference when it has at least two literals (a unit is enqueued
    /// directly at level 0).
    fn learn(&mut self) -> Option<CRef> {
        match self.learnt.len() {
            0 => {
                self.ok = false;
                None
            }
            1 => {
                self.enqueue(self.learnt[0], None);
                None
            }
            _ => {
                let learnt = std::mem::take(&mut self.learnt);
                let lbd = self.compute_lbd(&learnt);
                let c = self.attach(&learnt, true, lbd, self.cla_inc);
                self.learnt = learnt;
                self.num_learnt_live += 1;
                self.reduce_stats.learnt_high_water = self
                    .reduce_stats
                    .learnt_high_water
                    .max(self.num_learnt_live as u64);
                Some(c)
            }
        }
    }

    /// Number of distinct decision levels among the clause's literals.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        let mut lbd = 0;
        for l in lits {
            let level = self.level[l.var().index()] as usize;
            if level >= self.level_seen.len() {
                self.level_seen.resize(level + 1, false);
            }
            if !self.level_seen[level] {
                self.level_seen[level] = true;
                lbd += 1;
            }
        }
        for l in lits {
            self.level_seen[self.level[l.var().index()] as usize] = false;
        }
        lbd
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assign[Lit::pos(v).index()] == UNASSIGNED {
                return Some(Lit::new(v, self.phase[v.index()]));
            }
        }
        None
    }

    /// Makes the next pseudo-decision (an assumption not yet at its level) or
    /// real decision (VSIDS branch).
    fn next_decision(&mut self) -> Decision {
        while (self.decision_level() as usize) < self.assumptions.len() {
            let p = self.assumptions[self.decision_level() as usize];
            match self.lit_value(p) {
                VALUE_TRUE => {
                    // Already satisfied: open a dummy level so assumption
                    // indices and decision levels stay aligned.
                    self.trail_lim.push(self.trail.len());
                }
                VALUE_FALSE => return Decision::FailedAssumption(p),
                _ => {
                    self.trail_lim.push(self.trail.len());
                    self.enqueue(p, None);
                    return Decision::Continue;
                }
            }
        }
        match self.pick_branch() {
            None => Decision::Sat,
            Some(l) => {
                self.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.enqueue(l, None);
                Decision::Continue
            }
        }
    }

    /// Final-conflict analysis: `failed` is an assumption currently falsified
    /// by the trail.  Walks the implication graph backwards from `¬failed`
    /// and collects the pseudo-decisions (assumptions) it rests on, yielding
    /// an unsat core over the assumptions in `conflict_core`.
    fn analyze_final(&mut self, failed: Lit) {
        self.conflict_core.clear();
        self.conflict_core.push(failed);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[failed.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            if !self.seen[v.index()] {
                continue;
            }
            match self.reason[v.index()] {
                None => {
                    // A decision above level 0 is always an assumption here:
                    // analyze_final runs before any real branching happens on
                    // top of a falsified assumption, and assumptions are
                    // enqueued verbatim — so the trail literal is the
                    // assumption itself (including `!failed` when the
                    // assumption set contains both polarities of a variable).
                    if self.level[v.index()] > 0 {
                        self.conflict_core.push(l);
                    }
                }
                Some(c) => {
                    for k in 0..self.arena.len(c) {
                        let q = self.arena.lit(c, k).var();
                        if q != v && self.level[q.index()] > 0 {
                            self.seen[q.index()] = true;
                        }
                    }
                }
            }
            self.seen[v.index()] = false;
        }
        self.seen[failed.var().index()] = false;
    }

    /// Deletes the cold half of the learnt clauses and compacts the arena.
    ///
    /// Deletion candidates are ordered coldest-first: highest LBD, then
    /// lowest activity, so low-LBD (glue) clauses sort to the survivor end
    /// and are deleted only when the cold half reaches them.  Locked clauses
    /// (the reason of a trail literal) and binary learnts are never deleted.
    /// Deliberately *not* protected absolutely: glue clauses — under BMC
    /// assumption levels the glue pool grows without bound, and an immune
    /// pool concentrates deletion on the useful mid-LBD clauses (measured:
    /// ~40% more conflicts on the Table-1 sweep).  The surviving clauses are
    /// then copied, in order, into a fresh arena; each old header's LBD word
    /// is overwritten with its clause's new reference, through which every
    /// watcher and reason is remapped.  The deleted clauses' memory is
    /// actually returned instead of lingering as tombstones — the property
    /// that keeps long-lived incremental solvers (BMC sweeps, CEGIS loops)
    /// at bounded memory.
    fn reduce_db(&mut self) {
        for &r in self.reason.iter().flatten() {
            self.arena.set_mark(r, true);
        }
        let mut candidates: Vec<CRef> = self
            .arena
            .crefs()
            .filter(|&c| self.arena.is_learnt(c) && self.arena.len(c) > 2 && !self.arena.marked(c))
            .collect();
        for &r in self.reason.iter().flatten() {
            self.arena.set_mark(r, false);
        }
        candidates.sort_by(|&a, &b| {
            self.arena.lbd(b).cmp(&self.arena.lbd(a)).then(
                self.arena
                    .activity(a)
                    .partial_cmp(&self.arena.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let to_remove = candidates.len() / 2;
        let mut freed_lits = 0;
        for &c in &candidates[..to_remove] {
            self.arena.set_mark(c, true);
            freed_lits += self.arena.len(c);
        }

        // Compact: survivors move to a fresh arena and leave their new
        // reference behind.  Locked clauses are never deleted, so every
        // reason has a forwarding target.
        let mut old = std::mem::take(&mut self.arena);
        self.arena.words =
            Vec::with_capacity(old.words.len() - to_remove * HEADER_WORDS - freed_lits);
        let mut c = 0usize;
        while c < old.words.len() {
            let cref = c as CRef;
            let end = c + HEADER_WORDS + old.len(cref);
            if !old.marked(cref) {
                let moved = u32::try_from(self.arena.words.len()).expect("clause arena overflow");
                self.arena.words.extend_from_slice(&old.words[c..end]);
                old.set_forwarding(cref, moved);
            }
            c = end;
        }
        for ws in &mut self.watches {
            ws.retain_mut(|w| {
                if old.marked(w.cref) {
                    return false;
                }
                w.cref = old.forwarding(w.cref);
                true
            });
        }
        for r in self.reason.iter_mut().flatten() {
            *r = old.forwarding(*r);
        }

        self.num_clauses -= to_remove;
        self.num_learnt_live -= to_remove;
        self.reduce_stats.reductions += 1;
        self.reduce_stats.clauses_deleted += to_remove as u64;
        self.reduce_stats.literals_freed += freed_lits as u64;
        self.reduce_interval = self
            .reduce_interval
            .saturating_mul(REDUCE_GROWTH.0)
            .div_ceil(REDUCE_GROWTH.1);
        self.reduce_next = self.conflicts + self.reduce_interval;
        self.reduce_cap = self
            .reduce_cap
            .saturating_mul(REDUCE_GROWTH.0)
            .div_ceil(REDUCE_GROWTH.1);
    }

    fn luby(i: u64) -> u64 {
        // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
        let mut k = 1u32;
        loop {
            if i + 1 == (1u64 << k) - 1 {
                return 1u64 << (k - 1);
            }
            if i + 1 < (1u64 << k) - 1 {
                return Self::luby(i + 1 - (1u64 << (k - 1)));
            }
            k += 1;
        }
    }

    /// Runs the CDCL search with no assumptions.
    pub fn solve(&mut self) -> SolveOutcome {
        self.solve_under_assumptions(&[])
    }

    /// Runs the CDCL search under assumption literals.
    ///
    /// The assumptions are enqueued as pseudo-decisions below every real
    /// decision, so the answer is the satisfiability of the clause database
    /// *conjoined with* the assumptions.  The assumptions are retracted when
    /// the call returns: the solver unwinds to decision level 0, keeping all
    /// learnt clauses, activities and phases, so further clauses can be
    /// added and further calls made.  On an assumption-caused
    /// [`SolveOutcome::Unsat`],
    /// [`unsat_assumptions`](Self::unsat_assumptions) holds a core over the
    /// assumptions.
    pub fn solve_under_assumptions(&mut self, assumps: &[Lit]) -> SolveOutcome {
        self.conflict_core.clear();
        self.model.clear();
        self.stop_reason = None;
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        if self.cancelled() {
            // A pre-raised flag (e.g. a batch whose budget expired before
            // this job started) skips the search entirely.
            self.stop_reason = Some(StopReason::Cancelled);
            return SolveOutcome::Unknown;
        }
        debug_assert_eq!(
            self.decision_level(),
            0,
            "solver must be at level 0 between calls"
        );
        for l in assumps {
            self.reserve_vars(l.var().0 + 1);
        }
        self.assumptions = assumps.to_vec();
        if self.propagate().is_some() {
            self.ok = false;
            self.assumptions.clear();
            return SolveOutcome::Unsat;
        }
        let mut restart_count = 0u64;
        let start_conflicts = self.conflicts;
        let outcome = loop {
            let budget = 100 * Self::luby(restart_count);
            match self.search(budget, start_conflicts) {
                Some(outcome) => break outcome,
                None => {
                    restart_count += 1;
                    self.backtrack(0);
                }
            }
        };
        if outcome == SolveOutcome::Sat {
            self.model = self.assign.clone();
        }
        self.backtrack(0);
        self.assumptions.clear();
        outcome
    }

    /// Searches until a verdict, a restart budget expiry (`None`) or the
    /// global conflict limit.
    fn search(&mut self, budget: u64, start_conflicts: u64) -> Option<SolveOutcome> {
        let mut local_conflicts = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                local_conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Some(SolveOutcome::Unsat);
                }
                let backtrack_level = self.analyze(conflict);
                self.backtrack(backtrack_level);
                let asserting = self.learnt[0];
                if let Some(c) = self.learn() {
                    // `learn` watches but does not enqueue; do it with the reason.
                    if self.lit_value(asserting) == UNASSIGNED {
                        self.enqueue(asserting, Some(c));
                    }
                }
                self.var_decay();
                self.cla_decay();
                if self
                    .fault
                    .panic_at_conflict
                    .is_some_and(|k| self.conflicts >= k)
                {
                    // Deterministic injected fault: the panic-isolation
                    // layer above (sepe_sqed::parallel) must catch this.
                    panic!(
                        "fault injection: forced panic at conflict {}",
                        self.conflicts
                    );
                }
                if self
                    .fault
                    .memory_breach_at_conflict
                    .is_some_and(|k| self.conflicts >= k)
                {
                    // Injected fake cap breach: exercises the memory-budget
                    // give-up path exactly, without allocating anything.
                    // Checked per conflict (not sampled) so tiny test
                    // formulas trip it deterministically too.
                    self.stop_reason = Some(StopReason::MemoryBudget);
                    self.backtrack(0);
                    return Some(SolveOutcome::Unknown);
                }
                if let Some(limit) = self.conflict_limit {
                    if self.conflicts - start_conflicts >= limit {
                        self.stop_reason = Some(StopReason::ConflictBudget);
                        self.backtrack(0);
                        return Some(SolveOutcome::Unknown);
                    }
                }
                if self.conflicts.is_multiple_of(64) {
                    // An Instant read (or even an atomic load) per conflict
                    // would already be noise next to conflict analysis;
                    // sampling 1-in-64 makes every interruption source free
                    // while bounding the overrun to a short burst.  The
                    // memory estimate rides along: O(1) counter reads.
                    let estimate = self.memory_estimate();
                    self.mem_high_water = self.mem_high_water.max(estimate);
                    let reason = if self
                        .deadline
                        .is_some_and(|deadline| Instant::now() >= deadline)
                    {
                        Some(StopReason::Deadline)
                    } else if self.memory_limit.is_some_and(|cap| estimate > cap) {
                        Some(StopReason::MemoryBudget)
                    } else if self.cancelled() {
                        Some(StopReason::Cancelled)
                    } else {
                        None
                    };
                    if let Some(reason) = reason {
                        self.stop_reason = Some(reason);
                        self.backtrack(0);
                        return Some(SolveOutcome::Unknown);
                    }
                }
            } else {
                if self.conflicts >= self.reduce_next
                    || self.num_learnt_live as u64 >= self.reduce_cap
                {
                    self.reduce_db();
                }
                if local_conflicts >= budget {
                    return None;
                }
                // Re-establish assumptions first (each on its own level so
                // conflict analysis can distinguish them), then branch.
                match self.next_decision() {
                    Decision::Sat => return Some(SolveOutcome::Sat),
                    Decision::FailedAssumption(failed) => {
                        self.analyze_final(failed);
                        self.backtrack(0);
                        return Some(SolveOutcome::Unsat);
                    }
                    Decision::Continue => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: i32) -> Lit {
        let var = Var(v.unsigned_abs() - 1);
        Lit::new(var, v > 0)
    }

    fn solver_with(clauses: &[Vec<i32>]) -> SatSolver {
        let mut s = SatSolver::new();
        for c in clauses {
            s.add_clause(c.iter().map(|&v| lit(v)).collect());
        }
        s
    }

    #[test]
    fn trivially_sat() {
        let mut s = solver_with(&[vec![1, 2], vec![-1, 2], vec![1, -2]]);
        assert_eq!(s.solve(), SolveOutcome::Sat);
        // (x1∨x2)(¬x1∨x2)(x1∨¬x2) forces x1=x2=true
        assert!(s.value_of(Var(0)));
        assert!(s.value_of(Var(1)));
    }

    #[test]
    fn trivially_unsat() {
        let mut s = solver_with(&[vec![1], vec![-1]]);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn unsat_via_resolution_chain() {
        // (x1∨x2)(x1∨¬x2)(¬x1∨x3)(¬x1∨¬x3) is unsat
        let mut s = solver_with(&[vec![1, 2], vec![1, -2], vec![-1, 3], vec![-1, -3]]);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = SatSolver::new();
        assert_eq!(s.solve(), SolveOutcome::Sat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = SatSolver::new();
        assert!(!s.add_clause(vec![]));
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    /// Pigeonhole principle PHP(n+1, n): unsatisfiable, requires real search.
    fn pigeonhole(pigeons: u32, holes: u32) -> Vec<Vec<i32>> {
        let var = |p: u32, h: u32| i32::try_from(p * holes + h + 1).expect("var index");
        let mut clauses = Vec::new();
        for p in 0..pigeons {
            clauses.push((0..holes).map(|h| var(p, h)).collect());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    clauses.push(vec![-var(p1, h), -var(p2, h)]);
                }
            }
        }
        clauses
    }

    /// PHP(7, 6) with every clause guarded by `¬act`: hard UNSAT under the
    /// assumption `act`, trivially SAT without it.
    fn guarded_pigeonhole(act: i32) -> Vec<Vec<i32>> {
        pigeonhole(7, 6)
            .into_iter()
            .map(|mut c| {
                c.push(-act);
                c
            })
            .collect()
    }

    #[test]
    fn pigeonhole_4_into_3_is_unsat() {
        let mut s = solver_with(&pigeonhole(4, 3));
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn pigeonhole_4_into_4_is_sat() {
        let clauses = {
            let mut c = pigeonhole(4, 4);
            c.retain(|_| true);
            c
        };
        let mut s = solver_with(&clauses);
        assert_eq!(s.solve(), SolveOutcome::Sat);
    }

    #[test]
    fn conflict_limit_reports_unknown() {
        let mut s = solver_with(&pigeonhole(7, 6));
        s.set_conflict_limit(Some(5));
        assert_eq!(s.solve(), SolveOutcome::Unknown);
        assert_eq!(s.stop_reason(), Some(StopReason::ConflictBudget));
        // Lifting the budget clears the reason along with the verdict.
        s.set_conflict_limit(None);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        assert_eq!(s.stop_reason(), None);
    }

    #[test]
    fn memory_budget_stops_the_search_deterministically() {
        let mut tight = solver_with(&pigeonhole(7, 6));
        tight.set_memory_limit(Some(1)); // any learnt clause breaches 1 byte
        assert_eq!(tight.solve(), SolveOutcome::Unknown);
        assert_eq!(tight.stop_reason(), Some(StopReason::MemoryBudget));
        assert!(tight.memory_high_water() > 1);
        // Deterministic: an identical twin gives up at the same conflict.
        let mut twin = solver_with(&pigeonhole(7, 6));
        twin.set_memory_limit(Some(1));
        assert_eq!(twin.solve(), SolveOutcome::Unknown);
        assert_eq!(twin.num_conflicts(), tight.num_conflicts());
        // Raising the cap lets the same solver finish the job.
        tight.set_memory_limit(None);
        assert_eq!(tight.solve(), SolveOutcome::Unsat);
        assert_eq!(tight.stop_reason(), None);
    }

    #[test]
    fn raised_cancel_flag_reports_cancelled() {
        let mut s = solver_with(&pigeonhole(7, 6));
        let flag: CancelFlag = Arc::new(AtomicBool::new(true));
        s.set_cancel_flags(vec![flag]);
        assert_eq!(s.solve(), SolveOutcome::Unknown);
        assert_eq!(s.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn any_flag_of_a_chained_set_cancels() {
        let mut s = solver_with(&pigeonhole(7, 6));
        let a: CancelFlag = Arc::new(AtomicBool::new(false));
        let b: CancelFlag = Arc::new(AtomicBool::new(false));
        s.set_cancel_flags(vec![a.clone(), b.clone()]);
        b.store(true, Ordering::Relaxed);
        assert_eq!(s.solve(), SolveOutcome::Unknown);
        assert_eq!(s.stop_reason(), Some(StopReason::Cancelled));
        // Lowering the flag makes the same solver usable again.
        b.store(false, Ordering::Relaxed);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        assert_eq!(s.stop_reason(), None);
    }

    #[test]
    fn forced_panic_fires_at_the_exact_conflict() {
        let mut s = solver_with(&pigeonhole(7, 6));
        s.set_fault_hooks(FaultHooks {
            panic_at_conflict: Some(10),
            ..FaultHooks::default()
        });
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.solve()));
        let message = *caught
            .expect_err("the armed hook must panic")
            .downcast::<String>()
            .expect("panic payload is a formatted string");
        assert!(message.contains("forced panic at conflict 10"), "{message}");
    }

    #[test]
    fn fake_memory_breach_stops_at_the_exact_conflict() {
        let mut s = solver_with(&pigeonhole(7, 6));
        s.set_fault_hooks(FaultHooks {
            memory_breach_at_conflict: Some(10),
            ..FaultHooks::default()
        });
        assert_eq!(s.solve(), SolveOutcome::Unknown);
        assert_eq!(s.stop_reason(), Some(StopReason::MemoryBudget));
        assert_eq!(s.num_conflicts(), 10);
        // Disarming the hook lets the solver finish.
        s.set_fault_hooks(FaultHooks::default());
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn assumptions_flip_the_verdict_without_mutating_the_formula() {
        // (x1 ∨ x2) is SAT; assuming ¬x1 and ¬x2 makes it UNSAT; the formula
        // itself stays SAT afterwards.
        let mut s = solver_with(&[vec![1, 2]]);
        assert_eq!(
            s.solve_under_assumptions(&[lit(-1), lit(-2)]),
            SolveOutcome::Unsat
        );
        assert_eq!(s.solve(), SolveOutcome::Sat);
        assert_eq!(s.solve_under_assumptions(&[lit(-1)]), SolveOutcome::Sat);
        assert!(s.value_of(Var(1)), "x2 must hold when x1 is assumed false");
    }

    #[test]
    fn unsat_core_is_a_subset_of_the_assumptions() {
        // x1 → x2, x2 → x3; assuming {x1, ¬x3, x5} is UNSAT and the core
        // must not mention the irrelevant x5.
        let mut s = solver_with(&[vec![-1, 2], vec![-2, 3]]);
        let assumps = [lit(1), lit(-3), lit(5)];
        assert_eq!(s.solve_under_assumptions(&assumps), SolveOutcome::Unsat);
        let core = s.unsat_assumptions().to_vec();
        assert!(!core.is_empty());
        assert!(
            core.iter().all(|l| assumps.contains(l)),
            "core {core:?} ⊄ assumptions"
        );
        assert!(
            !core.contains(&lit(5)),
            "irrelevant assumption in core: {core:?}"
        );
        // The core itself must be unsatisfiable together with the clauses.
        assert_eq!(s.solve_under_assumptions(&core), SolveOutcome::Unsat);
    }

    #[test]
    fn opposite_polarity_assumptions_yield_both_in_the_core() {
        let mut s = solver_with(&[vec![1, 2]]);
        assert_eq!(
            s.solve_under_assumptions(&[lit(3), lit(-3)]),
            SolveOutcome::Unsat
        );
        let core = s.unsat_assumptions();
        assert!(
            core.contains(&lit(3)) && core.contains(&lit(-3)),
            "core {core:?}"
        );
    }

    #[test]
    fn clauses_can_be_added_between_solves() {
        let mut s = solver_with(&[vec![1, 2]]);
        assert_eq!(s.solve(), SolveOutcome::Sat);
        assert!(s.add_clause(vec![lit(-1)]));
        assert_eq!(s.solve(), SolveOutcome::Sat);
        assert!(s.value_of(Var(1)));
        // ¬x2 contradicts the level-0 consequence x2: add_clause reports the
        // trivial inconsistency immediately.
        assert!(!s.add_clause(vec![lit(-2)]));
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        assert!(
            s.unsat_assumptions().is_empty(),
            "global unsat has an empty core"
        );
    }

    #[test]
    fn learnt_clauses_persist_across_calls() {
        // Solve a pigeonhole instance twice: the second run reuses the learnt
        // clauses of the first and needs (strictly) fewer new conflicts.
        let mut s = solver_with(&pigeonhole(5, 4));
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        // A global UNSAT answer is final: ok=false short-circuits.
        assert_eq!(s.solve(), SolveOutcome::Unsat);

        // Under assumptions UNSAT is not final; re-solving a SAT instance
        // under changing assumptions must keep working.
        let mut s = solver_with(&pigeonhole(4, 4));
        assert_eq!(s.solve_under_assumptions(&[lit(1)]), SolveOutcome::Sat);
        let first = s.num_conflicts();
        assert_eq!(s.solve_under_assumptions(&[lit(-1)]), SolveOutcome::Sat);
        assert_eq!(s.solve_under_assumptions(&[lit(1)]), SolveOutcome::Sat);
        let after = s.num_conflicts() - first;
        assert!(
            after <= first + 50,
            "later calls should not restart cold: {first} -> {after}"
        );
    }

    #[test]
    fn assumption_core_respects_already_false_units() {
        // Unit clause ¬x1; assuming x1 fails with core {x1} at level 0.
        let mut s = solver_with(&[vec![-1]]);
        assert_eq!(s.solve_under_assumptions(&[lit(1)]), SolveOutcome::Unsat);
        assert_eq!(s.unsat_assumptions(), &[lit(1)]);
        // ... and the solver is still usable.
        assert_eq!(s.solve(), SolveOutcome::Sat);
    }

    #[test]
    fn forced_reduction_agrees_with_the_default_schedule() {
        // PHP(7, 6) takes thousands of conflicts; an aggressive reduction
        // schedule must not change the verdict.
        let mut reduced = solver_with(&pigeonhole(7, 6));
        reduced.set_reduce_interval(25);
        assert_eq!(reduced.solve(), SolveOutcome::Unsat);
        let stats = reduced.reduce_stats();
        assert!(stats.reductions > 0, "interval 25 must trigger reductions");
        assert!(stats.clauses_deleted > 0);
        assert!(stats.literals_freed > 0);
        assert!(stats.learnt_high_water >= reduced.num_learnt() as u64);
    }

    #[test]
    fn reduction_under_assumptions_keeps_the_solver_reusable() {
        // PHP(7, 6) guarded by an activation literal: assuming the activation
        // is hard-UNSAT (thousands of conflicts, forcing many reduction
        // passes), retracting it leaves a trivially satisfiable formula.
        let act = 43; // first variable beyond the pigeonhole block
        let mut s = solver_with(&guarded_pigeonhole(act));
        s.set_reduce_interval(25);
        assert_eq!(s.solve_under_assumptions(&[lit(act)]), SolveOutcome::Unsat);
        let stats = s.reduce_stats();
        assert!(stats.reductions > 0, "activated PHP must force reductions");
        assert!(stats.clauses_deleted > 0);
        // The solver must stay healthy after reduction + retraction: the
        // formula without the assumption is SAT, and re-assuming on the
        // compacted database reproduces the UNSAT verdict.
        assert_eq!(s.solve(), SolveOutcome::Sat);
        assert_eq!(s.solve_under_assumptions(&[lit(act)]), SolveOutcome::Unsat);
        assert_eq!(s.unsat_assumptions(), &[lit(act)]);
    }

    /// Randomized differential check of assumption solving against adding the
    /// assumptions as unit clauses to a fresh solver.
    #[test]
    fn assumptions_agree_with_unit_clauses_on_random_formulas() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xa55);
        for round in 0..80 {
            let num_vars = 7;
            let clauses: Vec<Vec<i32>> = (0..(4 + round % 16))
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = rng.gen_range(1..=num_vars);
                            if rng.gen_bool(0.5) {
                                v
                            } else {
                                -v
                            }
                        })
                        .collect()
                })
                .collect();
            let mut assumps: Vec<i32> = Vec::new();
            for v in 1..=num_vars {
                if rng.gen_bool(0.3) {
                    assumps.push(if rng.gen_bool(0.5) { v } else { -v });
                }
            }
            let mut incremental = solver_with(&clauses);
            let a_lits: Vec<Lit> = assumps.iter().map(|&v| lit(v)).collect();
            let with_assumps = incremental.solve_under_assumptions(&a_lits);
            let mut scratch = solver_with(&clauses);
            for &v in &assumps {
                scratch.add_clause(vec![lit(v)]);
            }
            let with_units = scratch.solve();
            assert_eq!(
                with_assumps, with_units,
                "clauses {clauses:?} assumps {assumps:?}"
            );
            // The incremental solver must remain intact: re-solve without
            // assumptions and compare against a fresh run.
            let clean = incremental.solve();
            let fresh = solver_with(&clauses).solve();
            assert_eq!(
                clean, fresh,
                "post-assumption state corrupted on {clauses:?}"
            );
        }
    }

    /// Search counters and reduction statistics of a solver, in one
    /// comparable row: conflicts, decisions, propagations, reductions,
    /// clauses deleted, literals freed, learnt high-water mark.
    fn fingerprint(s: &SatSolver) -> [u64; 7] {
        let r = s.reduce_stats();
        [
            s.num_conflicts(),
            s.num_decisions(),
            s.num_propagations(),
            r.reductions,
            r.clauses_deleted,
            r.literals_freed,
            r.learnt_high_water,
        ]
    }

    /// Pins the exact search of the solver on fixed inputs.  Storage and
    /// propagation changes (clause layout, watcher representation, analysis
    /// buffers) must leave every decision, conflict and propagation where it
    /// was; only a deliberate heuristic change may update these values.
    #[test]
    fn search_fingerprint_is_pinned() {
        let mut php = solver_with(&pigeonhole(7, 6));
        assert_eq!(php.solve(), SolveOutcome::Unsat);
        assert_eq!(
            fingerprint(&php),
            [609, 734, 7022, 0, 0, 0, 605],
            "PHP(7,6) default schedule"
        );

        let mut reduced = solver_with(&pigeonhole(7, 6));
        reduced.set_reduce_interval(25);
        assert_eq!(reduced.solve(), SolveOutcome::Unsat);
        assert_eq!(
            fingerprint(&reduced),
            [993, 1210, 13268, 9, 646, 8357, 350],
            "PHP(7,6) reduce interval 25"
        );

        let act = 43;
        let mut guarded = solver_with(&guarded_pigeonhole(act));
        guarded.set_reduce_interval(25);
        assert_eq!(
            guarded.solve_under_assumptions(&[lit(act), lit(-44)]),
            SolveOutcome::Unsat
        );
        assert_eq!(guarded.unsat_assumptions(), &[lit(act)]);
        assert_eq!(guarded.solve(), SolveOutcome::Sat);
        assert_eq!(
            fingerprint(&guarded),
            [986, 1267, 12982, 9, 648, 9178, 347],
            "guarded PHP(7,6)"
        );

        // Random 3-SAT near the threshold, each instance queried under
        // several assumption sets on one incremental solver; odd instances
        // reduce aggressively so compaction runs under live reasons.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed_f1a9);
        let mut totals = [0u64; 7];
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| digest = (digest ^ x).wrapping_mul(0x0100_0000_01b3);
        for instance in 0..8 {
            let num_vars = 100;
            let clauses: Vec<Vec<i32>> = (0..426)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = rng.gen_range(1..=num_vars);
                            if rng.gen_bool(0.5) {
                                v
                            } else {
                                -v
                            }
                        })
                        .collect()
                })
                .collect();
            let mut s = solver_with(&clauses);
            if instance % 2 == 1 {
                s.set_reduce_interval(10);
            }
            for _ in 0..6 {
                let assumps: Vec<Lit> = (0..5)
                    .map(|_| {
                        let v = rng.gen_range(1..=num_vars);
                        lit(if rng.gen_bool(0.5) { v } else { -v })
                    })
                    .collect();
                let outcome = s.solve_under_assumptions(&assumps);
                mix(outcome as u64);
                for l in s.unsat_assumptions() {
                    mix(l.index() as u64);
                }
                mix(u64::MAX);
            }
            for (t, x) in totals.iter_mut().zip(fingerprint(&s)) {
                *t += x;
            }
        }
        assert_eq!(
            totals,
            [1762, 2224, 41486, 28, 578, 4730, 1218],
            "random 3-SAT batch counters"
        );
        assert_eq!(
            digest, 0x2eba_afb8_9b4d_3ec2,
            "random 3-SAT batch verdicts and cores"
        );
    }

    /// A solver that starts with `cla_inc` just under the rescale threshold
    /// (the state a long-lived solver reaches after ~460k conflicts) must
    /// bring the increment back down once and keep it there.  Bumping
    /// original clauses let one of them pass 1e20 unrescaled, and every later
    /// conflict on it divided `cla_inc` by 1e20 again until it underflowed.
    #[test]
    fn clause_activity_rescale_survives_a_high_increment() {
        let mut s = solver_with(&pigeonhole(7, 6));
        s.cla_inc = 1e19;
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        assert!(
            s.cla_inc > 1e-3 && s.cla_inc < 1e20,
            "cla_inc = {}",
            s.cla_inc
        );
        for c in s.arena.crefs() {
            let activity = s.arena.activity(c);
            if s.arena.is_learnt(c) {
                assert!(
                    activity > 0.0 && activity <= 1e20,
                    "learnt activity {activity}"
                );
            } else {
                assert_eq!(activity, 0.0, "original clauses carry no activity");
            }
        }
    }

    #[test]
    fn memory_estimate_falls_after_compaction() {
        let mut s = solver_with(&pigeonhole(7, 6));
        s.set_conflict_limit(Some(300));
        assert_eq!(s.solve(), SolveOutcome::Unknown);
        let before = s.memory_estimate();
        let clauses = s.num_clauses();
        assert_eq!(
            before,
            4 * s.arena.words.len() + clauses * 2 * std::mem::size_of::<Watcher>()
        );
        s.reduce_db();
        let deleted = s.reduce_stats().clauses_deleted as usize;
        assert!(
            deleted > 0,
            "300 conflicts leave long learnt clauses to delete"
        );
        assert_eq!(s.num_clauses(), clauses - deleted);
        let freed_words = deleted * HEADER_WORDS + s.reduce_stats().literals_freed as usize;
        assert_eq!(
            before - s.memory_estimate(),
            4 * freed_words + deleted * 2 * std::mem::size_of::<Watcher>()
        );
        // The compacted solver still decides the formula.
        s.set_conflict_limit(None);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    /// Brute-force model counting cross-check on random small formulas.
    #[test]
    fn agrees_with_brute_force_on_random_formulas() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xdecaf);
        for round in 0..60 {
            let num_vars = 6;
            let num_clauses = 3 + (round % 18);
            let clauses: Vec<Vec<i32>> = (0..num_clauses)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = rng.gen_range(1..=num_vars);
                            if rng.gen_bool(0.5) {
                                v
                            } else {
                                -v
                            }
                        })
                        .collect()
                })
                .collect();
            let brute_sat = (0u32..(1 << num_vars)).any(|m| {
                clauses.iter().all(|c| {
                    c.iter().any(|&l| {
                        let bit = (m >> (l.unsigned_abs() - 1)) & 1 == 1;
                        if l > 0 {
                            bit
                        } else {
                            !bit
                        }
                    })
                })
            });
            let mut s = solver_with(&clauses);
            let outcome = s.solve();
            assert_eq!(
                outcome,
                if brute_sat {
                    SolveOutcome::Sat
                } else {
                    SolveOutcome::Unsat
                },
                "mismatch on {clauses:?}"
            );
            if outcome == SolveOutcome::Sat {
                // The returned model must satisfy every clause.
                for c in &clauses {
                    assert!(c.iter().any(|&l| {
                        let val = s.value_of(Var(l.unsigned_abs() - 1));
                        if l > 0 {
                            val
                        } else {
                            !val
                        }
                    }));
                }
            }
        }
    }
}
