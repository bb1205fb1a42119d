//! The transition-system IR.

use sepe_smt::concrete::{self, Assignment};
use sepe_smt::{FastMap, FastSet, TermId, TermManager};

/// One state variable: its current-state term (a variable), an optional
/// initial value and its next-state function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateVar {
    /// The current-state variable term.
    pub current: TermId,
    /// Initial-state value (a term over constants and other current-state
    /// variables); `None` leaves the initial value unconstrained.
    pub init: Option<TermId>,
    /// Next-state function (a term over current-state variables and inputs).
    pub next: TermId,
}

/// Result of [`TransitionSystem::cone_of_influence`]: how many transition
/// steps each current-state variable needs to influence a bad state or an
/// invariant constraint.
///
/// `dist(v) == 0` means `v` occurs directly in a bad-state property or a
/// constraint; `dist(v) == d` means the shortest dependency chain from `v`
/// through next-state functions to such a root has `d` steps.  Variables
/// with no entry cannot influence the roots at all (the static cone).  The
/// bounded model checker uses the distances *per frame*: the update into
/// frame `k` of a depth-`b` unrolling only matters when
/// `dist(v) <= b - k` — the remaining depth — so the last frames of a
/// bounded check drop strictly more than the static fixpoint.
#[derive(Debug, Clone)]
pub struct CoiInfo {
    /// Current-state variable → distance (in transition steps) to the
    /// nearest bad-state/constraint root.
    dist: FastMap<TermId, usize>,
    /// Total number of registered state variables.
    num_state_vars: usize,
    /// Largest finite distance in `dist` (0 when the cone is empty): past
    /// this remaining depth the per-frame cone stops growing, so callers
    /// can saturate their refinement levels here and skip no-op passes.
    max_dist: usize,
    /// Number of state variables outside the static cone (their per-frame
    /// updates can always be dropped before encoding).
    pub dropped: usize,
}

impl CoiInfo {
    /// Whether a state variable's update must be asserted at *some* frame
    /// (the static cone).
    pub fn keeps(&self, current: TermId) -> bool {
        self.dist.contains_key(&current)
    }

    /// The variable's distance to the nearest root, `None` outside the
    /// static cone.
    pub fn dist(&self, current: TermId) -> Option<usize> {
        self.dist.get(&current).copied()
    }

    /// Whether a state variable's update must be asserted when `remaining`
    /// transition steps are left below the bound.
    pub fn keeps_within(&self, current: TermId, remaining: usize) -> bool {
        self.dist.get(&current).is_some_and(|&d| d <= remaining)
    }

    /// Number of state variables whose update can be dropped at `remaining`
    /// steps below the bound (static drops plus the per-depth refinement).
    pub fn dropped_within(&self, remaining: usize) -> usize {
        let kept = self.dist.values().filter(|&&d| d <= remaining).count();
        self.num_state_vars - kept
    }

    /// The remaining depth at which the per-frame cone saturates: for
    /// `remaining >= max_dist()` the kept set equals the static cone and no
    /// later refinement can add anything.
    pub fn max_dist(&self) -> usize {
        self.max_dist
    }
}

/// A word-level transition system (the BTOR2-like IR of the reproduction).
#[derive(Debug, Clone, Default)]
pub struct TransitionSystem {
    state_vars: Vec<StateVar>,
    inputs: Vec<TermId>,
    constraints: Vec<TermId>,
    bad: Vec<TermId>,
}

impl TransitionSystem {
    /// Creates an empty system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a state variable.
    ///
    /// # Panics
    ///
    /// Panics if `current` is not a variable term, or if the sorts of
    /// `current`, `init` and `next` disagree.
    pub fn add_state_var(
        &mut self,
        tm: &TermManager,
        current: TermId,
        init: Option<TermId>,
        next: TermId,
    ) -> StateVar {
        assert!(
            tm.var_name(current).is_some(),
            "state variables must be variable terms"
        );
        assert_eq!(tm.sort(current), tm.sort(next), "next-state sort mismatch");
        if let Some(init) = init {
            assert_eq!(tm.sort(current), tm.sort(init), "init sort mismatch");
        }
        let sv = StateVar {
            current,
            init,
            next,
        };
        self.state_vars.push(sv);
        sv
    }

    /// Registers an input variable.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not a variable term.
    pub fn add_input(&mut self, tm: &TermManager, input: TermId) {
        assert!(
            tm.var_name(input).is_some(),
            "inputs must be variable terms"
        );
        self.inputs.push(input);
    }

    /// Adds an invariant constraint (assumed to hold in every frame).
    pub fn add_constraint(&mut self, constraint: TermId) {
        self.constraints.push(constraint);
    }

    /// Adds a bad-state property (the BMC target).
    pub fn add_bad(&mut self, bad: TermId) {
        self.bad.push(bad);
    }

    /// The registered state variables.
    pub fn state_vars(&self) -> &[StateVar] {
        &self.state_vars
    }

    /// The registered inputs.
    pub fn inputs(&self) -> &[TermId] {
        &self.inputs
    }

    /// The invariant constraints.
    pub fn constraints(&self) -> &[TermId] {
        &self.constraints
    }

    /// The bad-state properties.
    pub fn bad_states(&self) -> &[TermId] {
        &self.bad
    }

    /// Looks up a state variable by its variable name.
    pub fn find_state(&self, tm: &TermManager, name: &str) -> Option<StateVar> {
        self.state_vars
            .iter()
            .copied()
            .find(|sv| tm.var_name(sv.current) == Some(name))
    }

    /// Computes the layered cone of influence of the bad-state properties.
    ///
    /// A state variable is *kept* when it can reach a bad-state property or
    /// an invariant constraint through the next-state dependency graph
    /// (constraints must be roots: a constraint over a variable whose update
    /// was dropped could otherwise be satisfied by values the real update
    /// forbids, creating spurious counterexamples).  The breadth-first
    /// search additionally records each kept variable's *distance* — how
    /// many transition steps its value needs to propagate to a root — which
    /// is what lets the model checker drop updates per frame: at remaining
    /// depth `r` below the bound, only variables with distance `<= r` can
    /// still matter.  The next-state update of every other variable is a
    /// pure definition at that frame — the variable occurs in no bad state,
    /// no constraint and no kept update of any later frame — so dropping it
    /// preserves satisfiability frame for frame.  Initial values stay
    /// asserted for all variables (frame 0 is shared), and the model checker
    /// reconstructs dropped variables' trace values by forward evaluation
    /// when it extracts a witness.
    pub fn cone_of_influence(&self, tm: &TermManager) -> CoiInfo {
        let state_set: FastSet<TermId> = self.state_vars.iter().map(|sv| sv.current).collect();
        let mut dist: FastMap<TermId, usize> = FastMap::default();
        let mut roots: Vec<TermId> = Vec::new();
        roots.extend(self.bad.iter().copied());
        roots.extend(self.constraints.iter().copied());
        let mut frontier: Vec<TermId> = Vec::new();
        for v in tm.collect_vars(&roots) {
            if state_set.contains(&v) && !dist.contains_key(&v) {
                dist.insert(v, 0);
                frontier.push(v);
            }
        }
        let next_of: FastMap<TermId, TermId> = self
            .state_vars
            .iter()
            .map(|sv| (sv.current, sv.next))
            .collect();
        let mut layer = 0usize;
        while !frontier.is_empty() {
            layer += 1;
            let mut next_frontier: Vec<TermId> = Vec::new();
            for v in frontier {
                let next = next_of[&v];
                for dep in tm.collect_vars(&[next]) {
                    if state_set.contains(&dep) && !dist.contains_key(&dep) {
                        dist.insert(dep, layer);
                        next_frontier.push(dep);
                    }
                }
            }
            frontier = next_frontier;
        }
        let num_state_vars = self.state_vars.len();
        let dropped = num_state_vars - dist.len();
        let max_dist = dist.values().copied().max().unwrap_or(0);
        CoiInfo {
            dist,
            num_state_vars,
            dropped,
            max_dist,
        }
    }

    /// Concretely simulates the system for `inputs_per_frame.len()` steps.
    ///
    /// Returns, for each frame, the value of every state variable *before*
    /// that frame's transition (frame 0 holds the initial state), plus one
    /// final post-state entry.  Unconstrained initial values and unspecified
    /// inputs default to zero.  This is used to replay BMC witnesses on an
    /// independent path.
    pub fn simulate(&self, tm: &TermManager, inputs_per_frame: &[Assignment]) -> Vec<Assignment> {
        let mut state = Assignment::default();
        for sv in &self.state_vars {
            let v = sv
                .init
                .map(|t| concrete::eval(tm, t, &Assignment::default()))
                .unwrap_or(0);
            state.insert(sv.current, v);
        }
        let mut trace = vec![state.clone()];
        for frame_inputs in inputs_per_frame {
            let mut env = state.clone();
            for (&k, &v) in frame_inputs {
                env.insert(k, v);
            }
            let mut next_state = Assignment::default();
            for sv in &self.state_vars {
                next_state.insert(sv.current, concrete::eval(tm, sv.next, &env));
            }
            state = next_state;
            trace.push(state.clone());
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_smt::Sort;

    #[test]
    fn builds_and_queries_a_counter() {
        let mut tm = TermManager::new();
        let c = tm.var("count", Sort::BitVec(4));
        let inc = tm.var("inc", Sort::BitVec(4));
        let next = tm.bv_add(c, inc);
        let zero = tm.zero(4);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(&tm, c, Some(zero), next);
        ts.add_input(&tm, inc);
        assert_eq!(ts.state_vars().len(), 1);
        assert_eq!(ts.inputs().len(), 1);
        assert_eq!(ts.find_state(&tm, "count").map(|s| s.current), Some(c));
        assert!(ts.find_state(&tm, "missing").is_none());
    }

    #[test]
    fn simulate_follows_next_functions() {
        let mut tm = TermManager::new();
        let c = tm.var("count", Sort::BitVec(8));
        let inc = tm.var("inc", Sort::BitVec(8));
        let next = tm.bv_add(c, inc);
        let five = tm.bv_const(5, 8);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(&tm, c, Some(five), next);
        ts.add_input(&tm, inc);
        let frames = vec![
            Assignment::from_iter([(inc, 1u64)]),
            Assignment::from_iter([(inc, 2u64)]),
            Assignment::from_iter([(inc, 3u64)]),
        ];
        let trace = ts.simulate(&tm, &frames);
        let values: Vec<u64> = trace.iter().map(|s| s[&c]).collect();
        assert_eq!(values, vec![5, 6, 8, 11]);
    }

    #[test]
    fn cone_of_influence_keeps_bad_constraint_and_transitive_deps() {
        let mut tm = TermManager::new();
        let a = tm.var("a", Sort::BitVec(4)); // in bad
        let b = tm.var("b", Sort::BitVec(4)); // feeds a
        let c = tm.var("c", Sort::BitVec(4)); // in a constraint
        let d = tm.var("d", Sort::BitVec(4)); // dead
        let e = tm.var("e", Sort::BitVec(4)); // feeds only d
        let mut ts = TransitionSystem::new();
        let next_a = tm.bv_add(a, b);
        ts.add_state_var(&tm, a, None, next_a);
        ts.add_state_var(&tm, b, None, b);
        ts.add_state_var(&tm, c, None, c);
        let next_d = tm.bv_add(d, e);
        ts.add_state_var(&tm, d, None, next_d);
        ts.add_state_var(&tm, e, None, e);
        let three = tm.bv_const(3, 4);
        let bad = tm.eq(a, three);
        ts.add_bad(bad);
        let zero = tm.zero(4);
        let constraint = tm.neq(c, zero);
        ts.add_constraint(constraint);
        let coi = ts.cone_of_influence(&tm);
        assert!(coi.keeps(a), "bad-state variable is kept");
        assert!(coi.keeps(b), "transitive dependency of a kept update");
        assert!(coi.keeps(c), "constraint variables are roots");
        assert!(!coi.keeps(d), "unobserved variable is dropped");
        assert!(!coi.keeps(e), "variable feeding only dropped updates");
        assert_eq!(coi.dropped, 2);
        // Distance layers: roots at 0, feeders one step out.
        assert_eq!(coi.dist(a), Some(0));
        assert_eq!(coi.dist(b), Some(1));
        assert_eq!(coi.dist(c), Some(0));
        assert_eq!(coi.dist(d), None);
        assert_eq!(coi.dist(e), None);
        // Per-depth refinement: with no remaining depth only the roots'
        // updates matter, one step out `b` joins them.
        assert!(coi.keeps_within(a, 0));
        assert!(!coi.keeps_within(b, 0));
        assert!(coi.keeps_within(b, 1));
        assert!(!coi.keeps_within(d, 99));
        assert_eq!(coi.dropped_within(0), 3);
        assert_eq!(coi.dropped_within(1), 2);
        assert_eq!(coi.dropped_within(7), 2);
    }

    #[test]
    #[should_panic(expected = "state variables must be variable terms")]
    fn non_variable_state_panics() {
        let mut tm = TermManager::new();
        let c = tm.bv_const(3, 4);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(&tm, c, None, c);
    }

    #[test]
    #[should_panic(expected = "next-state sort mismatch")]
    fn sort_mismatch_panics() {
        let mut tm = TermManager::new();
        let c = tm.var("c", Sort::BitVec(4));
        let n = tm.zero(8);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(&tm, c, None, n);
    }
}
