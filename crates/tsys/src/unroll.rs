//! Frame unrolling of transition systems.

use sepe_smt::{subst, FastMap, TermId, TermManager};

use crate::ts::{CoiInfo, TransitionSystem};

/// Unrolls a [`TransitionSystem`] into per-frame copies of its variables.
///
/// Frame `k` has one fresh variable per state variable and per input, named
/// `<original>@<k>`.  The unroller produces the standard BMC constraints:
///
/// * `init`: frame-0 state variables equal their initial values,
/// * `transition(k)`: frame-`k+1` state variables equal the next-state
///   functions evaluated over frame `k`,
/// * `constraint(k)` / `bad(k)`: the invariant constraints and bad-state
///   properties instantiated at frame `k`.
///
/// Every frame keeps its own substitution cache, so the decode/ALU logic
/// shared by the next-state functions is instantiated once per frame, not
/// once per state variable.
#[derive(Debug)]
pub struct Unroller<'a> {
    ts: &'a TransitionSystem,
    frames: Vec<Frame>,
}

/// One unrolled frame.
#[derive(Debug)]
struct Frame {
    /// Original state var / input → its frame copy.
    map: FastMap<TermId, TermId>,
    /// Original term → its instance at this frame.  The map never changes
    /// once the frame exists, so entries stay valid for the unroller's
    /// lifetime.
    cache: FastMap<TermId, TermId>,
}

impl<'a> Unroller<'a> {
    /// Creates an unroller for `ts`.
    pub fn new(ts: &'a TransitionSystem) -> Self {
        Unroller {
            ts,
            frames: Vec::new(),
        }
    }

    /// Ensures frame `k` variables exist and returns the substitution map of
    /// that frame.
    ///
    /// The `expect`s below restate an invariant enforced at registration
    /// time: [`TransitionSystem::add_state_var`] and
    /// [`TransitionSystem::add_input`] reject non-variable terms, so every
    /// state var and input reaching here has a name.
    pub fn frame_map(&mut self, tm: &mut TermManager, k: usize) -> &FastMap<TermId, TermId> {
        while self.frames.len() <= k {
            let frame = self.frames.len();
            let mut map = FastMap::default();
            for sv in self.ts.state_vars() {
                let name = tm
                    .var_name(sv.current)
                    .expect("state vars are variables")
                    .to_string();
                let fresh = tm.var(&format!("{name}@{frame}"), tm.sort(sv.current));
                map.insert(sv.current, fresh);
            }
            for &input in self.ts.inputs() {
                let name = tm
                    .var_name(input)
                    .expect("inputs are variables")
                    .to_string();
                let fresh = tm.var(&format!("{name}@{frame}"), tm.sort(input));
                map.insert(input, fresh);
            }
            self.frames.push(Frame {
                map,
                cache: FastMap::default(),
            });
        }
        &self.frames[k].map
    }

    /// The frame-`k` copy of an original state/input variable.
    pub fn var_at(&mut self, tm: &mut TermManager, original: TermId, k: usize) -> TermId {
        self.frame_map(tm, k)[&original]
    }

    /// Instantiates an arbitrary term (over current-state vars and inputs) at
    /// frame `k`.
    pub fn term_at(&mut self, tm: &mut TermManager, term: TermId, k: usize) -> TermId {
        self.frame_map(tm, k);
        let Frame { map, cache } = &mut self.frames[k];
        subst::substitute(tm, term, map, cache)
    }

    /// The conjunction of frame-0 initial-state equalities.
    pub fn init(&mut self, tm: &mut TermManager) -> TermId {
        let mut conj = tm.tru();
        let state_vars: Vec<_> = self.ts.state_vars().to_vec();
        for sv in state_vars {
            if let Some(init) = sv.init {
                let lhs = self.var_at(tm, sv.current, 0);
                let rhs = self.term_at(tm, init, 0);
                let eq = tm.eq(lhs, rhs);
                conj = tm.and(conj, eq);
            }
        }
        conj
    }

    /// The transition relation between frame `k` and frame `k + 1`.
    pub fn transition(&mut self, tm: &mut TermManager, k: usize) -> TermId {
        self.transition_filtered(tm, k, |_| true)
    }

    /// The transition relation between frame `k` and frame `k + 1`,
    /// restricted to the state variables that can still reach a bad state
    /// or constraint within `remaining` further transition steps: the
    /// next-state update of a variable whose cone distance exceeds the
    /// remaining depth is dropped before anything is encoded (see
    /// [`TransitionSystem::cone_of_influence`]) — for the last frame of a
    /// bounded check (`remaining == 0`) only the updates of variables
    /// occurring directly in the bad states/constraints survive.
    pub fn transition_within(
        &mut self,
        tm: &mut TermManager,
        k: usize,
        coi: &CoiInfo,
        remaining: usize,
    ) -> TermId {
        self.transition_filtered(tm, k, |v| coi.keeps_within(v, remaining))
    }

    /// The *delta* of [`transition_within`](Self::transition_within) when
    /// the remaining depth of an already-asserted frame grows from
    /// `prev_remaining` to `remaining` (the bound was extended): only the
    /// updates newly inside the per-depth cone, so an incremental solver
    /// can top an old frame up without re-asserting what it already has.
    pub fn transition_refinement(
        &mut self,
        tm: &mut TermManager,
        k: usize,
        coi: &CoiInfo,
        prev_remaining: usize,
        remaining: usize,
    ) -> TermId {
        debug_assert!(prev_remaining < remaining);
        self.transition_filtered(tm, k, |v| {
            !coi.keeps_within(v, prev_remaining) && coi.keeps_within(v, remaining)
        })
    }

    fn transition_filtered(
        &mut self,
        tm: &mut TermManager,
        k: usize,
        keep: impl Fn(TermId) -> bool,
    ) -> TermId {
        let mut conj = tm.tru();
        let state_vars: Vec<_> = self.ts.state_vars().to_vec();
        for sv in state_vars {
            if !keep(sv.current) {
                continue;
            }
            let lhs = self.var_at(tm, sv.current, k + 1);
            let rhs = self.term_at(tm, sv.next, k);
            let eq = tm.eq(lhs, rhs);
            conj = tm.and(conj, eq);
        }
        conj
    }

    /// The conjunction of invariant constraints at frame `k`.
    pub fn constraints_at(&mut self, tm: &mut TermManager, k: usize) -> TermId {
        let cs: Vec<_> = self.ts.constraints().to_vec();
        let mut conj = tm.tru();
        for c in cs {
            let at = self.term_at(tm, c, k);
            conj = tm.and(conj, at);
        }
        conj
    }

    /// The disjunction of bad-state properties at frame `k`.
    pub fn bad_at(&mut self, tm: &mut TermManager, k: usize) -> TermId {
        let bads: Vec<_> = self.ts.bad_states().to_vec();
        let mut disj = tm.fls();
        for b in bads {
            let at = self.term_at(tm, b, k);
            disj = tm.or(disj, at);
        }
        disj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_smt::{IncrementalSolver, SatResult, Sort};

    #[test]
    fn frames_get_distinct_variables() {
        let mut tm = TermManager::new();
        let c = tm.var("c", Sort::BitVec(4));
        let one = tm.one(4);
        let next = tm.bv_add(c, one);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(&tm, c, None, next);
        let mut unroller = Unroller::new(&ts);
        let c0 = unroller.var_at(&mut tm, c, 0);
        let c1 = unroller.var_at(&mut tm, c, 1);
        assert_ne!(c0, c1);
        assert_eq!(tm.var_name(c0), Some("c@0"));
        assert_eq!(tm.var_name(c1), Some("c@1"));
        // asking again returns the same frame variable
        assert_eq!(unroller.var_at(&mut tm, c, 0), c0);
    }

    #[test]
    fn transition_encodes_the_next_function() {
        let mut tm = TermManager::new();
        let c = tm.var("c", Sort::BitVec(8));
        let one = tm.one(8);
        let next = tm.bv_add(c, one);
        let zero = tm.zero(8);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(&tm, c, Some(zero), next);
        let mut unroller = Unroller::new(&ts);
        let init = unroller.init(&mut tm);
        let t01 = unroller.transition(&mut tm, 0);
        let t12 = unroller.transition(&mut tm, 1);
        let c2 = unroller.var_at(&mut tm, c, 2);
        let two = tm.bv_const(2, 8);
        let goal = tm.neq(c2, two);
        let mut solver = IncrementalSolver::new();
        solver.assert_all(&mut tm, &[init, t01, t12, goal]);
        // after two increments from 0 the counter must be 2, so asking for a
        // different value is unsatisfiable
        assert_eq!(solver.check(&mut tm), SatResult::Unsat);
    }
}
