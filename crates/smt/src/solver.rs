//! What an SMT check answers — [`SatResult`] and [`Model`] — and the
//! [`is_valid`] helper.  The solver itself is
//! [`IncrementalSolver`].

use crate::cnf::Lit;
use crate::concrete::{eval, Assignment};
use crate::fast::FastMap;
use crate::incremental::IncrementalSolver;
use crate::sat::SatSolver;
use crate::term::{TermId, TermManager};

/// Result of an SMT check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// The conjunction of assertions is satisfiable.
    Sat,
    /// The conjunction of assertions is unsatisfiable.
    Unsat,
    /// The resource budget was exhausted.
    Unknown,
}

/// A model: values for the variables of the asserted formulas.
#[derive(Debug, Clone, Default)]
pub struct Model {
    values: Assignment,
}

impl Model {
    /// Value of a variable term (0 for variables absent from the model).
    pub fn value(&self, var: TermId) -> u64 {
        self.values.get(&var).copied().unwrap_or(0)
    }

    /// The raw variable assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.values
    }

    /// Mutable access to the assignment, for the rewriter's model
    /// completion (restoring the values of variables it eliminated).
    pub(crate) fn assignment_mut(&mut self) -> &mut Assignment {
        &mut self.values
    }

    /// Evaluates an arbitrary term under this model.
    pub fn eval(&self, tm: &TermManager, t: TermId) -> u64 {
        eval(tm, t, &self.values)
    }

    /// Reassembles variable values from a satisfying SAT assignment using
    /// the bit-blaster's per-variable literal encodings (LSB first).
    pub(crate) fn read_back(encodings: &FastMap<TermId, Vec<Lit>>, sat: &SatSolver) -> Model {
        let mut values = Assignment::default();
        for (&term, bits) in encodings {
            let mut v = 0u64;
            for (i, &l) in bits.iter().enumerate() {
                if sat.value_of(l.var()) == l.is_positive() {
                    v |= 1u64 << i;
                }
            }
            values.insert(term, v);
        }
        Model { values }
    }
}

/// Convenience helper: checks whether `formula` is valid (true for all
/// assignments) by asserting its negation on a fresh solver.
pub fn is_valid(tm: &mut TermManager, formula: TermId, conflict_limit: Option<u64>) -> SatResult {
    let negated = tm.not(formula);
    let mut solver = IncrementalSolver::new();
    solver.set_conflict_limit(conflict_limit);
    solver.assert_term(tm, negated);
    match solver.check(tm) {
        SatResult::Sat => SatResult::Unsat, // counterexample exists => not valid
        SatResult::Unsat => SatResult::Sat, // negation unsatisfiable => valid
        SatResult::Unknown => SatResult::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    #[test]
    fn validity_helper_proves_commutativity() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(10));
        let y = tm.var("y", Sort::BitVec(10));
        let l = tm.bv_add(x, y);
        let r = tm.bv_add(y, x);
        let f = tm.eq(l, r);
        assert_eq!(is_valid(&mut tm, f, None), SatResult::Sat);
        // x + y == x is not valid
        let g = tm.eq(l, x);
        assert_eq!(is_valid(&mut tm, g, None), SatResult::Unsat);
    }
}
