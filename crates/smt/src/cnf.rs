//! Propositional literals, clauses and CNF formulas.

use std::fmt;
use std::ops::Not;

/// A propositional variable (1-based internally, dense `index()` for arrays).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// Dense 0-based index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable with a polarity.
///
/// Encoded as `var * 2 + negated`, giving cheap array indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal for `var`, positive when `positive` is true.
    pub fn new(var: Var, positive: bool) -> Self {
        Lit(var.0 * 2 + u32::from(!positive))
    }

    /// Creates the positive literal of a variable.
    pub fn pos(var: Var) -> Self {
        Lit::new(var, true)
    }

    /// Creates the negative literal of a variable.
    pub fn neg(var: Var) -> Self {
        Lit::new(var, false)
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 / 2)
    }

    /// Whether the literal is positive.
    pub fn is_positive(self) -> bool {
        self.0.is_multiple_of(2)
    }

    /// Dense 0-based index usable for watch lists (2 entries per variable).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from its dense index.
    pub fn from_index(idx: usize) -> Self {
        Lit(u32::try_from(idx).expect("literal index overflow"))
    }

    /// The raw `var * 2 + negated` code (the SAT core's clause arena stores
    /// literals as these words).
    pub(crate) fn code(self) -> u32 {
        self.0
    }

    /// Inverse of [`code`](Self::code).
    pub(crate) fn from_code(code: u32) -> Self {
        Lit(code)
    }
}

impl Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var().0 + 1)
        } else {
            write!(f, "-{}", self.var().0 + 1)
        }
    }
}

/// A disjunction of literals.
pub type Clause = Vec<Lit>;

/// A CNF formula under construction.
///
/// The bit-blaster appends clauses here; the SAT solver consumes them.
#[derive(Debug, Default, Clone)]
pub struct Cnf {
    num_vars: u32,
    clauses: Vec<Clause>,
}

impl Cnf {
    /// Creates an empty formula.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh variable.
    pub fn fresh_var(&mut self) -> Var {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Adds a clause.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        self.clauses.push(lits.into_iter().collect());
    }

    /// Iterates over the clauses.
    pub fn clauses(&self) -> impl Iterator<Item = &Clause> {
        self.clauses.iter()
    }

    /// Consumes the formula, returning its clauses.
    pub fn into_clauses(self) -> Vec<Clause> {
        self.clauses
    }

    /// Drains the accumulated clauses, keeping the variable counter.
    ///
    /// This is the hand-off primitive of the incremental pipeline: the
    /// bit-blaster keeps appending to the same `Cnf` while the SAT solver
    /// periodically takes ownership of everything new.
    pub fn take_clauses(&mut self) -> Vec<Clause> {
        std::mem::take(&mut self.clauses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding_roundtrips() {
        let v = Var(7);
        let p = Lit::pos(v);
        let n = Lit::neg(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(!p, n);
        assert_eq!(!!p, p);
        assert_eq!(Lit::from_index(p.index()), p);
    }

    #[test]
    fn display_uses_dimacs_convention() {
        let v = Var(0);
        assert_eq!(Lit::pos(v).to_string(), "1");
        assert_eq!(Lit::neg(v).to_string(), "-1");
    }

    #[test]
    fn cnf_accumulates_clauses_and_vars() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh_var();
        let b = cnf.fresh_var();
        cnf.add_clause([Lit::pos(a), Lit::neg(b)]);
        cnf.add_clause([Lit::neg(a)]);
        assert_eq!(cnf.num_vars(), 2);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.clauses().next().unwrap().len(), 2);
    }
}
