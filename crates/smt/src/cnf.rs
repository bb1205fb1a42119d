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

/// A CNF formula under construction.
///
/// The bit-blaster appends clauses here; the SAT solver consumes them.
/// Clauses are stored flat: every literal in one buffer, plus the end
/// offset of each clause, so adding a clause allocates nothing once the
/// buffers have grown and [`drain_clauses`](Self::drain_clauses) hands them
/// over as slices.
#[derive(Debug, Default, Clone)]
pub struct Cnf {
    num_vars: u32,
    lits: Vec<Lit>,
    /// One past the last literal of each clause, in `lits`.
    ends: Vec<usize>,
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
        self.ends.len()
    }

    /// Adds a clause.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        self.lits.extend(lits);
        self.ends.push(self.lits.len());
    }

    /// Iterates over the clauses, in the order they were added.
    pub fn clauses(&self) -> impl Iterator<Item = &[Lit]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(self.ends.iter().copied())
            .map(|(start, end)| &self.lits[start..end])
    }

    /// Hands every clause to `f` in the order they were added, then
    /// empties the formula, keeping the variable counter and the buffers'
    /// capacity.
    ///
    /// This is the hand-off primitive of the incremental pipeline: the
    /// bit-blaster keeps appending to the same `Cnf` while the SAT solver
    /// periodically takes everything new.
    pub fn drain_clauses(&mut self, mut f: impl FnMut(&[Lit])) {
        let mut start = 0;
        for &end in &self.ends {
            f(&self.lits[start..end]);
            start = end;
        }
        self.lits.clear();
        self.ends.clear();
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

    #[test]
    fn drain_hands_over_clauses_in_order_and_keeps_vars_and_capacity() {
        let mut cnf = Cnf::new();
        let v: Vec<Var> = (0..4).map(|_| cnf.fresh_var()).collect();
        let first = vec![
            vec![Lit::neg(v[2]), Lit::pos(v[0])],
            vec![Lit::pos(v[3])],
            vec![],
            vec![Lit::pos(v[1]), Lit::neg(v[1]), Lit::pos(v[1])],
        ];
        for clause in &first {
            cnf.add_clause(clause.iter().copied());
        }
        assert!(cnf.clauses().eq(first.iter().map(Vec::as_slice)));
        let mut drained = Vec::new();
        cnf.drain_clauses(|clause| drained.push(clause.to_vec()));
        assert_eq!(drained, first, "clause and literal order survive");
        assert_eq!((cnf.num_clauses(), cnf.clauses().count()), (0, 0));
        assert_eq!(cnf.num_vars(), 4, "the variable counter is kept");
        assert_eq!(cnf.fresh_var(), Var(4));

        let capacity = (cnf.lits.capacity(), cnf.ends.capacity());
        assert!(capacity.0 >= 6 && capacity.1 >= 4);
        let second = vec![
            vec![Lit::pos(Var(4)), Lit::neg(v[0])],
            vec![Lit::neg(Var(4))],
        ];
        for clause in &second {
            cnf.add_clause(clause.iter().copied());
        }
        drained.clear();
        cnf.drain_clauses(|clause| drained.push(clause.to_vec()));
        assert_eq!(drained, second);
        assert_eq!(
            (cnf.lits.capacity(), cnf.ends.capacity()),
            capacity,
            "the second drain reuses the first one's buffers"
        );
    }
}
