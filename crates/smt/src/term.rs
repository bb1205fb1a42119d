//! Hash-consed term graph for quantifier-free bit-vector formulas.
//!
//! [`TermManager`] owns every term.  Terms are referenced by the cheap,
//! copyable handle [`TermId`].  Construction goes through the `mk_*` /
//! operator methods on the manager, which apply local simplifications
//! (constant folding, neutral and absorbing elements, double negation, …)
//! before interning, so structurally equal and trivially equivalent terms
//! share a single node.

use std::fmt;

use crate::fast::FastMap;
use crate::sort::{mask, sign_extend, Sort};

/// Handle to a term inside a [`TermManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// Raw index of the term inside its manager (useful for dense maps).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A term node: its operator and its sort.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Term {
    /// The operator and operands of this node.
    pub op: Op,
    /// The sort of the node.
    pub sort: Sort,
}

/// Term operators.
///
/// Bit-vector constants store their value zero-extended to 64 bits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// Boolean constant.
    BoolConst(bool),
    /// Bit-vector constant (`value` is already masked to the sort width).
    BvConst { value: u64, width: u32 },
    /// Free variable.
    Var { name: String },
    /// Boolean negation.
    Not(TermId),
    /// Boolean conjunction.
    And(TermId, TermId),
    /// Boolean disjunction.
    Or(TermId, TermId),
    /// Boolean exclusive or.
    Xor(TermId, TermId),
    /// Boolean implication.
    Implies(TermId, TermId),
    /// If-then-else; the branches may be boolean or bit-vector.
    Ite(TermId, TermId, TermId),
    /// Equality over booleans or bit-vectors (result is boolean).
    Eq(TermId, TermId),
    /// Bit-wise complement.
    BvNot(TermId),
    /// Two's complement negation.
    BvNeg(TermId),
    /// Bit-wise and.
    BvAnd(TermId, TermId),
    /// Bit-wise or.
    BvOr(TermId, TermId),
    /// Bit-wise xor.
    BvXor(TermId, TermId),
    /// Addition modulo 2^w.
    BvAdd(TermId, TermId),
    /// Subtraction modulo 2^w.
    BvSub(TermId, TermId),
    /// Multiplication modulo 2^w.
    BvMul(TermId, TermId),
    /// Unsigned division (division by zero yields all-ones, as in SMT-LIB).
    BvUdiv(TermId, TermId),
    /// Unsigned remainder (remainder by zero yields the dividend).
    BvUrem(TermId, TermId),
    /// Logical shift left (shift amount is the full second operand).
    BvShl(TermId, TermId),
    /// Logical shift right.
    BvLshr(TermId, TermId),
    /// Arithmetic shift right.
    BvAshr(TermId, TermId),
    /// Unsigned less-than (boolean result).
    BvUlt(TermId, TermId),
    /// Unsigned less-or-equal.
    BvUle(TermId, TermId),
    /// Signed less-than.
    BvSlt(TermId, TermId),
    /// Signed less-or-equal.
    BvSle(TermId, TermId),
    /// Concatenation; the first operand occupies the high bits.
    BvConcat(TermId, TermId),
    /// Bit extraction, inclusive bounds, `hi >= lo`.
    BvExtract { hi: u32, lo: u32, arg: TermId },
    /// Zero extension by `by` bits.
    BvZeroExt { by: u32, arg: TermId },
    /// Sign extension by `by` bits.
    BvSignExt { by: u32, arg: TermId },
}

impl Op {
    /// The operand term ids of this operator, in order.
    pub fn children(&self) -> Vec<TermId> {
        match self {
            Op::BoolConst(_) | Op::BvConst { .. } | Op::Var { .. } => vec![],
            Op::Not(a) | Op::BvNot(a) | Op::BvNeg(a) => vec![*a],
            Op::BvExtract { arg, .. } | Op::BvZeroExt { arg, .. } | Op::BvSignExt { arg, .. } => {
                vec![*arg]
            }
            Op::And(a, b)
            | Op::Or(a, b)
            | Op::Xor(a, b)
            | Op::Implies(a, b)
            | Op::Eq(a, b)
            | Op::BvAnd(a, b)
            | Op::BvOr(a, b)
            | Op::BvXor(a, b)
            | Op::BvAdd(a, b)
            | Op::BvSub(a, b)
            | Op::BvMul(a, b)
            | Op::BvUdiv(a, b)
            | Op::BvUrem(a, b)
            | Op::BvShl(a, b)
            | Op::BvLshr(a, b)
            | Op::BvAshr(a, b)
            | Op::BvUlt(a, b)
            | Op::BvUle(a, b)
            | Op::BvSlt(a, b)
            | Op::BvSle(a, b)
            | Op::BvConcat(a, b) => vec![*a, *b],
            Op::Ite(c, t, e) => vec![*c, *t, *e],
        }
    }

    /// Whether this node is a leaf (constant or variable).
    pub fn is_leaf(&self) -> bool {
        matches!(self, Op::BoolConst(_) | Op::BvConst { .. } | Op::Var { .. })
    }
}

/// Owner and factory of all terms.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Default, Clone)]
pub struct TermManager {
    terms: Vec<Term>,
    interned: FastMap<Term, TermId>,
    vars_by_name: FastMap<String, TermId>,
    fresh_counter: u64,
}

impl TermManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct term nodes created so far.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether no terms have been created.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns the term node behind an id.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// Returns the sort of a term.
    pub fn sort(&self, id: TermId) -> Sort {
        self.terms[id.index()].sort
    }

    /// Returns the bit-width of a bit-vector term.
    ///
    /// # Panics
    ///
    /// Panics if the term is boolean.
    pub fn width(&self, id: TermId) -> u32 {
        self.sort(id).expect_width()
    }

    fn intern(&mut self, term: Term) -> TermId {
        if let Some(&id) = self.interned.get(&term) {
            return id;
        }
        let id = TermId(u32::try_from(self.terms.len()).expect("term table overflow"));
        self.terms.push(term.clone());
        self.interned.insert(term, id);
        id
    }

    /// Returns the constant value of a term if it is a boolean or bit-vector
    /// constant (booleans map to 0/1).
    pub fn const_value(&self, id: TermId) -> Option<u64> {
        match &self.term(id).op {
            Op::BoolConst(b) => Some(u64::from(*b)),
            Op::BvConst { value, .. } => Some(*value),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// The boolean constant `true`.
    pub fn tru(&mut self) -> TermId {
        self.intern(Term {
            op: Op::BoolConst(true),
            sort: Sort::Bool,
        })
    }

    /// The boolean constant `false`.
    pub fn fls(&mut self) -> TermId {
        self.intern(Term {
            op: Op::BoolConst(false),
            sort: Sort::Bool,
        })
    }

    /// A boolean constant.
    pub fn bool_const(&mut self, b: bool) -> TermId {
        if b {
            self.tru()
        } else {
            self.fls()
        }
    }

    /// A bit-vector constant of the given width.  The value is masked.
    pub fn bv_const(&mut self, value: u64, width: u32) -> TermId {
        assert!(
            (1..=64).contains(&width),
            "unsupported bit-vector width {width}"
        );
        let value = mask(value, width);
        self.intern(Term {
            op: Op::BvConst { value, width },
            sort: Sort::BitVec(width),
        })
    }

    /// The all-zero bit-vector of the given width.
    pub fn zero(&mut self, width: u32) -> TermId {
        self.bv_const(0, width)
    }

    /// The bit-vector constant 1 of the given width.
    pub fn one(&mut self, width: u32) -> TermId {
        self.bv_const(1, width)
    }

    /// The all-ones bit-vector of the given width.
    pub fn ones(&mut self, width: u32) -> TermId {
        self.bv_const(u64::MAX, width)
    }

    /// A named free variable.  Re-using a name returns the same term; the
    /// sort must match.
    ///
    /// # Panics
    ///
    /// Panics if the name was previously used with a different sort.
    pub fn var(&mut self, name: &str, sort: Sort) -> TermId {
        if let Some(&id) = self.vars_by_name.get(name) {
            assert_eq!(
                self.sort(id),
                sort,
                "variable {name} redeclared with a different sort"
            );
            return id;
        }
        let id = self.intern(Term {
            op: Op::Var {
                name: name.to_string(),
            },
            sort,
        });
        self.vars_by_name.insert(name.to_string(), id);
        id
    }

    /// A fresh variable whose name starts with `prefix` and is guaranteed not
    /// to collide with previously created variables.
    pub fn fresh_var(&mut self, prefix: &str, sort: Sort) -> TermId {
        loop {
            let name = format!("{prefix}!{}", self.fresh_counter);
            self.fresh_counter += 1;
            if !self.vars_by_name.contains_key(&name) {
                return self.var(&name, sort);
            }
        }
    }

    /// Looks up a variable by name.
    pub fn find_var(&self, name: &str) -> Option<TermId> {
        self.vars_by_name.get(name).copied()
    }

    /// Name of a variable term.
    pub fn var_name(&self, id: TermId) -> Option<&str> {
        match &self.term(id).op {
            Op::Var { name } => Some(name.as_str()),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Boolean connectives
    // ------------------------------------------------------------------

    /// Boolean negation.
    pub fn not(&mut self, a: TermId) -> TermId {
        debug_assert!(self.sort(a).is_bool());
        match self.term(a).op.clone() {
            Op::BoolConst(b) => self.bool_const(!b),
            Op::Not(inner) => inner,
            _ => self.intern(Term {
                op: Op::Not(a),
                sort: Sort::Bool,
            }),
        }
    }

    /// Boolean conjunction.
    pub fn and(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert!(self.sort(a).is_bool() && self.sort(b).is_bool());
        if a == b {
            return a;
        }
        match (self.const_value(a), self.const_value(b)) {
            (Some(0), _) | (_, Some(0)) => self.fls(),
            (Some(1), _) => b,
            (_, Some(1)) => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Term {
                    op: Op::And(a, b),
                    sort: Sort::Bool,
                })
            }
        }
    }

    /// Boolean disjunction.
    pub fn or(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert!(self.sort(a).is_bool() && self.sort(b).is_bool());
        if a == b {
            return a;
        }
        match (self.const_value(a), self.const_value(b)) {
            (Some(1), _) | (_, Some(1)) => self.tru(),
            (Some(0), _) => b,
            (_, Some(0)) => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Term {
                    op: Op::Or(a, b),
                    sort: Sort::Bool,
                })
            }
        }
    }

    /// Boolean exclusive or.
    pub fn xor(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert!(self.sort(a).is_bool() && self.sort(b).is_bool());
        if a == b {
            return self.fls();
        }
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.bool_const((x ^ y) != 0),
            (Some(0), _) => b,
            (_, Some(0)) => a,
            (Some(1), _) => self.not(b),
            (_, Some(1)) => self.not(a),
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Term {
                    op: Op::Xor(a, b),
                    sort: Sort::Bool,
                })
            }
        }
    }

    /// Boolean implication `a ⇒ b`.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert!(self.sort(a).is_bool() && self.sort(b).is_bool());
        if a == b {
            return self.tru();
        }
        match (self.const_value(a), self.const_value(b)) {
            (Some(0), _) | (_, Some(1)) => self.tru(),
            (Some(1), _) => b,
            (_, Some(0)) => self.not(a),
            _ => self.intern(Term {
                op: Op::Implies(a, b),
                sort: Sort::Bool,
            }),
        }
    }

    /// Conjunction of an arbitrary number of booleans (empty ⇒ `true`).
    pub fn and_many<I: IntoIterator<Item = TermId>>(&mut self, items: I) -> TermId {
        let mut acc = self.tru();
        for t in items {
            acc = self.and(acc, t);
        }
        acc
    }

    /// Disjunction of an arbitrary number of booleans (empty ⇒ `false`).
    pub fn or_many<I: IntoIterator<Item = TermId>>(&mut self, items: I) -> TermId {
        let mut acc = self.fls();
        for t in items {
            acc = self.or(acc, t);
        }
        acc
    }

    /// Equality (boolean or bit-vector operands of equal sort).
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        assert_eq!(self.sort(a), self.sort(b), "eq of differently sorted terms");
        if a == b {
            return self.tru();
        }
        if let (Some(x), Some(y)) = (self.const_value(a), self.const_value(b)) {
            return self.bool_const(x == y);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Term {
            op: Op::Eq(a, b),
            sort: Sort::Bool,
        })
    }

    /// Disequality.
    pub fn neq(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// If-then-else over booleans or bit-vectors.
    pub fn ite(&mut self, cond: TermId, then: TermId, els: TermId) -> TermId {
        debug_assert!(self.sort(cond).is_bool());
        assert_eq!(
            self.sort(then),
            self.sort(els),
            "ite branches must share a sort"
        );
        if then == els {
            return then;
        }
        match self.const_value(cond) {
            Some(1) => then,
            Some(0) => els,
            _ => {
                let sort = self.sort(then);
                self.intern(Term {
                    op: Op::Ite(cond, then, els),
                    sort,
                })
            }
        }
    }

    // ------------------------------------------------------------------
    // Bit-vector operations
    // ------------------------------------------------------------------

    fn bv_binop_widths(&self, a: TermId, b: TermId) -> u32 {
        let wa = self.width(a);
        let wb = self.width(b);
        assert_eq!(wa, wb, "bit-vector operands must have equal width");
        wa
    }

    /// Bit-wise complement.
    pub fn bv_not(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        if let Some(v) = self.const_value(a) {
            return self.bv_const(!v, w);
        }
        if let Op::BvNot(inner) = self.term(a).op {
            return inner;
        }
        self.intern(Term {
            op: Op::BvNot(a),
            sort: Sort::BitVec(w),
        })
    }

    /// Two's complement negation.
    pub fn bv_neg(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        if let Some(v) = self.const_value(a) {
            return self.bv_const(v.wrapping_neg(), w);
        }
        self.intern(Term {
            op: Op::BvNeg(a),
            sort: Sort::BitVec(w),
        })
    }

    /// Bit-wise and.
    pub fn bv_and(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(a, b);
        if a == b {
            return a;
        }
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.bv_const(x & y, w),
            (Some(0), _) | (_, Some(0)) => self.zero(w),
            (Some(x), _) if x == mask(u64::MAX, w) => b,
            (_, Some(y)) if y == mask(u64::MAX, w) => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Term {
                    op: Op::BvAnd(a, b),
                    sort: Sort::BitVec(w),
                })
            }
        }
    }

    /// Bit-wise or.
    pub fn bv_or(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(a, b);
        if a == b {
            return a;
        }
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.bv_const(x | y, w),
            (Some(0), _) => b,
            (_, Some(0)) => a,
            (Some(x), _) if x == mask(u64::MAX, w) => self.ones(w),
            (_, Some(y)) if y == mask(u64::MAX, w) => self.ones(w),
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Term {
                    op: Op::BvOr(a, b),
                    sort: Sort::BitVec(w),
                })
            }
        }
    }

    /// Bit-wise xor.
    pub fn bv_xor(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(a, b);
        if a == b {
            return self.zero(w);
        }
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.bv_const(x ^ y, w),
            (Some(0), _) => b,
            (_, Some(0)) => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Term {
                    op: Op::BvXor(a, b),
                    sort: Sort::BitVec(w),
                })
            }
        }
    }

    /// Addition modulo 2^w.
    pub fn bv_add(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.bv_const(x.wrapping_add(y), w),
            (Some(0), _) => b,
            (_, Some(0)) => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Term {
                    op: Op::BvAdd(a, b),
                    sort: Sort::BitVec(w),
                })
            }
        }
    }

    /// Subtraction modulo 2^w.
    pub fn bv_sub(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(a, b);
        if a == b {
            return self.zero(w);
        }
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.bv_const(x.wrapping_sub(y), w),
            (_, Some(0)) => a,
            _ => self.intern(Term {
                op: Op::BvSub(a, b),
                sort: Sort::BitVec(w),
            }),
        }
    }

    /// Multiplication modulo 2^w.
    pub fn bv_mul(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => self.bv_const(x.wrapping_mul(y), w),
            (Some(0), _) | (_, Some(0)) => self.zero(w),
            (Some(1), _) => b,
            (_, Some(1)) => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Term {
                    op: Op::BvMul(a, b),
                    sort: Sort::BitVec(w),
                })
            }
        }
    }

    /// Unsigned division (x / 0 = all ones, as in SMT-LIB).
    pub fn bv_udiv(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(a, b);
        if let (Some(x), Some(y)) = (self.const_value(a), self.const_value(b)) {
            let r = x.checked_div(y).unwrap_or(mask(u64::MAX, w));
            return self.bv_const(r, w);
        }
        self.intern(Term {
            op: Op::BvUdiv(a, b),
            sort: Sort::BitVec(w),
        })
    }

    /// Unsigned remainder (x % 0 = x, as in SMT-LIB).
    pub fn bv_urem(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(a, b);
        if let (Some(x), Some(y)) = (self.const_value(a), self.const_value(b)) {
            let r = if y == 0 { x } else { x % y };
            return self.bv_const(r, w);
        }
        self.intern(Term {
            op: Op::BvUrem(a, b),
            sort: Sort::BitVec(w),
        })
    }

    fn shift_amount(&self, b: TermId, w: u32) -> Option<u64> {
        self.const_value(b).map(|v| v.min(u64::from(w)))
    }

    /// Logical shift left.  Shifts by `>= w` yield zero.
    pub fn bv_shl(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(a, b);
        if let (Some(x), Some(s)) = (self.const_value(a), self.shift_amount(b, w)) {
            let r = if s >= u64::from(w) { 0 } else { x << s };
            return self.bv_const(r, w);
        }
        if self.const_value(b) == Some(0) {
            return a;
        }
        self.intern(Term {
            op: Op::BvShl(a, b),
            sort: Sort::BitVec(w),
        })
    }

    /// Logical shift right.
    pub fn bv_lshr(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(a, b);
        if let (Some(x), Some(s)) = (self.const_value(a), self.shift_amount(b, w)) {
            let r = if s >= u64::from(w) {
                0
            } else {
                mask(x, w) >> s
            };
            return self.bv_const(r, w);
        }
        if self.const_value(b) == Some(0) {
            return a;
        }
        self.intern(Term {
            op: Op::BvLshr(a, b),
            sort: Sort::BitVec(w),
        })
    }

    /// Arithmetic shift right.
    pub fn bv_ashr(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(a, b);
        if let (Some(x), Some(s)) = (self.const_value(a), self.shift_amount(b, w)) {
            let sx = sign_extend(x, w) as i64;
            let s = s.min(63);
            return self.bv_const((sx >> s) as u64, w);
        }
        if self.const_value(b) == Some(0) {
            return a;
        }
        self.intern(Term {
            op: Op::BvAshr(a, b),
            sort: Sort::BitVec(w),
        })
    }

    /// Unsigned less-than.
    pub fn bv_ult(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop_widths(a, b);
        if a == b {
            return self.fls();
        }
        if let (Some(x), Some(y)) = (self.const_value(a), self.const_value(b)) {
            return self.bool_const(x < y);
        }
        self.intern(Term {
            op: Op::BvUlt(a, b),
            sort: Sort::Bool,
        })
    }

    /// Unsigned less-or-equal.
    pub fn bv_ule(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop_widths(a, b);
        if a == b {
            return self.tru();
        }
        if let (Some(x), Some(y)) = (self.const_value(a), self.const_value(b)) {
            return self.bool_const(x <= y);
        }
        self.intern(Term {
            op: Op::BvUle(a, b),
            sort: Sort::Bool,
        })
    }

    /// Signed less-than.
    pub fn bv_slt(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(a, b);
        if a == b {
            return self.fls();
        }
        if let (Some(x), Some(y)) = (self.const_value(a), self.const_value(b)) {
            return self.bool_const((sign_extend(x, w) as i64) < (sign_extend(y, w) as i64));
        }
        self.intern(Term {
            op: Op::BvSlt(a, b),
            sort: Sort::Bool,
        })
    }

    /// Signed less-or-equal.
    pub fn bv_sle(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(a, b);
        if a == b {
            return self.tru();
        }
        if let (Some(x), Some(y)) = (self.const_value(a), self.const_value(b)) {
            return self.bool_const((sign_extend(x, w) as i64) <= (sign_extend(y, w) as i64));
        }
        self.intern(Term {
            op: Op::BvSlt(b, a),
            sort: Sort::Bool,
        })
        .pipe_not(self)
    }

    /// Unsigned greater-than.
    pub fn bv_ugt(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_ult(b, a)
    }

    /// Concatenation; `hi` supplies the high bits.
    pub fn bv_concat(&mut self, hi: TermId, lo: TermId) -> TermId {
        let wh = self.width(hi);
        let wl = self.width(lo);
        let w = wh + wl;
        assert!(w <= 64, "concatenation exceeds 64 bits");
        if let (Some(x), Some(y)) = (self.const_value(hi), self.const_value(lo)) {
            return self.bv_const((x << wl) | y, w);
        }
        self.intern(Term {
            op: Op::BvConcat(hi, lo),
            sort: Sort::BitVec(w),
        })
    }

    /// Bit extraction `arg[hi:lo]` (inclusive).
    pub fn bv_extract(&mut self, arg: TermId, hi: u32, lo: u32) -> TermId {
        let w = self.width(arg);
        assert!(
            hi >= lo && hi < w,
            "invalid extract bounds [{hi}:{lo}] on width {w}"
        );
        let ow = hi - lo + 1;
        if ow == w {
            return arg;
        }
        if let Some(x) = self.const_value(arg) {
            return self.bv_const(x >> lo, ow);
        }
        self.intern(Term {
            op: Op::BvExtract { hi, lo, arg },
            sort: Sort::BitVec(ow),
        })
    }

    /// Zero extension by `by` bits.
    pub fn bv_zero_ext(&mut self, arg: TermId, by: u32) -> TermId {
        if by == 0 {
            return arg;
        }
        let w = self.width(arg) + by;
        assert!(w <= 64, "zero extension exceeds 64 bits");
        if let Some(x) = self.const_value(arg) {
            return self.bv_const(x, w);
        }
        self.intern(Term {
            op: Op::BvZeroExt { by, arg },
            sort: Sort::BitVec(w),
        })
    }

    /// Sign extension by `by` bits.
    pub fn bv_sign_ext(&mut self, arg: TermId, by: u32) -> TermId {
        if by == 0 {
            return arg;
        }
        let aw = self.width(arg);
        let w = aw + by;
        assert!(w <= 64, "sign extension exceeds 64 bits");
        if let Some(x) = self.const_value(arg) {
            return self.bv_const(sign_extend(x, aw), w);
        }
        self.intern(Term {
            op: Op::BvSignExt { by, arg },
            sort: Sort::BitVec(w),
        })
    }

    /// Extracts a single bit as a boolean.
    pub fn bv_bit(&mut self, arg: TermId, bit: u32) -> TermId {
        let one = self.one(1);
        let b = self.bv_extract(arg, bit, bit);
        self.eq(b, one)
    }

    /// Converts a boolean to a 1-bit vector (`true` ⇒ 1).
    pub fn bool_to_bv(&mut self, b: TermId, width: u32) -> TermId {
        let one = self.one(width);
        let zero = self.zero(width);
        self.ite(b, one, zero)
    }

    /// All variables reachable from `roots`, in deterministic order.
    pub fn collect_vars(&self, roots: &[TermId]) -> Vec<TermId> {
        let mut seen = vec![false; self.terms.len()];
        let mut stack: Vec<TermId> = roots.to_vec();
        let mut vars = Vec::new();
        while let Some(t) = stack.pop() {
            if seen[t.index()] {
                continue;
            }
            seen[t.index()] = true;
            if matches!(self.term(t).op, Op::Var { .. }) {
                vars.push(t);
            }
            stack.extend(self.term(t).op.children());
        }
        vars.sort();
        vars
    }

    /// Renders a term as an s-expression-like string (for debugging).
    pub fn display(&self, id: TermId) -> String {
        let mut out = String::new();
        self.display_into(id, &mut out, 0);
        out
    }

    fn display_into(&self, id: TermId, out: &mut String, depth: usize) {
        use fmt::Write as _;
        if depth > 64 {
            out.push_str("...");
            return;
        }
        let t = self.term(id);
        match &t.op {
            Op::BoolConst(b) => {
                let _ = write!(out, "{b}");
            }
            Op::BvConst { value, width } => {
                let _ = write!(out, "#{value}:{width}");
            }
            Op::Var { name } => {
                let _ = write!(out, "{name}");
            }
            op => {
                let name = op_name(op);
                let _ = write!(out, "({name}");
                if let Op::BvExtract { hi, lo, .. } = op {
                    let _ = write!(out, "[{hi}:{lo}]");
                }
                for c in op.children() {
                    out.push(' ');
                    self.display_into(c, out, depth + 1);
                }
                out.push(')');
            }
        }
    }
}

/// A small helper so `bv_sle` can negate an interned node fluently.
trait PipeNot {
    fn pipe_not(self, tm: &mut TermManager) -> TermId;
}

impl PipeNot for TermId {
    fn pipe_not(self, tm: &mut TermManager) -> TermId {
        tm.not(self)
    }
}

fn op_name(op: &Op) -> &'static str {
    match op {
        Op::BoolConst(_) => "bool",
        Op::BvConst { .. } => "const",
        Op::Var { .. } => "var",
        Op::Not(_) => "not",
        Op::And(..) => "and",
        Op::Or(..) => "or",
        Op::Xor(..) => "xor",
        Op::Implies(..) => "=>",
        Op::Ite(..) => "ite",
        Op::Eq(..) => "=",
        Op::BvNot(_) => "bvnot",
        Op::BvNeg(_) => "bvneg",
        Op::BvAnd(..) => "bvand",
        Op::BvOr(..) => "bvor",
        Op::BvXor(..) => "bvxor",
        Op::BvAdd(..) => "bvadd",
        Op::BvSub(..) => "bvsub",
        Op::BvMul(..) => "bvmul",
        Op::BvUdiv(..) => "bvudiv",
        Op::BvUrem(..) => "bvurem",
        Op::BvShl(..) => "bvshl",
        Op::BvLshr(..) => "bvlshr",
        Op::BvAshr(..) => "bvashr",
        Op::BvUlt(..) => "bvult",
        Op::BvUle(..) => "bvule",
        Op::BvSlt(..) => "bvslt",
        Op::BvSle(..) => "bvsle",
        Op::BvConcat(..) => "concat",
        Op::BvExtract { .. } => "extract",
        Op::BvZeroExt { .. } => "zext",
        Op::BvSignExt { .. } => "sext",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_shares_nodes() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let y = tm.var("y", Sort::BitVec(8));
        let a = tm.bv_add(x, y);
        let b = tm.bv_add(x, y);
        assert_eq!(a, b);
        // commutativity normalisation
        let c = tm.bv_add(y, x);
        assert_eq!(a, c);
    }

    #[test]
    fn constant_folding() {
        let mut tm = TermManager::new();
        let a = tm.bv_const(200, 8);
        let b = tm.bv_const(100, 8);
        let s = tm.bv_add(a, b);
        assert_eq!(tm.const_value(s), Some(44)); // 300 mod 256
        let m = tm.bv_mul(a, b);
        assert_eq!(tm.const_value(m), Some((200u64 * 100) & 0xff));
        let sl = tm.bv_slt(a, b); // 200 is -56 signed
        assert_eq!(tm.const_value(sl), Some(1));
        let ul = tm.bv_ult(a, b);
        assert_eq!(tm.const_value(ul), Some(0));
    }

    #[test]
    fn neutral_elements() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(16));
        let z = tm.zero(16);
        let ones = tm.ones(16);
        assert_eq!(tm.bv_add(x, z), x);
        assert_eq!(tm.bv_or(x, z), x);
        assert_eq!(tm.bv_and(x, ones), x);
        assert_eq!(tm.bv_xor(x, z), x);
        let a = tm.bv_and(x, z);
        assert_eq!(tm.const_value(a), Some(0));
    }

    #[test]
    fn boolean_simplifications() {
        let mut tm = TermManager::new();
        let p = tm.var("p", Sort::Bool);
        let t = tm.tru();
        let f = tm.fls();
        assert_eq!(tm.and(p, t), p);
        assert_eq!(tm.or(p, f), p);
        assert_eq!(tm.and(p, f), f);
        assert_eq!(tm.or(p, t), t);
        let np = tm.not(p);
        assert_eq!(tm.not(np), p);
        assert_eq!(tm.implies(f, p), t);
        assert_eq!(tm.implies(t, p), p);
    }

    #[test]
    fn extract_concat_and_extensions() {
        let mut tm = TermManager::new();
        let c = tm.bv_const(0xabcd, 16);
        let hi = tm.bv_extract(c, 15, 8);
        let lo = tm.bv_extract(c, 7, 0);
        assert_eq!(tm.const_value(hi), Some(0xab));
        assert_eq!(tm.const_value(lo), Some(0xcd));
        let back = tm.bv_concat(hi, lo);
        assert_eq!(tm.const_value(back), Some(0xabcd));
        let se = tm.bv_sign_ext(lo, 8);
        assert_eq!(tm.const_value(se), Some(0xffcd));
        let ze = tm.bv_zero_ext(lo, 8);
        assert_eq!(tm.const_value(ze), Some(0x00cd));
    }

    #[test]
    fn shifts_fold() {
        let mut tm = TermManager::new();
        let c = tm.bv_const(0x80, 8);
        let s1 = tm.bv_const(1, 8);
        let shl = tm.bv_shl(c, s1);
        assert_eq!(tm.const_value(shl), Some(0));
        let lshr = tm.bv_lshr(c, s1);
        assert_eq!(tm.const_value(lshr), Some(0x40));
        let ashr = tm.bv_ashr(c, s1);
        assert_eq!(tm.const_value(ashr), Some(0xc0));
        let big = tm.bv_const(9, 8);
        let over = tm.bv_lshr(c, big);
        assert_eq!(tm.const_value(over), Some(0));
    }

    #[test]
    fn ite_simplifies() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(4));
        let y = tm.var("y", Sort::BitVec(4));
        let t = tm.tru();
        let f = tm.fls();
        assert_eq!(tm.ite(t, x, y), x);
        assert_eq!(tm.ite(f, x, y), y);
        assert_eq!(tm.ite(tm.clone().find_var("p").unwrap_or(t), x, x), x);
    }

    #[test]
    fn collect_vars_is_deterministic() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let y = tm.var("y", Sort::BitVec(8));
        let z = tm.var("z", Sort::BitVec(8));
        let e1 = tm.bv_add(x, y);
        let e2 = tm.bv_mul(e1, z);
        let vars = tm.collect_vars(&[e2]);
        assert_eq!(vars, vec![x, y, z]);
    }

    #[test]
    fn fresh_vars_are_distinct() {
        let mut tm = TermManager::new();
        let a = tm.fresh_var("t", Sort::Bool);
        let b = tm.fresh_var("t", Sort::Bool);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "redeclared")]
    fn var_sort_mismatch_panics() {
        let mut tm = TermManager::new();
        tm.var("x", Sort::BitVec(8));
        tm.var("x", Sort::BitVec(16));
    }

    #[test]
    fn display_renders_something_sensible() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let one = tm.one(8);
        let e = tm.bv_add(x, one);
        let s = tm.display(e);
        assert!(s.contains("bvadd"));
        assert!(s.contains('x'));
    }

    #[test]
    fn udiv_urem_by_zero_follow_smtlib() {
        let mut tm = TermManager::new();
        let a = tm.bv_const(13, 8);
        let z = tm.zero(8);
        let d = tm.bv_udiv(a, z);
        let r = tm.bv_urem(a, z);
        assert_eq!(tm.const_value(d), Some(0xff));
        assert_eq!(tm.const_value(r), Some(13));
    }
}
