//! Bit-blasting of bit-vector term graphs through a structurally hashed
//! and-inverter graph into CNF.
//!
//! Every boolean term maps to one AIG literal; every bit-vector term maps to
//! a vector of AIG literals (LSB first).  Word-level operators are lowered to
//! the usual gate-level circuits — ripple-carry adders, shift-and-add
//! multipliers, restoring dividers, logarithmic barrel shifters and
//! borrow-based comparators — but the gates are [`Aig`] node builders, not
//! clauses: construction-time constant propagation, the one- and two-level
//! rewrite catalogue and the structural-hashing table run first, so
//! structurally identical logic across BMC frames and mutated datapaths is
//! built once.  CNF only materialises when a literal is asserted or assumed,
//! through the polarity-aware Tseitin pass ([`AigCnf`]): shared nodes get
//! one definition, and each polarity pays only the implications it needs.

use crate::aig::{Aig, AigCnf, AigLit, AigStats};
use crate::cnf::{Cnf, Lit};
use crate::fast::FastMap;
use crate::term::{Op, TermId, TermManager};

/// Bit-blaster: converts terms to AIG literals and emits CNF on demand over
/// a shared [`Cnf`] instance.
///
/// Encodings are cached per term, so a blaster that lives across several
/// queries (the incremental pipeline) only lowers the not-yet-seen subgraph
/// of each new term; [`cache_hits`](Self::cache_hits) /
/// [`cached_terms`](Self::cached_terms) quantify the term-level reuse and
/// [`aig_stats`](Self::aig_stats) the gate-level reuse below it.  The
/// AIG-node→CNF-variable mapping is append-only across emissions, so SAT
/// solver state built on earlier clauses stays valid (the incremental
/// contract).
#[derive(Debug, Clone)]
pub struct BitBlaster {
    aig: Aig,
    emit: AigCnf,
    cnf: Cnf,
    true_lit: Lit,
    bool_cache: FastMap<TermId, AigLit>,
    bits_cache: FastMap<TermId, Vec<AigLit>>,
    var_bits: FastMap<TermId, Vec<Lit>>,
    cache_hits: u64,
}

impl Default for BitBlaster {
    fn default() -> Self {
        Self::new()
    }
}

impl BitBlaster {
    /// Creates a blaster with a fresh CNF containing only the constant-true
    /// variable.
    pub fn new() -> Self {
        let mut cnf = Cnf::new();
        let tv = cnf.fresh_var();
        let t = Lit::pos(tv);
        cnf.add_clause([t]);
        BitBlaster {
            aig: Aig::new(),
            emit: AigCnf::new(tv),
            cnf,
            true_lit: t,
            bool_cache: FastMap::default(),
            bits_cache: FastMap::default(),
            var_bits: FastMap::default(),
            cache_hits: 0,
        }
    }

    /// Turns the gate-level reductions on or off (on by default).  Off means
    /// no structural hashing, no local rewriting and biconditional instead
    /// of polarity-aware Tseitin — the faithful stand-in for the pre-AIG
    /// direct blasting, kept for the `aig_off` differential and bench arms.
    ///
    /// # Panics
    ///
    /// Panics if anything was already encoded: the two modes must not be
    /// mixed within one blaster lifetime.
    pub fn set_aig(&mut self, on: bool) {
        assert!(
            self.aig.num_nodes() == 1 && self.var_bits.is_empty(),
            "set_aig must be called before anything is encoded"
        );
        self.aig.set_reduce(on);
        self.emit.set_polarity_aware(on);
    }

    /// Mutable access to the CNF under construction (for draining clauses).
    pub fn cnf_mut(&mut self) -> &mut Cnf {
        &mut self.cnf
    }

    /// Number of distinct terms with a cached encoding.
    pub fn cached_terms(&self) -> u64 {
        (self.bool_cache.len() + self.bits_cache.len()) as u64
    }

    /// Number of term-encoding lookups answered from the cache.  Every hit
    /// counts — shared subgraphs within one query as well as terms
    /// re-encountered by later queries of a persistent blaster.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// The gate-level counters: AIG nodes created, strash hits, constants
    /// folded, local rewrites, and the CNF variables/clauses the Tseitin
    /// pass has emitted so far.
    pub fn aig_stats(&self) -> AigStats {
        let mut stats = self.aig.stats();
        stats.absorb(&self.emit.stats());
        stats
    }

    /// The literal that is always true.
    pub fn true_lit(&self) -> Lit {
        self.true_lit
    }

    /// The literal that is always false.
    pub fn false_lit(&self) -> Lit {
        !self.true_lit
    }

    /// The CNF built so far.
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// Consumes the blaster, returning the CNF.
    pub fn into_cnf(self) -> Cnf {
        self.cnf
    }

    /// CNF literals of every *variable* term encountered, for model read-back.
    pub fn var_encodings(&self) -> &FastMap<TermId, Vec<Lit>> {
        &self.var_bits
    }

    /// Asserts that a boolean term holds: lowers it to an AIG literal, emits
    /// the clauses its positive occurrence needs, and adds the unit clause.
    pub fn assert_true(&mut self, tm: &TermManager, t: TermId) {
        let root = self.blast_bool(tm, t);
        let l = self.emit.require(&self.aig, &mut self.cnf, root);
        self.cnf.add_clause([l]);
    }

    /// The CNF literal of a boolean term, with the clauses emitted that make
    /// assuming (or asserting) it mean exactly "the term holds" — the entry
    /// point for retractable assumptions in the incremental pipeline.
    pub fn assume_lit(&mut self, tm: &TermManager, t: TermId) -> Lit {
        let root = self.blast_bool(tm, t);
        self.emit.require(&self.aig, &mut self.cnf, root)
    }

    // ------------------------------------------------------------------
    // Gates (thin wrappers over the AIG node builders)
    // ------------------------------------------------------------------

    fn const_lit(&self, b: bool) -> AigLit {
        self.aig.const_lit(b)
    }

    fn and_gate(&mut self, a: AigLit, b: AigLit) -> AigLit {
        self.aig.and(a, b)
    }

    fn or_gate(&mut self, a: AigLit, b: AigLit) -> AigLit {
        self.aig.or(a, b)
    }

    fn xor_gate(&mut self, a: AigLit, b: AigLit) -> AigLit {
        self.aig.xor(a, b)
    }

    fn mux_gate(&mut self, c: AigLit, t: AigLit, e: AigLit) -> AigLit {
        self.aig.mux(c, t, e)
    }

    fn full_adder(&mut self, a: AigLit, b: AigLit, cin: AigLit) -> (AigLit, AigLit) {
        let axb = self.xor_gate(a, b);
        let sum = self.xor_gate(axb, cin);
        let c1 = self.and_gate(a, b);
        let c2 = self.and_gate(axb, cin);
        let cout = self.or_gate(c1, c2);
        (sum, cout)
    }

    fn adder(&mut self, a: &[AigLit], b: &[AigLit], mut carry: AigLit) -> (Vec<AigLit>, AigLit) {
        debug_assert_eq!(a.len(), b.len());
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (s, c) = self.full_adder(a[i], b[i], carry);
            out.push(s);
            carry = c;
        }
        (out, carry)
    }

    fn negate_bits(&mut self, a: &[AigLit]) -> Vec<AigLit> {
        let inverted: Vec<AigLit> = a.iter().map(|&l| !l).collect();
        let zeros = vec![self.const_lit(false); a.len()];
        let (out, _) = self.adder(&inverted, &zeros, self.const_lit(true));
        out
    }

    /// Carry out of `a + ~b + 1`; equals 1 iff `a >= b` (unsigned).
    fn uge_carry(&mut self, a: &[AigLit], b: &[AigLit]) -> AigLit {
        let inverted: Vec<AigLit> = b.iter().map(|&l| !l).collect();
        let (_, carry) = self.adder(a, &inverted, self.const_lit(true));
        carry
    }

    fn ult_gate(&mut self, a: &[AigLit], b: &[AigLit]) -> AigLit {
        !self.uge_carry(a, b)
    }

    fn eq_gate(&mut self, a: &[AigLit], b: &[AigLit]) -> AigLit {
        let mut acc = self.const_lit(true);
        for i in 0..a.len() {
            let x = self.xor_gate(a[i], b[i]);
            acc = self.and_gate(acc, !x);
        }
        acc
    }

    fn mux_bits(&mut self, c: AigLit, t: &[AigLit], e: &[AigLit]) -> Vec<AigLit> {
        debug_assert_eq!(t.len(), e.len());
        (0..t.len()).map(|i| self.mux_gate(c, t[i], e[i])).collect()
    }

    fn shifter(
        &mut self,
        a: &[AigLit],
        amount: &[AigLit],
        arithmetic: bool,
        left: bool,
    ) -> Vec<AigLit> {
        let w = a.len();
        let fill = if arithmetic {
            a[w - 1]
        } else {
            self.const_lit(false)
        };
        let stages = usize::BITS - (w - 1).leading_zeros(); // ceil(log2(w)) for w>1
        let stages = stages.max(1) as usize;
        let mut cur = a.to_vec();
        for (stage, &amount_bit) in amount.iter().enumerate().take(stages) {
            let sh = 1usize << stage;
            let mut shifted = vec![fill; w];
            for i in 0..w {
                if left {
                    if i >= sh {
                        shifted[i] = cur[i - sh];
                    } else {
                        shifted[i] = self.const_lit(false);
                    }
                } else if i + sh < w {
                    shifted[i] = cur[i + sh];
                }
            }
            cur = self.mux_bits(amount_bit, &shifted, &cur);
        }
        // If any shift-amount bit at or above `stages` is set, or the encoded
        // amount is >= w, the result saturates to the fill value (zero for
        // logical shifts, sign for arithmetic right shifts).
        let mut overflow = self.const_lit(false);
        for &l in amount.iter().skip(stages) {
            overflow = self.or_gate(overflow, l);
        }
        if !w.is_power_of_two() {
            // amount within [w, 2^stages) also overflows
            let wconst = self.constant_bits(w as u64, amount.len() as u32);
            let ge_w = self.uge_carry(amount, &wconst);
            overflow = self.or_gate(overflow, ge_w);
        }
        let fill_vec = vec![if left { self.const_lit(false) } else { fill }; w];
        self.mux_bits(overflow, &fill_vec, &cur)
    }

    fn constant_bits(&mut self, value: u64, width: u32) -> Vec<AigLit> {
        (0..width)
            .map(|i| self.const_lit((value >> i) & 1 == 1))
            .collect()
    }

    fn multiplier(&mut self, a: &[AigLit], b: &[AigLit]) -> Vec<AigLit> {
        let w = a.len();
        let mut acc = vec![self.const_lit(false); w];
        for i in 0..w {
            // partial product: (a << i) & replicate(b[i])
            let mut partial = vec![self.const_lit(false); w];
            for j in 0..(w - i) {
                partial[i + j] = self.and_gate(a[j], b[i]);
            }
            let (sum, _) = self.adder(&acc, &partial, self.const_lit(false));
            acc = sum;
        }
        acc
    }

    /// Restoring division; returns (quotient, remainder).
    fn divider(&mut self, a: &[AigLit], b: &[AigLit]) -> (Vec<AigLit>, Vec<AigLit>) {
        let w = a.len();
        let f = self.const_lit(false);
        let mut remainder = vec![f; w];
        let mut quotient = vec![f; w];
        for i in (0..w).rev() {
            // remainder = (remainder << 1) | a[i]
            let mut shifted = vec![f; w];
            shifted[0] = a[i];
            shifted[1..w].copy_from_slice(&remainder[..(w - 1)]);
            remainder = shifted;
            let ge = self.uge_carry(&remainder, b);
            let negated_b = self.negate_bits(b);
            let (diff, _) = self.adder(&remainder, &negated_b, self.const_lit(false));
            remainder = self.mux_bits(ge, &diff, &remainder);
            quotient[i] = ge;
        }
        // SMT-LIB: division by zero yields all ones, remainder yields the dividend.
        let zero = vec![f; w];
        let b_is_zero = self.eq_gate(b, &zero);
        let all_ones = vec![self.const_lit(true); w];
        let quotient = self.mux_bits(b_is_zero, &all_ones, &quotient);
        let remainder = self.mux_bits(b_is_zero, a, &remainder);
        (quotient, remainder)
    }

    /// Allocates the AIG inputs and CNF variables of a fresh variable term's
    /// bits.  CNF variables are materialised eagerly so model read-back
    /// literals exist even for variables no emitted clause mentions.
    fn fresh_var_bits(&mut self, t: TermId, width: u32) -> Vec<AigLit> {
        let mut aig_bits = Vec::with_capacity(width as usize);
        let mut cnf_bits = Vec::with_capacity(width as usize);
        for _ in 0..width {
            let input = self.aig.input();
            let v = self.cnf.fresh_var();
            self.emit.register_input(input, v);
            aig_bits.push(input);
            cnf_bits.push(Lit::pos(v));
        }
        self.var_bits.insert(t, cnf_bits);
        aig_bits
    }

    // ------------------------------------------------------------------
    // Term translation
    // ------------------------------------------------------------------

    /// Translates a boolean term into a single AIG literal (no clauses are
    /// emitted — see [`assert_true`](Self::assert_true) /
    /// [`assume_lit`](Self::assume_lit)).
    pub fn blast_bool(&mut self, tm: &TermManager, t: TermId) -> AigLit {
        if let Some(&l) = self.bool_cache.get(&t) {
            self.cache_hits += 1;
            return l;
        }
        debug_assert!(tm.sort(t).is_bool(), "blast_bool on a bit-vector term");
        let l = match tm.term(t).op.clone() {
            Op::BoolConst(b) => self.const_lit(b),
            Op::Var { .. } => self.fresh_var_bits(t, 1)[0],
            Op::Not(a) => {
                let a = self.blast_bool(tm, a);
                !a
            }
            Op::And(a, b) => {
                let (a, b) = (self.blast_bool(tm, a), self.blast_bool(tm, b));
                self.and_gate(a, b)
            }
            Op::Or(a, b) => {
                let (a, b) = (self.blast_bool(tm, a), self.blast_bool(tm, b));
                self.or_gate(a, b)
            }
            Op::Xor(a, b) => {
                let (a, b) = (self.blast_bool(tm, a), self.blast_bool(tm, b));
                self.xor_gate(a, b)
            }
            Op::Implies(a, b) => {
                let (a, b) = (self.blast_bool(tm, a), self.blast_bool(tm, b));
                self.or_gate(!a, b)
            }
            Op::Ite(c, a, b) => {
                let c = self.blast_bool(tm, c);
                let (a, b) = (self.blast_bool(tm, a), self.blast_bool(tm, b));
                self.mux_gate(c, a, b)
            }
            Op::Eq(a, b) => {
                if tm.sort(a).is_bool() {
                    let (a, b) = (self.blast_bool(tm, a), self.blast_bool(tm, b));
                    !self.xor_gate(a, b)
                } else {
                    let a = self.blast_bits(tm, a);
                    let b = self.blast_bits(tm, b);
                    self.eq_gate(&a, &b)
                }
            }
            Op::BvUlt(a, b) => {
                let a = self.blast_bits(tm, a);
                let b = self.blast_bits(tm, b);
                self.ult_gate(&a, &b)
            }
            Op::BvUle(a, b) => {
                let a = self.blast_bits(tm, a);
                let b = self.blast_bits(tm, b);
                !self.ult_gate(&b, &a)
            }
            Op::BvSlt(a, b) => {
                let a = self.blast_bits(tm, a);
                let b = self.blast_bits(tm, b);
                self.slt_gate(&a, &b)
            }
            Op::BvSle(a, b) => {
                let a = self.blast_bits(tm, a);
                let b = self.blast_bits(tm, b);
                !self.slt_gate(&b, &a)
            }
            other => unreachable!("boolean blast of non-boolean operator {other:?}"),
        };
        self.bool_cache.insert(t, l);
        l
    }

    fn slt_gate(&mut self, a: &[AigLit], b: &[AigLit]) -> AigLit {
        let w = a.len();
        let sa = a[w - 1];
        let sb = b[w - 1];
        let signs_differ = self.xor_gate(sa, sb);
        let ult = self.ult_gate(a, b);
        self.mux_gate(signs_differ, sa, ult)
    }

    /// Translates a bit-vector term into its AIG literal vector (LSB first).
    pub fn blast_bits(&mut self, tm: &TermManager, t: TermId) -> Vec<AigLit> {
        if let Some(bits) = self.bits_cache.get(&t) {
            self.cache_hits += 1;
            return bits.clone();
        }
        let width = tm.width(t);
        let bits: Vec<AigLit> = match tm.term(t).op.clone() {
            Op::BvConst { value, .. } => self.constant_bits(value, width),
            Op::Var { .. } => self.fresh_var_bits(t, width),
            Op::BvNot(a) => {
                let a = self.blast_bits(tm, a);
                a.iter().map(|&l| !l).collect()
            }
            Op::BvNeg(a) => {
                let a = self.blast_bits(tm, a);
                self.negate_bits(&a)
            }
            Op::BvAnd(a, b) => {
                let (a, b) = (self.blast_bits(tm, a), self.blast_bits(tm, b));
                (0..width as usize)
                    .map(|i| self.and_gate(a[i], b[i]))
                    .collect()
            }
            Op::BvOr(a, b) => {
                let (a, b) = (self.blast_bits(tm, a), self.blast_bits(tm, b));
                (0..width as usize)
                    .map(|i| self.or_gate(a[i], b[i]))
                    .collect()
            }
            Op::BvXor(a, b) => {
                let (a, b) = (self.blast_bits(tm, a), self.blast_bits(tm, b));
                (0..width as usize)
                    .map(|i| self.xor_gate(a[i], b[i]))
                    .collect()
            }
            Op::BvAdd(a, b) => {
                let (a, b) = (self.blast_bits(tm, a), self.blast_bits(tm, b));
                let (out, _) = self.adder(&a, &b, self.const_lit(false));
                out
            }
            Op::BvSub(a, b) => {
                let (a, b) = (self.blast_bits(tm, a), self.blast_bits(tm, b));
                let inverted: Vec<AigLit> = b.iter().map(|&l| !l).collect();
                let (out, _) = self.adder(&a, &inverted, self.const_lit(true));
                out
            }
            Op::BvMul(a, b) => {
                let (a, b) = (self.blast_bits(tm, a), self.blast_bits(tm, b));
                self.multiplier(&a, &b)
            }
            Op::BvUdiv(a, b) => {
                let (a, b) = (self.blast_bits(tm, a), self.blast_bits(tm, b));
                self.divider(&a, &b).0
            }
            Op::BvUrem(a, b) => {
                let (a, b) = (self.blast_bits(tm, a), self.blast_bits(tm, b));
                self.divider(&a, &b).1
            }
            Op::BvShl(a, b) => {
                let (a, b) = (self.blast_bits(tm, a), self.blast_bits(tm, b));
                self.shifter(&a, &b, false, true)
            }
            Op::BvLshr(a, b) => {
                let (a, b) = (self.blast_bits(tm, a), self.blast_bits(tm, b));
                self.shifter(&a, &b, false, false)
            }
            Op::BvAshr(a, b) => {
                let (a, b) = (self.blast_bits(tm, a), self.blast_bits(tm, b));
                self.shifter(&a, &b, true, false)
            }
            Op::BvConcat(hi, lo) => {
                let hi_bits = self.blast_bits(tm, hi);
                let lo_bits = self.blast_bits(tm, lo);
                let mut out = lo_bits;
                out.extend(hi_bits);
                out
            }
            Op::BvExtract { hi, lo, arg } => {
                let a = self.blast_bits(tm, arg);
                a[lo as usize..=(hi as usize)].to_vec()
            }
            Op::BvZeroExt { by, arg } => {
                let mut a = self.blast_bits(tm, arg);
                a.extend(vec![self.const_lit(false); by as usize]);
                a
            }
            Op::BvSignExt { by, arg } => {
                let mut a = self.blast_bits(tm, arg);
                let sign = *a.last().expect("non-empty bit-vector");
                a.extend(vec![sign; by as usize]);
                a
            }
            Op::Ite(c, a, b) => {
                let c = self.blast_bool(tm, c);
                let (a, b) = (self.blast_bits(tm, a), self.blast_bits(tm, b));
                self.mux_bits(c, &a, &b)
            }
            other => unreachable!("bit-vector blast of boolean operator {other:?}"),
        };
        debug_assert_eq!(bits.len(), width as usize);
        self.bits_cache.insert(t, bits.clone());
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concrete::{eval, Assignment};
    use crate::sat::{SatSolver, SolveOutcome};
    use crate::sort::Sort;

    /// Checks validity of `lhs == rhs` for all inputs by asserting the
    /// disequality and expecting UNSAT.
    fn prove_equal(tm: &mut TermManager, lhs: TermId, rhs: TermId) {
        let goal = tm.neq(lhs, rhs);
        for aig in [true, false] {
            let mut bb = BitBlaster::new();
            bb.set_aig(aig);
            bb.assert_true(tm, goal);
            let mut sat = SatSolver::from_cnf(bb.into_cnf());
            assert_eq!(
                sat.solve(),
                SolveOutcome::Unsat,
                "terms are not equivalent (aig={aig})"
            );
        }
    }

    fn find_model(tm: &TermManager, goal: TermId) -> Option<Assignment> {
        let mut bb = BitBlaster::new();
        bb.assert_true(tm, goal);
        let mut sat = SatSolver::from_cnf(bb.cnf().clone());
        match sat.solve() {
            SolveOutcome::Sat => {
                let mut env = Assignment::default();
                for (&term, bits) in bb.var_encodings() {
                    let mut v = 0u64;
                    for (i, &l) in bits.iter().enumerate() {
                        if sat.value_of(l.var()) == l.is_positive() {
                            v |= 1 << i;
                        }
                    }
                    env.insert(term, v);
                }
                Some(env)
            }
            _ => None,
        }
    }

    #[test]
    fn de_morgan_is_valid() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let y = tm.var("y", Sort::BitVec(8));
        let lhs = {
            let a = tm.bv_and(x, y);
            tm.bv_not(a)
        };
        let rhs = {
            let nx = tm.bv_not(x);
            let ny = tm.bv_not(y);
            tm.bv_or(nx, ny)
        };
        prove_equal(&mut tm, lhs, rhs);
    }

    #[test]
    fn sub_equals_add_of_negation() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(12));
        let y = tm.var("y", Sort::BitVec(12));
        let lhs = tm.bv_sub(x, y);
        let rhs = {
            let ny = tm.bv_neg(y);
            tm.bv_add(x, ny)
        };
        prove_equal(&mut tm, lhs, rhs);
    }

    #[test]
    fn xori_identity_from_the_paper() {
        // The Listing-1 identity: SUB rd rs1 rs2 == XORI(ADD(XORI(rs1,-1), rs2), -1)
        // i.e. rs1 - rs2 == ~( ~rs1 + rs2 ).
        let mut tm = TermManager::new();
        let rs1 = tm.var("rs1", Sort::BitVec(16));
        let rs2 = tm.var("rs2", Sort::BitVec(16));
        let lhs = tm.bv_sub(rs1, rs2);
        let rhs = {
            let n1 = tm.bv_not(rs1);
            let s = tm.bv_add(n1, rs2);
            tm.bv_not(s)
        };
        prove_equal(&mut tm, lhs, rhs);
    }

    #[test]
    fn mul_is_commutative() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let y = tm.var("y", Sort::BitVec(8));
        let lhs = tm.bv_mul(x, y);
        let rhs = tm.bv_mul(y, x);
        // hash-consing already normalises the operand order, so compare
        // against a multiplication computed through shift-and-add identity:
        // x*y == (x*(y-1)) + x is too slow to prove here; instead check
        // structural equality which the manager guarantees.
        assert_eq!(lhs, rhs);
        // and prove x*2 == x+x through the solver
        let two = tm.bv_const(2, 8);
        let x2 = tm.bv_mul(x, two);
        let xx = tm.bv_add(x, x);
        prove_equal(&mut tm, x2, xx);
    }

    #[test]
    fn shifts_match_evaluator_on_models() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let s = tm.var("s", Sort::BitVec(8));
        let shl = tm.bv_shl(x, s);
        let c16 = tm.bv_const(16, 8);
        let goal = {
            let e = tm.eq(shl, c16);
            let lim = tm.bv_const(8, 8);
            let in_range = tm.bv_ult(s, lim);
            let nz = {
                let z = tm.zero(8);
                tm.neq(s, z)
            };
            let a = tm.and(e, in_range);
            tm.and(a, nz)
        };
        let env = find_model(&tm, goal).expect("x << s == 16 with 0<s<8 is satisfiable");
        assert_eq!(eval(&tm, goal, &env), 1, "model must satisfy the goal");
        assert_eq!(eval(&tm, shl, &env), 16);
    }

    #[test]
    fn division_circuit_matches_semantics() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(6));
        let y = tm.var("y", Sort::BitVec(6));
        // x == (x/y)*y + x%y  whenever y != 0
        let q = tm.bv_udiv(x, y);
        let r = tm.bv_urem(x, y);
        let prod = tm.bv_mul(q, y);
        let sum = tm.bv_add(prod, r);
        let zero = tm.zero(6);
        let nz = tm.neq(y, zero);
        let eq = tm.eq(sum, x);
        let prop = tm.implies(nz, eq);
        let goal = tm.not(prop);
        let mut bb = BitBlaster::new();
        bb.assert_true(&tm, goal);
        let mut sat = SatSolver::from_cnf(bb.into_cnf());
        assert_eq!(sat.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn signed_comparison_counterexample_has_expected_sign() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let zero = tm.zero(8);
        // find x with x <s 0 and x >=u 128
        let neg = tm.bv_slt(x, zero);
        let c128 = tm.bv_const(128, 8);
        let big = tm.bv_ule(c128, x);
        let goal = tm.and(neg, big);
        let env = find_model(&tm, goal).expect("negative bytes exist");
        assert!(env[&x] >= 128);
    }

    #[test]
    fn strash_shares_identical_logic_and_shrinks_the_cnf() {
        // `x == y` and `(x ^ y) == 0` are distinct terms (the term cache
        // cannot merge them) with identical gate structure: the equality
        // comparator is a conjunction over per-bit xnors, and so is the
        // zero-test of the xor.  Structural hashing makes the second
        // assertion reach the nodes of the first, so it adds no nodes and
        // no clauses; direct blasting rebuilds and re-encodes everything.
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let y = tm.var("y", Sort::BitVec(8));
        let e1 = tm.eq(x, y);
        let xo = tm.bv_xor(x, y);
        let z = tm.zero(8);
        let e2 = tm.eq(xo, z);
        assert_ne!(e1, e2, "distinct at the term level");
        let mut on = BitBlaster::new();
        on.assert_true(&tm, e1);
        let nodes_before = on.aig_stats().nodes;
        let clauses_before = on.cnf().num_clauses();
        on.assert_true(&tm, e2);
        assert_eq!(
            on.aig_stats().nodes,
            nodes_before,
            "strash must share the whole comparator"
        );
        assert_eq!(on.cnf().num_clauses(), clauses_before + 1, "one unit only");
        assert!(on.aig_stats().strash_hits > 0);
        let mut off = BitBlaster::new();
        off.set_aig(false);
        off.assert_true(&tm, e1);
        let nodes_before_off = off.aig_stats().nodes;
        off.assert_true(&tm, e2);
        assert!(
            off.aig_stats().nodes > nodes_before_off,
            "direct blasting rebuilds the comparator"
        );
        assert!(
            on.cnf().num_clauses() < off.cnf().num_clauses(),
            "shared definitions must shrink the CNF: {} vs {}",
            on.cnf().num_clauses(),
            off.cnf().num_clauses()
        );
    }

    #[test]
    fn assume_lit_polarities_compose_across_calls() {
        // The same term assumed positively and (via a not-term) negatively:
        // the second call only tops up the missing polarity clauses, and
        // both behave like the term / its negation.
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(4));
        let c3 = tm.bv_const(3, 4);
        let is3 = tm.eq(x, c3);
        let not3 = tm.not(is3);
        let mut bb = BitBlaster::new();
        let l_pos = bb.assume_lit(&tm, is3);
        let l_neg = bb.assume_lit(&tm, not3);
        assert_eq!(l_neg, !l_pos);
        let bits = bb.var_encodings()[&x].clone();
        let mut sat = SatSolver::from_cnf(bb.into_cnf());
        assert_eq!(sat.solve_under_assumptions(&[l_pos]), SolveOutcome::Sat);
        let val = |sat: &SatSolver| -> u64 {
            bits.iter()
                .enumerate()
                .map(|(i, &l)| u64::from(sat.value_of(l.var()) == l.is_positive()) << i)
                .sum()
        };
        assert_eq!(val(&sat), 3);
        assert_eq!(sat.solve_under_assumptions(&[l_neg]), SolveOutcome::Sat);
        assert_ne!(val(&sat), 3);
        assert_eq!(
            sat.solve_under_assumptions(&[l_pos, l_neg]),
            SolveOutcome::Unsat
        );
    }

    #[test]
    fn blasting_agrees_with_evaluator_on_random_terms() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..25 {
            let mut tm = TermManager::new();
            let w = 7;
            let x = tm.var("x", Sort::BitVec(w));
            let y = tm.var("y", Sort::BitVec(w));
            let z = tm.var("z", Sort::BitVec(w));
            // build a random expression tree of depth 3
            let mut exprs = vec![x, y, z];
            for _ in 0..6 {
                let a = exprs[rng.gen_range(0..exprs.len())];
                let b = exprs[rng.gen_range(0..exprs.len())];
                let e = match rng.gen_range(0..10) {
                    0 => tm.bv_add(a, b),
                    1 => tm.bv_sub(a, b),
                    2 => tm.bv_and(a, b),
                    3 => tm.bv_or(a, b),
                    4 => tm.bv_xor(a, b),
                    5 => tm.bv_mul(a, b),
                    6 => tm.bv_shl(a, b),
                    7 => tm.bv_lshr(a, b),
                    8 => tm.bv_ashr(a, b),
                    _ => {
                        let c = tm.bv_ult(a, b);
                        tm.ite(c, a, b)
                    }
                };
                exprs.push(e);
            }
            let top = *exprs.last().expect("expressions exist");
            let xv = rng.gen_range(0..(1 << w)) as u64;
            let yv = rng.gen_range(0..(1 << w)) as u64;
            let zv = rng.gen_range(0..(1 << w)) as u64;
            let env: Assignment = [(x, xv), (y, yv), (z, zv)].into_iter().collect();
            let expected = eval(&tm, top, &env);
            // assert top == expected together with the variable values; must be SAT
            let cexp = tm.bv_const(expected, w);
            let cx = tm.bv_const(xv, w);
            let cy = tm.bv_const(yv, w);
            let cz = tm.bv_const(zv, w);
            let goal = {
                let e1 = tm.eq(top, cexp);
                let e2 = tm.eq(x, cx);
                let e3 = tm.eq(y, cy);
                let e4 = tm.eq(z, cz);
                let a = tm.and(e1, e2);
                let b = tm.and(e3, e4);
                tm.and(a, b)
            };
            assert!(
                find_model(&tm, goal).is_some(),
                "bit-blaster disagrees with evaluator"
            );
        }
    }
}
