//! A structurally hashed and-inverter graph (AIG) between bit-blasting and
//! CNF.
//!
//! The PR-3 pipeline lowered every word-level operator straight to Tseitin
//! clauses, so structurally identical logic — the same adder slice in the
//! original and the duplicated SQED datapath, the same comparator across two
//! BMC frames that the word-level caches happen to miss — was re-encoded and
//! re-learned from scratch.  This module inserts the classic gate-level IR in
//! between:
//!
//! * [`Aig`] — two-input AND nodes with complemented edges.  Node creation
//!   runs constant propagation, one-level rules (neutrality, idempotence,
//!   complement annihilation) and a two-level local-rewriting catalogue
//!   (contradiction, subsumption, substitution, idempotence and resolution —
//!   the Brummayer–Biere rules), then consults a structural-hashing table so
//!   an AND over operands already built returns the existing node.
//! * [`AigCnf`] — a polarity-aware Tseitin pass over the graph: each node
//!   gets at most one CNF variable (append-only, so SAT-level state built on
//!   earlier emissions stays valid), and only the implication clauses the
//!   requested polarity needs are emitted (Plaisted–Greenbaum).  Asking for
//!   the other polarity later adds the missing clauses — the encoding
//!   monotonically approaches the biconditional one, which keeps incremental
//!   assumption solving sound.
//! * [`AigStats`] — nodes created, strash hits, constants folded, rewrite
//!   hits and CNF variables/clauses emitted, surfaced through
//!   `EncodeStats` next to the word-level rewriting counters.
//!
//! Derived gates (`or`, `xor`, `mux`, …) are AND/complement compositions, so
//! the strash table shares their internal products too: `xor(a, b)` and
//! `eq(a, b)` differ by one complement edge and cost one node set.

use std::fmt;
use std::ops::Not;

use crate::cnf::{Cnf, Lit, Var};
use crate::fast::FastMap;

/// An edge into the graph: a node index plus a complement flag, encoded as
/// `node * 2 + complemented` (mirroring [`Lit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AigLit(u32);

impl AigLit {
    /// The constant-true literal (the un-complemented constant node).
    pub const TRUE: AigLit = AigLit(0);
    /// The constant-false literal (the complemented constant node).
    pub const FALSE: AigLit = AigLit(1);

    fn new(node: u32, complemented: bool) -> Self {
        AigLit(node * 2 + u32::from(complemented))
    }

    /// The node this edge points at.
    pub fn node(self) -> u32 {
        self.0 / 2
    }

    /// Whether the edge is complemented.
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// The constant value of the literal, if it is one of the two constants.
    pub fn const_value(self) -> Option<bool> {
        match self {
            AigLit::TRUE => Some(true),
            AigLit::FALSE => Some(false),
            _ => None,
        }
    }
}

impl Not for AigLit {
    type Output = AigLit;
    fn not(self) -> AigLit {
        AigLit(self.0 ^ 1)
    }
}

impl fmt::Display for AigLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_complemented() {
            write!(f, "!n{}", self.node())
        } else {
            write!(f, "n{}", self.node())
        }
    }
}

/// The gate an AND node computes, as recognised by
/// [`Aig::gate_kind`] for native CNF emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// A plain two-input AND.
    And(AigLit, AigLit),
    /// The node equals `a ⊕ b` (an XOR built from three ANDs).
    Xor(AigLit, AigLit),
    /// The node equals `!(if c then t else e)` (a MUX built from three
    /// ANDs; the constructors return it complemented).
    NotMux(AigLit, AigLit, AigLit),
}

/// One graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AigNode {
    /// The constant-true node (always node 0).
    Const,
    /// A primary input (a bit of a term-level variable).
    Input,
    /// A two-input AND over two (possibly complemented) edges.
    And(AigLit, AigLit),
}

/// Counters of the gate-level layer, reported through `EncodeStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AigStats {
    /// AND nodes actually created (strash misses).
    pub nodes: u64,
    /// AND requests answered by the structural-hashing table.
    pub strash_hits: u64,
    /// AND requests folded away by constant propagation or the one-level
    /// rules (constant operand, idempotence, complement annihilation).
    pub consts_folded: u64,
    /// Two-level local-rewriting rule applications at node creation.
    pub rewrites: u64,
    /// CNF variables allocated by the Tseitin pass.
    pub cnf_vars: u64,
    /// CNF clauses emitted by the Tseitin pass (node definitions only —
    /// unit assertions are counted by the solver front-ends).
    pub cnf_clauses: u64,
}

impl AigStats {
    /// Merges another stats block into this one.
    pub fn absorb(&mut self, other: &AigStats) {
        self.nodes += other.nodes;
        self.strash_hits += other.strash_hits;
        self.consts_folded += other.consts_folded;
        self.rewrites += other.rewrites;
        self.cnf_vars += other.cnf_vars;
        self.cnf_clauses += other.cnf_clauses;
    }
}

/// The and-inverter graph under construction.
///
/// With structural hashing on (the default), node construction is
/// canonicalising: operands are ordered, constants and complements fold, the
/// two-level rule catalogue runs, and the strash table returns existing
/// nodes for repeated structure.  [`set_reduce`](Aig::set_reduce) turns
/// hashing *and* the rewrite catalogue off — every request creates a fresh
/// node, which is the faithful stand-in for the pre-AIG direct blasting used
/// by the `aig_off` differential/bench arms.
#[derive(Debug, Clone)]
pub struct Aig {
    nodes: Vec<AigNode>,
    /// `(smaller edge, larger edge) -> node index` for existing AND nodes.
    strash: FastMap<(u32, u32), u32>,
    reduce: bool,
    stats: AigStats,
}

impl Default for Aig {
    fn default() -> Self {
        Self::new()
    }
}

impl Aig {
    /// Creates a graph holding only the constant node.
    pub fn new() -> Self {
        Aig {
            nodes: vec![AigNode::Const],
            strash: FastMap::default(),
            reduce: true,
            stats: AigStats::default(),
        }
    }

    /// Turns structural hashing and the local rewrite catalogue on or off
    /// (constant propagation and the one-level rules always run — the
    /// pre-AIG gates folded those too, so the off position stays a faithful
    /// direct-blasting baseline).
    pub fn set_reduce(&mut self, on: bool) {
        self.reduce = on;
    }

    /// Number of nodes, including the constant node.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node behind an index.
    pub fn node(&self, idx: u32) -> AigNode {
        self.nodes[idx as usize]
    }

    /// The counters accumulated so far (graph side only; the CNF fields are
    /// filled by [`AigCnf::stats`]).
    pub fn stats(&self) -> AigStats {
        self.stats
    }

    /// A fresh primary input.
    pub fn input(&mut self) -> AigLit {
        let idx = self.nodes.len() as u32;
        self.nodes.push(AigNode::Input);
        AigLit::new(idx, false)
    }

    /// The constant literal for `b`.
    pub fn const_lit(&self, b: bool) -> AigLit {
        if b {
            AigLit::TRUE
        } else {
            AigLit::FALSE
        }
    }

    /// The AND of two edges, canonicalised and structurally hashed.
    pub fn and(&mut self, a: AigLit, b: AigLit) -> AigLit {
        self.and_depth(a, b, 4)
    }

    /// The fanins of `l` when it is an un-complemented AND edge.
    fn and_fanins(&self, l: AigLit) -> Option<(AigLit, AigLit)> {
        if l.is_complemented() {
            return None;
        }
        match self.nodes[l.node() as usize] {
            AigNode::And(x, y) => Some((x, y)),
            _ => None,
        }
    }

    /// The fanins of `l` when it is a complemented AND edge.
    fn nand_fanins(&self, l: AigLit) -> Option<(AigLit, AigLit)> {
        if l.is_complemented() {
            self.and_fanins(!l)
        } else {
            None
        }
    }

    /// `and` with a recursion budget for the substitution rules (each
    /// application shrinks the term, but the budget keeps the worst case
    /// O(1) per created node).
    fn and_depth(&mut self, a: AigLit, b: AigLit, depth: u32) -> AigLit {
        // One-level rules: constants, idempotence, annihilation.
        match (a.const_value(), b.const_value()) {
            (Some(false), _) | (_, Some(false)) => {
                self.stats.consts_folded += 1;
                return AigLit::FALSE;
            }
            (Some(true), _) => {
                self.stats.consts_folded += 1;
                return b;
            }
            (_, Some(true)) => {
                self.stats.consts_folded += 1;
                return a;
            }
            _ => {}
        }
        if a == b {
            self.stats.consts_folded += 1;
            return a;
        }
        if a == !b {
            self.stats.consts_folded += 1;
            return AigLit::FALSE;
        }
        if self.reduce && depth > 0 {
            if let Some(r) = self.rewrite_two_level(a, b, depth) {
                return r;
            }
        }
        // Canonical operand order, then the strash table.
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        if self.reduce {
            if let Some(&idx) = self.strash.get(&(a.0, b.0)) {
                self.stats.strash_hits += 1;
                return AigLit::new(idx, false);
            }
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(AigNode::And(a, b));
        if self.reduce {
            self.strash.insert((a.0, b.0), idx);
        }
        self.stats.nodes += 1;
        AigLit::new(idx, false)
    }

    /// The two-level rule catalogue (Brummayer–Biere local AIG rewriting):
    /// looks one level into AND/NAND operands for contradiction,
    /// subsumption, idempotence, substitution and resolution.  Returns
    /// `None` when no rule applies.
    fn rewrite_two_level(&mut self, a: AigLit, b: AigLit, depth: u32) -> Option<AigLit> {
        // Asymmetric rules, tried in both orientations.
        for (p, q) in [(a, b), (b, a)] {
            if let Some((x, y)) = self.and_fanins(p) {
                // contradiction: (x & y) & !x  ->  false
                if q == !x || q == !y {
                    self.stats.rewrites += 1;
                    return Some(AigLit::FALSE);
                }
                // idempotence: (x & y) & x  ->  x & y
                if q == x || q == y {
                    self.stats.rewrites += 1;
                    return Some(p);
                }
            }
            if let Some((x, y)) = self.nand_fanins(p) {
                // subsumption: !(x & y) & !x  ->  !x
                if q == !x || q == !y {
                    self.stats.rewrites += 1;
                    return Some(q);
                }
                // substitution: !(x & y) & x  ->  !y & x
                if q == x {
                    self.stats.rewrites += 1;
                    return Some(self.and_depth(!y, q, depth - 1));
                }
                if q == y {
                    self.stats.rewrites += 1;
                    return Some(self.and_depth(!x, q, depth - 1));
                }
            }
        }
        // Symmetric rules over two AND / two NAND operands.
        if let (Some((x, y)), Some((u, v))) = (self.and_fanins(a), self.and_fanins(b)) {
            // contradiction: (x & y) & (u & v) with complementary factors
            if x == !u || x == !v || y == !u || y == !v {
                self.stats.rewrites += 1;
                return Some(AigLit::FALSE);
            }
        }
        if let (Some((x, y)), Some((u, v))) = (self.nand_fanins(a), self.nand_fanins(b)) {
            // resolution: !(x & y) & !(x & !y)  ->  !x
            let resolved = if (x == u && y == !v) || (x == v && y == !u) {
                Some(!x)
            } else if (y == u && x == !v) || (y == v && x == !u) {
                Some(!y)
            } else {
                None
            };
            if let Some(r) = resolved {
                self.stats.rewrites += 1;
                return Some(r);
            }
        }
        None
    }

    /// Recognises the gate a node computes, looking through the AND/NAND
    /// structure for the XOR and MUX shapes the derived-gate constructors
    /// build (`and(!and(p, q), !and(!p, !q))` is `p ⊕ q`;
    /// `and(!and(c, t), !and(!c, e))` is `!mux(c, t, e)`).  The CNF emitter
    /// uses this to encode those gates natively — the multi-literal XOR/MUX
    /// clauses propagate much better than the decomposed AND trees, and the
    /// internal nodes need no variables at all — while the graph itself
    /// stays a pure AIG that the strash table shares structurally.
    pub fn gate_kind(&self, node: u32) -> Option<GateKind> {
        let AigNode::And(a, b) = self.nodes[node as usize] else {
            return None;
        };
        if let (Some((p, q)), Some((r, s))) = (self.nand_fanins(a), self.nand_fanins(b)) {
            // XOR: the two product terms cover complementary input pairs.
            if (r == !p && s == !q) || (r == !q && s == !p) {
                return Some(GateKind::Xor(p, q));
            }
            // !MUX: exactly one complementary pair — its literal is the
            // select, the leftover fanins are the branches.
            for (c, t, e) in [(p, q, s), (p, q, r), (q, p, s), (q, p, r)] {
                let other = if e == s { r } else { s };
                if other == !c {
                    return Some(GateKind::NotMux(c, t, e));
                }
            }
        }
        Some(GateKind::And(a, b))
    }

    /// The OR of two edges.
    pub fn or(&mut self, a: AigLit, b: AigLit) -> AigLit {
        let n = self.and(!a, !b);
        !n
    }

    /// The XOR of two edges: `!(!(a & !b) & !(!a & b))`.
    pub fn xor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        let p = self.and(a, !b);
        let q = self.and(!a, b);
        let n = self.and(!p, !q);
        !n
    }

    /// The boolean equivalence of two edges (one complement away from
    /// [`xor`](Self::xor), so the internal products are shared).
    pub fn iff(&mut self, a: AigLit, b: AigLit) -> AigLit {
        !self.xor(a, b)
    }

    /// The implication `a -> b`.
    pub fn implies(&mut self, a: AigLit, b: AigLit) -> AigLit {
        self.or(!a, b)
    }

    /// The multiplexer `if c then t else e`.
    pub fn mux(&mut self, c: AigLit, t: AigLit, e: AigLit) -> AigLit {
        if t == e {
            return t;
        }
        let p = self.and(c, t);
        let q = self.and(!c, e);
        let n = self.and(!p, !q);
        !n
    }

    /// Evaluates a literal under an assignment of the inputs (used by the
    /// unit tests; missing inputs default to false).
    #[cfg(test)]
    fn eval(&self, l: AigLit, inputs: &FastMap<u32, bool>) -> bool {
        let v = match self.nodes[l.node() as usize] {
            AigNode::Const => true,
            AigNode::Input => *inputs.get(&l.node()).unwrap_or(&false),
            AigNode::And(a, b) => self.eval(a, inputs) && self.eval(b, inputs),
        };
        v != l.is_complemented()
    }
}

/// Polarity needed of a node definition: bit 0 = the node literal may be
/// forced true (clauses `v -> fanins`), bit 1 = it may be forced false
/// (clause `fanins -> v`).
const POL_POS: u8 = 1;
const POL_NEG: u8 = 2;

/// The polarity-aware Tseitin pass: AIG literals to CNF literals.
///
/// The node→variable mapping is **append-only**: once a node has a CNF
/// variable it keeps it forever, and clauses are only ever added, never
/// retracted.  A long-lived SAT solver built on top (learnt clauses, VSIDS,
/// saved phases, the clause-database reduction machinery) therefore stays
/// valid across any number of emission calls — the incremental contract the
/// BMC and CEGIS drivers rely on.
///
/// With polarity awareness on (the default), [`require`](AigCnf::require)
/// emits, per node, only the implication clauses needed for the requested
/// polarity of its cone (Plaisted–Greenbaum); nodes shared between
/// assertions get their definition once, and a later request for the other
/// polarity adds just the missing clauses.  With it off, every touched node
/// is defined biconditionally — the direct-blasting baseline.
#[derive(Debug, Clone)]
pub struct AigCnf {
    /// Node index → CNF variable, allocated on first need.
    node_var: Vec<Option<Var>>,
    /// Per-node emitted-polarity mask ([`POL_POS`] / [`POL_NEG`]).
    emitted: Vec<u8>,
    polarity_aware: bool,
    vars_emitted: u64,
    clauses_emitted: u64,
}

impl AigCnf {
    /// Creates an emitter whose constant node maps to `true_var` (the caller
    /// owns the unit clause asserting it).
    pub fn new(true_var: Var) -> Self {
        AigCnf {
            node_var: vec![Some(true_var)],
            emitted: vec![POL_POS | POL_NEG],
            polarity_aware: true,
            vars_emitted: 0,
            clauses_emitted: 0,
        }
    }

    /// Turns polarity awareness off: subsequent emissions define every
    /// touched node biconditionally (both implication directions).
    pub fn set_polarity_aware(&mut self, on: bool) {
        self.polarity_aware = on;
    }

    /// CNF variables/clauses emitted so far (the graph-side fields are
    /// zero; the blaster joins both halves).
    pub fn stats(&self) -> AigStats {
        AigStats {
            cnf_vars: self.vars_emitted,
            cnf_clauses: self.clauses_emitted,
            ..AigStats::default()
        }
    }

    /// Pre-assigns a CNF variable to an input node (the bit-blaster
    /// allocates variable bits eagerly so model read-back literals exist
    /// even when no clause mentions them).
    pub fn register_input(&mut self, l: AigLit, var: Var) {
        debug_assert!(!l.is_complemented(), "inputs are registered positively");
        self.reserve(l.node());
        let slot = &mut self.node_var[l.node() as usize];
        debug_assert!(slot.is_none(), "input already registered");
        *slot = Some(var);
    }

    fn reserve(&mut self, node: u32) {
        let needed = node as usize + 1;
        if self.node_var.len() < needed {
            self.node_var.resize(needed, None);
            self.emitted.resize(needed, 0);
        }
    }

    fn var_of(&mut self, cnf: &mut Cnf, node: u32) -> Var {
        self.reserve(node);
        if let Some(v) = self.node_var[node as usize] {
            return v;
        }
        let v = cnf.fresh_var();
        self.node_var[node as usize] = Some(v);
        self.vars_emitted += 1;
        v
    }

    /// The CNF literal of an edge, allocating the node variable if needed
    /// (no clauses are emitted — pair with [`require`](Self::require) before
    /// asserting or assuming the literal).
    pub fn lit_of(&mut self, cnf: &mut Cnf, l: AigLit) -> Lit {
        let v = self.var_of(cnf, l.node());
        Lit::new(v, !l.is_complemented())
    }

    /// Emits the definition clauses the cone of `root` needs so that
    /// asserting (or assuming) the returned literal means exactly "`root`
    /// holds", and returns that literal.
    ///
    /// Per Plaisted–Greenbaum, a literal occurring positively needs only the
    /// `node -> fanins` half of each definition on un-complemented paths and
    /// the `fanins -> node` half on complemented ones; everything already
    /// emitted (by any earlier call, for any earlier polarity) is skipped.
    pub fn require(&mut self, aig: &Aig, cnf: &mut Cnf, root: AigLit) -> Lit {
        let out = self.lit_of(cnf, root);
        let root_pol = if root.is_complemented() {
            POL_NEG
        } else {
            POL_POS
        };
        let mut stack: Vec<(u32, u8)> = vec![(root.node(), root_pol)];
        while let Some((node, pol)) = stack.pop() {
            let pol = if self.polarity_aware {
                pol
            } else {
                POL_POS | POL_NEG
            };
            self.reserve(node);
            let missing = pol & !self.emitted[node as usize];
            if missing == 0 {
                continue;
            }
            self.emitted[node as usize] |= missing;
            let Some(kind) = aig.gate_kind(node) else {
                continue; // constants and inputs have no definition
            };
            let v = Lit::pos(self.var_of(cnf, node));
            match kind {
                GateKind::And(a, b) => {
                    let la = self.lit_of(cnf, a);
                    let lb = self.lit_of(cnf, b);
                    if missing & POL_POS != 0 {
                        cnf.add_clause([!v, la]);
                        cnf.add_clause([!v, lb]);
                        self.clauses_emitted += 2;
                    }
                    if missing & POL_NEG != 0 {
                        cnf.add_clause([v, !la, !lb]);
                        self.clauses_emitted += 1;
                    }
                    for edge in [a, b] {
                        let mut child = 0u8;
                        if missing & POL_POS != 0 {
                            child |= if edge.is_complemented() {
                                POL_NEG
                            } else {
                                POL_POS
                            };
                        }
                        if missing & POL_NEG != 0 {
                            child |= if edge.is_complemented() {
                                POL_POS
                            } else {
                                POL_NEG
                            };
                        }
                        stack.push((edge.node(), child));
                    }
                }
                GateKind::Xor(a, b) => {
                    // Native XOR clauses over the grandchildren — the
                    // internal product nodes get neither variables nor
                    // definitions for this occurrence.
                    let la = self.lit_of(cnf, a);
                    let lb = self.lit_of(cnf, b);
                    if missing & POL_POS != 0 {
                        cnf.add_clause([!v, la, lb]);
                        cnf.add_clause([!v, !la, !lb]);
                        self.clauses_emitted += 2;
                    }
                    if missing & POL_NEG != 0 {
                        cnf.add_clause([v, la, !lb]);
                        cnf.add_clause([v, !la, lb]);
                        self.clauses_emitted += 2;
                    }
                    // Every clause mentions both phases of both operands.
                    stack.push((a.node(), POL_POS | POL_NEG));
                    stack.push((b.node(), POL_POS | POL_NEG));
                }
                GateKind::NotMux(c, t, e) => {
                    // Native (complemented) MUX clauses, including the
                    // redundant but propagation-friendly branch pair.
                    let lc = self.lit_of(cnf, c);
                    let lt = self.lit_of(cnf, t);
                    let le = self.lit_of(cnf, e);
                    if missing & POL_POS != 0 {
                        cnf.add_clause([!v, !lc, !lt]);
                        cnf.add_clause([!v, lc, !le]);
                        cnf.add_clause([!v, !lt, !le]);
                        self.clauses_emitted += 3;
                    }
                    if missing & POL_NEG != 0 {
                        cnf.add_clause([v, !lc, lt]);
                        cnf.add_clause([v, lc, le]);
                        cnf.add_clause([v, lt, le]);
                        self.clauses_emitted += 3;
                    }
                    for edge in [c, t, e] {
                        stack.push((edge.node(), POL_POS | POL_NEG));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{SatSolver, SolveOutcome};

    #[test]
    fn literal_encoding_roundtrips() {
        let mut g = Aig::new();
        let a = g.input();
        assert!(!a.is_complemented());
        assert!((!a).is_complemented());
        assert_eq!(!!a, a);
        assert_eq!(AigLit::TRUE.const_value(), Some(true));
        assert_eq!(AigLit::FALSE.const_value(), Some(false));
        assert_eq!(!AigLit::TRUE, AigLit::FALSE);
        assert_eq!(a.const_value(), None);
    }

    #[test]
    fn constant_propagation_folds_ands() {
        let mut g = Aig::new();
        let a = g.input();
        let t = g.const_lit(true);
        let f = g.const_lit(false);
        assert_eq!(g.and(a, t), a);
        assert_eq!(g.and(t, a), a);
        assert_eq!(g.and(a, f), AigLit::FALSE);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), AigLit::FALSE);
        assert_eq!(g.num_nodes(), 2, "no AND node was created");
        assert_eq!(g.stats().consts_folded, 5);
    }

    #[test]
    fn structural_hashing_shares_nodes() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let n1 = g.and(a, b);
        let n2 = g.and(b, a); // operand order is canonicalised
        assert_eq!(n1, n2);
        let x1 = g.xor(a, b);
        let x2 = g.xor(b, a);
        assert_eq!(x1, x2);
        let e = g.iff(a, b);
        assert_eq!(e, !x1, "iff is one complement away from xor");
        let stats = g.stats();
        assert!(stats.strash_hits >= 4, "strash hits: {}", stats.strash_hits);
    }

    #[test]
    fn two_level_rules_fire() {
        let mut g = Aig::new();
        let x = g.input();
        let y = g.input();
        let xy = g.and(x, y);
        // contradiction: (x & y) & !x
        assert_eq!(g.and(xy, !x), AigLit::FALSE);
        // idempotence: (x & y) & y
        assert_eq!(g.and(xy, y), xy);
        // subsumption: !(x & y) & !y
        assert_eq!(g.and(!xy, !y), !y);
        // substitution: !(x & y) & x == !y & x
        let sub = g.and(!xy, x);
        let want = g.and(!y, x);
        assert_eq!(sub, want);
        // resolution: !(x & y) & !(x & !y) == !x
        let xny = g.and(x, !y);
        assert_eq!(g.and(!xy, !xny), !x);
        // symmetric contradiction: (x & y) & (!x & y)... folds via (!x & y)
        let nxy = g.and(!x, y);
        assert_eq!(g.and(xy, nxy), AigLit::FALSE);
        assert!(g.stats().rewrites >= 6);
    }

    #[test]
    fn reduce_off_creates_fresh_nodes_but_still_folds_constants() {
        let mut g = Aig::new();
        g.set_reduce(false);
        let a = g.input();
        let b = g.input();
        let n1 = g.and(a, b);
        let n2 = g.and(a, b);
        assert_ne!(n1, n2, "strash off: no sharing");
        let t = g.const_lit(true);
        assert_eq!(g.and(a, t), a, "one-level folding stays on");
        assert_eq!(g.stats().strash_hits, 0);
    }

    #[test]
    fn derived_gates_match_truth_tables() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let gates = [
            g.and(a, b),
            g.or(a, b),
            g.xor(a, b),
            g.iff(a, b),
            g.implies(a, b),
            g.mux(c, a, b),
        ];
        for bits in 0..8u32 {
            let (av, bv, cv) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            let env = FastMap::from_iter([(a.node(), av), (b.node(), bv), (c.node(), cv)]);
            let want = [
                av && bv,
                av || bv,
                av ^ bv,
                av == bv,
                !av || bv,
                if cv { av } else { bv },
            ];
            for (gate, expect) in gates.iter().zip(want) {
                assert_eq!(g.eval(*gate, &env), expect, "{gate} on {bits:03b}");
            }
        }
    }

    /// Emits `root` into a fresh CNF (with the true-var unit clause) and
    /// returns the solver plus the literal.
    fn emit(g: &Aig, root: AigLit, polarity_aware: bool) -> (Cnf, AigCnf, Lit) {
        let mut cnf = Cnf::new();
        let t = cnf.fresh_var();
        cnf.add_clause([Lit::pos(t)]);
        let mut e = AigCnf::new(t);
        e.set_polarity_aware(polarity_aware);
        let l = e.require(g, &mut cnf, root);
        (cnf, e, l)
    }

    #[test]
    fn polarity_aware_emission_is_equisatisfiable() {
        // (a ^ b) & (a | c): satisfiable; conjoined with a=b and c=false it
        // is not.
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let x = g.xor(a, b);
        let o = g.or(a, c);
        let root = g.and(x, o);
        for pa in [true, false] {
            let (mut cnf, mut e, l) = emit(&g, root, pa);
            cnf.add_clause([l]);
            let mut sat = SatSolver::from_cnf(cnf.clone());
            assert_eq!(sat.solve(), SolveOutcome::Sat);
            // force a=b (both false) and c=false: the root is false
            let la = e.lit_of(&mut cnf, a);
            let lb = e.lit_of(&mut cnf, b);
            let lc = e.lit_of(&mut cnf, c);
            cnf.add_clause([!la]);
            cnf.add_clause([!lb]);
            cnf.add_clause([!lc]);
            let mut sat = SatSolver::from_cnf(cnf);
            assert_eq!(sat.solve(), SolveOutcome::Unsat);
        }
    }

    #[test]
    fn polarity_aware_models_evaluate_the_circuit() {
        // Assert !(a & b): polarity-aware emission uses only the negative
        // half of the AND definition, and any model's inputs must satisfy
        // the circuit.
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let n = g.and(a, b);
        let (mut cnf, mut e, l) = emit(&g, !n, true);
        cnf.add_clause([l]);
        let la = e.lit_of(&mut cnf, a);
        let lb = e.lit_of(&mut cnf, b);
        let mut sat = SatSolver::from_cnf(cnf);
        assert_eq!(sat.solve(), SolveOutcome::Sat);
        let av = sat.value_of(la.var());
        let bv = sat.value_of(lb.var());
        assert!(!(av && bv), "model must falsify a & b");
    }

    #[test]
    fn polarity_aware_emits_fewer_clauses_and_tops_up_on_demand() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let ab = g.and(a, b);
        let root = g.and(ab, c);
        let (mut cnf, mut e, _) = emit(&g, root, true);
        let pos_only = e.stats().cnf_clauses;
        assert_eq!(pos_only, 4, "two nodes, two positive clauses each");
        // Requiring the complement adds exactly the missing negative halves.
        let _ = e.require(&g, &mut cnf, !root);
        assert_eq!(e.stats().cnf_clauses, 6);
        // Re-requiring either polarity is free.
        let _ = e.require(&g, &mut cnf, root);
        let _ = e.require(&g, &mut cnf, !root);
        assert_eq!(e.stats().cnf_clauses, 6);
        // The biconditional baseline pays all three clauses per node upfront.
        let (_, e2, _) = emit(&g, root, false);
        assert_eq!(e2.stats().cnf_clauses, 6);
    }

    #[test]
    fn gate_kind_recognises_derived_gates() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let x = g.xor(a, b);
        // `xor` returns the complemented node, whose gate is the xnor —
        // i.e. an XOR over one complemented operand, in either orientation.
        assert!(matches!(
            g.gate_kind(x.node()),
            Some(GateKind::Xor(p, q)) if (p == a && q == !b) || (p == !b && q == a)
                || (p == !a && q == b) || (p == b && q == !a)
        ));
        let m = g.mux(c, a, b);
        assert!(matches!(g.gate_kind(m.node()), Some(GateKind::NotMux(..))));
        let n = g.and(a, b);
        assert!(matches!(g.gate_kind(n.node()), Some(GateKind::And(..))));
        assert!(g.gate_kind(a.node()).is_none(), "inputs are not gates");
    }

    #[test]
    fn native_xor_and_mux_emission_matches_the_circuit() {
        // Biconditional emission forces the root variable to the circuit
        // value under every input assignment.
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let roots = [g.xor(a, b), g.mux(c, a, b), g.iff(a, b)];
        let mut cnf = Cnf::new();
        let t = cnf.fresh_var();
        cnf.add_clause([Lit::pos(t)]);
        let mut e = AigCnf::new(t);
        e.set_polarity_aware(false);
        let root_lits: Vec<Lit> = roots.iter().map(|&r| e.require(&g, &mut cnf, r)).collect();
        let la = e.lit_of(&mut cnf, a);
        let lb = e.lit_of(&mut cnf, b);
        let lc = e.lit_of(&mut cnf, c);
        let mut sat = SatSolver::from_cnf(cnf);
        for bits in 0..8u32 {
            let (av, bv, cv) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            let assumps = [
                if av { la } else { !la },
                if bv { lb } else { !lb },
                if cv { lc } else { !lc },
            ];
            assert_eq!(sat.solve_under_assumptions(&assumps), SolveOutcome::Sat);
            let env = FastMap::from_iter([(a.node(), av), (b.node(), bv), (c.node(), cv)]);
            for (&root, &l) in roots.iter().zip(&root_lits) {
                let got = sat.value_of(l.var()) == l.is_positive();
                assert_eq!(got, g.eval(root, &env), "{root} on {bits:03b}");
            }
        }
    }

    #[test]
    fn node_variable_mapping_is_append_only() {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let n = g.and(a, b);
        let mut cnf = Cnf::new();
        let t = cnf.fresh_var();
        cnf.add_clause([Lit::pos(t)]);
        let mut e = AigCnf::new(t);
        let first = e.require(&g, &mut cnf, n);
        let again = e.require(&g, &mut cnf, n);
        assert_eq!(first, again);
        let neg = e.require(&g, &mut cnf, !n);
        assert_eq!(neg, !first, "same variable, complemented literal");
    }
}
