//! Word-level simplification ahead of bit-blasting.
//!
//! The [`TermManager`] constructors only simplify *locally at construction
//! time* (constant folding, neutral/absorbing elements).  Everything they
//! miss — `ite` chains whose condition is decided by an asserted equality,
//! extracts over concatenations, multiplications by powers of two, state
//! variables pinned to constants by the previous frame — is bit-blasted and
//! then searched clause by clause, which is exactly the work the SAT core is
//! worst at.  [`Rewriter`] removes that work *before* encoding:
//!
//! * **Rule-driven bottom-up rewriting.**  Every term is rebuilt through the
//!   manager's constructors (inheriting their folding) and then run through
//!   a rule catalogue: complement annihilation (`x & !x → 0`,
//!   `p ∧ ¬p → false`), `ite` collapsing (boolean-constant branches, nested
//!   same-condition `ite`s, negated conditions), comparison collapsing
//!   against extremal constants (`x <u 0 → false`, `x ≤u ones → true`),
//!   equality normalisation (`x + c₁ = c₂ → x = c₂ - c₁`,
//!   `a - b = 0 → a = b`, concatenation/extension splitting), strength
//!   reduction (`x * 2ᵏ → x << k`, division/remainder by powers of two,
//!   shifts by constants lowered to pure wiring), and extract/concat/extend
//!   pushing.  Results are cached per term, so shared subgraphs are visited
//!   once.
//!
//! * **Equality-driven propagation across an assertion set.**  Asserted
//!   conjuncts of the shape `v = t` (with `v` a variable not occurring in
//!   `t`) become *pins*: every later occurrence of `v` rewrites to `t`, and
//!   when `v` has not reached the bit-blaster yet, the defining equality is
//!   dropped entirely — the variable is never encoded.  For a BMC unrolling
//!   this turns the relational frame encoding (`x@k+1 = f(x@k)` over fresh
//!   frame variables) into functional composition over the inputs, and
//!   constants asserted by the initial state propagate through every frame
//!   they reach.  [`Rewriter::complete_model`] restores the values of
//!   eliminated variables after a satisfiable check, so models read back
//!   exactly as if nothing had been eliminated.
//!
//! The pass is *equisatisfiability-preserving per assertion set*: pins are
//! only harvested from permanent assertions, never from retractable
//! assumptions, so the incremental term-encoding cache stays coherent across
//! BMC depths and CEGIS rounds.  [`RewriteStats`] counts the work
//! (rewrites, rule hits, pins, dropped assertions) and [`EncodeStats`] joins
//! it with the bit-blaster's cache counters into the one reuse block that
//! the benches and experiment binaries print.

use std::fmt;

use crate::concrete::{eval_many, Assignment};
use crate::fast::{FastMap, FastSet};
use crate::sort::mask;
use crate::subst::rebuild_with;
use crate::term::{Op, TermId, TermManager};

/// Counters of the word-level rewriting pass.
///
/// Surfaced through [`EncodeStats`] → `SolverReuseStats` →
/// `BmcStats`/`Detection`, like the SAT core's `ReduceStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Rewrite requests whose result differs from the input term.
    pub terms_rewritten: u64,
    /// Catalogue-rule applications beyond constructor-level folding.
    pub rule_applications: u64,
    /// Rewrite-cache hits (shared subgraphs served without a revisit).
    pub cache_hits: u64,
    /// Asserted equalities turned into variable pins (substitutions).
    pub pins: u64,
    /// Asserted conjuncts eliminated outright (pinned definitions and
    /// conjuncts that rewrote to `true`).
    pub assertions_dropped: u64,
    /// Next-state updates dropped by the BMC cone-of-influence pass (filled
    /// in by `sepe_tsys::Bmc`; always zero at the solver level).
    pub coi_dropped_updates: u64,
}

impl RewriteStats {
    /// Merges another stats block into this one.
    pub fn absorb(&mut self, other: &RewriteStats) {
        self.terms_rewritten += other.terms_rewritten;
        self.rule_applications += other.rule_applications;
        self.cache_hits += other.cache_hits;
        self.pins += other.pins;
        self.assertions_dropped += other.assertions_dropped;
        self.coi_dropped_updates += other.coi_dropped_updates;
    }
}

/// The joint encoding-reuse picture: bit-blaster cache counters and the
/// rewrite counters in one block, so every reporting surface (bench_smoke,
/// table1, fig4) prints the same story instead of scattered counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct EncodeStats {
    /// Distinct terms with a cached CNF encoding.
    pub terms_cached: u64,
    /// Encoding lookups answered from the bit-blaster's cache.  Counts every
    /// hit — shared subgraphs revisited *within* one query as well as terms
    /// re-encountered *across* checks — so it upper-bounds (rather than
    /// exactly measures) the re-blasting avoided by persistence.
    pub terms_reused: u64,
    /// Word-level rewriting counters.
    pub rewrite: RewriteStats,
    /// Gate-level AIG counters: nodes created, strash hits, constants
    /// folded, local rewrites, CNF variables/clauses emitted by the
    /// polarity-aware Tseitin pass.
    pub aig: crate::aig::AigStats,
}

impl EncodeStats {
    /// Merges another stats block into this one.
    pub fn absorb(&mut self, other: &EncodeStats) {
        self.terms_cached += other.terms_cached;
        self.terms_reused += other.terms_reused;
        self.rewrite.absorb(&other.rewrite);
        self.aig.absorb(&other.aig);
    }

    /// Total encoding work avoided: blaster cache hits plus rewrite cache
    /// hits plus assertions the rewriter eliminated before encoding.
    pub fn total_reuse(&self) -> u64 {
        self.terms_reused + self.rewrite.cache_hits + self.rewrite.assertions_dropped
    }
}

impl fmt::Display for EncodeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache {}/{}  rewritten {} (rules {}, pins {}, dropped {}, coi-dropped {})  \
             aig {} (strash {}, folded {}, rw {})  cnf {}/{}",
            self.terms_cached,
            self.terms_reused,
            self.rewrite.terms_rewritten,
            self.rewrite.rule_applications,
            self.rewrite.pins,
            self.rewrite.assertions_dropped,
            self.rewrite.coi_dropped_updates,
            self.aig.nodes,
            self.aig.strash_hits,
            self.aig.consts_folded,
            self.aig.rewrites,
            self.aig.cnf_vars,
            self.aig.cnf_clauses,
        )
    }
}

/// How a pinned variable relates to the CNF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PinKind {
    /// The variable never reached the bit-blaster; its defining equality was
    /// dropped and the model value is reconstructed by
    /// [`Rewriter::complete_model`].
    Eliminated,
    /// The variable was already encoded when the equality arrived; the
    /// equality stays asserted and the pin only substitutes *future*
    /// occurrences.
    Encoded,
}

/// A pinned variable's normalised value and how it relates to the CNF.
#[derive(Debug, Clone, Copy)]
struct Pin {
    value: TermId,
    kind: PinKind,
}

/// One rewrite-cache entry.
#[derive(Debug, Clone, Copy)]
struct Cached {
    /// The rewritten term.
    result: TermId,
    /// One past the index of the largest variable in the key's support
    /// (0 for a ground term).  A pin can only change the entry if it pins a
    /// variable of the support, so a pin of a variable at or above this
    /// bound leaves it valid.
    var_bound: u32,
    /// [`PinLog`] length when the entry was computed or last confirmed.
    stamp: u32,
}

/// The pins made since the rewrite cache was last cleared, reduced to what
/// the cache-validity rule needs: the smallest variable pinned at or after
/// any log position.  `minima` is the stack of suffix minima — positions
/// and variables both strictly increasing — so a push is amortised O(1)
/// and a query a binary search.
#[derive(Debug, Clone, Default)]
struct PinLog {
    len: u32,
    minima: Vec<(u32, TermId)>,
}

impl PinLog {
    fn push(&mut self, var: TermId) {
        while self.minima.last().is_some_and(|&(_, v)| v >= var) {
            self.minima.pop();
        }
        self.minima.push((self.len, var));
        self.len += 1;
    }

    /// The smallest variable pinned at log position `from` or later.
    fn min_since(&self, from: u32) -> Option<TermId> {
        let i = self.minima.partition_point(|&(pos, _)| pos < from);
        self.minima.get(i).map(|&(_, v)| v)
    }

    fn clear(&mut self) {
        self.len = 0;
        self.minima.clear();
    }
}

/// The word-level rewriter: rule catalogue + equality pins + rewrite cache.
#[derive(Debug, Clone, Default)]
pub struct Rewriter {
    /// Pinned variable → fully normalised value and pin kind.  Invariant: no
    /// pin value contains a pinned variable (values are re-normalised
    /// whenever a pin is added), which keeps leaf substitution O(1) and
    /// model completion a single evaluation pass.
    pins: FastMap<TermId, Pin>,
    /// Pinned variables in insertion order.
    pin_order: Vec<TermId>,
    /// Rewrite cache.  An entry is valid iff no variable pinned after it
    /// was computed is below its `var_bound` (see [`PinLog`]); entries are
    /// re-checked on lookup, and the whole cache is cleared only when a
    /// stored pin value changes.
    cache: FastMap<TermId, Cached>,
    /// Pins since the last cache clear, for the validity rule.
    log: PinLog,
    /// Variables occurring in at least one stored pin value.  Lets pin
    /// insertion skip the invariant-restore pass in the common case where
    /// the new variable is fresher than every stored value (every BMC frame
    /// pin), avoiding a quadratic re-rewrite over long assertion sequences.
    value_vars: FastSet<TermId>,
    /// Subterms of stored pin values already scanned into `value_vars`
    /// (reset with it), so each shared subterm is scanned once.
    value_seen: FastSet<TermId>,
    stats: RewriteStats,
}

impl Rewriter {
    /// Creates an empty rewriter.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> RewriteStats {
        self.stats
    }

    /// Number of variables currently pinned to a value.
    pub fn num_pins(&self) -> usize {
        self.pins.len()
    }

    /// Rewrites a single term under the current rule set and pins, without
    /// harvesting new pins (the entry point for retractable assumptions,
    /// which must never constrain the permanent pin set).
    pub fn rewrite(&mut self, tm: &mut TermManager, t: TermId) -> TermId {
        let r = self.rewrite_inner(tm, t);
        if r != t {
            self.stats.terms_rewritten += 1;
        }
        r
    }

    /// Simplifies a batch of permanent assertions.
    ///
    /// Splits each term into its top-level conjuncts, harvests equality pins
    /// (`v = t`, asserted boolean variables and their negations) to a fixed
    /// point, and returns the conjuncts that still need to be asserted.
    /// `already_encoded(v)` must answer whether the variable `v` has already
    /// reached the bit-blaster of the calling solver: the defining equality
    /// of an already-encoded variable is *kept* (only future occurrences are
    /// substituted), while an unencoded variable is eliminated outright —
    /// its equality is dropped and the variable never enters the CNF.
    pub fn assert_simplify(
        &mut self,
        tm: &mut TermManager,
        terms: &[TermId],
        already_encoded: &dyn Fn(TermId) -> bool,
    ) -> Vec<TermId> {
        // Phase 1: harvest pins to a fixed point.  Every pass re-rewrites the
        // remaining conjuncts under the pins collected so far; the loop ends
        // after a full pass that adds no pin, so the surviving conjuncts are
        // normalised under the final pin set.
        let mut worklist: Vec<TermId> = Vec::new();
        for &t in terms {
            let r = self.rewrite(tm, t);
            collect_conjuncts(tm, r, &mut worklist);
        }
        let mut batch_pins: Vec<TermId> = Vec::new();
        loop {
            let mut changed = false;
            let mut survivors: Vec<TermId> = Vec::new();
            for &c in &worklist {
                let c = self.rewrite_inner(tm, c);
                let mut pieces = Vec::new();
                collect_conjuncts(tm, c, &mut pieces);
                for piece in pieces {
                    if tm.const_value(piece) == Some(1) {
                        self.stats.assertions_dropped += 1;
                        continue;
                    }
                    if let Some((var, value)) = pin_candidate(tm, piece) {
                        if self.add_pin(tm, var, value, already_encoded(var)) {
                            changed = true;
                            batch_pins.push(var);
                            continue;
                        }
                    }
                    survivors.push(piece);
                }
            }
            worklist = survivors;
            if !changed {
                break;
            }
        }

        // Phase 2: emit.  Kept pins (already-encoded variables) re-assert
        // their defining equality against the fully normalised value, which
        // by the pin invariant contains no pinned variable — so blasting it
        // can never smuggle an eliminated variable into the CNF.
        let mut out = Vec::new();
        for var in batch_pins {
            let pin = self.pins[&var];
            if pin.kind == PinKind::Encoded {
                out.push(tm.eq(var, pin.value));
            } else {
                self.stats.assertions_dropped += 1;
            }
        }
        for c in worklist {
            if tm.const_value(c) == Some(1) {
                self.stats.assertions_dropped += 1;
                continue;
            }
            out.push(c);
        }
        out
    }

    /// Extends a satisfying assignment with the values of every eliminated
    /// variable, evaluated bottom-up from the values of the variables that
    /// did reach the CNF.  Values already present (pins of already-encoded
    /// variables) are left untouched.
    pub fn complete_model(&self, tm: &TermManager, values: &mut Assignment) {
        if self.pin_order.is_empty() {
            return;
        }
        // Pin values never contain pinned variables, so every pin evaluates
        // directly against the base assignment — one shared-cache pass.
        let roots: Vec<TermId> = self.pin_order.iter().map(|v| self.pins[v].value).collect();
        let vals = eval_many(tm, &roots, values);
        for (&var, val) in self.pin_order.iter().zip(vals) {
            values.entry(var).or_insert(val);
        }
    }

    /// Records `var → rewrite(raw)` if it is admissible (the variable is not
    /// already pinned and does not occur in its own normalised value).
    /// Returns whether the pin was added.
    fn add_pin(&mut self, tm: &mut TermManager, var: TermId, raw: TermId, encoded: bool) -> bool {
        debug_assert!(matches!(tm.term(var).op, Op::Var { .. }));
        if self.pins.contains_key(&var) {
            return false;
        }
        let value = self.rewrite_inner(tm, raw);
        // The rewritten value's variables come from the raw value's support
        // and from the stored pin values of that support, so a variable
        // outside both provably does not occur and needs no walk.
        let in_values = self.value_vars.contains(&var);
        let may_occur = in_values || var.0 < self.cache[&raw].var_bound;
        if var == value || (may_occur && occurs(tm, var, value)) {
            return false;
        }
        let kind = if encoded {
            PinKind::Encoded
        } else {
            PinKind::Eliminated
        };
        self.pins.insert(var, Pin { value, kind });
        self.pin_order.push(var);
        self.stats.pins += 1;
        if !in_values {
            // No stored pin value mentions the new variable — the invariant
            // already holds (the common case: BMC frame variables are
            // fresher than everything asserted before them), so only the
            // cached rewrites over `var` go stale and only the occurrence
            // index needs extending.
            self.log.push(var);
            self.collect_value_vars(tm, value);
            return true;
        }
        // Restore the pin invariant: no stored value may mention the newly
        // pinned variable (or anything it now rewrites to).  Stored values
        // change here, which the validity rule does not track, so every
        // change clears the cache.
        self.clear_cache();
        loop {
            let mut settled = true;
            for i in 0..self.pin_order.len() {
                let v = self.pin_order[i];
                let old = self.pins[&v].value;
                let new = self.rewrite_inner(tm, old);
                if new != old {
                    self.pins.get_mut(&v).expect("pinned").value = new;
                    self.clear_cache();
                    settled = false;
                }
            }
            if settled {
                break;
            }
        }
        self.value_vars.clear();
        self.value_seen.clear();
        let values: Vec<TermId> = self.pins.values().map(|p| p.value).collect();
        for value in values {
            self.collect_value_vars(tm, value);
        }
        true
    }

    fn clear_cache(&mut self) {
        self.cache.clear();
        self.log.clear();
    }

    /// Adds every variable occurring in `t` to `value_vars`.  Subterms
    /// scanned since the index was last rebuilt are skipped: their
    /// variables are already in it.
    fn collect_value_vars(&mut self, tm: &TermManager, t: TermId) {
        let mut stack = vec![t];
        while let Some(t) = stack.pop() {
            if !self.value_seen.insert(t) {
                continue;
            }
            let op = &tm.term(t).op;
            if let Op::Var { .. } = op {
                self.value_vars.insert(t);
            } else {
                stack.extend(op.children());
            }
        }
    }

    /// Whether `t` has a valid cache entry; a valid entry is re-stamped so
    /// its next check is O(1).
    fn is_cached(&mut self, t: TermId) -> bool {
        let Some(entry) = self.cache.get_mut(&t) else {
            return false;
        };
        if entry.stamp != self.log.len {
            if let Some(pinned) = self.log.min_since(entry.stamp) {
                if pinned.0 < entry.var_bound {
                    return false;
                }
            }
            entry.stamp = self.log.len;
        }
        true
    }

    /// Bottom-up rewrite with caching: children first, then the node is
    /// rebuilt through the term-manager constructors and run through the
    /// rule catalogue.  Iterative, so deep BMC unrollings stay off the call
    /// stack.
    fn rewrite_inner(&mut self, tm: &mut TermManager, root: TermId) -> TermId {
        let mut stack = vec![(root, false)];
        while let Some((t, expanded)) = stack.pop() {
            if self.is_cached(t) {
                if !expanded {
                    self.stats.cache_hits += 1;
                }
                continue;
            }
            let op = tm.term(t).op.clone();
            let (result, var_bound) = match op {
                Op::Var { .. } => (self.pins.get(&t).map_or(t, |p| p.value), t.0 + 1),
                _ if op.is_leaf() => (t, 0),
                _ => {
                    let children = op.children();
                    if !expanded {
                        stack.push((t, true));
                        stack.extend(children.into_iter().map(|c| (c, false)));
                        continue;
                    }
                    // The children were looked up or computed after `t` was
                    // expanded, and no pin is made during a rewrite: their
                    // entries are valid.
                    let var_bound = children.iter().map(|c| self.cache[c].var_bound).max();
                    let rebuilt = rebuild_with(tm, t, &op, |id| self.cache[&id].result);
                    let result = self.apply_rules(tm, rebuilt);
                    (result, var_bound.unwrap_or(0))
                }
            };
            let stamp = self.log.len;
            self.cache.insert(
                t,
                Cached {
                    result,
                    var_bound,
                    stamp,
                },
            );
        }
        self.cache[&root].result
    }

    /// Runs the rule catalogue on one node to a local fixed point (bounded,
    /// so a cyclic rule pair can never loop).
    fn apply_rules(&mut self, tm: &mut TermManager, mut t: TermId) -> TermId {
        for _ in 0..8 {
            let next = rewrite_node(tm, t);
            if next == t {
                break;
            }
            self.stats.rule_applications += 1;
            t = next;
        }
        t
    }
}

/// Extracts the pin a conjunct defines, if any: `v = t`, a bare asserted
/// boolean variable, or its negation.  For variable-variable equalities the
/// younger (larger-id, typically fresher) variable is pinned to the older
/// one, which keeps BMC frame variables pointing backwards.
fn pin_candidate(tm: &mut TermManager, c: TermId) -> Option<(TermId, TermId)> {
    let is_var = |tm: &TermManager, t: TermId| matches!(tm.term(t).op, Op::Var { .. });
    match tm.term(c).op {
        Op::Var { .. } => {
            let t = tm.tru();
            Some((c, t))
        }
        Op::Not(a) if is_var(tm, a) => {
            let f = tm.fls();
            Some((a, f))
        }
        Op::Eq(a, b) => match (is_var(tm, a), is_var(tm, b)) {
            (true, true) => {
                let (var, val) = if a > b { (a, b) } else { (b, a) };
                Some((var, val))
            }
            (true, false) => Some((a, b)),
            (false, true) => Some((b, a)),
            (false, false) => None,
        },
        _ => None,
    }
}

/// Splits a term into its top-level conjuncts (flattening `And` trees).
fn collect_conjuncts(tm: &TermManager, t: TermId, out: &mut Vec<TermId>) {
    let mut stack = vec![t];
    while let Some(t) = stack.pop() {
        match tm.term(t).op {
            Op::And(a, b) => {
                stack.push(b);
                stack.push(a);
            }
            _ => out.push(t),
        }
    }
}

/// Whether `var` occurs anywhere in `t`.
fn occurs(tm: &TermManager, var: TermId, t: TermId) -> bool {
    let mut stack = vec![t];
    let mut seen: FastSet<TermId> = FastSet::default();
    while let Some(t) = stack.pop() {
        if t == var {
            return true;
        }
        if !seen.insert(t) {
            continue;
        }
        stack.extend(tm.term(t).op.children());
    }
    false
}

/// One pass of the rule catalogue over a single (already constructor-folded)
/// node.  Returns the input when no rule fires.
fn rewrite_node(tm: &mut TermManager, t: TermId) -> TermId {
    let op = tm.term(t).op.clone();
    match op {
        // ---- boolean complement annihilation ------------------------------
        Op::And(a, b) => {
            if complements(tm, a, b) {
                return tm.fls();
            }
            t
        }
        Op::Or(a, b) => {
            if complements(tm, a, b) {
                return tm.tru();
            }
            t
        }
        Op::Xor(a, b) => {
            if complements(tm, a, b) {
                return tm.tru();
            }
            t
        }
        // ---- bit-vector complement annihilation ---------------------------
        Op::BvAnd(a, b) => {
            if bv_complements(tm, a, b) {
                return tm.zero(tm.width(t));
            }
            t
        }
        Op::BvOr(a, b) | Op::BvXor(a, b) => {
            if bv_complements(tm, a, b) {
                return tm.ones(tm.width(t));
            }
            t
        }
        // ---- ite collapsing ----------------------------------------------
        Op::Ite(c, th, el) => rewrite_ite(tm, t, c, th, el),
        // ---- equality normalisation --------------------------------------
        Op::Eq(a, b) => rewrite_eq(tm, t, a, b),
        // ---- comparison collapsing ---------------------------------------
        Op::BvUlt(a, b) => {
            let w = tm.width(a);
            if tm.const_value(b) == Some(0) {
                return tm.fls(); // x <u 0
            }
            if tm.const_value(b) == Some(1) {
                let z = tm.zero(w);
                return tm.eq(a, z); // x <u 1  ⇔  x = 0
            }
            if tm.const_value(a) == Some(0) {
                let z = tm.zero(w);
                return tm.neq(b, z); // 0 <u x  ⇔  x ≠ 0
            }
            if tm.const_value(a) == Some(mask(u64::MAX, w)) {
                return tm.fls(); // ones <u x
            }
            if tm.const_value(b) == Some(mask(u64::MAX, w)) {
                let ones = tm.ones(w);
                return tm.neq(a, ones); // x <u ones  ⇔  x ≠ ones
            }
            t
        }
        Op::BvUle(a, b) => {
            let w = tm.width(a);
            if tm.const_value(a) == Some(0) {
                return tm.tru(); // 0 ≤u x
            }
            if tm.const_value(b) == Some(mask(u64::MAX, w)) {
                return tm.tru(); // x ≤u ones
            }
            if tm.const_value(b) == Some(0) {
                let z = tm.zero(w);
                return tm.eq(a, z); // x ≤u 0  ⇔  x = 0
            }
            if tm.const_value(a) == Some(mask(u64::MAX, w)) {
                let ones = tm.ones(w);
                return tm.eq(b, ones); // ones ≤u x  ⇔  x = ones
            }
            t
        }
        // ---- strength reduction ------------------------------------------
        Op::BvMul(a, b) => {
            let w = tm.width(t);
            let by_const = |tm: &mut TermManager, x: TermId, c: u64| -> Option<TermId> {
                if c.is_power_of_two() {
                    let k = tm.bv_const(c.trailing_zeros().into(), w);
                    return Some(tm.bv_shl(x, k));
                }
                None
            };
            if let Some(c) = tm.const_value(a) {
                if let Some(r) = by_const(tm, b, c) {
                    return r;
                }
            }
            if let Some(c) = tm.const_value(b) {
                if let Some(r) = by_const(tm, a, c) {
                    return r;
                }
            }
            t
        }
        Op::BvUdiv(a, b) => {
            if let Some(c) = tm.const_value(b) {
                if c == 1 {
                    return a;
                }
                if c.is_power_of_two() {
                    let w = tm.width(t);
                    let k = tm.bv_const(c.trailing_zeros().into(), w);
                    return tm.bv_lshr(a, k);
                }
            }
            t
        }
        Op::BvUrem(a, b) => {
            if let Some(c) = tm.const_value(b) {
                let w = tm.width(t);
                if c == 1 {
                    return tm.zero(w);
                }
                if c.is_power_of_two() {
                    let m = tm.bv_const(c - 1, w);
                    return tm.bv_and(a, m);
                }
            }
            t
        }
        // ---- constant shifts become pure wiring --------------------------
        Op::BvAdd(a, b) if a == b => {
            // x + x = x << 1, which the shift rules then lower to wiring.
            let w = tm.width(t);
            let one = tm.one(w);
            tm.bv_shl(a, one)
        }
        Op::BvShl(a, b) => {
            let w = tm.width(t);
            if let Some(s) = tm.const_value(b) {
                if s >= u64::from(w) {
                    return tm.zero(w);
                }
                if s > 0 {
                    let s = u32::try_from(s).expect("shift < width ≤ 64");
                    let kept = tm.bv_extract(a, w - s - 1, 0);
                    let zeros = tm.zero(s);
                    return tm.bv_concat(kept, zeros);
                }
            }
            t
        }
        Op::BvLshr(a, b) => {
            let w = tm.width(t);
            if let Some(s) = tm.const_value(b) {
                if s >= u64::from(w) {
                    return tm.zero(w);
                }
                if s > 0 {
                    let s = u32::try_from(s).expect("shift < width ≤ 64");
                    let kept = tm.bv_extract(a, w - 1, s);
                    return tm.bv_zero_ext(kept, s);
                }
            }
            t
        }
        Op::BvAshr(a, b) => {
            let w = tm.width(t);
            if let Some(s) = tm.const_value(b) {
                if s > 0 {
                    let s = u32::try_from(s.min(u64::from(w) - 1)).expect("clamped < width");
                    let kept = tm.bv_extract(a, w - 1, s);
                    return tm.bv_sign_ext(kept, s);
                }
            }
            t
        }
        // ---- bvsub normalisation -----------------------------------------
        Op::BvSub(a, b) => {
            if let Some(c) = tm.const_value(b) {
                let w = tm.width(t);
                let nc = tm.bv_const(c.wrapping_neg(), w);
                return tm.bv_add(a, nc); // x - c = x + (-c)
            }
            t
        }
        // ---- extract/extension pushing -----------------------------------
        Op::BvExtract { hi, lo, arg } => rewrite_extract(tm, t, hi, lo, arg),
        Op::BvZeroExt { by, arg } => {
            if let Op::BvZeroExt { by: by2, arg: a2 } = tm.term(arg).op {
                return tm.bv_zero_ext(a2, by + by2);
            }
            t
        }
        Op::BvSignExt { by, arg } => {
            if let Op::BvSignExt { by: by2, arg: a2 } = tm.term(arg).op {
                return tm.bv_sign_ext(a2, by + by2);
            }
            t
        }
        Op::BvConcat(a, b) => {
            // Zero high bits are a zero extension (normalises for the eq
            // splitter); adjacent extracts of one source re-fuse.
            if tm.const_value(a) == Some(0) {
                return tm.bv_zero_ext(b, tm.width(a));
            }
            if let (
                Op::BvExtract {
                    hi: h1,
                    lo: l1,
                    arg: x1,
                },
                Op::BvExtract {
                    hi: h2,
                    lo: l2,
                    arg: x2,
                },
            ) = (tm.term(a).op.clone(), tm.term(b).op.clone())
            {
                if x1 == x2 && l1 == h2 + 1 {
                    return tm.bv_extract(x1, h1, l2);
                }
            }
            t
        }
        _ => t,
    }
}

/// Whether `a` and `b` are boolean complements of each other.
fn complements(tm: &TermManager, a: TermId, b: TermId) -> bool {
    matches!(tm.term(a).op, Op::Not(x) if x == b) || matches!(tm.term(b).op, Op::Not(x) if x == a)
}

/// Whether `a` and `b` are bit-wise complements of each other.
fn bv_complements(tm: &TermManager, a: TermId, b: TermId) -> bool {
    matches!(tm.term(a).op, Op::BvNot(x) if x == b)
        || matches!(tm.term(b).op, Op::BvNot(x) if x == a)
}

fn rewrite_ite(tm: &mut TermManager, t: TermId, c: TermId, th: TermId, el: TermId) -> TermId {
    // Negated condition: swap the branches.
    if let Op::Not(inner) = tm.term(c).op {
        return tm.ite(inner, el, th);
    }
    // Nested ite under the same condition collapses.
    if let Op::Ite(c2, a, _) = tm.term(th).op {
        if c2 == c {
            return tm.ite(c, a, el);
        }
    }
    if let Op::Ite(c2, _, b) = tm.term(el).op {
        if c2 == c {
            return tm.ite(c, th, b);
        }
    }
    // Boolean branches lower to connectives (cheaper gates, more folding).
    if tm.sort(th).is_bool() {
        return match (tm.const_value(th), tm.const_value(el)) {
            (Some(1), Some(0)) => c,
            (Some(0), Some(1)) => tm.not(c),
            (Some(1), None) => tm.or(c, el),
            (Some(0), None) => {
                let nc = tm.not(c);
                tm.and(nc, el)
            }
            (None, Some(1)) => {
                let nc = tm.not(c);
                tm.or(nc, th)
            }
            (None, Some(0)) => tm.and(c, th),
            _ => t,
        };
    }
    t
}

fn rewrite_eq(tm: &mut TermManager, t: TermId, a: TermId, b: TermId) -> TermId {
    // Boolean equality against a constant is the operand (or its negation).
    if tm.sort(a).is_bool() {
        if let Some(v) = tm.const_value(a) {
            return if v == 1 { b } else { tm.not(b) };
        }
        if let Some(v) = tm.const_value(b) {
            return if v == 1 { a } else { tm.not(a) };
        }
        return t;
    }
    let w = tm.width(a);
    // Orient: `x` symbolic, `c` the constant side (if any).
    let (x, c) = match (tm.const_value(a), tm.const_value(b)) {
        (Some(_), Some(_)) => return t, // folded at construction
        (Some(c), None) => (b, Some(c)),
        (None, Some(c)) => (a, Some(c)),
        (None, None) => (a, None),
    };
    if let Some(c) = c {
        match tm.term(x).op.clone() {
            // Isolate the variable side of invertible operations.
            Op::BvAdd(p, q) => {
                if let Some(k) = tm.const_value(p) {
                    let r = tm.bv_const(c.wrapping_sub(k), w);
                    return tm.eq(q, r);
                }
                if let Some(k) = tm.const_value(q) {
                    let r = tm.bv_const(c.wrapping_sub(k), w);
                    return tm.eq(p, r);
                }
            }
            Op::BvXor(p, q) => {
                if let Some(k) = tm.const_value(p) {
                    let r = tm.bv_const(c ^ k, w);
                    return tm.eq(q, r);
                }
                if let Some(k) = tm.const_value(q) {
                    let r = tm.bv_const(c ^ k, w);
                    return tm.eq(p, r);
                }
            }
            Op::BvNot(p) => {
                let r = tm.bv_const(!c, w);
                return tm.eq(p, r);
            }
            Op::BvNeg(p) => {
                let r = tm.bv_const(c.wrapping_neg(), w);
                return tm.eq(p, r);
            }
            // Split words against the constant.
            Op::BvConcat(hi, lo) => {
                let wl = tm.width(lo);
                let chi = tm.bv_const(c >> wl, tm.width(hi));
                let clo = tm.bv_const(c, wl);
                let e1 = tm.eq(hi, chi);
                let e2 = tm.eq(lo, clo);
                return tm.and(e1, e2);
            }
            Op::BvZeroExt { arg, .. } => {
                let aw = tm.width(arg);
                if mask(c, aw) == c {
                    let cl = tm.bv_const(c, aw);
                    return tm.eq(arg, cl);
                }
                return tm.fls(); // high bits of a zero extension are zero
            }
            Op::BvSignExt { arg, .. } => {
                let aw = tm.width(arg);
                let low = mask(c, aw);
                if mask(crate::sort::sign_extend(low, aw), w) == c {
                    let cl = tm.bv_const(low, aw);
                    return tm.eq(arg, cl);
                }
                return tm.fls();
            }
            _ => {}
        }
        // Equality with a constant decided by an ite over shared branches.
        if let Op::Ite(cond, p, q) = tm.term(x).op {
            let pe = tm.const_value(p);
            let qe = tm.const_value(q);
            if pe.is_some() && qe.is_some() {
                let tv = tm.bool_const(pe == Some(c));
                let ev = tm.bool_const(qe == Some(c));
                return tm.ite(cond, tv, ev);
            }
        }
        return t;
    }
    // Structural: a - b = 0 ⇔ a = b, a ^ b = 0 ⇔ a = b (the constant side
    // was handled above, so reaching here means neither side is constant);
    // same-width concatenations compare component-wise.
    match (tm.term(a).op.clone(), tm.term(b).op.clone()) {
        (Op::BvConcat(h1, l1), Op::BvConcat(h2, l2))
            if tm.width(h1) == tm.width(h2) && tm.width(l1) == tm.width(l2) =>
        {
            let e1 = tm.eq(h1, h2);
            let e2 = tm.eq(l1, l2);
            tm.and(e1, e2)
        }
        (Op::Ite(cond, p, q), _) if p == b || q == b => {
            let pe = tm.eq(p, b);
            let qe = tm.eq(q, b);
            tm.ite(cond, pe, qe)
        }
        (_, Op::Ite(cond, p, q)) if p == a || q == a => {
            let pe = tm.eq(p, a);
            let qe = tm.eq(q, a);
            tm.ite(cond, pe, qe)
        }
        _ => t,
    }
}

fn rewrite_extract(tm: &mut TermManager, t: TermId, hi: u32, lo: u32, arg: TermId) -> TermId {
    match tm.term(arg).op.clone() {
        Op::BvExtract {
            lo: l2, arg: a2, ..
        } => tm.bv_extract(a2, l2 + hi, l2 + lo),
        Op::BvConcat(a, b) => {
            let wb = tm.width(b);
            if hi < wb {
                tm.bv_extract(b, hi, lo)
            } else if lo >= wb {
                tm.bv_extract(a, hi - wb, lo - wb)
            } else {
                let high = tm.bv_extract(a, hi - wb, 0);
                let low = tm.bv_extract(b, wb - 1, lo);
                tm.bv_concat(high, low)
            }
        }
        Op::BvZeroExt { arg: a2, .. } => {
            let aw = tm.width(a2);
            if hi < aw {
                tm.bv_extract(a2, hi, lo)
            } else if lo >= aw {
                tm.zero(hi - lo + 1)
            } else {
                let low = tm.bv_extract(a2, aw - 1, lo);
                tm.bv_zero_ext(low, hi - aw + 1)
            }
        }
        Op::BvSignExt { arg: a2, .. } => {
            let aw = tm.width(a2);
            if hi < aw {
                tm.bv_extract(a2, hi, lo)
            } else {
                t
            }
        }
        _ => t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concrete::eval;
    use crate::sort::Sort;

    fn rw(tm: &mut TermManager, t: TermId) -> TermId {
        Rewriter::new().rewrite(tm, t)
    }

    #[test]
    fn complement_annihilation() {
        let mut tm = TermManager::new();
        let p = tm.var("p", Sort::Bool);
        let np = tm.not(p);
        let c = tm.and(p, np);
        assert_eq!(rw(&mut tm, c), tm.fls());
        let d = tm.or(p, np);
        assert_eq!(rw(&mut tm, d), tm.tru());
        let x = tm.var("x", Sort::BitVec(8));
        let nx = tm.bv_not(x);
        let a = tm.bv_and(x, nx);
        let ra = rw(&mut tm, a);
        assert_eq!(tm.const_value(ra), Some(0));
        let o = tm.bv_or(x, nx);
        let ro = rw(&mut tm, o);
        assert_eq!(tm.const_value(ro), Some(0xff));
    }

    #[test]
    fn ite_collapsing() {
        let mut tm = TermManager::new();
        let c = tm.var("c", Sort::Bool);
        let p = tm.var("p", Sort::Bool);
        let t = tm.tru();
        let f = tm.fls();
        let i1 = tm.ite(c, t, f);
        assert_eq!(rw(&mut tm, i1), c);
        let i2 = tm.ite(c, f, t);
        assert_eq!(rw(&mut tm, i2), tm.not(c));
        let i3 = tm.ite(c, p, f);
        assert_eq!(rw(&mut tm, i3), tm.and(c, p));
        // negated condition swaps branches
        let x = tm.var("x", Sort::BitVec(4));
        let y = tm.var("y", Sort::BitVec(4));
        let nc = tm.not(c);
        let i4 = tm.ite(nc, x, y);
        assert_eq!(rw(&mut tm, i4), tm.ite(c, y, x));
        // nested same-condition ite collapses
        let inner = tm.ite(c, x, y);
        let outer = tm.ite(c, inner, y);
        assert_eq!(rw(&mut tm, outer), tm.ite(c, x, y));
    }

    #[test]
    fn equality_normalisation() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let c3 = tm.bv_const(3, 8);
        let c10 = tm.bv_const(10, 8);
        let sum = tm.bv_add(x, c3);
        let e = tm.eq(sum, c10);
        let c7 = tm.bv_const(7, 8);
        assert_eq!(rw(&mut tm, e), tm.eq(x, c7));
        // a - b = 0 via bvsub normalisation and xor
        let y = tm.var("y", Sort::BitVec(8));
        let z = tm.zero(8);
        let x1 = tm.bv_xor(x, y);
        let e2 = tm.eq(x1, z);
        // x ^ y = 0 is not directly rewritten (no constant operand inside),
        // but boolean eq against constants is:
        let _ = e2;
        let p = tm.var("p", Sort::Bool);
        let tr = tm.tru();
        let e3 = tm.eq(p, tr);
        assert_eq!(rw(&mut tm, e3), p);
    }

    #[test]
    fn concat_and_extension_equalities_split() {
        let mut tm = TermManager::new();
        let a = tm.var("a", Sort::BitVec(4));
        let b = tm.var("b", Sort::BitVec(4));
        let cat = tm.bv_concat(a, b);
        let c = tm.bv_const(0x5a, 8);
        let eq1 = tm.eq(cat, c);
        let e = rw(&mut tm, eq1);
        let c5 = tm.bv_const(5, 4);
        let ca = tm.bv_const(0xa, 4);
        let want = {
            let e1 = tm.eq(a, c5);
            let e2 = tm.eq(b, ca);
            tm.and(e1, e2)
        };
        assert_eq!(e, want);
        // zero extension against an unreachable constant is false
        let zx = tm.bv_zero_ext(a, 4);
        let big = tm.bv_const(0x80, 8);
        let eq2 = tm.eq(zx, big);
        assert_eq!(rw(&mut tm, eq2), tm.fls());
        let small = tm.bv_const(0x07, 8);
        let c7 = tm.bv_const(7, 4);
        let eq3 = tm.eq(zx, small);
        let want3 = tm.eq(a, c7);
        assert_eq!(rw(&mut tm, eq3), want3);
    }

    #[test]
    fn comparison_collapsing() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let z = tm.zero(8);
        let one = tm.one(8);
        let ones = tm.ones(8);
        let t1 = tm.bv_ult(x, z);
        assert_eq!(rw(&mut tm, t1), tm.fls());
        let t2 = tm.bv_ule(z, x);
        assert_eq!(rw(&mut tm, t2), tm.tru());
        let t3 = tm.bv_ule(x, ones);
        assert_eq!(rw(&mut tm, t3), tm.tru());
        let t4 = tm.bv_ult(x, one);
        let x_is_0 = tm.eq(x, z);
        assert_eq!(rw(&mut tm, t4), x_is_0);
        let t5 = tm.bv_ule(x, z);
        assert_eq!(rw(&mut tm, t5), x_is_0);
        let t6 = tm.bv_ult(z, x);
        let nz = rw(&mut tm, t6);
        assert_eq!(nz, tm.neq(x, z));
    }

    #[test]
    fn strength_reductions_agree_with_semantics() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let c8 = tm.bv_const(8, 8);
        let cases = [
            tm.bv_mul(x, c8),
            tm.bv_udiv(x, c8),
            tm.bv_urem(x, c8),
            tm.bv_shl(x, c8),
            tm.bv_lshr(x, c8),
            tm.bv_ashr(x, c8),
            tm.bv_add(x, x),
        ];
        for t in cases {
            let r = rw(&mut tm, t);
            for v in [0u64, 1, 7, 8, 0x80, 0xff, 0x5a] {
                let env: Assignment = [(x, v)].into_iter().collect();
                assert_eq!(
                    eval(&tm, t, &env),
                    eval(&tm, r, &env),
                    "{} vs {}",
                    tm.display(t),
                    tm.display(r)
                );
            }
        }
        // mul by 8 must not leave a multiplier behind
        let mul = tm.bv_mul(x, c8);
        let m = rw(&mut tm, mul);
        assert!(!tm.display(m).contains("bvmul"), "{}", tm.display(m));
    }

    #[test]
    fn extract_pushing() {
        let mut tm = TermManager::new();
        let a = tm.var("a", Sort::BitVec(8));
        let b = tm.var("b", Sort::BitVec(8));
        let cat = tm.bv_concat(a, b);
        // fully inside the low part
        let e1 = tm.bv_extract(cat, 7, 2);
        let w1 = tm.bv_extract(b, 7, 2);
        assert_eq!(rw(&mut tm, e1), w1);
        // fully inside the high part
        let e2 = tm.bv_extract(cat, 15, 10);
        let w2 = tm.bv_extract(a, 7, 2);
        assert_eq!(rw(&mut tm, e2), w2);
        // straddling: concat of the two pieces
        let e3 = tm.bv_extract(cat, 11, 4);
        let r = rw(&mut tm, e3);
        let want = {
            let hi = tm.bv_extract(a, 3, 0);
            let lo = tm.bv_extract(b, 7, 4);
            tm.bv_concat(hi, lo)
        };
        assert_eq!(r, want);
        // extract of extract composes
        let inner = tm.bv_extract(a, 6, 1);
        let e4 = tm.bv_extract(inner, 4, 2);
        let w4 = tm.bv_extract(a, 5, 3);
        assert_eq!(rw(&mut tm, e4), w4);
        // extract over zero extension
        let zx = tm.bv_zero_ext(a, 8);
        let e5 = tm.bv_extract(zx, 15, 8);
        let r5 = rw(&mut tm, e5);
        assert_eq!(tm.const_value(r5), Some(0));
        let e6 = tm.bv_extract(zx, 5, 2);
        let w6 = tm.bv_extract(a, 5, 2);
        assert_eq!(rw(&mut tm, e6), w6);
    }

    #[test]
    fn pins_eliminate_definitions_and_complete_models() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let y = tm.var("y", Sort::BitVec(8));
        let c5 = tm.bv_const(5, 8);
        let def_x = tm.eq(x, c5); // x = 5
        let sum = tm.bv_add(x, y);
        let def_y = tm.eq(y, sum); // rejected: y occurs in its value
        let use_both = {
            let s = tm.bv_add(x, y);
            let c9 = tm.bv_const(9, 8);
            tm.eq(s, c9)
        };
        let mut rw = Rewriter::new();
        let out = rw.assert_simplify(&mut tm, &[def_x, def_y, use_both], &|_| false);
        // x = 5 is eliminated; y = x + y survives (self-referential);
        // x + y = 9 becomes y = 4 and pins y too, leaving only the
        // self-referential equality (rewritten under both pins).
        assert_eq!(rw.num_pins(), 2);
        assert_eq!(out.len(), 1);
        let stats = rw.stats();
        assert_eq!(stats.pins, 2);
        assert!(stats.assertions_dropped >= 2);
        // model completion restores both pinned variables
        let mut values = Assignment::default();
        rw.complete_model(&tm, &mut values);
        assert_eq!(values.get(&x), Some(&5));
        assert_eq!(values.get(&y), Some(&4));
    }

    #[test]
    fn pins_of_encoded_variables_keep_their_equality() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let c5 = tm.bv_const(5, 8);
        let def = tm.eq(x, c5);
        let mut rw = Rewriter::new();
        let out = rw.assert_simplify(&mut tm, &[def], &|v| v == x);
        assert_eq!(out, vec![def], "encoded variables keep their definition");
        assert_eq!(rw.num_pins(), 1);
        // future occurrences still substitute
        let y = tm.var("y", Sort::BitVec(8));
        let s = tm.bv_add(x, y);
        let r = rw.rewrite(&mut tm, s);
        assert_eq!(r, tm.bv_add(y, c5));
    }

    #[test]
    fn chained_pins_normalise_transitively() {
        let mut tm = TermManager::new();
        let a = tm.var("a", Sort::BitVec(8));
        let b = tm.var("b", Sort::BitVec(8));
        let c = tm.var("c", Sort::BitVec(8));
        let one = tm.one(8);
        // c = b + 1 first (value mentions b), then b = a, then a = 1.
        let bp1 = tm.bv_add(b, one);
        let d1 = tm.eq(c, bp1);
        let d2 = tm.eq(b, a);
        let d3 = tm.eq(a, one);
        let mut rw = Rewriter::new();
        let out = rw.assert_simplify(&mut tm, &[d1, d2, d3], &|_| false);
        assert!(out.is_empty(), "all three are definitions: {out:?}");
        let mut values = Assignment::default();
        rw.complete_model(&tm, &mut values);
        assert_eq!(values.get(&a), Some(&1));
        assert_eq!(values.get(&b), Some(&1));
        assert_eq!(values.get(&c), Some(&2));
    }

    #[test]
    fn boolean_pins_from_bare_conjuncts() {
        let mut tm = TermManager::new();
        let p = tm.var("p", Sort::Bool);
        let q = tm.var("q", Sort::Bool);
        let nq = tm.not(q);
        let both = tm.and(p, nq);
        let mut rw = Rewriter::new();
        let out = rw.assert_simplify(&mut tm, &[both], &|_| false);
        assert!(out.is_empty());
        let mut values = Assignment::default();
        rw.complete_model(&tm, &mut values);
        assert_eq!(values.get(&p), Some(&1));
        assert_eq!(values.get(&q), Some(&0));
    }

    #[test]
    fn contradictory_definitions_surface_as_false() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(4));
        let c1 = tm.bv_const(1, 4);
        let c2 = tm.bv_const(2, 4);
        let d1 = tm.eq(x, c1);
        let d2 = tm.eq(x, c2);
        let mut rw = Rewriter::new();
        let out = rw.assert_simplify(&mut tm, &[d1, d2], &|_| false);
        assert_eq!(out, vec![tm.fls()]);
    }

    #[test]
    fn rewriting_preserves_semantics_on_random_terms() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5ee);
        for round in 0..40 {
            let mut tm = TermManager::new();
            let w = 8;
            let x = tm.var("x", Sort::BitVec(w));
            let y = tm.var("y", Sort::BitVec(w));
            let mut exprs = vec![x, y, tm.bv_const(rng.gen_range(0..256), w)];
            for _ in 0..10 {
                let a = exprs[rng.gen_range(0..exprs.len())];
                let b = exprs[rng.gen_range(0..exprs.len())];
                let e = match rng.gen_range(0..14) {
                    0 => tm.bv_add(a, b),
                    1 => tm.bv_sub(a, b),
                    2 => tm.bv_and(a, b),
                    3 => tm.bv_or(a, b),
                    4 => tm.bv_xor(a, b),
                    5 => tm.bv_mul(a, b),
                    6 => tm.bv_shl(a, b),
                    7 => tm.bv_lshr(a, b),
                    8 => tm.bv_ashr(a, b),
                    9 => tm.bv_not(a),
                    10 => {
                        let c = tm.bv_ult(a, b);
                        tm.ite(c, a, b)
                    }
                    11 => {
                        let lo = tm.bv_extract(a, 3, 0);
                        let hi = tm.bv_extract(b, 7, 4);
                        tm.bv_concat(hi, lo)
                    }
                    12 => {
                        let lo = tm.bv_extract(a, 3, 0);
                        tm.bv_zero_ext(lo, 4)
                    }
                    _ => tm.bv_urem(a, b),
                };
                exprs.push(e);
            }
            let a = exprs[rng.gen_range(0..exprs.len())];
            let b = exprs[rng.gen_range(0..exprs.len())];
            let goal = match rng.gen_range(0..4) {
                0 => tm.eq(a, b),
                1 => tm.bv_ult(a, b),
                2 => tm.bv_ule(a, b),
                _ => {
                    let e = tm.eq(a, b);
                    tm.not(e)
                }
            };
            let r = Rewriter::new().rewrite(&mut tm, goal);
            for _ in 0..16 {
                let env: Assignment =
                    [(x, rng.gen_range(0..256u64)), (y, rng.gen_range(0..256u64))]
                        .into_iter()
                        .collect();
                assert_eq!(
                    eval(&tm, goal, &env),
                    eval(&tm, r, &env),
                    "round {round}: {} vs {}",
                    tm.display(goal),
                    tm.display(r)
                );
            }
        }
    }

    /// Seed of the randomised differential below: `SEPE_FAULT_SEED` (the
    /// CI fault-injection matrix's knob), default 42.
    fn fault_seed() -> u64 {
        std::env::var("SEPE_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42)
    }

    /// The cache-validity rule against a cold cache.  Random terms and
    /// random pin batches interleave: fresh-variable pins like BMC frames,
    /// out-of-order pins of older variables like cone-of-influence
    /// refinement, and pins of variables occurring in stored values (the
    /// restore path).  Every batch must simplify, and every query rewrite,
    /// exactly as on a clone whose cache was emptied first.
    #[test]
    fn cached_rewrites_match_a_cold_cache() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let seed = fault_seed();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xcac4e);
        let cold = |rw: &Rewriter| {
            let mut c = rw.clone();
            c.clear_cache();
            c
        };
        let (mut restores, mut out_of_order, mut queries) = (0u32, 0u32, 0u32);
        for round in 0..200 {
            let mut tm = TermManager::new();
            let w = 4;
            let mut rw = Rewriter::new();
            let mut bools = vec![tm.var("p0", Sort::Bool)];
            let mut vars = vec![tm.var("v0", Sort::BitVec(w))];
            let mut terms = vec![vars[0], tm.bv_const(rng.gen_range(0..16), w)];
            let mut encoded: FastSet<TermId> = FastSet::default();
            for step in 0..60 {
                match rng.gen_range(0..10) {
                    0 => {
                        let v = tm.var(&format!("v{step}"), Sort::BitVec(w));
                        if rng.gen_bool(0.3) {
                            encoded.insert(v);
                        }
                        vars.push(v);
                        terms.push(v);
                    }
                    1 => bools.push(tm.var(&format!("p{step}"), Sort::Bool)),
                    2..=4 => {
                        let a = terms[rng.gen_range(0..terms.len())];
                        let b = terms[rng.gen_range(0..terms.len())];
                        let c = bools[rng.gen_range(0..bools.len())];
                        let k = tm.bv_const(rng.gen_range(0..16), w);
                        let t = match rng.gen_range(0..9) {
                            0 => tm.bv_add(a, b),
                            1 => tm.bv_sub(a, k),
                            2 => tm.bv_and(a, b),
                            3 => tm.bv_xor(a, b),
                            4 => tm.bv_mul(a, k),
                            5 => tm.ite(c, a, b),
                            6 => {
                                let lt = tm.bv_ult(a, b);
                                tm.ite(lt, b, a)
                            }
                            7 => {
                                let lo = tm.bv_extract(a, 1, 0);
                                let hi = tm.bv_extract(b, 3, 2);
                                tm.bv_concat(hi, lo)
                            }
                            _ => tm.bv_not(a),
                        };
                        terms.push(t);
                    }
                    5..=6 => {
                        // (variable, in a stored value, older than a pinned one)
                        let mut candidates = Vec::new();
                        let mut batch = Vec::new();
                        for _ in 0..rng.gen_range(1..=3) {
                            let t = terms[rng.gen_range(0..terms.len())];
                            let conjunct = match rng.gen_range(0..5) {
                                0 | 1 => {
                                    let v = vars[rng.gen_range(0..vars.len())];
                                    candidates.push((
                                        v,
                                        rw.value_vars.contains(&v),
                                        rw.pin_order.iter().any(|&p| p > v),
                                    ));
                                    tm.eq(v, t)
                                }
                                2 => {
                                    let k = tm.bv_const(rng.gen_range(0..16), w);
                                    tm.eq(t, k)
                                }
                                3 => bools[rng.gen_range(0..bools.len())],
                                _ => {
                                    let u = terms[rng.gen_range(0..terms.len())];
                                    tm.bv_ule(t, u)
                                }
                            };
                            batch.push(conjunct);
                        }
                        let is_encoded = |v: TermId| encoded.contains(&v);
                        let pinned_before = rw.pin_order.len();
                        let mut reference = cold(&rw);
                        let want = reference.assert_simplify(&mut tm, &batch, &is_encoded);
                        let got = rw.assert_simplify(&mut tm, &batch, &is_encoded);
                        assert_eq!(got, want, "seed {seed} round {round} step {step}");
                        assert_eq!(rw.pin_order, reference.pin_order);
                        for v in &rw.pin_order {
                            assert_eq!(rw.pins[v].value, reference.pins[v].value);
                        }
                        for v in &rw.pin_order[pinned_before..] {
                            for &(c, restore, older) in &candidates {
                                if c == *v {
                                    restores += u32::from(restore);
                                    out_of_order += u32::from(older);
                                }
                            }
                        }
                    }
                    _ => {
                        let t = terms[rng.gen_range(0..terms.len())];
                        let want = cold(&rw).rewrite(&mut tm, t);
                        let got = rw.rewrite(&mut tm, t);
                        assert_eq!(
                            got,
                            want,
                            "seed {seed} round {round} step {step}: {}",
                            tm.display(t)
                        );
                        queries += 1;
                    }
                }
            }
        }
        assert!(
            restores > 0 && out_of_order > 0 && queries > 0,
            "coverage: {restores} restores, {out_of_order} out-of-order pins, {queries} queries"
        );
    }

    #[test]
    fn encode_stats_display_is_one_line() {
        let s = EncodeStats::default();
        let line = format!("{s}");
        assert!(line.contains("cache"));
        assert!(line.contains("coi-dropped"));
        assert!(!line.contains('\n'));
    }
}
