//! Term substitution (used by the transition-system unroller).

use crate::fast::FastMap;
use crate::term::{Op, TermId, TermManager};

/// Rebuilds `root` with every occurrence of a key of `map` replaced by the
/// corresponding value.  Substitution is simultaneous (values are not
/// re-substituted) and results are shared through `cache`, so repeated calls
/// over the same unrolling frame stay linear.
pub fn substitute(
    tm: &mut TermManager,
    root: TermId,
    map: &FastMap<TermId, TermId>,
    cache: &mut FastMap<TermId, TermId>,
) -> TermId {
    // Iterative post-order rewrite to keep deep BMC unrollings off the call
    // stack.
    let mut stack = vec![(root, false)];
    while let Some((t, expanded)) = stack.pop() {
        if cache.contains_key(&t) {
            continue;
        }
        if let Some(&r) = map.get(&t) {
            cache.insert(t, r);
            continue;
        }
        let children = tm.term(t).op.children();
        if children.is_empty() {
            cache.insert(t, t);
            continue;
        }
        if !expanded {
            stack.push((t, true));
            for c in children {
                if !cache.contains_key(&c) && !map.contains_key(&c) {
                    stack.push((c, false));
                }
            }
            continue;
        }
        let rebuilt = rebuild(tm, t, map, cache);
        cache.insert(t, rebuilt);
    }
    cache[&root]
}

fn lookup(t: TermId, map: &FastMap<TermId, TermId>, cache: &FastMap<TermId, TermId>) -> TermId {
    if let Some(&r) = map.get(&t) {
        r
    } else {
        cache[&t]
    }
}

fn rebuild(
    tm: &mut TermManager,
    t: TermId,
    map: &FastMap<TermId, TermId>,
    cache: &FastMap<TermId, TermId>,
) -> TermId {
    let op = tm.term(t).op.clone();
    rebuild_with(tm, t, &op, |id| lookup(id, map, cache))
}

/// Rebuilds one node through the [`TermManager`] constructors with every
/// child replaced by `l(child)`.  Leaves rebuild to themselves.  Shared by
/// the substitution pass above and the rewriter in [`crate::rewrite`], so
/// both go through the same constructor-level simplifications.
pub(crate) fn rebuild_with(
    tm: &mut TermManager,
    t: TermId,
    op: &Op,
    l: impl Fn(TermId) -> TermId,
) -> TermId {
    match *op {
        Op::BoolConst(_) | Op::BvConst { .. } | Op::Var { .. } => t,
        Op::Not(a) => {
            let a = l(a);
            tm.not(a)
        }
        Op::And(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.and(a, b)
        }
        Op::Or(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.or(a, b)
        }
        Op::Xor(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.xor(a, b)
        }
        Op::Implies(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.implies(a, b)
        }
        Op::Ite(c, a, b) => {
            let (c, a, b) = (l(c), l(a), l(b));
            tm.ite(c, a, b)
        }
        Op::Eq(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.eq(a, b)
        }
        Op::BvNot(a) => {
            let a = l(a);
            tm.bv_not(a)
        }
        Op::BvNeg(a) => {
            let a = l(a);
            tm.bv_neg(a)
        }
        Op::BvAnd(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.bv_and(a, b)
        }
        Op::BvOr(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.bv_or(a, b)
        }
        Op::BvXor(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.bv_xor(a, b)
        }
        Op::BvAdd(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.bv_add(a, b)
        }
        Op::BvSub(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.bv_sub(a, b)
        }
        Op::BvMul(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.bv_mul(a, b)
        }
        Op::BvUdiv(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.bv_udiv(a, b)
        }
        Op::BvUrem(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.bv_urem(a, b)
        }
        Op::BvShl(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.bv_shl(a, b)
        }
        Op::BvLshr(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.bv_lshr(a, b)
        }
        Op::BvAshr(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.bv_ashr(a, b)
        }
        Op::BvUlt(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.bv_ult(a, b)
        }
        Op::BvUle(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.bv_ule(a, b)
        }
        Op::BvSlt(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.bv_slt(a, b)
        }
        Op::BvSle(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.bv_sle(a, b)
        }
        Op::BvConcat(a, b) => {
            let (a, b) = (l(a), l(b));
            tm.bv_concat(a, b)
        }
        Op::BvExtract { hi, lo, arg } => {
            let arg = l(arg);
            tm.bv_extract(arg, hi, lo)
        }
        Op::BvZeroExt { by, arg } => {
            let arg = l(arg);
            tm.bv_zero_ext(arg, by)
        }
        Op::BvSignExt { by, arg } => {
            let arg = l(arg);
            tm.bv_sign_ext(arg, by)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concrete::eval;
    use crate::sort::Sort;

    #[test]
    fn substitutes_variables() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let y = tm.var("y", Sort::BitVec(8));
        let z = tm.var("z", Sort::BitVec(8));
        let e = tm.bv_add(x, y);
        let map = FastMap::from_iter([(x, z)]);
        let r = substitute(&mut tm, e, &map, &mut FastMap::default());
        let expected = tm.bv_add(z, y);
        assert_eq!(r, expected);
    }

    #[test]
    fn substitution_is_simultaneous() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let y = tm.var("y", Sort::BitVec(8));
        let e = tm.bv_sub(x, y);
        // swap x and y
        let map = FastMap::from_iter([(x, y), (y, x)]);
        let r = substitute(&mut tm, e, &map, &mut FastMap::default());
        let expected = tm.bv_sub(y, x);
        assert_eq!(r, expected);
    }

    #[test]
    fn substituting_constants_folds() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let y = tm.var("y", Sort::BitVec(8));
        let e = tm.bv_add(x, y);
        let c3 = tm.bv_const(3, 8);
        let c4 = tm.bv_const(4, 8);
        let map = FastMap::from_iter([(x, c3), (y, c4)]);
        let r = substitute(&mut tm, e, &map, &mut FastMap::default());
        assert_eq!(tm.const_value(r), Some(7));
    }

    #[test]
    fn semantics_preserved_on_random_expression() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(16));
        let y = tm.var("y", Sort::BitVec(16));
        let a = tm.var("a", Sort::BitVec(16));
        let b = tm.var("b", Sort::BitVec(16));
        let e0 = tm.bv_mul(x, y);
        let e1 = tm.bv_xor(e0, x);
        let lt = tm.bv_slt(e1, y);
        let e = tm.ite(lt, e0, e1);
        let map = FastMap::from_iter([(x, a), (y, b)]);
        let r = substitute(&mut tm, e, &map, &mut FastMap::default());
        let env_orig = FastMap::from_iter([(x, 123u64), (y, 45u64)]);
        let env_new = FastMap::from_iter([(a, 123u64), (b, 45u64)]);
        assert_eq!(eval(&tm, e, &env_orig), eval(&tm, r, &env_new));
    }
}
