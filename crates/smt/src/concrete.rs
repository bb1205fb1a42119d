//! Concrete evaluation of term graphs.
//!
//! The evaluator is the reference semantics for the bit-blaster: property
//! tests assert that for random terms and random variable assignments, the
//! SAT model of the bit-blasted formula agrees with [`eval`].  It is also the
//! workhorse of the CEGIS loop, which repeatedly evaluates candidate programs
//! on accumulated counterexample inputs.

use crate::fast::FastMap;
use crate::sort::{mask, sign_extend};
use crate::term::{Op, TermId, TermManager};

/// A variable assignment: values for (a subset of) the variables of a term.
///
/// Boolean variables use 0/1.  Missing variables default to 0, which keeps
/// witness handling total.
pub type Assignment = FastMap<TermId, u64>;

/// Evaluates `root` under `env`.
///
/// Boolean results are 0/1; bit-vector results are masked to their width.
///
/// # Panics
///
/// Panics if the term graph is malformed (impossible for terms produced by
/// [`TermManager`]).
pub fn eval(tm: &TermManager, root: TermId, env: &Assignment) -> u64 {
    let mut cache: FastMap<TermId, u64> = FastMap::default();
    eval_cached(tm, root, env, &mut cache)
}

/// Evaluates several roots sharing one cache.
pub fn eval_many(tm: &TermManager, roots: &[TermId], env: &Assignment) -> Vec<u64> {
    let mut cache: FastMap<TermId, u64> = FastMap::default();
    roots
        .iter()
        .map(|&r| eval_cached(tm, r, env, &mut cache))
        .collect()
}

fn eval_cached(
    tm: &TermManager,
    root: TermId,
    env: &Assignment,
    cache: &mut FastMap<TermId, u64>,
) -> u64 {
    // Explicit work-list to avoid recursion depth limits on deep terms
    // (BMC unrollings can nest thousands of ites).
    let mut stack = vec![(root, false)];
    while let Some((t, expanded)) = stack.pop() {
        if cache.contains_key(&t) {
            continue;
        }
        if !expanded {
            stack.push((t, true));
            for c in tm.term(t).op.children() {
                if !cache.contains_key(&c) {
                    stack.push((c, false));
                }
            }
            continue;
        }
        let v = eval_node(tm, t, env, cache);
        cache.insert(t, v);
    }
    cache[&root]
}

fn eval_node(tm: &TermManager, t: TermId, env: &Assignment, cache: &FastMap<TermId, u64>) -> u64 {
    let term = tm.term(t);
    let width = term.sort.width();
    let get = |id: TermId| -> u64 { cache[&id] };
    let out = match &term.op {
        Op::BoolConst(b) => u64::from(*b),
        Op::BvConst { value, .. } => *value,
        Op::Var { .. } => env.get(&t).copied().unwrap_or(0),
        Op::Not(a) => u64::from(get(*a) == 0),
        Op::And(a, b) => get(*a) & get(*b),
        Op::Or(a, b) => get(*a) | get(*b),
        Op::Xor(a, b) => get(*a) ^ get(*b),
        Op::Implies(a, b) => u64::from(get(*a) == 0 || get(*b) != 0),
        Op::Ite(c, a, b) => {
            if get(*c) != 0 {
                get(*a)
            } else {
                get(*b)
            }
        }
        Op::Eq(a, b) => u64::from(get(*a) == get(*b)),
        Op::BvNot(a) => !get(*a),
        Op::BvNeg(a) => get(*a).wrapping_neg(),
        Op::BvAnd(a, b) => get(*a) & get(*b),
        Op::BvOr(a, b) => get(*a) | get(*b),
        Op::BvXor(a, b) => get(*a) ^ get(*b),
        Op::BvAdd(a, b) => get(*a).wrapping_add(get(*b)),
        Op::BvSub(a, b) => get(*a).wrapping_sub(get(*b)),
        Op::BvMul(a, b) => get(*a).wrapping_mul(get(*b)),
        Op::BvUdiv(a, b) => get(*a).checked_div(get(*b)).unwrap_or(u64::MAX),
        Op::BvUrem(a, b) => {
            let d = get(*b);
            if d == 0 {
                get(*a)
            } else {
                get(*a) % d
            }
        }
        Op::BvShl(a, b) => {
            let w = tm.width(*a);
            let s = get(*b);
            if s >= u64::from(w) {
                0
            } else {
                get(*a) << s
            }
        }
        Op::BvLshr(a, b) => {
            let w = tm.width(*a);
            let s = get(*b);
            if s >= u64::from(w) {
                0
            } else {
                mask(get(*a), w) >> s
            }
        }
        Op::BvAshr(a, b) => {
            let w = tm.width(*a);
            let s = get(*b).min(63);
            let sx = sign_extend(get(*a), w) as i64;
            (sx >> s) as u64
        }
        Op::BvUlt(a, b) => {
            let w = tm.width(*a);
            u64::from(mask(get(*a), w) < mask(get(*b), w))
        }
        Op::BvUle(a, b) => {
            let w = tm.width(*a);
            u64::from(mask(get(*a), w) <= mask(get(*b), w))
        }
        Op::BvSlt(a, b) => {
            let w = tm.width(*a);
            u64::from((sign_extend(get(*a), w) as i64) < (sign_extend(get(*b), w) as i64))
        }
        Op::BvSle(a, b) => {
            let w = tm.width(*a);
            u64::from((sign_extend(get(*a), w) as i64) <= (sign_extend(get(*b), w) as i64))
        }
        Op::BvConcat(a, b) => {
            let wl = tm.width(*b);
            (mask(get(*a), tm.width(*a)) << wl) | mask(get(*b), wl)
        }
        Op::BvExtract { hi: _, lo, arg } => {
            let w = tm.width(*arg);
            mask(get(*arg), w) >> lo
        }
        Op::BvZeroExt { arg, .. } => mask(get(*arg), tm.width(*arg)),
        Op::BvSignExt { arg, .. } => sign_extend(get(*arg), tm.width(*arg)),
    };
    match width {
        Some(w) => mask(out, w),
        None => u64::from(out != 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    fn env(pairs: &[(TermId, u64)]) -> Assignment {
        pairs.iter().copied().collect()
    }

    #[test]
    fn evaluates_arithmetic() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let y = tm.var("y", Sort::BitVec(8));
        let e = tm.bv_add(x, y);
        let e = tm.bv_mul(e, x);
        assert_eq!(eval(&tm, e, &env(&[(x, 3), (y, 4)])), 21);
        // wrap-around
        assert_eq!(eval(&tm, e, &env(&[(x, 200), (y, 100)])), (44 * 200) % 256);
    }

    #[test]
    fn evaluates_comparisons_signed_and_unsigned() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let y = tm.var("y", Sort::BitVec(8));
        let sl = tm.bv_slt(x, y);
        let ul = tm.bv_ult(x, y);
        let a = env(&[(x, 0x80), (y, 0x01)]); // -128 < 1 signed, 128 > 1 unsigned
        assert_eq!(eval(&tm, sl, &a), 1);
        assert_eq!(eval(&tm, ul, &a), 0);
    }

    #[test]
    fn evaluates_shifts_and_extensions() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let s = tm.var("s", Sort::BitVec(8));
        let ashr = tm.bv_ashr(x, s);
        assert_eq!(eval(&tm, ashr, &env(&[(x, 0x80), (s, 4)])), 0xf8);
        let sext = tm.bv_sign_ext(x, 8);
        assert_eq!(eval(&tm, sext, &env(&[(x, 0x80)])), 0xff80);
        let zext = tm.bv_zero_ext(x, 8);
        assert_eq!(eval(&tm, zext, &env(&[(x, 0x80)])), 0x0080);
    }

    #[test]
    fn missing_variables_default_to_zero() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let one = tm.one(8);
        let e = tm.bv_add(x, one);
        assert_eq!(eval(&tm, e, &Assignment::default()), 1);
    }

    #[test]
    fn ite_and_eq() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let y = tm.var("y", Sort::BitVec(8));
        let c = tm.eq(x, y);
        let e = tm.ite(c, x, y);
        assert_eq!(eval(&tm, e, &env(&[(x, 7), (y, 7)])), 7);
        assert_eq!(eval(&tm, e, &env(&[(x, 7), (y, 9)])), 9);
    }

    #[test]
    fn deep_terms_do_not_overflow_the_stack() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(32));
        let one = tm.one(32);
        let mut e = x;
        for _ in 0..50_000 {
            e = tm.bv_add(e, one);
        }
        assert_eq!(eval(&tm, e, &env(&[(x, 1)])), 50_001);
    }
}
