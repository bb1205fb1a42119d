//! PDR against an exact oracle: explicit-state breadth-first reachability
//! over seeded randomized transition systems.
//!
//! The generated systems have no inputs and at most 14 state bits, so a
//! breadth-first search that evaluates the next-state functions concretely
//! ([`sepe_smt::concrete::eval`]) from every initial state decides each one
//! exactly: it either reaches a bad state at a shortest depth `d` or proves
//! every bad state unreachable.  Against that ground truth, for each system:
//!
//! * PDR reaches a verdict — `Proved` or a counterexample, never the frame
//!   cap or a budget;
//! * PDR proves it exactly when the search reaches no bad state, and every
//!   proof's certificate passes the independent-solver self-check;
//! * a PDR counterexample is no shorter than the search's depth `d`;
//! * bounded BMC at bound `d` returns a trace of exactly `d` steps, and on
//!   an unreachable system BMC at the frame cap finds nothing.
//!
//! The generator is a deterministic xorshift stream seeded from
//! `SEPE_FAULT_SEED` (default 42), the same knob the fault-injection CI
//! matrix sweeps, so each matrix job exercises a different population.

use std::collections::VecDeque;
use std::time::Duration;

use sepe_smt::concrete::{eval, Assignment};
use sepe_smt::{Sort, TermId, TermManager};
use sepe_tsys::{verify_certificate, Bmc, BmcConfig, BmcResult, Pdr, TransitionSystem};

/// PDR's frontier cap, and the deepest bound the BMC checks run at.
const CAP: usize = 12;

/// Deterministic xorshift64* stream — no external RNG dependency.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        // Zero is a fixed point of xorshift; displace it.
        XorShift(seed.wrapping_mul(2685821657736338717).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }

    /// Uniform-ish value in `0..n` (n > 0).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn seed_from_env() -> u64 {
    std::env::var("SEPE_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Builds a random small transition system: 1–3 bit-vector state
/// variables of 2–4 bits and 0–2 boolean ones, next-state functions drawn
/// from small op pools (bit-vectors may be gated by a boolean, booleans
/// read bits and comparisons of the bit-vectors), constrained inits, and a
/// bad state targeting one or two variables of either sort.  Small widths
/// keep every orbit tiny: at most 3 × 4 + 2 = 14 state bits, so the
/// explicit-state oracle enumerates every state.
fn random_system(tm: &mut TermManager, rng: &mut XorShift) -> TransitionSystem {
    let num_vars = 1 + rng.below(3) as usize;
    let width = 2 + rng.below(3) as u32;
    let vars: Vec<TermId> = (0..num_vars)
        .map(|i| tm.var(&format!("s{i}"), Sort::BitVec(width)))
        .collect();
    let num_flags = rng.below(3) as usize;
    let flags: Vec<TermId> = (0..num_flags)
        .map(|i| tm.var(&format!("b{i}"), Sort::Bool))
        .collect();

    let mut ts = TransitionSystem::new();
    for &v in &vars {
        let next = random_update(tm, rng, &vars, &flags, v, width);
        // Mostly constrained inits; an occasional free variable gives the
        // system many initial states.
        let init = if rng.below(4) == 0 {
            None
        } else {
            Some(tm.bv_const(rng.below(1 << width), width))
        };
        ts.add_state_var(tm, v, init, next);
    }
    for &f in &flags {
        let next = random_flag_update(tm, rng, &vars, &flags, f, width);
        let init = if rng.below(4) == 0 {
            None
        } else {
            Some(tm.bool_const(rng.below(2) == 1))
        };
        ts.add_state_var(tm, f, init, next);
    }

    // Bad state: one or two variables pinned to random constants.  A
    // conjunction of two pins is rarer to hit, biasing part of the
    // population toward safe (provable) systems.
    let all: Vec<TermId> = vars.iter().chain(&flags).copied().collect();
    let pin = |tm: &mut TermManager, rng: &mut XorShift, v: TermId| match tm.sort(v) {
        Sort::Bool => {
            if rng.below(2) == 0 {
                tm.not(v)
            } else {
                v
            }
        }
        Sort::BitVec(_) => {
            let c = tm.bv_const(rng.below(1 << width), width);
            tm.eq(v, c)
        }
    };
    let a = all[rng.below(all.len() as u64) as usize];
    let bad = if all.len() > 1 && rng.below(2) == 0 {
        let b = all[rng.below(all.len() as u64) as usize];
        let pa = pin(tm, rng, a);
        let pb = pin(tm, rng, b);
        tm.and(pa, pb)
    } else {
        pin(tm, rng, a)
    };
    ts.add_bad(bad);
    ts
}

/// A random next-state function over the state variables: a shallow tree
/// of arithmetic/boolean ops with the occasional saturating cap thrown in
/// (caps are what make a random system *safe*, so the proved arm of the
/// oracle check is actually populated), and, when there are boolean state
/// variables, the occasional enable: the update only fires while a flag
/// holds.
fn random_update(
    tm: &mut TermManager,
    rng: &mut XorShift,
    vars: &[TermId],
    flags: &[TermId],
    this: TermId,
    width: u32,
) -> TermId {
    let operand = |tm: &mut TermManager, rng: &mut XorShift| -> TermId {
        if rng.below(3) == 0 {
            tm.bv_const(rng.below(1 << width), width)
        } else {
            vars[rng.below(vars.len() as u64) as usize]
        }
    };
    let lhs = operand(tm, rng);
    let rhs = operand(tm, rng);
    let raw = match rng.below(5) {
        0 => tm.bv_add(lhs, rhs),
        1 => tm.bv_sub(lhs, rhs),
        2 => tm.bv_xor(lhs, rhs),
        3 => tm.bv_and(lhs, rhs),
        _ => {
            let one = tm.one(width);
            tm.bv_add(this, one)
        }
    };
    let capped = if rng.below(2) == 0 {
        // Saturate: once the value reaches a random cap it sticks there.
        let cap = tm.bv_const(rng.below(1 << width), width);
        let at_cap = tm.bv_ule(cap, this);
        tm.ite(at_cap, cap, raw)
    } else {
        raw
    };
    if !flags.is_empty() && rng.below(3) == 0 {
        let enable = flags[rng.below(flags.len() as u64) as usize];
        tm.ite(enable, capped, this)
    } else {
        capped
    }
}

/// A random next-state function for a boolean state variable: a bit or a
/// comparison of the bit-vector variables, another flag, or a sticky
/// (once-set-stays-set) version of one of those.
fn random_flag_update(
    tm: &mut TermManager,
    rng: &mut XorShift,
    vars: &[TermId],
    flags: &[TermId],
    this: TermId,
    width: u32,
) -> TermId {
    let v = vars[rng.below(vars.len() as u64) as usize];
    let raw = match rng.below(5) {
        0 => tm.bv_bit(v, rng.below(u64::from(width)) as u32),
        1 => {
            let c = tm.bv_const(rng.below(1 << width), width);
            tm.bv_ult(v, c)
        }
        2 => {
            let c = tm.bv_const(rng.below(1 << width), width);
            tm.eq(v, c)
        }
        3 => {
            let other = flags[rng.below(flags.len() as u64) as usize];
            tm.xor(this, other)
        }
        _ => tm.not(this),
    };
    if rng.below(3) == 0 {
        tm.or(this, raw)
    } else {
        raw
    }
}

fn budgeted_config() -> BmcConfig {
    BmcConfig {
        time_limit: Some(Duration::from_secs(20)),
        ..BmcConfig::default()
    }
}

/// The explicit state space of an input-free system: each state is packed
/// into one integer, state variable by state variable, `width` bits each.
struct StateSpace {
    /// Every state variable with its bit offset and width.
    layout: Vec<(TermId, u32, u32)>,
    bits: u32,
}

impl StateSpace {
    fn new(tm: &TermManager, ts: &TransitionSystem) -> Self {
        assert!(ts.inputs().is_empty(), "the oracle enumerates states only");
        assert!(
            ts.constraints().is_empty(),
            "the oracle ignores constraints"
        );
        let mut layout = Vec::new();
        let mut bits = 0;
        for sv in ts.state_vars() {
            let width = match tm.sort(sv.current) {
                Sort::Bool => 1,
                Sort::BitVec(w) => w,
            };
            layout.push((sv.current, bits, width));
            bits += width;
        }
        assert!(bits <= 16, "{bits} state bits are too many to enumerate");
        StateSpace { layout, bits }
    }

    fn assignment(&self, state: u64) -> Assignment {
        self.layout
            .iter()
            .map(|&(var, offset, width)| (var, (state >> offset) & ((1 << width) - 1)))
            .collect()
    }

    fn pack(&self, values: impl IntoIterator<Item = u64>) -> u64 {
        self.layout
            .iter()
            .zip(values)
            .fold(0, |state, (&(_, offset, _), value)| {
                state | (value << offset)
            })
    }
}

/// The shortest number of transitions from an initial state to a bad
/// state, or `None` when no bad state is reachable.  Initial states are
/// every state whose constrained variables equal their init terms, so an
/// unconstrained variable ranges over its whole domain.
fn bfs_depth(tm: &TermManager, ts: &TransitionSystem) -> Option<usize> {
    let space = StateSpace::new(tm, ts);
    let mut depth = vec![usize::MAX; 1 << space.bits];
    let mut queue = VecDeque::new();
    for state in 0..1u64 << space.bits {
        let env = space.assignment(state);
        let initial = ts.state_vars().iter().all(|sv| {
            sv.init
                .is_none_or(|init| eval(tm, init, &env) == env[&sv.current])
        });
        if initial {
            depth[state as usize] = 0;
            queue.push_back(state);
        }
    }
    while let Some(state) = queue.pop_front() {
        let env = space.assignment(state);
        let d = depth[state as usize];
        if ts.bad_states().iter().any(|&bad| eval(tm, bad, &env) == 1) {
            return Some(d);
        }
        let next = space.pack(ts.state_vars().iter().map(|sv| eval(tm, sv.next, &env)));
        if depth[next as usize] == usize::MAX {
            depth[next as usize] = d + 1;
            queue.push_back(next);
        }
    }
    None
}

/// Checks PDR and BMC on one system against the oracle; returns whether
/// PDR proved the system.
fn cross_check(tm: &mut TermManager, ts: &TransitionSystem, context: &str) -> bool {
    let truth = bfs_depth(tm, ts);
    let run = Pdr::new(budgeted_config()).check(tm, ts, CAP);
    match (&run.result, truth) {
        (BmcResult::Proved { .. }, None) => {
            let cert = run
                .certificate
                .as_ref()
                .unwrap_or_else(|| panic!("{context}: PDR proof without certificate"));
            assert_eq!(
                verify_certificate(tm, ts, cert),
                Ok(()),
                "{context}: PDR certificate failed the self-check"
            );
        }
        (BmcResult::Counterexample(w), Some(d)) => assert!(
            d <= w.num_steps(),
            "{context}: PDR trace of {} steps is shorter than the oracle's {d}",
            w.num_steps()
        ),
        (other, truth) => panic!(
            "{context}: PDR returned {other:?} but the oracle's bad-state depth is {truth:?}"
        ),
    }

    let mut bmc = Bmc::new(budgeted_config());
    match truth {
        Some(d) if d <= CAP => match bmc.check(tm, ts, d) {
            BmcResult::Counterexample(w) => assert_eq!(
                w.num_steps(),
                d,
                "{context}: BMC trace length differs from the oracle's depth"
            ),
            other => panic!("{context}: the oracle reaches bad at {d} but BMC returned {other:?}"),
        },
        Some(_) => {}
        None => assert!(
            matches!(bmc.check(tm, ts, CAP), BmcResult::NoCounterexample { .. }),
            "{context}: BMC found a trace the oracle says cannot exist"
        ),
    }
    run.result.is_proved()
}

#[test]
fn randomized_systems_agree_with_the_oracle() {
    let seed = seed_from_env();
    let mut rng = XorShift::new(seed);
    let (mut proved, mut falsified, mut proved_with_flags) = (0, 0, 0);
    for case in 0..24 {
        let mut tm = TermManager::new();
        let ts = random_system(&mut tm, &mut rng);
        let has_flag = ts
            .state_vars()
            .iter()
            .any(|sv| tm.sort(sv.current).is_bool());
        if cross_check(&mut tm, &ts, &format!("seed {seed} case {case}")) {
            proved += 1;
            proved_with_flags += usize::from(has_flag);
        } else {
            falsified += 1;
        }
    }
    println!("seed {seed}: PDR proved {proved}, falsified {falsified}");
    // PDR's boolean cube literals must actually be checked: some proof in
    // the population has to range over a boolean state variable.
    assert!(
        proved_with_flags > 0,
        "seed {seed}: no system with a boolean state variable was proved by PDR"
    );
}

#[test]
fn handcrafted_safe_and_unsafe_systems_agree() {
    // A deterministic floor under the randomized sweep: systems PDR *must*
    // prove and one it *must* falsify, independent of the seed, each also
    // held against the oracle.
    let mut tm = TermManager::new();
    let safe = |tm: &mut TermManager, width: u32| {
        // Counter that wraps below its bad value.
        let v = tm.var(&format!("c{width}"), Sort::BitVec(width));
        let zero = tm.zero(width);
        let one = tm.one(width);
        let cap = tm.bv_const((1 << width) - 2, width);
        let bad_val = tm.bv_const((1 << width) - 1, width);
        let at_cap = tm.eq(v, cap);
        let inc = tm.bv_add(v, one);
        let next = tm.ite(at_cap, zero, inc);
        let bad = tm.eq(v, bad_val);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(tm, v, Some(zero), next);
        ts.add_bad(bad);
        ts
    };
    for width in [2u32, 3] {
        let ts = safe(&mut tm, width);
        assert_eq!(bfs_depth(&tm, &ts), None);
        let run = Pdr::new(budgeted_config()).check(&mut tm, &ts, 1 << width);
        assert!(
            run.result.is_proved(),
            "PDR must prove the width-{width} wrapping counter, got {:?}",
            run.result
        );
        cross_check(&mut tm, &ts, &format!("handcrafted safe w={width}"));
    }

    // Free-running counter: reachable bad state at a known depth.
    let v = tm.var("f", Sort::BitVec(3));
    let zero = tm.zero(3);
    let one = tm.one(3);
    let five = tm.bv_const(5, 3);
    let next = tm.bv_add(v, one);
    let bad = tm.eq(v, five);
    let mut ts = TransitionSystem::new();
    ts.add_state_var(&tm, v, Some(zero), next);
    ts.add_bad(bad);
    assert_eq!(bfs_depth(&tm, &ts), Some(5));
    let run = Pdr::new(budgeted_config()).check(&mut tm, &ts, 16);
    match &run.result {
        BmcResult::Counterexample(w) => assert_eq!(w.num_steps(), 5),
        other => panic!("PDR must falsify the free counter, got {other:?}"),
    }
    cross_check(&mut tm, &ts, "handcrafted unsafe");
}
