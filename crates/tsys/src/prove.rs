//! Shared machinery of the unbounded provers: proof methods, certificates,
//! and the independent-solver proof self-check.
//!
//! A bounded model checker can only ever report "no bug within k steps"; the
//! provers in [`induction`](crate::induction) and [`pdr`](crate::pdr) close
//! the gap with a genuine `Proved` verdict.  Because a wrong "Proved" is the
//! worst answer this stack can give — it silently certifies a buggy design —
//! every proof carries a [`ProofCertificate`] that
//! [`verify_certificate`] re-checks on *fresh* [`IncrementalSolver`]s, one
//! per obligation, before the verdict is allowed to leave the engine.  This
//! is the proof-side twin of the witness-replay self-check: the prover's own
//! long-lived solvers (with their learnt clauses, activation literals and
//! assumption plumbing) are deliberately not trusted to audit themselves.
//! The fresh solvers share no state with the prover, but they do run the
//! same SAT core, so the check is independent of the prover's solver state
//! and not of the CDCL implementation itself.
//!
//! The obligations re-checked per certificate:
//!
//! * [`ProofCertificate::Inductive`] (PDR) — for the invariant `inv`
//!   (a conjunction of frame clauses over the current-state variables):
//!   1. `init ⊨ inv` — the initial states are inside the invariant,
//!   2. `inv ∧ T ⊨ inv′` — the invariant is closed under one transition,
//!   3. `inv ⊨ ¬bad` — the invariant excludes every bad state.
//! * [`ProofCertificate::KInduction`] — re-runs the temporal-induction
//!   obligations at the recorded depth `k`: every base case
//!   `init ∧ path ∧ bad@i` for `i < k` must be unsatisfiable, and so must
//!   the step case `¬bad@0..k-1 ∧ path ∧ bad@k` (with the pairwise
//!   state-uniqueness constraints when the proof used them).
//!
//! Every obligation query runs without conflict or memory budgets: a
//! certificate is checked to completion or the check fails, never "probably
//! fine".  The systems involved are the same size the prover already
//! handled, so completion is not a practical concern.

use std::fmt;

use sepe_smt::{IncrementalSolver, SatResult, TermId, TermManager};

use crate::ts::TransitionSystem;
use crate::unroll::Unroller;

/// Which unbounded prover produced a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProofMethod {
    /// Eén–Sörensson temporal induction (`induction.rs`).
    KInduction,
    /// Bradley-style IC3/PDR (`pdr.rs`).
    Pdr,
}

impl fmt::Display for ProofMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofMethod::KInduction => write!(f, "k-induction"),
            ProofMethod::Pdr => write!(f, "pdr"),
        }
    }
}

/// A checkable proof artefact, emitted alongside every `Proved` verdict.
#[derive(Debug, Clone)]
pub enum ProofCertificate {
    /// A 1-inductive invariant: the conjunction of `clauses` (terms over
    /// the *original* current-state variables) holds initially, is closed
    /// under the transition relation, and excludes the bad states.  An
    /// empty clause list is the trivial invariant `true` (the bad states
    /// are unreachable because no constrained state satisfies them).
    Inductive {
        /// The invariant's clauses over the unprimed state variables.
        clauses: Vec<TermId>,
    },
    /// A temporal-induction proof at depth `k`: all base cases below `k`
    /// and the `k`-step case are unsatisfiable.
    KInduction {
        /// The induction depth.
        depth: usize,
        /// First depth whose base case was checked (earlier depths are the
        /// caller's by-construction guarantee, exactly like
        /// [`BmcConfig::start_bound`](crate::BmcConfig::start_bound)).
        start_bound: usize,
        /// Whether the proof needed the pairwise path-uniqueness
        /// (simple-path) constraints; the re-check must then include them,
        /// since the plain step case is satisfiable.
        unique: bool,
    },
}

/// Why a certificate failed its independent re-check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertificateError {
    /// `init ⊨ inv` failed: an initial state escapes the invariant.
    InitNotContained,
    /// `inv ∧ T ⊨ inv′` failed: the invariant is not closed under the
    /// transition relation.
    NotInductive,
    /// `inv ⊨ ¬bad` failed: the invariant admits a bad state.
    BadNotExcluded,
    /// A k-induction base case at the given depth was satisfiable.
    BaseCaseSat(usize),
    /// The k-induction step case was satisfiable.
    StepCaseSat,
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::InitNotContained => {
                write!(f, "an initial state escapes the invariant")
            }
            CertificateError::NotInductive => {
                write!(
                    f,
                    "the invariant is not closed under the transition relation"
                )
            }
            CertificateError::BadNotExcluded => write!(f, "the invariant admits a bad state"),
            CertificateError::BaseCaseSat(k) => {
                write!(f, "the base case at depth {k} is satisfiable")
            }
            CertificateError::StepCaseSat => write!(f, "the step case is satisfiable"),
        }
    }
}

/// Work counters of one prover run, in the same spirit as
/// [`BmcStats`](crate::BmcStats) but with the prover-specific shape: frame
/// and cube counters are zero for k-induction, uniqueness counters zero for
/// PDR.
#[derive(Debug, Clone, Default)]
pub struct ProveStats {
    /// SAT queries issued across all of the run's solvers.
    pub queries: u64,
    /// SAT conflicts across all of the run's solvers.
    pub conflicts: u64,
    /// Total wall-clock time.
    pub duration: std::time::Duration,
    /// Deepest induction depth / highest PDR frontier frame reached.
    pub depth_reached: usize,
    /// Pairwise path-uniqueness constraints asserted (k-induction only).
    pub uniqueness_constraints: u64,
    /// Cubes blocked by a frame clause (PDR only).
    pub cubes_blocked: u64,
    /// Clause-literal drops won from unsat cores during generalisation
    /// (PDR only).
    pub literals_dropped: u64,
    /// Frame clauses pushed forward to a later frame (PDR only).
    pub clauses_pushed: u64,
    /// Reuse counters of the run's primary incremental solver (the step
    /// solver for k-induction, the frame solver for PDR).
    pub solver: sepe_smt::SolverReuseStats,
}

/// One prover run's outcome: the familiar [`BmcResult`](crate::BmcResult)
/// (now carrying [`BmcResult::Proved`](crate::BmcResult::Proved)), the
/// certificate backing a proof, and the work counters.
#[derive(Debug, Clone)]
pub struct ProofRun {
    /// The verdict.
    pub result: crate::BmcResult,
    /// The checkable proof artefact; `Some` exactly when `result` is
    /// [`BmcResult::Proved`](crate::BmcResult::Proved).
    pub certificate: Option<ProofCertificate>,
    /// Work counters.
    pub stats: ProveStats,
}

/// Whether the conjunction of `terms` is satisfiable, decided on a fresh
/// solver for this one obligation: word-level rewriting and the AIG layer
/// on (both equisatisfiability-preserving), no budgets — an obligation is
/// checked to completion or not at all.
fn sat(tm: &mut TermManager, terms: &[TermId]) -> bool {
    let mut solver = IncrementalSolver::new();
    solver.assert_all(tm, terms);
    solver.check(tm) == SatResult::Sat
}

/// Re-validates a certificate against the transition system on fresh
/// solvers; `Ok(())` confirms every obligation.
///
/// The prover that produced the certificate shares no solver state with
/// this check, only the term manager and the SAT implementation: each
/// obligation gets its own fresh [`IncrementalSolver`], its own
/// bit-blasting, its own SAT state.
pub fn verify_certificate(
    tm: &mut TermManager,
    ts: &TransitionSystem,
    certificate: &ProofCertificate,
) -> Result<(), CertificateError> {
    match certificate {
        ProofCertificate::Inductive { clauses } => {
            let mut unroller = Unroller::new(ts);
            let inv0 = {
                let at0: Vec<TermId> = clauses
                    .iter()
                    .map(|&c| unroller.term_at(tm, c, 0))
                    .collect();
                tm.and_many(at0)
            };
            let inv1 = {
                let at1: Vec<TermId> = clauses
                    .iter()
                    .map(|&c| unroller.term_at(tm, c, 1))
                    .collect();
                tm.and_many(at1)
            };
            let init = unroller.init(tm);
            let c0 = unroller.constraints_at(tm, 0);
            let c1 = unroller.constraints_at(tm, 1);
            let t01 = unroller.transition(tm, 0);
            let bad0 = unroller.bad_at(tm, 0);

            // 1. init ⊨ inv: init ∧ ¬inv must be unsatisfiable.
            let not_inv0 = tm.not(inv0);
            if sat(tm, &[init, c0, not_inv0]) {
                return Err(CertificateError::InitNotContained);
            }
            // 2. inv ∧ T ⊨ inv′: inv ∧ T ∧ ¬inv′ must be unsatisfiable.
            let not_inv1 = tm.not(inv1);
            if sat(tm, &[inv0, c0, c1, t01, not_inv1]) {
                return Err(CertificateError::NotInductive);
            }
            // 3. inv ⊨ ¬bad: inv ∧ bad must be unsatisfiable.
            if sat(tm, &[inv0, c0, bad0]) {
                return Err(CertificateError::BadNotExcluded);
            }
            Ok(())
        }
        ProofCertificate::KInduction {
            depth,
            start_bound,
            unique,
        } => {
            let k = *depth;
            // Base cases: init ∧ path ∧ bad@i unsatisfiable for each
            // checked depth below k.
            {
                let mut unroller = Unroller::new(ts);
                let mut path = vec![unroller.init(tm)];
                for i in 0..=k.saturating_sub(1) {
                    let c = unroller.constraints_at(tm, i);
                    path.push(c);
                    if i < k.saturating_sub(1) {
                        let t = unroller.transition(tm, i);
                        path.push(t);
                    }
                }
                for i in *start_bound..k {
                    let bad = unroller.bad_at(tm, i);
                    let mut terms = path.clone();
                    terms.push(bad);
                    if sat(tm, &terms) {
                        return Err(CertificateError::BaseCaseSat(i));
                    }
                }
            }
            // Step case: an init-free path of k transitions with ¬bad on
            // every frame but the last, bad on the last — plus the
            // pairwise state-uniqueness constraints when the proof used
            // them — must be unsatisfiable.  Depth 0 degenerates to
            // "bad@0 alone is unsatisfiable" (no transition, no
            // hypothesis): only a system whose constraints exclude bad
            // outright passes it, which is exactly what a depth-0 claim
            // asserts.
            let mut unroller = Unroller::new(ts);
            let mut terms = Vec::new();
            for i in 0..=k {
                let c = unroller.constraints_at(tm, i);
                terms.push(c);
                if i < k {
                    let t = unroller.transition(tm, i);
                    terms.push(t);
                    let bad = unroller.bad_at(tm, i);
                    let not_bad = tm.not(bad);
                    terms.push(not_bad);
                }
            }
            if *unique {
                for t in uniqueness_constraints(tm, ts, &mut unroller, k) {
                    terms.push(t);
                }
            }
            let bad_k = unroller.bad_at(tm, k);
            terms.push(bad_k);
            if sat(tm, &terms) {
                return Err(CertificateError::StepCaseSat);
            }
            Ok(())
        }
    }
}

/// The pairwise simple-path constraints over frames `0..=k`: for every pair
/// of frames, at least one state variable differs.  Systems with no state
/// variables get no constraints (every "path" trivially revisits the empty
/// state, and the step case at depth 1 already decides them).
pub(crate) fn uniqueness_constraints(
    tm: &mut TermManager,
    ts: &TransitionSystem,
    unroller: &mut Unroller<'_>,
    k: usize,
) -> Vec<TermId> {
    let vars: Vec<TermId> = ts.state_vars().iter().map(|v| v.current).collect();
    if vars.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..k {
        for j in (i + 1)..=k {
            let diffs: Vec<TermId> = vars
                .iter()
                .map(|&v| {
                    let vi = unroller.var_at(tm, v, i);
                    let vj = unroller.var_at(tm, v, j);
                    tm.neq(vi, vj)
                })
                .collect();
            out.push(tm.or_many(diffs));
        }
    }
    out
}

/// Deterministically corrupts a certificate (fault injection for the
/// detection layer's `corrupt_proof` hook): the result claims an invariant
/// no constrained system satisfies, so [`verify_certificate`] must fail on
/// the very first obligation.  The proof-side twin of
/// `selfcheck::corrupt_witness`.
pub fn corrupt_certificate(
    tm: &mut TermManager,
    _certificate: &ProofCertificate,
) -> ProofCertificate {
    ProofCertificate::Inductive {
        clauses: vec![tm.fls()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BmcResult;
    use sepe_smt::Sort;

    /// A two-bit counter that wraps at 3 (never reaches 3 when it resets
    /// from 2): bad = (count == 3) is unreachable and 1-inductive with the
    /// invariant count != 3.
    fn capped_counter(tm: &mut TermManager) -> TransitionSystem {
        let count = tm.var("count", Sort::BitVec(2));
        let zero = tm.zero(2);
        let one = tm.one(2);
        let two = tm.bv_const(2, 2);
        let three = tm.bv_const(3, 2);
        let at_two = tm.eq(count, two);
        let inc = tm.bv_add(count, one);
        let next = tm.ite(at_two, zero, inc);
        let bad = tm.eq(count, three);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(tm, count, Some(zero), next);
        ts.add_bad(bad);
        ts
    }

    #[test]
    fn a_correct_inductive_certificate_verifies() {
        let mut tm = TermManager::new();
        let ts = capped_counter(&mut tm);
        let count = tm.find_var("count").unwrap();
        let three = tm.bv_const(3, 2);
        let not_three = tm.neq(count, three);
        let cert = ProofCertificate::Inductive {
            clauses: vec![not_three],
        };
        assert_eq!(verify_certificate(&mut tm, &ts, &cert), Ok(()));
    }

    #[test]
    fn a_non_inductive_invariant_is_rejected() {
        let mut tm = TermManager::new();
        let ts = capped_counter(&mut tm);
        let count = tm.find_var("count").unwrap();
        // count == 0 holds initially and excludes bad, but one step leaves it.
        let zero = tm.zero(2);
        let at_zero = tm.eq(count, zero);
        let cert = ProofCertificate::Inductive {
            clauses: vec![at_zero],
        };
        assert_eq!(
            verify_certificate(&mut tm, &ts, &cert),
            Err(CertificateError::NotInductive)
        );
    }

    #[test]
    fn an_invariant_admitting_bad_is_rejected() {
        let mut tm = TermManager::new();
        let ts = capped_counter(&mut tm);
        let tru = tm.tru();
        let cert = ProofCertificate::Inductive { clauses: vec![tru] };
        assert_eq!(
            verify_certificate(&mut tm, &ts, &cert),
            Err(CertificateError::BadNotExcluded)
        );
    }

    #[test]
    fn a_corrupted_certificate_fails_the_first_obligation() {
        let mut tm = TermManager::new();
        let ts = capped_counter(&mut tm);
        let count = tm.find_var("count").unwrap();
        let three = tm.bv_const(3, 2);
        let not_three = tm.neq(count, three);
        let good = ProofCertificate::Inductive {
            clauses: vec![not_three],
        };
        assert_eq!(verify_certificate(&mut tm, &ts, &good), Ok(()));
        let bad = corrupt_certificate(&mut tm, &good);
        assert_eq!(
            verify_certificate(&mut tm, &ts, &bad),
            Err(CertificateError::InitNotContained)
        );
    }

    #[test]
    fn proof_run_shape_is_consistent() {
        let run = ProofRun {
            result: BmcResult::Proved {
                method: ProofMethod::Pdr,
                depth: 2,
            },
            certificate: Some(ProofCertificate::Inductive { clauses: vec![] }),
            stats: ProveStats::default(),
        };
        assert!(run.result.is_proved());
        assert!(run.certificate.is_some());
        assert_eq!(ProofMethod::Pdr.to_string(), "pdr");
        assert_eq!(ProofMethod::KInduction.to_string(), "k-induction");
    }
}
