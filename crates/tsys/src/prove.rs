//! Shared machinery of the unbounded prover: proof methods, certificates,
//! and the independent-solver proof self-check.
//!
//! A bounded model checker can only ever report "no bug within k steps"; the
//! IC3/PDR prover in [`pdr`](crate::pdr) closes the gap with a genuine
//! `Proved` verdict.  Because a wrong "Proved" is the worst answer this
//! stack can give — it silently certifies a buggy design — every proof
//! carries a [`ProofCertificate`] that [`verify_certificate`] re-checks on
//! *fresh* [`IncrementalSolver`]s, one per obligation, before the verdict is
//! allowed to leave the engine.  This is the proof-side twin of the
//! witness-replay self-check: the prover's own long-lived solver (with its
//! learnt clauses, activation literals and assumption plumbing) is
//! deliberately not trusted to audit itself.  The fresh solvers share no
//! state with the prover, but they do run the same SAT core, so the check
//! is independent of the prover's solver state and not of the CDCL
//! implementation itself.
//!
//! The obligations re-checked for the invariant `inv` (a conjunction of
//! frame clauses over the current-state variables):
//!
//! 1. `init ⊨ inv` — the initial states are inside the invariant,
//! 2. `inv ∧ T ⊨ inv′` — the invariant is closed under one transition,
//! 3. `inv ⊨ ¬bad` — the invariant excludes every bad state.
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
    /// Bradley-style IC3/PDR (`pdr.rs`).
    Pdr,
}

impl fmt::Display for ProofMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofMethod::Pdr => write!(f, "pdr"),
        }
    }
}

/// A checkable proof artefact, emitted alongside every `Proved` verdict: a
/// 1-inductive invariant.  The conjunction of `clauses` (terms over the
/// *original* current-state variables) holds initially, is closed under the
/// transition relation, and excludes the bad states.  An empty clause list
/// is the trivial invariant `true` (the bad states are unreachable because
/// no constrained state satisfies them).
#[derive(Debug, Clone)]
pub struct ProofCertificate {
    /// The invariant's clauses over the unprimed state variables.
    pub clauses: Vec<TermId>,
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
        }
    }
}

/// Work counters of one prover run, in the same spirit as
/// [`BmcStats`](crate::BmcStats) but with the prover-specific shape.
#[derive(Debug, Clone, Default)]
pub struct ProveStats {
    /// SAT queries issued across all of the run's solvers.
    pub queries: u64,
    /// SAT conflicts across all of the run's solvers.
    pub conflicts: u64,
    /// Total wall-clock time.
    pub duration: std::time::Duration,
    /// Highest PDR frontier frame reached.
    pub depth_reached: usize,
    /// Cubes blocked by a frame clause.
    pub cubes_blocked: u64,
    /// Clause-literal drops won from unsat cores during generalisation.
    pub literals_dropped: u64,
    /// Frame clauses pushed forward to a later frame.
    pub clauses_pushed: u64,
    /// Reuse counters of the run's frame solver.
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
    let mut unroller = Unroller::new(ts);
    let mut inv_at = |tm: &mut TermManager, k: usize| {
        let at: Vec<TermId> = certificate
            .clauses
            .iter()
            .map(|&c| unroller.term_at(tm, c, k))
            .collect();
        tm.and_many(at)
    };
    let inv0 = inv_at(tm, 0);
    let inv1 = inv_at(tm, 1);
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

/// Deterministically corrupts a certificate (fault injection for the
/// detection layer's `corrupt_proof` hook): the result claims an invariant
/// no constrained system satisfies, so [`verify_certificate`] must fail on
/// the very first obligation.  The proof-side twin of
/// `selfcheck::corrupt_witness`.
pub fn corrupt_certificate(
    tm: &mut TermManager,
    _certificate: &ProofCertificate,
) -> ProofCertificate {
    ProofCertificate {
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
        let cert = ProofCertificate {
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
        let cert = ProofCertificate {
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
        let cert = ProofCertificate { clauses: vec![tru] };
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
        let good = ProofCertificate {
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
            certificate: Some(ProofCertificate { clauses: vec![] }),
            stats: ProveStats::default(),
        };
        assert!(run.result.is_proved());
        assert!(run.certificate.is_some());
        assert_eq!(ProofMethod::Pdr.to_string(), "pdr");
    }
}
