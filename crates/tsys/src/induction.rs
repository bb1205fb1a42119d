//! Eén–Sörensson temporal induction (k-induction) on the incremental stack.
//!
//! Two persistent [`IncrementalSolver`]s run in lock-step, one per proof
//! obligation, each extending its own unrolling append-only exactly like a
//! [`BmcSession`]:
//!
//! * the **base** solver carries `init ∧ T(0..k)` and answers
//!   `bad@k` as a retractable assumption — plain per-depth BMC, so a
//!   falsified property comes back with a genuine shortest-first
//!   [`Witness`](crate::Witness);
//! * the **step** solver carries an *init-free* unrolling
//!   `T(0..k) ∧ ¬bad@0 ∧ … ∧ ¬bad@k-1` (the `¬bad` frames asserted
//!   permanently as `k` grows — they are monotone) and answers `bad@k` as a
//!   retractable assumption.  An unsatisfiable step case at depth `k`,
//!   together with the base cases below `k`, proves the bad states
//!   unreachable at **every** depth.
//!
//! Plain k-induction is incomplete: a step case can stay satisfiable
//! forever by looping through the same states.  The classic fix is the
//! *simple-path* (path-uniqueness) strengthening — assert that every pair
//! of frames differs in at least one state variable, which preserves
//! soundness (any reachable bad state is reachable along a loop-free path)
//! and makes the method complete on finite-state systems.  Those pairwise
//! constraints are quadratic in `k`, so they are added **lazily**: only
//! once a step case actually comes back satisfiable, and permanently from
//! then on (they too are monotone, so the incremental contract holds).
//!
//! The step solver runs with cone-of-influence reduction **disabled** even
//! when `config.simplify` is on: the uniqueness constraints range over
//! *all* state variables, and a frame copy whose next-state update the cone
//! pass dropped would float unconstrained inside them.  Word-level
//! rewriting and the AIG layer stay on — both are equisatisfiability
//! preserving.  The base solver is an ordinary BMC session and keeps its
//! cone refinement.

use std::time::Instant;

use sepe_smt::{IncrementalSolver, SatResult, StopReason, TermId, TermManager};

use crate::bmc::{BmcConfig, BmcResult};
use crate::prove::{uniqueness_constraints, ProofCertificate, ProofMethod, ProofRun, ProveStats};
use crate::session::{BmcSession, QueryOutcome};
use crate::ts::TransitionSystem;
use crate::unroll::Unroller;

/// The temporal-induction prover.  Reuses [`BmcConfig`] wholesale: budgets,
/// cancellation flags, preprocessing toggles and the fault plan mean exactly
/// what they mean for [`Bmc`](crate::Bmc); `mode` is ignored (the two
/// sessions are inherently per-depth incremental).
#[derive(Debug, Clone, Default)]
pub struct KInduction {
    config: BmcConfig,
}

impl KInduction {
    /// Creates a prover with the given configuration.
    pub fn new(config: BmcConfig) -> Self {
        KInduction { config }
    }

    /// Runs base and step cases in lock-step up to induction depth
    /// `max_depth`.
    ///
    /// Outcomes: [`BmcResult::Counterexample`] when a base case is
    /// satisfiable (with the witness), [`BmcResult::Proved`] when a step
    /// case closes (certificate attached), [`BmcResult::NoCounterexample`]
    /// when `max_depth` passes without either, [`BmcResult::Unknown`] when
    /// a budget or fault interrupts.  `config.start_bound` skips base cases
    /// below it (the QED systems are consistent at depth 0 by
    /// construction), but the step hypothesis still covers every frame.
    pub fn check(
        &mut self,
        tm: &mut TermManager,
        ts: &TransitionSystem,
        max_depth: usize,
    ) -> ProofRun {
        let started = Instant::now();
        let mut stats = ProveStats::default();

        // Base solver: a plain BMC session (init asserted, cone refinement
        // active, witness extraction for free).
        let mut base = BmcSession::open(tm, ts, &self.config);
        if !self.config.fault.sat.is_empty() {
            base.solver().set_fault_hooks(self.config.fault.sat);
        }

        // Step solver: init-free unrolling, cone reduction off (see the
        // module docs), everything else configured like the base.
        let mut step = IncrementalSolver::new();
        step.set_aig(self.config.aig);
        step.set_simplify(self.config.simplify);
        step.set_conflict_limit(self.config.conflict_limit);
        step.set_deadline(self.config.time_limit.map(|limit| started + limit));
        step.set_cancel_flags(self.config.cancel.clone());
        step.set_memory_limit(self.config.memory_limit);
        if !self.config.fault.sat.is_empty() {
            step.set_fault_hooks(self.config.fault.sat);
        }
        let mut step_unroller = Unroller::new(ts);
        let c0 = step_unroller.constraints_at(tm, 0);
        step.assert_term(tm, c0);
        let mut step_frames = 0usize; // transitions asserted so far
        let mut hypotheses = 0usize; // ¬bad frames asserted so far
        let mut unique = false; // simple-path strengthening armed?
        let mut unique_upto = 0usize; // frames covered by uniqueness pairs

        let finish = |result: BmcResult,
                      certificate: Option<ProofCertificate>,
                      mut stats: ProveStats,
                      base: &BmcSession<'_>,
                      step: &IncrementalSolver,
                      depth: usize| {
            let base_stats = base.stats();
            stats.queries += base_stats.queries;
            stats.conflicts += base_stats.conflicts;
            stats.conflicts += step.stats().conflicts;
            stats.duration = started.elapsed();
            stats.depth_reached = depth;
            stats.solver = step.stats();
            ProofRun {
                result,
                certificate,
                stats,
            }
        };

        let mut depth = self.config.start_bound;
        loop {
            if depth > max_depth {
                return finish(
                    BmcResult::NoCounterexample { bound: max_depth },
                    None,
                    stats,
                    &base,
                    &step,
                    max_depth,
                );
            }
            // Injected cancellation at the between-depths poll, mirroring
            // the per-depth BMC modes.
            if self.config.fault.cancel_at_depth == Some(depth) {
                return finish(
                    BmcResult::Unknown {
                        bound: depth,
                        reason: StopReason::Cancelled,
                    },
                    None,
                    stats,
                    &base,
                    &step,
                    depth,
                );
            }

            // Base case at `depth`.
            base.extend(tm, depth);
            let bad = base.bad_at(tm, depth);
            match base.query(tm, depth, &[bad]) {
                QueryOutcome::Counterexample(witness) => {
                    return finish(
                        BmcResult::Counterexample(witness),
                        None,
                        stats,
                        &base,
                        &step,
                        depth,
                    );
                }
                QueryOutcome::Unknown(reason) => {
                    return finish(
                        BmcResult::Unknown {
                            bound: depth,
                            reason,
                        },
                        None,
                        stats,
                        &base,
                        &step,
                        depth,
                    );
                }
                QueryOutcome::Unreachable => {}
            }

            // Step case at `depth` (the depth-0 step case — "no constrained
            // state is bad" — is legitimate but usually satisfiable; it
            // costs one cheap query).
            while step_frames < depth {
                let t = step_unroller.transition(tm, step_frames);
                step.assert_term(tm, t);
                let c = step_unroller.constraints_at(tm, step_frames + 1);
                step.assert_term(tm, c);
                step_frames += 1;
            }
            while hypotheses < depth {
                let bad_h = step_unroller.bad_at(tm, hypotheses);
                let not_bad = tm.not(bad_h);
                step.assert_term(tm, not_bad);
                hypotheses += 1;
            }
            if unique && unique_upto < depth {
                for pair in new_uniqueness_pairs(tm, ts, &mut step_unroller, unique_upto, depth) {
                    step.assert_term(tm, pair);
                    stats.uniqueness_constraints += 1;
                }
                unique_upto = depth;
            }
            let bad_k = step_unroller.bad_at(tm, depth);
            let mut outcome = step.check_assuming(tm, &[bad_k]);
            stats.queries += 1;
            if outcome == SatResult::Sat && !unique && depth >= 1 && !ts.state_vars().is_empty() {
                // The step case leaked: arm the simple-path strengthening
                // lazily and re-ask the same depth.
                unique = true;
                for pair in uniqueness_constraints(tm, ts, &mut step_unroller, depth) {
                    step.assert_term(tm, pair);
                    stats.uniqueness_constraints += 1;
                }
                unique_upto = depth;
                outcome = step.check_assuming(tm, &[bad_k]);
                stats.queries += 1;
            }
            match outcome {
                SatResult::Unsat => {
                    let certificate = ProofCertificate::KInduction {
                        depth,
                        start_bound: self.config.start_bound,
                        unique,
                    };
                    return finish(
                        BmcResult::Proved {
                            method: ProofMethod::KInduction,
                            depth,
                        },
                        Some(certificate),
                        stats,
                        &base,
                        &step,
                        depth,
                    );
                }
                SatResult::Sat => {}
                SatResult::Unknown => {
                    let reason = step.stop_reason().unwrap_or(StopReason::ConflictBudget);
                    return finish(
                        BmcResult::Unknown {
                            bound: depth,
                            reason,
                        },
                        None,
                        stats,
                        &base,
                        &step,
                        depth,
                    );
                }
            }
            depth += 1;
        }
    }
}

/// The uniqueness pairs that involve at least one frame in `(upto, k]` —
/// the delta when the unrolling grows from `upto` to `k` frames with the
/// strengthening already armed.
fn new_uniqueness_pairs(
    tm: &mut TermManager,
    ts: &TransitionSystem,
    unroller: &mut Unroller<'_>,
    upto: usize,
    k: usize,
) -> Vec<TermId> {
    let vars: Vec<TermId> = ts.state_vars().iter().map(|v| v.current).collect();
    if vars.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..k {
        for j in (i + 1).max(upto + 1)..=k {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prove::verify_certificate;
    use sepe_smt::Sort;

    /// A two-bit counter that wraps at 2: count ∈ {0, 1, 2}, bad = 3.
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

    /// A free-running two-bit counter: bad = 3 is reached after 3 steps.
    fn free_counter(tm: &mut TermManager) -> TransitionSystem {
        let count = tm.var("count", Sort::BitVec(2));
        let zero = tm.zero(2);
        let one = tm.one(2);
        let three = tm.bv_const(3, 2);
        let next = tm.bv_add(count, one);
        let bad = tm.eq(count, three);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(tm, count, Some(zero), next);
        ts.add_bad(bad);
        ts
    }

    #[test]
    fn proves_the_capped_counter_and_the_certificate_verifies() {
        let mut tm = TermManager::new();
        let ts = capped_counter(&mut tm);
        let run = KInduction::new(BmcConfig::default()).check(&mut tm, &ts, 8);
        let BmcResult::Proved { method, depth } = run.result else {
            panic!("expected a proof, got {:?}", run.result);
        };
        assert_eq!(method, ProofMethod::KInduction);
        assert!(depth <= 4, "the counter has 3 reachable states");
        let cert = run.certificate.expect("proof carries a certificate");
        assert_eq!(verify_certificate(&mut tm, &ts, &cert), Ok(()));
    }

    #[test]
    fn falsifies_the_free_counter_with_a_minimal_witness() {
        let mut tm = TermManager::new();
        let ts = free_counter(&mut tm);
        let run = KInduction::new(BmcConfig::default()).check(&mut tm, &ts, 8);
        let BmcResult::Counterexample(w) = run.result else {
            panic!("expected a counterexample, got {:?}", run.result);
        };
        assert_eq!(w.num_steps(), 3, "0 → 1 → 2 → 3");
        assert!(run.certificate.is_none());
    }

    #[test]
    fn uniqueness_constraints_fire_only_when_needed() {
        // The capped counter's step case at small k admits a loop-free
        // spurious path (e.g. 3 → 0 with bad at the start), so the proof
        // needs the simple-path strengthening; the run must record it.
        let mut tm = TermManager::new();
        let ts = capped_counter(&mut tm);
        let run = KInduction::new(BmcConfig::default()).check(&mut tm, &ts, 8);
        assert!(run.result.is_proved());
        if let Some(ProofCertificate::KInduction { unique, .. }) = run.certificate {
            assert_eq!(
                unique,
                run.stats.uniqueness_constraints > 0,
                "the certificate records exactly what the prover asserted"
            );
        } else {
            panic!("wrong certificate shape");
        }
    }

    #[test]
    fn depth_cap_reports_no_counterexample() {
        // An 8-bit counter capped at 200 with bad = 255: provable, but only
        // at depths far beyond a cap of 2 — the run must fall back to the
        // bounded verdict, not claim a proof.
        let mut tm = TermManager::new();
        let count = tm.var("big", Sort::BitVec(8));
        let zero = tm.zero(8);
        let one = tm.one(8);
        let cap = tm.bv_const(200, 8);
        let bad_val = tm.bv_const(255, 8);
        let at_cap = tm.eq(count, cap);
        let inc = tm.bv_add(count, one);
        let next = tm.ite(at_cap, zero, inc);
        let bad = tm.eq(count, bad_val);
        let mut ts = TransitionSystem::new();
        ts.add_state_var(&tm, count, Some(zero), next);
        ts.add_bad(bad);
        let run = KInduction::new(BmcConfig::default()).check(&mut tm, &ts, 2);
        assert!(
            matches!(run.result, BmcResult::NoCounterexample { bound: 2 }),
            "got {:?}",
            run.result
        );
    }

    #[test]
    fn injected_cancellation_stops_cleanly() {
        let mut tm = TermManager::new();
        let ts = capped_counter(&mut tm);
        let config = BmcConfig {
            fault: crate::BmcFaultPlan {
                cancel_at_depth: Some(1),
                ..Default::default()
            },
            ..Default::default()
        };
        let run = KInduction::new(config).check(&mut tm, &ts, 8);
        assert!(
            matches!(
                run.result,
                BmcResult::Unknown {
                    bound: 1,
                    reason: StopReason::Cancelled
                }
            ),
            "got {:?}",
            run.result
        );
    }
}
