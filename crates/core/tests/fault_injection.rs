//! Deterministic fault-injection tests of the fault-tolerance layer: every
//! [`StopReason`] variant, panic isolation, the retry degradation ladder,
//! and per-job cancel flags — all counter-indexed, no wall-clock
//! assertions.
//!
//! The workhorse job is the clean bound-2 SQED check over {ADD, XORI} on
//! the tiny processor: it completes conclusively in ~150 SAT conflicts, so
//! a fault planted at conflict 3–5 always fires, and the whole suite runs
//! in seconds.  The CI fault-injection job sweeps `SEPE_FAULT_SEED` through
//! the seeded-plan test below.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sepe_isa::Opcode;
use sepe_processor::ProcessorConfig;
use sepe_smt::{CancelFlag, StopReason};
use sepe_sqed::detect::{DetectorConfig, Method};
use sepe_sqed::fault::FaultPlan;
use sepe_sqed::parallel::{DegradationRung, DetectionJob, Engine, JobOutcome, RetryPolicy};
use sepe_tsys::ProofMethod;

/// The workhorse configuration: conclusive at bound 2 with ~150 conflicts.
fn busy_config() -> DetectorConfig {
    DetectorConfig {
        processor: ProcessorConfig::tiny().with_opcodes(&[Opcode::Add, Opcode::Xori]),
        max_bound: 2,
        ..DetectorConfig::default()
    }
}

fn busy_job(label: &str, fault: Option<FaultPlan>) -> DetectionJob {
    let mut config = busy_config();
    config.fault = fault;
    DetectionJob::new(label, config, Method::Sqed, None)
}

/// `job` with its own retry ladder of `max_retries` degraded re-runs.
fn retried(mut job: DetectionJob, max_retries: u32) -> DetectionJob {
    job.config.retry = Some(RetryPolicy::ladder(max_retries));
    job
}

#[test]
fn every_stop_reason_is_exercised_deterministically() {
    let jobs = || {
        let mut deadline = busy_config();
        // An already-expired wall budget trips the between-depths poll
        // before the first query — deterministic, no timing window.
        deadline.time_limit = Some(Duration::ZERO);
        let mut conflict = busy_config();
        conflict.conflict_limit = Some(10);
        vec![
            DetectionJob::new("deadline", deadline, Method::Sqed, None),
            DetectionJob::new("conflict", conflict, Method::Sqed, None),
            busy_job("memory", Some(FaultPlan::memory_breach_at(3))),
            busy_job("cancelled", Some(FaultPlan::cancel_at(1))),
            busy_job("panicked", Some(FaultPlan::panic_at(5))),
        ]
    };
    let sequential = Engine::new(1).run(jobs());
    let parallel = Engine::new(4).run(jobs());

    for outcome in [&sequential, &parallel] {
        let expect = [
            StopReason::Deadline,
            StopReason::ConflictBudget,
            StopReason::MemoryBudget,
            StopReason::Cancelled,
            StopReason::Panicked,
        ];
        for (i, want) in expect.iter().enumerate() {
            let d = &outcome.detections[i];
            let r = &outcome.reports[i];
            assert!(d.inconclusive, "job {} must be inconclusive", r.label);
            assert_eq!(
                d.stop_reason,
                Some(*want),
                "job {} classified wrong",
                r.label
            );
            match want {
                StopReason::Panicked => {
                    let JobOutcome::Failed { message } = &r.outcome else {
                        panic!("job {} must report Failed, got {:?}", r.label, r.outcome);
                    };
                    assert!(
                        message.contains("fault injection"),
                        "panic message lost: {message}"
                    );
                }
                reason => assert_eq!(r.outcome, JobOutcome::Stopped(*reason)),
            }
        }
        let tally = outcome.stats.stop_reasons;
        assert_eq!(tally.deadline, 1);
        assert_eq!(tally.conflict_budget, 1);
        assert_eq!(tally.memory_budget, 1);
        assert_eq!(tally.cancelled, 1);
        assert_eq!(tally.panicked, 1);
        assert_eq!(tally.total(), 5);
        assert_eq!(outcome.stats.panics, 1);
        assert_eq!(outcome.stats.retries, 0, "no retry policy configured");
    }

    // The whole classification is deterministic across worker counts: same
    // outcomes, same attempt counts, same conflict counters, bit for bit.
    for (i, (seq, par)) in sequential.reports.iter().zip(&parallel.reports).enumerate() {
        assert_eq!(seq.outcome, par.outcome, "outcome diverges on job {i}");
        assert_eq!(seq.attempts, par.attempts, "attempts diverge on job {i}");
        assert_eq!(
            sequential.detections[i].conflicts, parallel.detections[i].conflicts,
            "conflict counter diverges on job {i}"
        );
    }
}

#[test]
fn a_panicking_job_does_not_poison_the_batch() {
    // Neighbors around the bomb: one conflict-free job and one that does
    // real search work.
    let neighbors = |fault| {
        let mut sepe = busy_config();
        sepe.processor = ProcessorConfig::tiny().with_opcodes(&[Opcode::Add, Opcode::Addi]);
        vec![
            DetectionJob::new("left", sepe.clone(), Method::SepeSqed, None),
            busy_job("bomb", fault),
            DetectionJob::new("right", sepe, Method::SepeSqed, None),
            busy_job("busy", None),
        ]
    };
    let clean = Engine::new(4).run(neighbors(None));
    let faulted = Engine::new(4).run(neighbors(Some(FaultPlan::panic_at(5))));

    // No worker died: every job of the faulted batch delivered a result.
    assert_eq!(faulted.detections.len(), 4);
    assert!(matches!(
        faulted.reports[1].outcome,
        JobOutcome::Failed { .. }
    ));
    assert_eq!(
        faulted.detections[1].stop_reason,
        Some(StopReason::Panicked)
    );

    // Every other job is bit-identical to the fault-free batch.
    for i in [0, 2, 3] {
        let (c, f) = (&clean.detections[i], &faulted.detections[i]);
        assert_eq!(c.detected, f.detected, "verdict diverges on job {i}");
        assert_eq!(c.inconclusive, f.inconclusive);
        assert_eq!(c.conflicts, f.conflicts, "conflicts diverge on job {i}");
        assert_eq!(c.bound_reached, f.bound_reached);
        assert_eq!(c.trace_len, f.trace_len);
        assert_eq!(clean.reports[i].outcome, faulted.reports[i].outcome);
    }
    assert_eq!(faulted.stats.panics, 1);
}

#[test]
fn retry_ladder_recovers_a_panicking_job_one_rung_down() {
    let outcome = Engine::new(1).run(vec![retried(
        busy_job("bomb", Some(FaultPlan::panic_at(5))),
        2,
    )]);
    let report = &outcome.reports[0];
    // First attempt panics at conflict 5; the fault applies to the first
    // attempt only, so the aig_off retry runs clean and completes.
    assert_eq!(report.outcome, JobOutcome::Completed);
    assert_eq!(report.attempts, 2);
    assert_eq!(report.panicked_attempts, 1);
    assert_eq!(report.rung, DegradationRung::AigOff);
    let d = &outcome.detections[0];
    assert!(!d.detected && !d.inconclusive, "the retry must conclude");
    assert_eq!(d.stop_reason, None);
    assert_eq!(outcome.stats.retries, 1);
    assert_eq!(outcome.stats.degraded_runs, 1);
    assert_eq!(outcome.stats.panics, 1);
}

#[test]
fn persistent_fault_exhausts_the_ladder() {
    // `every_attempt` keeps the panic armed on every rung, and every rung
    // runs the full bound, so no rung dodges it: the job dies on each rung
    // it is given and stays Failed.  A policy with more retries than the
    // ladder has rungs stops at the last rung instead of re-running it.
    let bomb = || busy_job("bomb", Some(FaultPlan::panic_at(5).every_attempt()));
    for (max_retries, attempts, last) in [
        (1, 2, DegradationRung::AigOff),
        (2, 3, DegradationRung::NoRewrite),
        (3, 3, DegradationRung::NoRewrite),
        (8, 3, DegradationRung::NoRewrite),
    ] {
        let outcome = Engine::new(1).run(vec![retried(bomb(), max_retries)]);
        let report = &outcome.reports[0];
        assert!(
            matches!(report.outcome, JobOutcome::Failed { .. }),
            "ladder({max_retries}) must end Failed, got {:?}",
            report.outcome
        );
        assert_eq!(report.attempts, attempts, "ladder({max_retries})");
        assert_eq!(report.panicked_attempts, attempts, "ladder({max_retries})");
        assert_eq!(report.rung, last, "ladder({max_retries})");
        assert_eq!(outcome.stats.retries, u64::from(attempts - 1));
        assert_eq!(outcome.stats.stop_reasons.panicked, 1);
    }
}

#[test]
fn every_rung_answers_the_bound_that_was_asked() {
    // Jobs that end on every rung, conclusive or not: a clean verdict is
    // only ever reported for the whole requested bound.
    let mut jobs = Vec::new();
    for max_retries in 0..=3 {
        jobs.push(retried(busy_job("clean", None), max_retries));
        jobs.push(retried(
            busy_job("once", Some(FaultPlan::panic_at(5))),
            max_retries,
        ));
        jobs.push(retried(
            busy_job("every", Some(FaultPlan::panic_at(5).every_attempt())),
            max_retries,
        ));
        jobs.push(retried(
            busy_job("oom", Some(FaultPlan::memory_breach_at(3))),
            max_retries,
        ));
    }
    let outcome = Engine::new(2).run(jobs);
    for (d, r) in outcome.detections.iter().zip(&outcome.reports) {
        if !d.detected && !d.inconclusive {
            assert_eq!(
                d.bound_reached,
                busy_config().max_bound,
                "job {} on rung {} reported clean below the requested bound",
                r.label,
                r.rung
            );
        }
    }
    // The retried one-shot faults conclude one rung down.
    let recovered = outcome
        .reports
        .iter()
        .filter(|r| r.outcome == JobOutcome::Completed && r.rung == DegradationRung::AigOff)
        .count();
    assert_eq!(recovered, 6, "once/oom jobs with 1..=3 retries");
}

#[test]
fn budget_exhaustion_is_retried_but_cancellation_is_not() {
    // A faked memory breach is a per-solver budget verdict: retry-worthy.
    let outcome = Engine::new(1).run(vec![retried(
        busy_job("oom", Some(FaultPlan::memory_breach_at(3))),
        1,
    )]);
    assert_eq!(outcome.reports[0].outcome, JobOutcome::Completed);
    assert_eq!(outcome.reports[0].attempts, 2);
    assert_eq!(outcome.stats.retries, 1);

    // Cancellation is a verdict about the job's caller — never retried.
    let outcome = Engine::new(1).run(vec![retried(
        busy_job("cut", Some(FaultPlan::cancel_at(1))),
        3,
    )]);
    assert_eq!(
        outcome.reports[0].outcome,
        JobOutcome::Stopped(StopReason::Cancelled)
    );
    assert_eq!(outcome.reports[0].attempts, 1);
    assert_eq!(outcome.stats.retries, 0);
}

#[test]
fn a_callers_cancel_flag_chains_with_the_batch_flag() {
    // The caller arms a private, already-raised flag on one job.  The
    // engine must keep it armed on that job alone, so exactly that job
    // comes back cancelled while its neighbors complete.
    let private: CancelFlag = Arc::new(AtomicBool::new(true));
    let mut cut = busy_config();
    cut.cancel.push(private.clone());
    let jobs = vec![
        busy_job("before", None),
        DetectionJob::new("cut", cut, Method::Sqed, None),
        busy_job("after", None),
    ];
    let outcome = Engine::new(2).run(jobs);
    assert_eq!(outcome.reports[0].outcome, JobOutcome::Completed);
    assert_eq!(
        outcome.reports[1].outcome,
        JobOutcome::Stopped(StopReason::Cancelled),
        "the caller's flag was swallowed by the engine"
    );
    assert!(outcome.detections[1].inconclusive);
    assert_eq!(outcome.reports[2].outcome, JobOutcome::Completed);
    // The private flag must not leak into the other jobs.
    assert_eq!(outcome.stats.stop_reasons.cancelled, 1);
    assert!(
        private.load(Ordering::Relaxed),
        "nobody lowers caller flags"
    );
}

/// The prove-mode workhorse: PDR on the clean tiny/ADD SQED design, frontier
/// cap 4.  The proof closes in a few dozen SAT conflicts spread over about a
/// thousand queries, so solver-cumulative triggers at conflicts 3 and 5
/// fire inside it, and a per-query conflict budget of 1 trips on the first
/// query that conflicts at all.
fn prove_config() -> DetectorConfig {
    DetectorConfig {
        processor: ProcessorConfig::tiny().with_opcodes(&[Opcode::Add]),
        max_bound: 4,
        prove: Some(ProofMethod::Pdr),
        ..DetectorConfig::default()
    }
}

fn prove_job(label: &str, fault: Option<FaultPlan>) -> DetectionJob {
    let mut config = prove_config();
    config.fault = fault;
    DetectionJob::new(label, config, Method::Sqed, None)
}

#[test]
fn faults_inside_the_provers_classify_and_isolate_identically() {
    // Every fault class planted *inside* a PDR run: the prover must come
    // back Unknown with the same structured StopReason the bounded path
    // reports, clean prove-mode bystanders must be bit-identical to a
    // fault-free batch, and the whole classification must not depend on
    // the worker count.
    let jobs = || {
        let mut deadline = prove_config();
        deadline.time_limit = Some(Duration::ZERO);
        let mut conflict = prove_config();
        conflict.conflict_limit = Some(1);
        vec![
            prove_job("clean-left", None),
            DetectionJob::new("deadline", deadline, Method::Sqed, None),
            DetectionJob::new("conflict", conflict, Method::Sqed, None),
            prove_job("memory", Some(FaultPlan::memory_breach_at(3))),
            prove_job("cancelled", Some(FaultPlan::cancel_at(1))),
            prove_job("panicked", Some(FaultPlan::panic_at(5))),
            prove_job("clean-right", None),
        ]
    };
    // Every job is the same proof with a fault planted in it; run without
    // a fault, that proof closes and self-checks, so each fault below lands
    // in a run that would otherwise have concluded.
    let clean = Engine::new(1).run(vec![prove_job("clean", None)]);
    let c = &clean.detections[0];
    assert!(
        c.proved && c.proof_checked == Some(true),
        "the fault-free proof must close: {c:?}"
    );
    let sequential = Engine::new(1).run(jobs());
    let parallel = Engine::new(4).run(jobs());

    for outcome in [&sequential, &parallel] {
        let expect = [
            (1, StopReason::Deadline),
            (2, StopReason::ConflictBudget),
            (3, StopReason::MemoryBudget),
            (4, StopReason::Cancelled),
            (5, StopReason::Panicked),
        ];
        for (i, want) in expect {
            let d = &outcome.detections[i];
            assert!(
                d.inconclusive,
                "prove-mode job {} must be inconclusive",
                outcome.reports[i].label
            );
            assert_eq!(
                d.stop_reason,
                Some(want),
                "prove-mode job {} classified wrong",
                outcome.reports[i].label
            );
            assert!(!d.proved, "a faulted prover must never report proved");
        }
        // The clean bystanders conclude exactly as the fault-free proof.
        for i in [0, 6] {
            let f = &outcome.detections[i];
            assert_eq!(c.detected, f.detected, "verdict diverges on job {i}");
            assert_eq!(c.inconclusive, f.inconclusive);
            assert_eq!(c.proved, f.proved);
            assert_eq!(c.conflicts, f.conflicts, "conflicts diverge on job {i}");
            assert_eq!(c.bound_reached, f.bound_reached);
        }
        assert_eq!(outcome.stats.panics, 1);
    }

    // jobs = 1 and jobs = 4 classify bit-identically.
    for i in 0..7 {
        assert_eq!(
            sequential.reports[i].outcome, parallel.reports[i].outcome,
            "outcome diverges on prove-mode job {i}"
        );
        assert_eq!(
            sequential.detections[i].conflicts, parallel.detections[i].conflicts,
            "conflict counter diverges on prove-mode job {i}"
        );
        assert_eq!(
            sequential.detections[i].stop_reason, parallel.detections[i].stop_reason,
            "stop reason diverges on prove-mode job {i}"
        );
    }
}

#[test]
fn seeded_fault_plans_reproduce_across_worker_counts() {
    // The CI seed matrix pins SEPE_FAULT_SEED; locally the test sweeps a
    // small default range.  Each seeded plan is injected into the busy job
    // surrounded by clean neighbors, and the whole batch must classify
    // identically on 1 and 4 workers.
    let seeds: Vec<u64> = match std::env::var("SEPE_FAULT_SEED") {
        Ok(s) => vec![s.parse().expect("SEPE_FAULT_SEED must be an integer")],
        Err(_) => (0..6).collect(),
    };
    for seed in seeds {
        let plan = FaultPlan::seeded(seed);
        let jobs = || {
            vec![
                retried(busy_job("clean", None), 2),
                retried(busy_job("faulted", Some(plan)), 2),
            ]
        };
        let sequential = Engine::new(1).run(jobs());
        let parallel = Engine::new(4).run(jobs());
        for i in 0..2 {
            assert_eq!(
                sequential.reports[i].outcome, parallel.reports[i].outcome,
                "seed {seed}: outcome diverges on job {i}"
            );
            assert_eq!(
                sequential.reports[i].attempts, parallel.reports[i].attempts,
                "seed {seed}: attempts diverge on job {i}"
            );
            assert_eq!(
                sequential.reports[i].rung, parallel.reports[i].rung,
                "seed {seed}: final rung diverges on job {i}"
            );
            assert_eq!(
                sequential.detections[i].conflicts, parallel.detections[i].conflicts,
                "seed {seed}: conflict counter diverges on job {i}"
            );
            assert_eq!(
                sequential.detections[i].stop_reason, parallel.detections[i].stop_reason,
                "seed {seed}: stop reason diverges on job {i}"
            );
        }
        assert_eq!(
            sequential.stats.retries, parallel.stats.retries,
            "seed {seed}: retry totals diverge"
        );
        assert_eq!(
            sequential.stats.stop_reasons, parallel.stats.stop_reasons,
            "seed {seed}: stop-reason tallies diverge"
        );
    }
}
