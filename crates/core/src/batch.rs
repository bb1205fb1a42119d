//! In-solver batched multi-bug detection over one shared unrolling.
//!
//! The per-job engine ([`crate::parallel`]) answers a twenty-mutation
//! catalogue with twenty independent detectors: twenty term managers, twenty
//! unrollings, twenty cold SAT solvers — even though every job checks the
//! *same* processor under the *same* QED property and differs only in which
//! mutated-gate condition is wired into the datapath.  [`BatchedDetector`]
//! collapses that redundancy inside the solver:
//!
//! * the transition system is built **once** with every catalogue entry's
//!   mutation guarded by a fresh *activation literal*
//!   ([`QedBuilder::build_catalogue`](crate::qed::QedBuilder::build_catalogue))
//!   — a free boolean variable that is neither a state variable nor an
//!   input, so unrolling maps it to itself
//!   in every frame and one literal switches its mutation on or off across
//!   the whole trace; a one-entry catalogue has no such literal — its
//!   mutation is compiled in unguarded and its activation is the constant
//!   `true`, so it runs the direct per-depth check's queries exactly,
//! * the unrolling is encoded **once** into one persistent
//!   [`BmcSession`] (rewriting, pinning,
//!   cone-of-influence refinement and the AIG layer all run once, and the
//!   append-only node→CNF-variable contract keeps every encoding valid for
//!   the session's lifetime),
//! * each entry×depth query is a
//!   [`check_assuming`](sepe_smt::IncrementalSolver::check_assuming) call
//!   under a one-hot assumption set
//!   ([`one_hot_assumptions`]): the entry's literal true, every other
//!   entry's literal false, plus the depth's bad state.  Learnt clauses and
//!   branching activities accumulated by one entry's queries transfer to the
//!   next — most of the QED machinery is mutation-independent, so most
//!   learnt clauses are too.
//!
//! Depths advance in lock-step: at each bound the session extends the
//! unrolling once, then queries every still-unresolved entry, so a detected
//! entry reports its *shortest* counterexample exactly like the per-depth
//! per-job modes, and verdicts/bounds/trace lengths are bit-identical to the
//! per-job engine at `jobs = 1` (the differential test suite holds the two
//! paths to that).  Both paths return the same [`BatchOutcome`], tallied
//! by the same per-job step, and a counterexample is classified by the
//! direct detector's own witness check, with the entry's fault plan.
//!
//! # Failure model
//!
//! The PR-6 fault machinery applies per *query*, not per run: an entry's
//! [`FaultPlan`] is armed on the shared solver only while that entry's query
//! executes.  A faked budget breach or an entry-level cancellation resolves
//! only its own entry.  A *panic* (or a genuine memory-cap breach) poisons
//! the shared solver, so the batch degrades instead of dying: the failed
//! entry re-runs on the per-job retry ladder (its shared-solver query counts
//! as attempt one at [`DegradationRung::Full`]), and every other unresolved
//! entry falls back to a fresh, fault-free per-job run — bystanders keep
//! their verdicts even when a neighbour detonates.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use sepe_processor::Mutation;
use sepe_smt::{one_hot_assumptions, FaultHooks, StopReason, TermId, TermManager};
use sepe_tsys::{BmcConfig, BmcFaultPlan, BmcMode, BmcSession, DepthStats, QueryOutcome};

use crate::detect::{Detection, Detector, DetectorConfig, Method};
use crate::fault::FaultPlan;
use crate::parallel::{
    panic_message, resume_retry_ladder, run_with_retry, BatchOutcome, BatchStats, DegradationRung,
    DetectionJob, JobOutcome, JobReport,
};

/// One entry of a mutation catalogue: a labelled bug, with an optional
/// per-entry fault plan (armed on the shared solver only while this entry's
/// queries run).
#[derive(Debug, Clone)]
pub struct CatalogueEntry {
    /// Human-readable entry label, carried through to results and reports.
    pub label: String,
    /// The injected bug this entry checks for.
    pub mutation: Mutation,
    /// Deterministic fault injection scoped to this entry's queries
    /// (default `None`).  The shared configuration's own `fault` field is
    /// ignored in batched mode — faults are per entry here.
    pub fault: Option<FaultPlan>,
}

impl CatalogueEntry {
    /// Creates an entry with no fault plan.
    pub fn new(label: impl Into<String>, mutation: Mutation) -> Self {
        CatalogueEntry {
            label: label.into(),
            mutation,
            fault: None,
        }
    }

    /// Arms a fault plan on this entry.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// Per-entry accumulators across the entry's shared-solver queries.
#[derive(Debug, Clone, Default)]
struct EntryAcc {
    conflicts: u64,
    runtime: Duration,
    queries: u64,
    depths: Vec<DepthStats>,
}

/// How an entry left the shared session for the per-job path.
enum Fallback {
    /// The entry's own query failed (panic, budget) and the retry policy
    /// grants more attempts: resume the ladder one rung down.
    Resume { panicked: bool },
    /// An innocent bystander of a poisoned shared solver: run the job fresh,
    /// from the top of the ladder, with its own fault plan.
    Fresh,
}

/// The batched multi-bug detector.
///
/// See the [module docs](self) for the encoding and failure model.
#[derive(Debug, Clone)]
pub struct BatchedDetector {
    detector: Detector,
}

impl BatchedDetector {
    /// Creates a batched detector over one shared configuration: the
    /// processor (whose `allowed_opcodes` are the catalogue's shared
    /// original-instruction universe), budgets and solver knobs apply to
    /// every entry.  The configuration's `time_limit` and `cancel` flags
    /// bound the whole catalogue, and its `retry` policy governs the
    /// per-entry fallback ladder: a failed entry's shared-solver query
    /// counts as the first rung.
    pub fn new(config: DetectorConfig) -> Self {
        BatchedDetector {
            detector: Detector::new(config),
        }
    }

    /// The shared configuration.
    pub fn config(&self) -> &DetectorConfig {
        self.detector.config()
    }

    /// Runs the whole catalogue under one method over one shared unrolling,
    /// returning one [`Detection`] per entry in catalogue order.
    pub fn run(&self, method: Method, catalogue: &[CatalogueEntry]) -> BatchOutcome {
        let start = Instant::now();
        let config = self.config();
        let retry = config.retry.unwrap_or_default();
        let granted = retry.max_retries >= 1;
        let mut stats = BatchStats {
            workers: 1,
            ..BatchStats::default()
        };
        if catalogue.is_empty() {
            stats.wall = start.elapsed();
            return BatchOutcome {
                detections: Vec::new(),
                reports: Vec::new(),
                stats,
            };
        }
        let n = catalogue.len();
        let deadline = config.time_limit.map(|l| start + l);

        // One build, one encoding: every entry's mutation rides in the same
        // transition system behind its activation literal.
        let (builder, scheme) = self.detector.qed(method);
        let mut tm = TermManager::new();
        let mutations: Vec<Mutation> = catalogue.iter().map(|e| e.mutation.clone()).collect();
        let (system, activated) = builder.build_catalogue(&mut tm, &scheme, &mutations);
        let acts: Vec<TermId> = activated.iter().map(|a| a.activation).collect();
        let session_config = BmcConfig {
            // lock-step depths: shortest counterexamples, like PerDepth
            mode: BmcMode::PerDepth,
            // per-entry faults are armed around individual queries instead
            fault: BmcFaultPlan::default(),
            ..self.detector.bmc_config()
        };
        let mut session = BmcSession::open(&mut tm, &system.ts, &session_config);
        stats.encodes = 1;

        let mut detections: Vec<Option<Detection>> = vec![None; n];
        let mut reports: Vec<Option<JobReport>> = vec![None; n];
        let mut acc: Vec<EntryAcc> = vec![EntryAcc::default(); n];
        let mut unresolved: Vec<usize> = (0..n).collect();
        let mut fallback: Vec<(usize, Fallback)> = Vec::new();
        let mut aborted: Option<StopReason> = None;
        let mut extended = 0usize;

        'depths: for bound in 1..=config.max_bound {
            if unresolved.is_empty() {
                break;
            }
            if config.cancel.iter().any(|f| f.load(Ordering::Relaxed)) {
                aborted = Some(StopReason::Cancelled);
                break;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                aborted = Some(StopReason::Deadline);
                break;
            }
            session.extend(&mut tm, bound);
            extended = bound;

            let mut still = Vec::with_capacity(unresolved.len());
            let mut idx = 0;
            while idx < unresolved.len() {
                let i = unresolved[idx];
                idx += 1;
                let entry = &catalogue[i];
                let fplan = entry.fault.unwrap_or_default();
                if fplan.cancel_at_depth == Some(bound) {
                    // Entry-level cancellation: resolved here, never
                    // retried (cancellation is a verdict, not a failure).
                    detections[i] = Some(inconclusive_detection(
                        method,
                        entry,
                        StopReason::Cancelled,
                        bound,
                        &mut acc[i],
                    ));
                    reports[i] = Some(shared_report(
                        entry,
                        JobOutcome::Stopped(StopReason::Cancelled),
                        false,
                    ));
                    continue;
                }
                let hooks = fplan.to_bmc().sat;
                if !hooks.is_empty() {
                    session.solver().set_fault_hooks(hooks);
                }
                let bad = session.bad_at(&mut tm, bound);
                let assumptions = one_hot_assumptions(&mut tm, &acts, i, &[bad]);
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    session.query(&mut tm, bound, &assumptions)
                }));
                if !hooks.is_empty() {
                    session.solver().set_fault_hooks(FaultHooks::default());
                }
                match result {
                    Err(payload) => {
                        // The shared solver is poisoned: this entry resumes
                        // on the ladder (if granted), everyone else still
                        // unresolved falls back to fresh per-job runs.
                        stats.queries += 1;
                        acc[i].queries += 1;
                        let outcome = JobOutcome::Failed {
                            message: panic_message(payload.as_ref()),
                        };
                        if granted {
                            fallback.push((i, Fallback::Resume { panicked: true }));
                        } else {
                            detections[i] = Some(inconclusive_detection(
                                method,
                                entry,
                                StopReason::Panicked,
                                bound,
                                &mut acc[i],
                            ));
                            reports[i] = Some(shared_report(entry, outcome, true));
                        }
                        for &j in still.iter().chain(&unresolved[idx..]) {
                            fallback.push((j, Fallback::Fresh));
                        }
                        unresolved.clear();
                        break 'depths;
                    }
                    Ok(outcome) => {
                        let q = session.last_query_stats().cloned().unwrap_or_default();
                        stats.queries += 1;
                        acc[i].queries += 1;
                        acc[i].conflicts += q.conflicts;
                        acc[i].runtime += q.duration;
                        acc[i].depths.push(q);
                        match outcome {
                            QueryOutcome::Counterexample(witness) => {
                                // The direct check's classifier: a witness
                                // that does not replay is a structured
                                // failure, retried on the ladder if granted.
                                let run = entry_detection(method, entry, bound, &mut acc[i]);
                                let detection = self.detector.classify_witness(
                                    Some(&entry.mutation),
                                    entry.fault,
                                    witness,
                                    run,
                                );
                                if detection.inconclusive && granted {
                                    fallback.push((i, Fallback::Resume { panicked: false }));
                                } else {
                                    let outcome = detection
                                        .stop_reason
                                        .map_or(JobOutcome::Completed, JobOutcome::Stopped);
                                    reports[i] = Some(shared_report(entry, outcome, false));
                                    detections[i] = Some(detection);
                                }
                            }
                            QueryOutcome::Unreachable => still.push(i),
                            QueryOutcome::Unknown(
                                reason @ (StopReason::Cancelled | StopReason::Deadline),
                            ) => {
                                // Shared budgets: gone for everyone.
                                aborted = Some(reason);
                                still.push(i);
                                still.extend(unresolved[idx..].iter().copied());
                                unresolved = still;
                                break 'depths;
                            }
                            QueryOutcome::Unknown(StopReason::MemoryBudget) if hooks.is_empty() => {
                                // A genuine breach: the shared arena is over
                                // the cap and every later query would breach
                                // too — degrade like a poisoning.
                                if granted {
                                    fallback.push((i, Fallback::Resume { panicked: false }));
                                } else {
                                    detections[i] = Some(inconclusive_detection(
                                        method,
                                        entry,
                                        StopReason::MemoryBudget,
                                        bound,
                                        &mut acc[i],
                                    ));
                                    reports[i] = Some(shared_report(
                                        entry,
                                        JobOutcome::Stopped(StopReason::MemoryBudget),
                                        false,
                                    ));
                                }
                                for &j in still.iter().chain(&unresolved[idx..]) {
                                    fallback.push((j, Fallback::Fresh));
                                }
                                unresolved.clear();
                                break 'depths;
                            }
                            QueryOutcome::Unknown(reason) => {
                                // Per-query exhaustion (conflict budget, a
                                // faked breach): this entry alone stops, or
                                // resumes on the ladder if granted.
                                let retryable = JobOutcome::Stopped(reason).should_retry()
                                    || reason == StopReason::Panicked;
                                if retryable && granted {
                                    fallback.push((i, Fallback::Resume { panicked: false }));
                                } else {
                                    detections[i] = Some(inconclusive_detection(
                                        method,
                                        entry,
                                        reason,
                                        bound,
                                        &mut acc[i],
                                    ));
                                    reports[i] = Some(shared_report(
                                        entry,
                                        JobOutcome::Stopped(reason),
                                        false,
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            if aborted.is_some() {
                break;
            }
            unresolved = still;
        }

        // Shared-session counters, before the fallback runs muddy the water.
        let shared = session.stats();
        stats.shared_conflicts = shared.conflicts;
        stats.deepest_bound = shared.deepest_bound;
        drop(session);

        // An entry as a per-job run, for the prover and the fallback paths.
        let entry_job = |entry: &CatalogueEntry| {
            DetectionJob::new(
                entry.label.clone(),
                DetectorConfig {
                    fault: entry.fault,
                    ..config.clone()
                },
                method,
                Some(entry.mutation.clone()),
            )
        };
        if let Some(reason) = aborted {
            for &i in &unresolved {
                let entry = &catalogue[i];
                let started = acc[i].queries > 0;
                detections[i] = Some(inconclusive_detection(
                    method,
                    entry,
                    reason,
                    extended,
                    &mut acc[i],
                ));
                let mut report = shared_report(entry, JobOutcome::Stopped(reason), false);
                report.attempts = u32::from(started);
                reports[i] = Some(report);
            }
        } else if config.prove.is_some() {
            // Entries that survived every bound get a dedicated per-entry
            // proof attempt (fresh system, concrete mutation — activation
            // literals would leak into the prover's cubes):
            // the prover can upgrade the bounded "clean to the bound" to a
            // conclusive `Proved`.  Runs through the per-job retry ladder,
            // so prover panics and budget faults degrade instead of
            // poisoning the batch.
            for &i in &unresolved {
                let (detection, report) = run_with_retry(&entry_job(&catalogue[i]), deadline);
                stats.proof_attempts += 1;
                // Each prover attempt re-encodes the entry's system.
                stats.encodes += u64::from(report.attempts);
                detections[i] = Some(detection);
                reports[i] = Some(report);
            }
        } else {
            // Entries that survived every bound: proven clean to the bound.
            for &i in &unresolved {
                let entry = &catalogue[i];
                detections[i] = Some(entry_detection(
                    method,
                    entry,
                    config.max_bound,
                    &mut acc[i],
                ));
                reports[i] = Some(shared_report(entry, JobOutcome::Completed, false));
            }
        }

        // Per-job fallback: poisoning bystanders run fresh, failed entries
        // resume the retry ladder one rung down from their shared attempt.
        for (i, kind) in fallback {
            let job = entry_job(&catalogue[i]);
            let (detection, report) = match kind {
                Fallback::Fresh => run_with_retry(&job, deadline),
                Fallback::Resume { panicked } => resume_retry_ladder(
                    &job,
                    deadline,
                    DegradationRung::Full.next(),
                    1,
                    u32::from(panicked),
                ),
            };
            stats.fallbacks += 1;
            // Every fallback attempt re-encodes from scratch; the shared
            // attempt (counted inside `report.attempts` for resumed
            // entries) already paid into `encodes = 1`.
            let shared_attempts = u64::from(matches!(kind, Fallback::Resume { .. }));
            stats.encodes += u64::from(report.attempts).saturating_sub(shared_attempts);
            detections[i] = Some(detection);
            reports[i] = Some(report);
        }

        let reports: Vec<JobReport> = reports
            .into_iter()
            .map(|r| r.expect("every entry resolves exactly once"))
            .collect();
        let detections: Vec<Detection> = detections
            .into_iter()
            .map(|d| d.expect("every entry resolves exactly once"))
            .collect();
        for (detection, report) in detections.iter().zip(&reports) {
            stats.absorb(detection, report);
        }
        // The shared session's solver last, so its per-check counters stand.
        stats.solver.absorb(&shared.solver);
        stats.wall = start.elapsed();
        BatchOutcome {
            detections,
            reports,
            stats,
        }
    }
}

/// An entry's verdict-free detection at `bound`, carrying whatever
/// shared-solver work the entry accumulated.
fn entry_detection(
    method: Method,
    entry: &CatalogueEntry,
    bound: usize,
    acc: &mut EntryAcc,
) -> Detection {
    Detection {
        runtime: acc.runtime,
        bound_reached: bound,
        conflicts: acc.conflicts,
        depths: std::mem::take(&mut acc.depths),
        ..Detection::blank(method, Some(entry.mutation.name.clone()))
    }
}

/// An entry's inconclusive detection: stopped at `bound` for `reason`.
fn inconclusive_detection(
    method: Method,
    entry: &CatalogueEntry,
    reason: StopReason,
    bound: usize,
    acc: &mut EntryAcc,
) -> Detection {
    Detection {
        inconclusive: true,
        stop_reason: Some(reason),
        ..entry_detection(method, entry, bound, acc)
    }
}

/// The report of an entry resolved by the shared session (one attempt, full
/// rung).
fn shared_report(entry: &CatalogueEntry, outcome: JobOutcome, panicked: bool) -> JobReport {
    JobReport {
        label: entry.label.clone(),
        outcome,
        attempts: 1,
        panicked_attempts: u32::from(panicked),
        rung: DegradationRung::Full,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_isa::Opcode;
    use sepe_processor::ProcessorConfig;

    /// Two Table-1 bugs plus the shared universe their triggers need.
    fn tiny_catalogue() -> (DetectorConfig, Vec<CatalogueEntry>) {
        let bugs: Vec<Mutation> = Mutation::table1().into_iter().take(2).collect();
        let mut opcodes = vec![Opcode::Addi];
        opcodes.extend(bugs.iter().filter_map(|b| b.target_opcode()));
        opcodes.dedup();
        let config = DetectorConfig {
            processor: ProcessorConfig::tiny().with_opcodes(&opcodes),
            max_bound: 2,
            ..DetectorConfig::default()
        };
        let catalogue = bugs
            .into_iter()
            .map(|b| CatalogueEntry::new(b.name.clone(), b))
            .collect();
        (config, catalogue)
    }

    #[test]
    fn empty_catalogue_returns_immediately() {
        let (config, _) = tiny_catalogue();
        let outcome = BatchedDetector::new(config).run(Method::Sqed, &[]);
        assert!(outcome.detections.is_empty());
        assert_eq!(outcome.stats.jobs, 0);
        assert_eq!(outcome.stats.encodes, 0);
    }

    #[test]
    fn shared_session_encodes_once_and_matches_per_job_verdicts() {
        let (config, catalogue) = tiny_catalogue();
        let outcome = BatchedDetector::new(config.clone()).run(Method::Sqed, &catalogue);
        assert_eq!(outcome.detections.len(), 2);
        assert_eq!(outcome.stats.encodes, 1, "one shared encoding");
        assert_eq!(outcome.stats.fallbacks, 0);
        assert_eq!(
            outcome.stats.queries,
            2 * 2,
            "every entry queried at every bound"
        );
        let per_job = Detector::new(config);
        for (entry, batched) in catalogue.iter().zip(&outcome.detections) {
            let solo = per_job.check(Method::Sqed, Some(&entry.mutation));
            assert_eq!(batched.detected, solo.detected, "{}", entry.label);
            assert_eq!(batched.inconclusive, solo.inconclusive, "{}", entry.label);
            assert_eq!(batched.trace_len, solo.trace_len, "{}", entry.label);
        }
    }

    #[test]
    fn an_exhausted_budget_stops_every_entry_before_its_first_query() {
        let (config, catalogue) = tiny_catalogue();
        let config = DetectorConfig {
            time_limit: Some(Duration::ZERO),
            ..config
        };
        let outcome = BatchedDetector::new(config).run(Method::Sqed, &catalogue);
        for (detection, report) in outcome.detections.iter().zip(&outcome.reports) {
            assert!(detection.inconclusive);
            assert_eq!(detection.stop_reason, Some(StopReason::Deadline));
            assert_eq!(report.outcome, JobOutcome::Stopped(StopReason::Deadline));
            assert_eq!(report.attempts, 0, "no entry was ever queried");
        }
        assert_eq!(outcome.stats.stop_reasons.deadline, 2);
        assert_eq!(outcome.stats.queries, 0);
        assert_eq!(outcome.stats.encodes, 1, "the shared session was opened");
    }

    #[test]
    fn entry_level_cancellation_leaves_neighbours_untouched() {
        let (config, mut catalogue) = tiny_catalogue();
        catalogue[0].fault = Some(FaultPlan::cancel_at(1));
        let outcome = BatchedDetector::new(config).run(Method::Sqed, &catalogue);
        let cancelled = &outcome.detections[0];
        assert!(cancelled.inconclusive);
        assert_eq!(cancelled.stop_reason, Some(StopReason::Cancelled));
        let neighbour = &outcome.detections[1];
        assert!(!neighbour.inconclusive, "the neighbour completes normally");
        assert_eq!(outcome.stats.cancelled, 1);
        assert_eq!(outcome.stats.encodes, 1, "no fallback for a cancellation");
    }
}
