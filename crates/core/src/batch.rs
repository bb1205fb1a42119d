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
//!   ([`QedBuilder::build_catalogue`]) — a free boolean variable that is
//!   neither a state variable nor an input, so unrolling maps it to itself
//!   in every frame and one literal switches its mutation on or off across
//!   the whole trace,
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
//! paths to that).
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

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sepe_processor::Mutation;
use sepe_smt::{
    one_hot_assumptions, CancelFlag, FaultHooks, SolverReuseStats, StopReason, TermId, TermManager,
};
use sepe_tsys::{BmcConfig, BmcFaultPlan, BmcMode, BmcSession, DepthStats, QueryOutcome};

use crate::detect::{Detection, Detector, DetectorConfig, Method};
use crate::fault::FaultPlan;
use crate::parallel::{
    panic_message, resume_retry_ladder, run_with_retry, DegradationRung, DetectionJob, JobOutcome,
    JobReport, RetryPolicy, StopReasonTally,
};
use crate::qed::{QedBuilder, Scheme};

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

/// Aggregate counters of one batched run.  The encode-once economics are
/// all here: `encodes` stays at 1 unless something poisons the shared
/// solver, while the per-job engine pays one encoding per job.
#[derive(Debug, Clone, Default)]
pub struct BatchedStats {
    /// Catalogue entries scheduled.
    pub entries: u64,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Queries issued on the shared solver (≤ entries × bounds; resolved
    /// entries stop querying).
    pub queries: u64,
    /// Transition-system encodings paid for: 1 for the shared session, plus
    /// one per per-job fallback attempt.  The per-job engine pays
    /// `entries` here — this counter against that baseline is the
    /// deterministic form of the batched-throughput claim.
    pub encodes: u64,
    /// Entries whose final answer came from the per-job fallback path
    /// (shared-solver poisoning, or a budget-stopped entry granted a
    /// retry).
    pub fallbacks: u64,
    /// Deepest bound the shared unrolling was extended to.
    pub deepest_bound: usize,
    /// SAT conflicts spent by the shared solver (fallback runs not
    /// included; their conflicts are in the per-entry detections).
    pub shared_conflicts: u64,
    /// Retry attempts across all entries (attempts beyond each entry's
    /// first).
    pub retries: u64,
    /// Entries whose final attempt ran below [`DegradationRung::Full`].
    pub degraded_runs: u64,
    /// Attempts that panicked and were caught.
    pub panics: u64,
    /// Entries that ended inconclusive because a cancellation flag was
    /// raised.
    pub cancelled: u64,
    /// Final-outcome tallies by stop reason (completed entries are not
    /// tallied).
    pub stop_reasons: StopReasonTally,
    /// Concrete witness replays performed on final counterexamples.
    pub witness_validations: u64,
    /// Replays whose final verdict was a mismatch (the entry was demoted to
    /// [`StopReason::WitnessMismatch`] instead of reporting a wrong bug).
    pub witness_mismatches: u64,
    /// Per-entry unbounded-prover runs dispatched for entries that survived
    /// the shared bounded phase (prove mode only).
    pub proof_attempts: u64,
    /// Entries whose final verdict was `Proved` — clean at *every* depth,
    /// certificate checked.
    pub proved: u64,
    /// Certificates whose independent-solver self-check failed (the entry
    /// was demoted to [`StopReason::ProofMismatch`] instead of reporting a
    /// wrong proof).
    pub proof_mismatches: u64,
    /// The shared session's solver-reuse counters: one encoding's worth of
    /// CNF (`cnf_vars`/`cnf_clauses`), cache hits across queries, learnt
    /// clauses retained between them.
    pub solver: SolverReuseStats,
}

impl fmt::Display for BatchedStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} entries in {:.2}s: {} shared queries to bound {}, {} encodes, \
             {} fallbacks, {} shared conflicts, {} retries, {} panics",
            self.entries,
            self.wall.as_secs_f64(),
            self.queries,
            self.deepest_bound,
            self.encodes,
            self.fallbacks,
            self.shared_conflicts,
            self.retries,
            self.panics,
        )
    }
}

/// The result of [`BatchedDetector::run`]: one [`Detection`] per catalogue
/// entry, in catalogue order, plus execution reports and the aggregate
/// counters — the same shape as the per-job engine's
/// [`BatchOutcome`](crate::parallel::BatchOutcome), so drivers can consume
/// either.
#[derive(Debug, Clone)]
pub struct BatchedOutcome {
    /// Per-entry results; `detections[i]` answers `catalogue[i]`.
    pub detections: Vec<Detection>,
    /// Per-entry execution reports, parallel to `detections`.
    pub reports: Vec<JobReport>,
    /// Aggregate batched counters.
    pub stats: BatchedStats,
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
    config: DetectorConfig,
    retry: RetryPolicy,
}

impl BatchedDetector {
    /// Creates a batched detector over one shared configuration: the
    /// processor (whose `allowed_opcodes` are the catalogue's shared
    /// original-instruction universe), budgets and solver knobs apply to
    /// every entry.
    pub fn new(config: DetectorConfig) -> Self {
        let retry = config.retry.unwrap_or_default();
        BatchedDetector { config, retry }
    }

    /// Sets the retry policy for budget-stopped or panicked entries: their
    /// shared-solver attempt counts as the first rung, and fallback re-runs
    /// descend the same [`DegradationRung`] ladder as the per-job engine.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The shared configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Runs the whole catalogue under one method over one shared unrolling,
    /// returning one [`Detection`] per entry in catalogue order.
    pub fn run(&self, method: Method, catalogue: &[CatalogueEntry]) -> BatchedOutcome {
        let cancel: CancelFlag = Arc::new(AtomicBool::new(false));
        self.run_under(method, catalogue, &cancel, None)
    }

    /// [`run`](Self::run) under an external cancellation flag and deadline —
    /// the entry point the engine uses to schedule a catalogue as one work
    /// unit inside a batch (the flag chains onto the configuration's own
    /// flags, the deadline tightens the configuration's own budget).
    pub(crate) fn run_under(
        &self,
        method: Method,
        catalogue: &[CatalogueEntry],
        batch_cancel: &CancelFlag,
        batch_deadline: Option<Instant>,
    ) -> BatchedOutcome {
        let start = Instant::now();
        let n = catalogue.len();
        let mut stats = BatchedStats {
            entries: n as u64,
            ..BatchedStats::default()
        };
        if n == 0 {
            stats.wall = start.elapsed();
            return BatchedOutcome {
                detections: Vec::new(),
                reports: Vec::new(),
                stats,
            };
        }
        let deadline = match (self.config.time_limit.map(|l| start + l), batch_deadline) {
            (Some(own), Some(batch)) => Some(own.min(batch)),
            (own, batch) => own.or(batch),
        };

        // One build, one encoding: every entry's mutation rides in the same
        // transition system behind its activation literal.
        let helper = Detector::new(self.config.clone());
        let scheme = match method {
            Method::Sqed => Scheme::Sqed,
            Method::SepeSqed => Scheme::Sepe(helper.equivalence_db()),
        };
        let builder = QedBuilder {
            processor: self.config.processor.clone(),
            original_opcodes: helper.original_opcodes(method),
            queue_depth: self.config.queue_depth,
        };
        let mut tm = TermManager::new();
        let mutations: Vec<Mutation> = catalogue.iter().map(|e| e.mutation.clone()).collect();
        let (system, activated) = builder.build_catalogue(&mut tm, &scheme, &mutations);
        let acts: Vec<TermId> = activated.iter().map(|a| a.activation).collect();

        let mut chained = self.config.cancel.clone();
        chained.push(batch_cancel.clone());
        let session_config = BmcConfig {
            conflict_limit: self.config.conflict_limit,
            time_limit: deadline.map(|d| d.saturating_duration_since(start)),
            start_bound: 1,
            // lock-step depths: shortest counterexamples, like PerDepth
            mode: BmcMode::PerDepth,
            simplify: self.config.simplify,
            aig: self.config.aig,
            cancel: chained.clone(),
            memory_limit: self.config.memory_limit,
            // per-entry faults are armed around individual queries instead
            fault: BmcFaultPlan::default(),
            ..BmcConfig::default()
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

        'depths: for bound in 1..=self.config.max_bound {
            if unresolved.is_empty() {
                break;
            }
            if chained.iter().any(|f| f.load(Ordering::Relaxed)) {
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
                        if self.retry.max_retries >= 1 {
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
                                // Fault hook, then the witness self-check:
                                // a counterexample that does not replay on
                                // the concrete twin is a structured failure,
                                // retried on the per-job ladder if granted.
                                let witness = if fplan.corrupt_witness {
                                    crate::selfcheck::corrupt_witness(&witness)
                                } else {
                                    witness
                                };
                                let validated = self.config.validate_witness.then(|| {
                                    crate::selfcheck::replay_confirms(
                                        &self.config.processor,
                                        Some(&entry.mutation),
                                        method,
                                        &witness,
                                    )
                                });
                                if validated == Some(false) {
                                    if self.retry.max_retries >= 1 {
                                        fallback.push((i, Fallback::Resume { panicked: false }));
                                    } else {
                                        let mut demoted = inconclusive_detection(
                                            method,
                                            entry,
                                            StopReason::WitnessMismatch,
                                            bound,
                                            &mut acc[i],
                                        );
                                        demoted.witness = Some(witness);
                                        demoted.witness_validated = Some(false);
                                        detections[i] = Some(demoted);
                                        reports[i] = Some(shared_report(
                                            entry,
                                            JobOutcome::Stopped(StopReason::WitnessMismatch),
                                            false,
                                        ));
                                    }
                                    continue;
                                }
                                detections[i] = Some(Detection {
                                    method,
                                    bug: Some(entry.mutation.name.clone()),
                                    detected: true,
                                    inconclusive: false,
                                    stop_reason: None,
                                    runtime: acc[i].runtime,
                                    trace_len: Some(witness.num_steps()),
                                    witness: Some(witness),
                                    witness_validated: validated,
                                    proved: false,
                                    proof_method: None,
                                    proof_depth: None,
                                    proof_checked: None,
                                    proof_work: None,
                                    bound_reached: bound,
                                    conflicts: acc[i].conflicts,
                                    solver: SolverReuseStats::default(),
                                    depths: std::mem::take(&mut acc[i].depths),
                                });
                                reports[i] =
                                    Some(shared_report(entry, JobOutcome::Completed, false));
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
                                if self.retry.max_retries >= 1 {
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
                                if retryable && self.retry.max_retries >= 1 {
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
        let bmc_stats = session.stats();
        stats.solver = bmc_stats.solver;
        stats.shared_conflicts = bmc_stats.conflicts;
        stats.deepest_bound = bmc_stats.deepest_bound;
        drop(session);

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
        } else if self.config.prove.is_some() {
            // Entries that survived every bound get a dedicated per-entry
            // proof attempt (fresh system, concrete mutation — activation
            // literals would leak into cubes and uniqueness constraints):
            // the prover can upgrade the bounded "clean to the bound" to a
            // conclusive `Proved`.  Runs through the per-job retry ladder,
            // so prover panics and budget faults degrade instead of
            // poisoning the batch.
            for &i in &unresolved {
                let entry = &catalogue[i];
                let job = DetectionJob::new(
                    entry.label.clone(),
                    DetectorConfig {
                        fault: entry.fault,
                        ..self.config.clone()
                    },
                    method,
                    Some(entry.mutation.clone()),
                );
                let (detection, report) = run_with_retry(&job, batch_cancel, deadline, self.retry);
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
                detections[i] = Some(Detection {
                    method,
                    bug: Some(entry.mutation.name.clone()),
                    detected: false,
                    inconclusive: false,
                    stop_reason: None,
                    runtime: acc[i].runtime,
                    trace_len: None,
                    witness: None,
                    witness_validated: None,
                    proved: false,
                    proof_method: None,
                    proof_depth: None,
                    proof_checked: None,
                    proof_work: None,
                    bound_reached: self.config.max_bound,
                    conflicts: acc[i].conflicts,
                    solver: SolverReuseStats::default(),
                    depths: std::mem::take(&mut acc[i].depths),
                });
                reports[i] = Some(shared_report(entry, JobOutcome::Completed, false));
            }
        }

        // Per-job fallback: poisoning bystanders run fresh, failed entries
        // resume the retry ladder one rung down from their shared attempt.
        for (i, kind) in fallback {
            let entry = &catalogue[i];
            let job = DetectionJob::new(
                entry.label.clone(),
                DetectorConfig {
                    fault: entry.fault,
                    ..self.config.clone()
                },
                method,
                Some(entry.mutation.clone()),
            );
            let (detection, report) = match kind {
                Fallback::Fresh => run_with_retry(&job, batch_cancel, deadline, self.retry),
                Fallback::Resume { panicked } => resume_retry_ladder(
                    &job,
                    batch_cancel,
                    deadline,
                    self.retry,
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
            stats.retries += u64::from(report.attempts.saturating_sub(1));
            stats.degraded_runs += u64::from(report.rung != DegradationRung::Full);
            stats.panics += u64::from(report.panicked_attempts);
            if let Some(reason) = report.outcome.stop_reason() {
                stats.stop_reasons.record(reason);
            }
            stats.cancelled += u64::from(
                detection.inconclusive && detection.stop_reason == Some(StopReason::Cancelled),
            );
            stats.witness_validations += u64::from(detection.witness_validated.is_some());
            stats.witness_mismatches += u64::from(detection.witness_validated == Some(false));
            stats.proved += u64::from(detection.proved);
            stats.proof_mismatches += u64::from(detection.proof_checked == Some(false));
        }
        stats.wall = start.elapsed();
        BatchedOutcome {
            detections,
            reports,
            stats,
        }
    }
}

/// An inconclusive per-entry detection carrying whatever shared-solver work
/// the entry accumulated before it stopped.
fn inconclusive_detection(
    method: Method,
    entry: &CatalogueEntry,
    reason: StopReason,
    bound: usize,
    acc: &mut EntryAcc,
) -> Detection {
    Detection {
        method,
        bug: Some(entry.mutation.name.clone()),
        detected: false,
        inconclusive: true,
        stop_reason: Some(reason),
        runtime: acc.runtime,
        trace_len: None,
        witness: None,
        witness_validated: None,
        proved: false,
        proof_method: None,
        proof_depth: None,
        proof_checked: None,
        proof_work: None,
        bound_reached: bound,
        conflicts: acc.conflicts,
        solver: SolverReuseStats::default(),
        depths: std::mem::take(&mut acc.depths),
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
        assert_eq!(outcome.stats.entries, 0);
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
