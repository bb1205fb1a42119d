//! Parallel multi-bug detection: a work-stealing engine over independent
//! `Detector::check` jobs and batched mutation catalogues.
//!
//! The paper's headline experiments (Table 1, Figure 4) are sweeps of one
//! detection run per mutation × method × bound.  [`Engine::run`] is the one
//! entry point for all of them: it takes a [`BatchSpec`] describing *what*
//! to schedule and returns an [`EngineOutcome`] describing what happened.
//! The two spec modes:
//!
//! * [`BatchSpec::Jobs`] — independent [`DetectionJob`]s: each worker gets
//!   its own [`Detector`] (nothing is shared between jobs but the job queue
//!   and the cancellation flag) and pulls jobs off a shared atomic counter
//!   so fast workers steal the remaining work.  With `workers == 1` the
//!   batch runs inline on the calling thread in job order — byte-for-byte
//!   the sequential drivers, which is what the determinism tests and the
//!   bench regression gate rely on.
//! * [`BatchSpec::Catalogue`] — a mutation catalogue answered over **one
//!   shared unrolling** by the batched detector
//!   ([`BatchedDetector`]): the whole group
//!   is one scheduling unit (one solver, so no intra-group parallelism to
//!   steal), run under the engine's global budget and retry policy like any
//!   other unit of work.
//!
//! A **global time budget** ([`Engine::with_time_limit`]) bounds the whole
//! batch in every mode: a watchdog raises one shared [`CancelFlag`] when the
//! budget expires, every in-flight SAT search aborts within a short burst
//! of conflicts (the flag is polled at the same sampled check point as the
//! solver deadline), and jobs not yet started return immediately as
//! cancelled, inconclusive [`Detection`]s.
//!
//! Per-job [`SolverReuseStats`] are aggregated into a [`BatchStats`] so a
//! batch reports the same counters the sequential drivers print.
//!
//! # Example
//!
//! ```
//! use sepe_isa::Opcode;
//! use sepe_processor::ProcessorConfig;
//! use sepe_sqed::detect::{DetectorConfig, Method};
//! use sepe_sqed::parallel::{DetectionJob, Engine};
//!
//! let config = DetectorConfig::builder()
//!     .processor(ProcessorConfig::tiny().with_opcodes(&[Opcode::Add, Opcode::Xori]))
//!     .bound(2)
//!     .build();
//! // Two independent jobs: the clean design under both methods.
//! let jobs = vec![
//!     DetectionJob::new("clean-sqed", config.clone(), Method::Sqed, None),
//!     DetectionJob::new("clean-sepe", config, Method::SepeSqed, None),
//! ];
//! let outcome = Engine::new(2).run(jobs).expect_jobs();
//! assert_eq!(outcome.detections.len(), 2);
//! assert!(outcome.detections.iter().all(|d| !d.detected));
//! ```

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use sepe_processor::Mutation;
use sepe_smt::{CancelFlag, SolverReuseStats, StopReason};
use sepe_tsys::BmcMode;

use crate::batch::{BatchedDetector, BatchedOutcome, CatalogueEntry};
use crate::detect::{Detection, Detector, DetectorConfig, Method};

/// One unit of detection work: a full detector configuration plus the
/// method and the (optional) injected bug to check it against.
///
/// Jobs carry their own [`DetectorConfig`] rather than sharing the engine's,
/// because real sweeps vary the configuration per job (Table 1 narrows the
/// opcode universe to each bug's target; Figure 4 derives it from the bug's
/// trigger pattern).
///
/// Cancellation *chains*: when the job is scheduled, the engine **pushes**
/// the batch's shared flag onto the job's own `config.cancel` set instead of
/// replacing it, so either source tripping cancels the job — the batch
/// budget through [`Engine::with_time_limit`], or a caller-supplied
/// per-job flag raised from outside.
#[derive(Debug, Clone)]
pub struct DetectionJob {
    /// Human-readable job label, carried through to results and logs.
    pub label: String,
    /// The detector configuration to run (per-job; never shared).
    pub config: DetectorConfig,
    /// Which verification method to run.
    pub method: Method,
    /// The injected bug, if any (`None` checks the clean design).
    pub mutation: Option<Mutation>,
}

impl DetectionJob {
    /// Creates a job.
    pub fn new(
        label: impl Into<String>,
        config: DetectorConfig,
        method: Method,
        mutation: Option<Mutation>,
    ) -> Self {
        DetectionJob {
            label: label.into(),
            config,
            method,
            mutation,
        }
    }
}

/// The classified final outcome of one job, after any retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// A conclusive verdict: detected, or proven clean within the bound.
    Completed,
    /// The job stopped without a verdict for the given reason (budget
    /// exhaustion, cancellation).
    Stopped(StopReason),
    /// The job panicked; the panic was caught, the worker survived, and the
    /// payload's message is carried here.
    Failed {
        /// The panic payload, when it was a string (the common case).
        message: String,
    },
}

impl JobOutcome {
    /// Whether the retry ladder re-runs a job that ended this way: panics
    /// and per-solver budget exhaustion are worth a degraded retry, while
    /// deadline expiry and cancellation are verdicts about the *batch* (its
    /// wall budget is gone either way), so retrying would only burn more of
    /// it.
    pub(crate) fn should_retry(&self) -> bool {
        match self {
            JobOutcome::Completed => false,
            JobOutcome::Failed { .. } => true,
            JobOutcome::Stopped(reason) => matches!(
                reason,
                StopReason::ConflictBudget
                    | StopReason::MemoryBudget
                    | StopReason::WitnessMismatch
                    | StopReason::ProofMismatch
            ),
        }
    }

    /// The stop reason this outcome tallies under (`None` for a conclusive
    /// verdict).
    pub(crate) fn stop_reason(&self) -> Option<StopReason> {
        match self {
            JobOutcome::Completed => None,
            JobOutcome::Stopped(reason) => Some(*reason),
            JobOutcome::Failed { .. } => Some(StopReason::Panicked),
        }
    }
}

/// One rung of the retry degradation ladder: each retry re-runs the job
/// under a configuration one step simpler/cheaper than the last: AIG off,
/// then rewriting off, then scratch solving at half the bound.  A panic or
/// budget breach tied to a specific optimisation (AIG rewriting, word-level
/// simplification, solver persistence) clears at the rung that removes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationRung {
    /// The job's own configuration, untouched (every first attempt).
    Full,
    /// Gate-level AIG reductions off.
    AigOff,
    /// Word-level rewriting + cone-of-influence reduction off.
    NoRewrite,
    /// Per-depth scratch solving (no persistent solver state at all) with
    /// the bound halved — the cheapest, most conservative configuration.
    ScratchHalfBound,
}

impl DegradationRung {
    /// The next rung down (saturating at the bottom).
    pub(crate) fn next(self) -> DegradationRung {
        match self {
            DegradationRung::Full => DegradationRung::AigOff,
            DegradationRung::AigOff => DegradationRung::NoRewrite,
            DegradationRung::NoRewrite => DegradationRung::ScratchHalfBound,
            DegradationRung::ScratchHalfBound => DegradationRung::ScratchHalfBound,
        }
    }

    /// Applies the rung's knobs on top of a job's base configuration.
    fn apply(self, config: &mut DetectorConfig) {
        match self {
            DegradationRung::Full => {}
            DegradationRung::AigOff => config.aig = false,
            DegradationRung::NoRewrite => config.simplify = false,
            DegradationRung::ScratchHalfBound => {
                config.bmc_mode = BmcMode::PerDepthScratch;
                config.max_bound = (config.max_bound / 2).max(1);
            }
        }
    }
}

impl fmt::Display for DegradationRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DegradationRung::Full => "full",
            DegradationRung::AigOff => "aig_off",
            DegradationRung::NoRewrite => "norewrite",
            DegradationRung::ScratchHalfBound => "scratch_half_bound",
        };
        write!(f, "{s}")
    }
}

/// How the engine re-runs jobs that failed or exhausted a per-solver
/// budget: up to `max_retries` additional attempts, each one rung further
/// down the [`DegradationRung`] ladder.  The default retries nothing, which
/// reproduces the pre-retry engine exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 disables retrying).
    pub max_retries: u32,
}

impl RetryPolicy {
    /// No retries (the default): one attempt per job, failures reported
    /// as-is.
    pub fn none() -> RetryPolicy {
        RetryPolicy::default()
    }

    /// Up to `max_retries` degraded re-runs per failed/budget-exhausted
    /// job.
    pub fn ladder(max_retries: u32) -> RetryPolicy {
        RetryPolicy { max_retries }
    }
}

/// Per-job execution report: how the job ended and what it took to get
/// there.  `BatchOutcome::reports[i]` describes `jobs[i]`, parallel to
/// `detections[i]`.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job's label.
    pub label: String,
    /// The classified final outcome (after any retries).
    pub outcome: JobOutcome,
    /// Attempts run, including the first (0 for a job cancelled before it
    /// ever started).
    pub attempts: u32,
    /// Attempts that panicked along the way (caught, worker kept alive).
    pub panicked_attempts: u32,
    /// The degradation rung of the final attempt (`Full` when the job never
    /// needed the ladder).
    pub rung: DegradationRung,
}

/// Final-outcome tallies by [`StopReason`] — how many jobs of a batch ended
/// on each non-verdict path.  Jobs that completed are not tallied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StopReasonTally {
    /// Jobs that ran out of wall-clock budget.
    pub deadline: u64,
    /// Jobs that ran out of SAT conflict budget.
    pub conflict_budget: u64,
    /// Jobs that breached the SAT memory cap.
    pub memory_budget: u64,
    /// Jobs cancelled through a shared flag.
    pub cancelled: u64,
    /// Jobs whose final attempt panicked.
    pub panicked: u64,
    /// Jobs whose final counterexample failed the concrete witness
    /// self-check (the verdict was demoted instead of reported).
    pub witness_mismatch: u64,
    /// Jobs whose final proof certificate failed the independent-solver
    /// self-check (the `Proved` verdict was demoted instead of reported).
    pub proof_mismatch: u64,
}

impl StopReasonTally {
    /// Bumps the counter for a reason.
    pub fn record(&mut self, reason: StopReason) {
        match reason {
            StopReason::Deadline => self.deadline += 1,
            StopReason::ConflictBudget => self.conflict_budget += 1,
            StopReason::MemoryBudget => self.memory_budget += 1,
            StopReason::Cancelled => self.cancelled += 1,
            StopReason::Panicked => self.panicked += 1,
            StopReason::WitnessMismatch => self.witness_mismatch += 1,
            StopReason::ProofMismatch => self.proof_mismatch += 1,
        }
    }

    /// Total jobs tallied (the batch's non-verdict count).
    pub fn total(&self) -> u64 {
        self.deadline
            + self.conflict_budget
            + self.memory_budget
            + self.cancelled
            + self.panicked
            + self.witness_mismatch
            + self.proof_mismatch
    }
}

/// Aggregate statistics of one batch run.
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Jobs that were scheduled.
    pub jobs: u64,
    /// Worker threads the batch ran on.
    pub workers: usize,
    /// Wall-clock time of the whole batch, queue to last result.
    pub wall: Duration,
    /// Sum of the per-job model-checking runtimes — on an otherwise idle
    /// machine, `job_wall_total / wall` approximates the realised speedup.
    pub job_wall_total: Duration,
    /// Longest single job — the lower bound on batch wall time no worker
    /// count can beat.
    pub job_wall_max: Duration,
    /// Jobs that ended inconclusive because the shared cancellation flag
    /// was raised (global budget expiry).
    pub cancelled: u64,
    /// Total SAT conflicts across all jobs.
    pub conflicts: u64,
    /// Retry attempts across all jobs (attempts beyond each job's first).
    pub retries: u64,
    /// Jobs whose *final* attempt ran below the [`DegradationRung::Full`]
    /// rung (i.e. the answer, conclusive or not, came from a degraded
    /// configuration).
    pub degraded_runs: u64,
    /// Attempts that panicked and were caught (workers survive panics, so
    /// this can exceed the failed-job count when retries also panic).
    pub panics: u64,
    /// Final-outcome tallies by stop reason (jobs that completed are not
    /// tallied).
    pub stop_reasons: StopReasonTally,
    /// Concrete witness replays performed on final counterexamples (the
    /// self-check of [`DetectorConfig::validate_witness`]).
    pub witness_validations: u64,
    /// Replays whose final verdict was a mismatch — the counterexample did
    /// not reproduce and the job was demoted.
    pub witness_mismatches: u64,
    /// Per-job solver-reuse counters, summed (encode/rewrite/AIG work,
    /// learnt-database reduction, CNF sizes).
    pub solver: SolverReuseStats,
}

impl BatchStats {
    fn absorb_job(&mut self, detection: &Detection, report: &JobReport, cancelled: bool) {
        self.jobs += 1;
        self.job_wall_total += detection.runtime;
        self.job_wall_max = self.job_wall_max.max(detection.runtime);
        self.cancelled += u64::from(cancelled);
        self.conflicts += detection.conflicts;
        self.retries += u64::from(report.attempts.saturating_sub(1));
        self.degraded_runs += u64::from(report.rung != DegradationRung::Full);
        self.panics += u64::from(report.panicked_attempts);
        if let Some(reason) = report.outcome.stop_reason() {
            self.stop_reasons.record(reason);
        }
        self.witness_validations += u64::from(detection.witness_validated.is_some());
        self.witness_mismatches += u64::from(detection.witness_validated == Some(false));
        self.solver.absorb(&detection.solver);
    }
}

impl fmt::Display for BatchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} jobs on {} workers in {:.2}s (job wall {:.2}s total / {:.2}s max, \
             {} cancelled, {} conflicts, {} retries, {} degraded, {} panics)",
            self.jobs,
            self.workers,
            self.wall.as_secs_f64(),
            self.job_wall_total.as_secs_f64(),
            self.job_wall_max.as_secs_f64(),
            self.cancelled,
            self.conflicts,
            self.retries,
            self.degraded_runs,
            self.panics,
        )
    }
}

/// The result of an independent-jobs run ([`BatchSpec::Jobs`]): one
/// [`Detection`] per job, in job
/// order, plus the aggregate counters.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-job results; `detections[i]` answers `jobs[i]` regardless of
    /// which worker ran it or when it finished.
    pub detections: Vec<Detection>,
    /// Per-job execution reports (classified outcome, attempts, ladder
    /// rung), parallel to `detections`.
    pub reports: Vec<JobReport>,
    /// Aggregate batch counters.
    pub stats: BatchStats,
}

/// What one [`Engine::run`] invocation schedules.
///
/// `Vec<DetectionJob>` converts [`Into`] the independent-jobs mode, so the
/// common case reads `engine.run(jobs)`.
#[derive(Debug, Clone)]
pub enum BatchSpec {
    /// Independent detection jobs, scheduled by work stealing.
    Jobs(Vec<DetectionJob>),
    /// A mutation catalogue answered over one shared unrolling (see
    /// [`BatchedDetector`]); the whole group
    /// is one scheduling unit.
    Catalogue {
        /// The verification method every entry runs under.
        method: Method,
        /// The shared configuration (processor universe, budgets, knobs),
        /// boxed to keep the enum's variants near one size.
        config: Box<DetectorConfig>,
        /// The catalogue.
        entries: Vec<CatalogueEntry>,
    },
}

impl From<Vec<DetectionJob>> for BatchSpec {
    fn from(jobs: Vec<DetectionJob>) -> Self {
        BatchSpec::Jobs(jobs)
    }
}

impl BatchSpec {
    /// A batched-catalogue spec (convenience over the enum literal).
    pub fn catalogue(method: Method, config: DetectorConfig, entries: Vec<CatalogueEntry>) -> Self {
        BatchSpec::Catalogue {
            method,
            config: Box::new(config),
            entries,
        }
    }
}

/// What one [`Engine::run`] invocation produced — the variant mirrors the
/// [`BatchSpec`] that was scheduled.
#[derive(Debug, Clone)]
pub enum EngineOutcome {
    /// The result of a [`BatchSpec::Jobs`] run.
    Jobs(BatchOutcome),
    /// The result of a [`BatchSpec::Catalogue`] run.
    Catalogue(BatchedOutcome),
}

impl EngineOutcome {
    /// The jobs outcome.
    ///
    /// # Panics
    ///
    /// Panics if the run was not a [`BatchSpec::Jobs`] run.
    pub fn expect_jobs(self) -> BatchOutcome {
        match self {
            EngineOutcome::Jobs(outcome) => outcome,
            other => panic!("expected a jobs outcome, got {}", other.mode()),
        }
    }

    /// The batched-catalogue outcome.
    ///
    /// # Panics
    ///
    /// Panics if the run was not a [`BatchSpec::Catalogue`] run.
    pub fn expect_catalogue(self) -> BatchedOutcome {
        match self {
            EngineOutcome::Catalogue(outcome) => outcome,
            other => panic!("expected a catalogue outcome, got {}", other.mode()),
        }
    }

    /// The scheduling mode this outcome came from.
    pub fn mode(&self) -> &'static str {
        match self {
            EngineOutcome::Jobs(_) => "jobs",
            EngineOutcome::Catalogue(_) => "catalogue",
        }
    }

    /// Every detection the run produced, in schedule order — mode-agnostic
    /// access for drivers that only care about verdicts.
    pub fn detections(&self) -> Vec<&Detection> {
        match self {
            EngineOutcome::Jobs(outcome) => outcome.detections.iter().collect(),
            EngineOutcome::Catalogue(outcome) => outcome.detections.iter().collect(),
        }
    }
}

/// The detection engine: one scheduler for independent jobs and batched
/// catalogues.
///
/// See the [module docs](self) for the scheduling and cancellation model.
#[derive(Debug, Clone)]
pub struct Engine {
    workers: usize,
    time_limit: Option<Duration>,
    retry: RetryPolicy,
}

impl Engine {
    /// Creates an engine with the given worker count (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        Engine {
            workers: workers.max(1),
            time_limit: None,
            retry: RetryPolicy::none(),
        }
    }

    /// Sets a wall-clock budget for each subsequent batch: when it expires,
    /// every in-flight job is interrupted and the not-yet-started ones
    /// return cancelled.
    pub fn with_time_limit(mut self, limit: Option<Duration>) -> Self {
        self.time_limit = limit;
        self
    }

    /// Sets the retry policy for each subsequent batch: jobs that panic or
    /// exhaust a per-solver budget are re-run down the
    /// [`DegradationRung`] ladder up to the policy's attempt count.  The
    /// default retries nothing.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs a [`BatchSpec`] — independent jobs or a batched catalogue — and
    /// returns the matching [`EngineOutcome`]
    /// variant.  `Vec<DetectionJob>` converts into the jobs mode, so the
    /// common case is `engine.run(jobs).expect_jobs()`.
    pub fn run(&self, spec: impl Into<BatchSpec>) -> EngineOutcome {
        match spec.into() {
            BatchSpec::Jobs(jobs) => EngineOutcome::Jobs(self.run_jobs(jobs)),
            BatchSpec::Catalogue {
                method,
                config,
                entries,
            } => EngineOutcome::Catalogue(self.run_catalogue(method, *config, &entries)),
        }
    }

    /// Runs a batch of independent detection jobs, returning one
    /// [`Detection`] per job in job order.
    ///
    /// Workers pull jobs off a shared counter (work stealing by exhaustion:
    /// whichever worker frees up first takes the next job), and each job
    /// runs on a fresh [`Detector`] owned by its worker.  With one worker
    /// the batch runs inline on the calling thread, reproducing the
    /// sequential drivers exactly.
    fn run_jobs(&self, jobs: Vec<DetectionJob>) -> BatchOutcome {
        let start = Instant::now();
        let cancel: CancelFlag = Arc::new(AtomicBool::new(false));
        let deadline = self.time_limit.map(|budget| start + budget);
        let watchdog = self.spawn_watchdog(&cancel);
        let workers = self.workers.min(jobs.len().max(1));
        let next = AtomicUsize::new(0);
        let retry = self.retry;
        let (tx, rx) = mpsc::channel::<(usize, Detection, JobReport, bool)>();

        if workers <= 1 {
            worker_loop(&jobs, &next, &cancel, deadline, retry, &tx);
        } else {
            thread::scope(|scope| {
                for _ in 0..workers {
                    let tx = tx.clone();
                    let (jobs, next, cancel) = (&jobs, &next, &cancel);
                    scope.spawn(move || worker_loop(jobs, next, cancel, deadline, retry, &tx));
                }
            });
        }
        drop(tx);

        let mut detections: Vec<Option<Detection>> = vec![None; jobs.len()];
        let mut reports: Vec<Option<JobReport>> = vec![None; jobs.len()];
        let mut stats = BatchStats {
            workers,
            ..BatchStats::default()
        };
        for (i, detection, report, cancelled) in rx {
            stats.absorb_job(&detection, &report, cancelled);
            detections[i] = Some(detection);
            reports[i] = Some(report);
        }
        if let Some((done, handle)) = watchdog {
            let _ = done.send(());
            let _ = handle.join();
        }
        stats.wall = start.elapsed();
        BatchOutcome {
            detections: detections
                .into_iter()
                .map(|d| d.expect("every job sends exactly one result"))
                .collect(),
            reports: reports
                .into_iter()
                .map(|r| r.expect("every job sends exactly one report"))
                .collect(),
            stats,
        }
    }

    /// The batched-catalogue mode behind [`BatchSpec::Catalogue`]: the whole
    /// catalogue is one scheduling unit (one shared solver leaves no
    /// intra-group parallelism to steal), run inline under the engine's
    /// global budget — the watchdog's flag chains onto the configuration's
    /// own flags, and the retry policy (the configuration's override, else
    /// the engine's) governs the per-entry fallback ladder.
    fn run_catalogue(
        &self,
        method: Method,
        config: DetectorConfig,
        entries: &[CatalogueEntry],
    ) -> BatchedOutcome {
        let start = Instant::now();
        let cancel: CancelFlag = Arc::new(AtomicBool::new(false));
        let deadline = self.time_limit.map(|budget| start + budget);
        let watchdog = self.spawn_watchdog(&cancel);
        let retry = config.retry.unwrap_or(self.retry);
        let detector = BatchedDetector::new(config).with_retry_policy(retry);
        let outcome = detector.run_under(method, entries, &cancel, deadline);
        if let Some((done, handle)) = watchdog {
            let _ = done.send(());
            let _ = handle.join();
        }
        outcome
    }

    /// Arms the global budget: a watchdog thread that raises the shared
    /// flag when the budget expires, unless released first through the
    /// returned channel.  `None` when the engine has no time limit.
    #[allow(clippy::type_complexity)]
    fn spawn_watchdog(
        &self,
        cancel: &CancelFlag,
    ) -> Option<(mpsc::Sender<()>, thread::JoinHandle<()>)> {
        let budget = self.time_limit?;
        let cancel = cancel.clone();
        let (done, release) = mpsc::channel::<()>();
        let handle = thread::spawn(move || {
            if release.recv_timeout(budget).is_err() {
                cancel.store(true, Ordering::Relaxed);
            }
        });
        Some((done, handle))
    }
}

/// One worker: pull the next job index, run it (with panic isolation and
/// the retry ladder) on fresh detectors, send the result home, repeat until
/// the queue is exhausted.  A panicking job never takes the worker down —
/// the panic is caught, classified, and the loop continues.
fn worker_loop(
    jobs: &[DetectionJob],
    next: &AtomicUsize,
    cancel: &CancelFlag,
    deadline: Option<Instant>,
    retry: RetryPolicy,
    tx: &mpsc::Sender<(usize, Detection, JobReport, bool)>,
) {
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= jobs.len() {
            return;
        }
        let job = &jobs[i];
        let (detection, report, cancelled) = if cancel.load(Ordering::Relaxed) {
            // The budget expired before this job started: report it
            // cancelled without building a detector at all.
            let report = JobReport {
                label: job.label.clone(),
                outcome: JobOutcome::Stopped(StopReason::Cancelled),
                attempts: 0,
                panicked_attempts: 0,
                rung: DegradationRung::Full,
            };
            (stub_detection(job), report, true)
        } else {
            let (detection, report) = run_with_retry(job, cancel, deadline, retry);
            let cancelled = detection.inconclusive && cancel.load(Ordering::Relaxed);
            (detection, report, cancelled)
        };
        if tx.send((i, detection, report, cancelled)).is_err() {
            return; // receiver gone — nothing left to report to
        }
    }
}

/// Runs one job down the retry ladder: the first attempt under the job's
/// own configuration, each subsequent attempt — granted only for panics and
/// per-solver budget exhaustion, see [`JobOutcome::should_retry`] — one
/// rung further down [`DegradationRung`].  The job's fault plan applies to
/// the first attempt only unless it says otherwise
/// ([`FaultPlan::every_attempt`](crate::fault::FaultPlan)), so
/// "failed once, retried clean, succeeded degraded" is itself a
/// deterministic path.
pub(crate) fn run_with_retry(
    job: &DetectionJob,
    cancel: &CancelFlag,
    deadline: Option<Instant>,
    retry: RetryPolicy,
) -> (Detection, JobReport) {
    resume_retry_ladder(job, cancel, deadline, retry, DegradationRung::Full, 0, 0)
}

/// [`run_with_retry`] with the ladder state pre-advanced: `rung` is the rung
/// of the *next* attempt, `attempts`/`panicked_attempts` count the attempts
/// already spent elsewhere.  The batched detector
/// ([`BatchedDetector`]) uses this to continue
/// a job whose first attempt was a shared-solver query that panicked or blew
/// a budget — that query counts as attempt one at [`DegradationRung::Full`],
/// and the per-job fallback resumes at the next rung down.
pub(crate) fn resume_retry_ladder(
    job: &DetectionJob,
    cancel: &CancelFlag,
    deadline: Option<Instant>,
    retry: RetryPolicy,
    mut rung: DegradationRung,
    mut attempts: u32,
    mut panicked_attempts: u32,
) -> (Detection, JobReport) {
    // A job's own retry override beats the engine-wide policy.
    let retry = job.config.retry.unwrap_or(retry);
    loop {
        attempts += 1;
        let mut config = job.config.clone();
        rung.apply(&mut config);
        // Chain, don't replace: the job's own cancel flags stay armed
        // alongside the batch flag — either tripping cancels the job.
        config.cancel.push(cancel.clone());
        clamp_time_limit(&mut config, deadline);
        if attempts > 1 && !config.fault.is_some_and(|f| f.every_attempt) {
            config.fault = None; // retries run clean by default
        }
        let (detection, outcome, panicked) =
            run_isolated(config, job.method, job.mutation.as_ref());
        panicked_attempts += u32::from(panicked);
        if attempts > retry.max_retries || !outcome.should_retry() {
            let report = JobReport {
                label: job.label.clone(),
                outcome,
                attempts,
                panicked_attempts,
                rung,
            };
            return (detection, report);
        }
        rung = rung.next();
    }
}

/// Runs one detection attempt with panic isolation: a panicking check is
/// caught, classified as [`JobOutcome::Failed`], and replaced by an
/// inconclusive stub detection so the worker (and the batch) survive.
/// Unwind safety: the detector, its term manager and its solvers are all
/// constructed inside the closure and dropped with it, so a panic can leave
/// no torn state behind for anyone else to observe.
fn run_isolated(
    config: DetectorConfig,
    method: Method,
    mutation: Option<&Mutation>,
) -> (Detection, JobOutcome, bool) {
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        Detector::new(config).check(method, mutation)
    }));
    match result {
        Ok(detection) => {
            let outcome = if detection.inconclusive {
                JobOutcome::Stopped(detection.stop_reason.unwrap_or(StopReason::Cancelled))
            } else {
                JobOutcome::Completed
            };
            (detection, outcome, false)
        }
        Err(payload) => {
            let mut stub = stub_detection_raw(method, mutation);
            stub.stop_reason = Some(StopReason::Panicked);
            let outcome = JobOutcome::Failed {
                message: panic_message(payload.as_ref()),
            };
            (stub, outcome, true)
        }
    }
}

/// Best-effort extraction of a panic payload's message (`&str` and `String`
/// payloads cover `panic!` and formatted panics; anything else is opaque).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Tightens a job's own time limit to whatever remains of the global
/// batch deadline (in-flight SAT calls then stop through the existing
/// per-solver deadline even between flag polls).
fn clamp_time_limit(config: &mut DetectorConfig, deadline: Option<Instant>) {
    if let Some(deadline) = deadline {
        let remaining = deadline.saturating_duration_since(Instant::now());
        config.time_limit = Some(config.time_limit.map_or(remaining, |t| t.min(remaining)));
    }
}

/// An inconclusive result for a job that never ran.
fn stub_detection(job: &DetectionJob) -> Detection {
    let mut d = stub_detection_raw(job.method, job.mutation.as_ref());
    d.stop_reason = Some(StopReason::Cancelled);
    d
}

/// An inconclusive result with no run behind it (no stop reason assigned —
/// callers set one).
fn stub_detection_raw(method: Method, mutation: Option<&Mutation>) -> Detection {
    Detection {
        method,
        bug: mutation.map(|m| m.name.clone()),
        detected: false,
        inconclusive: true,
        stop_reason: None,
        runtime: Duration::ZERO,
        trace_len: None,
        witness: None,
        witness_validated: None,
        proved: false,
        proof_method: None,
        proof_depth: None,
        proof_checked: None,
        proof_work: None,
        bound_reached: 0,
        conflicts: 0,
        solver: SolverReuseStats::default(),
        depths: Vec::new(),
    }
}

/// The default worker count: `SEPE_JOBS` if set to a positive integer,
/// otherwise the machine's available parallelism.
pub fn default_jobs() -> usize {
    parse_jobs(std::env::var("SEPE_JOBS").ok().as_deref())
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The worker count encoded by an override value like `SEPE_JOBS`, if it is
/// a positive integer.  Split out of [`default_jobs`] so the parsing is
/// testable without mutating the process environment (`setenv` races
/// against `getenv` from concurrently spawned threads).
fn parse_jobs(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Compile-time audit: everything a worker thread owns or shares must be
/// `Send`.  A regression (say, an `Rc` slipping into solver state) fails
/// right here instead of deep inside a `thread::scope` bound error.
#[allow(dead_code)]
fn assert_engine_types_are_send() {
    fn is_send<T: Send>() {}
    is_send::<Detector>();
    is_send::<DetectorConfig>();
    is_send::<DetectionJob>();
    is_send::<Detection>();
    is_send::<sepe_smt::TermManager>();
    is_send::<sepe_smt::SatSolver>();
    is_send::<sepe_smt::Solver>();
    is_send::<sepe_smt::IncrementalSolver>();
    is_send::<sepe_tsys::Bmc>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_isa::Opcode;
    use sepe_processor::ProcessorConfig;

    fn tiny_config(opcodes: &[Opcode], max_bound: usize) -> DetectorConfig {
        DetectorConfig {
            processor: ProcessorConfig::tiny().with_opcodes(opcodes),
            max_bound,
            ..DetectorConfig::default()
        }
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let outcome = Engine::new(4).run(Vec::new()).expect_jobs();
        assert!(outcome.detections.is_empty());
        assert_eq!(outcome.stats.jobs, 0);
    }

    #[test]
    fn single_worker_runs_jobs_in_order() {
        let config = tiny_config(&[Opcode::Add, Opcode::Xori], 2);
        let jobs = vec![
            DetectionJob::new("a", config.clone(), Method::Sqed, None),
            DetectionJob::new("b", config, Method::SepeSqed, None),
        ];
        let outcome = Engine::new(1).run(jobs).expect_jobs();
        assert_eq!(outcome.detections.len(), 2);
        assert_eq!(outcome.detections[0].method, Method::Sqed);
        assert_eq!(outcome.detections[1].method, Method::SepeSqed);
        assert!(outcome.detections.iter().all(|d| !d.detected));
        assert_eq!(outcome.stats.jobs, 2);
        assert_eq!(outcome.stats.cancelled, 0);
        assert_eq!(outcome.stats.workers, 1);
    }

    #[test]
    fn results_land_in_job_order_regardless_of_worker_count() {
        let config = tiny_config(&[Opcode::Add], 2);
        let jobs: Vec<DetectionJob> = (0..6)
            .map(|i| {
                DetectionJob::new(
                    format!("job{i}"),
                    config.clone(),
                    if i % 2 == 0 {
                        Method::Sqed
                    } else {
                        Method::SepeSqed
                    },
                    None,
                )
            })
            .collect();
        let outcome = Engine::new(3).run(jobs).expect_jobs();
        assert_eq!(outcome.detections.len(), 6);
        for (i, d) in outcome.detections.iter().enumerate() {
            let want = if i % 2 == 0 {
                Method::Sqed
            } else {
                Method::SepeSqed
            };
            assert_eq!(d.method, want, "job {i} out of order");
        }
    }

    #[test]
    fn jobs_override_parsing_accepts_only_positive_integers() {
        assert_eq!(parse_jobs(Some("3")), Some(3));
        assert_eq!(parse_jobs(Some("not-a-number")), None);
        assert_eq!(parse_jobs(Some("0")), None);
        assert_eq!(parse_jobs(Some("")), None);
        assert_eq!(parse_jobs(None), None);
        // Whatever the environment says, the default is a usable count.
        assert!(default_jobs() >= 1);
    }
}
