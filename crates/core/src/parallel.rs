//! Parallel multi-bug detection: a work-stealing engine over independent
//! `Detector::check` jobs.
//!
//! The paper's headline experiments (Table 1, Figure 4) are sweeps of one
//! detection run per mutation × method × bound.  [`Engine::run`] schedules
//! them as independent [`DetectionJob`]s: each worker gets its own
//! [`Detector`] (nothing is shared between jobs but the job queue) and pulls
//! jobs off a shared atomic counter so fast workers steal the remaining
//! work.  With `workers == 1` the batch runs
//! inline on the calling thread in job order — byte-for-byte the sequential
//! drivers, which is what the determinism tests and the bench regression
//! gate rely on.
//!
//! Budgets and retries are per job: a job's own `config.time_limit`,
//! `config.cancel` flags and `config.retry` policy govern it alone, so a
//! stopped or retried job never touches its neighbours.
//!
//! Per-job results are tallied into a [`BatchStats`] so a batch reports the
//! same counters the sequential drivers print.
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
//! let outcome = Engine::new(2).run(jobs);
//! assert_eq!(outcome.detections.len(), 2);
//! assert!(outcome.detections.iter().all(|d| !d.detected));
//! ```

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use sepe_processor::Mutation;
use sepe_smt::{SolverReuseStats, StopReason};

use crate::detect::{Detection, Detector, DetectorConfig, Method};

/// One unit of detection work: a full detector configuration plus the
/// method and the (optional) injected bug to check it against.
///
/// Jobs carry their own [`DetectorConfig`] rather than sharing the engine's,
/// because real sweeps vary the configuration per job (Table 1 narrows the
/// opcode universe to each bug's target; Figure 4 derives it from the bug's
/// trigger pattern).
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
    /// deadline expiry and cancellation are verdicts about the job's wall
    /// budget or its caller, so retrying would only burn more of it.
    fn should_retry(&self) -> bool {
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
    fn stop_reason(&self) -> Option<StopReason> {
        match self {
            JobOutcome::Completed => None,
            JobOutcome::Stopped(reason) => Some(*reason),
            JobOutcome::Failed { .. } => Some(StopReason::Panicked),
        }
    }
}

/// One rung of the retry degradation ladder: each retry re-runs the job
/// with one knob of its own configuration turned off, AIG first, then
/// rewriting.  Rungs are not cumulative: every attempt starts from the
/// job's configuration, so the `NoRewrite` rung runs with the AIG layer
/// back on.  A panic or budget breach tied to one optimisation (AIG
/// rewriting, word-level simplification) clears at the rung that removes
/// it.  Every rung answers the bound the job asked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationRung {
    /// The job's own configuration, untouched (every first attempt).
    Full,
    /// Gate-level AIG reductions off.
    AigOff,
    /// Word-level rewriting + cone-of-influence reduction off.
    NoRewrite,
}

impl DegradationRung {
    /// The next rung down, `None` below the last.
    fn next(self) -> Option<DegradationRung> {
        match self {
            DegradationRung::Full => Some(DegradationRung::AigOff),
            DegradationRung::AigOff => Some(DegradationRung::NoRewrite),
            DegradationRung::NoRewrite => None,
        }
    }

    /// Applies the rung's knob to a job's own configuration.
    fn apply(self, config: &mut DetectorConfig) {
        match self {
            DegradationRung::Full => {}
            DegradationRung::AigOff => config.aig = false,
            DegradationRung::NoRewrite => config.simplify = false,
        }
    }
}

impl fmt::Display for DegradationRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DegradationRung::Full => "full",
            DegradationRung::AigOff => "aig_off",
            DegradationRung::NoRewrite => "norewrite",
        };
        write!(f, "{s}")
    }
}

/// How a job that failed or exhausted a per-solver budget is re-run (set
/// per job through `DetectorConfig::retry`): up to `max_retries` additional
/// attempts, each one rung further down the [`DegradationRung`] ladder.
/// The ladder has two rungs below `Full`, so a job runs at most three
/// times whatever `max_retries` says.  The default retries nothing.
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
    /// job, and never more than the ladder has rungs.
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
    /// Attempts run, including the first.
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
    /// Jobs cancelled through a cancellation flag.
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

/// Aggregate statistics of one [`Engine::run`] batch, tallied job by job.
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
    /// Jobs that ended inconclusive because a cancellation flag was raised.
    pub cancelled: u64,
    /// Total SAT conflicts across all jobs.
    pub conflicts: u64,
    /// Transition-system encodings paid for: one per attempt.
    pub encodes: u64,
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
    /// detector's witness self-check).
    pub witness_validations: u64,
    /// Replays whose final verdict was a mismatch — the counterexample did
    /// not reproduce and the job was demoted.
    pub witness_mismatches: u64,
    /// Jobs whose final verdict was `Proved` — clean at *every* depth,
    /// certificate checked.
    pub proved: u64,
    /// Certificates whose independent-solver self-check failed (the job was
    /// demoted to [`StopReason::ProofMismatch`] instead of reporting a wrong
    /// proof).
    pub proof_mismatches: u64,
    /// Solver-reuse counters summed over each job's final attempt (encode,
    /// rewrite and AIG work, learnt-database reduction, CNF sizes).
    pub solver: SolverReuseStats,
}

impl BatchStats {
    /// Tallies one finished job.
    fn absorb(&mut self, detection: &Detection, report: &JobReport) {
        self.jobs += 1;
        self.job_wall_total += detection.runtime;
        self.job_wall_max = self.job_wall_max.max(detection.runtime);
        self.cancelled += u64::from(
            detection.inconclusive && detection.stop_reason == Some(StopReason::Cancelled),
        );
        self.conflicts += detection.conflicts;
        self.retries += u64::from(report.attempts.saturating_sub(1));
        self.degraded_runs += u64::from(report.rung != DegradationRung::Full);
        self.panics += u64::from(report.panicked_attempts);
        if let Some(reason) = report.outcome.stop_reason() {
            self.stop_reasons.record(reason);
        }
        self.witness_validations += u64::from(detection.witness_validated.is_some());
        self.witness_mismatches += u64::from(detection.witness_validated == Some(false));
        self.proved += u64::from(detection.proved);
        self.proof_mismatches += u64::from(detection.proof_checked == Some(false));
        self.solver.absorb(&detection.solver);
    }
}

impl fmt::Display for BatchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} jobs on {} workers in {:.2}s (job wall {:.2}s total / {:.2}s max, \
             {} encodes, {} cancelled, {} conflicts, {} retries, {} degraded, {} panics)",
            self.jobs,
            self.workers,
            self.wall.as_secs_f64(),
            self.job_wall_total.as_secs_f64(),
            self.job_wall_max.as_secs_f64(),
            self.encodes,
            self.cancelled,
            self.conflicts,
            self.retries,
            self.degraded_runs,
            self.panics,
        )
    }
}

/// The result of an [`Engine::run`] batch: one [`Detection`] per job, in
/// job order, plus the aggregate counters.
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

/// The detection engine: a work-stealing scheduler for independent jobs.
///
/// See the [module docs](self) for the scheduling model.
#[derive(Debug, Clone)]
pub struct Engine {
    workers: usize,
}

impl Engine {
    /// Creates an engine with the given worker count (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        Engine {
            workers: workers.max(1),
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
    pub fn run(&self, jobs: Vec<DetectionJob>) -> BatchOutcome {
        let start = Instant::now();
        let workers = self.workers.min(jobs.len().max(1));
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Detection, JobReport)>();

        if workers <= 1 {
            worker_loop(&jobs, &next, &tx);
        } else {
            thread::scope(|scope| {
                for _ in 0..workers {
                    let tx = tx.clone();
                    let (jobs, next) = (&jobs, &next);
                    scope.spawn(move || worker_loop(jobs, next, &tx));
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
        for (i, detection, report) in rx {
            stats.absorb(&detection, &report);
            // Every attempt builds and encodes the job's system afresh.
            stats.encodes += u64::from(report.attempts);
            detections[i] = Some(detection);
            reports[i] = Some(report);
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
}

/// One worker: pull the next job index, run it (with panic isolation and
/// the retry ladder) on fresh detectors, send the result home, repeat until
/// the queue is exhausted.  A panicking job never takes the worker down —
/// the panic is caught, classified, and the loop continues.
fn worker_loop(
    jobs: &[DetectionJob],
    next: &AtomicUsize,
    tx: &mpsc::Sender<(usize, Detection, JobReport)>,
) {
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= jobs.len() {
            return;
        }
        let (detection, report) = run_with_retry(&jobs[i]);
        if tx.send((i, detection, report)).is_err() {
            return; // receiver gone — nothing left to report to
        }
    }
}

/// Runs one job down its retry ladder (`config.retry`): the first attempt
/// under the job's own configuration, each subsequent attempt — granted
/// only for panics and per-solver budget exhaustion, see
/// [`JobOutcome::should_retry`] — one rung further down
/// [`DegradationRung`], until the retries or the rungs run out.  The job's
/// fault plan applies to the first attempt only unless it says otherwise
/// ([`FaultPlan::every_attempt`](crate::fault::FaultPlan)), so "failed
/// once, retried clean, succeeded degraded" is itself a deterministic path.
fn run_with_retry(job: &DetectionJob) -> (Detection, JobReport) {
    let retry = job.config.retry.unwrap_or_default();
    let mut rung = DegradationRung::Full;
    let mut attempts = 0;
    let mut panicked_attempts = 0;
    loop {
        attempts += 1;
        let mut config = job.config.clone();
        rung.apply(&mut config);
        if attempts > 1 && !config.fault.is_some_and(|f| f.every_attempt) {
            config.fault = None; // retries run clean by default
        }
        let (detection, outcome, panicked) =
            run_isolated(config, job.method, job.mutation.as_ref());
        panicked_attempts += u32::from(panicked);
        match rung.next() {
            Some(down) if attempts <= retry.max_retries && outcome.should_retry() => rung = down,
            _ => {
                let report = JobReport {
                    label: job.label.clone(),
                    outcome,
                    attempts,
                    panicked_attempts,
                    rung,
                };
                return (detection, report);
            }
        }
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
            let stub = panicked_detection(method, mutation);
            let outcome = JobOutcome::Failed {
                message: panic_message(payload.as_ref()),
            };
            (stub, outcome, true)
        }
    }
}

/// Best-effort extraction of a panic payload's message (`&str` and `String`
/// payloads cover `panic!` and formatted panics; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// An inconclusive result with no run behind it: a panicked attempt.
fn panicked_detection(method: Method, mutation: Option<&Mutation>) -> Detection {
    Detection {
        inconclusive: true,
        stop_reason: Some(StopReason::Panicked),
        ..Detection::blank(method, mutation.map(|m| m.name.clone()))
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
        let outcome = Engine::new(4).run(Vec::new());
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
        let outcome = Engine::new(1).run(jobs);
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
        let outcome = Engine::new(3).run(jobs);
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
