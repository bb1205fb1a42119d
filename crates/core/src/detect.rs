//! Detection drivers: run SQED or SEPE-SQED against an (optionally mutated)
//! processor model and report the outcome.

use std::fmt;
use std::time::Duration;

use sepe_isa::Opcode;
use sepe_processor::{Mutation, ProcessorConfig};
use sepe_smt::{CancelFlag, StopReason, TermManager};
use sepe_tsys::{
    corrupt_certificate, verify_certificate, Bmc, BmcConfig, BmcMode, BmcResult, Pdr,
    ProofCertificate, ProofMethod, TransitionSystem, Witness,
};

use crate::equivalence::EquivalenceDb;
use crate::fault::FaultPlan;
use crate::parallel::RetryPolicy;
use crate::qed::{QedBuilder, Scheme};

/// Which verification method to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Plain SQED with the EDDI-V duplication.
    Sqed,
    /// SEPE-SQED with the EDSEP-V equivalent programs.
    SepeSqed,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Method::Sqed => write!(f, "SQED"),
            Method::SepeSqed => write!(f, "SEPE-SQED"),
        }
    }
}

/// Configuration of a detection run.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// The processor model configuration; its `allowed_opcodes` also define
    /// the original-instruction universe of the experiment.
    pub processor: ProcessorConfig,
    /// Maximum BMC bound (transition steps).
    pub max_bound: usize,
    /// SAT conflict budget per BMC query.
    pub conflict_limit: Option<u64>,
    /// Wall-clock budget for the whole run.
    pub time_limit: Option<Duration>,
    /// Dispatch-queue depth override.
    pub queue_depth: Option<usize>,
    /// Equivalence database for SEPE-SQED (`None` uses the curated database
    /// at the processor's data-path width).
    pub equivalence: Option<EquivalenceDb>,
    /// Depth-exploration strategy of the model checker:
    /// [`BmcMode::PerDepth`], the only one (one query per depth on one
    /// persistent session, so the first counterexample found is a shortest
    /// one).
    pub bmc_mode: BmcMode,
    /// Word-level preprocessing (on by default): rewriting ahead of
    /// bit-blasting plus the BMC cone-of-influence reduction.  Off is the
    /// pre-rewrite baseline, kept for the bench harness's
    /// rewrite-on-vs-off arm.
    pub simplify: bool,
    /// Gate-level AIG reductions below the word level (on by default):
    /// structural hashing, local rewriting, polarity-aware Tseitin.  Off is
    /// the direct-blasting baseline of the bench harness's `aig_off` arm.
    pub aig: bool,
    /// Shared cancellation flags passed down to the model checker (default
    /// empty).  Raising *any* flag from another thread aborts an in-flight
    /// run with an inconclusive [`Detection`] within a short burst of SAT
    /// conflicts.  Independent cancellation sources chain by each pushing
    /// their own flag, so no source replaces another's.
    pub cancel: Vec<CancelFlag>,
    /// Caps the estimated SAT clause-arena + watcher bytes per solver
    /// (`None` = unlimited); a run that exceeds the cap comes back
    /// inconclusive with [`StopReason::MemoryBudget`] instead of growing
    /// without bound.
    pub memory_limit: Option<usize>,
    /// Deterministic fault injection (default `None`: no faults); see
    /// [`FaultPlan`].  Test-only machinery — the parallel engine's retry
    /// ladder strips it on retries unless the plan says otherwise.
    pub fault: Option<FaultPlan>,
    /// Per-run retry policy (default `None`: no retries).  Lets one job of
    /// a batch climb the degradation ladder further (or not at all) than
    /// its batchmates.
    pub retry: Option<RetryPolicy>,
    /// Run the IC3/PDR prover instead of plain bounded model checking
    /// (default `None`: bounded BMC up to `max_bound`).  With a method set,
    /// the prover alone runs — no bounded sweep first — and `max_bound`
    /// becomes its frontier cap; a run may now end `Proved` — a conclusive
    /// "no bug at *any* depth" the bounded checker can never give.
    pub prove: Option<ProofMethod>,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            processor: ProcessorConfig::fast(),
            max_bound: 10,
            conflict_limit: None,
            time_limit: None,
            queue_depth: None,
            equivalence: None,
            bmc_mode: BmcMode::PerDepth,
            simplify: true,
            aig: true,
            cancel: Vec::new(),
            memory_limit: None,
            fault: None,
            retry: None,
            prove: None,
        }
    }
}

impl DetectorConfig {
    /// Starts a builder over the default configuration.  The struct fields
    /// stay public — the builder is the ergonomic front for the common
    /// "defaults plus a few knobs" case:
    ///
    /// ```
    /// use sepe_sqed::detect::DetectorConfig;
    /// use sepe_sqed::parallel::RetryPolicy;
    ///
    /// let config = DetectorConfig::builder()
    ///     .bound(6)
    ///     .aig(false)
    ///     .retry(RetryPolicy::ladder(2))
    ///     .build();
    /// assert_eq!(config.max_bound, 6);
    /// assert!(!config.aig);
    /// assert_eq!(config.retry, Some(RetryPolicy::ladder(2)));
    /// ```
    pub fn builder() -> DetectorConfigBuilder {
        DetectorConfigBuilder {
            config: DetectorConfig::default(),
        }
    }
}

/// Builder for [`DetectorConfig`]; see [`DetectorConfig::builder`].
#[derive(Debug, Clone, Default)]
pub struct DetectorConfigBuilder {
    config: DetectorConfig,
}

impl DetectorConfigBuilder {
    /// Sets the processor model configuration (its `allowed_opcodes` also
    /// define the original-instruction universe).
    pub fn processor(mut self, processor: ProcessorConfig) -> Self {
        self.config.processor = processor;
        self
    }

    /// Sets the maximum BMC bound (transition steps).
    pub fn bound(mut self, max_bound: usize) -> Self {
        self.config.max_bound = max_bound;
        self
    }

    /// Sets the SAT conflict budget per BMC query.
    pub fn conflict_limit(mut self, limit: u64) -> Self {
        self.config.conflict_limit = Some(limit);
        self
    }

    /// Sets the wall-clock budget for the whole run.
    pub fn time_limit(mut self, limit: Duration) -> Self {
        self.config.time_limit = Some(limit);
        self
    }

    /// Overrides the dispatch-queue depth.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.config.queue_depth = Some(depth);
        self
    }

    /// Sets the equivalence database for SEPE-SQED.
    pub fn equivalence(mut self, db: EquivalenceDb) -> Self {
        self.config.equivalence = Some(db);
        self
    }

    /// Sets the depth-exploration strategy of the model checker.
    pub fn bmc_mode(mut self, mode: BmcMode) -> Self {
        self.config.bmc_mode = mode;
        self
    }

    /// Turns word-level preprocessing on or off.
    pub fn simplify(mut self, simplify: bool) -> Self {
        self.config.simplify = simplify;
        self
    }

    /// Turns the gate-level AIG reductions on or off.
    pub fn aig(mut self, aig: bool) -> Self {
        self.config.aig = aig;
        self
    }

    /// Chains a cancellation flag (pushes — flags from every caller stay
    /// armed together, per the PR-6 chaining semantics).
    pub fn cancel(mut self, flag: CancelFlag) -> Self {
        self.config.cancel.push(flag);
        self
    }

    /// Caps the estimated SAT memory per solver.
    pub fn memory_limit(mut self, bytes: usize) -> Self {
        self.config.memory_limit = Some(bytes);
        self
    }

    /// Arms a deterministic fault plan.
    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.config.fault = Some(fault);
        self
    }

    /// Sets the per-run retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.config.retry = Some(retry);
        self
    }

    /// Runs the unbounded prover (IC3/PDR) instead of plain bounded model
    /// checking.
    pub fn prove(mut self, method: ProofMethod) -> Self {
        self.config.prove = Some(method);
        self
    }

    /// Finishes the build.
    pub fn build(self) -> DetectorConfig {
        self.config
    }
}

/// The outcome of one detection run.
#[derive(Debug, Clone)]
pub struct Detection {
    /// The method that was run.
    pub method: Method,
    /// Name of the injected bug, if any.
    pub bug: Option<String>,
    /// Whether a counterexample (inconsistency) was found.
    pub detected: bool,
    /// Whether the run ended because a resource budget was exhausted rather
    /// than because the bound was fully explored.
    pub inconclusive: bool,
    /// Why an inconclusive run stopped (`None` on a conclusive verdict):
    /// deadline, conflict budget, memory budget, or cancellation — the
    /// previously indistinguishable give-ups, classified.
    pub stop_reason: Option<StopReason>,
    /// Wall-clock runtime of the model-checking run.
    pub runtime: Duration,
    /// Counterexample length in committed instructions, when detected.
    pub trace_len: Option<usize>,
    /// The full counterexample, when detected.
    pub witness: Option<Witness>,
    /// Result of the concrete witness self-check: `Some(true)` when the
    /// counterexample replayed and reproduced the inconsistency,
    /// `Some(false)` when it did not (the verdict was demoted to
    /// [`StopReason::WitnessMismatch`]), `None` when no counterexample was
    /// found.
    pub witness_validated: Option<bool>,
    /// Whether the property was *proved* for all depths (an unbounded
    /// prover converged).  Strictly stronger than `!detected &&
    /// !inconclusive`, which only covers the explored bound.
    pub proved: bool,
    /// The prover that produced a `proved` verdict.
    pub proof_method: Option<ProofMethod>,
    /// PDR frontier frame at which the proof closed.
    pub proof_depth: Option<usize>,
    /// Result of the independent-solver certificate self-check:
    /// `Some(true)` when the invariant re-verified, `Some(false)` when it
    /// did not (the verdict was demoted to
    /// [`StopReason::ProofMismatch`]), `None` when nothing was proved.
    pub proof_checked: Option<bool>,
    /// Work counters of the prover run (`None` when no prover was
    /// configured): queries, cubes blocked, clauses pushed — what the bench
    /// `proofs` arm records.
    pub proof_work: Option<sepe_tsys::ProveStats>,
    /// Deepest bound explored.
    pub bound_reached: usize,
    /// Total SAT conflicts spent by the model checker.
    pub conflicts: u64,
    /// Solver-reuse counters of the model-checking run.
    pub solver: sepe_smt::SolverReuseStats,
    /// Per-query solver-work deltas, one entry per SAT query (one per depth)
    /// in issue order.  The cumulative counters above hide how the work is
    /// distributed over the sweep; these deltas are what the table1/fig4
    /// binaries report so the effect of learnt-database reduction is
    /// readable per depth.
    pub depths: Vec<sepe_tsys::DepthStats>,
}

impl Detection {
    /// A verdict-free detection of `method` on `bug`: nothing detected,
    /// proved or checked, and no work behind it.  Each verdict site fills in
    /// what it knows with struct-update syntax.
    pub(crate) fn blank(method: Method, bug: Option<String>) -> Self {
        Detection {
            method,
            bug,
            detected: false,
            inconclusive: false,
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
            solver: sepe_smt::SolverReuseStats::default(),
            depths: Vec::new(),
        }
    }

    /// Formats the runtime like the paper's tables (seconds, or "-" when the
    /// bug was not detected).
    pub fn table_cell(&self) -> String {
        if self.detected {
            format!("{:.2}s", self.runtime.as_secs_f64())
        } else {
            "-".to_string()
        }
    }
}

/// Aggregate solver-work totals of one model-checking (or prover) run,
/// flattened to what [`Detection`] reports.
struct RunTotals {
    runtime: Duration,
    deepest: usize,
    conflicts: u64,
    solver: sepe_smt::SolverReuseStats,
    depths: Vec<sepe_tsys::DepthStats>,
}

/// Runs detection experiments.
#[derive(Debug, Clone)]
pub struct Detector {
    config: DetectorConfig,
}

impl Detector {
    /// Creates a detector.
    pub fn new(config: DetectorConfig) -> Self {
        Detector { config }
    }

    /// The configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The equivalence database a SEPE-SQED run will use.
    pub fn equivalence_db(&self) -> EquivalenceDb {
        self.config
            .equivalence
            .clone()
            .unwrap_or_else(|| EquivalenceDb::curated_for_width(self.config.processor.xlen))
    }

    /// The original-instruction opcodes of the experiment for a method: the
    /// processor's allowed opcodes, restricted (for SEPE-SQED) to the ones the
    /// equivalence database can transform.
    pub fn original_opcodes(&self, method: Method) -> Vec<Opcode> {
        let allowed = &self.config.processor.allowed_opcodes;
        match method {
            Method::Sqed => allowed.clone(),
            Method::SepeSqed => {
                let db = self.equivalence_db();
                allowed
                    .iter()
                    .copied()
                    .filter(|op| op.touches_memory() || db.template(*op).is_some())
                    .collect()
            }
        }
    }

    /// The QED builder and scheme of `method`.
    fn qed(&self, method: Method) -> (QedBuilder, Scheme) {
        let scheme = match method {
            Method::Sqed => Scheme::Sqed,
            Method::SepeSqed => Scheme::Sepe(self.equivalence_db()),
        };
        let builder = QedBuilder {
            processor: self.config.processor.clone(),
            original_opcodes: self.original_opcodes(method),
            queue_depth: self.config.queue_depth,
        };
        (builder, scheme)
    }

    /// The model checker's configuration: the detector's budgets, knobs,
    /// cancellation flags and fault plan.
    fn bmc_config(&self) -> BmcConfig {
        BmcConfig {
            conflict_limit: self.config.conflict_limit,
            time_limit: self.config.time_limit,
            // the initial state is consistent by construction, start at 1
            start_bound: 1,
            mode: self.config.bmc_mode,
            simplify: self.config.simplify,
            aig: self.config.aig,
            cancel: self.config.cancel.clone(),
            memory_limit: self.config.memory_limit,
            fault: self.config.fault.map(FaultPlan::to_bmc).unwrap_or_default(),
            ..BmcConfig::default()
        }
    }

    /// Runs one method against one (optional) injected bug.
    pub fn check(&self, method: Method, mutation: Option<&Mutation>) -> Detection {
        let mut tm = TermManager::new();
        let (builder, scheme) = self.qed(method);
        let system = builder.build(&mut tm, &scheme, mutation);
        let bmc_config = self.bmc_config();
        if let Some(ProofMethod::Pdr) = self.config.prove {
            let run = Pdr::new(bmc_config).check(&mut tm, &system.ts, self.config.max_bound);
            let totals = RunTotals {
                runtime: run.stats.duration,
                deepest: run.stats.depth_reached,
                conflicts: run.stats.conflicts,
                solver: run.stats.solver,
                depths: Vec::new(),
            };
            let work = run.stats;
            let mut detection = self.classify(
                &mut tm,
                &system.ts,
                method,
                mutation,
                run.result,
                run.certificate,
                totals,
            );
            detection.proof_work = Some(work);
            return detection;
        }
        let mut bmc = Bmc::new(bmc_config);
        let result = bmc.check(&mut tm, &system.ts, self.config.max_bound);
        let stats = bmc.stats();
        let totals = RunTotals {
            runtime: stats.duration,
            deepest: stats.deepest_bound,
            conflicts: stats.conflicts,
            solver: stats.solver,
            depths: stats.depths.clone(),
        };
        self.classify(&mut tm, &system.ts, method, mutation, result, None, totals)
    }

    /// Turns a raw model-checking (or prover) result into a [`Detection`],
    /// running the witness and certificate self-checks on the way.
    #[allow(clippy::too_many_arguments)]
    fn classify(
        &self,
        tm: &mut TermManager,
        ts: &TransitionSystem,
        method: Method,
        mutation: Option<&Mutation>,
        result: BmcResult,
        certificate: Option<ProofCertificate>,
        totals: RunTotals,
    ) -> Detection {
        let run = Detection {
            runtime: totals.runtime,
            bound_reached: totals.deepest,
            conflicts: totals.conflicts,
            solver: totals.solver,
            depths: totals.depths,
            ..Detection::blank(method, mutation.map(|m| m.name.clone()))
        };
        match result {
            BmcResult::Counterexample(witness) => self.classify_witness(mutation, witness, run),
            BmcResult::Proved {
                method: prover,
                depth,
            } => {
                // Fault hook: hand the self-check a corrupted certificate so
                // the demotion path is deterministically testable.
                let certificate = match self.config.fault {
                    Some(f) if f.corrupt_proof => certificate
                        .as_ref()
                        .map(|cert| corrupt_certificate(tm, cert)),
                    _ => certificate,
                };
                let checked = certificate
                    .as_ref()
                    .is_some_and(|cert| verify_certificate(tm, ts, cert).is_ok());
                let proof = Detection {
                    proof_method: Some(prover),
                    proof_depth: Some(depth),
                    proof_checked: Some(checked),
                    ..run
                };
                if !checked {
                    // The prover's certificate does not re-verify on a fresh
                    // solver: a structured failure, not a proof.
                    return Detection {
                        inconclusive: true,
                        stop_reason: Some(StopReason::ProofMismatch),
                        ..proof
                    };
                }
                Detection {
                    proved: true,
                    ..proof
                }
            }
            BmcResult::NoCounterexample { bound } => Detection {
                bound_reached: bound,
                ..run
            },
            BmcResult::Unknown { bound, reason } => Detection {
                inconclusive: true,
                stop_reason: Some(reason),
                bound_reached: bound,
                ..run
            },
        }
    }

    /// Turns a counterexample against `mutation` into a verdict on top of
    /// `run` (the run's method, bound and work).  The fault plan's
    /// corruption hook fires first, so the demotion path is
    /// deterministically testable; then the witness is replayed on the
    /// concrete twin.  A replay that does not reproduce it is a structured
    /// failure, [`StopReason::WitnessMismatch`], not a bug report.
    fn classify_witness(
        &self,
        mutation: Option<&Mutation>,
        witness: Witness,
        run: Detection,
    ) -> Detection {
        let witness = match self.config.fault {
            Some(f) if f.corrupt_witness => crate::selfcheck::corrupt_witness(&witness),
            _ => witness,
        };
        let validated = crate::selfcheck::replay_confirms(
            &self.config.processor,
            mutation,
            run.method,
            &witness,
        );
        if !validated {
            return Detection {
                inconclusive: true,
                stop_reason: Some(StopReason::WitnessMismatch),
                witness: Some(witness),
                witness_validated: Some(false),
                ..run
            };
        }
        Detection {
            detected: true,
            trace_len: Some(witness.num_steps()),
            witness: Some(witness),
            witness_validated: Some(true),
            ..run
        }
    }

    /// Convenience: runs both methods on the same bug.
    pub fn compare(&self, mutation: Option<&Mutation>) -> (Detection, Detection) {
        (
            self.check(Method::Sqed, mutation),
            self.check(Method::SepeSqed, mutation),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(opcodes: &[Opcode], max_bound: usize) -> Detector {
        Detector::new(DetectorConfig {
            processor: ProcessorConfig::tiny().with_opcodes(opcodes),
            max_bound,
            ..DetectorConfig::default()
        })
    }

    #[test]
    fn clean_design_has_no_counterexample_under_either_method() {
        let d = detector(&[Opcode::Add, Opcode::Xori], 2);
        let sqed = d.check(Method::Sqed, None);
        assert!(!sqed.detected, "the unmutated design is self-consistent");
        assert!(!sqed.inconclusive);
        let sepe = d.check(Method::SepeSqed, None);
        assert!(!sepe.detected, "the unmutated design is SEPE-consistent");
        assert!(!sepe.inconclusive);
    }

    #[test]
    #[ignore = "long formal check on a single-CPU host; run with cargo test -- --ignored"]
    fn sepe_detects_a_single_instruction_bug_that_sqed_misses() {
        let bug = &Mutation::table1()[0]; // ADD off by one
        let d = detector(&[Opcode::Add, Opcode::Addi], 4);
        let sqed = d.check(Method::Sqed, Some(bug));
        assert!(
            !sqed.detected,
            "EDDI-V duplication cannot see single-instruction bugs"
        );
        let sepe = d.check(Method::SepeSqed, Some(bug));
        assert!(sepe.detected, "SEPE-SQED must detect the ADD bug");
        let len = sepe.trace_len.expect("counterexample length");
        assert!(
            len >= 2,
            "the trace commits the original and its equivalent program"
        );
        assert!(sepe.table_cell().ends_with('s'));
        assert_eq!(sqed.table_cell(), "-");
    }

    #[test]
    #[ignore = "long formal check on a single-CPU host; run with cargo test -- --ignored"]
    fn both_methods_detect_a_multiple_instruction_bug() {
        let bug = Mutation::figure4()
            .into_iter()
            .find(|b| b.name == "multi-11-addi-raw")
            .expect("bug exists");
        let d = detector(&[Opcode::Addi, Opcode::Xori], 6);
        let sqed = d.check(Method::Sqed, Some(&bug));
        assert!(sqed.detected, "SQED detects multiple-instruction bugs");
        let sepe = d.check(Method::SepeSqed, Some(&bug));
        assert!(sepe.detected, "SEPE-SQED detects multiple-instruction bugs");
    }

    #[test]
    fn original_opcode_filtering_respects_the_database() {
        let d = detector(&[Opcode::Add, Opcode::Lw, Opcode::Sw], 4);
        let sqed_ops = d.original_opcodes(Method::Sqed);
        let sepe_ops = d.original_opcodes(Method::SepeSqed);
        assert_eq!(sqed_ops.len(), 3);
        assert_eq!(
            sepe_ops.len(),
            3,
            "memory ops are handled natively by EDSEP-V"
        );
    }
}
