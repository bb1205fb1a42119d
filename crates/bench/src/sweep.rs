//! The shared incremental-vs-scratch sweep protocol.
//!
//! One Table-1 SQED sweep on the tiny/ADD-only configuration: the injected
//! bug is invisible to SQED, so every depth up to the bound is explored —
//! the worst case for scratch re-encoding and cold restarts, and the
//! workload both the `incremental_vs_scratch` Criterion bench and the
//! `bench_smoke` CI gate measure.  Keeping the protocol here (one definition
//! of the detector configuration, the growing-bound loop and the
//! must-not-detect assertion) guarantees the bench and the gate measure the
//! same thing.

use std::time::{Duration, Instant};

use sepe_isa::Opcode;
use sepe_processor::{Mutation, ProcessorConfig};
use sepe_smt::SolverReuseStats;
use sepe_sqed::detect::{Detector, DetectorConfig, Method};
use sepe_sqed::parallel::DetectionJob;
use sepe_tsys::BmcMode;

/// The injected bug of the sweep (ADD result off by one — undetectable by
/// plain SQED).
pub fn bug() -> Mutation {
    Mutation::table1()[0].clone()
}

/// The sweep's detector: tiny processor, ADD-only universe.
pub fn detector(max_bound: usize, mode: BmcMode) -> Detector {
    detector_with(max_bound, mode, true, true)
}

/// [`detector`] with the word-level preprocessing (rewriting +
/// cone-of-influence) and the gate-level AIG reductions (structural
/// hashing, local rewriting, polarity-aware Tseitin) each explicitly on or
/// off.
pub fn detector_with(max_bound: usize, mode: BmcMode, simplify: bool, aig: bool) -> Detector {
    Detector::new(DetectorConfig {
        processor: ProcessorConfig::tiny().with_opcodes(&[Opcode::Add]),
        max_bound,
        bmc_mode: mode,
        simplify,
        aig,
        ..DetectorConfig::default()
    })
}

/// One full sweep through the detector in the given mode (word-level
/// preprocessing on).  Returns the wall time and the solver-reuse counters
/// of the run.
///
/// # Panics
///
/// Panics if the detection unexpectedly reports the bug (SQED must miss it).
pub fn run(max_bound: usize, mode: BmcMode, bug: &Mutation) -> (Duration, SolverReuseStats) {
    run_with(max_bound, mode, bug, true, true)
}

/// [`run`] with the word-level preprocessing and the gate-level AIG
/// reductions each explicitly on or off (the bench harness's
/// rewrite-on-vs-off and aig-on-vs-off arms).
pub fn run_with(
    max_bound: usize,
    mode: BmcMode,
    bug: &Mutation,
    simplify: bool,
    aig: bool,
) -> (Duration, SolverReuseStats) {
    let d = detector_with(max_bound, mode, simplify, aig);
    let start = Instant::now();
    let detection = d.check(Method::Sqed, Some(bug));
    let wall = start.elapsed();
    assert!(!detection.detected, "SQED must miss the Table-1 bug");
    let mut solver = detection.solver;
    // The scratch mode builds a fresh solver per query and reports (almost)
    // all-zero reuse stats; fold the model checker's conflict total in so
    // every mode carries its conflict count in the same place.
    solver.conflicts = detection.conflicts;
    (wall, solver)
}

/// A batch of `copies` independent copies of the sweep (the default
/// pipeline, [`BmcMode::PerDepth`]), for the parallel engine's speedup
/// measurement: identical jobs make the ideal speedup exactly the worker
/// count, so the measured ratio isolates scheduling overhead and memory
/// contention from workload imbalance.
pub fn batch_jobs(max_bound: usize, copies: usize) -> Vec<DetectionJob> {
    let bug = bug();
    (0..copies)
        .map(|i| {
            DetectionJob::new(
                format!("sqed-sweep-{i}"),
                detector(max_bound, BmcMode::PerDepth).config().clone(),
                Method::Sqed,
                Some(bug.clone()),
            )
        })
        .collect()
}
