//! The `bench_smoke` sweep protocol.
//!
//! One Table-1 SQED sweep on the tiny/ADD-only configuration: the injected
//! bug is invisible to SQED, so every depth up to the bound is explored.
//! Keeping the protocol here (one definition of the detector
//! configuration and the must-not-detect assertion) guarantees every arm
//! of the gate and the parallel batch measure the same thing.

use std::time::{Duration, Instant};

use sepe_isa::Opcode;
use sepe_processor::{Mutation, ProcessorConfig};
use sepe_smt::SolverReuseStats;
use sepe_sqed::detect::{Detector, DetectorConfig, Method};
use sepe_sqed::parallel::DetectionJob;

/// The injected bug of the sweep (ADD result off by one — undetectable by
/// plain SQED).
pub fn bug() -> Mutation {
    Mutation::table1()[0].clone()
}

/// The sweep's detector: tiny processor, ADD-only universe.
pub fn detector(max_bound: usize) -> Detector {
    detector_with(max_bound, true, true)
}

/// [`detector`] with the word-level preprocessing (rewriting +
/// cone-of-influence) and the gate-level AIG reductions (structural
/// hashing, local rewriting, polarity-aware Tseitin) each explicitly on or
/// off.
pub fn detector_with(max_bound: usize, simplify: bool, aig: bool) -> Detector {
    Detector::new(DetectorConfig {
        processor: ProcessorConfig::tiny().with_opcodes(&[Opcode::Add]),
        max_bound,
        simplify,
        aig,
        ..DetectorConfig::default()
    })
}

/// One full sweep through the detector (word-level preprocessing and AIG
/// reductions on).  Returns the wall time and the solver-reuse counters of
/// the run.
///
/// # Panics
///
/// Panics if the detection unexpectedly reports the bug (SQED must miss it).
pub fn run(max_bound: usize, bug: &Mutation) -> (Duration, SolverReuseStats) {
    run_with(max_bound, bug, true, true)
}

/// [`run`] with the word-level preprocessing and the gate-level AIG
/// reductions each explicitly on or off (the bench harness's
/// rewrite-on-vs-off and aig-on-vs-off arms).
pub fn run_with(
    max_bound: usize,
    bug: &Mutation,
    simplify: bool,
    aig: bool,
) -> (Duration, SolverReuseStats) {
    let d = detector_with(max_bound, simplify, aig);
    let start = Instant::now();
    let detection = d.check(Method::Sqed, Some(bug));
    let wall = start.elapsed();
    assert!(!detection.detected, "SQED must miss the Table-1 bug");
    (wall, detection.solver)
}

/// A batch of `copies` independent copies of the sweep (the default
/// pipeline), for the parallel engine's speedup measurement: identical jobs
/// make the ideal speedup exactly the worker count, so the measured ratio
/// isolates scheduling overhead and memory contention from workload
/// imbalance.
pub fn batch_jobs(max_bound: usize, copies: usize) -> Vec<DetectionJob> {
    let bug = bug();
    (0..copies)
        .map(|i| {
            DetectionJob::new(
                format!("sqed-sweep-{i}"),
                detector(max_bound).config().clone(),
                Method::Sqed,
                Some(bug.clone()),
            )
        })
        .collect()
}
