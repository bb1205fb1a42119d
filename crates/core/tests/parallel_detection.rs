//! Integration tests of the parallel detection engine: determinism across
//! worker counts and prompt per-job deadlines.

use std::time::{Duration, Instant};

use sepe_isa::Opcode;
use sepe_processor::{Mutation, ProcessorConfig};
use sepe_smt::StopReason;
use sepe_sqed::detect::{DetectorConfig, Method};
use sepe_sqed::parallel::{DetectionJob, Engine};

/// A fast per-bug configuration: tiny processor, the bug's target opcode
/// plus ADDI, shallow bound.  Small enough that the whole Table-1 mutation
/// set sweeps in seconds; the verdicts are still real model-checking
/// verdicts (consistent up to the bound).
fn tiny_config_for(bug: &Mutation, max_bound: usize) -> DetectorConfig {
    let mut opcodes = vec![Opcode::Addi];
    opcodes.extend(bug.target_opcode());
    DetectorConfig {
        processor: ProcessorConfig::tiny().with_opcodes(&opcodes),
        max_bound,
        ..DetectorConfig::default()
    }
}

/// One SEPE-SQED job per Table-1 mutation.
fn table1_jobs(max_bound: usize) -> Vec<DetectionJob> {
    Mutation::table1()
        .iter()
        .map(|bug| {
            DetectionJob::new(
                bug.name.clone(),
                tiny_config_for(bug, max_bound),
                Method::SepeSqed,
                Some(bug.clone()),
            )
        })
        .collect()
}

#[test]
fn four_workers_match_one_worker_on_the_table1_mutation_set() {
    let sequential = Engine::new(1).run(table1_jobs(2));
    let parallel = Engine::new(4).run(table1_jobs(2));
    assert_eq!(sequential.detections.len(), parallel.detections.len());
    for (i, (seq, par)) in sequential
        .detections
        .iter()
        .zip(&parallel.detections)
        .enumerate()
    {
        assert_eq!(seq.bug, par.bug, "job {i} answers a different bug");
        assert_eq!(seq.detected, par.detected, "verdict diverges on job {i}");
        assert_eq!(
            seq.inconclusive, par.inconclusive,
            "conclusiveness diverges on job {i}"
        );
        assert_eq!(
            seq.bound_reached, par.bound_reached,
            "bound diverges on job {i}"
        );
        assert_eq!(
            seq.trace_len, par.trace_len,
            "trace length diverges on job {i}"
        );
        // The solver is deterministic and each job owns its state, so even
        // the conflict counts must agree bit for bit across worker counts.
        assert_eq!(
            seq.conflicts, par.conflicts,
            "search diverges on job {i} — worker state is leaking between jobs"
        );
    }
    assert_eq!(sequential.stats.cancelled, 0);
    assert_eq!(parallel.stats.cancelled, 0);
}

#[test]
fn global_deadline_stops_all_workers_promptly() {
    // Each job alone would run for minutes (the bound-8 SQED sweep against
    // an SQED-invisible bug explores every depth); every job's own wall
    // budget is a fraction of a second, and the solver deadline must cut
    // every in-flight SAT search loose within a short burst of conflicts.
    let bug = Mutation::table1()[0].clone();
    let config = DetectorConfig {
        processor: ProcessorConfig::tiny().with_opcodes(&[Opcode::Add]),
        max_bound: 8,
        time_limit: Some(Duration::from_millis(300)),
        ..DetectorConfig::default()
    };
    let jobs: Vec<DetectionJob> = (0..4)
        .map(|i| {
            DetectionJob::new(
                format!("hard-{i}"),
                config.clone(),
                Method::Sqed,
                Some(bug.clone()),
            )
        })
        .collect();
    let start = Instant::now();
    let outcome = Engine::new(2).run(jobs);
    let wall = start.elapsed();
    assert!(
        wall < Duration::from_secs(10),
        "the deadlines took {wall:?} — workers are not being interrupted"
    );
    assert_eq!(outcome.detections.len(), 4);
    for (i, d) in outcome.detections.iter().enumerate() {
        assert!(
            d.inconclusive && !d.detected,
            "job {i} should be cut off inconclusive"
        );
        assert_eq!(d.stop_reason, Some(StopReason::Deadline), "job {i}");
    }
    assert_eq!(outcome.stats.stop_reasons.deadline, 4);
}
