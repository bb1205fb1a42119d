//! Differential suite for the batched in-solver detector: over the Table-1
//! mutation set, the activation-multiplexed shared unrolling must produce
//! verdicts, bounds and trace lengths **bit-identical** to the per-job
//! engine at `jobs = 1` under the same shared configuration — including
//! when one catalogue entry carries an injected fault, in which case the
//! neighbours' answers must be unaffected.

use std::time::Duration;

use sepe_isa::Opcode;
use sepe_processor::{Mutation, ProcessorConfig};
use sepe_sqed::batch::{BatchedDetector, CatalogueEntry};
use sepe_sqed::detect::{Detector, DetectorConfig, Method};
use sepe_sqed::fault::FaultPlan;
use sepe_sqed::parallel::{DetectionJob, Engine, RetryPolicy};
use sepe_tsys::{BmcMode, ProofMethod};

/// The first `n` Table-1 bugs with the shared opcode universe their
/// triggers need (plus ADDI for operand setup), per-depth so batched and
/// per-job sweeps report shortest counterexamples alike.
fn shared_setup(n: usize, max_bound: usize) -> (DetectorConfig, Vec<Mutation>) {
    let bugs: Vec<Mutation> = Mutation::table1().into_iter().take(n).collect();
    let mut ops = vec![Opcode::Addi];
    ops.extend(bugs.iter().filter_map(|b| b.target_opcode()));
    ops.sort();
    ops.dedup();
    let config = DetectorConfig::builder()
        .processor(ProcessorConfig::tiny().with_opcodes(&ops))
        .bound(max_bound)
        .bmc_mode(BmcMode::PerDepth)
        .build();
    (config, bugs)
}

fn catalogue_of(bugs: &[Mutation]) -> Vec<CatalogueEntry> {
    bugs.iter()
        .map(|b| CatalogueEntry::new(b.name.clone(), b.clone()))
        .collect()
}

fn jobs_of(bugs: &[Mutation], config: &DetectorConfig, method: Method) -> Vec<DetectionJob> {
    bugs.iter()
        .map(|b| DetectionJob::new(b.name.clone(), config.clone(), method, Some(b.clone())))
        .collect()
}

/// Batched vs per-job over the Table-1 set: same verdict, same bound, same
/// counterexample length for every bug, for both methods.
#[test]
fn batched_matches_per_job_over_the_table1_set() {
    // Bound 3 is the sweet spot: SEPE-SQED detects the ADD bug there (a
    // length-3 counterexample) while the SUB bug stays clean, so the suite
    // exercises both the witness path and the proven-clean path — and the
    // SQED consistency sweep is still sub-second per depth.
    let (config, bugs) = shared_setup(2, 3);
    for method in [Method::Sqed, Method::SepeSqed] {
        let batched = BatchedDetector::new(config.clone()).run(method, &catalogue_of(&bugs));
        let per_job = Engine::new(1).run(jobs_of(&bugs, &config, method));
        assert_eq!(batched.stats.encodes, 1, "one shared encoding ({method})");
        assert_eq!(batched.stats.fallbacks, 0, "no fallbacks ({method})");
        for ((bug, b), p) in bugs
            .iter()
            .zip(&batched.detections)
            .zip(&per_job.detections)
        {
            assert_eq!(b.detected, p.detected, "{method} verdict on {}", bug.name);
            assert_eq!(
                b.inconclusive, p.inconclusive,
                "{method} conclusiveness on {}",
                bug.name
            );
            assert_eq!(
                b.bound_reached, p.bound_reached,
                "{method} bound on {}",
                bug.name
            );
            assert_eq!(
                b.trace_len, p.trace_len,
                "{method} counterexample length on {}",
                bug.name
            );
        }
    }
}

/// A panic planted in one entry poisons only the shared session, never the
/// catalogue's answers: the failed entry resumes on the retry ladder, the
/// bystanders fall back to fresh per-job runs, and every final verdict is
/// bit-identical to a fault-free per-job sweep.
#[test]
fn a_faulted_entry_leaves_neighbour_verdicts_bit_identical() {
    // The busy bound-2 SQED workload: its queries conflict early, so the
    // conflict-indexed panic hook always fires while the faulted entry's
    // query runs.  The bomb goes first so learnt-clause reuse cannot make
    // its queries conflict-free.
    let bug = Mutation::table1()[0].clone();
    let config = DetectorConfig::builder()
        .processor(ProcessorConfig::tiny().with_opcodes(&[Opcode::Add, Opcode::Xori]))
        .bound(2)
        .bmc_mode(BmcMode::PerDepth)
        .retry(RetryPolicy::ladder(2))
        .build();
    let mut catalogue: Vec<CatalogueEntry> = (0..3)
        .map(|i| CatalogueEntry::new(format!("entry-{i}"), bug.clone()))
        .collect();
    catalogue[0] = catalogue[0].clone().with_fault(FaultPlan::panic_at(5));

    let batched = BatchedDetector::new(config.clone()).run(Method::Sqed, &catalogue);
    let reference = Engine::new(1).run(vec![DetectionJob::new(
        "reference",
        config,
        Method::Sqed,
        Some(bug),
    )]);
    let clean = &reference.detections[0];

    assert_eq!(batched.stats.panics, 1, "the bomb fired exactly once");
    assert_eq!(
        batched.stats.fallbacks, 3,
        "the failed entry resumes, both bystanders run fresh"
    );
    assert_eq!(
        batched.stats.retries, 1,
        "only the failed entry takes a second attempt"
    );
    assert_eq!(
        batched.stats.encodes, 4,
        "the shared encoding plus one re-encode per fallback attempt"
    );
    assert_eq!(batched.reports[0].panicked_attempts, 1);
    assert_eq!(batched.reports[0].attempts, 2, "shared attempt + one rung");
    for (i, d) in batched.detections.iter().enumerate() {
        assert_eq!(d.detected, clean.detected, "verdict on entry {i}");
        assert_eq!(
            d.inconclusive, clean.inconclusive,
            "conclusiveness on entry {i}"
        );
        assert_eq!(d.bound_reached, clean.bound_reached, "bound on entry {i}");
        assert_eq!(d.trace_len, clean.trace_len, "trace length on entry {i}");
    }
}

/// With a prover configured, every entry the shared bounded pass leaves
/// undetected gets an unbounded re-run.  Each final verdict must match the
/// scalar detector with the identical configuration: the bounded check for
/// an entry the sweep detected, the prover for a survivor (the scalar
/// prover runs alone, without a bounded sweep first).
#[test]
fn batched_prove_pass_matches_the_scalar_detector() {
    let (config, bugs) = shared_setup(2, 3);
    // PDR grinds on a survivor of the bound-3 sweep far longer than a test
    // can wait, so both runs stop at the same wall budget: the batched and
    // scalar verdicts then agree on inconclusive for the same reason.
    let config = DetectorConfig {
        prove: Some(ProofMethod::Pdr),
        time_limit: Some(Duration::from_secs(2)),
        ..config
    };
    let batched = BatchedDetector::new(config.clone()).run(Method::SepeSqed, &catalogue_of(&bugs));

    let detected = batched.detections.iter().filter(|d| d.detected).count();
    assert_eq!(
        batched.stats.proof_attempts,
        (bugs.len() - detected) as u64,
        "exactly the entries the bounded pass left undetected get a proof attempt"
    );
    assert!(
        batched.stats.proof_attempts > 0,
        "the bound-3 sweep leaves at least one entry for the prover"
    );

    let bounded = DetectorConfig {
        prove: None,
        ..config.clone()
    };
    for (bug, b) in bugs.iter().zip(&batched.detections) {
        let swept = Detector::new(bounded.clone()).check(Method::SepeSqed, Some(bug));
        let scalar = if swept.detected {
            swept
        } else {
            Detector::new(config.clone()).check(Method::SepeSqed, Some(bug))
        };
        assert_eq!(b.detected, scalar.detected, "verdict on {}", bug.name);
        assert_eq!(
            b.inconclusive, scalar.inconclusive,
            "conclusiveness on {}",
            bug.name
        );
        assert_eq!(
            b.stop_reason, scalar.stop_reason,
            "stop reason on {}",
            bug.name
        );
        assert_eq!(b.proved, scalar.proved, "proved flag on {}", bug.name);
        assert_eq!(
            b.proof_method, scalar.proof_method,
            "proof method on {}",
            bug.name
        );
        assert_eq!(
            b.trace_len, scalar.trace_len,
            "trace length on {}",
            bug.name
        );
    }
}

/// A one-entry catalogue shares nothing, so it must run exactly the direct
/// per-depth check: same verdict, bound, trace, witness and conflicts.  The
/// shape is the service bug hunt's (xlen 4, 4 memory words, history 1,
/// bound 6, the target opcode plus ADDI); these two bugs end in its hardest
/// satisfiable queries, whose search any perturbation of the encoding moves.
#[test]
fn a_one_entry_catalogue_costs_what_the_direct_check_costs() {
    for (name, direct_conflicts) in [("single-srai", 380), ("single-sw", 449)] {
        let bug = Mutation::table1()
            .into_iter()
            .find(|m| m.name == name)
            .expect("a Table-1 bug");
        let target = bug.target_opcode().expect("targets an opcode");
        let config = DetectorConfig::builder()
            .processor(ProcessorConfig {
                history_depth: 1,
                ..ProcessorConfig::tiny().with_opcodes(&[target, Opcode::Addi])
            })
            .bound(6)
            .build();
        let batched = BatchedDetector::new(config.clone())
            .run(Method::SepeSqed, &catalogue_of(std::slice::from_ref(&bug)));
        let direct = Detector::new(config).check(Method::SepeSqed, Some(&bug));
        let b = &batched.detections[0];
        assert!(direct.detected, "{name} is detected within bound 6");
        assert_eq!(batched.stats.encodes, 1, "{name}: one encoding");
        assert_eq!(b.detected, direct.detected, "verdict on {name}");
        assert_eq!(b.trace_len, direct.trace_len, "trace length on {name}");
        assert_eq!(b.bound_reached, direct.bound_reached, "bound on {name}");
        assert_eq!(b.witness, direct.witness, "witness on {name}");
        assert_eq!(
            direct.conflicts, direct_conflicts,
            "direct conflicts on {name}"
        );
        assert_eq!(b.conflicts, direct.conflicts, "conflicts on {name}");
    }
}
