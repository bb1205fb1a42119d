//! Proof-flow integration tests: the unbounded prover threaded through
//! the detector, the independent-solver certificate self-check, and
//! cross-method agreement with the bounded baseline over the Table-1
//! catalogue.
//!
//! The headline acceptance check lives here: IC3/PDR *proves* the clean
//! tiny+ADD SQED configuration — a query every bounded sweep previously
//! left inconclusive-at-the-bound — and the inductive invariant
//! re-verifies on a fresh solver before the verdict leaves the engine.

use std::time::Duration;

use sepe_isa::Opcode;
use sepe_processor::{Mutation, ProcessorConfig};
use sepe_smt::StopReason;
use sepe_sqed::detect::{Detection, Detector, DetectorConfig, Method};
use sepe_sqed::fault::FaultPlan;
use sepe_tsys::ProofMethod;

fn clean_config() -> DetectorConfig {
    DetectorConfig::builder()
        .processor(ProcessorConfig::tiny().with_opcodes(&[Opcode::Add]))
        .bound(4)
        .prove(ProofMethod::Pdr)
        .build()
}

/// The acceptance criterion of the proof subsystem: a clean configuration
/// that bounded BMC can only ever report `NoCounterexample { bound }` for
/// becomes **Proved** — for *all* depths — and the certificate passes the
/// independent-solver self-check.
#[test]
fn pdr_proves_the_clean_config_and_the_certificate_self_checks() {
    let detection = Detector::new(clean_config()).check(Method::Sqed, None);
    assert!(
        detection.proved,
        "PDR must prove the clean tiny+ADD SQED config, got {detection:?}"
    );
    assert!(!detection.detected);
    assert!(!detection.inconclusive);
    assert_eq!(detection.proof_method, Some(ProofMethod::Pdr));
    assert!(
        detection.proof_depth.is_some_and(|d| d >= 1),
        "a PDR proof closes at some frontier ≥ 1"
    );
    assert_eq!(
        detection.proof_checked,
        Some(true),
        "the invariant must re-verify on an independent solver"
    );
}

/// A corrupted inductive invariant (injected via the fault plan, the
/// proof-side analogue of `corrupt_witness`) must demote the verdict to a
/// structured inconclusive with [`StopReason::ProofMismatch`] — never leak
/// a `proved` flag whose certificate did not check out.
#[test]
fn corrupted_certificate_demotes_the_proof_to_a_structured_failure() {
    let config = DetectorConfig {
        fault: Some(FaultPlan::corrupt_proof()),
        ..clean_config()
    };
    let detection = Detector::new(config).check(Method::Sqed, None);
    assert!(!detection.proved, "a corrupted proof must not count");
    assert!(!detection.detected);
    assert!(detection.inconclusive);
    assert_eq!(detection.stop_reason, Some(StopReason::ProofMismatch));
    assert_eq!(
        detection.proof_checked,
        Some(false),
        "the failed self-check is reported, mirroring witness_validated"
    );
    assert_eq!(
        detection.proof_method,
        Some(ProofMethod::Pdr),
        "the demoted verdict still names the prover that produced it"
    );
}

/// Cross-method agreement over the Table-1 catalogue: for each bug, any
/// conclusive prover verdict must agree with the bounded per-depth
/// baseline — Falsified reproduces the bounded shortest trace, Proved
/// contradicts nothing the bounded sweep found.  Inconclusive prover
/// outcomes (budget artefacts) impose no constraint.  PDR is a prover, not
/// a bug-finder: within its budget it falsifies neither bug, so the check
/// that stays live is "never proves a design the baseline found buggy".
#[test]
fn table1_catalogue_verdicts_agree_with_the_bounded_baseline() {
    let bugs: Vec<Mutation> = Mutation::table1().into_iter().take(2).collect();
    let mut ops = vec![Opcode::Addi];
    ops.extend(bugs.iter().filter_map(|b| b.target_opcode()));
    ops.sort();
    ops.dedup();
    let base = DetectorConfig::builder()
        .processor(ProcessorConfig::tiny().with_opcodes(&ops))
        .bound(3)
        .build();

    let mut detected_bugs = 0usize;
    for bug in &bugs {
        let bounded = Detector::new(base.clone()).check(Method::SepeSqed, Some(bug));
        detected_bugs += usize::from(bounded.detected);
        let config = DetectorConfig::builder()
            .processor(base.processor.clone())
            .bound(3)
            .prove(ProofMethod::Pdr)
            .time_limit(Duration::from_secs(8))
            .build();
        let proven = Detector::new(config).check(Method::SepeSqed, Some(bug));
        check_agreement(&bounded, &proven, &format!("PDR on {}", bug.name));
    }
    assert!(
        detected_bugs > 0,
        "the bounded baseline must detect at least one Table-1 bug here, \
         or the agreement check is vacuous"
    );
}

fn check_agreement(bounded: &Detection, proven: &Detection, label: &str) {
    if proven.proved {
        assert!(
            !bounded.detected,
            "{label}: proved, but the bounded baseline found a counterexample"
        );
    }
    if proven.detected && !bounded.inconclusive {
        assert!(
            bounded.detected,
            "{label}: prover falsified but the bounded sweep (same bound) found nothing"
        );
        assert_eq!(
            proven.trace_len, bounded.trace_len,
            "{label}: both traces are shortest-first, so lengths must match"
        );
    }
}
