//! Integration of the synthesis pipeline with the verification pipeline:
//! a program synthesized by HPF-CEGIS is installed in the equivalence
//! database and used by SEPE-SQED to detect a bug.

use sepe_isa::Opcode;
use sepe_processor::{Mutation, ProcessorConfig};
use sepe_sqed::detect::{Detector, DetectorConfig, Method};
use sepe_sqed::equivalence::EquivalenceDb;
use sepe_synth::hpf::HpfCegis;
use sepe_synth::library::Library;
use sepe_synth::spec::Spec;
use sepe_synth::SynthesisConfig;

#[test]
#[ignore = "release-speed check (about two seconds optimised); run with cargo test --release -- --ignored"]
fn synthesized_program_drives_bug_detection() {
    let width = 8; // synthesis and verification share the same data-path width

    // 1. Synthesize an equivalent program for SUB with HPF-CEGIS.
    let config = SynthesisConfig {
        width,
        multiset_size: 3,
        programs_wanted: 1,
        min_components: 3,
        max_cegis_iterations: 8,
        synth_conflict_limit: Some(50_000),
        verify_conflict_limit: Some(50_000),
        ..SynthesisConfig::default()
    };
    let mut hpf = HpfCegis::new(config, Library::minimal());
    let spec = Spec::for_opcode(Opcode::Sub, width);
    let result = hpf.synthesize(&spec);
    let program = result
        .best()
        .expect("HPF-CEGIS finds a SUB program")
        .clone();
    assert!(program.len() >= 3);

    // 2. Install it in an equivalence database (replacing the curated entry).
    let mut db = EquivalenceDb::curated_for_width(width);
    db.insert(program);

    // 3. Use it to catch the Table-1 SUB bug.
    let bug = Mutation::table1()
        .into_iter()
        .find(|b| b.target_opcode() == Some(Opcode::Sub))
        .expect("SUB bug exists");
    let detector = Detector::new(DetectorConfig {
        processor: ProcessorConfig::tiny().with_opcodes(&[Opcode::Sub, Opcode::Addi]),
        max_bound: 7,
        equivalence: Some(db),
        ..DetectorConfig::default()
    });
    let sepe = detector.check(Method::SepeSqed, Some(&bug));
    assert!(
        sepe.detected,
        "a synthesized equivalent program must expose the SUB bug just like the curated one"
    );
}

#[test]
fn hpf_is_not_slower_than_iterative_on_a_small_case() {
    // A miniature version of the Figure-3 comparison: both drivers reach one
    // program for SUB; HPF should not need more multiset attempts.
    let config = SynthesisConfig {
        width: 8,
        multiset_size: 3,
        programs_wanted: 1,
        min_components: 2,
        max_cegis_iterations: 8,
        ..SynthesisConfig::default()
    };
    let library = Library::minimal();
    let spec = Spec::for_opcode(Opcode::Sub, 8);
    let mut hpf = HpfCegis::new(config.clone(), library.clone());
    let hpf_result = hpf.synthesize(&spec);
    let iterative = sepe_synth::iterative::IterativeCegis::new(config, library);
    let iter_result = iterative.synthesize(&spec);
    assert!(hpf_result.succeeded() && iter_result.succeeded());
}
