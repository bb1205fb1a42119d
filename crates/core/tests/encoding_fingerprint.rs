//! Pins the encoding of one Table-1 detection end to end.
//!
//! A SEPE-SQED per-depth session over the `single-add` bug (xlen 4, the
//! ADD/ADDI universe) runs to its first counterexample; the test records
//! what every layer of the encoding produced on the way — rewrite pins,
//! AIG nodes, CNF variables and clauses — together with the SAT conflicts
//! and propagations and the counterexample length.  The word-level
//! rewriter, the unroller's substitution and the bit-blaster may be made
//! faster, but never different: any change to a term they emit shifts at
//! least one of these numbers.  Refresh them only for a change meant to
//! alter the encoding or the search, and say so.
//!
//! A second case pins the one-shot path the same way: one fresh solver
//! that asserts the whole depth-5 SQED unrolling in one
//! `IncrementalSolver::assert_all`, so one joint rewrite fixpoint
//! simplifies it before encoding, as every proof-certificate obligation is
//! checked.  SQED cannot see the single-instruction bug, so the query is
//! unsatisfiable.
//!
//! A third case builds the same `single-add` detection as a one-entry
//! mutation catalogue (`QedBuilder::build_catalogue`) and queries it under
//! one-hot assumptions, as the benchmark's in-process replica of a service
//! miss does.  A lone entry has nothing to share, so it must be the direct
//! encoding: the same fingerprint, field for field.

use sepe_isa::Opcode;
use sepe_processor::{Mutation, ProcessorConfig};
use sepe_smt::{one_hot_assumptions, IncrementalSolver, SatResult, TermManager};
use sepe_sqed::detect::{Detector, DetectorConfig, Method};
use sepe_sqed::qed::{QedBuilder, Scheme};
use sepe_tsys::{BmcConfig, BmcSession, QueryOutcome, Unroller};

/// What the encoding of the detection produced, layer by layer.  A run
/// without a counterexample has `trace_len` 0.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    bound: usize,
    trace_len: usize,
    rewrite_pins: u64,
    aig_nodes: u64,
    cnf_vars: u64,
    cnf_clauses: u64,
    conflicts: u64,
    propagations: u64,
}

/// The fingerprint of the SEPE-SQED `single-add` per-depth detection,
/// built either directly or as a one-entry catalogue.
fn single_add_fingerprint(catalogue: bool) -> Fingerprint {
    let bug = Mutation::table1()
        .into_iter()
        .find(|m| m.name == "single-add")
        .expect("single-add is a Table-1 bug");
    let config = DetectorConfig::builder()
        .processor(ProcessorConfig::tiny().with_opcodes(&[Opcode::Add, Opcode::Addi]))
        .bound(6)
        .build();
    let helper = Detector::new(config.clone());
    let builder = QedBuilder {
        processor: config.processor.clone(),
        original_opcodes: helper.original_opcodes(Method::SepeSqed),
        queue_depth: config.queue_depth,
    };
    let mut tm = TermManager::new();
    let scheme = Scheme::Sepe(helper.equivalence_db());
    let (system, acts) = if catalogue {
        let (system, activated) = builder.build_catalogue(&mut tm, &scheme, &[bug]);
        let acts: Vec<_> = activated.iter().map(|a| a.activation).collect();
        (system, Some(acts))
    } else {
        (builder.build(&mut tm, &scheme, Some(&bug)), None)
    };
    let bmc_config = BmcConfig {
        start_bound: 1,
        simplify: config.simplify,
        aig: config.aig,
        ..BmcConfig::default()
    };
    let mut session = BmcSession::open(&mut tm, &system.ts, &bmc_config);
    for bound in 1..=config.max_bound {
        session.extend(&mut tm, bound);
        let bad = session.bad_at(&mut tm, bound);
        let assumptions = match &acts {
            Some(acts) => one_hot_assumptions(&mut tm, acts, 0, &[bad]),
            None => vec![bad],
        };
        match session.query(&mut tm, bound, &assumptions) {
            QueryOutcome::Counterexample(witness) => {
                let stats = session.stats();
                return Fingerprint {
                    bound,
                    trace_len: witness.len(),
                    rewrite_pins: stats.solver.encode.rewrite.pins,
                    aig_nodes: stats.solver.encode.aig.nodes,
                    cnf_vars: stats.solver.cnf_vars,
                    cnf_clauses: stats.solver.cnf_clauses,
                    conflicts: stats.conflicts,
                    propagations: stats.solver.propagations,
                };
            }
            QueryOutcome::Unreachable => {}
            QueryOutcome::Unknown(reason) => panic!("bound {bound}: gave up ({reason:?})"),
        }
    }
    panic!("single-add not detected within bound {}", config.max_bound);
}

/// The fingerprint of one fresh solver over the depth-5 SQED unrolling of
/// the first Table-1 bug on tiny/ADD, rewriting and AIG on: initial state,
/// every frame's transition and constraints, and the bad state at depth 5,
/// asserted at once.
fn one_shot_fingerprint() -> Fingerprint {
    const DEPTH: usize = 5;
    let bug = Mutation::table1().remove(0);
    let config = DetectorConfig::builder()
        .processor(ProcessorConfig::tiny().with_opcodes(&[Opcode::Add]))
        .build();
    let builder = QedBuilder {
        processor: config.processor.clone(),
        original_opcodes: Detector::new(config.clone()).original_opcodes(Method::Sqed),
        queue_depth: config.queue_depth,
    };
    let mut tm = TermManager::new();
    let system = builder.build(&mut tm, &Scheme::Sqed, Some(&bug));
    let mut unroller = Unroller::new(&system.ts);
    let mut query = vec![unroller.init(&mut tm), unroller.constraints_at(&mut tm, 0)];
    for k in 0..DEPTH {
        query.push(unroller.transition(&mut tm, k));
        query.push(unroller.constraints_at(&mut tm, k + 1));
    }
    query.push(unroller.bad_at(&mut tm, DEPTH));
    let mut solver = IncrementalSolver::new();
    solver.assert_all(&mut tm, &query);
    assert_eq!(
        solver.check(&mut tm),
        SatResult::Unsat,
        "SQED must miss {}",
        bug.name
    );
    let stats = solver.stats();
    Fingerprint {
        bound: DEPTH,
        trace_len: 0,
        rewrite_pins: stats.encode.rewrite.pins,
        aig_nodes: stats.encode.aig.nodes,
        cnf_vars: stats.cnf_vars,
        cnf_clauses: stats.cnf_clauses,
        conflicts: stats.conflicts,
        propagations: stats.propagations,
    }
}

#[test]
fn single_add_detection_encoding_is_pinned() {
    assert_eq!(
        single_add_fingerprint(false),
        Fingerprint {
            bound: 3,
            trace_len: 4,
            rewrite_pins: 250,
            aig_nodes: 4127,
            cnf_vars: 2114,
            cnf_clauses: 8284,
            conflicts: 5,
            propagations: 3590,
        }
    );
}

#[test]
fn sqed_one_shot_unrolling_encoding_is_pinned() {
    assert_eq!(
        one_shot_fingerprint(),
        Fingerprint {
            bound: 5,
            trace_len: 0,
            rewrite_pins: 481,
            aig_nodes: 5201,
            cnf_vars: 2628,
            cnf_clauses: 11023,
            conflicts: 9,
            propagations: 262,
        }
    );
}

#[test]
fn one_entry_catalogue_is_the_direct_encoding() {
    assert_eq!(single_add_fingerprint(true), single_add_fingerprint(false));
}
