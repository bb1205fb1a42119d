//! Batched multi-bug detection: answer a whole mutation catalogue over one
//! shared unrolling.
//!
//! The per-job engine treats every bug as an independent detector — one
//! term manager, one unrolling, one cold SAT solver each.  The batched
//! path builds the transition system **once** with every catalogue entry's
//! mutation behind its own activation literal, encodes it once into a
//! persistent incremental solver, and answers each entry with one-hot
//! `check_assuming` flips per depth, reusing learnt clauses across entries.
//!
//! Run with `cargo run --release --example mutation_catalogue`.

use sepe_isa::Opcode;
use sepe_processor::{Mutation, ProcessorConfig};
use sepe_sqed::detect::{DetectorConfig, Method};
use sepe_sqed::parallel::RetryPolicy;
use sepe_sqed::{BatchedDetector, CatalogueEntry};

fn main() {
    // The catalogue: the first three Table-1 bugs, plus the shared opcode
    // universe their triggers need (ADDI constructs operand values).
    let bugs: Vec<Mutation> = Mutation::table1().into_iter().take(3).collect();
    let mut ops = vec![Opcode::Addi];
    ops.extend(bugs.iter().filter_map(|b| b.target_opcode()));
    ops.sort();
    ops.dedup();
    let catalogue: Vec<CatalogueEntry> = bugs
        .iter()
        .map(|b| CatalogueEntry::new(b.name.clone(), b.clone()))
        .collect();

    // One shared configuration for the whole catalogue, via the builder:
    // the default per-depth sweeps report shortest counterexamples, and the
    // retry ladder rescues entries whose queries fail on the shared solver.
    let config = DetectorConfig::builder()
        .processor(ProcessorConfig::tiny().with_opcodes(&ops))
        .bound(3)
        .retry(RetryPolicy::ladder(2))
        .build();

    println!(
        "# Batched SEPE-SQED over {} catalogue entries\n",
        bugs.len()
    );
    let outcome = BatchedDetector::new(config).run(Method::SepeSqed, &catalogue);

    for (bug, d) in bugs.iter().zip(&outcome.detections) {
        println!(
            "{:<14} detected: {:<5} bound: {}  trace length: {}",
            bug.name,
            d.detected,
            d.bound_reached,
            d.trace_len
                .map(|l| l.to_string())
                .unwrap_or_else(|| "-".into()),
        );
    }
    println!("\nbatched: {}", outcome.stats);
    println!(
        "one encoding answered {} entries ({} shared CNF clauses, {} queries); \
         the per-job engine would pay {} encodings.",
        outcome.stats.jobs,
        outcome.stats.solver.cnf_clauses,
        outcome.stats.queries,
        outcome.stats.jobs,
    );
}
