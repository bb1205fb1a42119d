//! Table 1: injected single-instruction bugs — SEPE-SQED detection time per
//! bug, SQED reporting "-" for every one of them.

use std::time::Duration;

use serde::Serialize;

use sepe_isa::Opcode;
use sepe_processor::{Mutation, ProcessorConfig};
use sepe_smt::EncodeStats;
use sepe_sqed::batch::{BatchedStats, CatalogueEntry};
use sepe_sqed::detect::{Detector, DetectorConfig, Method};
use sepe_sqed::parallel::{BatchSpec, BatchStats, DetectionJob, Engine};

use crate::report::{SolverRow, SolverSummary};
use crate::Profile;

/// One row of Table 1.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Bug identifier.
    pub bug: String,
    /// The targeted instruction (the paper's "Type" column).
    pub opcode: String,
    /// The paper's "Function" column.
    pub function: String,
    /// SEPE-SQED detection time in seconds (`None` means not detected).
    pub sepe_secs: Option<f64>,
    /// SEPE-SQED counterexample length (committed instructions).
    pub sepe_trace_len: Option<usize>,
    /// Whether plain SQED detected the bug (expected `false` for every row).
    pub sqed_detected: bool,
    /// Bound up to which SQED proved consistency.
    pub sqed_bound: usize,
    /// Distinct term encodings cached by the SEPE-SQED incremental solver
    /// (see `sepe_smt::EncodeStats`).
    pub sepe_terms_cached: u64,
    /// Term encodings reused across depths by the SEPE-SQED incremental
    /// per-depth sweep.
    pub sepe_terms_reused: u64,
    /// Terms changed by the word-level rewriter ahead of bit-blasting.
    pub sepe_terms_rewritten: u64,
    /// Catalogue-rule applications by the rewriter.
    pub sepe_rewrite_rules: u64,
    /// Asserted equalities the rewriter turned into variable pins.
    pub sepe_rewrite_pins: u64,
    /// Asserted conjuncts the rewriter eliminated before encoding.
    pub sepe_assertions_dropped: u64,
    /// Next-state updates dropped by the BMC cone-of-influence pass.
    pub sepe_coi_dropped: u64,
    /// AIG nodes created below the word level (strash misses).
    pub sepe_aig_nodes: u64,
    /// AIG requests answered by the structural-hashing table.
    pub sepe_aig_strash_hits: u64,
    /// AIG requests folded by constant propagation / one-level rules.
    pub sepe_aig_consts_folded: u64,
    /// Two-level local rewrites at AIG node creation.
    pub sepe_aig_rewrites: u64,
    /// CNF variables emitted by the polarity-aware Tseitin pass.
    pub sepe_cnf_vars: u64,
    /// CNF clauses emitted by the polarity-aware Tseitin pass.
    pub sepe_cnf_clauses: u64,
    /// Learnt clauses retained across the sweep's SAT calls.
    pub sepe_learnt_retained: u64,
    /// High-water mark of live learnt clauses during the sweep (with
    /// database reduction on, this stays below what an unreduced solver
    /// would retain: `sepe_learnt_deleted + sepe_learnt_retained`).
    pub sepe_learnt_high_water: u64,
    /// Learnt clauses deleted by database reduction during the sweep.
    pub sepe_learnt_deleted: u64,
    /// Per-depth SAT-conflict deltas of the SEPE-SQED sweep (what each
    /// depth's query cost on top of the previous one).
    pub sepe_depth_conflicts: Vec<u64>,
}

impl Table1Row {
    /// The SEPE-SQED cell of the table.
    pub fn sepe_cell(&self) -> String {
        self.sepe_secs
            .map(|s| format!("{s:.2}s"))
            .unwrap_or_else(|| "-".into())
    }

    /// The SQED cell of the table.
    pub fn sqed_cell(&self) -> String {
        if self.sqed_detected {
            "detected".into()
        } else {
            "-".into()
        }
    }

    /// This row's contribution to the shared solver summary.
    fn solver_row(&self) -> SolverRow {
        let encode = EncodeStats {
            terms_cached: self.sepe_terms_cached,
            terms_reused: self.sepe_terms_reused,
            rewrite: sepe_smt::RewriteStats {
                terms_rewritten: self.sepe_terms_rewritten,
                rule_applications: self.sepe_rewrite_rules,
                pins: self.sepe_rewrite_pins,
                assertions_dropped: self.sepe_assertions_dropped,
                coi_dropped_updates: self.sepe_coi_dropped,
                ..Default::default()
            },
            aig: sepe_smt::AigStats {
                nodes: self.sepe_aig_nodes,
                strash_hits: self.sepe_aig_strash_hits,
                consts_folded: self.sepe_aig_consts_folded,
                rewrites: self.sepe_aig_rewrites,
                cnf_vars: self.sepe_cnf_vars,
                cnf_clauses: self.sepe_cnf_clauses,
            },
        };
        SolverRow {
            label: self.bug.clone(),
            encode,
            learnt_retained: self.sepe_learnt_retained,
            learnt_high_water: self.sepe_learnt_high_water,
            learnt_deleted: self.sepe_learnt_deleted,
            depth_conflicts: self.sepe_depth_conflicts.clone(),
        }
    }
}

/// The detector configuration used for one Table-1 bug.
pub fn detector_for(bug: &Mutation, profile: Profile) -> Detector {
    let target = bug.target_opcode().expect("table-1 bugs target an opcode");
    let (xlen, max_bound, sqed_limit) = match profile {
        Profile::Quick => (4, 10, Some(400_000)),
        Profile::Full => (8, 12, Some(2_000_000)),
    };
    Detector::new(DetectorConfig {
        processor: ProcessorConfig {
            xlen,
            mem_words: 4,
            ..ProcessorConfig::default()
        }
        .with_opcodes(&[target, Opcode::Addi]),
        max_bound,
        conflict_limit: sqed_limit,
        time_limit: Some(match profile {
            Profile::Quick => Duration::from_secs(120),
            Profile::Full => Duration::from_secs(1200),
        }),
        ..DetectorConfig::default()
    })
}

/// The bugs exercised by a profile.
pub fn bugs(profile: Profile) -> Vec<Mutation> {
    let all = Mutation::table1();
    match profile {
        Profile::Quick => all
            .into_iter()
            .filter(|b| {
                matches!(
                    b.target_opcode(),
                    Some(Opcode::Add | Opcode::Sub | Opcode::Xor | Opcode::Xori | Opcode::Sw)
                )
            })
            .collect(),
        Profile::Full => all,
    }
}

/// Runs the Table-1 experiment sequentially (one worker).
pub fn run(profile: Profile) -> Vec<Table1Row> {
    run_with_jobs(profile, 1).0
}

/// The two detection jobs of one Table-1 bug: the SQED run (shallower
/// bound — the point of the row is that it finds nothing no matter how long
/// it looks) and the SEPE-SQED run.  Both explore per depth on the
/// persistent incremental solver (the default): shortest counterexamples
/// first, encodings and learnt clauses shared across depths.
fn jobs_for(bug: &Mutation, profile: Profile) -> [DetectionJob; 2] {
    let detector = detector_for(bug, profile);
    let sqed_bound = match profile {
        Profile::Quick => 5,
        Profile::Full => 8,
    };
    [
        DetectionJob::new(
            format!("{}-sqed", bug.name),
            DetectorConfig {
                max_bound: sqed_bound,
                ..detector.config().clone()
            },
            Method::Sqed,
            Some(bug.clone()),
        ),
        DetectionJob::new(
            format!("{}-sepe", bug.name),
            detector.config().clone(),
            Method::SepeSqed,
            Some(bug.clone()),
        ),
    ]
}

/// Runs the Table-1 experiment on the parallel detection engine with the
/// given worker count.  Every bug contributes two independent jobs (SQED +
/// SEPE-SQED); `jobs = 1` runs them inline in the same order as the
/// sequential driver always has, so its rows are bit-identical to
/// [`run`]'s.
pub fn run_with_jobs(profile: Profile, jobs: usize) -> (Vec<Table1Row>, BatchStats) {
    let bugs = bugs(profile);
    let batch: Vec<DetectionJob> = bugs.iter().flat_map(|bug| jobs_for(bug, profile)).collect();
    let outcome = Engine::new(jobs).run(batch).expect_jobs();
    let rows = bugs
        .iter()
        .enumerate()
        .map(|(i, bug)| {
            let sqed = &outcome.detections[2 * i];
            let sepe = &outcome.detections[2 * i + 1];
            Table1Row {
                bug: bug.name.clone(),
                opcode: bug
                    .target_opcode()
                    .map(|o| o.mnemonic().to_uppercase())
                    .unwrap_or_default(),
                function: bug.description.clone(),
                sepe_secs: sepe.detected.then_some(sepe.runtime.as_secs_f64()),
                sepe_trace_len: sepe.trace_len,
                sqed_detected: sqed.detected,
                sqed_bound: sqed.bound_reached,
                sepe_terms_cached: sepe.solver.encode.terms_cached,
                sepe_terms_reused: sepe.solver.encode.terms_reused,
                sepe_terms_rewritten: sepe.solver.encode.rewrite.terms_rewritten,
                sepe_rewrite_rules: sepe.solver.encode.rewrite.rule_applications,
                sepe_rewrite_pins: sepe.solver.encode.rewrite.pins,
                sepe_assertions_dropped: sepe.solver.encode.rewrite.assertions_dropped,
                sepe_coi_dropped: sepe.solver.encode.rewrite.coi_dropped_updates,
                sepe_aig_nodes: sepe.solver.encode.aig.nodes,
                sepe_aig_strash_hits: sepe.solver.encode.aig.strash_hits,
                sepe_aig_consts_folded: sepe.solver.encode.aig.consts_folded,
                sepe_aig_rewrites: sepe.solver.encode.aig.rewrites,
                sepe_cnf_vars: sepe.solver.encode.aig.cnf_vars,
                sepe_cnf_clauses: sepe.solver.encode.aig.cnf_clauses,
                sepe_learnt_retained: sepe.solver.learnt_retained,
                sepe_learnt_high_water: sepe.solver.learnt_high_water,
                sepe_learnt_deleted: sepe.solver.learnt_deleted,
                sepe_depth_conflicts: sepe.depths.iter().map(|d| d.conflicts).collect(),
            }
        })
        .collect();
    (rows, outcome.stats)
}

/// One row of the batched-catalogue arm: the same verdict columns as
/// [`Table1Row`], produced by one shared unrolling instead of one detector
/// per bug (runtimes are per-entry shares of the shared solver's queries,
/// so they are not comparable to the per-job wall times row for row).
#[derive(Debug, Clone, Serialize)]
pub struct BatchedRow {
    /// Bug identifier.
    pub bug: String,
    /// The targeted instruction.
    pub opcode: String,
    /// SEPE-SQED detection time in seconds (`None` means not detected).
    pub sepe_secs: Option<f64>,
    /// SEPE-SQED counterexample length.
    pub sepe_trace_len: Option<usize>,
    /// Bound at which the entry resolved.
    pub bound_reached: usize,
}

/// The shared configuration of the batched-catalogue run: one opcode
/// universe covering every profiled bug (plus ADDI for operand setup), so
/// all catalogue entries ride the same unrolling.
pub fn batched_config(profile: Profile) -> DetectorConfig {
    let (xlen, max_bound) = match profile {
        Profile::Quick => (4, 10),
        Profile::Full => (8, 12),
    };
    let mut ops: Vec<Opcode> = bugs(profile)
        .iter()
        .filter_map(Mutation::target_opcode)
        .collect();
    ops.push(Opcode::Addi);
    ops.sort();
    ops.dedup();
    DetectorConfig::builder()
        .processor(
            ProcessorConfig {
                xlen,
                mem_words: 4,
                ..ProcessorConfig::default()
            }
            .with_opcodes(&ops),
        )
        .bound(max_bound)
        .conflict_limit(2_000_000)
        .time_limit(match profile {
            Profile::Quick => Duration::from_secs(120),
            Profile::Full => Duration::from_secs(1200),
        })
        .build()
}

/// Runs the SEPE-SQED arm of Table 1 as one batched catalogue: every bug is
/// an activation-guarded entry of a single transition system, encoded once
/// and answered by one-hot `check_assuming` flips on the persistent solver
/// (`stats.encodes` stays at 1 where the per-job engine pays one encoding
/// per bug).
pub fn run_batched(profile: Profile) -> (Vec<BatchedRow>, BatchedStats) {
    let bugs = bugs(profile);
    let entries: Vec<CatalogueEntry> = bugs
        .iter()
        .map(|bug| CatalogueEntry::new(bug.name.clone(), bug.clone()))
        .collect();
    let outcome = Engine::new(1)
        .run(BatchSpec::catalogue(
            Method::SepeSqed,
            batched_config(profile),
            entries,
        ))
        .expect_catalogue();
    let rows = bugs
        .iter()
        .zip(&outcome.detections)
        .map(|(bug, d)| BatchedRow {
            bug: bug.name.clone(),
            opcode: bug
                .target_opcode()
                .map(|o| o.mnemonic().to_uppercase())
                .unwrap_or_default(),
            sepe_secs: d.detected.then_some(d.runtime.as_secs_f64()),
            sepe_trace_len: d.trace_len,
            bound_reached: d.bound_reached,
        })
        .collect();
    (rows, outcome.stats)
}

/// Prints the batched-catalogue arm.
pub fn print_batched(rows: &[BatchedRow], stats: &BatchedStats) {
    println!(
        "{:<8} {:<32} {:>12} {:>8} {:>7}",
        "Type", "Bug", "SEPE-SQED", "len", "bound"
    );
    for row in rows {
        println!(
            "{:<8} {:<32} {:>12} {:>8} {:>7}",
            row.opcode,
            row.bug,
            row.sepe_secs
                .map(|s| format!("{s:.2}s"))
                .unwrap_or_else(|| "-".into()),
            row.sepe_trace_len
                .map(|l| l.to_string())
                .unwrap_or_else(|| "-".into()),
            row.bound_reached,
        );
    }
    let detected = rows.iter().filter(|r| r.sepe_secs.is_some()).count();
    println!(
        "\nSEPE-SQED detected {detected}/{} bugs over one shared unrolling.",
        rows.len()
    );
    println!("batched: {stats}");
    println!(
        "encode economics: {} encoding(s) answered {} entries ({} shared CNF clauses); \
         the per-job engine pays {} encodings for the same catalogue.",
        stats.encodes, stats.entries, stats.solver.cnf_clauses, stats.entries,
    );
}

/// Prints the table in the paper's layout.
pub fn print(rows: &[Table1Row]) {
    println!(
        "{:<8} {:<48} {:>12} {:>8}",
        "Type", "Function", "SEPE-SQED", "SQED"
    );
    for row in rows {
        println!(
            "{:<8} {:<48} {:>12} {:>8}",
            row.opcode,
            row.function,
            row.sepe_cell(),
            row.sqed_cell()
        );
    }
    let detected = rows.iter().filter(|r| r.sepe_secs.is_some()).count();
    let sqed_missed = rows.iter().filter(|r| !r.sqed_detected).count();
    println!(
        "\nSEPE-SQED detected {detected}/{} injected single-instruction bugs; SQED detected {}/{} (paper: 13/13 vs 0/13).",
        rows.len(),
        rows.len() - sqed_missed,
        rows.len()
    );
    let summary = SolverSummary::new(
        "SEPE-SQED incremental per-depth sweeps",
        "depths",
        rows.iter().map(Table1Row::solver_row).collect(),
        24,
    );
    println!("{summary}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_profile_targets_five_bugs() {
        assert_eq!(bugs(Profile::Quick).len(), 5);
        assert_eq!(bugs(Profile::Full).len(), 13);
    }

    #[test]
    fn row_cells_format_like_the_paper() {
        let row = Table1Row {
            bug: "single-add".into(),
            opcode: "ADD".into(),
            function: "Addition of two register types".into(),
            sepe_secs: Some(3410.93),
            sepe_trace_len: Some(4),
            sqed_detected: false,
            sqed_bound: 8,
            sepe_terms_cached: 0,
            sepe_terms_reused: 0,
            sepe_terms_rewritten: 0,
            sepe_rewrite_rules: 0,
            sepe_rewrite_pins: 0,
            sepe_assertions_dropped: 0,
            sepe_coi_dropped: 0,
            sepe_aig_nodes: 0,
            sepe_aig_strash_hits: 0,
            sepe_aig_consts_folded: 0,
            sepe_aig_rewrites: 0,
            sepe_cnf_vars: 0,
            sepe_cnf_clauses: 0,
            sepe_learnt_retained: 0,
            sepe_learnt_high_water: 0,
            sepe_learnt_deleted: 0,
            sepe_depth_conflicts: Vec::new(),
        };
        assert_eq!(row.sepe_cell(), "3410.93s");
        assert_eq!(row.sqed_cell(), "-");
    }
}
