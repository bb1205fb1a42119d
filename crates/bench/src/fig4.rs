//! Figure 4: multiple-instruction bugs — detection runtime for SQED and
//! SEPE-SQED plus the runtime and counterexample-length ratio curves.

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

/// One bug of Figure 4 (one x-axis position).
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Row {
    /// Bug number (1–20).
    pub index: usize,
    /// Bug identifier.
    pub bug: String,
    /// SQED detection time in seconds (`None` = not detected within budget).
    pub sqed_secs: Option<f64>,
    /// SEPE-SQED detection time in seconds.
    pub sepe_secs: Option<f64>,
    /// SQED counterexample length.
    pub sqed_len: Option<usize>,
    /// SEPE-SQED counterexample length.
    pub sepe_len: Option<usize>,
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
    /// High-water mark of live learnt clauses during the SEPE sweep.
    pub sepe_learnt_high_water: u64,
    /// Learnt clauses deleted by database reduction during the SEPE sweep.
    pub sepe_learnt_deleted: u64,
    /// Per-depth SAT-conflict deltas of the SEPE-SQED sweep.
    pub sepe_depth_conflicts: Vec<u64>,
}

impl Fig4Row {
    /// Runtime ratio SQED / SEPE-SQED (the blue curve).
    pub fn runtime_ratio(&self) -> Option<f64> {
        match (self.sqed_secs, self.sepe_secs) {
            (Some(a), Some(b)) if b > 0.0 => Some(a / b),
            _ => None,
        }
    }

    /// Counterexample length ratio SQED / SEPE-SQED (the yellow curve).
    pub fn length_ratio(&self) -> Option<f64> {
        match (self.sqed_len, self.sepe_len) {
            (Some(a), Some(b)) if b > 0 => Some(a as f64 / b as f64),
            _ => None,
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

/// The opcode universe for one Figure-4 bug: its trigger opcodes plus ADDI
/// and XORI so the model checker can construct operand values and break the
/// trigger pattern on one side.
pub fn universe(bug: &Mutation) -> Vec<Opcode> {
    let mut ops = vec![Opcode::Addi, Opcode::Xori];
    ops.extend(bug.trigger.opcode);
    ops.extend(bug.trigger.prev_opcode);
    ops.extend(bug.trigger.prev2_opcode);
    ops.sort();
    ops.dedup();
    ops
}

/// The bugs exercised by a profile.
pub fn bugs(profile: Profile) -> Vec<Mutation> {
    let all = Mutation::figure4();
    match profile {
        Profile::Quick => all.into_iter().take(6).collect(),
        Profile::Full => all,
    }
}

/// The detector for one Figure-4 bug.
pub fn detector_for(bug: &Mutation, profile: Profile) -> Detector {
    let (xlen, max_bound) = match profile {
        Profile::Quick => (4, 10),
        Profile::Full => (8, 12),
    };
    Detector::new(DetectorConfig {
        processor: ProcessorConfig {
            xlen,
            mem_words: 4,
            ..ProcessorConfig::default()
        }
        .with_opcodes(&universe(bug)),
        max_bound,
        conflict_limit: Some(2_000_000),
        // The wall-clock budget now interrupts in-flight SAT calls, so the
        // quick profile stays in the minutes even on hard sweeps.
        time_limit: Some(match profile {
            Profile::Quick => Duration::from_secs(60),
            Profile::Full => Duration::from_secs(1800),
        }),
        ..DetectorConfig::default()
    })
}

/// Runs the Figure-4 experiment sequentially (one worker).
pub fn run(profile: Profile) -> Vec<Fig4Row> {
    run_with_jobs(profile, 1).0
}

/// The two detection jobs of one Figure-4 bug.  Both methods explore depth
/// by depth on the persistent incremental solver (the default):
/// counterexamples are genuinely shortest, so the length-ratio curve
/// compares like for like, and the wall-clock budget is enforced between
/// depths.
fn jobs_for(bug: &Mutation, profile: Profile) -> [DetectionJob; 2] {
    let config = detector_for(bug, profile).config().clone();
    [
        DetectionJob::new(
            format!("{}-sqed", bug.name),
            config.clone(),
            Method::Sqed,
            Some(bug.clone()),
        ),
        DetectionJob::new(
            format!("{}-sepe", bug.name),
            config,
            Method::SepeSqed,
            Some(bug.clone()),
        ),
    ]
}

/// Runs the Figure-4 experiment on the parallel detection engine with the
/// given worker count; `jobs = 1` runs inline in the sequential driver's
/// order, so its rows are bit-identical to [`run`]'s.
pub fn run_with_jobs(profile: Profile, jobs: usize) -> (Vec<Fig4Row>, BatchStats) {
    let bugs = bugs(profile);
    let batch: Vec<DetectionJob> = bugs.iter().flat_map(|bug| jobs_for(bug, profile)).collect();
    let outcome = Engine::new(jobs).run(batch).expect_jobs();
    let rows = bugs
        .iter()
        .enumerate()
        .map(|(i, bug)| {
            let sqed = &outcome.detections[2 * i];
            let sepe = &outcome.detections[2 * i + 1];
            Fig4Row {
                index: i + 1,
                bug: bug.name.clone(),
                sqed_secs: sqed.detected.then_some(sqed.runtime.as_secs_f64()),
                sepe_secs: sepe.detected.then_some(sepe.runtime.as_secs_f64()),
                sqed_len: sqed.trace_len,
                sepe_len: sepe.trace_len,
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

/// One entry of the batched Figure-4 arm.
#[derive(Debug, Clone, Serialize)]
pub struct BatchedRow {
    /// Bug number (1–20).
    pub index: usize,
    /// Bug identifier.
    pub bug: String,
    /// SEPE-SQED detection time in seconds (`None` = not detected).
    pub sepe_secs: Option<f64>,
    /// SEPE-SQED counterexample length.
    pub sepe_len: Option<usize>,
    /// Bound at which the entry resolved.
    pub bound_reached: usize,
}

/// The shared configuration of the batched Figure-4 run: the union of every
/// profiled bug's opcode universe, so all entries share one unrolling.
pub fn batched_config(profile: Profile) -> DetectorConfig {
    let (xlen, max_bound) = match profile {
        Profile::Quick => (4, 10),
        Profile::Full => (8, 12),
    };
    let mut ops: Vec<Opcode> = bugs(profile).iter().flat_map(universe).collect();
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
            Profile::Quick => Duration::from_secs(60),
            Profile::Full => Duration::from_secs(1800),
        })
        .build()
}

/// Runs the SEPE-SQED arm of Figure 4 as one batched catalogue over a
/// shared unrolling (one encoding, one-hot activation flips per entry and
/// depth on the persistent solver).
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
        .enumerate()
        .map(|(i, (bug, d))| BatchedRow {
            index: i + 1,
            bug: bug.name.clone(),
            sepe_secs: d.detected.then_some(d.runtime.as_secs_f64()),
            sepe_len: d.trace_len,
            bound_reached: d.bound_reached,
        })
        .collect();
    (rows, outcome.stats)
}

/// Prints the batched arm's data series.
pub fn print_batched(rows: &[BatchedRow], stats: &BatchedStats) {
    println!(
        "{:<4} {:<28} {:>10} {:>9} {:>7}",
        "No.", "bug", "SEPE [s]", "SEPE len", "bound"
    );
    for row in rows {
        println!(
            "{:<4} {:<28} {:>10} {:>9} {:>7}",
            row.index,
            row.bug,
            row.sepe_secs
                .map(|s| format!("{s:.2}"))
                .unwrap_or_else(|| "-".into()),
            row.sepe_len
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

/// Prints the figure's data series.
pub fn print(rows: &[Fig4Row]) {
    println!(
        "{:<4} {:<28} {:>10} {:>10} {:>9} {:>9} {:>11} {:>11}",
        "No.", "bug", "SQED [s]", "SEPE [s]", "SQED len", "SEPE len", "time ratio", "len ratio"
    );
    let fmt_opt = |v: Option<f64>| v.map(|x| format!("{x:.2}")).unwrap_or_else(|| "-".into());
    let fmt_len = |v: Option<usize>| v.map(|x| x.to_string()).unwrap_or_else(|| "-".into());
    for row in rows {
        println!(
            "{:<4} {:<28} {:>10} {:>10} {:>9} {:>9} {:>11} {:>11}",
            row.index,
            row.bug,
            fmt_opt(row.sqed_secs),
            fmt_opt(row.sepe_secs),
            fmt_len(row.sqed_len),
            fmt_len(row.sepe_len),
            fmt_opt(row.runtime_ratio()),
            fmt_opt(row.length_ratio()),
        );
    }
    let both = rows
        .iter()
        .filter(|r| r.sqed_secs.is_some() && r.sepe_secs.is_some())
        .count();
    let shorter = rows
        .iter()
        .filter(|r| r.length_ratio().map(|x| x > 1.0).unwrap_or(false))
        .count();
    println!(
        "\nboth methods detected {both}/{} bugs; SEPE-SQED produced a shorter counterexample for {shorter} of them \
         (paper: both detect all 20, SEPE-SQED is sometimes shorter).",
        rows.len()
    );
    let summary = SolverSummary::new(
        "SEPE-SQED incremental per-depth sweeps",
        "depths",
        rows.iter().map(Fig4Row::solver_row).collect(),
        28,
    );
    println!("{summary}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_missing_data() {
        let row = Fig4Row {
            index: 1,
            bug: "multi-x".into(),
            sqed_secs: Some(2.0),
            sepe_secs: Some(1.0),
            sqed_len: Some(6),
            sepe_len: Some(8),
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
        assert_eq!(row.runtime_ratio(), Some(2.0));
        assert_eq!(row.length_ratio(), Some(0.75));
        let empty = Fig4Row {
            sqed_secs: None,
            ..row
        };
        assert_eq!(empty.runtime_ratio(), None);
    }

    #[test]
    fn universes_include_setup_opcodes() {
        for bug in bugs(Profile::Quick) {
            let u = universe(&bug);
            assert!(u.contains(&Opcode::Addi));
            assert!(u.len() >= 2);
        }
    }
}
