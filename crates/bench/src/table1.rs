//! Table 1: injected single-instruction bugs — SEPE-SQED detection time per
//! bug, SQED reporting "-" for every one of them.

use std::time::Duration;

use serde::Serialize;

use sepe_isa::Opcode;
use sepe_processor::{Mutation, ProcessorConfig};
use sepe_sqed::detect::{Detector, DetectorConfig, Method};
use sepe_sqed::parallel::{BatchStats, DetectionJob, Engine};

use crate::report::{Counters, SolverRow, SolverSummary};
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
    /// Solver counters of the SEPE-SQED sweep.
    pub sepe_solver: Counters,
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
/// SEPE-SQED); `jobs = 1` runs them inline, one after another.
pub fn run_with_jobs(profile: Profile, jobs: usize) -> (Vec<Table1Row>, BatchStats) {
    let bugs = bugs(profile);
    let batch: Vec<DetectionJob> = bugs.iter().flat_map(|bug| jobs_for(bug, profile)).collect();
    let outcome = Engine::new(jobs).run(batch);
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
                sepe_solver: Counters(sepe.solver),
                sepe_depth_conflicts: sepe.depths.iter().map(|d| d.conflicts).collect(),
            }
        })
        .collect();
    (rows, outcome.stats)
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
        rows.iter()
            .map(|r| SolverRow {
                label: r.bug.clone(),
                solver: r.sepe_solver.0,
                depth_conflicts: r.sepe_depth_conflicts.clone(),
            })
            .collect(),
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
            sepe_solver: Counters::default(),
            sepe_depth_conflicts: Vec::new(),
        };
        assert_eq!(row.sepe_cell(), "3410.93s");
        assert_eq!(row.sqed_cell(), "-");
    }
}
