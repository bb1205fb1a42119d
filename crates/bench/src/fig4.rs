//! Figure 4: multiple-instruction bugs — detection runtime for SQED and
//! SEPE-SQED plus the runtime and counterexample-length ratio curves.

use std::time::Duration;

use serde::Serialize;

use sepe_isa::Opcode;
use sepe_processor::{Mutation, ProcessorConfig};
use sepe_sqed::detect::{Detector, DetectorConfig, Method};
use sepe_sqed::parallel::{BatchStats, DetectionJob, Engine};

use crate::report::{Counters, SolverRow, SolverSummary};
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
    /// Solver counters of the SEPE-SQED sweep.
    pub sepe_solver: Counters,
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
/// given worker count; `jobs = 1` runs the jobs inline, one after another.
pub fn run_with_jobs(profile: Profile, jobs: usize) -> (Vec<Fig4Row>, BatchStats) {
    let bugs = bugs(profile);
    let batch: Vec<DetectionJob> = bugs.iter().flat_map(|bug| jobs_for(bug, profile)).collect();
    let outcome = Engine::new(jobs).run(batch);
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
                sepe_solver: Counters(sepe.solver),
                sepe_depth_conflicts: sepe.depths.iter().map(|d| d.conflicts).collect(),
            }
        })
        .collect();
    (rows, outcome.stats)
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
        rows.iter()
            .map(|r| SolverRow {
                label: r.bug.clone(),
                solver: r.sepe_solver.0,
                depth_conflicts: r.sepe_depth_conflicts.clone(),
            })
            .collect(),
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
            sepe_solver: Counters::default(),
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
