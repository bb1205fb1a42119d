//! Figure 3: time overhead of instruction synthesis, HPF-CEGIS vs iterative
//! CEGIS (classical CEGIS as an additional baseline with a hard budget).

use std::time::Duration;

use serde::Serialize;

use sepe_synth::classical::ClassicalCegis;
use sepe_synth::hpf::HpfCegis;
use sepe_synth::iterative::IterativeCegis;
use sepe_synth::library::Library;
use sepe_synth::spec::SynthesisCase;
use sepe_synth::SynthesisConfig;

use crate::report::{Counters, SolverRow, SolverSummary};
use crate::Profile;

/// One bar pair of Figure 3.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Row {
    /// Case identifier (`case1`..`case26`).
    pub case: String,
    /// The original instruction being synthesized.
    pub spec: String,
    /// HPF-CEGIS runtime in seconds.
    pub hpf_secs: f64,
    /// Iterative CEGIS runtime in seconds.
    pub iterative_secs: f64,
    /// Multisets attempted by HPF-CEGIS.
    pub hpf_multisets: usize,
    /// Multisets attempted by iterative CEGIS.
    pub iterative_multisets: usize,
    /// Programs found by HPF-CEGIS.
    pub hpf_programs: usize,
    /// Programs found by iterative CEGIS.
    pub iterative_programs: usize,
    /// Solver counters of the HPF run's synthesis/verification solvers.
    pub hpf_solver: Counters,
}

impl Fig3Row {
    /// Runtime reduction of HPF relative to iterative CEGIS (1.0 = 100 %).
    pub fn reduction(&self) -> f64 {
        if self.iterative_secs <= f64::EPSILON {
            0.0
        } else {
            1.0 - self.hpf_secs / self.iterative_secs
        }
    }
}

/// The synthesis configuration used for the Figure-3 sweep.
pub fn synthesis_config(profile: Profile) -> SynthesisConfig {
    match profile {
        Profile::Quick => SynthesisConfig {
            width: 8,
            multiset_size: 3,
            programs_wanted: 3,
            min_components: 3,
            max_cegis_iterations: 8,
            synth_conflict_limit: Some(50_000),
            verify_conflict_limit: Some(50_000),
            time_limit: Some(Duration::from_secs(20)),
        },
        Profile::Full => SynthesisConfig {
            width: 16,
            multiset_size: 3,
            programs_wanted: 20,
            min_components: 3,
            max_cegis_iterations: 16,
            synth_conflict_limit: Some(200_000),
            verify_conflict_limit: Some(200_000),
            time_limit: Some(Duration::from_secs(240)),
        },
    }
}

/// The synthesis cases exercised by a profile.
pub fn cases(profile: Profile) -> Vec<SynthesisCase> {
    let config = synthesis_config(profile);
    let all = SynthesisCase::all(config.width);
    match profile {
        Profile::Quick => all.into_iter().take(6).collect(),
        Profile::Full => all,
    }
}

/// Runs the Figure-3 comparison.
pub fn run(profile: Profile) -> Vec<Fig3Row> {
    let config = synthesis_config(profile);
    let library = Library::standard();
    cases(profile)
        .into_iter()
        .map(|case| {
            let mut hpf = HpfCegis::new(config.clone(), library.clone());
            let hpf_result = hpf.synthesize(&case.spec);
            let iterative = IterativeCegis::new(config.clone(), library.clone());
            let iterative_result = iterative.synthesize(&case.spec);
            Fig3Row {
                case: case.id,
                spec: case.spec.name.clone(),
                hpf_secs: hpf_result.duration.as_secs_f64(),
                iterative_secs: iterative_result.duration.as_secs_f64(),
                hpf_multisets: hpf_result.multisets_tried,
                iterative_multisets: iterative_result.multisets_tried,
                hpf_programs: hpf_result.programs.len(),
                iterative_programs: iterative_result.programs.len(),
                hpf_solver: Counters(hpf_result.solver),
            }
        })
        .collect()
}

/// Runs the classical-CEGIS baseline on the first case, with a small budget,
/// reproducing the paper's observation that it does not finish.
pub fn classical_baseline(profile: Profile) -> (String, bool, f64) {
    let mut config = synthesis_config(profile);
    config.synth_conflict_limit = Some(100_000);
    config.verify_conflict_limit = Some(100_000);
    config.max_cegis_iterations = 4;
    let case = &cases(profile)[1]; // SUB
    let classical = ClassicalCegis::new(config, Library::standard());
    let result = classical.synthesize(&case.spec);
    (
        case.spec.name.clone(),
        result.succeeded(),
        result.duration.as_secs_f64(),
    )
}

/// Prints the figure as a table plus the headline aggregate (the paper
/// reports an average ≈50 % reduction, up to ≈90 %).
pub fn print(rows: &[Fig3Row]) {
    println!(
        "{:<8} {:<10} {:>10} {:>12} {:>10} {:>12} {:>10}",
        "case", "spec", "hpf [s]", "iterative [s]", "reduction", "hpf sets", "iter sets"
    );
    for row in rows {
        println!(
            "{:<8} {:<10} {:>10.2} {:>12.2} {:>9.0}% {:>12} {:>10}",
            row.case,
            row.spec,
            row.hpf_secs,
            row.iterative_secs,
            row.reduction() * 100.0,
            row.hpf_multisets,
            row.iterative_multisets
        );
    }
    let avg: f64 = rows.iter().map(Fig3Row::reduction).sum::<f64>() / rows.len().max(1) as f64;
    let max = rows.iter().map(Fig3Row::reduction).fold(f64::MIN, f64::max);
    println!(
        "\naverage synthesis-time reduction: {:.0}%   best case: {:.0}%   (paper: ~50% average, up to ~90%)",
        avg * 100.0,
        max * 100.0
    );
    let summary = SolverSummary::new(
        "HPF incremental CEGIS",
        "refinement rounds",
        rows.iter()
            .map(|r| SolverRow {
                label: r.case.clone(),
                solver: r.hpf_solver.0,
                ..SolverRow::default()
            })
            .collect(),
        8,
    );
    println!("{summary}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_profile_has_six_cases() {
        assert_eq!(cases(Profile::Quick).len(), 6);
        assert_eq!(cases(Profile::Full).len(), 26);
    }

    #[test]
    fn reduction_is_computed_sensibly() {
        let row = Fig3Row {
            case: "case1".into(),
            spec: "ADD".into(),
            hpf_secs: 1.0,
            iterative_secs: 2.0,
            hpf_multisets: 3,
            iterative_multisets: 9,
            hpf_programs: 1,
            iterative_programs: 1,
            hpf_solver: Counters::default(),
        };
        assert!((row.reduction() - 0.5).abs() < 1e-9);
    }
}
