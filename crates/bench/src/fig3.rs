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

use sepe_smt::EncodeStats;

use crate::report::{SolverRow, SolverSummary};
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
    /// Term encodings reused by HPF-CEGIS's persistent synthesis solvers.
    pub hpf_terms_reused: u64,
    /// Terms changed by the word-level rewriter across the HPF run's
    /// synthesis/verification solvers.
    pub hpf_terms_rewritten: u64,
    /// Catalogue-rule applications by the rewriter.
    pub hpf_rewrite_rules: u64,
    /// Asserted equalities the rewriter turned into variable pins.
    pub hpf_rewrite_pins: u64,
    /// Asserted conjuncts the rewriter eliminated before encoding.
    pub hpf_assertions_dropped: u64,
    /// Distinct term encodings cached by the HPF run's solvers.
    pub hpf_terms_cached: u64,
    /// AIG nodes created below the word level (strash misses).
    pub hpf_aig_nodes: u64,
    /// AIG requests answered by the structural-hashing table.
    pub hpf_aig_strash_hits: u64,
    /// AIG requests folded by constant propagation / one-level rules.
    pub hpf_aig_consts_folded: u64,
    /// Two-level local rewrites at AIG node creation.
    pub hpf_aig_rewrites: u64,
    /// CNF variables emitted by the polarity-aware Tseitin pass.
    pub hpf_cnf_vars: u64,
    /// CNF clauses emitted by the polarity-aware Tseitin pass.
    pub hpf_cnf_clauses: u64,
    /// Learnt clauses retained across HPF-CEGIS refinement rounds.
    pub hpf_learnt_retained: u64,
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

    /// This row's contribution to the shared solver summary.
    fn solver_row(&self) -> SolverRow {
        let encode = EncodeStats {
            terms_cached: self.hpf_terms_cached,
            terms_reused: self.hpf_terms_reused,
            rewrite: sepe_smt::RewriteStats {
                terms_rewritten: self.hpf_terms_rewritten,
                rule_applications: self.hpf_rewrite_rules,
                pins: self.hpf_rewrite_pins,
                assertions_dropped: self.hpf_assertions_dropped,
                ..Default::default()
            },
            aig: sepe_smt::AigStats {
                nodes: self.hpf_aig_nodes,
                strash_hits: self.hpf_aig_strash_hits,
                consts_folded: self.hpf_aig_consts_folded,
                rewrites: self.hpf_aig_rewrites,
                cnf_vars: self.hpf_cnf_vars,
                cnf_clauses: self.hpf_cnf_clauses,
            },
        };
        SolverRow {
            label: self.case.clone(),
            encode,
            learnt_retained: self.hpf_learnt_retained,
            ..SolverRow::default()
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
                hpf_terms_reused: hpf_result.solver.encode.terms_reused,
                hpf_terms_rewritten: hpf_result.solver.encode.rewrite.terms_rewritten,
                hpf_rewrite_rules: hpf_result.solver.encode.rewrite.rule_applications,
                hpf_rewrite_pins: hpf_result.solver.encode.rewrite.pins,
                hpf_assertions_dropped: hpf_result.solver.encode.rewrite.assertions_dropped,
                hpf_terms_cached: hpf_result.solver.encode.terms_cached,
                hpf_aig_nodes: hpf_result.solver.encode.aig.nodes,
                hpf_aig_strash_hits: hpf_result.solver.encode.aig.strash_hits,
                hpf_aig_consts_folded: hpf_result.solver.encode.aig.consts_folded,
                hpf_aig_rewrites: hpf_result.solver.encode.aig.rewrites,
                hpf_cnf_vars: hpf_result.solver.encode.aig.cnf_vars,
                hpf_cnf_clauses: hpf_result.solver.encode.aig.cnf_clauses,
                hpf_learnt_retained: hpf_result.solver.learnt_retained,
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
        rows.iter().map(Fig3Row::solver_row).collect(),
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
            hpf_terms_reused: 0,
            hpf_terms_rewritten: 0,
            hpf_rewrite_rules: 0,
            hpf_rewrite_pins: 0,
            hpf_assertions_dropped: 0,
            hpf_terms_cached: 0,
            hpf_aig_nodes: 0,
            hpf_aig_strash_hits: 0,
            hpf_aig_consts_folded: 0,
            hpf_aig_rewrites: 0,
            hpf_cnf_vars: 0,
            hpf_cnf_clauses: 0,
            hpf_learnt_retained: 0,
        };
        assert!((row.reduction() - 0.5).abs() < 1e-9);
    }
}
