//! HPF-CEGIS: CEGIS based on the highest-priority-first algorithm
//! (Algorithm 1 of the paper).
//!
//! Every component carries a *choice weight* `c_j` and an *exclusion weight*
//! `e_j`.  Multisets are ranked by
//!
//! ```text
//! priority = Σ_j (c_j − α·χ_j) / Σ_j e_j
//! ```
//!
//! where `χ_j` is 1 when component `j` has the same name as the original
//! instruction (to minimise data-path overlap between the original
//! instruction and its equivalent program).  After each CEGIS call the
//! weights of the attempted multiset's components are updated: choice weights
//! grow on success, exclusion weights grow on failure, steering the search
//! towards components that synthesize well for the current specification.

use std::cmp::Ordering;
use std::time::Instant;

use crate::cegis::{CegisEngine, CegisOutcome, SynthesisConfig};
use crate::component::Component;
use crate::library::Library;
use crate::spec::Spec;
use crate::SynthesisResult;

/// Per-component priority weights `[c_j, e_j]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Weights {
    /// Choice weight (higher ⇒ higher priority).
    pub choice: u64,
    /// Exclusion weight (higher ⇒ lower priority).
    pub exclusion: u64,
}

/// The HPF-CEGIS driver.
#[derive(Debug, Clone)]
pub struct HpfCegis {
    config: SynthesisConfig,
    library: Library,
    /// Weights by component position in the library.
    weights: Vec<Weights>,
}

impl HpfCegis {
    /// Creates a driver with all weights initialised to the configured value.
    pub fn new(config: SynthesisConfig, library: Library) -> Self {
        let initial = Weights {
            choice: config.initial_weight,
            exclusion: config.initial_weight,
        };
        let weights = vec![initial; library.len()];
        HpfCegis {
            config,
            library,
            weights,
        }
    }

    /// The current weight of a component (for reports and tests).
    pub fn weight(&self, name: &str) -> Option<Weights> {
        let idx = self
            .library
            .components()
            .iter()
            .position(|c| c.name == name)?;
        Some(self.weights[idx])
    }

    /// The priority of a multiset of component indices for a given spec.
    pub fn priority(&self, multiset: &[usize], spec: &Spec) -> f64 {
        let components = self.library.components();
        priority_of(multiset, &self.weights, self.config.alpha as f64, |idx| {
            chi(&components[idx], spec)
        })
    }

    fn bump_choice(&mut self, multiset: &[usize]) {
        for &idx in multiset {
            self.weights[idx].choice += self.config.weight_increment;
        }
    }

    fn bump_exclusion(&mut self, multiset: &[usize]) {
        for &idx in multiset {
            self.weights[idx].exclusion += self.config.weight_increment;
        }
    }

    /// Runs Algorithm 1 for one original instruction.
    pub fn synthesize(&mut self, spec: &Spec) -> SynthesisResult {
        let start = Instant::now();
        let engine = CegisEngine::new(self.config.clone());
        let mut ranking = Ranking::new(&self.library, self.config.multiset_size, spec);
        let mut programs = Vec::new();
        let mut tried = 0;
        let mut successful = 0;

        while programs.len() < self.config.programs_wanted {
            if let Some(limit) = self.config.time_limit {
                if start.elapsed() > limit {
                    break;
                }
            }
            let Some(multiset) = ranking.pop_best(&self.weights, self.config.alpha as f64) else {
                break;
            };
            let components: Vec<&Component> = multiset
                .iter()
                .map(|&i| &self.library.components()[i])
                .collect();
            tried += 1;
            match engine.synthesize_with_multiset(spec, &components) {
                CegisOutcome::Program(program) => {
                    successful += 1;
                    self.bump_choice(&multiset);
                    if self.config.counts_towards_k(&program) {
                        programs.push(program);
                    }
                }
                CegisOutcome::NoProgram | CegisOutcome::ResourceOut => {
                    self.bump_exclusion(&multiset);
                }
            }
        }

        SynthesisResult {
            spec_name: spec.name.clone(),
            programs,
            multisets_tried: tried,
            multisets_successful: successful,
            duration: start.elapsed(),
            solver: engine.solver_stats(),
        }
    }
}

/// The priority formula `Σ_j (c_j − α·χ_j) / max(Σ_j e_j, 1)`, summed in
/// multiset order.  [`HpfCegis::priority`] and [`Ranking`] both go through
/// it, so a ranking key is bit for bit the priority of its multiset.
fn priority_of(
    multiset: &[usize],
    weights: &[Weights],
    alpha: f64,
    chi: impl Fn(usize) -> f64,
) -> f64 {
    let mut numerator: f64 = 0.0;
    let mut denominator: f64 = 0.0;
    for &idx in multiset {
        let w = weights[idx];
        numerator += w.choice as f64 - alpha * chi(idx);
        denominator += w.exclusion as f64;
    }
    numerator / denominator.max(1.0)
}

/// χ_j as the number the priority formula uses.
fn chi(component: &Component, spec: &Spec) -> f64 {
    if component_matches_spec(component, spec) {
        1.0
    } else {
        0.0
    }
}

/// The multisets not yet tried for one spec, each with its priority key.
///
/// Every round rewrites each key in place from the current weights and
/// stable-sorts on the keys, best first.  A stable sort's result depends
/// only on its comparison outcomes, and a key equals what
/// [`HpfCegis::priority`] returns for its multiset, so the order (ties
/// included, which carry the history of earlier rounds' sorts) is exactly
/// that of sorting with `priority` recomputed on every comparison.
#[derive(Debug)]
struct Ranking {
    entries: Vec<(f64, Vec<usize>)>,
    /// χ_j of every library component for the spec.
    chi: Vec<f64>,
}

impl Ranking {
    fn new(library: &Library, multiset_size: usize, spec: &Spec) -> Self {
        Ranking {
            entries: library
                .multisets(multiset_size)
                .into_iter()
                .map(|multiset| (0.0, multiset))
                .collect(),
            chi: library.components().iter().map(|c| chi(c, spec)).collect(),
        }
    }

    /// Removes and returns the highest-priority multiset under `weights`.
    fn pop_best(&mut self, weights: &[Weights], alpha: f64) -> Option<Vec<usize>> {
        if self.entries.is_empty() {
            return None;
        }
        let chi = &self.chi;
        for (key, multiset) in &mut self.entries {
            *key = priority_of(multiset, weights, alpha, |idx| chi[idx]);
        }
        self.entries
            .sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(Ordering::Equal));
        Some(self.entries.remove(0).1)
    }
}

/// χ_j: does the component share its base operation with the original
/// instruction?
pub fn component_matches_spec(component: &Component, spec: &Spec) -> bool {
    component.base_opcode() == Some(spec.opcode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cegis::assert_equivalent;
    use sepe_isa::Opcode;
    use std::time::Duration;

    fn fast_config() -> SynthesisConfig {
        SynthesisConfig {
            width: 8,
            multiset_size: 3,
            programs_wanted: 2,
            min_components: 3,
            max_cegis_iterations: 8,
            synth_conflict_limit: Some(20_000),
            verify_conflict_limit: Some(20_000),
            time_limit: Some(Duration::from_secs(60)),
            ..SynthesisConfig::default()
        }
    }

    #[test]
    fn priority_penalises_same_name_components() {
        let config = fast_config();
        let lib = Library::standard();
        let hpf = HpfCegis::new(config, lib.clone());
        let spec = Spec::for_opcode(Opcode::Add, 8);
        let add_idx = lib
            .components()
            .iter()
            .position(|c| c.name == "ADD")
            .unwrap();
        let sub_idx = lib
            .components()
            .iter()
            .position(|c| c.name == "SUB")
            .unwrap();
        let with_add = vec![add_idx, sub_idx, sub_idx];
        let without_add = vec![sub_idx, sub_idx, sub_idx];
        assert!(
            hpf.priority(&without_add, &spec) > hpf.priority(&with_add, &spec),
            "the paper prefers SUB-only multisets for the ADD specification"
        );
    }

    #[test]
    fn weights_update_after_synthesis() {
        let config = fast_config();
        let lib = Library::minimal();
        let mut hpf = HpfCegis::new(config.clone(), lib);
        let spec = Spec::for_opcode(Opcode::Sub, 8);
        let before = hpf.weight("XORI").unwrap();
        let result = hpf.synthesize(&spec);
        assert!(result.multisets_tried > 0);
        let after = hpf.weight("XORI").unwrap();
        assert!(
            after.choice > before.choice || after.exclusion > before.exclusion,
            "weights must move after trying multisets containing XORI"
        );
    }

    #[test]
    fn finds_equivalent_programs_for_sub() {
        let mut config = fast_config();
        config.programs_wanted = 1;
        let mut hpf = HpfCegis::new(config, Library::minimal());
        let spec = Spec::for_opcode(Opcode::Sub, 8);
        let result = hpf.synthesize(&spec);
        assert!(
            result.succeeded(),
            "SUB has equivalent programs in the minimal library"
        );
        let program = result.best().unwrap();
        assert_eq!(program.for_opcode, Opcode::Sub);
        assert!(program.len() >= 3);
        // The program is verified at the synthesis width (8 bits here);
        // prove the equivalence once more through an independent query.
        assert_equivalent(program, &spec);
    }

    /// The ranking before keys were cached: a stable sort that recomputes
    /// `priority` on every comparison, then the head.
    fn reference_pop(hpf: &HpfCegis, multisets: &mut Vec<Vec<usize>>, spec: &Spec) -> Vec<usize> {
        multisets.sort_by(|a, b| {
            hpf.priority(b, spec)
                .partial_cmp(&hpf.priority(a, spec))
                .unwrap_or(Ordering::Equal)
        });
        multisets.remove(0)
    }

    #[test]
    fn cached_key_ranking_matches_the_recomputing_sort() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let library = Library::standard();
        // ADD: χ = 1 for the ADD and ADDI components.
        let spec = Spec::for_opcode(Opcode::Add, 4);
        for (seed, (alpha, increment)) in [0, 1, 4]
            .into_iter()
            .flat_map(|a| [1, 4].map(|i| (a, i)))
            .enumerate()
        {
            let config = SynthesisConfig {
                alpha,
                weight_increment: increment,
                ..SynthesisConfig::default()
            };
            let mut hpf = HpfCegis::new(config, library.clone());
            let mut reference = library.multisets(3);
            assert_eq!(reference.len(), 4_495);
            let mut ranking = Ranking::new(&library, 3, &spec);
            let mut rng = StdRng::seed_from_u64(seed as u64);
            for round in 0..60 {
                let want = reference_pop(&hpf, &mut reference, &spec);
                let got = ranking.pop_best(&hpf.weights, alpha as f64).unwrap();
                assert_eq!(got, want, "α={alpha} +{increment} round {round}: pick");
                assert!(
                    ranking.entries.iter().map(|e| &e.1).eq(reference.iter()),
                    "α={alpha} +{increment} round {round}: remaining order"
                );
                if rng.gen_bool(0.3) {
                    hpf.bump_choice(&got);
                } else {
                    hpf.bump_exclusion(&got);
                }
            }
        }
    }

    /// The perfbench synthesis settings (width 4, k = 3, multisets of 3).
    fn width4_config() -> SynthesisConfig {
        SynthesisConfig {
            width: 4,
            multiset_size: 3,
            programs_wanted: 3,
            min_components: 3,
            max_cegis_iterations: 8,
            synth_conflict_limit: Some(50_000),
            verify_conflict_limit: Some(50_000),
            time_limit: None,
            ..SynthesisConfig::default()
        }
    }

    /// Pins the whole HPF search on two width-4 specs: a cheap immediate
    /// spec and one that tries more than twenty multisets.  The ranking
    /// decides which multisets are tried and in what order, so any change
    /// to it (including to the order of ties) moves these numbers.
    #[test]
    fn hpf_search_fingerprint_is_pinned() {
        let library = Library::standard();
        let cases = crate::SynthesisCase::all(4);
        struct Fingerprint {
            spec: &'static str,
            tried: usize,
            successful: usize,
            checks: u64,
            conflicts: u64,
            programs: [[&'static str; 3]; 3],
        }
        let expected = [
            Fingerprint {
                spec: "SLTI",
                tried: 6,
                successful: 3,
                checks: 25,
                conflicts: 340,
                programs: [
                    ["SLT", "SLT", "SLT"],
                    ["SLTU", "SLT", "SLT"],
                    ["SLT", "XOR", "SLT"],
                ],
            },
            Fingerprint {
                spec: "SIGN",
                tried: 23,
                successful: 3,
                checks: 34,
                conflicts: 568,
                programs: [
                    ["MULH_CONST", "MULH_CONST", "MULH_CONST"],
                    ["MULH_CONST", "MULHU_CONST", "MULH_CONST"],
                    ["MULH_CONST", "MULHSU_CONST", "MULH_CONST"],
                ],
            },
        ];
        for Fingerprint {
            spec: name,
            tried,
            successful,
            checks,
            conflicts,
            programs,
        } in expected
        {
            let spec = &cases.iter().find(|c| c.spec.name == name).unwrap().spec;
            let result = HpfCegis::new(width4_config(), library.clone()).synthesize(spec);
            let names: Vec<Vec<&str>> = result
                .programs
                .iter()
                .map(|p| p.component_names.iter().map(String::as_str).collect())
                .collect();
            assert_eq!(result.multisets_tried, tried, "{name}: multisets tried");
            assert_eq!(
                result.multisets_successful, successful,
                "{name}: multisets successful"
            );
            assert_eq!(names, programs, "{name}: programs");
            assert_eq!(result.solver.checks, checks, "{name}: solver checks");
            assert_eq!(result.solver.conflicts, conflicts, "{name}: conflicts");
        }
    }

    /// Runs HPF on one width-4 spec of the Fig-3 list with the perfbench
    /// settings.
    fn hpf_width4(name: &str) -> (Spec, crate::SynthesisResult) {
        let spec = crate::SynthesisCase::all(4)
            .into_iter()
            .find(|c| c.spec.name == name)
            .unwrap_or_else(|| panic!("{name} is in the Fig-3 list"))
            .spec;
        let result = HpfCegis::new(width4_config(), Library::standard()).synthesize(&spec);
        (spec, result)
    }

    /// Pins which multisets HPF tries on the sixteen immediate specs of the
    /// perfbench synthesis workload, with k verified programs each.  The
    /// CEGIS encoding decides only *whether* a multiset has a program, so a
    /// change to the encoding that keeps its answers keeps these numbers.
    #[test]
    fn immediate_specs_try_the_pinned_multisets() {
        let expected: [(&str, usize, usize); 16] = [
            ("ADDI", 3, 3),
            ("SLTI", 6, 3),
            ("SLTIU", 7, 3),
            ("XORI", 8, 3),
            ("ORI", 11, 3),
            ("ANDI", 12, 3),
            ("SLLI", 5, 3),
            ("SRLI", 9, 3),
            ("SRAI", 10, 3),
            ("LUI", 4, 3),
            ("NOT", 91, 3),
            ("INC", 133, 3),
            ("DEC", 80, 3),
            ("DOUBLE", 3, 3),
            ("MASK_BYTE", 4, 3),
            ("SIGN", 23, 3),
        ];
        for (name, tried, successful) in expected {
            let (spec, result) = hpf_width4(name);
            assert_eq!(result.multisets_tried, tried, "{name}: multisets tried");
            assert_eq!(
                result.multisets_successful, successful,
                "{name}: multisets successful"
            );
            assert_eq!(result.programs.len(), 3, "{name}: programs");
            for program in &result.programs {
                assert_equivalent(program, &spec);
            }
        }
    }

    /// The ranking-heavy register spec of the perfbench synthesis workload:
    /// SLL tries 820 multisets before its third success.  Too slow for an
    /// unoptimised build; run it with `cargo test --release -p sepe-synth
    /// -- --ignored`.
    #[test]
    #[ignore = "release-speed: run with --release -- --ignored"]
    fn sll_tries_the_pinned_multisets() {
        let (spec, result) = hpf_width4("SLL");
        assert_eq!(result.multisets_tried, 820, "SLL: multisets tried");
        assert_eq!(result.multisets_successful, 3, "SLL: multisets successful");
        let multisets: Vec<Vec<&str>> = result
            .programs
            .iter()
            .map(|p| {
                let mut names: Vec<&str> = p.component_names.iter().map(String::as_str).collect();
                names.sort_unstable();
                names
            })
            .collect();
        assert_eq!(
            multisets,
            [
                ["NEG", "NEG", "SLL"],
                ["NEG", "SHL_ADD", "SLL"],
                ["LOAD_IMM", "SLL", "SLL"],
            ],
            "SLL: multisets of the programs"
        );
        for program in &result.programs {
            assert_equivalent(program, &spec);
        }
    }
}
