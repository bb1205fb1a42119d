//! Iterative CEGIS (Buchwald et al.), the paper's main baseline.
//!
//! Multisets of components are enumerated by combinations-with-replacement of
//! increasing size and attempted one after another.  Following the paper's
//! fairness note, multisets of equal size are shuffled (with a fixed seed for
//! reproducibility) so that similar component types do not cluster.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::cegis::{CegisEngine, CegisOutcome, SynthesisConfig};
use crate::component::Component;
use crate::library::Library;
use crate::spec::Spec;
use crate::SynthesisResult;

/// Seed of the multiset shuffle.
const SEED: u64 = 0x5e9e;

/// The iterative CEGIS driver.
#[derive(Debug, Clone)]
pub struct IterativeCegis {
    config: SynthesisConfig,
    library: Library,
}

impl IterativeCegis {
    /// Creates a driver.
    pub fn new(config: SynthesisConfig, library: Library) -> Self {
        IterativeCegis { config, library }
    }

    /// Synthesizes equivalent programs for one original instruction, trying
    /// multisets of size 1 up to the configured multiset size.
    pub fn synthesize(&self, spec: &Spec) -> SynthesisResult {
        let start = Instant::now();
        let engine = CegisEngine::new(self.config.clone());
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut programs = Vec::new();
        let mut tried = 0;
        let mut successful = 0;

        'sizes: for size in 1..=self.config.multiset_size {
            let mut multisets = self.library.multisets(size);
            multisets.shuffle(&mut rng);
            for multiset in multisets {
                if let Some(limit) = self.config.time_limit {
                    if start.elapsed() > limit {
                        break 'sizes;
                    }
                }
                if programs.len() >= self.config.programs_wanted {
                    break 'sizes;
                }
                let components: Vec<&Component> = multiset
                    .iter()
                    .map(|&i| &self.library.components()[i])
                    .collect();
                tried += 1;
                if let CegisOutcome::Program(program) =
                    engine.synthesize_with_multiset(spec, &components)
                {
                    successful += 1;
                    if self.config.counts_towards_k(&program) {
                        programs.push(program);
                    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use sepe_isa::Opcode;
    use std::time::Duration;

    #[test]
    fn iterative_finds_programs_for_sub() {
        let config = SynthesisConfig {
            width: 8,
            multiset_size: 3,
            programs_wanted: 1,
            min_components: 2,
            max_cegis_iterations: 8,
            synth_conflict_limit: Some(20_000),
            verify_conflict_limit: Some(20_000),
            time_limit: Some(Duration::from_secs(60)),
        };
        let driver = IterativeCegis::new(config, Library::minimal());
        let spec = Spec::for_opcode(Opcode::Sub, 8);
        let result = driver.synthesize(&spec);
        assert!(result.succeeded());
        assert!(result.multisets_tried >= result.multisets_successful);
        // every reported program is verified at the synthesis width; re-prove
        // the first one through an independent validity query
        let p = result.best().unwrap();
        let mut tm = sepe_smt::TermManager::new();
        let inputs = spec.fresh_inputs(&mut tm, "chk");
        let prog_out = crate::cegis::template_result_term(&mut tm, p, &spec, &inputs);
        let spec_out = spec.result(&mut tm, &inputs);
        let eq = tm.eq(prog_out, spec_out);
        assert_eq!(
            sepe_smt::solver::is_valid(&mut tm, eq, None),
            sepe_smt::SatResult::Sat
        );
    }

    #[test]
    fn only_programs_that_count_towards_k_are_reported() {
        let config = SynthesisConfig {
            width: 4,
            multiset_size: 3,
            programs_wanted: 1,
            min_components: 3,
            max_cegis_iterations: 8,
            synth_conflict_limit: Some(20_000),
            verify_conflict_limit: Some(20_000),
            ..SynthesisConfig::default()
        };
        let spec = Spec::for_opcode(Opcode::Sub, 4);
        let result = IterativeCegis::new(config.clone(), Library::minimal()).synthesize(&spec);
        // SUB itself and two-component programs are found first, on the way
        // to the size-3 multisets; none of them counts, so none is reported.
        assert!(result.multisets_successful > 1);
        assert_eq!(result.programs.len(), 1);
        assert_eq!(result.best().unwrap().component_names.len(), 3);

        // Multisets smaller than `min_components`: every program counts, so
        // the driver stops at the first one.
        let small = SynthesisConfig {
            multiset_size: 2,
            ..config
        };
        let result = IterativeCegis::new(small, Library::minimal()).synthesize(&spec);
        assert_eq!(result.programs.len(), 1);
        assert_eq!(result.multisets_successful, 1);
    }

    #[test]
    fn shuffling_is_deterministic_for_a_fixed_seed() {
        let config = SynthesisConfig {
            width: 8,
            multiset_size: 2,
            programs_wanted: 1,
            min_components: 1,
            time_limit: Some(Duration::from_secs(30)),
            ..SynthesisConfig::default()
        };
        let driver = IterativeCegis::new(config.clone(), Library::minimal());
        let spec = Spec::for_opcode(Opcode::Xor, 8);
        let a = driver.synthesize(&spec);
        let b = driver.synthesize(&spec);
        assert_eq!(a.multisets_tried, b.multisets_tried);
        assert_eq!(a.programs.len(), b.programs.len());
    }
}
