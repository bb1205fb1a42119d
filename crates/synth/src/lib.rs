//! Component-based program synthesis for SEPE-SQED.
//!
//! This crate implements the synthesis half of the paper (Section 4): given
//! the formal semantic model of an *original instruction* (the specification)
//! and a library of *components* (NIC / DIC / CIC classes over RV32IM
//! semantics), find straight-line programs that are semantically equivalent
//! to the original instruction.  Three CEGIS drivers are provided:
//!
//! * [`classical`] — the Gulwani et al. component-based CEGIS over the whole
//!   library at once (kept as the baseline the paper reports as infeasible),
//! * [`iterative`] — the Buchwald et al. iterative CEGIS that enumerates
//!   multisets by combinations-with-replacement,
//! * [`hpf`] — the paper's contribution, CEGIS based on the
//!   highest-priority-first multiset selection (Algorithm 1).
//!
//! The synthesized [`EquivTemplate`]s feed the EDSEP-V transformation in the
//! `sepe-sqed` crate.
//!
//! # Example
//!
//! ```
//! use sepe_isa::Opcode;
//! use sepe_synth::{library::Library, spec::Spec, SynthesisConfig, hpf::HpfCegis};
//!
//! // A deliberately tiny configuration so the example runs in seconds even
//! // unoptimized (the fig3 bench profiles exercise the paper-scale ones).
//! let config = SynthesisConfig {
//!     width: 4,
//!     programs_wanted: 1,
//!     max_cegis_iterations: 6,
//!     ..SynthesisConfig::default()
//! };
//! let library = Library::standard();
//! let spec = Spec::for_opcode(Opcode::Sub, config.width);
//! let mut synth = HpfCegis::new(config, library);
//! let result = synth.synthesize(&spec);
//! assert!(!result.programs.is_empty(), "SUB has equivalent programs");
//! ```

pub mod cegis;
pub mod classical;
pub mod component;
pub mod hpf;
pub mod iterative;
pub mod library;
pub mod program;
pub mod spec;

pub use cegis::{CegisEngine, CegisOutcome, SynthesisConfig};
pub use component::{Component, ComponentClass};
pub use library::Library;
pub use program::{EquivTemplate, ImmSlot, Slot, TemplateInstr};
pub use spec::{Spec, SynthesisCase};

/// The result of running one of the synthesis drivers on a specification.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The specification that was synthesized.
    pub spec_name: String,
    /// The equivalent programs found that count towards `k`
    /// ([`SynthesisConfig::counts_towards_k`]), in discovery order.
    pub programs: Vec<EquivTemplate>,
    /// Number of CEGIS invocations (multisets tried).
    pub multisets_tried: usize,
    /// Number of CEGIS invocations that produced a program.
    pub multisets_successful: usize,
    /// Total wall-clock time spent.
    pub duration: std::time::Duration,
    /// Solver-reuse counters accumulated over every CEGIS invocation of the
    /// run (terms cached/reused by the persistent bit-blaster, learnt
    /// clauses retained across refinement rounds).
    pub solver: sepe_smt::SolverReuseStats,
}

impl SynthesisResult {
    /// Whether at least one equivalent program was found.
    pub fn succeeded(&self) -> bool {
        !self.programs.is_empty()
    }

    /// The first (typically shortest) synthesized program.
    pub fn best(&self) -> Option<&EquivTemplate> {
        self.programs.first()
    }
}
