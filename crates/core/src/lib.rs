//! SEPE-SQED: symbolic quick error detection by semantically equivalent
//! program execution.
//!
//! This is the core crate of the reproduction.  It implements both
//! verification methods evaluated in the paper:
//!
//! * **SQED** (the baseline) — the EDDI-V transformation duplicates every
//!   original instruction into the shadow register half (`x16`–`x31`) and the
//!   self-consistency property `QED-ready ⇒ regs[i] == regs[i+16]` is model
//!   checked,
//! * **SEPE-SQED** (the contribution) — the EDSEP-V transformation replaces
//!   the duplicate with a *semantically equivalent program* drawn from the
//!   equivalence database (synthesized by `sepe-synth` or curated), using the
//!   O/E/T register split of Section 5, and the property
//!   `QED-ready ⇒ ⋀_{i=0..12} regs[i] == regs[i+13]` is checked instead.
//!
//! Both methods are driven by [`detect::Detector`], which wires the
//! symbolic processor model (`sepe-processor`), the QED module built here and
//! the bounded model checker (`sepe-tsys`) together, and reports whether an
//! injected bug was detected, in how much time, and with how long a
//! counterexample trace.
//!
//! # Example
//!
//! ```
//! use sepe_processor::{Mutation, ProcessorConfig};
//! use sepe_sqed::detect::{Detector, DetectorConfig, Method};
//!
//! // A Table-1 bug: the OR result has a bit flipped.
//! let bug = Mutation::table1()
//!     .into_iter()
//!     .find(|b| b.target_opcode() == Some(sepe_isa::Opcode::Or))
//!     .expect("OR bug exists");
//! let config = DetectorConfig {
//!     // bit 4 of the injected corruption needs an 8-bit data path
//!     processor: ProcessorConfig { xlen: 8, mem_words: 4, ..ProcessorConfig::default() }
//!         .with_opcodes(&[sepe_isa::Opcode::Or]),
//!     max_bound: 4,
//!     ..DetectorConfig::default()
//! };
//! let detection = Detector::new(config).check(Method::SepeSqed, Some(&bug));
//! assert!(detection.detected, "SEPE-SQED catches single-instruction bugs");
//! ```

pub mod detect;
pub mod eddiv;
pub mod edsepv;
pub mod equivalence;
pub mod fault;
pub mod mapping;
pub mod parallel;
pub mod qed;
pub mod selfcheck;

pub use detect::{Detection, Detector, DetectorConfig, Method};
pub use eddiv::EddiV;
pub use edsepv::EdsepV;
pub use equivalence::EquivalenceDb;
pub use fault::FaultPlan;
pub use mapping::RegisterMapping;
pub use parallel::{
    BatchOutcome, BatchStats, DegradationRung, DetectionJob, Engine, JobOutcome, JobReport,
    RetryPolicy, StopReasonTally,
};
