//! Word-level transition systems and bounded model checking.
//!
//! The paper converts the RIDECORE RTL into the BTOR2 word-level
//! transition-system format (via Yosys) and model-checks it with Pono.  This
//! crate plays both roles: [`TransitionSystem`] is the BTOR2-like IR (state
//! variables with init/next functions, inputs, invariant constraints and bad
//! states), and [`Bmc`] is the bounded model checker that unrolls the system
//! frame by frame and extracts counterexample [`Witness`]es.
//!
//! # Example
//!
//! A two-bit counter that should never reach 3:
//!
//! ```
//! use sepe_smt::{Sort, TermManager};
//! use sepe_tsys::{Bmc, BmcConfig, BmcResult, TransitionSystem};
//!
//! let mut tm = TermManager::new();
//! let count = tm.var("count", Sort::BitVec(2));
//! let one = tm.one(2);
//! let next = tm.bv_add(count, one);
//! let zero = tm.zero(2);
//! let three = tm.bv_const(3, 2);
//! let bad = tm.eq(count, three);
//!
//! let mut ts = TransitionSystem::new();
//! ts.add_state_var(&tm, count, Some(zero), next);
//! ts.add_bad(bad);
//!
//! let result = Bmc::new(BmcConfig::default()).check(&mut tm, &ts, 8);
//! match result {
//!     BmcResult::Counterexample(witness) => assert_eq!(witness.len(), 4),
//!     _ => panic!("the counter reaches 3 after three steps"),
//! }
//! ```

pub mod bmc;
pub mod pdr;
pub mod prove;
pub mod session;
pub mod ts;
pub mod unroll;
pub mod witness;

pub use bmc::{Bmc, BmcConfig, BmcFaultPlan, BmcMode, BmcResult, BmcStats, DepthStats};
pub use pdr::Pdr;
pub use prove::{
    corrupt_certificate, verify_certificate, CertificateError, ProofCertificate, ProofMethod,
    ProofRun, ProveStats,
};
pub use session::{BmcSession, QueryOutcome};
pub use ts::{CoiInfo, StateVar, TransitionSystem};
pub use unroll::Unroller;
pub use witness::{Frame, Witness};
