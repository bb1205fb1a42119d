//! Bit-vector SMT substrate for the SEPE-SQED reproduction.
//!
//! The paper relies on an off-the-shelf SMT solver (through Pono / the
//! authors' synthesizer) for two kinds of quantifier-free bit-vector
//! queries: CEGIS synthesis/verification queries and bounded-model-checking
//! queries.  This crate provides the same capability from scratch:
//!
//! * [`TermManager`] — a hash-consed bit-vector/boolean term graph with a
//!   light rewriting layer (constant folding, neutral elements, …),
//! * [`Rewriter`] — word-level simplification *ahead of*
//!   bit-blasting: a rule catalogue (ite/comparison collapsing,
//!   extract/concat pushing, strength reduction) plus equality-driven
//!   constant/variable propagation across an assertion set, on by default
//!   (`set_simplify(false)` turns it off),
//! * [`eval`](concrete::eval) — a concrete evaluator used for counterexample
//!   handling and for differential testing of the bit-blaster,
//! * [`BitBlaster`](bitblast::BitBlaster) — gate-level lowering of term
//!   graphs into a structurally hashed and-inverter graph ([`Aig`]): node
//!   creation runs constant propagation and a one-/two-level rewrite
//!   catalogue, and the strash table shares identical logic across frames
//!   and datapaths before any clause exists,
//! * [`AigCnf`] — the polarity-aware Tseitin pass from the graph to CNF:
//!   one definition per shared node, only the implications each polarity
//!   needs, and an append-only node→variable mapping so incremental SAT
//!   state survives later emissions,
//! * [`sat::SatSolver`] — a CDCL SAT solver (two-watched literals,
//!   first-UIP learning, VSIDS, phase saving, Luby restarts, and MiniSat-style
//!   incremental solving under assumptions with unsat cores),
//! * [`IncrementalSolver`] — the one SMT front end: one persistent
//!   bit-blaster and SAT solver, permanent
//!   [`assert_term`](incremental::IncrementalSolver::assert_term) and
//!   [`assert_all`](incremental::IncrementalSolver::assert_all) plus
//!   retractable
//!   [`check_assuming`](incremental::IncrementalSolver::check_assuming),
//!   with term-encoding caching and learnt-clause retention across checks;
//!   a one-shot query is a fresh solver, an `assert_all` and a `check`.
//!
//! The workloads this crate serves are dominated by *sequences of closely
//! related queries*: BMC re-checks the same unrolling prefix at every depth,
//! and CEGIS re-solves the same synthesis constraints plus one new
//! counterexample per iteration.  The incremental pipeline exists for
//! exactly that shape — each new query only pays for what it adds, and the
//! SAT solver's learnt clauses, variable activities and saved phases carry
//! over instead of restarting cold.  So that exactly these long-lived
//! solvers do not degrade, the SAT core periodically reduces its learnt
//! database (geometric conflict schedule plus a live-count safety cap,
//! coldest clauses first by LBD/activity) and *compacts* the clause arena —
//! watcher lists and reason indices are remapped so deleted clauses return
//! their memory.  [`SolverReuseStats`] quantifies the reuse (encodings
//! served from cache, learnt clauses retained) and the reduction
//! ([`ReduceStats`] fields: passes, deletions, live high-water mark).
//!
//! # Example: a one-shot query
//!
//! ```
//! use sepe_smt::{IncrementalSolver, TermManager, Sort, SatResult};
//!
//! let mut tm = TermManager::new();
//! let x = tm.var("x", Sort::BitVec(8));
//! let y = tm.var("y", Sort::BitVec(8));
//! let sum = tm.bv_add(x, y);
//! let c42 = tm.bv_const(42, 8);
//! let goal = tm.eq(sum, c42);
//! let ten = tm.bv_const(10, 8);
//! let small = tm.bv_ult(x, ten);
//!
//! // A fresh solver; the assertion set is simplified jointly, then encoded.
//! let mut solver = IncrementalSolver::new();
//! solver.assert_all(&mut tm, &[goal, small]);
//! match solver.check(&mut tm) {
//!     SatResult::Sat => {
//!         let m = solver.model(&tm);
//!         assert_eq!((m.value(x) + m.value(y)) & 0xff, 42);
//!         assert!(m.value(x) < 10);
//!     }
//!     _ => unreachable!("the constraint is satisfiable"),
//! }
//! ```
//!
//! # Example: incremental solving with assumptions
//!
//! ```
//! use sepe_smt::{IncrementalSolver, TermManager, Sort, SatResult};
//!
//! let mut tm = TermManager::new();
//! let x = tm.var("x", Sort::BitVec(8));
//! let ten = tm.bv_const(10, 8);
//! let below = tm.bv_ult(x, ten);
//!
//! let mut solver = IncrementalSolver::new();
//! solver.assert_term(&mut tm, below); // permanent: x < 10
//!
//! // Retractable assumptions — each check reuses all prior encoding work.
//! let three = tm.bv_const(3, 8);
//! let twelve = tm.bv_const(12, 8);
//! let is3 = tm.eq(x, three);
//! let is12 = tm.eq(x, twelve);
//! assert_eq!(solver.check_assuming(&mut tm, &[is3]), SatResult::Sat);
//! assert_eq!(solver.check_assuming(&mut tm, &[is12]), SatResult::Unsat);
//! assert_eq!(solver.unsat_core(), &[is12]); // and x < 10 still holds:
//! assert_eq!(solver.check_assuming(&mut tm, &[is3]), SatResult::Sat);
//! assert!(solver.stats().encode.total_reuse() > 0);
//! ```

pub mod aig;
pub mod bitblast;
pub mod cnf;
pub mod concrete;
pub mod fast;
pub mod incremental;
pub mod rewrite;
pub mod sat;
pub mod solver;
pub mod sort;
pub mod stable;
pub mod subst;
pub mod term;

pub use aig::{Aig, AigCnf, AigLit, AigNode, AigStats, GateKind};
pub use cnf::{Cnf, Lit, Var};
pub use fast::{FastHasher, FastMap, FastSet};
pub use incremental::{one_hot_assumptions, IncrementalSolver, SolverReuseStats};
pub use rewrite::{EncodeStats, RewriteStats, Rewriter};
pub use sat::{CancelFlag, FaultHooks, ReduceStats, SatSolver, SolveOutcome, StopReason};
pub use solver::{Model, SatResult};
pub use sort::Sort;
pub use stable::{stable_hash, stable_hash_seeded, StableHasher};
pub use term::{Op, Term, TermId, TermManager};
