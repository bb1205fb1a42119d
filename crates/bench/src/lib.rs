//! Benchmark harness: workload generators and experiment runners that
//! regenerate every table and figure of the paper's evaluation section.
//!
//! * [`fig3`] — synthesis-time comparison of HPF-CEGIS vs iterative CEGIS
//!   (and the classical CEGIS baseline) over the 26 synthesis cases,
//! * [`table1`] — injected single-instruction bugs: SEPE-SQED detection times
//!   vs SQED "-" entries,
//! * [`fig4`] — injected multiple-instruction bugs: detection time and
//!   counterexample length for both methods, plus the SQED/SEPE ratios.
//!
//! Each module exposes a runner returning serializable row structs and a
//! `print` function producing the paper-style table; the
//! `fig3`/`table1`/`fig4` binaries are thin wrappers.  The detection
//! experiments' runner, `run_with_jobs`, schedules the per-bug checks on the
//! parallel engine (`sepe_sqed::parallel`); `--jobs N` / `SEPE_JOBS` select
//! the worker count and `jobs = 1` runs the checks one after another.
//!
//! # Example
//!
//! ```
//! use sepe_bench::{table1, Profile};
//!
//! // The Table-1 quick profile exercises five single-instruction bugs.
//! let bugs = table1::bugs(Profile::Quick);
//! assert_eq!(bugs.len(), 5);
//! // Every bug targets a specific opcode and gets its own detector.
//! let detector = table1::detector_for(&bugs[0], Profile::Quick);
//! assert!(detector.config().max_bound >= 4);
//! ```

pub mod fig3;
pub mod fig4;
pub mod report;
pub mod table1;

use std::time::Duration;

/// How much work an experiment run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// A few representative cases with tight budgets (minutes).
    Quick,
    /// The full sweep matching the paper's tables.
    Full,
}

impl Profile {
    /// Parses from CLI arguments (`--full` selects the full sweep).
    pub fn from_args() -> Profile {
        if std::env::args().any(|a| a == "--full") {
            Profile::Full
        } else {
            Profile::Quick
        }
    }
}

/// Formats a duration in seconds with two decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// The worker count for the detection binaries: `--jobs N` on the command
/// line beats the `SEPE_JOBS` environment variable beats the machine's
/// available parallelism.  `1` runs the sequential code path exactly.
pub fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--jobs") {
        Some(i) => {
            let value = args.get(i + 1).expect("--jobs takes a worker count");
            value
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .unwrap_or_else(|| panic!("--jobs takes a positive integer, got {value:?}"))
        }
        None => sepe_sqed::parallel::default_jobs(),
    }
}
