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

/// How much work an experiment run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// A few representative cases with tight budgets (minutes).
    Quick,
    /// The full sweep matching the paper's tables.
    Full,
}

/// The command line of the `table1`, `fig4` and `fig3` binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// `--full` selects the paper's sweep; the default is the quick one.
    pub profile: Profile,
    /// `--json` prints the rows as JSON instead of the table.
    pub json: bool,
    /// `--jobs N`, the detection worker count, if given.
    pub jobs: Option<usize>,
}

impl Args {
    /// Parses `args` (without the program name).  `takes_jobs` says whether
    /// the binary accepts `--jobs N`.  An unknown argument, or `--jobs`
    /// without a positive integer, is an error.
    pub fn parse(args: &[String], takes_jobs: bool) -> Result<Args, String> {
        let mut parsed = Args {
            profile: Profile::Quick,
            json: false,
            jobs: None,
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => parsed.profile = Profile::Full,
                "--json" => parsed.json = true,
                "--jobs" if takes_jobs => {
                    let value = args.next().map(String::as_str).unwrap_or("");
                    let n = value.parse().ok().filter(|&n: &usize| n > 0);
                    parsed.jobs =
                        Some(n.ok_or(format!("--jobs takes a positive integer, got {value:?}"))?);
                }
                _ => return Err(format!("unknown argument {arg}")),
            }
        }
        Ok(parsed)
    }

    /// Parses the process's command line for the binary `bin`; on an error
    /// prints it with the usage line and exits with code 2.
    pub fn from_env(bin: &str, takes_jobs: bool) -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Args::parse(&args, takes_jobs).unwrap_or_else(|e| {
            let jobs = if takes_jobs { " [--jobs N]" } else { "" };
            eprintln!("{bin}: {e}\nusage: {bin} [--full] [--json]{jobs}");
            std::process::exit(2)
        })
    }

    /// The worker count: `--jobs N` beats the `SEPE_JOBS` environment
    /// variable beats the machine's available parallelism.  `1` runs the
    /// sequential code path exactly.
    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(sepe_sqed::parallel::default_jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], takes_jobs: bool) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Args::parse(&args, takes_jobs)
    }

    #[test]
    fn known_flags_parse() {
        let defaults = parse(&[], true).unwrap();
        assert_eq!(
            defaults,
            Args {
                profile: Profile::Quick,
                json: false,
                jobs: None
            }
        );
        let all = parse(&["--jobs", "3", "--full", "--json"], true).unwrap();
        assert_eq!(
            all,
            Args {
                profile: Profile::Full,
                json: true,
                jobs: Some(3)
            }
        );
        assert_eq!(all.jobs(), 3);
        assert!(parse(&["--full", "--json"], false).is_ok());
    }

    #[test]
    fn unknown_flags_and_bad_job_counts_are_errors() {
        for (args, takes_jobs) in [
            (&["--ful"][..], true),
            (&["--jsn"], true),
            (&["stray"], true),
            (&["--jobs"], true),
            (&["--jobs", "0"], true),
            (&["--jobs", "two"], true),
            (&["--jobs", "--full"], true),
            (&["--jobs", "2"], false),
        ] {
            assert!(
                parse(args, takes_jobs).is_err(),
                "{args:?} must be rejected"
            );
        }
    }
}
