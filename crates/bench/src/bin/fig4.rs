//! Regenerates Figure 4: multiple-instruction bugs, detection time and
//! counterexample-length ratios for SQED vs SEPE-SQED.
//!
//! Usage: `cargo run --release -p sepe-bench --bin fig4 [--full] [--json] [--jobs N]`
//!
//! `--jobs N` (or `SEPE_JOBS`) schedules the per-bug detection runs on the
//! parallel engine with `N` workers; the default is the machine's available
//! parallelism and `--jobs 1` reproduces the sequential run exactly.

use sepe_bench::{fig4, jobs_from_args, Profile};

fn main() {
    let profile = Profile::from_args();
    let jobs = jobs_from_args();
    let (rows, batch) = fig4::run_with_jobs(profile, jobs);
    if std::env::args().any(|a| a == "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serializable rows")
        );
        return;
    }
    println!("# Figure 4 — injected multiple-instruction bugs ({profile:?} profile)\n");
    fig4::print(&rows);
    println!("\nbatch: {batch}");
}
