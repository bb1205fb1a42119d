//! Regenerates Table 1: injected single-instruction bugs, SEPE-SQED detection
//! time vs SQED "-" entries.
//!
//! Usage: `cargo run --release -p sepe-bench --bin table1 [--full] [--json] [--jobs N]`
//!
//! `--jobs N` (or `SEPE_JOBS`) schedules the per-bug detection runs on the
//! parallel engine with `N` workers; the default is the machine's available
//! parallelism and `--jobs 1` reproduces the sequential run exactly.

use sepe_bench::{jobs_from_args, table1, Profile};

fn main() {
    let profile = Profile::from_args();
    let jobs = jobs_from_args();
    let (rows, batch) = table1::run_with_jobs(profile, jobs);
    if std::env::args().any(|a| a == "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serializable rows")
        );
        return;
    }
    println!("# Table 1 — injected single-instruction bugs ({profile:?} profile)\n");
    table1::print(&rows);
    println!("\nbatch: {batch}");
}
