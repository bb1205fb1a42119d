//! Regenerates Table 1: injected single-instruction bugs, SEPE-SQED detection
//! time vs SQED "-" entries.
//!
//! Usage: `cargo run --release -p sepe-bench --bin table1 [--full] [--json] [--jobs N]`
//!
//! `--jobs N` (or `SEPE_JOBS`) schedules the per-bug detection runs on the
//! parallel engine with `N` workers; the default is the machine's available
//! parallelism and `--jobs 1` reproduces the sequential run exactly.

use sepe_bench::{table1, Args};

fn main() {
    let args = Args::from_env("table1", true);
    let profile = args.profile;
    let (rows, batch) = table1::run_with_jobs(profile, args.jobs());
    if args.json {
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
