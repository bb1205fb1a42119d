//! Regenerates Figure 4: multiple-instruction bugs, detection time and
//! counterexample-length ratios for SQED vs SEPE-SQED.
//!
//! Usage: `cargo run --release -p sepe-bench --bin fig4 [--full] [--json] [--jobs N]`
//!
//! `--jobs N` (or `SEPE_JOBS`) schedules the per-bug detection runs on the
//! parallel engine with `N` workers; the default is the machine's available
//! parallelism and `--jobs 1` reproduces the sequential run exactly.

use sepe_bench::{fig4, Args};

fn main() {
    let args = Args::from_env("fig4", true);
    let profile = args.profile;
    let (rows, batch) = fig4::run_with_jobs(profile, args.jobs());
    if args.json {
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
