//! Regenerates Figure 3: synthesis time of HPF-CEGIS vs iterative CEGIS.
//!
//! Usage: `cargo run --release -p sepe-bench --bin fig3 [--full] [--json]`

use sepe_bench::{fig3, Args};

fn main() {
    let Args { profile, json, .. } = Args::from_env("fig3", false);
    let rows = fig3::run(profile);
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&rows).expect("serializable rows")
        );
        return;
    }
    println!("# Figure 3 — instruction-synthesis time ({profile:?} profile)\n");
    fig3::print(&rows);
    let (case, succeeded, secs) = fig3::classical_baseline(profile);
    println!(
        "\nclassical CEGIS baseline on {case}: {} after {secs:.2}s \
         (paper: failed to synthesize a single instruction in weeks)",
        if succeeded {
            "synthesized a program"
        } else {
            "gave up within its budget"
        }
    );
}
