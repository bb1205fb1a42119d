//! Criterion bench: incremental vs scratch solving on a Table-1 detection
//! at increasing BMC bounds.
//!
//! All paths run the same QED transition system (the shared
//! [`sepe_bench::sweep`] protocol); the difference is the solver pipeline
//! behind the exploration:
//!
//! * `incremental` — [`BmcMode::PerDepth`]: one persistent
//!   `IncrementalSolver`, the unrolling asserted once, per-depth bad states
//!   as retractable assumptions, learnt clauses carried across depths;
//! * `scratch` — [`BmcMode::PerDepthScratch`]: a fresh solver per depth that
//!   re-bit-blasts the whole prefix (O(k²) total encoding work).
//!
//! After the timed groups a summary table prints the measured speedup per
//! bound together with the solver-reuse and learnt-database-reduction
//! counters of the incremental runs.

use criterion::{criterion_group, criterion_main, Criterion};

use sepe_bench::sweep;
use sepe_tsys::BmcMode;

fn bench_incremental_vs_scratch(c: &mut Criterion) {
    let bug = sweep::bug(); // ADD off by one
    let mut group = c.benchmark_group("incremental_vs_scratch");
    // The deepest sweeps take tens of seconds on the scratch path; keep the
    // sample count small so the whole bench stays in the minutes.
    group.sample_size(2);
    for &bound in &[2usize, 4, 6] {
        group.bench_function(&format!("incremental_bound{bound}"), |b| {
            b.iter(|| sweep::run(bound, BmcMode::PerDepth, &bug))
        });
        group.bench_function(&format!("scratch_bound{bound}"), |b| {
            b.iter(|| sweep::run(bound, BmcMode::PerDepthScratch, &bug))
        });
    }
    group.finish();

    // Direct measurement summary with the incremental runs' reuse counters.
    println!("\n== incremental vs scratch: measured speedup");
    println!(
        "{:>6} {:>12} {:>12} {:>9} {:>10} {:>10} {:>10}",
        "bound", "incr [ms]", "scratch[ms]", "spd-incr", "learnt-hw", "deleted", "retained"
    );
    for &bound in &[2usize, 4, 6] {
        let (incr, reuse) = sweep::run(bound, BmcMode::PerDepth, &bug);
        let (scratch, _) = sweep::run(bound, BmcMode::PerDepthScratch, &bug);
        println!(
            "{:>6} {:>12.2} {:>12.2} {:>8.2}x {:>10} {:>10} {:>10}",
            bound,
            incr.as_secs_f64() * 1e3,
            scratch.as_secs_f64() * 1e3,
            scratch.as_secs_f64() / incr.as_secs_f64(),
            reuse.learnt_high_water,
            reuse.learnt_deleted,
            reuse.learnt_retained,
        );
    }
}

criterion_group!(benches, bench_incremental_vs_scratch);
criterion_main!(benches);
