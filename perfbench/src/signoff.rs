//! `signoff`: sign a design off — the bounded SQED sweep of the tiny/ADD
//! configuration to bound 6 (every depth UNSAT), then an IC3/PDR proof of
//! the clean configuration with its independent certificate check.  The
//! sweep loads the SAT core with conflicts, analysis and reduction; the
//! proof with thousands of cheap, propagation-heavy checks.
//!
//! The untraced pass calls `Detector::check`, as a user does.  The traced
//! pass drives the same work through the layers' public functions
//! (`QedBuilder::build`, `BmcSession`, `Pdr::check`, `verify_certificate`)
//! and must reproduce the untraced counters exactly.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sepe_isa::Opcode;
use sepe_processor::{Mutation, ProcessorConfig};
use sepe_smt::{TermId, TermManager};
use sepe_sqed::detect::{Detection, Detector, DetectorConfig, Method};
use sepe_sqed::qed::{QedBuilder, Scheme};
use sepe_tsys::{
    verify_certificate, BmcConfig, BmcFaultPlan, BmcResult, BmcSession, Pdr, ProofMethod,
    QueryOutcome,
};

use crate::trace::{span, Tracer};
use crate::{check_fidelity, median_s, passes, setup_samples, Args, Layers, Report, Size};

fn processor() -> ProcessorConfig {
    ProcessorConfig::tiny().with_opcodes(&[Opcode::Add])
}

/// The sweep: SQED against the ADD off-by-one bug, which SQED cannot see,
/// so every depth up to the bound is explored and found UNSAT.
fn sweep_config(size: Size) -> DetectorConfig {
    let bound = match size {
        Size::Full => 6,
        Size::Tiny => 4,
    };
    DetectorConfig::builder()
        .processor(processor())
        .bound(bound)
        .bmc_mode(sepe_tsys::BmcMode::PerDepth)
        .build()
}

/// The proof: PDR on the clean design, frontier cap 4, with a per-query
/// conflict budget (deterministic, unlike a wall-clock one) far above what
/// the proof needs.  No smaller design closes quickly, so the smoke size
/// runs the same proof.
fn prove_config() -> DetectorConfig {
    DetectorConfig::builder()
        .processor(processor())
        .bound(4)
        .prove(ProofMethod::Pdr)
        .conflict_limit(5_000)
        .build()
}

fn sweep_bug() -> Mutation {
    Mutation::table1()[0].clone()
}

/// The model checker's configuration exactly as `Detector::check` derives
/// it from a detector configuration.
pub fn bmc_config(c: &DetectorConfig) -> BmcConfig {
    BmcConfig {
        conflict_limit: c.conflict_limit,
        time_limit: c.time_limit,
        start_bound: 1,
        mode: c.bmc_mode,
        simplify: c.simplify,
        aig: c.aig,
        frame_rescore: None,
        cancel: c.cancel.clone(),
        memory_limit: c.memory_limit,
        fault: BmcFaultPlan::default(),
    }
}

/// The QED model builder `Detector::check` uses for a configuration.
pub fn qed_builder(c: &DetectorConfig, method: Method) -> QedBuilder {
    QedBuilder {
        processor: c.processor.clone(),
        original_opcodes: Detector::new(c.clone()).original_opcodes(method),
        queue_depth: c.queue_depth,
    }
}

/// One session query under a `tsys.session.query` span, with the solver's
/// own check time as an `smt.sat.check` child and, on SAT, the rest of the
/// query (model read-back and witness extraction) as `tsys.witness.extract`.
pub fn traced_query(
    tr: &mut Tracer,
    session: &mut BmcSession<'_>,
    tm: &mut TermManager,
    bound: usize,
    assumptions: &[TermId],
) -> QueryOutcome {
    let open = tr.enter("tsys.session.query");
    let outcome = session.query(tm, bound, assumptions);
    let check = session
        .last_query_stats()
        .map_or(Duration::ZERO, |q| q.duration);
    tr.child("smt.sat.check", Duration::ZERO, check);
    if matches!(outcome, QueryOutcome::Counterexample(_)) {
        let rest = tr.offset().saturating_sub(check);
        tr.child("tsys.witness.extract", check, rest);
    }
    tr.exit(open);
    outcome
}

/// One pass's results, however it was driven.
struct Pass {
    sweep_wall: Duration,
    prove_wall: Duration,
    counters: BTreeMap<String, u64>,
    /// Sweep found no counterexample up to the bound.
    sweep_clean: bool,
    /// PDR proved the property and the certificate re-verified.
    proved_checked: bool,
}

fn counters(
    sweep: &sepe_smt::SolverReuseStats,
    depth: usize,
    pdr: &sepe_tsys::ProveStats,
    proof_depth: usize,
) -> BTreeMap<String, u64> {
    [
        ("sweep.depth", depth as u64),
        ("sweep.checks", sweep.checks),
        ("sweep.conflicts", sweep.conflicts),
        ("sweep.propagations", sweep.propagations),
        ("sweep.cnf_clauses", sweep.cnf_clauses),
        ("pdr.depth", proof_depth as u64),
        ("pdr.queries", pdr.queries),
        ("pdr.conflicts", pdr.conflicts),
        ("pdr.propagations", pdr.solver.propagations),
        ("pdr.cubes_blocked", pdr.cubes_blocked),
        ("pdr.clauses_pushed", pdr.clauses_pushed),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// The user's path: two `Detector::check` calls.
fn untraced_pass(size: Size) -> Pass {
    let bug = sweep_bug();
    let start = Instant::now();
    let sweep: Detection = Detector::new(sweep_config(size)).check(Method::Sqed, Some(&bug));
    let sweep_wall = start.elapsed();
    let start = Instant::now();
    let proof: Detection = Detector::new(prove_config()).check(Method::Sqed, None);
    let prove_wall = start.elapsed();
    let work = proof.proof_work.clone().unwrap_or_default();
    Pass {
        sweep_wall,
        prove_wall,
        counters: counters(
            &sweep.solver,
            sweep.bound_reached,
            &work,
            proof.proof_depth.unwrap_or(0),
        ),
        sweep_clean: !sweep.detected
            && !sweep.inconclusive
            && sweep.bound_reached == sweep_config(size).max_bound,
        proved_checked: proof.proved && proof.proof_checked == Some(true),
    }
}

/// The same work through the layers' public functions, under spans.
fn traced_pass(size: Size, tr: &mut Tracer, layers: &mut Layers) -> Pass {
    let bug = sweep_bug();

    let config = sweep_config(size);
    let start = Instant::now();
    let top = tr.enter("bench.sweep");
    let mut tm = TermManager::new();
    let builder = qed_builder(&config, Method::Sqed);
    let system = span(tr, "core.qed.build", || {
        builder.build(&mut tm, &Scheme::Sqed, Some(&bug))
    });
    let bmc = bmc_config(&config);
    let mut session = span(tr, "tsys.session.open", || {
        BmcSession::open(&mut tm, &system.ts, &bmc)
    });
    let mut sweep_clean = true;
    for bound in 1..=config.max_bound {
        span(tr, "tsys.session.extend", || session.extend(&mut tm, bound));
        let bad = session.bad_at(&mut tm, bound);
        if !matches!(
            traced_query(tr, &mut session, &mut tm, bound, &[bad]),
            QueryOutcome::Unreachable
        ) {
            sweep_clean = false;
            break;
        }
    }
    let sweep = session.stats();
    tr.exit(top);
    let sweep_wall = start.elapsed();

    let config = prove_config();
    let start = Instant::now();
    let top = tr.enter("bench.prove");
    let mut tm = TermManager::new();
    let builder = qed_builder(&config, Method::Sqed);
    let system = span(tr, "core.qed.build", || {
        builder.build(&mut tm, &Scheme::Sqed, None)
    });
    let open = tr.enter("tsys.pdr.check");
    let run = Pdr::new(bmc_config(&config)).check(&mut tm, &system.ts, config.max_bound);
    tr.child("smt.sat.check", Duration::ZERO, run.stats.solver.duration);
    tr.exit(open);
    let checked = match &run.certificate {
        Some(cert) => span(tr, "tsys.prove.verify", || {
            verify_certificate(&mut tm, &system.ts, cert).is_ok()
        }),
        None => false,
    };
    tr.exit(top);
    let prove_wall = start.elapsed();

    let proof_depth = match run.result {
        BmcResult::Proved { depth, .. } => Some(depth),
        _ => None,
    };
    layers.solver(&sweep.solver);
    layers.solver(&run.stats.solver);
    layers.set("tsys.pdr.queries", run.stats.queries as f64);
    layers.set("tsys.pdr.cubes_blocked", run.stats.cubes_blocked as f64);
    layers.set("tsys.pdr.clauses_pushed", run.stats.clauses_pushed as f64);
    Pass {
        sweep_wall,
        prove_wall,
        counters: counters(
            &sweep.solver,
            sweep.deepest_bound,
            &run.stats,
            proof_depth.unwrap_or(0),
        ),
        sweep_clean,
        proved_checked: proof_depth.is_some() && checked,
    }
}

/// Set-up: building both verification models (processor, QED layer,
/// transition system) from scratch.
fn setup(size: Size) -> Duration {
    let start = Instant::now();
    for config in [sweep_config(size), prove_config()] {
        let mut tm = TermManager::new();
        let system = qed_builder(&config, Method::Sqed).build(&mut tm, &Scheme::Sqed, None);
        std::hint::black_box(system);
    }
    start.elapsed()
}

fn check(report: &mut Report, pass: &Pass, label: &str) {
    report.attempted += 2;
    if !pass.sweep_clean {
        report.failed += 1;
        report.problem(format!(
            "{label}: the sweep did not come back clean to its bound"
        ));
    }
    if !pass.proved_checked {
        report.failed += 1;
        report.problem(format!(
            "{label}: PDR did not return Proved with a re-verified certificate"
        ));
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    if !args.trace {
        let (runs, rss) = passes(args.seconds, |_| untraced_pass(args.size));
        let setups = setup_samples(|| setup(args.size));
        for (i, p) in runs.iter().enumerate() {
            check(&mut report, p, &format!("pass {i}"));
        }
        let walls: Vec<Duration> = runs.iter().map(|p| p.sweep_wall + p.prove_wall).collect();
        let sweeps: Vec<Duration> = runs.iter().map(|p| p.sweep_wall).collect();
        let proves: Vec<Duration> = runs.iter().map(|p| p.prove_wall).collect();
        report.note("sweep_s", median_s(&sweeps), "s");
        report.note("prove_s", median_s(&proves), "s");
        crate::end_to_end(&mut report, &walls, &sweeps, &proves, &setups, rss);
        report.counters = runs[0].counters.clone();
        return report;
    }

    let untraced = untraced_pass(args.size);
    let mut tr = Tracer::new(true);
    let mut layers = Layers::default();
    let traced = traced_pass(args.size, &mut tr, &mut layers);
    check(&mut report, &untraced, "untraced pass");
    check(&mut report, &traced, "traced pass");
    check_fidelity(&mut report, &untraced.counters, &traced.counters);

    let untraced_wall = untraced.sweep_wall + untraced.prove_wall;
    let traced_wall = traced.sweep_wall + traced.prove_wall;
    layers.set("sweep_s", untraced.sweep_wall.as_secs_f64());
    layers.set("prove_s", untraced.prove_wall.as_secs_f64());
    layers.set(
        "trace.overhead_s",
        traced_wall.as_secs_f64() - untraced_wall.as_secs_f64(),
    );
    layers.set(
        "failed_ratio",
        report.failed as f64 / report.attempted as f64,
    );
    layers.from_trace(&tr, traced_wall);
    layers.finish(&mut report);
    report.counters = untraced.counters;
    report.spans = Some(tr.to_jsonl());
    report
}
