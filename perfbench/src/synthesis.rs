//! `synthesis`: build the equivalent-program database — HPF-CEGIS over a
//! fixed subset of the Fig-3 spec list at width 4, k = 3 programs per spec,
//! multisets of size 3, the Fig-3 quick profile's per-query conflict
//! budgets and no wall-clock limit, with a fresh `HpfCegis` per spec.
//!
//! The subset keeps both regimes of the full list: cheap immediate specs
//! (a handful of multisets each) and a ranking-heavy register spec (hundreds
//! of multisets, about half the time spent ranking and encoding outside
//! SAT).  Thousands of short-lived solvers make this the workload of the
//! `synth` layer.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sepe_smt::{SatResult, TermManager};
use sepe_synth::cegis::template_result_term;
use sepe_synth::hpf::HpfCegis;
use sepe_synth::iterative::IterativeCegis;
use sepe_synth::{Library, Spec, SynthesisCase, SynthesisConfig, SynthesisResult};

use crate::trace::Tracer;
use crate::{check_fidelity, median_s, passes, setup_samples, Args, Layers, Report, Rng, Size};

/// Data-path width of the synthesized programs.
const WIDTH: u32 = 4;

/// Programs wanted per spec (`k`).
const K: usize = 3;

fn config() -> SynthesisConfig {
    SynthesisConfig {
        width: WIDTH,
        multiset_size: 3,
        programs_wanted: K,
        min_components: 3,
        max_cegis_iterations: 8,
        synth_conflict_limit: Some(50_000),
        verify_conflict_limit: Some(50_000),
        time_limit: None,
        ..SynthesisConfig::default()
    }
}

/// The spec subset: (name, ranking-heavy register spec?).
fn spec_names(size: Size) -> &'static [(&'static str, bool)] {
    match size {
        Size::Full => &[
            ("SLL", true),
            ("ADDI", false),
            ("SLTI", false),
            ("SLTIU", false),
            ("XORI", false),
            ("ORI", false),
            ("ANDI", false),
            ("SLLI", false),
            ("SRLI", false),
            ("SRAI", false),
            ("LUI", false),
            ("NOT", false),
            ("INC", false),
            ("DEC", false),
            ("DOUBLE", false),
            ("MASK_BYTE", false),
            ("SIGN", false),
        ],
        Size::Tiny => &[("ADDI", false), ("LUI", false), ("ADD", true)],
    }
}

/// What a user builds before synthesizing: the component library, the
/// spec list and the candidate multisets.
struct Setup {
    library: Library,
    specs: Vec<(Spec, bool)>,
}

fn setup(size: Size) -> (Setup, Duration) {
    let start = Instant::now();
    let library = Library::standard();
    let all = SynthesisCase::all(WIDTH);
    let specs = spec_names(size)
        .iter()
        .map(|(name, heavy)| {
            let case = all
                .iter()
                .find(|c| c.spec.name == *name)
                .unwrap_or_else(|| panic!("spec {name} is in the Fig-3 list"));
            (case.spec.clone(), *heavy)
        })
        .collect();
    std::hint::black_box(library.multisets(config().multiset_size));
    (Setup { library, specs }, start.elapsed())
}

/// One spec's synthesis, timed from driver construction to its result.
struct SpecRun {
    spec: usize,
    wall: Duration,
    result: SynthesisResult,
}

struct Pass {
    runs: Vec<SpecRun>,
}

impl Pass {
    fn wall(&self, heavy: Option<bool>, s: &Setup) -> Duration {
        self.runs
            .iter()
            .filter(|r| heavy.is_none_or(|h| s.specs[r.spec].1 == h))
            .map(|r| r.wall)
            .sum()
    }

    /// Deterministic work counters, per spec and summed.
    fn counters(&self, s: &Setup) -> BTreeMap<String, u64> {
        let mut c = BTreeMap::new();
        for r in &self.runs {
            let name = &s.specs[r.spec].0.name;
            let stats = &r.result.solver;
            for (k, v) in [
                ("multisets_tried", r.result.multisets_tried as u64),
                ("multisets_successful", r.result.multisets_successful as u64),
                ("programs", r.result.programs.len() as u64),
                ("checks", stats.checks),
                ("conflicts", stats.conflicts),
                ("propagations", stats.propagations),
                ("cnf_clauses", stats.cnf_clauses),
            ] {
                c.insert(format!("spec.{name}.{k}"), v);
                *c.entry(format!("total.{k}")).or_insert(0) += v;
            }
        }
        c
    }
}

/// The specs in this pass's seeded order (each spec gets a fresh driver,
/// so the order changes no work).
fn order(s: &Setup, seed: u64, pass: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..s.specs.len()).collect();
    Rng::new(seed ^ (pass as u64).wrapping_mul(0x9e37_79b9)).shuffle(&mut order);
    order
}

fn run_pass(s: &Setup, order: &[usize], tr: &mut Tracer) -> Pass {
    let runs = order
        .iter()
        .map(|&spec| {
            let start = Instant::now();
            let top = tr.enter("bench.spec");
            let mut hpf = HpfCegis::new(config(), s.library.clone());
            let open = tr.enter("synth.hpf.synthesize");
            let result = hpf.synthesize(&s.specs[spec].0);
            tr.child("smt.sat.check", Duration::ZERO, result.solver.duration);
            tr.exit(open);
            tr.exit(top);
            SpecRun {
                spec,
                wall: start.elapsed(),
                result,
            }
        })
        .collect();
    Pass { runs }
}

/// Output check: k programs per spec, each re-proved equivalent to its
/// spec on every legal input by an independent validity query on a fresh
/// solver.
fn check(report: &mut Report, s: &Setup, pass: &Pass, label: &str) {
    for r in &pass.runs {
        report.attempted += 1;
        let spec = &s.specs[r.spec].0;
        let mut bad = Vec::new();
        if r.result.programs.len() != K {
            bad.push(format!("{} programs, wanted {K}", r.result.programs.len()));
        }
        for (i, program) in r.result.programs.iter().enumerate() {
            let mut tm = TermManager::new();
            let inputs = spec.fresh_inputs(&mut tm, "check");
            let got = template_result_term(&mut tm, program, spec, &inputs);
            let want = spec.result(&mut tm, &inputs);
            let eq = tm.eq(got, want);
            // Equivalence on every encodable operand (legal shift amounts,
            // immediate patterns), the inputs the spec is defined on.
            let legal = spec.input_constraint(&mut tm, &inputs);
            let claim = tm.implies(legal, eq);
            if sepe_smt::solver::is_valid(&mut tm, claim, None) != SatResult::Sat {
                bad.push(format!("program {i} is not equivalent"));
            }
        }
        if !bad.is_empty() {
            report.failed += 1;
            report.problem(format!("{label}: spec {}: {}", spec.name, bad.join(", ")));
        }
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (s, _) = setup(args.size);

    if !args.trace {
        let mut off = Tracer::new(false);
        let (runs, rss) = passes(args.seconds, |i| {
            run_pass(&s, &order(&s, args.seed, i), &mut off)
        });
        let setups = setup_samples(|| setup(args.size).1);
        for (i, p) in runs.iter().enumerate() {
            check(&mut report, &s, p, &format!("pass {i}"));
        }
        let walls: Vec<Duration> = runs.iter().map(|p| p.wall(None, &s)).collect();
        let heavy: Vec<Duration> = runs.iter().map(|p| p.wall(Some(true), &s)).collect();
        let light: Vec<Duration> = runs.iter().map(|p| p.wall(Some(false), &s)).collect();
        report.note("synth_s", median_s(&walls), "s");
        crate::end_to_end(&mut report, &walls, &heavy, &light, &setups, rss);
        report.counters = runs[0].counters(&s);
        for p in &runs[1..] {
            check_fidelity(&mut report, &runs[0].counters(&s), &p.counters(&s));
        }
        return report;
    }

    let order = order(&s, args.seed, 0);
    let untraced = run_pass(&s, &order, &mut Tracer::new(false));
    let mut tr = Tracer::new(true);
    let traced_start = Instant::now();
    let traced = run_pass(&s, &order, &mut tr);
    // The paper-claim row: iterative CEGIS on the same specs and settings.
    let mut iterative = Duration::ZERO;
    for &spec in &order {
        let start = Instant::now();
        let open = tr.enter("synth.iterative.synthesize");
        std::hint::black_box(
            IterativeCegis::new(config(), s.library.clone()).synthesize(&s.specs[spec].0),
        );
        tr.exit(open);
        iterative += start.elapsed();
    }
    let traced_wall = traced_start.elapsed();

    check(&mut report, &s, &untraced, "untraced pass");
    check(&mut report, &s, &traced, "traced pass");
    check_fidelity(&mut report, &untraced.counters(&s), &traced.counters(&s));

    let mut layers = Layers::default();
    let mut hpf_wall = Duration::ZERO;
    let mut sat = Duration::ZERO;
    let (mut tried, mut useful) = (0.0, 0.0);
    for r in &traced.runs {
        layers.solver(&r.result.solver);
        hpf_wall += r.result.duration;
        sat += r.result.solver.duration;
        tried += r.result.multisets_tried as f64;
        useful += r.result.multisets_successful as f64;
    }
    layers.set("synth_s", untraced.wall(None, &s).as_secs_f64());
    layers.set("synth.hpf.multisets_tried", tried);
    layers.set("synth.hpf.multisets_successful", useful);
    layers.set("synth.hpf.success_ratio", useful / tried.max(1.0));
    layers.set("synth.cegis.sat_s", sat.as_secs_f64());
    layers.set(
        "synth.hpf.outside_sat_s",
        hpf_wall.saturating_sub(sat).as_secs_f64(),
    );
    layers.set("synth.iterative_s", iterative.as_secs_f64());
    layers.set(
        "synth.hpf_vs_iterative",
        hpf_wall.as_secs_f64() / iterative.as_secs_f64().max(1e-9),
    );
    layers.set(
        "trace.overhead_s",
        traced.wall(None, &s).as_secs_f64() - untraced.wall(None, &s).as_secs_f64(),
    );
    layers.set(
        "failed_ratio",
        report.failed as f64 / report.attempted as f64,
    );
    layers.from_trace(&tr, traced_wall);
    layers.finish(&mut report);
    report.counters = untraced.counters(&s);
    report.spans = Some(tr.to_jsonl());
    report
}
