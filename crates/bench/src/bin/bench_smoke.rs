//! CI smoke benchmark: a tiny Table-1 BMC sweep with a machine-readable
//! result and a regression gate.
//!
//! Runs one Table-1 SQED sweep (tiny processor, ADD only, the ADD
//! off-by-one bug — invisible to SQED, so every depth is explored) in three
//! configurations of the one incremental BMC loop:
//!
//! * `incremental` — the persistent per-depth session with word-level
//!   rewriting + cone-of-influence reduction and the gate-level AIG layer
//!   on (the default pipeline),
//! * `aig_off` — the same session with the AIG reductions off (no
//!   structural hashing, no local rewriting, biconditional Tseitin): the
//!   arm that isolates what the gate-level layer buys,
//! * `incremental_norewrite` — the default pipeline with the word-level
//!   preprocessing off: the rewrite-on-vs-off arm that isolates what the
//!   simplification pipeline buys.
//!
//! The measurements (wall time, conflicts, learnt-clause high-water mark,
//! encodings cached, `RewriteStats`, AIG counters, CNF sizes) are written as
//! JSON, and when `--baseline <path>` is given the run **fails** with exit
//! code 1 if any mode's wall time regressed more than [`REGRESSION_FACTOR`]×
//! or its CNF clause count more than [`CLAUSE_REGRESSION_FACTOR`]× against
//! the baseline (the clause count is deterministic on identical code, so
//! its tight gate catches encoding regressions without runner-speed noise).
//! A mode's SAT conflict count must match the baseline *exactly*: the search
//! is deterministic, so a different count means a search heuristic changed,
//! and such a change has to refresh the baseline on purpose.  The baseline
//! must also match the run's arms one to one: a baseline mode the run no
//! longer measures, a measured mode without a baseline entry, or a gated
//! field missing from an entry fails the gate as a stale baseline.
//!
//! The three modes run as one single-worker batch on the detection engine
//! (`sepe_sqed::parallel`); each mode's row is its job's `Detection` (the
//! model-checking run's wall time and solver counters).  Every mode must
//! miss the bug and finish conclusively.  The batch also feeds a
//! `robustness` entry — retries taken, degraded re-runs, panics absorbed,
//! and stopped-job tallies by stop reason, straight from the engine's
//! `BatchStats`.  A healthy run reports all zeros; the entry exists so the
//! CI artifact history makes any engine-level recovery activity visible at
//! a glance.  It is outside the regression gate.
//!
//! A **service_cache** arm boots the detection service
//! (`sepe_service`) on a loopback socket with a fresh crash-safe result
//! cache and submits the same small mutation list twice.  The cold pass
//! computes and commits every verdict; the hot pass must be answered
//! *entirely* from the cache.  That contract is deterministic, so it is a
//! hard gate on every run (no baseline needed): the hot pass must be 100%
//! cache hits with zero misses and zero solver encodes, or the run exits
//! nonzero.  Wall times are recorded for the artifact history only.
//!
//! A **proofs** arm runs the unbounded prover (IC3/PDR) against
//! one clean configuration and one Table-1 mutation.  The clean config must
//! come back **Proved** — the verdict no bounded sweep can give — with its
//! inductive invariant re-verified on an independent solver, and the prover
//! may never contradict the bounded baseline.  When the mutated run ends
//! without a trace, the trace-length comparison has nothing to check: the
//! run prints a `SKIPPED` line and records `bug_trace_gate: "SKIPPED"`.
//! Those contracts are deterministic, so they are hard gates on every
//! run; the proof work counters (frontier depth, queries, the prover
//! solver's CNF variables and propagations, cubes blocked, clauses pushed)
//! are recorded for the artifact history only.
//!
//! Usage:
//!   bench_smoke [--bound N] [--out BENCH_smoke.json] [--baseline BENCH_baseline.json]
//!
//! An unknown argument or a flag without its value exits with code 2 and
//! the usage line before anything runs, so a misspelt `--baseline` cannot
//! silently turn the regression gate off.

use serde::{Serialize, Value};

use sepe_bench::report::Counters;
use sepe_isa::Opcode;
use sepe_processor::{Mutation, ProcessorConfig};
use sepe_smt::SolverReuseStats;
use sepe_sqed::detect::{Detection, DetectorConfig, Method};
use sepe_sqed::parallel::{DetectionJob, Engine};

/// Wall-time regression tolerance against the checked-in baseline (loose:
/// runner hardware varies).
const REGRESSION_FACTOR: f64 = 1.5;

/// CNF clause-count regression tolerance (tight: the count is deterministic
/// on identical code, so anything beyond float-formatting slack is a real
/// encoding regression — intentional encoding changes refresh the baseline,
/// as its `note` describes).
const CLAUSE_REGRESSION_FACTOR: f64 = 1.05;

/// The gated modes of the sweep: name, word-level preprocessing (rewriting
/// and cone-of-influence reduction), gate-level AIG reductions (structural
/// hashing, local rewriting, polarity-aware Tseitin).
const MODES: [(&str, bool, bool); 3] = [
    ("incremental", true, true),
    ("aig_off", true, false),
    ("incremental_norewrite", false, true),
];

/// One SQED sweep job per mode, in [`MODES`] order.
fn sweep_jobs(bound: usize) -> Vec<DetectionJob> {
    let bug = Mutation::table1()[0].clone(); // ADD off by one
    MODES
        .iter()
        .map(|&(mode, simplify, aig)| {
            let config = DetectorConfig {
                processor: ProcessorConfig::tiny().with_opcodes(&[Opcode::Add]),
                max_bound: bound,
                simplify,
                aig,
                ..DetectorConfig::default()
            };
            DetectionJob::new(mode, config, Method::Sqed, Some(bug.clone()))
        })
        .collect()
}

/// One sweep mode's entry: its name, its model-checking wall time and its
/// solver counters, written as one flat object.
#[derive(Debug, Clone)]
struct ModeResult {
    mode: String,
    wall_ms: f64,
    solver: SolverReuseStats,
}

impl ModeResult {
    fn new(mode: &str, detection: &Detection) -> ModeResult {
        ModeResult {
            mode: mode.to_string(),
            wall_ms: detection.runtime.as_secs_f64() * 1e3,
            solver: detection.solver,
        }
    }
}

impl Serialize for ModeResult {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("mode".to_string(), self.mode.to_value()),
            ("wall_ms".to_string(), self.wall_ms.to_value()),
        ];
        if let Value::Object(counters) = Counters(self.solver).to_value() {
            fields.extend(counters);
        }
        Value::Object(fields)
    }
}

/// Robustness counters of the sweep batch, straight out of
/// [`BatchStats`](sepe_sqed::BatchStats): retries taken, degraded re-runs,
/// panics absorbed, and the per-reason tally of stopped jobs.  On a healthy
/// smoke run every counter is zero — the entry exists so the uploaded
/// artifact proves the fault-tolerance layer saw no work, and a nonzero
/// value in CI history is immediately visible.  Not part of the regression
/// gate.
#[derive(Debug, Clone, Serialize)]
struct RobustnessResult {
    retries: u64,
    degraded_runs: u64,
    panics: u64,
    witness_validations: u64,
    witness_mismatches: u64,
    stop_deadline: u64,
    stop_conflict_budget: u64,
    stop_memory_budget: u64,
    stop_cancelled: u64,
    stop_panicked: u64,
    stop_witness_mismatch: u64,
    stop_proof_mismatch: u64,
}

impl RobustnessResult {
    fn new(stats: &sepe_sqed::BatchStats) -> RobustnessResult {
        RobustnessResult {
            retries: stats.retries,
            degraded_runs: stats.degraded_runs,
            panics: stats.panics,
            witness_validations: stats.witness_validations,
            witness_mismatches: stats.witness_mismatches,
            stop_deadline: stats.stop_reasons.deadline,
            stop_conflict_budget: stats.stop_reasons.conflict_budget,
            stop_memory_budget: stats.stop_reasons.memory_budget,
            stop_cancelled: stats.stop_reasons.cancelled,
            stop_panicked: stats.stop_reasons.panicked,
            stop_witness_mismatch: stats.stop_reasons.witness_mismatch,
            stop_proof_mismatch: stats.stop_reasons.proof_mismatch,
        }
    }
}

/// The service-cache arm: cold vs hot submits through the full service
/// stack (wire protocol, admission queue, engine, crash-safe cache).  The
/// hot-pass contract is deterministic, so it is gated on every run without
/// a baseline: 100% hits, zero misses, zero encodes.
#[derive(Debug, Clone, Serialize)]
struct ServiceCacheResult {
    /// Mutations per submit.
    entries: usize,
    /// Wall time of the cold submit (computes + commits everything).
    cold_wall_ms: f64,
    /// Wall time of the hot submit (cache only; no solver work).
    hot_wall_ms: f64,
    /// Entries the cold pass computed.
    cold_computed: u64,
    /// Transition-system encodings the cold pass paid.
    cold_encodes: u64,
    /// Hot-pass cache hits (must equal `entries`).
    hot_hits: u64,
    /// Hot-pass cache misses (must be 0).
    hot_misses: u64,
    /// Hot-pass encodes (must be 0).
    hot_encodes: u64,
    /// `hot_hits / entries` (must be 1.0).
    hit_rate: f64,
}

/// Runs the service-cache arm against a throwaway loopback server.
fn run_service_cache() -> ServiceCacheResult {
    use sepe_service::{Client, Endpoint, Server, ServerConfig, SubmitRequest};
    use std::net::{Ipv4Addr, SocketAddr};

    let dir = std::env::temp_dir().join(format!("sepe-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir); // the cold pass must be cold
    let endpoint = Endpoint::Tcp(SocketAddr::from((Ipv4Addr::LOCALHOST, 0)));
    let server = Server::bind(ServerConfig::new(endpoint, &dir)).expect("bind loopback server");
    let addr = server.local_addr().expect("tcp endpoint has an address");
    let handle = std::thread::spawn(move || server.run());
    let client = Client::new(Endpoint::Tcp(addr));

    // Four Table-1 bugs whose trigger opcode is outside the {ADD, ADDI}
    // universe: provably clean at bound 2, i.e. fast conclusive verdicts —
    // the arm measures the service stack, not the solver.
    let request = SubmitRequest {
        mutations: ["single-sub", "single-xor", "single-or", "single-and"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        ..SubmitRequest::new(
            Method::Sqed,
            2,
            sepe_processor::ProcessorConfig::tiny()
                .with_opcodes(&[sepe_isa::Opcode::Add, sepe_isa::Opcode::Addi]),
        )
    };
    let entries = request.mutations.len();
    let cold_start = std::time::Instant::now();
    let cold = client.submit(&request).expect("cold submit");
    let cold_wall = cold_start.elapsed();
    let hot_start = std::time::Instant::now();
    let hot = client.submit(&request).expect("hot submit");
    let hot_wall = hot_start.elapsed();
    client.shutdown().expect("graceful shutdown");
    handle.join().expect("server thread").expect("drain");
    let _ = std::fs::remove_dir_all(&dir);

    ServiceCacheResult {
        entries,
        cold_wall_ms: cold_wall.as_secs_f64() * 1e3,
        hot_wall_ms: hot_wall.as_secs_f64() * 1e3,
        cold_computed: cold.done.computed,
        cold_encodes: cold.done.encodes,
        hot_hits: hot.done.from_cache,
        hot_misses: hot.done.computed,
        hot_encodes: hot.done.encodes,
        hit_rate: hot.done.from_cache as f64 / entries as f64,
    }
}

/// One prover's row of the `proofs` arm: the clean configuration it was
/// asked to prove and the mutated one it was asked to falsify, with the
/// prover-specific work counters (frames, cubes, pushed clauses) for the
/// artifact history.
#[derive(Debug, Clone, Serialize)]
struct ProofMethodResult {
    prover: String,
    /// Clean config: did the prover close an unbounded proof?
    clean_proved: bool,
    /// Clean config: did the certificate pass the independent-solver
    /// self-check? (Must be true whenever `clean_proved` is.)
    clean_self_checked: bool,
    clean_wall_ms: f64,
    /// PDR frontier the proof closed at (0 if none).
    clean_proof_depth: u64,
    clean_queries: u64,
    /// CNF variables of the prover's primary solver at the end of the clean
    /// run (history only, no gate).
    clean_cnf_vars: u64,
    /// SAT propagations of that solver over the clean run (history only).
    clean_propagations: u64,
    clean_cubes_blocked: u64,
    clean_clauses_pushed: u64,
    /// Mutated config: did the prover falsify it?
    bug_detected: bool,
    /// Length of the falsifying trace (0 if none).
    bug_trace_len: u64,
    /// The trace-length agreement gate: `"checked"` when PDR found a trace
    /// and its length was compared with the baseline's, `"SKIPPED"` when
    /// the run ended without a trace and the gate had nothing to compare.
    bug_trace_gate: String,
    bug_wall_ms: f64,
    /// PDR frontier the mutated run reached (its cap is 1).
    bug_frontier: u64,
    bug_queries: u64,
}

/// The `proofs` arm: PDR against one clean configuration (which it must
/// *prove* — the verdict bounded BMC can never give) and one Table-1
/// mutation, cross-checked against the plain bounded sweep.  Deterministic
/// agreement gates, checked on every run:
///
/// * PDR proves the clean config and its certificate self-checks;
/// * PDR never contradicts the baseline: no proof on the buggy design, and
///   any trace it does find matches the baseline's shortest trace.
#[derive(Debug, Clone, Serialize)]
struct ProofsResult {
    methods: Vec<ProofMethodResult>,
}

/// Runs the `proofs` arm; panics (exits nonzero) on any agreement failure.
fn run_proofs() -> ProofsResult {
    use sepe_processor::Mutation;
    use sepe_sqed::detect::{Detector, DetectorConfig};
    use sepe_tsys::ProofMethod;

    // The cheapest configuration PDR closes: single-ADD universe, SQED.
    let clean_processor =
        sepe_processor::ProcessorConfig::tiny().with_opcodes(&[sepe_isa::Opcode::Add]);
    // The falsification target: the first Table-1 bug under the universe
    // its trigger needs, SEPE-SQED at bound 3 (a length-3 shortest trace).
    let bug = Mutation::table1().into_iter().next().expect("table 1");
    let mut bug_ops = vec![sepe_isa::Opcode::Addi];
    bug_ops.extend(bug.target_opcode());
    let bug_processor = sepe_processor::ProcessorConfig::tiny().with_opcodes(&bug_ops);

    // The agreement reference: the plain bounded sweep's shortest trace.
    let reference_config = DetectorConfig::builder()
        .processor(bug_processor.clone())
        .bound(3)
        .build();
    let reference = Detector::new(reference_config).check(Method::SepeSqed, Some(&bug));
    assert!(
        reference.detected,
        "proofs arm: the bounded baseline must detect {}: {reference:?}",
        bug.name
    );

    // A per-query conflict budget (deterministic, unlike wall time) an
    // order of magnitude above what the proof needs.
    let clean_config = DetectorConfig::builder()
        .processor(clean_processor)
        .bound(4)
        .prove(ProofMethod::Pdr)
        .conflict_limit(5_000)
        .build();
    println!("bench-smoke:   Pdr / clean (prove)");
    let clean = Detector::new(clean_config).check(Method::Sqed, None);
    assert!(
        !clean.detected,
        "proofs arm: PDR falsified the clean config: {clean:?}"
    );
    assert!(
        clean.proved && !clean.inconclusive,
        "proofs arm: PDR must prove the clean config, got {clean:?}"
    );
    assert_eq!(
        clean.proof_checked,
        Some(true),
        "proofs arm: a proof that failed its self-check leaked out"
    );

    // PDR is a prover, not a bug-finder — its one-cube-at-a-time
    // enumeration is hopeless on a QED-sized state space — so it runs with
    // its frontier capped at 1 (a deterministic bound, unlike a deadline)
    // and is gated only on never contradicting: no proof on a buggy design,
    // and any trace it does find must match the baseline's length.
    let bug_config = DetectorConfig::builder()
        .processor(bug_processor)
        .bound(1)
        .prove(ProofMethod::Pdr)
        .build();
    println!("bench-smoke:   Pdr / mutated (falsify)");
    let faulty = Detector::new(bug_config).check(Method::SepeSqed, Some(&bug));
    assert!(
        !faulty.proved,
        "proofs arm: PDR proved a buggy design: {faulty:?}"
    );
    let bug_trace_gate = if faulty.detected {
        assert_eq!(
            faulty.trace_len, reference.trace_len,
            "proofs arm: PDR and the bounded baseline disagree on the shortest trace for {}",
            bug.name
        );
        "checked"
    } else {
        println!(
            "bench-smoke:   SKIPPED trace-length agreement gate: PDR found no trace \
             (frontier {})",
            faulty.bound_reached
        );
        "SKIPPED"
    };

    let work = clean.proof_work.clone().unwrap_or_default();
    let bug_work = faulty.proof_work.clone().unwrap_or_default();
    let methods = vec![ProofMethodResult {
        prover: ProofMethod::Pdr.to_string(),
        clean_proved: clean.proved,
        clean_self_checked: clean.proof_checked == Some(true),
        clean_wall_ms: clean.runtime.as_secs_f64() * 1e3,
        clean_proof_depth: clean.proof_depth.unwrap_or(0) as u64,
        clean_queries: work.queries,
        clean_cnf_vars: work.solver.cnf_vars,
        clean_propagations: work.solver.propagations,
        clean_cubes_blocked: work.cubes_blocked,
        clean_clauses_pushed: work.clauses_pushed,
        bug_detected: faulty.detected,
        bug_trace_len: faulty.trace_len.unwrap_or(0) as u64,
        bug_trace_gate: bug_trace_gate.to_string(),
        bug_wall_ms: faulty.runtime.as_secs_f64() * 1e3,
        bug_frontier: faulty.bound_reached as u64,
        bug_queries: bug_work.queries,
    }];
    ProofsResult { methods }
}

#[derive(Debug, Clone, Serialize)]
struct SmokeReport {
    bound: usize,
    opcode: String,
    modes: Vec<ModeResult>,
    robustness: RobustnessResult,
    service_cache: ServiceCacheResult,
    proofs: ProofsResult,
}

/// Verdicts of the comparison against a checked-in baseline.
#[derive(Debug, Default)]
struct Gate {
    /// A wall time or clause count exceeded its tolerance.
    regressed: bool,
    /// A SAT conflict count moved.
    search_changed: bool,
    /// The baseline and the run disagree on which arms or fields exist.
    stale: bool,
}

impl Gate {
    /// Marks the baseline stale for `name`, saying why.
    fn mark_stale(&mut self, name: &str, why: &str) {
        println!("  {name:<24} {why} STALE");
        self.stale = true;
    }

    /// The baseline's number for `field` of `name`'s entry; a missing one
    /// marks the baseline stale.
    fn expected(&mut self, entry: &Value, name: &str, field: &str) -> Option<f64> {
        let value = entry.get(field).and_then(Value::as_f64);
        if value.is_none() {
            self.mark_stale(name, &format!("has no baseline {field}"));
        }
        value
    }

    /// Fails the gate when `measured` exceeds `factor` times the baseline.
    fn at_most(&mut self, name: &str, unit: &str, measured: f64, expected: f64, factor: f64) {
        let ratio = measured / expected;
        let verdict = if ratio > factor {
            self.regressed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        let digits = usize::from(unit == "ms");
        println!(
            "  {name:<24} {measured:>9.digits$} {unit} vs baseline {expected:>9.digits$} {unit} \
             ({ratio:.2}x) {verdict}"
        );
    }
}

/// The `mode` name of a baseline entry (empty when it has none).
fn mode_of(entry: &Value) -> &str {
    entry.get("mode").and_then(Value::as_str).unwrap_or("")
}

const USAGE: &str = "usage: bench_smoke [--bound N] [--out PATH] [--baseline PATH]";

/// The parsed command line.
struct Options {
    bound: usize,
    out_path: String,
    baseline_path: Option<String>,
}

/// Parses the command line; an unknown argument, a flag without a value or
/// a non-numeric bound is an error.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        // Bound 6 is the first depth where the SQED consistency query is
        // hard (bound 5 finishes in milliseconds): small enough for a CI
        // smoke run, big enough that learnt-database reduction fires.
        bound: 6,
        out_path: "BENCH_smoke.json".to_string(),
        baseline_path: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .filter(|v| !v.starts_with("--"))
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--bound" => {
                let value = value?;
                options.bound = value
                    .parse()
                    .map_err(|_| format!("--bound takes a number, got {value}"))?;
            }
            "--out" => options.out_path = value?,
            "--baseline" => options.baseline_path = Some(value?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(options)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        bound,
        out_path,
        baseline_path,
    } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("bench_smoke: {e}\n{USAGE}");
        std::process::exit(2)
    });

    println!("bench-smoke: SQED sweep, tiny/ADD-only, bound {bound}");
    let sweep = Engine::new(1).run(sweep_jobs(bound));
    for d in &sweep.detections {
        assert!(!d.detected, "SQED must miss the Table-1 bug");
        assert!(!d.inconclusive, "the smoke sweep runs without budgets");
    }

    println!("bench-smoke: service cache arm (cold vs hot submit)");
    let service_cache = run_service_cache();

    println!("bench-smoke: proofs arm (PDR, prove clean / falsify mutated)");
    let proofs = run_proofs();

    let report = SmokeReport {
        bound,
        opcode: "ADD".to_string(),
        modes: MODES
            .iter()
            .zip(&sweep.detections)
            .map(|(&(mode, ..), d)| ModeResult::new(mode, d))
            .collect(),
        robustness: RobustnessResult::new(&sweep.stats),
        service_cache,
        proofs,
    };
    for m in &report.modes {
        let (s, e) = (&m.solver, &m.solver.encode);
        println!(
            "  {:<24} {:>9.1} ms  {:>8} conflicts  learnt hw {:>6} (deleted {:>6}, retained {:>6})",
            m.mode,
            m.wall_ms,
            s.conflicts,
            s.learnt_high_water,
            s.learnt_deleted,
            s.learnt_retained,
        );
        println!(
            "  {:<24} cache {:>6}/{:>6}  rewritten {:>6} (rules {:>6}, pins {:>6}, dropped {:>6}, coi-dropped {:>4})",
            "", e.terms_cached, e.terms_reused, e.rewrite.terms_rewritten, e.rewrite.rule_applications,
            e.rewrite.pins, e.rewrite.assertions_dropped, e.rewrite.coi_dropped_updates,
        );
        println!(
            "  {:<24} aig {:>7} nodes (strash {:>7}, folded {:>7}, rw {:>5})  cnf {:>7} vars / {:>8} clauses",
            "", e.aig.nodes, e.aig.strash_hits, e.aig.consts_folded, e.aig.rewrites, s.cnf_vars,
            s.cnf_clauses,
        );
    }
    let find = |mode: &str| report.modes.iter().find(|m| m.mode == mode);
    if let (Some(on), Some(off)) = (find("incremental"), find("incremental_norewrite")) {
        println!(
            "  rewrite-on vs rewrite-off: {:.2}x wall, {:.2}x conflicts",
            off.wall_ms / on.wall_ms,
            off.solver.conflicts as f64 / (on.solver.conflicts.max(1)) as f64,
        );
    }
    if let (Some(on), Some(off)) = (find("incremental"), find("aig_off")) {
        println!(
            "  aig-on vs aig-off: {:.2}x wall, {:.2}x CNF clauses, {:.2}x CNF vars",
            off.wall_ms / on.wall_ms,
            off.solver.cnf_clauses as f64 / (on.solver.cnf_clauses.max(1)) as f64,
            off.solver.cnf_vars as f64 / (on.solver.cnf_vars.max(1)) as f64,
        );
    }
    println!(
        "  robustness: {} retries, {} degraded, {} panics, {} stopped jobs",
        report.robustness.retries,
        report.robustness.degraded_runs,
        report.robustness.panics,
        report.robustness.stop_deadline
            + report.robustness.stop_conflict_budget
            + report.robustness.stop_memory_budget
            + report.robustness.stop_cancelled
            + report.robustness.stop_panicked,
    );
    println!(
        "  service cache ({} entries): cold {:>8.1} ms ({} computed, {} encodes), \
         hot {:>8.1} ms ({} hits, {} misses, {} encodes, {:.0}% hit rate)",
        report.service_cache.entries,
        report.service_cache.cold_wall_ms,
        report.service_cache.cold_computed,
        report.service_cache.cold_encodes,
        report.service_cache.hot_wall_ms,
        report.service_cache.hot_hits,
        report.service_cache.hot_misses,
        report.service_cache.hot_encodes,
        report.service_cache.hit_rate * 100.0,
    );

    for m in &report.proofs.methods {
        println!(
            "  proofs/{:<12} clean: {} in {:>8.1} ms (depth {}, {} queries, {} cnf vars, \
             {} props, {} cubes, {} pushed)  bug: {} in {:>8.1} ms (trace {}, frontier {}, \
             {} queries)",
            m.prover,
            if m.clean_proved {
                "PROVED"
            } else {
                "bounded-clean"
            },
            m.clean_wall_ms,
            m.clean_proof_depth,
            m.clean_queries,
            m.clean_cnf_vars,
            m.clean_propagations,
            m.clean_cubes_blocked,
            m.clean_clauses_pushed,
            if m.bug_detected {
                "falsified"
            } else {
                "MISSED"
            },
            m.bug_wall_ms,
            m.bug_trace_len,
            m.bug_frontier,
            m.bug_queries,
        );
    }

    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    std::fs::write(&out_path, format!("{json}\n")).expect("write smoke report");
    println!("wrote {out_path}");

    // The service-cache contract is deterministic, so it gates on every
    // run without a baseline: a hot pass that computes anything means the
    // cache key, the atomic commit, or the recovery path broke.
    if report.service_cache.hot_hits != report.service_cache.entries as u64
        || report.service_cache.hot_misses != 0
        || report.service_cache.hot_encodes != 0
    {
        eprintln!(
            "bench-smoke: service cache hot pass must be 100% hits with zero encodes \
             (got {} hits / {} misses / {} encodes over {} entries)",
            report.service_cache.hot_hits,
            report.service_cache.hot_misses,
            report.service_cache.hot_encodes,
            report.service_cache.entries,
        );
        std::process::exit(1);
    }

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("cannot parse baseline {path}: {e}"));
        let mut gate = Gate::default();
        let entries = baseline
            .get("modes")
            .and_then(Value::as_array)
            .unwrap_or(&[]);
        for entry in entries {
            if !report.modes.iter().any(|m| m.mode == mode_of(entry)) {
                gate.mark_stale(mode_of(entry), "is in the baseline but was not measured");
            }
        }
        for m in &report.modes {
            let Some(entry) = entries.iter().find(|e| mode_of(e) == m.mode) else {
                gate.mark_stale(&m.mode, "was measured but has no baseline entry");
                continue;
            };
            if let Some(expected) = gate.expected(entry, &m.mode, "wall_ms") {
                gate.at_most(&m.mode, "ms", m.wall_ms, expected, REGRESSION_FACTOR);
            }
            // The clause gate is the noise-free half: counts are
            // deterministic on identical code, so exceeding the tight
            // factor means the encoding itself regressed, not the runner.
            if let Some(expected) = gate.expected(entry, &m.mode, "cnf_clauses") {
                let clauses = m.solver.cnf_clauses as f64;
                gate.at_most(
                    &m.mode,
                    "clauses",
                    clauses,
                    expected,
                    CLAUSE_REGRESSION_FACTOR,
                );
            }
            // Storage and propagation changes keep every decision, so the
            // conflict count is exact; only a search change may move it.
            if let Some(expected) = gate.expected(entry, &m.mode, "conflicts") {
                let verdict = if m.solver.conflicts as f64 == expected {
                    "ok"
                } else {
                    gate.search_changed = true;
                    "SEARCH CHANGED"
                };
                println!(
                    "  {:<24} {:>9} conflicts vs baseline {:>9.0} {verdict}",
                    m.mode, m.solver.conflicts, expected
                );
            }
        }
        if gate.stale {
            eprintln!(
                "bench-smoke: {path} does not match the measured arms — refresh the baseline"
            );
        }
        if gate.search_changed {
            eprintln!(
                "bench-smoke: SAT conflicts differ from {path}: search changed — refresh the baseline"
            );
        }
        if gate.regressed {
            eprintln!(
                "bench-smoke: wall time (>{REGRESSION_FACTOR}x) or CNF clause count \
                 (>{CLAUSE_REGRESSION_FACTOR}x) regressed against {path}"
            );
        }
        if gate.stale || gate.search_changed || gate.regressed {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn known_flags_parse() {
        let options =
            parse(&["--bound", "4", "--baseline", "base.json", "--out", "o.json"]).unwrap();
        assert_eq!(options.bound, 4);
        assert_eq!(options.out_path, "o.json");
        assert_eq!(options.baseline_path.as_deref(), Some("base.json"));
        let defaults = parse(&[]).unwrap();
        assert_eq!((defaults.bound, defaults.baseline_path), (6, None));
    }

    #[test]
    fn unknown_flags_and_missing_values_are_errors() {
        for args in [
            &["--basline", "BENCH_baseline.json"][..],
            &["--jobs", "2"],
            &["stray"],
            &["--baseline"],
            &["--out", "--baseline", "b.json"],
            &["--bound", "six"],
        ] {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
    }

    #[test]
    fn mode_entries_keep_the_baseline_keys_in_order() {
        let keys = |entry: &Value| -> Vec<String> {
            let fields = entry.as_object().expect("a mode entry is an object");
            fields.iter().map(|(k, _)| k.clone()).collect()
        };
        let entry = ModeResult {
            mode: "incremental".to_string(),
            wall_ms: 0.0,
            solver: SolverReuseStats::default(),
        };
        let measured = keys(&entry.to_value());
        let baseline: Value =
            serde_json::from_str(include_str!("../../../../BENCH_baseline.json")).unwrap();
        let entries = baseline.get("modes").and_then(Value::as_array).unwrap();
        assert!(!entries.is_empty());
        for entry in entries {
            assert_eq!(keys(entry), measured, "{}", mode_of(entry));
        }
    }
}
