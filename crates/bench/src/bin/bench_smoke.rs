//! CI smoke benchmark: a tiny `incremental_vs_scratch` configuration with a
//! machine-readable result and a regression gate.
//!
//! Runs the shared [`sepe_bench::sweep`] protocol (one Table-1 SQED sweep,
//! tiny processor, ADD only — the bug is invisible to SQED, so every depth
//! is explored) in four BMC configurations:
//!
//! * `incremental` — [`BmcMode::PerDepth`] on the persistent solver with
//!   word-level rewriting + cone-of-influence reduction and the gate-level
//!   AIG layer on (the default pipeline),
//! * `aig_off` — the same mode with the AIG reductions off (no structural
//!   hashing, no local rewriting, biconditional Tseitin): the arm that
//!   isolates what the gate-level layer buys,
//! * `incremental_norewrite` — the default pipeline with the word-level
//!   preprocessing off: the rewrite-on-vs-off arm that isolates what the
//!   simplification pipeline buys,
//! * `scratch` — [`BmcMode::PerDepthScratch`] with all preprocessing off,
//!   the PR-1-era re-encoding baseline.
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
//! A fifth, **parallel** arm runs a batch of identical copies of the
//! `incremental` sweep on the work-stealing detection engine
//! (`sepe_sqed::parallel`), once with one worker and once with `--jobs N`
//! workers (default: available parallelism / `SEPE_JOBS`), and records the
//! realised speedup.  The regression gate deliberately ignores the parallel
//! numbers — they depend on the runner's core count — and keeps judging the
//! deterministic single-worker modes only.
//!
//! The parallel batch also feeds a `robustness` entry — retries taken,
//! degraded re-runs, panics absorbed, and stopped-job tallies by stop
//! reason, straight from the engine's `BatchStats`.  A healthy run reports
//! all zeros; the entry exists so the CI artifact history makes any
//! engine-level recovery activity visible at a glance.  Also outside the
//! regression gate.
//!
//! A sixth, **batched** arm answers a twenty-entry mutation catalogue
//! over one shared unrolling (`sepe_sqed::BatchedDetector` via
//! `BatchSpec::catalogue`): one encoding, one persistent solver, one-hot
//! activation-literal flips per entry and depth.  Its counters are
//! deterministic, so it *is* gated: the shared encoding's clause count
//! gets the tight clause gate, and the throughput ratio (per-job total
//! clauses / batched shared clauses) must clear a hard 5x floor on every
//! run and hold its baseline value when `--baseline` is given.
//!
//! A seventh, **service_cache** arm boots the detection service
//! (`sepe_service`) on a loopback socket with a fresh crash-safe result
//! cache and submits the same small catalogue twice.  The cold pass
//! computes and commits every verdict; the hot pass must be answered
//! *entirely* from the cache.  That contract is deterministic, so it is a
//! hard gate on every run (no baseline needed): the hot pass must be 100%
//! cache hits with zero misses and zero solver encodes, or the run exits
//! nonzero.  Wall times are recorded for the artifact history only.
//!
//! An eighth, **proofs** arm runs both unbounded provers (k-induction and
//! IC3/PDR) against one clean configuration and one Table-1 mutation.  The
//! clean config must come back **Proved** by PDR — the verdict no bounded
//! sweep can give — with its inductive invariant re-verified on an
//! independent solver; k-induction must falsify the mutation with exactly
//! the bounded baseline's shortest trace; and neither prover may ever
//! contradict the baseline.  Those contracts are deterministic, so they
//! are hard gates on every run; the proof work counters (frontier depth,
//! queries, the prover solver's CNF variables and propagations, cubes
//! blocked, clauses pushed, uniqueness constraints) are recorded for the
//! artifact history only.
//!
//! Usage:
//!   bench_smoke [--bound N] [--jobs N] [--out BENCH_smoke.json] [--baseline BENCH_baseline.json]

use serde::{Serialize, Value};

use sepe_bench::{jobs_from_args, sweep};
use sepe_smt::SolverReuseStats;
use sepe_sqed::detect::Method;
use sepe_sqed::parallel::{BatchSpec, Engine};
use sepe_tsys::BmcMode;

/// Wall-time regression tolerance against the checked-in baseline (loose:
/// runner hardware varies).
const REGRESSION_FACTOR: f64 = 1.5;

/// CNF clause-count regression tolerance (tight: the count is deterministic
/// on identical code, so anything beyond float-formatting slack is a real
/// encoding regression — intentional encoding changes refresh the baseline,
/// as its `note` describes).
const CLAUSE_REGRESSION_FACTOR: f64 = 1.05;

/// Minimum batched-throughput ratio (per-job total CNF clauses over the
/// batched shared encoding's clauses, for the same catalogue).  Both counts
/// are deterministic on identical code, so this is a hard floor, checked on
/// every run: the in-solver batched path must answer the catalogue at least
/// this many times cheaper than one encoding per entry.
const BATCHED_THROUGHPUT_FLOOR: f64 = 5.0;

/// Catalogue entries of the batched arm (the ISSUE-scale twenty-mutation
/// catalogue).
const BATCHED_ENTRIES: usize = 20;

#[derive(Debug, Clone, Serialize)]
struct ModeResult {
    mode: String,
    wall_ms: f64,
    conflicts: u64,
    learnt_high_water: u64,
    learnt_deleted: u64,
    learnt_retained: u64,
    terms_cached: u64,
    terms_reused: u64,
    terms_rewritten: u64,
    rewrite_rules: u64,
    rewrite_pins: u64,
    assertions_dropped: u64,
    coi_dropped: u64,
    aig_nodes: u64,
    aig_strash_hits: u64,
    aig_consts_folded: u64,
    aig_rewrites: u64,
    cnf_vars: u64,
    cnf_clauses: u64,
}

impl ModeResult {
    fn new(mode: &str, wall: std::time::Duration, solver: SolverReuseStats) -> ModeResult {
        ModeResult {
            mode: mode.to_string(),
            wall_ms: wall.as_secs_f64() * 1e3,
            conflicts: solver.conflicts,
            learnt_high_water: solver.learnt_high_water,
            learnt_deleted: solver.learnt_deleted,
            learnt_retained: solver.learnt_retained,
            terms_cached: solver.encode.terms_cached,
            terms_reused: solver.encode.terms_reused,
            terms_rewritten: solver.encode.rewrite.terms_rewritten,
            rewrite_rules: solver.encode.rewrite.rule_applications,
            rewrite_pins: solver.encode.rewrite.pins,
            assertions_dropped: solver.encode.rewrite.assertions_dropped,
            coi_dropped: solver.encode.rewrite.coi_dropped_updates,
            aig_nodes: solver.encode.aig.nodes,
            aig_strash_hits: solver.encode.aig.strash_hits,
            aig_consts_folded: solver.encode.aig.consts_folded,
            aig_rewrites: solver.encode.aig.rewrites,
            cnf_vars: solver.cnf_vars,
            cnf_clauses: solver.cnf_clauses,
        }
    }
}

/// The parallel-engine arm: the same batch of identical sweep jobs timed
/// with one worker and with `workers` workers.  Not part of the regression
/// gate (the speedup depends on the runner's core count); recorded so the
/// uploaded artifact tracks engine scaling over time.
#[derive(Debug, Clone, Serialize)]
struct ParallelResult {
    /// Identical sweep copies in the batch.
    batch_jobs: usize,
    /// Worker threads of the parallel run.
    workers: usize,
    /// Batch wall time with one worker (the sequential reference).
    wall_ms_jobs1: f64,
    /// Batch wall time with `workers` workers.
    wall_ms_jobsn: f64,
    /// `wall_ms_jobs1 / wall_ms_jobsn` — bounded above by `workers` and by
    /// the machine's core count.
    speedup: f64,
}

/// Robustness counters of the parallel batch, straight out of
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
    /// Catalogue entries per submit.
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

/// One prover's half of the `proofs` arm: the clean configuration it was
/// asked to prove and the mutated one it was asked to falsify, with the
/// prover-specific work counters (frames, cubes, pushed clauses,
/// uniqueness constraints) for the artifact history.
#[derive(Debug, Clone, Serialize)]
struct ProofMethodResult {
    prover: String,
    /// Clean config: did the prover close an unbounded proof?
    clean_proved: bool,
    /// Clean config: did the certificate pass the independent-solver
    /// self-check? (Must be true whenever `clean_proved` is.)
    clean_self_checked: bool,
    clean_wall_ms: f64,
    /// Induction depth / PDR frontier the proof closed at (0 if none).
    clean_proof_depth: u64,
    clean_queries: u64,
    /// CNF variables of the prover's primary solver at the end of the clean
    /// run (history only, no gate).
    clean_cnf_vars: u64,
    /// SAT propagations of that solver over the clean run (history only).
    clean_propagations: u64,
    clean_cubes_blocked: u64,
    clean_clauses_pushed: u64,
    clean_uniqueness_constraints: u64,
    /// Mutated config: did the prover falsify it?
    bug_detected: bool,
    /// Length of the falsifying trace (0 if none).
    bug_trace_len: u64,
    bug_wall_ms: f64,
}

/// The `proofs` arm: both unbounded provers against one clean configuration
/// (which PDR must *prove* — the verdict bounded BMC can never give) and
/// one Table-1 mutation, cross-checked against the plain bounded sweep.
/// Deterministic agreement gates, checked on every run:
///
/// * PDR proves the clean config and its certificate self-checks;
/// * neither prover reports a counterexample on the clean config —
///   k-induction cannot close this proof (the property is not
///   k-inductive) and stops `Unknown` at a deterministic conflict budget;
/// * k-induction falsifies the mutation with exactly the bounded
///   baseline's shortest trace, and neither prover ever contradicts the
///   baseline (no proof on the buggy design; any trace found matches).
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

    let mut methods = Vec::new();
    for prover in [ProofMethod::KInduction, ProofMethod::Pdr] {
        // The conflict budget is the smoke cap for the prover that *cannot*
        // close this proof: QED's property is not k-inductive, so
        // k-induction alone grinds on ever-harder step queries forever and
        // must be stopped deterministically (conflicts, unlike wall time,
        // are identical on every runner).  PDR's whole proof costs a few
        // hundred conflicts, so an order of magnitude of headroom keeps the
        // budget invisible to it while k-induction's much more expensive
        // induction-step conflicts stay inside the smoke window.
        let clean_config = DetectorConfig::builder()
            .processor(clean_processor.clone())
            .bound(4)
            .prove(prover)
            .conflict_limit(5_000)
            .build();
        println!("bench-smoke:   {prover:?} / clean (prove)");
        let clean = Detector::new(clean_config).check(Method::Sqed, None);
        assert!(
            !clean.detected,
            "proofs arm: {prover:?} falsified the clean config: {clean:?}"
        );
        if prover == ProofMethod::Pdr {
            assert!(
                clean.proved && !clean.inconclusive,
                "proofs arm: PDR must prove the clean config, got {clean:?}"
            );
        }
        if clean.proved {
            assert_eq!(
                clean.proof_checked,
                Some(true),
                "proofs arm: a proof that failed its self-check leaked out"
            );
        }

        // Falsification is a bounded job at heart: k-induction's base
        // solver *is* the bounded sweep, so it must reproduce the
        // baseline's shortest trace exactly, with no budget needed.  PDR
        // is a prover, not a bug-finder — its one-cube-at-a-time
        // enumeration is hopeless on a QED-sized state space — so it runs
        // under a short deadline and is gated only on never contradicting:
        // no proof on a buggy design, and any trace it does find must
        // match the baseline's length.
        let mut bug_builder = DetectorConfig::builder()
            .processor(bug_processor.clone())
            .bound(3)
            .prove(prover);
        if prover == ProofMethod::Pdr {
            bug_builder = bug_builder.time_limit(std::time::Duration::from_secs(10));
        }
        let bug_config = bug_builder.build();
        println!("bench-smoke:   {prover:?} / mutated (falsify)");
        let faulty = Detector::new(bug_config).check(Method::SepeSqed, Some(&bug));
        assert!(
            !faulty.proved,
            "proofs arm: {prover:?} proved a buggy design: {faulty:?}"
        );
        if prover == ProofMethod::KInduction {
            assert!(
                faulty.detected,
                "proofs arm: k-induction must falsify {}: {faulty:?}",
                bug.name
            );
        }
        if faulty.detected {
            assert_eq!(
                faulty.trace_len, reference.trace_len,
                "proofs arm: {prover:?} and the bounded baseline disagree on the \
                 shortest trace for {}",
                bug.name
            );
        }

        let work = clean.proof_work.clone().unwrap_or_default();
        methods.push(ProofMethodResult {
            prover: match prover {
                ProofMethod::KInduction => "k-induction".to_string(),
                ProofMethod::Pdr => "pdr".to_string(),
            },
            clean_proved: clean.proved,
            clean_self_checked: clean.proof_checked == Some(true),
            clean_wall_ms: clean.runtime.as_secs_f64() * 1e3,
            clean_proof_depth: clean.proof_depth.unwrap_or(0) as u64,
            clean_queries: work.queries,
            clean_cnf_vars: work.solver.cnf_vars,
            clean_propagations: work.solver.propagations,
            clean_cubes_blocked: work.cubes_blocked,
            clean_clauses_pushed: work.clauses_pushed,
            clean_uniqueness_constraints: work.uniqueness_constraints,
            bug_detected: faulty.detected,
            bug_trace_len: faulty.trace_len.unwrap_or(0) as u64,
            bug_wall_ms: faulty.runtime.as_secs_f64() * 1e3,
        });
    }

    // The headline: the clean config is *proved*, not merely bounded-clean.
    assert!(
        methods.iter().any(|m| m.clean_proved),
        "proofs arm: no prover closed the clean-config proof"
    );

    ProofsResult { methods }
}

/// The batched in-solver arm: [`BATCHED_ENTRIES`] identical copies of the
/// sweep's mutation answered over **one** shared unrolling
/// (`sepe_sqed::BatchedDetector` behind `BatchSpec::catalogue`).  The
/// encode-once counters are deterministic, so unlike the parallel arm this
/// one *is* part of the regression gate: `cnf_clauses` gets the tight
/// clause gate and `throughput` (per-job total clauses / batched shared
/// clauses) must clear [`BATCHED_THROUGHPUT_FLOOR`] and hold its baseline.
#[derive(Debug, Clone, Serialize)]
struct BatchedResult {
    /// Catalogue entries answered.
    entries: usize,
    /// Wall time of the whole batched run.
    wall_ms: f64,
    /// `check_assuming` queries issued on the shared solver.
    queries: u64,
    /// Transition-system encodings paid (1 on a healthy run).
    encodes: u64,
    /// Entries answered by the per-job fallback path (0 on a healthy run).
    fallbacks: u64,
    /// SAT conflicts spent by the shared solver.
    shared_conflicts: u64,
    /// CNF variables of the one shared encoding.
    cnf_vars: u64,
    /// CNF clauses of the one shared encoding.
    cnf_clauses: u64,
    /// What the per-job engine pays for the same catalogue: the measured
    /// single-job clause count times `entries`.
    perjob_cnf_clauses: u64,
    /// `perjob_cnf_clauses / cnf_clauses` — the deterministic form of the
    /// batched-throughput claim.
    throughput: f64,
    /// `entries / encodes` — encodings the batched path avoided.
    encode_ratio: f64,
}

#[derive(Debug, Clone, Serialize)]
struct SmokeReport {
    bound: usize,
    opcode: String,
    modes: Vec<ModeResult>,
    parallel: ParallelResult,
    robustness: RobustnessResult,
    batched: BatchedResult,
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

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Bound 6 is the first depth where the SQED consistency query is hard
    // (bound 5 finishes in milliseconds): small enough for a CI smoke run,
    // big enough that learnt-database reduction actually fires.
    let bound: usize = arg_value(&args, "--bound")
        .map(|v| v.parse().expect("--bound takes a number"))
        .unwrap_or(6);
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_smoke.json".to_string());
    let baseline_path = arg_value(&args, "--baseline");

    let bug = sweep::bug(); // ADD off by one
    println!("bench-smoke: SQED sweep, tiny/ADD-only, bound {bound}");
    let (incr_wall, incr_solver) = sweep::run_with(bound, BmcMode::PerDepth, &bug, true, true);
    let (noaig_wall, noaig_solver) = sweep::run_with(bound, BmcMode::PerDepth, &bug, true, false);
    let (raw_wall, raw_solver) = sweep::run_with(bound, BmcMode::PerDepth, &bug, false, true);
    let (scratch_wall, scratch_solver) =
        sweep::run_with(bound, BmcMode::PerDepthScratch, &bug, false, false);

    // Parallel arm: the same sweep × BATCH_COPIES, one worker vs N workers.
    const BATCH_COPIES: usize = 4;
    let workers = jobs_from_args();
    let seq = Engine::new(1)
        .run(sweep::batch_jobs(bound, BATCH_COPIES))
        .expect_jobs();
    let par = Engine::new(workers)
        .run(sweep::batch_jobs(bound, BATCH_COPIES))
        .expect_jobs();
    for d in seq.detections.iter().chain(&par.detections) {
        assert!(!d.detected, "SQED must miss the Table-1 bug");
        assert!(!d.inconclusive, "the smoke batch runs without budgets");
    }

    // Batched in-solver arm: one shared unrolling answers BATCHED_ENTRIES
    // activation-guarded copies of the same mutation.  The per-job clause
    // reference comes from the sequential arm above (identical jobs, so any
    // one of its detections carries the single-encoding clause count).
    let shared_config = sweep::detector(bound, BmcMode::PerDepth).config().clone();
    let batched_outcome = Engine::new(1)
        .run(BatchSpec::catalogue(
            Method::Sqed,
            shared_config,
            sweep::catalogue(BATCHED_ENTRIES),
        ))
        .expect_catalogue();
    for d in &batched_outcome.detections {
        assert!(!d.detected, "SQED must miss the Table-1 bug");
        assert!(!d.inconclusive, "the smoke catalogue runs without budgets");
    }
    let bstats = &batched_outcome.stats;
    let perjob_clauses = seq
        .detections
        .first()
        .map(|d| d.solver.cnf_clauses)
        .unwrap_or(0)
        * BATCHED_ENTRIES as u64;
    let batched = BatchedResult {
        entries: BATCHED_ENTRIES,
        wall_ms: bstats.wall.as_secs_f64() * 1e3,
        queries: bstats.queries,
        encodes: bstats.encodes,
        fallbacks: bstats.fallbacks,
        shared_conflicts: bstats.shared_conflicts,
        cnf_vars: bstats.solver.cnf_vars,
        cnf_clauses: bstats.solver.cnf_clauses,
        perjob_cnf_clauses: perjob_clauses,
        throughput: perjob_clauses as f64 / (bstats.solver.cnf_clauses.max(1)) as f64,
        encode_ratio: BATCHED_ENTRIES as f64 / (bstats.encodes.max(1)) as f64,
    };
    let robustness = RobustnessResult::new(&par.stats);
    let parallel = ParallelResult {
        batch_jobs: BATCH_COPIES,
        // The effective count (the engine clamps to the batch size), not
        // the requested one — this is the scaling denominator.
        workers: par.stats.workers,
        wall_ms_jobs1: seq.stats.wall.as_secs_f64() * 1e3,
        wall_ms_jobsn: par.stats.wall.as_secs_f64() * 1e3,
        speedup: seq.stats.wall.as_secs_f64() / par.stats.wall.as_secs_f64().max(1e-9),
    };

    println!("bench-smoke: service cache arm (cold vs hot submit)");
    let service_cache = run_service_cache();

    println!("bench-smoke: proofs arm (k-induction + PDR, prove clean / falsify mutated)");
    let proofs = run_proofs();

    let report = SmokeReport {
        bound,
        opcode: "ADD".to_string(),
        modes: vec![
            ModeResult::new("incremental", incr_wall, incr_solver),
            ModeResult::new("aig_off", noaig_wall, noaig_solver),
            ModeResult::new("incremental_norewrite", raw_wall, raw_solver),
            ModeResult::new("scratch", scratch_wall, scratch_solver),
        ],
        parallel,
        robustness,
        batched,
        service_cache,
        proofs,
    };
    for m in &report.modes {
        println!(
            "  {:<24} {:>9.1} ms  {:>8} conflicts  learnt hw {:>6} (deleted {:>6}, retained {:>6})",
            m.mode,
            m.wall_ms,
            m.conflicts,
            m.learnt_high_water,
            m.learnt_deleted,
            m.learnt_retained,
        );
        println!(
            "  {:<24} cache {:>6}/{:>6}  rewritten {:>6} (rules {:>6}, pins {:>6}, dropped {:>6}, coi-dropped {:>4})",
            "", m.terms_cached, m.terms_reused, m.terms_rewritten, m.rewrite_rules, m.rewrite_pins,
            m.assertions_dropped, m.coi_dropped,
        );
        println!(
            "  {:<24} aig {:>7} nodes (strash {:>7}, folded {:>7}, rw {:>5})  cnf {:>7} vars / {:>8} clauses",
            "", m.aig_nodes, m.aig_strash_hits, m.aig_consts_folded, m.aig_rewrites, m.cnf_vars,
            m.cnf_clauses,
        );
    }
    let find = |mode: &str| report.modes.iter().find(|m| m.mode == mode);
    if let (Some(on), Some(off)) = (find("incremental"), find("incremental_norewrite")) {
        println!(
            "  rewrite-on vs rewrite-off: {:.2}x wall, {:.2}x conflicts",
            off.wall_ms / on.wall_ms,
            off.conflicts as f64 / (on.conflicts.max(1)) as f64,
        );
    }
    if let (Some(on), Some(off)) = (find("incremental"), find("aig_off")) {
        println!(
            "  aig-on vs aig-off: {:.2}x wall, {:.2}x CNF clauses, {:.2}x CNF vars",
            off.wall_ms / on.wall_ms,
            off.cnf_clauses as f64 / (on.cnf_clauses.max(1)) as f64,
            off.cnf_vars as f64 / (on.cnf_vars.max(1)) as f64,
        );
    }
    println!(
        "  parallel batch ({} jobs): {:>9.1} ms on 1 worker, {:>9.1} ms on {} workers = {:.2}x speedup",
        report.parallel.batch_jobs,
        report.parallel.wall_ms_jobs1,
        report.parallel.wall_ms_jobsn,
        report.parallel.workers,
        report.parallel.speedup,
    );
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
        "  batched catalogue ({} entries): {:>9.1} ms, {} queries, {} encodes, {} fallbacks, \
         {} shared clauses vs {} per-job = {:.2}x throughput ({:.0}x fewer encodings)",
        report.batched.entries,
        report.batched.wall_ms,
        report.batched.queries,
        report.batched.encodes,
        report.batched.fallbacks,
        report.batched.cnf_clauses,
        report.batched.perjob_cnf_clauses,
        report.batched.throughput,
        report.batched.encode_ratio,
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
             {} props, {} cubes, {} pushed, {} uniq)  bug: {} in {:>8.1} ms (trace {})",
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
            m.clean_uniqueness_constraints,
            if m.bug_detected {
                "falsified"
            } else {
                "MISSED"
            },
            m.bug_wall_ms,
            m.bug_trace_len,
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

    // The throughput floor is baseline-free: both clause counts are
    // deterministic, so falling below the floor means the shared encoding
    // itself bloated (or the batch fell back to per-job runs).
    if report.batched.throughput < BATCHED_THROUGHPUT_FLOOR {
        eprintln!(
            "bench-smoke: batched throughput {:.2}x is below the {BATCHED_THROUGHPUT_FLOOR}x floor",
            report.batched.throughput
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
                let clauses = m.cnf_clauses as f64;
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
                let verdict = if m.conflicts as f64 == expected {
                    "ok"
                } else {
                    gate.search_changed = true;
                    "SEARCH CHANGED"
                };
                println!(
                    "  {:<24} {:>9} conflicts vs baseline {:>9.0} {verdict}",
                    m.mode, m.conflicts, expected
                );
            }
        }
        // Batched arm: the shared encoding's clause count gets the tight
        // deterministic gate, and the throughput ratio must hold whatever
        // the baseline recorded (both sides of the ratio are deterministic,
        // so a drop means the batched path lost ground to per-job).
        match baseline.get("batched") {
            None => gate.mark_stale("batched", "was measured but has no baseline entry"),
            Some(entry) => {
                if let Some(expected) = gate.expected(entry, "batched", "cnf_clauses") {
                    let clauses = report.batched.cnf_clauses as f64;
                    gate.at_most(
                        "batched",
                        "clauses",
                        clauses,
                        expected,
                        CLAUSE_REGRESSION_FACTOR,
                    );
                }
                if let Some(expected) = gate.expected(entry, "batched", "throughput") {
                    let verdict = if report.batched.throughput < expected / CLAUSE_REGRESSION_FACTOR
                    {
                        gate.regressed = true;
                        "REGRESSED"
                    } else {
                        "ok"
                    };
                    println!(
                        "  {:<24} {:.2}x throughput vs baseline {expected:.2}x {verdict}",
                        "batched", report.batched.throughput
                    );
                }
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
