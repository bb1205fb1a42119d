//! `bughunt_service`: hunt single-instruction bugs through the detection
//! service.  An in-process `sepe_service` server (one job worker, a fresh
//! cache directory per pass) is driven by one closed-loop `Client`: one
//! outstanding request, the next sent when the previous one is done.
//!
//! The request set is fixed: SEPE-SQED single-bug requests for the six
//! light Table-1 bugs at xlen 4, varied by bound (at least the trace
//! length) and processor shape (memory words, history depth).  Each is sent
//! once as a cache miss and repeated [`HITS`] times later in the stream as
//! cache hits; the seed only shuffles the order.  Requests go out with
//! `batched: true`, the service's shortest-counterexample path (lock-step
//! per-depth BMC on one shared unrolling): each miss stops at its first
//! counterexample, so its work does not depend on its bound.  The service's
//! other path runs cumulative BMC, whose cost swings by three orders of
//! magnitude with the bound on these same bugs.

use std::collections::BTreeMap;
use std::net::{Ipv4Addr, SocketAddr};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sepe_isa::Opcode;
use sepe_processor::{Mutation, ProcessorConfig};
use sepe_service::protocol::{
    decode_reply, decode_request, encode_request, mutation_by_name, verdict_core,
};
use sepe_service::{
    job_descriptor, Client, Endpoint, Request, ResultCache, Server, ServerConfig, ServerReport,
    SubmitRequest, Verdict,
};
use sepe_smt::{one_hot_assumptions, TermId, TermManager};
use sepe_sqed::detect::{Detector, DetectorConfig, Method};
use sepe_sqed::qed::{QedBuilder, Scheme};
use sepe_tsys::{BmcConfig, BmcFaultPlan, BmcMode, BmcSession, QueryOutcome};

use crate::signoff::traced_query;
use crate::trace::{span, Tracer};
use crate::{check_fidelity, passes, percentile_s, setup_samples, Args, Layers, Report, Rng, Size};

/// Cache hits per distinct request.
const HITS: usize = 3;

/// One distinct request.
#[derive(Debug, Clone)]
struct Req {
    bug: &'static str,
    bound: usize,
    mem_words: usize,
    history_depth: usize,
}

impl Req {
    fn mutation(&self) -> Mutation {
        mutation_by_name(self.bug).expect("a Table-1 bug")
    }

    /// The Table-1 universe of the bug: its target opcode plus ADDI.
    fn processor(&self) -> ProcessorConfig {
        let target = self.mutation().target_opcode().expect("targets an opcode");
        ProcessorConfig {
            xlen: 4,
            mem_words: self.mem_words,
            history_depth: self.history_depth,
            ..ProcessorConfig::default()
        }
        .with_opcodes(&[target, Opcode::Addi])
    }

    /// The key the service caches this request under.
    fn descriptor(&self) -> String {
        job_descriptor(
            &self.processor(),
            Method::SepeSqed,
            self.bound,
            Some(self.bug),
            true,
            true,
            None,
        )
    }

    fn submit(&self) -> SubmitRequest {
        SubmitRequest {
            mutations: vec![self.bug.to_string()],
            batched: true,
            ..SubmitRequest::new(Method::SepeSqed, self.bound, self.processor())
        }
    }
}

/// The request set: (bug, bounds, memory sizes, history depths).  The
/// cheap bugs get many shapes; `single-srai` and `single-sw` cost 0.9–1.4 s
/// a miss, so they get two each.
fn requests(size: Size) -> Vec<Req> {
    type Grid = [(
        &'static str,
        &'static [usize],
        &'static [usize],
        &'static [usize],
    )];
    let grid: &Grid = match size {
        Size::Full => &[
            ("single-add", &[3, 4, 5], &[4, 8], &[1, 2, 3, 4]),
            ("single-add", &[6], &[4], &[1, 2, 3, 4]),
            ("single-slli", &[3, 4, 5], &[4, 8], &[1, 2, 3, 4]),
            ("single-slli", &[6], &[4], &[1, 2, 3, 4]),
            ("single-sltu", &[5, 6, 7], &[4, 8], &[1, 2, 3, 4]),
            ("single-xori", &[6, 7], &[4, 8], &[1, 2, 3, 4]),
            ("single-srai", &[6], &[4], &[1, 2]),
            ("single-sw", &[6], &[4], &[1, 2]),
        ],
        Size::Tiny => &[
            ("single-add", &[3], &[4], &[1, 2]),
            ("single-slli", &[3], &[4], &[1, 2]),
        ],
    };
    let mut out = Vec::new();
    for &(bug, bounds, mems, hists) in grid {
        for &bound in bounds {
            for &mem_words in mems {
                for &history_depth in hists {
                    out.push(Req {
                        bug,
                        bound,
                        mem_words,
                        history_depth,
                    });
                }
            }
        }
    }
    out
}

/// The pass's stream: every request `1 + HITS` times, seeded shuffle.  The
/// first occurrence of a request is its miss; the rest are hits.
fn stream(n: usize, seed: u64, pass: usize) -> Vec<(usize, bool)> {
    let mut order: Vec<usize> = (0..n).flat_map(|r| [r; 1 + HITS]).collect();
    Rng::new(seed ^ (pass as u64).wrapping_mul(0x9e37_79b9)).shuffle(&mut order);
    let mut seen = vec![false; n];
    order
        .into_iter()
        .map(|r| (r, !std::mem::replace(&mut seen[r], true)))
        .collect()
}

/// A running in-process server on a fresh cache directory.
struct Service {
    dir: PathBuf,
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<ServerReport>>,
}

static SERVICES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn scratch_dir(kind: &str) -> PathBuf {
    let n = SERVICES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = crate::out_dir().join(format!("{kind}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

impl Service {
    /// Binds a server on `dir` (cache open and recovery scan, listener,
    /// job worker) and starts serving; returns it with the bind time.
    fn start(dir: PathBuf) -> (Service, Duration) {
        let start = Instant::now();
        let mut config = ServerConfig::new(
            Endpoint::Tcp(SocketAddr::from((Ipv4Addr::LOCALHOST, 0))),
            &dir,
        );
        config.job_workers = 1;
        // No wall-clock budget: the server's deadline cap is far beyond any
        // request, and an idle drain needs no grace period.
        config.max_deadline = Duration::from_secs(3600);
        config.drain_grace = Duration::from_millis(20);
        let server = Server::bind(config).expect("bind a loopback server");
        let setup = start.elapsed();
        let addr = server.local_addr().expect("a TCP endpoint has an address");
        let thread = std::thread::spawn(move || server.run());
        (Service { dir, addr, thread }, setup)
    }

    fn client(&self) -> Client {
        Client::new(Endpoint::Tcp(self.addr))
    }

    /// Drains the server and returns its cache directory.
    fn stop(self) -> PathBuf {
        self.client().shutdown().expect("graceful shutdown");
        self.thread
            .join()
            .expect("server thread")
            .expect("server drained");
        self.dir
    }
}

/// One request as the client saw it.
struct Sent {
    req: usize,
    miss: bool,
    latency: Duration,
    verdict: Option<Verdict>,
    raw: Vec<Vec<u8>>,
    /// Busy, transport or protocol trouble, or a malformed reply.
    error: Option<String>,
}

struct Pass {
    wall: Duration,
    sent: Vec<Sent>,
    /// The server's own counters after the pass (`Client::stats`).
    stats: BTreeMap<&'static str, u64>,
}

impl Pass {
    fn latencies(&self, miss: bool) -> Vec<Duration> {
        self.sent
            .iter()
            .filter(|s| s.miss == miss)
            .map(|s| s.latency)
            .collect()
    }

    fn counters(&self) -> BTreeMap<String, u64> {
        let mut c: BTreeMap<String, u64> = self
            .stats
            .iter()
            .map(|(k, v)| (format!("service.{k}"), *v))
            .collect();
        for s in &self.sent {
            let v = s.verdict.as_ref();
            let kind = if s.miss { "miss" } else { "hit" };
            *c.entry(format!("{kind}.requests")).or_insert(0) += 1;
            *c.entry(format!("{kind}.conflicts")).or_insert(0) += v.map_or(0, |v| v.conflicts);
            *c.entry(format!("{kind}.trace_steps")).or_insert(0) +=
                v.and_then(|v| v.trace_len).unwrap_or(0);
        }
        c
    }
}

const STATS: [&str; 6] = [
    "cache_hits",
    "cache_misses",
    "busy_rejections",
    "protocol_errors",
    "encodes",
    "witness_validations",
];

fn run_pass(reqs: &[Req], order: &[(usize, bool)], tr: &mut Tracer) -> Pass {
    let (service, _) = Service::start(scratch_dir("cache"));
    let client = service.client();
    let submits: Vec<SubmitRequest> = reqs.iter().map(Req::submit).collect();
    let start = Instant::now();
    let sent = order
        .iter()
        .map(|&(req, miss)| {
            let t = Instant::now();
            let result = span(tr, "service.client.submit", || client.submit(&submits[req]));
            let latency = t.elapsed();
            let (verdict, raw, error) = match result {
                Ok(r) if r.attempts == 1 && r.verdicts.len() == 1 => {
                    (r.verdicts.into_iter().next(), r.raw_verdict_frames, None)
                }
                Ok(r) => (
                    None,
                    r.raw_verdict_frames,
                    Some(format!(
                        "{} attempts, {} verdicts",
                        r.attempts,
                        r.verdicts.len()
                    )),
                ),
                Err(e) => (None, Vec::new(), Some(e.to_string())),
            };
            Sent {
                req,
                miss,
                latency,
                verdict,
                raw,
                error,
            }
        })
        .collect();
    let wall = start.elapsed();
    let snapshot = client.stats().expect("server stats");
    let stats = STATS
        .iter()
        .map(|&k| (k, Client::counter(&snapshot, k)))
        .collect();
    let _ = std::fs::remove_dir_all(service.stop());
    Pass { wall, sent, stats }
}

/// The in-process reference for a request: a per-depth `Detector::check`
/// of the same bug, bound and processor, independent of the service's
/// shared-unrolling encoding.
fn reference(req: &Req) -> (bool, Option<u64>, Option<bool>) {
    let config = DetectorConfig::builder()
        .processor(req.processor())
        .bound(req.bound)
        .bmc_mode(BmcMode::PerDepth)
        .build();
    let d = Detector::new(config).check(Method::SepeSqed, Some(&req.mutation()));
    (
        d.detected,
        d.trace_len.map(|t| t as u64),
        d.witness_validated,
    )
}

/// Output checks of one pass: every request answered without Busy or
/// error, misses and hits where the stream put them, every miss verdict
/// equal to the in-process reference and to pass 0's, every hit equal to
/// its miss bit for bit except the `cached` flag.
fn check(
    report: &mut Report,
    reqs: &[Req],
    refs: &[(bool, Option<u64>, Option<bool>)],
    pass: &Pass,
    first_misses: &mut [Option<Verdict>],
    label: &str,
) {
    let mut misses: Vec<Option<&Verdict>> = vec![None; reqs.len()];
    for s in &pass.sent {
        if s.miss {
            misses[s.req] = s.verdict.as_ref();
        }
    }
    for s in &pass.sent {
        report.attempted += 1;
        let r = &reqs[s.req];
        let what = format!(
            "{label}: {} bound {} mem {} hist {} ({})",
            r.bug,
            r.bound,
            r.mem_words,
            r.history_depth,
            if s.miss { "miss" } else { "hit" }
        );
        let problem = match (&s.error, &s.verdict) {
            (Some(e), _) => Some(e.clone()),
            (None, None) => Some("no verdict".to_string()),
            (None, Some(v)) if v.inconclusive => Some("inconclusive verdict".to_string()),
            (None, Some(v)) if v.cached == s.miss => Some(format!("cached = {}", v.cached)),
            (None, Some(v)) if s.miss => {
                let (detected, trace, validated) = refs[s.req];
                let first = first_misses[s.req].get_or_insert_with(|| v.clone());
                if !(v.detected && detected && v.trace_len == trace) {
                    Some(format!(
                        "verdict detected {} trace {:?}, reference detected {detected} trace {trace:?}",
                        v.detected, v.trace_len
                    ))
                } else if v.witness_validated != Some(true) || validated != Some(true) {
                    Some("witness not validated".to_string())
                } else if first != v {
                    Some("verdict differs from pass 0's".to_string())
                } else {
                    None
                }
            }
            (None, Some(v)) => {
                let as_miss = Verdict {
                    cached: false,
                    ..v.clone()
                };
                (misses[s.req] != Some(&as_miss)).then(|| "hit differs from its miss".to_string())
            }
        };
        if let Some(p) = problem {
            report.failed += 1;
            report.problem(format!("{what}: {p}"));
        }
    }
}

/// The service's computation of one request, replayed in process through
/// the layers' public functions: the catalogue build, the shared-unrolling
/// session with one-hot activation assumptions per depth, and the concrete
/// witness replay — what `BatchedDetector` does for a one-entry catalogue.
/// Returns (detected, trace length, conflicts, witness validated).
fn replica(req: &Req, tr: &mut Tracer, layers: &mut Layers) -> (bool, Option<u64>, u64, bool) {
    let top = tr.enter("bench.replica");
    let config = DetectorConfig::builder()
        .processor(req.processor())
        .bound(req.bound)
        .build();
    let helper = Detector::new(config.clone());
    let scheme = Scheme::Sepe(helper.equivalence_db());
    let builder = QedBuilder {
        processor: config.processor.clone(),
        original_opcodes: helper.original_opcodes(Method::SepeSqed),
        queue_depth: config.queue_depth,
    };
    let bug = req.mutation();
    let mut tm = TermManager::new();
    let (system, activated) = span(tr, "core.qed.build", || {
        builder.build_catalogue(&mut tm, &scheme, std::slice::from_ref(&bug))
    });
    let acts: Vec<TermId> = activated.iter().map(|a| a.activation).collect();
    let session_config = BmcConfig {
        conflict_limit: None,
        time_limit: None,
        start_bound: 1,
        mode: BmcMode::PerDepth,
        simplify: config.simplify,
        aig: config.aig,
        frame_rescore: None,
        cancel: Vec::new(),
        memory_limit: None,
        fault: BmcFaultPlan::default(),
    };
    let mut session = span(tr, "tsys.session.open", || {
        BmcSession::open(&mut tm, &system.ts, &session_config)
    });
    let mut conflicts = 0;
    let mut found = None;
    for bound in 1..=config.max_bound {
        span(tr, "tsys.session.extend", || session.extend(&mut tm, bound));
        let bad = session.bad_at(&mut tm, bound);
        let assumptions = one_hot_assumptions(&mut tm, &acts, 0, &[bad]);
        let outcome = traced_query(tr, &mut session, &mut tm, bound, &assumptions);
        conflicts += session.last_query_stats().map_or(0, |q| q.conflicts);
        match outcome {
            QueryOutcome::Counterexample(witness) => {
                let validated = span(tr, "core.selfcheck.replay", || {
                    sepe_sqed::selfcheck::replay_confirms(
                        &config.processor,
                        Some(&bug),
                        Method::SepeSqed,
                        &witness,
                    )
                });
                found = Some((witness.num_steps() as u64, validated));
                break;
            }
            QueryOutcome::Unreachable => {}
            QueryOutcome::Unknown(_) => break,
        }
    }
    layers.solver(&session.stats().solver);
    tr.exit(top);
    match found {
        Some((trace, validated)) => (true, Some(trace), conflicts, validated),
        None => (false, None, conflicts, false),
    }
}

/// Writes a pass's miss verdicts into a result cache the way the server
/// commits them, for the set-up measurement.
fn populate(reqs: &[Req], pass: &Pass) -> PathBuf {
    let dir = scratch_dir("warm");
    let (cache, _) = ResultCache::open(&dir).expect("open a scratch result cache");
    for s in pass.sent.iter().filter(|s| s.miss) {
        if let Some(v) = &s.verdict {
            cache
                .insert(&reqs[s.req].descriptor(), &verdict_json(v))
                .expect("insert into the scratch cache");
        }
    }
    cache.flush().expect("flush the scratch cache");
    dir
}

fn verdict_json(v: &Verdict) -> String {
    serde_json::to_string(&verdict_core(v)).expect("a verdict renders to JSON")
}

/// Set-up: a server restart on the cache one pass leaves behind — the bind
/// with its recovery scan over every committed entry, the listener and the
/// job worker.  Each repetition then drains the server, untimed.
fn setups(reqs: &[Req], pass: &Pass) -> Vec<Duration> {
    let mut dir = Some(populate(reqs, pass));
    let out = setup_samples(|| {
        let (service, bind) = Service::start(dir.take().expect("the warm cache directory"));
        dir = Some(service.stop());
        bind
    });
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    out
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let reqs = requests(args.size);

    if !args.trace {
        let mut off = Tracer::new(false);
        let (runs, rss) = passes(args.seconds, |i| {
            run_pass(&reqs, &stream(reqs.len(), args.seed, i), &mut off)
        });
        let setups = setups(&reqs, &runs[0]);
        let refs: Vec<_> = reqs.iter().map(reference).collect();
        let mut first = vec![None; reqs.len()];
        for (i, p) in runs.iter().enumerate() {
            check(
                &mut report,
                &reqs,
                &refs,
                p,
                &mut first,
                &format!("pass {i}"),
            );
            check_fidelity(&mut report, &runs[0].counters(), &p.counters());
        }
        let walls: Vec<Duration> = runs.iter().map(|p| p.wall).collect();
        let miss_sums: Vec<Duration> = runs
            .iter()
            .map(|p| p.latencies(true).iter().sum())
            .collect();
        let hit_sums: Vec<Duration> = runs
            .iter()
            .map(|p| p.latencies(false).iter().sum())
            .collect();
        let misses: Vec<Duration> = runs.iter().flat_map(|p| p.latencies(true)).collect();
        let hits: Vec<Duration> = runs.iter().flat_map(|p| p.latencies(false)).collect();
        let requests: usize = runs.iter().map(|p| p.sent.len()).sum();
        let busy: f64 = walls.iter().map(Duration::as_secs_f64).sum();
        report.note("miss_ms_p50", percentile_s(&misses, 50.0) * 1e3, "ms");
        report.note("miss_ms_p90", percentile_s(&misses, 90.0) * 1e3, "ms");
        report.note("miss_samples", misses.len() as f64, "count");
        report.note("hit_ms_p50", percentile_s(&hits, 50.0) * 1e3, "ms");
        report.note("hit_ms_p90", percentile_s(&hits, 90.0) * 1e3, "ms");
        report.note("hit_samples", hits.len() as f64, "count");
        report.note("requests_per_s", requests as f64 / busy, "1/s");
        crate::end_to_end(&mut report, &walls, &miss_sums, &hit_sums, &setups, rss);
        report.counters = runs[0].counters();
        return report;
    }

    let order = stream(reqs.len(), args.seed, 0);
    let untraced = run_pass(&reqs, &order, &mut Tracer::new(false));
    let mut tr = Tracer::new(true);
    let traced_start = Instant::now();
    let traced = run_pass(&reqs, &order, &mut tr);
    let mut layers = Layers::default();

    // Attribution: the service's layers, replayed in process on this
    // pass's own requests and replies.
    let mut replica_walls = vec![Duration::ZERO; reqs.len()];
    for (r, req) in reqs.iter().enumerate() {
        let start = Instant::now();
        let (detected, trace, conflicts, validated) = replica(req, &mut tr, &mut layers);
        replica_walls[r] = start.elapsed();
        let served = traced
            .sent
            .iter()
            .find(|s| s.req == r && s.miss)
            .and_then(|s| s.verdict.as_ref());
        let same = served.is_some_and(|v| {
            v.detected == detected
                && v.trace_len == trace
                && v.conflicts == conflicts
                && v.witness_validated == Some(validated)
        });
        if !same {
            report.problem(format!(
                "fidelity: the in-process replica of {} bound {} differs from the service's verdict",
                req.bug, req.bound
            ));
        }
    }
    for s in &traced.sent {
        span(&mut tr, "service.protocol.codec", || {
            let frame = encode_request(&Request::Submit(reqs[s.req].submit()));
            let ok =
                decode_request(&frame).is_ok() && s.raw.iter().all(|f| decode_reply(f).is_ok());
            std::hint::black_box(ok)
        });
    }
    let cache_dir = scratch_dir("attribution");
    let (cache, _) = ResultCache::open(&cache_dir).expect("open a scratch result cache");
    for s in &traced.sent {
        let req = &reqs[s.req];
        let descriptor = req.descriptor();
        match (&s.verdict, s.miss) {
            (Some(v), true) => {
                let json = verdict_json(v);
                span(&mut tr, "service.cache.insert", || {
                    cache.insert(&descriptor, &json)
                })
                .expect("insert into the scratch cache");
            }
            _ => {
                let hit = span(&mut tr, "service.cache.lookup", || {
                    cache.lookup(&descriptor)
                });
                if hit.is_none() {
                    report.problem(format!("scratch cache lost {}", req.bug));
                }
            }
        }
    }
    drop(cache);
    let _ = std::fs::remove_dir_all(&cache_dir);
    let traced_wall = traced_start.elapsed();

    let refs: Vec<_> = reqs.iter().map(reference).collect();
    let mut first = vec![None; reqs.len()];
    check(
        &mut report,
        &reqs,
        &refs,
        &untraced,
        &mut first,
        "untraced pass",
    );
    check(
        &mut report,
        &reqs,
        &refs,
        &traced,
        &mut first,
        "traced pass",
    );
    check_fidelity(&mut report, &untraced.counters(), &traced.counters());

    // Signed: on a noisy machine the in-process replica can take longer
    // than the service did.
    let mut overheads: Vec<f64> = traced
        .sent
        .iter()
        .filter(|s| s.miss)
        .map(|s| (s.latency.as_secs_f64() - replica_walls[s.req].as_secs_f64()) * 1e3)
        .collect();
    overheads.sort_by(f64::total_cmp);
    let ms = |xs: &[Duration], p: f64| percentile_s(xs, p) * 1e3;
    let misses = untraced.latencies(true);
    let hits = untraced.latencies(false);
    layers.set("miss_ms_p50", ms(&misses, 50.0));
    layers.set("miss_ms_p90", ms(&misses, 90.0));
    layers.set("hit_ms_p50", ms(&hits, 50.0));
    layers.set("hit_ms_p90", ms(&hits, 90.0));
    layers.set(
        "requests_per_s",
        untraced.sent.len() as f64 / untraced.wall.as_secs_f64(),
    );
    layers.set(
        "service.overhead_ms_p50",
        overheads
            .get(overheads.len().saturating_sub(1) / 2)
            .copied()
            .unwrap_or(0.0),
    );
    for (name, key) in [
        ("service.cache_hits", "cache_hits"),
        ("service.cache_misses", "cache_misses"),
        ("service.busy_rejections", "busy_rejections"),
        ("service.protocol_errors", "protocol_errors"),
    ] {
        layers.set(name, traced.stats[key] as f64);
    }
    layers.set(
        "trace.overhead_s",
        traced.wall.as_secs_f64() - untraced.wall.as_secs_f64(),
    );
    layers.set(
        "failed_ratio",
        report.failed as f64 / report.attempted as f64,
    );
    layers.from_trace(&tr, traced_wall);
    layers.finish(&mut report);
    report.counters = untraced.counters();
    report.spans = Some(tr.to_jsonl());
    report
}
