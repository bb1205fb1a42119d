//! Integration tests of the detection service: end-to-end request/reply,
//! cache cold/hot behaviour, admission-control shedding under overload,
//! graceful drain, and — through the `sepe_serve` binary — crash-safety
//! across `abort()` and literal `kill -9`.
#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use sepe_isa::Opcode;
use sepe_processor::ProcessorConfig;
use sepe_service::{
    Client, ClientConfig, ClientError, Endpoint, ResultCache, Server, ServerConfig, ServerReport,
    SubmitRequest,
};
use sepe_sqed::Method;

fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sepe-svc-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An in-process server on a Unix socket in its own scratch directory.
struct TestServer {
    endpoint: Endpoint,
    cache_dir: PathBuf,
    thread: thread::JoinHandle<std::io::Result<ServerReport>>,
}

fn start_server(tag: &str, tweak: impl FnOnce(&mut ServerConfig)) -> TestServer {
    let dir = scratch_dir(tag);
    let sock = dir.join("s.sock");
    let cache_dir = dir.join("cache");
    let mut config = ServerConfig::new(Endpoint::Unix(sock.clone()), &cache_dir);
    config.drain_grace = Duration::from_secs(2);
    tweak(&mut config);
    let server = Server::bind(config).unwrap();
    let thread = thread::spawn(move || server.run());
    wait_ready(&sock);
    TestServer {
        endpoint: Endpoint::Unix(sock),
        cache_dir,
        thread,
    }
}

fn wait_ready(sock: &std::path::Path) {
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(10) {
        if std::os::unix::net::UnixStream::connect(sock).is_ok() {
            return;
        }
        thread::sleep(Duration::from_millis(10));
    }
    panic!("server never became connectable");
}

impl TestServer {
    fn client(&self) -> Client {
        Client::new(self.endpoint.clone())
    }

    fn stop(self) -> ServerReport {
        self.client().shutdown().unwrap();
        self.thread.join().unwrap().unwrap()
    }
}

/// Mutations whose trigger opcode is outside the {ADD, ADDI} universe:
/// provably clean at a small bound, i.e. fast conclusive verdicts.
const CLEAN_FAST: [&str; 4] = ["single-sub", "single-xor", "single-or", "single-and"];

fn tiny_universe() -> ProcessorConfig {
    ProcessorConfig::tiny().with_opcodes(&[Opcode::Add, Opcode::Addi])
}

fn clean_request(names: &[&str]) -> SubmitRequest {
    SubmitRequest {
        mutations: names.iter().map(|n| n.to_string()).collect(),
        ..SubmitRequest::new(Method::Sqed, 2, tiny_universe())
    }
}

#[test]
fn ping_stats_and_structural_rejection() {
    let server = start_server("ping", |_| {});
    let client = server.client();
    client.ping().unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(Client::counter(&stats, "busy_rejections"), 0);
    assert_eq!(Client::counter(&stats, "clean_shutdown"), 0);
    // A structurally bad request must be rejected, not retried.
    let bad = SubmitRequest {
        bound: 10_000,
        ..clean_request(&["single-sub"])
    };
    match client.submit(&bad) {
        Err(ClientError::Rejected(msg)) => assert!(msg.contains("bound"), "{msg}"),
        other => panic!("expected rejection, got {other:?}"),
    }
    server.stop();
}

#[test]
fn cold_then_hot_cache_round_trip() {
    let server = start_server("cache", |_| {});
    let client = server.client();
    let request = clean_request(&CLEAN_FAST);

    let cold = client.submit(&request).unwrap();
    assert_eq!(cold.done.jobs, 4);
    assert_eq!(cold.done.computed, 4);
    assert_eq!(cold.done.from_cache, 0);
    assert!(cold.done.encodes >= 4);
    for v in &cold.verdicts {
        assert!(
            !v.detected && !v.inconclusive,
            "{}: provably clean",
            v.label
        );
        assert!(!v.cached);
    }

    let hot = client.submit(&request).unwrap();
    assert_eq!(hot.done.jobs, 4);
    assert_eq!(hot.done.computed, 0, "hot pass computes nothing");
    assert_eq!(hot.done.from_cache, 4, "hot pass is 100% cache hits");
    assert_eq!(hot.done.encodes, 0, "hot pass pays zero encodes");
    // Identical verdicts modulo the `cached` transport flag.
    for (c, h) in cold.verdicts.iter().zip(&hot.verdicts) {
        assert!(h.cached);
        let mut h = h.clone();
        h.cached = false;
        assert_eq!(&h, c);
    }
    // A second hot pass is bit-identical to the first: determinism on the
    // wire, not just structural equality.
    let hot2 = client.submit(&request).unwrap();
    assert_eq!(hot.raw_verdict_frames, hot2.raw_verdict_frames);
    server.stop();
}

#[test]
fn detection_streams_a_validated_witness_and_caches_it() {
    let server = start_server("witness", |_| {});
    let client = server.client();
    let request = SubmitRequest {
        mutations: vec!["single-add".to_string()],
        ..SubmitRequest::new(Method::SepeSqed, 4, tiny_universe())
    };
    let cold = client.submit(&request).unwrap();
    assert_eq!(cold.verdicts.len(), 1);
    let verdict = &cold.verdicts[0];
    assert!(verdict.detected, "SEPE-SQED finds the ADD bug");
    assert!(
        verdict.witness.is_some(),
        "witness travels with the verdict"
    );
    assert_eq!(
        verdict.witness_validated,
        Some(true),
        "the concrete replay confirms the counterexample"
    );
    assert!(cold.done.witness_validations >= 1);
    assert_eq!(cold.done.witness_mismatches, 0);

    let hot = client.submit(&request).unwrap();
    assert_eq!(hot.done.from_cache, 1);
    let mut cached = hot.verdicts[0].clone();
    assert!(cached.cached);
    cached.cached = false;
    assert_eq!(&cached, verdict, "cached witness is served verbatim");
    server.stop();
}

#[test]
fn a_multi_mutation_submit_streams_the_frames_of_one_mutation_submits() {
    // The cache key is per mutation, so a verdict computed inside a
    // multi-mutation submit is later served to one-mutation submits of the
    // same entry, and vice versa: each entry must produce the very same
    // verdict frame (witness and conflicts included) whichever request
    // computed it.  `batched: true` must not change that.  Each side runs
    // cold on its own server.
    let names = ["single-add", "single-sub", "single-xor"];
    let request = |names: &[&str]| SubmitRequest {
        mutations: names.iter().map(|n| n.to_string()).collect(),
        batched: true,
        ..SubmitRequest::new(
            Method::SepeSqed,
            3,
            ProcessorConfig {
                history_depth: 1,
                ..tiny_universe()
            },
        )
    };
    let server = start_server("multi", |_| {});
    let multi = server.client().submit(&request(&names)).unwrap();
    server.stop();
    assert_eq!(multi.done.computed, names.len() as u64);
    assert!(multi.verdicts[0].detected, "SEPE-SQED finds the ADD bug");
    assert_eq!(multi.raw_verdict_frames.len(), names.len());

    // Frames are JSON text: compare them as strings for a readable diff.
    let text = |frames: &[Vec<u8>]| -> Vec<String> {
        frames
            .iter()
            .map(|f| String::from_utf8_lossy(f).into_owned())
            .collect()
    };
    let multi_frames = text(&multi.raw_verdict_frames);
    let server = start_server("single", |_| {});
    for (name, frame) in names.iter().zip(&multi_frames) {
        let single = server.client().submit(&request(&[name])).unwrap();
        assert_eq!(single.done.computed, 1, "{name}: a fresh cache entry");
        assert_eq!(
            text(&single.raw_verdict_frames),
            std::slice::from_ref(frame),
            "{name}: the multi-mutation submit streamed a different verdict"
        );
    }
    server.stop();
}

#[test]
fn batched_and_unbatched_paths_agree_on_a_detected_bug() {
    // The cache key carries no `batched` bit, and the server ignores the
    // flag: either setting must report the same verdict, down to the
    // conflicts and the witness.  Each setting runs cold on its own server.
    let request = SubmitRequest {
        mutations: vec!["single-add".to_string()],
        ..SubmitRequest::new(
            Method::SepeSqed,
            3,
            ProcessorConfig {
                history_depth: 1,
                ..tiny_universe()
            },
        )
    };
    let verdict = |batched: bool| {
        let server = start_server(if batched { "batched-on" } else { "batched-off" }, |_| {});
        let reply = server
            .client()
            .submit(&SubmitRequest {
                batched,
                ..request.clone()
            })
            .unwrap();
        assert_eq!(reply.done.computed, 1, "a fresh cache computes the job");
        server.stop();
        reply.verdicts[0].clone()
    };
    let batched = verdict(true);
    let unbatched = verdict(false);
    assert!(batched.detected, "SEPE-SQED finds the ADD bug");
    assert_eq!(batched, unbatched);
}

#[test]
fn a_retried_job_charges_one_encoding_per_attempt() {
    // A one-conflict budget stops the bug's first attempt, so the server's
    // one-rung retry ladder runs a second one, and `done.encodes` must
    // count both.
    let request = SubmitRequest {
        mutations: vec!["single-add".to_string()],
        conflict_limit: Some(1),
        ..SubmitRequest::new(
            Method::SepeSqed,
            3,
            ProcessorConfig {
                history_depth: 1,
                ..tiny_universe()
            },
        )
    };
    let server = start_server("encodes", |_| {});
    let done = server.client().submit(&request).unwrap().done;
    server.stop();
    assert_eq!(done.computed, 1);
    assert!(done.retries >= 1, "the budget forces a retry");
    assert_eq!(
        done.encodes,
        done.computed + done.retries,
        "one encoding per attempt"
    );
}

#[test]
fn overload_is_shed_with_busy_and_a_retrying_client_gets_through() {
    let server = start_server("overload", |c| {
        c.job_workers = 1;
        c.queue_capacity = 1;
        c.job_delay = Some(Duration::from_millis(250));
        c.busy_retry_after = Duration::from_millis(40);
    });
    // Five one-shot clients with distinct (uncacheable-against-each-other)
    // jobs: 1 runs, ~2 queue, the rest must be shed immediately.
    let mut handles = Vec::new();
    for (i, name) in [
        "single-sub",
        "single-xor",
        "single-or",
        "single-and",
        "single-slt",
    ]
    .iter()
    .enumerate()
    {
        let endpoint = server.endpoint.clone();
        let name = name.to_string();
        handles.push(thread::spawn(move || {
            let client = Client::with_config(ClientConfig {
                max_attempts: 1,
                seed: i as u64 + 1,
                ..ClientConfig::new(endpoint)
            });
            client.submit(&clean_request(&[&name]))
        }));
    }
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let succeeded = results.iter().filter(|r| r.is_ok()).count();
    let shed = results
        .iter()
        .filter(|r| matches!(r, Err(ClientError::Exhausted { last, .. }) if last.contains("busy")))
        .count();
    assert!(succeeded >= 1, "admitted jobs complete");
    assert!(
        shed >= 1,
        "overflow is shed with Busy, not queued unboundedly"
    );
    assert_eq!(succeeded + shed, results.len(), "no third failure mode");

    let stats = server.client().stats().unwrap();
    assert!(Client::counter(&stats, "busy_rejections") >= shed as u64);

    // With retry+backoff the same pressure resolves: every job eventually
    // lands (the earlier ones are cached by now, the shed ones recompute).
    let client = Client::with_config(ClientConfig {
        max_attempts: 10,
        ..ClientConfig::new(server.endpoint.clone())
    });
    let all = [
        "single-sub",
        "single-xor",
        "single-or",
        "single-and",
        "single-slt",
    ];
    let result = client.submit(&clean_request(&all)).unwrap();
    assert_eq!(result.done.jobs, 5);
    server.stop();
}

#[test]
fn graceful_shutdown_drains_and_marks_the_cache_clean() {
    let server = start_server("drain", |c| {
        c.job_delay = Some(Duration::from_millis(50));
    });
    let client = server.client();
    client.submit(&clean_request(&["single-sub"])).unwrap();
    let cache_dir = server.cache_dir.clone();
    let report = server.stop();
    assert_eq!(report.cache_entries, 1);
    // A fresh open observes the clean-shutdown marker and the entry.
    let (_, recovery) = ResultCache::open(&cache_dir).unwrap();
    assert!(recovery.clean_shutdown);
    assert_eq!(recovery.recovered, 1);
    assert_eq!(recovery.corrupted, 0);
    // Submitting after shutdown fails: the socket is gone.
    let one_shot = Client::with_config(ClientConfig {
        max_attempts: 1,
        ..ClientConfig::new(client_endpoint(&client))
    });
    assert!(one_shot.ping().is_err());
}

/// `run` returns after a `shutdown` with no further client connecting,
/// over TCP (port 0) and a Unix socket alike: the handler wakes the
/// blocking `accept` itself, and that wake-up connection is never served.
#[test]
fn shutdown_returns_from_run_without_another_client() {
    let dir = scratch_dir("wake");
    let endpoints = [
        Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        Endpoint::Unix(dir.join("s.sock")),
    ];
    for (i, endpoint) in endpoints.into_iter().enumerate() {
        let server = Server::bind(ServerConfig::new(
            endpoint.clone(),
            dir.join(format!("cache{i}")),
        ))
        .unwrap();
        let endpoint = server.local_addr().map_or(endpoint, Endpoint::Tcp);
        let (tx, rx) = mpsc::channel();
        let runner = thread::spawn(move || tx.send(server.run()).unwrap());
        let client = Client::new(endpoint.clone());
        let stats = client.stats().unwrap();
        assert_eq!(Client::counter(&stats, "accepted"), 1, "{endpoint}");
        client.shutdown().unwrap();
        // Generous: only guards against a hang, the drain itself is instant.
        let report = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{endpoint}: run did not return after shutdown"))
            .unwrap();
        runner.join().unwrap();
        assert_eq!(report.accepted, 2, "{endpoint}: stats + shutdown only");
        assert_eq!(report.cache_entries, 0, "{endpoint}");
    }
}

// Client doesn't expose its endpoint; reconstruct it for the post-shutdown
// probe.  (Ugly but contained to this test.)
fn client_endpoint(_client: &Client) -> Endpoint {
    // The socket path is gone either way; any dead endpoint demonstrates
    // the point.
    Endpoint::Unix(std::env::temp_dir().join("sepe-svc-gone.sock"))
}

// ---------------------------------------------------------------------------
// Crash-safety through the binary: abort mid-batch, kill -9, restart.
// ---------------------------------------------------------------------------

struct ServeProc {
    child: Child,
    ready: String,
    // Keeps the stdout pipe open: dropping it would EPIPE the server's
    // final status line.
    _stdout: BufReader<std::process::ChildStdout>,
}

fn spawn_serve(sock: &std::path::Path, cache_dir: &std::path::Path, extra: &[&str]) -> ServeProc {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sepe_serve"));
    cmd.arg("--unix")
        .arg(sock)
        .arg("--cache-dir")
        .arg(cache_dir)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = cmd.spawn().unwrap();
    let stdout = child.stdout.take().unwrap();
    let mut reader = BufReader::new(stdout);
    let mut ready = String::new();
    reader.read_line(&mut ready).unwrap();
    assert!(
        ready.starts_with("ready "),
        "handshake line, got: {ready:?}"
    );
    wait_ready(sock);
    ServeProc {
        child,
        ready,
        _stdout: reader,
    }
}

fn ready_field(ready: &str, key: &str) -> u64 {
    ready
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key} in {ready:?}"))
}

#[test]
fn crash_mid_batch_loses_only_in_flight_jobs_and_recovery_serves_the_rest() {
    let dir = scratch_dir("crash");
    let sock = dir.join("s.sock");
    let cache_dir = dir.join("cache");
    let request = clean_request(&CLEAN_FAST);

    // Phase 1: a server armed to die (abort(), i.e. SIGABRT — no flush, no
    // unwinding, indistinguishable from a power cut) after 2 cache commits.
    let mut proc1 = spawn_serve(&sock, &cache_dir, &["--crash-after-jobs", "2"]);
    assert_eq!(ready_field(&proc1.ready, "recovered"), 0);
    let client = Client::with_config(ClientConfig {
        max_attempts: 1,
        ..ClientConfig::new(Endpoint::Unix(sock.clone()))
    });
    let torn = client.submit(&request);
    assert!(torn.is_err(), "the crash tears the reply stream");
    let status = proc1.child.wait().unwrap();
    assert!(!status.success(), "the server died abnormally");

    // Phase 2: restart over the same cache. Exactly the 2 committed jobs
    // survive; zero corrupted entries — atomic rename means no torn state.
    let proc2 = spawn_serve(&sock, &cache_dir, &[]);
    assert_eq!(ready_field(&proc2.ready, "recovered"), 2);
    assert_eq!(ready_field(&proc2.ready, "corrupted"), 0);
    assert_eq!(ready_field(&proc2.ready, "clean"), 0, "crash was not clean");
    let client = Client::new(Endpoint::Unix(sock.clone()));
    let resumed = client.submit(&request).unwrap();
    assert_eq!(
        resumed.done.from_cache, 2,
        "committed jobs are not recomputed"
    );
    assert_eq!(
        resumed.done.computed, 2,
        "only the lost in-flight jobs rerun"
    );

    // Phase 3: literal kill -9 on an idle server, then restart: everything
    // previously committed is served from cache with zero solver work.
    let mut proc2 = proc2;
    proc2.child.kill().unwrap(); // SIGKILL on unix
    proc2.child.wait().unwrap();
    let proc3 = spawn_serve(&sock, &cache_dir, &[]);
    assert_eq!(ready_field(&proc3.ready, "recovered"), 4);
    assert_eq!(ready_field(&proc3.ready, "corrupted"), 0);
    let client = Client::new(Endpoint::Unix(sock.clone()));
    let hot = client.submit(&request).unwrap();
    assert_eq!(hot.done.from_cache, 4);
    assert_eq!(hot.done.computed, 0);
    assert_eq!(hot.done.encodes, 0);

    // Phase 4: graceful shutdown exits 0 and marks the cache clean.
    client.shutdown().unwrap();
    let mut proc3 = proc3;
    let status = proc3.child.wait().unwrap();
    assert!(status.success(), "graceful drain exits cleanly");
    let (_, recovery) = ResultCache::open(&cache_dir).unwrap();
    assert!(recovery.clean_shutdown);
    assert_eq!(recovery.recovered, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_budget_rides_the_stop_reason_machinery() {
    let server = start_server("deadline", |_| {});
    let client = server.client();
    // An already-expired budget on a job big enough that every path to a
    // verdict passes a deadline check: the engine must stop with a
    // StopReason verdict, and the inconclusive result must NOT be cached.
    let request = SubmitRequest {
        mutations: vec!["single-add".to_string()],
        deadline_ms: Some(0),
        ..SubmitRequest::new(
            Method::SepeSqed,
            12,
            ProcessorConfig {
                xlen: 8,
                mem_words: 8,
                ..ProcessorConfig::default()
            }
            .with_opcodes(&[Opcode::Add, Opcode::Addi, Opcode::Sub, Opcode::Xor]),
        )
    };
    let out = client.submit(&request).unwrap();
    assert_eq!(out.verdicts.len(), 1);
    let v = &out.verdicts[0];
    assert!(
        v.inconclusive,
        "an expired deadline cannot conclude; got detected={} stop={:?} bound_reached={}",
        v.detected, v.stop_reason, v.bound_reached
    );
    assert!(
        matches!(
            v.stop_reason.as_deref(),
            Some("deadline") | Some("cancelled")
        ),
        "budget expiry surfaces through StopReason, got {:?}",
        v.stop_reason
    );
    let stats = client.stats().unwrap();
    assert_eq!(
        Client::counter(&stats, "cache_entries"),
        0,
        "inconclusive verdicts are never cached"
    );
    // Sanity: a conclusive job does move the counter.
    client.submit(&clean_request(&["single-sub"])).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(Client::counter(&stats, "cache_entries"), 1);
    server.stop();
}

/// The unbounded-proof round trip: a clean configuration submitted with
/// `prove=pdr` streams a **Proved** verdict (deterministically — repeat
/// passes are bit-identical on the wire), the conclusive proof is
/// committed to the cache, and after a literal `kill -9` plus restart it
/// is served hot with zero solver work.
#[test]
fn proved_verdicts_stream_cache_and_survive_kill_dash_nine() {
    let dir = scratch_dir("prove");
    let sock = dir.join("s.sock");
    let cache_dir = dir.join("cache");
    // The single-ADD universe is the cheapest configuration PDR closes;
    // the generous deadline keeps slow debug builds clear of the budget.
    let request = SubmitRequest {
        prove: Some(sepe_tsys::ProofMethod::Pdr),
        deadline_ms: Some(300_000),
        ..SubmitRequest::new(
            Method::Sqed,
            4,
            ProcessorConfig::tiny().with_opcodes(&[Opcode::Add]),
        )
    };
    let mut proc1 = spawn_serve(&sock, &cache_dir, &["--max-deadline-ms", "300000"]);
    let client = Client::with_config(ClientConfig {
        read_timeout: Duration::from_secs(300),
        ..ClientConfig::new(Endpoint::Unix(sock.clone()))
    });

    let cold = client.submit(&request).unwrap();
    assert_eq!(cold.verdicts.len(), 1);
    let v = &cold.verdicts[0];
    assert!(v.proved, "PDR must prove the clean config: {v:?}");
    assert!(!v.detected && !v.inconclusive);
    assert_eq!(v.proof_method.as_deref(), Some("pdr"));
    assert!(v.proof_depth.is_some());
    assert_eq!(v.proof_checked, Some(true), "self-check rides the wire");
    assert!(!v.cached);
    assert_eq!(cold.done.proved, 1);
    assert_eq!(cold.done.proof_mismatches, 0);

    // Hot pass: the proof is conclusive, hence cached — and the stream is
    // bit-identical across repeats.
    let hot = client.submit(&request).unwrap();
    assert_eq!(hot.done.from_cache, 1, "a proof is a cacheable verdict");
    assert_eq!(hot.done.computed, 0);
    assert_eq!(hot.done.encodes, 0);
    assert!(hot.verdicts[0].cached);
    assert!(hot.verdicts[0].proved);
    let hot2 = client.submit(&request).unwrap();
    assert_eq!(hot.raw_verdict_frames, hot2.raw_verdict_frames);

    // kill -9, restart: the committed proof survives the crash.
    proc1.child.kill().unwrap();
    proc1.child.wait().unwrap();
    let proc2 = spawn_serve(&sock, &cache_dir, &["--max-deadline-ms", "300000"]);
    assert_eq!(ready_field(&proc2.ready, "recovered"), 1);
    assert_eq!(ready_field(&proc2.ready, "corrupted"), 0);
    let revived = client.submit(&request).unwrap();
    assert_eq!(revived.done.from_cache, 1);
    assert_eq!(revived.done.computed, 0);
    assert_eq!(
        revived.done.encodes, 0,
        "a recovered proof costs no solver work"
    );
    let v = &revived.verdicts[0];
    assert!(v.proved && v.cached);
    assert_eq!(v.proof_checked, Some(true));

    client.shutdown().unwrap();
    let mut proc2 = proc2;
    assert!(proc2.child.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}
