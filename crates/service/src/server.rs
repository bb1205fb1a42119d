//! The persistent detection server.
//!
//! One process owns a listening socket (Unix or TCP), a bounded admission
//! queue, a small pool of job workers driving the engine ([`Engine`]), and
//! the crash-safe [`ResultCache`].  The failure-containment ladder:
//!
//! * **Per connection** — read/write deadlines and the frame-length cap
//!   mean a stalled, slow-loris or garbage-spewing client costs one
//!   handler thread for at most one timeout, then is disconnected.
//!   Protocol errors on one connection never touch another.
//! * **Per request** — deadlines and memory budgets clamp to the server's
//!   own ceilings and ride the engine's `StopReason` machinery; a request
//!   whose client vanishes mid-stream has its chained
//!   [`CancelFlag`] raised so the engine stops paying for it.
//! * **Per server** — admission control: when the job queue is full the
//!   request is shed *immediately* with `Busy{retry_after}` instead of
//!   queueing without bound, so latency under overload stays flat for the
//!   jobs that are admitted.
//! * **Across restarts** — every conclusive verdict is committed to the
//!   cache (temp file + fsync + atomic rename) the moment it is produced,
//!   so `kill -9` loses at most the jobs in flight; the startup recovery
//!   scan discards torn entries by checksum.
//!
//! The accept loop blocks in `accept`; the `shutdown` handler wakes it by
//! connecting to the server's own endpoint, and the loop drops that (and
//! any later) connection once draining has begun.
//!
//! Graceful shutdown (`shutdown` command) drains: the listener closes, the
//! queue's sender is dropped so workers finish what was admitted and exit,
//! a watchdog raises the drain cancel flag after the grace period for
//! stragglers, and the cache is flushed.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use sepe_processor::{Mutation, ProcessorConfig};
use sepe_smt::CancelFlag;
use sepe_sqed::{BatchStats, DetectionJob, DetectorConfig, Engine, FaultPlan, Method, RetryPolicy};
use sepe_tsys::ProofMethod;
use serde::Value;

use crate::cache::{job_descriptor, RecoveryStats, ResultCache};
use crate::protocol::{
    self, encode_reply, read_frame, write_frame, DoneStats, ProtocolError, Reply, Request,
    SubmitRequest, Verdict, DEFAULT_MAX_FRAME_LEN,
};

/// Where a server listens (or a client connects).
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
    /// A TCP address (use port 0 to let the OS pick).
    Tcp(SocketAddr),
}

/// A bidirectional connection with settable I/O deadlines — the one
/// abstraction both transports satisfy.
pub(crate) trait Conn: Read + Write + Send {
    /// Applies read/write timeouts (`None` disables one).
    fn set_timeouts(&self, read: Option<Duration>, write: Option<Duration>) -> io::Result<()>;
}

#[cfg(unix)]
impl Conn for UnixStream {
    fn set_timeouts(&self, read: Option<Duration>, write: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(read)?;
        self.set_write_timeout(write)
    }
}

impl Conn for TcpStream {
    fn set_timeouts(&self, read: Option<Duration>, write: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(read)?;
        self.set_write_timeout(write)
    }
}

enum Listener {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        match endpoint {
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                // A stale socket file from a crashed predecessor would make
                // the bind fail; remove it (connect-probing would race).
                let _ = std::fs::remove_file(path);
                Ok(Listener::Unix(UnixListener::bind(path)?))
            }
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
        }
    }

    fn accept(&self) -> io::Result<Box<dyn Conn>> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Box::new(s) as Box<dyn Conn>),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Box::new(s) as Box<dyn Conn>),
        }
    }

    fn local_addr(&self) -> Option<SocketAddr> {
        match self {
            #[cfg(unix)]
            Listener::Unix(_) => None,
            Listener::Tcp(l) => l.local_addr().ok(),
        }
    }

    /// Where a connection reaches this listener: the bound socket path, or
    /// the bound TCP address (the OS-chosen port for port 0, loopback for
    /// a wildcard address).
    fn reachable_at(&self, endpoint: &Endpoint) -> Endpoint {
        let Some(mut addr) = self.local_addr() else {
            return endpoint.clone();
        };
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Endpoint::Tcp(addr)
    }
}

/// Server configuration.  [`ServerConfig::new`] gives conservative
/// defaults; everything is a public field.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Root directory of the crash-safe result cache.
    pub cache_dir: PathBuf,
    /// Job-worker threads (each runs one admitted request at a time).
    pub job_workers: usize,
    /// Admission queue depth: requests beyond `job_workers` in flight plus
    /// this many queued are shed with `Busy`.
    pub queue_capacity: usize,
    /// Per-connection read deadline (a stalled client is disconnected).
    pub read_timeout: Duration,
    /// Per-connection write deadline.
    pub write_timeout: Duration,
    /// Frame payload cap.
    pub max_frame_len: usize,
    /// Suggested client backoff carried in `Busy` replies.
    pub busy_retry_after: Duration,
    /// Ceiling on any request's wall-clock deadline; also the default when
    /// a request names none.
    pub max_deadline: Duration,
    /// Default per-request SAT memory cap (a request may ask for less).
    pub default_memory_limit: Option<usize>,
    /// Grace period between drain start and the watchdog raising the
    /// cancel flag on stragglers.
    pub drain_grace: Duration,
    /// Retry ladder applied to computed jobs (at most two retries, each
    /// at the requested bound; see [`RetryPolicy`]).
    pub retry: RetryPolicy,
    /// Protocol-layer fault plan applied to every connection's frame I/O
    /// (test machinery; `None` in production).
    pub fault: Option<FaultPlan>,
    /// Abort the process (as `SIGKILL` would) right after this many cache
    /// commits — the crash-safety test's trigger.
    pub crash_after_jobs: Option<u64>,
    /// Artificial pause before each computed entry (makes overload and
    /// drain timing deterministic in tests).
    pub job_delay: Option<Duration>,
}

impl ServerConfig {
    /// Conservative defaults on the given endpoint and cache directory.
    pub fn new(endpoint: Endpoint, cache_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            endpoint,
            cache_dir: cache_dir.into(),
            job_workers: 1,
            queue_capacity: 4,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            busy_retry_after: Duration::from_millis(50),
            max_deadline: Duration::from_secs(60),
            default_memory_limit: None,
            drain_grace: Duration::from_secs(5),
            retry: RetryPolicy::ladder(1),
            fault: None,
            crash_after_jobs: None,
            job_delay: None,
        }
    }
}

/// Monotonic service counters (all writes relaxed: they are reporting,
/// never synchronisation).
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    requests: AtomicU64,
    submits: AtomicU64,
    jobs: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    busy_rejections: AtomicU64,
    protocol_errors: AtomicU64,
    cancelled_requests: AtomicU64,
    encodes: AtomicU64,
    witness_validations: AtomicU64,
    witness_mismatches: AtomicU64,
    retries: AtomicU64,
    degraded_runs: AtomicU64,
    panics: AtomicU64,
}

macro_rules! bump {
    ($shared:expr, $field:ident) => {
        $shared.counters.$field.fetch_add(1, Ordering::Relaxed)
    };
    ($shared:expr, $field:ident, $n:expr) => {
        $shared.counters.$field.fetch_add($n, Ordering::Relaxed)
    };
}

/// One entry of an admitted request that missed the cache.
struct MissEntry {
    label: String,
    mutation: Option<Mutation>,
    descriptor: String,
}

/// What a worker streams back to the connection handler.
enum WorkerMsg {
    Verdict(Verdict),
    Finished(DoneStats),
}

/// An admitted unit of work.
struct Ticket {
    method: Method,
    processor: ProcessorConfig,
    bound: usize,
    simplify: bool,
    aig: bool,
    conflict_limit: Option<u64>,
    memory_limit: Option<usize>,
    deadline: Duration,
    prove: Option<ProofMethod>,
    entries: Vec<MissEntry>,
    cancel: CancelFlag,
    replies: Sender<WorkerMsg>,
}

struct Shared {
    config: ServerConfig,
    /// The listener's own address, for waking the accept loop on shutdown.
    wake: Endpoint,
    cache: ResultCache,
    recovery: RecoveryStats,
    counters: Counters,
    draining: AtomicBool,
    drain_cancel: CancelFlag,
    queue: Mutex<Option<SyncSender<Ticket>>>,
    committed_jobs: AtomicU64,
    active_handlers: AtomicU64,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Starts the drain and wakes the accept loop, which blocks in `accept`
    /// until some connection arrives: a throwaway connection to the
    /// server's own endpoint is that connection.
    fn start_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // A failed connect means the listener is already gone.
        let _ = match &self.wake {
            #[cfg(unix)]
            Endpoint::Unix(path) => UnixStream::connect(path).map(drop),
            Endpoint::Tcp(addr) => TcpStream::connect(addr).map(drop),
        };
    }

    /// Counters snapshot as an ordered JSON object (the `stats` reply).
    fn snapshot(&self) -> Value {
        let c = &self.counters;
        let get = |a: &AtomicU64| Value::UInt(a.load(Ordering::Relaxed));
        Value::Object(
            vec![
                ("accepted", get(&c.accepted)),
                ("requests", get(&c.requests)),
                ("submits", get(&c.submits)),
                ("jobs", get(&c.jobs)),
                ("cache_hits", get(&c.cache_hits)),
                ("cache_misses", get(&c.cache_misses)),
                ("busy_rejections", get(&c.busy_rejections)),
                ("protocol_errors", get(&c.protocol_errors)),
                ("cancelled_requests", get(&c.cancelled_requests)),
                ("encodes", get(&c.encodes)),
                ("witness_validations", get(&c.witness_validations)),
                ("witness_mismatches", get(&c.witness_mismatches)),
                ("retries", get(&c.retries)),
                ("degraded_runs", get(&c.degraded_runs)),
                ("panics", get(&c.panics)),
                ("cache_entries", Value::UInt(self.cache.len() as u64)),
                ("recovered_entries", Value::UInt(self.recovery.recovered)),
                ("corrupted_entries", Value::UInt(self.recovery.corrupted)),
                (
                    "temps_discarded",
                    Value::UInt(self.recovery.temps_discarded),
                ),
                (
                    "clean_shutdown",
                    Value::UInt(u64::from(self.recovery.clean_shutdown)),
                ),
                ("draining", Value::UInt(u64::from(self.draining()))),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        )
    }

    /// Commits one conclusive verdict and fires the crash hook if armed.
    fn commit(&self, descriptor: &str, verdict: &Verdict) {
        let core = protocol::verdict_core(verdict);
        let json = serde_json::to_string(&core).expect("rendering is total");
        if self.cache.insert(descriptor, &json).is_ok() {
            let committed = self.committed_jobs.fetch_add(1, Ordering::SeqCst) + 1;
            if let Some(limit) = self.config.crash_after_jobs {
                if committed >= limit {
                    // Simulate a power cut: no unwinding, no flush, no
                    // clean marker.  The recovery scan must make this safe.
                    std::process::abort();
                }
            }
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    shared: Arc<Shared>,
    listener: Listener,
    workers: Vec<thread::JoinHandle<()>>,
}

/// What `run` observed, returned after a graceful drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerReport {
    /// What the startup recovery scan found.
    pub recovery: RecoveryStats,
    /// Entries in the cache at shutdown.
    pub cache_entries: usize,
    /// Connections accepted and served (a shutdown's wake-up connection is
    /// not one).
    pub accepted: u64,
}

impl Server {
    /// Binds the endpoint, opens (and recovers) the cache, and spawns the
    /// job workers.  The server does not accept connections until
    /// [`Server::run`].
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let (cache, recovery) = ResultCache::open(&config.cache_dir)?;
        let listener = Listener::bind(&config.endpoint)?;
        let wake = listener.reachable_at(&config.endpoint);
        let (tx, rx) = mpsc::sync_channel::<Ticket>(config.queue_capacity.max(1));
        let shared = Arc::new(Shared {
            config,
            wake,
            cache,
            recovery,
            counters: Counters::default(),
            draining: AtomicBool::new(false),
            drain_cancel: CancelFlag::default(),
            queue: Mutex::new(Some(tx)),
            committed_jobs: AtomicU64::new(0),
            active_handlers: AtomicU64::new(0),
        });
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..shared.config.job_workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                thread::spawn(move || worker_loop(&shared, &rx))
            })
            .collect();
        Ok(Server {
            shared,
            listener,
            workers,
        })
    }

    /// What the startup recovery scan found.
    pub fn recovery(&self) -> RecoveryStats {
        self.shared.recovery
    }

    /// The bound TCP address (None for Unix endpoints) — lets tests bind
    /// port 0.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a `shutdown` request completes the drain.
    pub fn run(self) -> io::Result<ServerReport> {
        let Server {
            shared,
            listener,
            workers,
        } = self;
        loop {
            match listener.accept() {
                // The wake-up connection of a `shutdown`, or a client that
                // raced it: either way the drain has begun.
                Ok(_) if shared.draining() => break,
                Ok(conn) => {
                    bump!(shared, accepted);
                    let shared = Arc::clone(&shared);
                    shared.active_handlers.fetch_add(1, Ordering::SeqCst);
                    thread::spawn(move || {
                        handle_connection(&shared, conn);
                        shared.active_handlers.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Drain: stop accepting, let workers finish what was admitted.
        drop(listener);
        #[cfg(unix)]
        if let Endpoint::Unix(path) = &shared.config.endpoint {
            let _ = std::fs::remove_file(path);
        }
        shared.queue.lock().unwrap().take(); // workers exit after the queue empties
                                             // The watchdog raises the cancel flag after the grace period, unless
                                             // the drain completes first and hangs up on it.
        let (drained, drain_done) = mpsc::channel::<()>();
        let watchdog = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                if let Err(RecvTimeoutError::Timeout) =
                    drain_done.recv_timeout(shared.config.drain_grace)
                {
                    shared.drain_cancel.store(true, Ordering::SeqCst);
                }
            })
        };
        for worker in workers {
            let _ = worker.join();
        }
        // Handlers still streaming already-computed verdicts get a bounded
        // courtesy window; their sockets have write deadlines anyway.
        let patience = Instant::now();
        while shared.active_handlers.load(Ordering::SeqCst) > 0
            && patience.elapsed() < shared.config.drain_grace + Duration::from_secs(1)
        {
            thread::sleep(Duration::from_millis(5));
        }
        drop(drained);
        shared.drain_cancel.store(true, Ordering::SeqCst);
        let _ = watchdog.join();
        shared.cache.flush()?;
        Ok(ServerReport {
            recovery: shared.recovery,
            cache_entries: shared.cache.len(),
            accepted: shared.counters.accepted.load(Ordering::Relaxed),
        })
    }
}

/// One connection: serve requests until the peer closes, errs, or stalls
/// past a deadline.
fn handle_connection(shared: &Shared, mut conn: Box<dyn Conn>) {
    let _ = conn.set_timeouts(
        Some(shared.config.read_timeout),
        Some(shared.config.write_timeout),
    );
    let fault = shared.config.fault;
    let mut read_count = 0u64;
    let mut write_count = 0u64;
    loop {
        let payload = match read_frame(
            &mut conn,
            shared.config.max_frame_len,
            fault.as_ref(),
            &mut read_count,
        ) {
            Ok(p) => p,
            Err(ProtocolError::Closed) => return,
            Err(e) => {
                bump!(shared, protocol_errors);
                // Best-effort parting error; the stream state is unknown,
                // so close regardless.
                let _ = send(
                    &mut conn,
                    &Reply::Error {
                        message: e.to_string(),
                    },
                    fault.as_ref(),
                    &mut write_count,
                );
                return;
            }
        };
        bump!(shared, requests);
        let request = match protocol::decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                bump!(shared, protocol_errors);
                let _ = send(
                    &mut conn,
                    &Reply::Error {
                        message: e.to_string(),
                    },
                    fault.as_ref(),
                    &mut write_count,
                );
                continue; // the frame itself was well-delimited; keep going
            }
        };
        let keep_going = match request {
            Request::Ping => {
                send(&mut conn, &Reply::Pong, fault.as_ref(), &mut write_count).is_ok()
            }
            Request::Stats => send(
                &mut conn,
                &Reply::Stats(shared.snapshot()),
                fault.as_ref(),
                &mut write_count,
            )
            .is_ok(),
            Request::Shutdown => {
                let _ = send(
                    &mut conn,
                    &Reply::ShuttingDown,
                    fault.as_ref(),
                    &mut write_count,
                );
                shared.start_drain();
                false
            }
            Request::Submit(submit) => {
                handle_submit(shared, &mut conn, submit, fault.as_ref(), &mut write_count).is_ok()
            }
        };
        if !keep_going {
            return;
        }
    }
}

fn send(
    conn: &mut Box<dyn Conn>,
    reply: &Reply,
    fault: Option<&FaultPlan>,
    counter: &mut u64,
) -> Result<(), ProtocolError> {
    write_frame(conn, &encode_reply(reply), fault, counter)
}

/// Serves one submit: admission first, then cache hits, then the streamed
/// verdicts of the computed remainder, then `done`.
fn handle_submit(
    shared: &Shared,
    conn: &mut Box<dyn Conn>,
    submit: SubmitRequest,
    fault: Option<&FaultPlan>,
    write_count: &mut u64,
) -> Result<(), ProtocolError> {
    bump!(shared, submits);
    if shared.draining() {
        return send(conn, &Reply::ShuttingDown, fault, write_count);
    }
    // Resolve the catalogue: an empty mutation list checks the clean design.
    let labels: Vec<(String, Option<Mutation>)> = if submit.mutations.is_empty() {
        vec![("clean".to_string(), None)]
    } else {
        submit
            .mutations
            .iter()
            .map(|name| (name.clone(), protocol::mutation_by_name(name)))
            .collect()
    };
    let mut hits: Vec<Verdict> = Vec::new();
    let mut misses: Vec<MissEntry> = Vec::new();
    for (label, mutation) in labels {
        let descriptor = job_descriptor(
            &submit.processor,
            submit.method,
            submit.bound,
            mutation.as_ref().map(|_| label.as_str()),
            submit.simplify,
            submit.aig,
            submit.prove,
        );
        match shared.cache.lookup(&descriptor) {
            Some(json) => {
                let core = serde_json::from_str(&json)
                    .map_err(|e| ProtocolError::Malformed(e.to_string()))?;
                hits.push(protocol::verdict_from_core(&core, true)?);
            }
            None => misses.push(MissEntry {
                label,
                mutation,
                descriptor,
            }),
        }
    }
    bump!(shared, cache_hits, hits.len() as u64);
    bump!(shared, cache_misses, misses.len() as u64);

    // Admission control happens before the first reply frame, so a shed
    // request is *all* Busy, never half a verdict stream.
    let mut worker_rx: Option<Receiver<WorkerMsg>> = None;
    let cancel = CancelFlag::default();
    if !misses.is_empty() {
        let (tx, rx) = mpsc::channel();
        let deadline = submit
            .deadline_ms
            .map(Duration::from_millis)
            .unwrap_or(shared.config.max_deadline)
            .min(shared.config.max_deadline);
        let ticket = Ticket {
            method: submit.method,
            processor: submit.processor.clone(),
            bound: submit.bound,
            simplify: submit.simplify,
            aig: submit.aig,
            conflict_limit: submit.conflict_limit,
            memory_limit: submit.memory_limit.or(shared.config.default_memory_limit),
            deadline,
            prove: submit.prove,
            entries: misses,
            cancel: cancel.clone(),
            replies: tx,
        };
        let queue = shared.queue.lock().unwrap();
        match queue.as_ref() {
            None => return send(conn, &Reply::ShuttingDown, fault, write_count),
            Some(sender) => match sender.try_send(ticket) {
                Ok(()) => worker_rx = Some(rx),
                Err(TrySendError::Full(_)) => {
                    bump!(shared, busy_rejections);
                    return send(
                        conn,
                        &Reply::Busy {
                            retry_after_ms: shared.config.busy_retry_after.as_millis() as u64,
                        },
                        fault,
                        write_count,
                    );
                }
                Err(TrySendError::Disconnected(_)) => {
                    return send(conn, &Reply::ShuttingDown, fault, write_count)
                }
            },
        }
    }

    let mut done = DoneStats {
        jobs: hits.len() as u64,
        from_cache: hits.len() as u64,
        ..DoneStats::default()
    };
    let mut stream_dead = false;
    for verdict in hits {
        if send(conn, &Reply::Verdict(verdict), fault, write_count).is_err() {
            stream_dead = true;
            break;
        }
    }
    if let Some(rx) = worker_rx {
        // Keep draining the worker even after a write failure: the channel
        // must empty so the worker never blocks, and the cancel flag stops
        // the engine at its next check.
        for msg in rx {
            match msg {
                WorkerMsg::Verdict(verdict) => {
                    if !stream_dead
                        && send(conn, &Reply::Verdict(verdict), fault, write_count).is_err()
                    {
                        stream_dead = true;
                        cancel.store(true, Ordering::SeqCst);
                        bump!(shared, cancelled_requests);
                    }
                }
                WorkerMsg::Finished(computed) => done.absorb(&computed),
            }
        }
    }
    bump!(shared, jobs, done.jobs);
    if stream_dead {
        return Err(ProtocolError::Closed);
    }
    send(conn, &Reply::Done(done), fault, write_count)
}

/// Job-worker main loop: pull tickets until the queue closes.
fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<Ticket>>) {
    loop {
        // Holding the lock across `recv` is the standard shared-receiver
        // pattern: exactly one idle worker sleeps in recv at a time.
        let ticket = {
            let guard = rx.lock().unwrap();
            guard.recv()
        };
        match ticket {
            Err(_) => return, // queue sender dropped: drain complete
            Ok(ticket) => run_ticket(shared, ticket),
        }
    }
}

/// Builds the detector configuration for a ticket, budgets and the
/// server's retry ladder applied.
fn ticket_config(shared: &Shared, ticket: &Ticket, remaining: Duration) -> DetectorConfig {
    let mut builder = DetectorConfig::builder()
        .processor(ticket.processor.clone())
        .bound(ticket.bound)
        .simplify(ticket.simplify)
        .aig(ticket.aig)
        .time_limit(remaining)
        .retry(shared.config.retry)
        .cancel(ticket.cancel.clone())
        .cancel(shared.drain_cancel.clone());
    if let Some(limit) = ticket.conflict_limit {
        builder = builder.conflict_limit(limit);
    }
    if let Some(limit) = ticket.memory_limit {
        builder = builder.memory_limit(limit);
    }
    if let Some(method) = ticket.prove {
        builder = builder.prove(method);
    }
    builder.build()
}

fn stream_verdict(shared: &Shared, ticket: &Ticket, entry: &MissEntry, verdict: Verdict) {
    // Only conclusive verdicts are cached: an inconclusive answer is a
    // budget artefact, not a property of the job.
    if !verdict.inconclusive {
        shared.commit(&entry.descriptor, &verdict);
    }
    let _ = ticket.replies.send(WorkerMsg::Verdict(verdict));
}

/// Runs one admitted request to completion, streaming verdicts and
/// committing each conclusive one before moving on.
fn run_ticket(shared: &Shared, ticket: Ticket) {
    let started = Instant::now();
    let mut computed = DoneStats::default();
    // One engine run per entry keeps the crash-loss granularity at a single
    // job and lets each verdict stream (and commit) as soon as it exists.
    for entry in &ticket.entries {
        if let Some(delay) = shared.config.job_delay {
            thread::sleep(delay);
        }
        let remaining = ticket.deadline.saturating_sub(started.elapsed());
        let config = ticket_config(shared, &ticket, remaining);
        let job = DetectionJob::new(
            entry.label.clone(),
            config,
            ticket.method,
            entry.mutation.clone(),
        );
        let outcome = Engine::new(1).run(vec![job]);
        let verdict = protocol::verdict_from_detection(&entry.label, &outcome.detections[0], false);
        stream_verdict(shared, &ticket, entry, verdict);
        tally(&mut computed, &outcome.stats);
    }
    let c = &shared.counters;
    c.encodes.fetch_add(computed.encodes, Ordering::Relaxed);
    c.witness_validations
        .fetch_add(computed.witness_validations, Ordering::Relaxed);
    c.witness_mismatches
        .fetch_add(computed.witness_mismatches, Ordering::Relaxed);
    c.retries.fetch_add(computed.retries, Ordering::Relaxed);
    c.degraded_runs
        .fetch_add(computed.degraded_runs, Ordering::Relaxed);
    c.panics.fetch_add(computed.panics, Ordering::Relaxed);
    let _ = ticket.replies.send(WorkerMsg::Finished(computed));
}

/// Adds one engine run's counters to a request's totals.
fn tally(computed: &mut DoneStats, stats: &BatchStats) {
    computed.jobs += stats.jobs;
    computed.computed += stats.jobs;
    computed.encodes += stats.encodes;
    computed.witness_validations += stats.witness_validations;
    computed.witness_mismatches += stats.witness_mismatches;
    computed.retries += stats.retries;
    computed.degraded_runs += stats.degraded_runs;
    computed.panics += stats.panics;
    computed.cancelled += stats.cancelled;
    computed.proved += stats.proved;
    computed.proof_mismatches += stats.proof_mismatches;
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}
