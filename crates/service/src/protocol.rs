//! The detection service's wire protocol.
//!
//! # Frame format
//!
//! Every message travels in one *frame*:
//!
//! ```text
//! +------+------------+----------------------+
//! | "SEPB" | u32 (BE) | payload (JSON bytes) |
//! +------+------------+----------------------+
//!   magic    length            length bytes
//! ```
//!
//! The 4-byte magic lets the server reject garbage streams after 4 bytes
//! instead of waiting for a length's worth of noise; the big-endian length
//! is capped ([`ServerConfig::max_frame_len`](crate::server::ServerConfig))
//! so an adversarial `0xffffffff` prefix cannot make the peer allocate 4 GiB.
//! Payloads are JSON documents (the offline serde shims) with a `cmd` field
//! on requests and a `reply` field on replies.
//!
//! # Fault injection
//!
//! [`read_frame`]/[`write_frame`] accept an optional
//! [`FaultPlan`] whose protocol-layer fault points fire on a caller-held
//! frame counter: drop the connection after half a frame *header*, truncate
//! a frame's payload after a full header, or delay a read.  Everything is
//! counter-indexed (never wall-clock), so the hostile-input soak test
//! reproduces bit-identically from a seed.

use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

use sepe_isa::Opcode;
use sepe_processor::{Mutation, ProcessorConfig};
use sepe_smt::FastMap;
use sepe_sqed::detect::{Detection, Method};
use sepe_sqed::fault::FaultPlan;
use sepe_tsys::{ProofMethod, Witness};
use serde::Value;

/// The frame magic.
pub const FRAME_MAGIC: [u8; 4] = *b"SEPB";

/// Default cap on a frame's payload length (4 MiB — a full witness of a
/// deep trace fits in kilobytes, so this is generous by orders of
/// magnitude).
pub const DEFAULT_MAX_FRAME_LEN: usize = 4 * 1024 * 1024;

/// Hard cap on the BMC bound a request may ask for (a hostile `bound:
/// 10^9` must be rejected at admission, not after a week of solving).
pub const MAX_REQUEST_BOUND: usize = 64;

/// Hard cap on the catalogue size of one request.
pub const MAX_REQUEST_MUTATIONS: usize = 256;

/// How long an injected [`FaultPlan::delay_read_at_frame`] stalls.  Fixed
/// and short: the *deadline under test* is the knob, never this constant.
pub const INJECTED_READ_DELAY: Duration = Duration::from_millis(30);

/// Protocol-level failure.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying transport failed (includes read/write deadline
    /// expiry, surfaced by the socket as `WouldBlock`/`TimedOut`).
    Io(io::Error),
    /// The peer closed the connection at a frame boundary (clean EOF).
    Closed,
    /// The first four bytes of a frame were not the magic.
    BadMagic([u8; 4]),
    /// The frame's declared length exceeds the cap.
    Oversized {
        /// Declared payload length.
        len: usize,
        /// The enforced cap.
        cap: usize,
    },
    /// The payload was not a well-formed message.
    Malformed(String),
    /// A deterministic protocol fault fired (test machinery; the connection
    /// is torn by design).
    Injected(&'static str),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "transport error: {e}"),
            ProtocolError::Closed => write!(f, "connection closed"),
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtocolError::Oversized { len, cap } => {
                write!(f, "frame length {len} exceeds cap {cap}")
            }
            ProtocolError::Malformed(m) => write!(f, "malformed message: {m}"),
            ProtocolError::Injected(kind) => write!(f, "injected protocol fault: {kind}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Writes one frame, honouring the plan's write-side fault points.
///
/// `counter` is the caller's per-connection frame counter; it is
/// incremented by this call (the first frame written is frame 1).
pub fn write_frame(
    w: &mut impl Write,
    payload: &[u8],
    fault: Option<&FaultPlan>,
    counter: &mut u64,
) -> Result<(), ProtocolError> {
    *counter += 1;
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&FRAME_MAGIC);
    header[4..].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    if let Some(plan) = fault {
        if plan.drop_connection_at_frame == Some(*counter) {
            // Sever mid-header: the peer sees a torn frame prefix.
            w.write_all(&header[..4])?;
            w.flush()?;
            return Err(ProtocolError::Injected("drop mid-frame"));
        }
        if plan.truncate_frame_at == Some(*counter) {
            // Full header promising `len` bytes, only half delivered.
            w.write_all(&header)?;
            w.write_all(&payload[..payload.len() / 2])?;
            w.flush()?;
            return Err(ProtocolError::Injected("truncated frame"));
        }
    }
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, honouring the plan's read-side fault points and the
/// payload-length cap.  A clean EOF at the frame boundary reports
/// [`ProtocolError::Closed`]; EOF mid-frame reports an I/O error.
pub fn read_frame(
    r: &mut impl Read,
    max_len: usize,
    fault: Option<&FaultPlan>,
    counter: &mut u64,
) -> Result<Vec<u8>, ProtocolError> {
    *counter += 1;
    if let Some(plan) = fault {
        if plan.delay_read_at_frame == Some(*counter) {
            std::thread::sleep(INJECTED_READ_DELAY);
        }
    }
    let mut header = [0u8; 8];
    // First byte separately, to tell a clean close from a torn frame.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(ProtocolError::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    header[0] = first[0];
    r.read_exact(&mut header[1..])?;
    if header[..4] != FRAME_MAGIC {
        return Err(ProtocolError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    let len = u32::from_be_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > max_len {
        return Err(ProtocolError::Oversized { len, cap: max_len });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// One detection request: which method/bound to run over which processor
/// universe, against which catalogue of named mutations.
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// The verification method.
    pub method: Method,
    /// Maximum BMC bound.
    pub bound: usize,
    /// The processor model (its `allowed_opcodes` are the original
    /// universe).
    pub processor: ProcessorConfig,
    /// Catalogue of mutation names (resolved against
    /// [`mutation_by_name`]); empty checks the clean design.
    pub mutations: Vec<String>,
    /// Still encoded and decoded, but ignored: the server runs every cache
    /// miss as its own job.
    pub batched: bool,
    /// Per-request wall-clock budget in milliseconds (the server clamps it
    /// to its own default deadline).
    pub deadline_ms: Option<u64>,
    /// Per-request SAT memory cap in bytes (clamped likewise).
    pub memory_limit: Option<usize>,
    /// Per-request SAT conflict budget per query.
    pub conflict_limit: Option<u64>,
    /// Word-level preprocessing.
    pub simplify: bool,
    /// Gate-level AIG reductions.
    pub aig: bool,
    /// Run an unbounded prover instead of bounded BMC (`None`: bounded).
    /// The bound becomes the prover's depth/frontier cap, and a verdict may
    /// come back `proved` — conclusive at every depth, hence cacheable.
    pub prove: Option<ProofMethod>,
}

impl SubmitRequest {
    /// A request over defaults: everything on, no budgets.
    pub fn new(method: Method, bound: usize, processor: ProcessorConfig) -> Self {
        SubmitRequest {
            method,
            bound,
            processor,
            mutations: Vec::new(),
            batched: false,
            deadline_ms: None,
            memory_limit: None,
            conflict_limit: None,
            simplify: true,
            aig: true,
            prove: None,
        }
    }
}

/// A client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Server counters snapshot.
    Stats,
    /// Graceful drain: stop accepting, finish or cancel in-flight work,
    /// flush the cache.
    Shutdown,
    /// A detection job.
    Submit(SubmitRequest),
}

/// One per-entry verdict as it travels the wire.  All fields are
/// deterministic for a fixed request (no wall-clock), which is what lets
/// the soak test assert bit-identical replies and the cache re-serve
/// stored verdicts verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The entry's label (mutation name, or `"clean"`).
    pub label: String,
    /// Whether this verdict was served from the result cache.
    pub cached: bool,
    /// Whether a counterexample was found.
    pub detected: bool,
    /// Whether the run ended without a verdict.
    pub inconclusive: bool,
    /// The classified stop reason of an inconclusive run.
    pub stop_reason: Option<String>,
    /// Deepest bound explored.
    pub bound_reached: u64,
    /// Counterexample length, when detected.
    pub trace_len: Option<u64>,
    /// SAT conflicts spent.
    pub conflicts: u64,
    /// Witness self-check result (`None`: no counterexample or validation
    /// off).
    pub witness_validated: Option<bool>,
    /// The counterexample, serialized with sorted keys (`None` when not
    /// detected).
    pub witness: Option<Value>,
    /// Whether the property was proved for all depths (an unbounded prover
    /// converged and its certificate survived the self-check).
    pub proved: bool,
    /// The prover behind a `proved` verdict (wire name, see
    /// [`proof_method_name`]).
    pub proof_method: Option<String>,
    /// PDR frontier at which the proof closed.
    pub proof_depth: Option<u64>,
    /// Independent-solver certificate self-check result (`None`: nothing
    /// proved or validation off).
    pub proof_checked: Option<bool>,
}

/// End-of-stream statistics of one submit request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DoneStats {
    /// Entries answered (cache hits + computed).
    pub jobs: u64,
    /// Entries served from the result cache.
    pub from_cache: u64,
    /// Entries computed by the engine.
    pub computed: u64,
    /// Transition-system encodings paid for the computed entries.
    pub encodes: u64,
    /// Witness replays performed.
    pub witness_validations: u64,
    /// Witness replays that mismatched (verdicts demoted).
    pub witness_mismatches: u64,
    /// Retry attempts beyond each entry's first.
    pub retries: u64,
    /// Entries whose final attempt ran degraded.
    pub degraded_runs: u64,
    /// Attempts that panicked and were caught.
    pub panics: u64,
    /// Entries cancelled through a flag.
    pub cancelled: u64,
    /// Entries whose verdict was `proved` (unbounded prover converged).
    pub proved: u64,
    /// Certificates that failed the independent self-check (verdicts
    /// demoted to proof-mismatch).
    pub proof_mismatches: u64,
}

impl DoneStats {
    /// Adds another request part's counters to these.
    pub fn absorb(&mut self, other: &DoneStats) {
        self.jobs += other.jobs;
        self.from_cache += other.from_cache;
        self.computed += other.computed;
        self.encodes += other.encodes;
        self.witness_validations += other.witness_validations;
        self.witness_mismatches += other.witness_mismatches;
        self.retries += other.retries;
        self.degraded_runs += other.degraded_runs;
        self.panics += other.panics;
        self.cancelled += other.cancelled;
        self.proved += other.proved;
        self.proof_mismatches += other.proof_mismatches;
    }
}

/// A server reply.
#[derive(Debug, Clone)]
pub enum Reply {
    /// Liveness answer.
    Pong,
    /// Counters snapshot (flat object of `u64`s).
    Stats(Value),
    /// The server is draining; no new work is admitted.
    ShuttingDown,
    /// Admission control shed this request; retry after the given delay.
    Busy {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The request was rejected or the job failed structurally.
    Error {
        /// Human-readable reason (also machine-stable for tests).
        message: String,
    },
    /// One entry's verdict (a submit streams one per entry).
    Verdict(Verdict),
    /// End of a submit stream.
    Done(DoneStats),
}

// ---------------------------------------------------------------------------
// JSON encode/decode
// ---------------------------------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn string(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn opt_u64(v: Option<u64>) -> Value {
    v.map_or(Value::Null, Value::UInt)
}

fn render(v: &Value) -> Vec<u8> {
    serde_json::to_string(v)
        .expect("the shim's rendering is total")
        .into_bytes()
}

fn need<'a>(v: &'a Value, key: &str) -> Result<&'a Value, ProtocolError> {
    v.get(key)
        .ok_or_else(|| ProtocolError::Malformed(format!("missing field '{key}'")))
}

fn need_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, ProtocolError> {
    need(v, key)?
        .as_str()
        .ok_or_else(|| ProtocolError::Malformed(format!("field '{key}' must be a string")))
}

fn need_u64(v: &Value, key: &str) -> Result<u64, ProtocolError> {
    need(v, key)?
        .as_u64()
        .ok_or_else(|| ProtocolError::Malformed(format!("field '{key}' must be an integer")))
}

fn need_bool(v: &Value, key: &str) -> Result<bool, ProtocolError> {
    need(v, key)?
        .as_bool()
        .ok_or_else(|| ProtocolError::Malformed(format!("field '{key}' must be a boolean")))
}

fn maybe_u64(v: &Value, key: &str) -> Result<Option<u64>, ProtocolError> {
    match v.get(key) {
        None => Ok(None),
        Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| ProtocolError::Malformed(format!("field '{key}' must be an integer"))),
    }
}

fn maybe_bool(v: &Value, key: &str) -> Result<Option<bool>, ProtocolError> {
    match v.get(key) {
        None => Ok(None),
        Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_bool()
            .map(Some)
            .ok_or_else(|| ProtocolError::Malformed(format!("field '{key}' must be a boolean"))),
    }
}

/// The method's wire name.
pub fn method_name(method: Method) -> &'static str {
    match method {
        Method::Sqed => "sqed",
        Method::SepeSqed => "sepe",
    }
}

/// The proof method's wire name.
pub fn proof_method_name(method: ProofMethod) -> &'static str {
    match method {
        ProofMethod::Pdr => "pdr",
    }
}

/// Parses a proof-method wire name.
pub fn proof_method_from_name(name: &str) -> Option<ProofMethod> {
    match name {
        "pdr" | "ic3" => Some(ProofMethod::Pdr),
        _ => None,
    }
}

/// Parses a method wire name.
pub fn method_from_name(name: &str) -> Option<Method> {
    match name {
        "sqed" => Some(Method::Sqed),
        "sepe" | "sepe-sqed" => Some(Method::SepeSqed),
        _ => None,
    }
}

/// Looks up an opcode by its assembly mnemonic.
pub fn opcode_by_mnemonic(name: &str) -> Option<Opcode> {
    Opcode::ALL.into_iter().find(|op| op.mnemonic() == name)
}

/// Resolves a mutation by name from the paper's two catalogues (Table 1,
/// Figure 4).
pub fn mutation_by_name(name: &str) -> Option<Mutation> {
    Mutation::table1()
        .into_iter()
        .chain(Mutation::figure4())
        .find(|m| m.name == name)
}

/// Non-panicking version of `ProcessorConfig::validate` for untrusted
/// requests (the library version asserts, which would poison a handler).
pub fn check_processor(p: &ProcessorConfig) -> Result<(), String> {
    if !(p.xlen.is_power_of_two() && (4..=32).contains(&p.xlen)) {
        return Err(format!("xlen must be 4, 8, 16 or 32 (got {})", p.xlen));
    }
    if !(p.mem_words.is_power_of_two() && p.mem_words >= 4) {
        return Err(format!(
            "mem_words must be a power of two >= 4 (got {})",
            p.mem_words
        ));
    }
    if !(1..=4).contains(&p.history_depth) {
        return Err(format!(
            "history_depth must be between 1 and 4 (got {})",
            p.history_depth
        ));
    }
    if p.allowed_opcodes.is_empty() {
        return Err("at least one opcode must be allowed".to_string());
    }
    Ok(())
}

/// Encodes a request into a frame payload.
pub fn encode_request(request: &Request) -> Vec<u8> {
    let v = match request {
        Request::Ping => obj(vec![("cmd", string("ping"))]),
        Request::Stats => obj(vec![("cmd", string("stats"))]),
        Request::Shutdown => obj(vec![("cmd", string("shutdown"))]),
        Request::Submit(s) => obj(vec![
            ("cmd", string("submit")),
            ("method", string(method_name(s.method))),
            ("bound", Value::UInt(s.bound as u64)),
            ("xlen", Value::UInt(u64::from(s.processor.xlen))),
            ("mem_words", Value::UInt(s.processor.mem_words as u64)),
            (
                "history_depth",
                Value::UInt(s.processor.history_depth as u64),
            ),
            (
                "opcodes",
                Value::Array(
                    s.processor
                        .allowed_opcodes
                        .iter()
                        .map(|op| string(op.mnemonic()))
                        .collect(),
                ),
            ),
            (
                "mutations",
                Value::Array(s.mutations.iter().map(|m| string(m)).collect()),
            ),
            ("batched", Value::Bool(s.batched)),
            ("deadline_ms", opt_u64(s.deadline_ms)),
            (
                "memory_limit",
                s.memory_limit
                    .map_or(Value::Null, |m| Value::UInt(m as u64)),
            ),
            ("conflict_limit", opt_u64(s.conflict_limit)),
            ("simplify", Value::Bool(s.simplify)),
            ("aig", Value::Bool(s.aig)),
            (
                "prove",
                s.prove
                    .map_or(Value::Null, |m| string(proof_method_name(m))),
            ),
        ]),
    };
    render(&v)
}

/// Decodes a request frame payload, enforcing the admission-level sanity
/// caps ([`MAX_REQUEST_BOUND`], [`MAX_REQUEST_MUTATIONS`], known opcode and
/// mutation names, a valid processor shape).
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ProtocolError::Malformed("payload is not UTF-8".to_string()))?;
    let v = serde_json::from_str(text).map_err(|e| ProtocolError::Malformed(e.to_string()))?;
    match need_str(&v, "cmd")? {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "submit" => {
            let method = method_from_name(need_str(&v, "method")?).ok_or_else(|| {
                ProtocolError::Malformed("method must be 'sqed' or 'sepe'".to_string())
            })?;
            let bound = need_u64(&v, "bound")? as usize;
            if bound == 0 || bound > MAX_REQUEST_BOUND {
                return Err(ProtocolError::Malformed(format!(
                    "bound must be in 1..={MAX_REQUEST_BOUND}"
                )));
            }
            let mut opcodes = Vec::new();
            for op in need(&v, "opcodes")?
                .as_array()
                .ok_or_else(|| ProtocolError::Malformed("opcodes must be an array".to_string()))?
            {
                let name = op.as_str().ok_or_else(|| {
                    ProtocolError::Malformed("opcode entries must be strings".to_string())
                })?;
                opcodes.push(
                    opcode_by_mnemonic(name).ok_or_else(|| {
                        ProtocolError::Malformed(format!("unknown opcode '{name}'"))
                    })?,
                );
            }
            let processor = ProcessorConfig {
                xlen: need_u64(&v, "xlen")? as u32,
                mem_words: need_u64(&v, "mem_words")? as usize,
                history_depth: need_u64(&v, "history_depth")? as usize,
                allowed_opcodes: opcodes,
            };
            check_processor(&processor).map_err(ProtocolError::Malformed)?;
            let mut mutations = Vec::new();
            for m in need(&v, "mutations")?
                .as_array()
                .ok_or_else(|| ProtocolError::Malformed("mutations must be an array".to_string()))?
            {
                let name = m.as_str().ok_or_else(|| {
                    ProtocolError::Malformed("mutation entries must be strings".to_string())
                })?;
                if mutation_by_name(name).is_none() {
                    return Err(ProtocolError::Malformed(format!(
                        "unknown mutation '{name}'"
                    )));
                }
                mutations.push(name.to_string());
            }
            if mutations.len() > MAX_REQUEST_MUTATIONS {
                return Err(ProtocolError::Malformed(format!(
                    "at most {MAX_REQUEST_MUTATIONS} mutations per request"
                )));
            }
            // Optional and tolerant of null, so pre-proof clients keep
            // working against this server unchanged.
            let prove = match v.get("prove") {
                None | Some(Value::Null) => None,
                Some(Value::Str(s)) => Some(proof_method_from_name(s).ok_or_else(|| {
                    ProtocolError::Malformed(format!("unknown proof method '{s}'"))
                })?),
                Some(_) => {
                    return Err(ProtocolError::Malformed(
                        "field 'prove' must be a string".to_string(),
                    ))
                }
            };
            Ok(Request::Submit(SubmitRequest {
                method,
                bound,
                processor,
                mutations,
                batched: need_bool(&v, "batched")?,
                deadline_ms: maybe_u64(&v, "deadline_ms")?,
                memory_limit: maybe_u64(&v, "memory_limit")?.map(|m| m as usize),
                conflict_limit: maybe_u64(&v, "conflict_limit")?,
                simplify: need_bool(&v, "simplify")?,
                aig: need_bool(&v, "aig")?,
                prove,
            }))
        }
        other => Err(ProtocolError::Malformed(format!("unknown cmd '{other}'"))),
    }
}

/// Serializes a witness with sorted keys — deterministic bytes for a
/// deterministic trace, so cached and fresh replies compare equal.
pub fn witness_to_value(witness: &Witness) -> Value {
    fn sorted(map: &FastMap<String, u64>) -> Value {
        let mut pairs: Vec<(&String, &u64)> = map.iter().collect();
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        Value::Object(
            pairs
                .into_iter()
                .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                .collect(),
        )
    }
    Value::Array(
        witness
            .frames()
            .iter()
            .map(|f| {
                obj(vec![
                    ("inputs", sorted(&f.inputs)),
                    ("states", sorted(&f.states)),
                ])
            })
            .collect(),
    )
}

/// Builds a wire verdict from an engine detection.  Runtime is deliberately
/// omitted: verdicts stay deterministic for a fixed request (timings live
/// in the `stats` command instead).
pub fn verdict_from_detection(label: &str, detection: &Detection, cached: bool) -> Verdict {
    Verdict {
        label: label.to_string(),
        cached,
        detected: detection.detected,
        inconclusive: detection.inconclusive,
        stop_reason: detection.stop_reason.map(|r| r.to_string()),
        bound_reached: detection.bound_reached as u64,
        trace_len: detection.trace_len.map(|t| t as u64),
        conflicts: detection.conflicts,
        witness_validated: detection.witness_validated,
        witness: detection
            .witness
            .as_ref()
            .filter(|_| detection.detected)
            .map(witness_to_value),
        proved: detection.proved,
        proof_method: detection
            .proof_method
            .map(|m| proof_method_name(m).to_string()),
        proof_depth: detection.proof_depth.map(|d| d as u64),
        proof_checked: detection.proof_checked,
    }
}

/// The verdict's cacheable core: every field except the transport-level
/// `cached` flag, as an ordered JSON object.  The cache persists exactly
/// these bytes and the server re-wraps them on a hit, so hit and miss
/// replies differ only in `cached`.
pub fn verdict_core(verdict: &Verdict) -> Value {
    obj(vec![
        ("label", string(&verdict.label)),
        ("detected", Value::Bool(verdict.detected)),
        ("inconclusive", Value::Bool(verdict.inconclusive)),
        (
            "stop_reason",
            verdict.stop_reason.as_deref().map_or(Value::Null, string),
        ),
        ("bound_reached", Value::UInt(verdict.bound_reached)),
        ("trace_len", opt_u64(verdict.trace_len)),
        ("conflicts", Value::UInt(verdict.conflicts)),
        (
            "witness_validated",
            verdict.witness_validated.map_or(Value::Null, Value::Bool),
        ),
        ("witness", verdict.witness.clone().unwrap_or(Value::Null)),
        ("proved", Value::Bool(verdict.proved)),
        (
            "proof_method",
            verdict.proof_method.as_deref().map_or(Value::Null, string),
        ),
        ("proof_depth", opt_u64(verdict.proof_depth)),
        (
            "proof_checked",
            verdict.proof_checked.map_or(Value::Null, Value::Bool),
        ),
    ])
}

/// Rebuilds a verdict from its cacheable core.
pub fn verdict_from_core(core: &Value, cached: bool) -> Result<Verdict, ProtocolError> {
    Ok(Verdict {
        label: need_str(core, "label")?.to_string(),
        cached,
        detected: need_bool(core, "detected")?,
        inconclusive: need_bool(core, "inconclusive")?,
        stop_reason: match core.get("stop_reason") {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        },
        bound_reached: need_u64(core, "bound_reached")?,
        trace_len: maybe_u64(core, "trace_len")?,
        conflicts: need_u64(core, "conflicts")?,
        witness_validated: maybe_bool(core, "witness_validated")?,
        witness: match core.get("witness") {
            Some(Value::Null) | None => None,
            Some(w) => Some(w.clone()),
        },
        // Proof fields are tolerant of absence: entries cached before the
        // prover existed decode as unproved bounded verdicts.
        proved: maybe_bool(core, "proved")?.unwrap_or(false),
        proof_method: match core.get("proof_method") {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        },
        proof_depth: maybe_u64(core, "proof_depth")?,
        proof_checked: maybe_bool(core, "proof_checked")?,
    })
}

/// Encodes a reply into a frame payload.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let v = match reply {
        Reply::Pong => obj(vec![("reply", string("pong"))]),
        Reply::Stats(counters) => obj(vec![
            ("reply", string("stats")),
            ("counters", counters.clone()),
        ]),
        Reply::ShuttingDown => obj(vec![("reply", string("shutting_down"))]),
        Reply::Busy { retry_after_ms } => obj(vec![
            ("reply", string("busy")),
            ("retry_after_ms", Value::UInt(*retry_after_ms)),
        ]),
        Reply::Error { message } => obj(vec![
            ("reply", string("error")),
            ("message", string(message)),
        ]),
        Reply::Verdict(verdict) => {
            let mut fields = vec![
                ("reply".to_string(), string("verdict")),
                ("cached".to_string(), Value::Bool(verdict.cached)),
            ];
            if let Value::Object(core) = verdict_core(verdict) {
                fields.extend(core);
            }
            Value::Object(fields)
        }
        Reply::Done(d) => obj(vec![
            ("reply", string("done")),
            ("jobs", Value::UInt(d.jobs)),
            ("from_cache", Value::UInt(d.from_cache)),
            ("computed", Value::UInt(d.computed)),
            ("encodes", Value::UInt(d.encodes)),
            ("witness_validations", Value::UInt(d.witness_validations)),
            ("witness_mismatches", Value::UInt(d.witness_mismatches)),
            ("retries", Value::UInt(d.retries)),
            ("degraded_runs", Value::UInt(d.degraded_runs)),
            ("panics", Value::UInt(d.panics)),
            ("cancelled", Value::UInt(d.cancelled)),
            ("proved", Value::UInt(d.proved)),
            ("proof_mismatches", Value::UInt(d.proof_mismatches)),
        ]),
    };
    render(&v)
}

/// Decodes a reply frame payload.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, ProtocolError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ProtocolError::Malformed("payload is not UTF-8".to_string()))?;
    let v = serde_json::from_str(text).map_err(|e| ProtocolError::Malformed(e.to_string()))?;
    match need_str(&v, "reply")? {
        "pong" => Ok(Reply::Pong),
        "stats" => Ok(Reply::Stats(need(&v, "counters")?.clone())),
        "shutting_down" => Ok(Reply::ShuttingDown),
        "busy" => Ok(Reply::Busy {
            retry_after_ms: need_u64(&v, "retry_after_ms")?,
        }),
        "error" => Ok(Reply::Error {
            message: need_str(&v, "message")?.to_string(),
        }),
        "verdict" => {
            let cached = need_bool(&v, "cached")?;
            Ok(Reply::Verdict(verdict_from_core(&v, cached)?))
        }
        "done" => Ok(Reply::Done(DoneStats {
            jobs: need_u64(&v, "jobs")?,
            from_cache: need_u64(&v, "from_cache")?,
            computed: need_u64(&v, "computed")?,
            encodes: need_u64(&v, "encodes")?,
            witness_validations: need_u64(&v, "witness_validations")?,
            witness_mismatches: need_u64(&v, "witness_mismatches")?,
            retries: need_u64(&v, "retries")?,
            degraded_runs: need_u64(&v, "degraded_runs")?,
            panics: need_u64(&v, "panics")?,
            cancelled: need_u64(&v, "cancelled")?,
            proved: maybe_u64(&v, "proved")?.unwrap_or(0),
            proof_mismatches: maybe_u64(&v, "proof_mismatches")?.unwrap_or(0),
        })),
        other => Err(ProtocolError::Malformed(format!("unknown reply '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn done_stats_absorb_sums_every_counter() {
        let part = DoneStats {
            jobs: 1,
            from_cache: 2,
            computed: 3,
            encodes: 4,
            witness_validations: 5,
            witness_mismatches: 6,
            retries: 7,
            degraded_runs: 8,
            panics: 9,
            cancelled: 10,
            proved: 11,
            proof_mismatches: 12,
        };
        let mut total = part;
        total.absorb(&part);
        assert_eq!(
            total,
            DoneStats {
                jobs: 2,
                from_cache: 4,
                computed: 6,
                encodes: 8,
                witness_validations: 10,
                witness_mismatches: 12,
                retries: 14,
                degraded_runs: 16,
                panics: 18,
                cancelled: 20,
                proved: 22,
                proof_mismatches: 24,
            }
        );
    }

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        let mut wc = 0;
        write_frame(&mut wire, b"{\"cmd\":\"ping\"}", None, &mut wc).unwrap();
        write_frame(&mut wire, b"", None, &mut wc).unwrap();
        let mut cursor = io::Cursor::new(wire);
        let mut rc = 0;
        assert_eq!(
            read_frame(&mut cursor, 1024, None, &mut rc).unwrap(),
            b"{\"cmd\":\"ping\"}"
        );
        assert!(read_frame(&mut cursor, 1024, None, &mut rc)
            .unwrap()
            .is_empty());
        assert!(matches!(
            read_frame(&mut cursor, 1024, None, &mut rc),
            Err(ProtocolError::Closed)
        ));
    }

    #[test]
    fn oversized_and_garbage_frames_are_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&FRAME_MAGIC);
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut rc = 0;
        assert!(matches!(
            read_frame(&mut io::Cursor::new(&wire), 1024, None, &mut rc),
            Err(ProtocolError::Oversized { .. })
        ));
        let mut rc = 0;
        assert!(matches!(
            read_frame(
                &mut io::Cursor::new(b"JUNKJUNK".as_slice()),
                1024,
                None,
                &mut rc
            ),
            Err(ProtocolError::BadMagic(_))
        ));
    }

    #[test]
    fn injected_wire_faults_tear_the_promised_frame() {
        let payload = vec![0xabu8; 64];
        let mut wire = Vec::new();
        let mut wc = 0;
        let plan = FaultPlan::drop_mid_frame(1);
        assert!(matches!(
            write_frame(&mut wire, &payload, Some(&plan), &mut wc),
            Err(ProtocolError::Injected(_))
        ));
        assert_eq!(wire.len(), 4, "drop leaves half a header");

        let mut wire = Vec::new();
        let mut wc = 0;
        let plan = FaultPlan::truncate_frame(1);
        assert!(matches!(
            write_frame(&mut wire, &payload, Some(&plan), &mut wc),
            Err(ProtocolError::Injected(_))
        ));
        assert_eq!(wire.len(), 8 + 32, "truncation delivers half the payload");
        // The reader sees a torn frame, not a clean close.
        let mut rc = 0;
        assert!(matches!(
            read_frame(&mut io::Cursor::new(&wire), 1024, None, &mut rc),
            Err(ProtocolError::Io(_))
        ));
    }

    #[test]
    fn requests_round_trip() {
        for request in [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Submit(SubmitRequest {
                mutations: vec!["single-add".to_string()],
                batched: true,
                deadline_ms: Some(2000),
                conflict_limit: Some(50_000),
                ..SubmitRequest::new(Method::SepeSqed, 4, ProcessorConfig::tiny())
            }),
        ] {
            let bytes = encode_request(&request);
            let decoded = decode_request(&bytes).unwrap();
            assert_eq!(encode_request(&decoded), bytes, "{request:?}");
        }
    }

    #[test]
    fn hostile_requests_are_rejected_with_reasons() {
        let cases: Vec<(Vec<u8>, &str)> = vec![
            (b"not json".to_vec(), "parse"),
            (b"{}".to_vec(), "missing cmd"),
            (br#"{"cmd":"launch-missiles"}"#.to_vec(), "unknown cmd"),
            (
                encode_request(&Request::Submit(SubmitRequest::new(
                    Method::Sqed,
                    MAX_REQUEST_BOUND + 1,
                    ProcessorConfig::tiny(),
                ))),
                "bound cap",
            ),
            (
                encode_request(&Request::Submit(SubmitRequest {
                    mutations: vec!["no-such-bug".to_string()],
                    ..SubmitRequest::new(Method::Sqed, 2, ProcessorConfig::tiny())
                })),
                "unknown mutation",
            ),
            (
                encode_request(&Request::Submit(SubmitRequest::new(
                    Method::Sqed,
                    2,
                    ProcessorConfig {
                        xlen: 12,
                        ..ProcessorConfig::tiny()
                    },
                ))),
                "bad xlen",
            ),
        ];
        for (bytes, what) in cases {
            assert!(
                matches!(decode_request(&bytes), Err(ProtocolError::Malformed(_))),
                "{what} must be rejected"
            );
        }
    }

    #[test]
    fn replies_round_trip() {
        let verdict = Verdict {
            label: "single-add".to_string(),
            cached: false,
            detected: true,
            inconclusive: false,
            stop_reason: None,
            bound_reached: 3,
            trace_len: Some(3),
            conflicts: 412,
            witness_validated: Some(true),
            witness: Some(Value::Array(vec![])),
            proved: false,
            proof_method: None,
            proof_depth: None,
            proof_checked: None,
        };
        for reply in [
            Reply::Pong,
            Reply::ShuttingDown,
            Reply::Busy { retry_after_ms: 75 },
            Reply::Error {
                message: "nope".to_string(),
            },
            Reply::Verdict(verdict),
            Reply::Done(DoneStats {
                jobs: 4,
                from_cache: 2,
                computed: 2,
                encodes: 2,
                ..DoneStats::default()
            }),
        ] {
            let bytes = encode_reply(&reply);
            let decoded = decode_reply(&bytes).unwrap();
            assert_eq!(encode_reply(&decoded), bytes, "{reply:?}");
        }
    }

    #[test]
    fn verdict_core_round_trips_and_drops_only_the_cached_flag() {
        let verdict = Verdict {
            label: "clean".to_string(),
            cached: true,
            detected: false,
            inconclusive: true,
            stop_reason: Some("deadline".to_string()),
            bound_reached: 2,
            trace_len: None,
            conflicts: 9,
            witness_validated: None,
            witness: None,
            proved: false,
            proof_method: None,
            proof_depth: None,
            proof_checked: None,
        };
        let core = verdict_core(&verdict);
        let as_miss = verdict_from_core(&core, false).unwrap();
        let as_hit = verdict_from_core(&core, true).unwrap();
        assert!(!as_miss.cached);
        assert!(as_hit.cached);
        assert_eq!(
            Verdict {
                cached: true,
                ..as_miss
            },
            as_hit
        );
    }

    #[test]
    fn prove_requests_and_proved_verdicts_round_trip() {
        let request = Request::Submit(SubmitRequest {
            prove: Some(ProofMethod::Pdr),
            ..SubmitRequest::new(Method::Sqed, 8, ProcessorConfig::tiny())
        });
        let bytes = encode_request(&request);
        let decoded = decode_request(&bytes).unwrap();
        assert_eq!(encode_request(&decoded), bytes);
        let Request::Submit(s) = decoded else {
            panic!("submit expected");
        };
        assert_eq!(s.prove, Some(ProofMethod::Pdr));

        let verdict = Verdict {
            label: "clean".to_string(),
            cached: false,
            detected: false,
            inconclusive: false,
            stop_reason: None,
            bound_reached: 2,
            trace_len: None,
            conflicts: 622,
            witness_validated: None,
            witness: None,
            proved: true,
            proof_method: Some("pdr".to_string()),
            proof_depth: Some(2),
            proof_checked: Some(true),
        };
        let reply = Reply::Verdict(verdict.clone());
        let bytes = encode_reply(&reply);
        let Reply::Verdict(decoded) = decode_reply(&bytes).unwrap() else {
            panic!("verdict expected");
        };
        assert_eq!(decoded, verdict);
    }

    #[test]
    fn retired_proof_methods_get_a_structured_rejection() {
        // A submit payload naming `method` as its prover.
        let payload = |method: &str| {
            let request = Request::Submit(SubmitRequest {
                prove: Some(ProofMethod::Pdr),
                ..SubmitRequest::new(Method::Sqed, 8, ProcessorConfig::tiny())
            });
            let text = String::from_utf8(encode_request(&request)).unwrap();
            assert_eq!(text.matches("\"pdr\"").count(), 1, "{text}");
            text.replace("\"pdr\"", &format!("\"{method}\""))
        };
        for name in ["pdr", "ic3"] {
            let Ok(Request::Submit(s)) = decode_request(payload(name).as_bytes()) else {
                panic!("'{name}' must decode as a PDR submit");
            };
            assert_eq!(s.prove, Some(ProofMethod::Pdr));
        }
        for name in ["k-induction", "induction"] {
            match decode_request(payload(name).as_bytes()) {
                Err(ProtocolError::Malformed(m)) => {
                    assert_eq!(m, format!("unknown proof method '{name}'"));
                }
                other => panic!("'{name}' must be rejected as malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn legacy_cores_without_proof_fields_decode_as_unproved() {
        // A cache entry persisted before the prover existed must keep
        // decoding — as a plain bounded verdict.
        let legacy = r#"{"label":"clean","detected":false,"inconclusive":false,
            "stop_reason":null,"bound_reached":4,"trace_len":null,
            "conflicts":7,"witness_validated":null,"witness":null}"#;
        let core = serde_json::from_str(legacy).unwrap();
        let verdict = verdict_from_core(&core, true).unwrap();
        assert!(!verdict.proved);
        assert_eq!(verdict.proof_method, None);
        assert_eq!(verdict.proof_depth, None);
        assert_eq!(verdict.proof_checked, None);
    }

    #[test]
    fn registries_resolve_names() {
        assert_eq!(opcode_by_mnemonic("add"), Some(Opcode::Add));
        assert_eq!(opcode_by_mnemonic("bogus"), None);
        assert!(mutation_by_name("single-add").is_some());
        assert!(mutation_by_name("multi-05-waw-collision").is_some());
        assert!(mutation_by_name("nope").is_none());
        assert_eq!(method_from_name("sqed"), Some(Method::Sqed));
        assert_eq!(method_from_name("sepe"), Some(Method::SepeSqed));
        assert_eq!(method_from_name("x"), None);
    }
}
