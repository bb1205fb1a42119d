//! The repository benchmark: three workloads modelled on how the SEPE-SQED
//! stack is used, each reporting end-to-end metrics (`--trace 0`) or
//! per-layer metrics from a traced run (`--trace 1`).  See `README.md`.
//!
//! Usage:
//!   perfbench --workload <signoff|synthesis|bughunt_service> --seed <n>
//!             --seconds <s> --trace <0|1> [--size <full|tiny>]
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod bughunt;
mod signoff;
mod synthesis;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use trace::Tracer;

/// How much work a pass does: `Full` is the benchmark, `Tiny` the smoke
/// test's quick version of the same code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<f64, String> {
        get(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let size = match get("--size").as_deref() {
        Err(_) | Ok("full") => Size::Full,
        Ok("tiny") => Size::Tiny,
        Ok(other) => return Err(format!("--size: unknown size {other}")),
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: num("--seconds")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got {other}")),
        },
        size,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check and every fidelity check passed.
    pub correct: bool,
    /// Operations attempted (sign-off steps, specs, requests).
    pub attempted: u64,
    /// Operations that errored, came back inconclusive or failed a check.
    pub failed: u64,
    /// The metrics of the JSON line.
    pub metrics: Vec<Metric>,
    /// Further named figures printed for people but left out of the JSON
    /// line (per-workload figures such as `sweep_s`, sample counts,
    /// `failed_ratio`).
    pub notes: Vec<Metric>,
    /// Deterministic work counters of one pass: two runs of the same code
    /// must show identical values.
    pub counters: BTreeMap<String, u64>,
    /// Why a check failed, one line each.
    pub problems: Vec<String>,
    /// The traced run's spans.
    pub spans: Option<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }
}

/// Runs passes until the next one would end past `seconds` (at least one).
/// Also returns the peak resident set after the first pass, so memory does
/// not depend on how many passes a machine fits in.
pub fn passes<T>(seconds: f64, mut pass: impl FnMut(usize) -> T) -> (Vec<T>, f64) {
    let start = Instant::now();
    let mut out = vec![pass(0)];
    let rss = peak_rss_mb();
    loop {
        let spent = start.elapsed().as_secs_f64();
        if spent + spent / out.len() as f64 > seconds {
            return (out, rss);
        }
        out.push(pass(out.len()));
    }
}

/// Repeats one set-up until at least 25 repetitions and half a second of
/// set-up time are in (at most 2000 repetitions); `setup_s` is the median.
pub fn setup_samples(mut setup: impl FnMut() -> Duration) -> Vec<Duration> {
    let mut out: Vec<Duration> = Vec::new();
    while out.len() < 2000
        && (out.len() < 25 || out.iter().sum::<Duration>() < Duration::from_millis(500))
    {
        out.push(setup());
    }
    out
}

/// The end-to-end metrics every workload reports: the median pass wall,
/// the set-up median and the peak resident set after the first pass.  The
/// medians of the pass's two parts are printed alongside; they swing too
/// much run to run on a shared host to carry a regression bound.
pub fn end_to_end(
    report: &mut Report,
    walls: &[Duration],
    part1: &[Duration],
    part2: &[Duration],
    setups: &[Duration],
    rss_mb: f64,
) {
    report.metric("pass_s", median_s(walls), "s");
    report.metric("setup_s", median_s(setups), "s");
    report.metric("peak_rss_mb", rss_mb, "MiB");
    report.note("part1_s", median_s(part1), "s");
    report.note("part2_s", median_s(part2), "s");
    report.note("passes", walls.len() as f64, "count");
    for (i, ((w, a), b)) in walls.iter().zip(part1).zip(part2).enumerate() {
        report.note(&format!("pass{i}.pass_s"), w.as_secs_f64(), "s");
        report.note(&format!("pass{i}.part1_s"), a.as_secs_f64(), "s");
        report.note(&format!("pass{i}.part2_s"), b.as_secs_f64(), "s");
    }
    report.note("setup_reps", setups.len() as f64, "count");
}

/// Median of durations, in seconds.
pub fn median_s(xs: &[Duration]) -> f64 {
    percentile_s(xs, 50.0)
}

/// Nearest-rank percentile of durations, in seconds.
pub fn percentile_s(xs: &[Duration], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.iter().map(Duration::as_secs_f64).collect();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A small deterministic generator (SplitMix64) for seeded orderings.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Where a run leaves its counters and spans, and where the service keeps
/// its scratch cache directories: a directory under the working directory.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).expect("create the .perfbench output directory");
    dir
}

/// Every per-layer metric of the traced run, with its unit.  Each traced
/// run reports all of them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sweep_s", "s"),
    ("prove_s", "s"),
    ("synth_s", "s"),
    ("miss_ms_p50", "ms"),
    ("miss_ms_p90", "ms"),
    ("hit_ms_p50", "ms"),
    ("hit_ms_p90", "ms"),
    ("requests_per_s", "1/s"),
    ("failed_ratio", "ratio"),
    ("trace.traced_s", "s"),
    ("trace.untracked_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("self.bench_s", "s"),
    ("self.core.qed_s", "s"),
    ("self.tsys.session_s", "s"),
    ("self.smt.sat_s", "s"),
    ("self.tsys.witness_s", "s"),
    ("self.core.selfcheck_s", "s"),
    ("self.tsys.pdr_s", "s"),
    ("self.tsys.prove_s", "s"),
    ("self.synth.hpf_s", "s"),
    ("self.synth.iterative_s", "s"),
    ("self.service.client_s", "s"),
    ("self.service.protocol_s", "s"),
    ("self.service.cache_s", "s"),
    ("core.qed.build_s", "s"),
    ("tsys.session.encode_s", "s"),
    ("smt.rewrite.rules", "count"),
    ("smt.rewrite.pins", "count"),
    ("smt.aig.nodes", "count"),
    ("smt.aig.strash_hits", "count"),
    ("smt.cnf.vars", "count"),
    ("smt.cnf.clauses", "count"),
    ("smt.sat.check_s", "s"),
    ("smt.sat.checks", "count"),
    ("smt.sat.conflicts", "count"),
    ("smt.sat.propagations", "count"),
    ("smt.sat.props_per_s", "1/s"),
    ("smt.sat.props_per_check", "count"),
    ("smt.sat.learnt_deleted", "count"),
    ("smt.sat.reduce_passes", "count"),
    ("tsys.witness.extract_s", "s"),
    ("core.selfcheck.replay_s", "s"),
    ("core.selfcheck.replays", "count"),
    ("tsys.pdr.s", "s"),
    ("tsys.pdr.queries", "count"),
    ("tsys.pdr.cubes_blocked", "count"),
    ("tsys.pdr.clauses_pushed", "count"),
    ("tsys.prove.verify_s", "s"),
    ("synth.hpf.multisets_tried", "count"),
    ("synth.hpf.multisets_successful", "count"),
    ("synth.hpf.success_ratio", "ratio"),
    ("synth.cegis.sat_s", "s"),
    ("synth.hpf.outside_sat_s", "s"),
    ("synth.iterative_s", "s"),
    ("synth.hpf_vs_iterative", "ratio"),
    ("service.protocol.codec_s", "s"),
    ("service.cache.lookup_s", "s"),
    ("service.cache.insert_s", "s"),
    ("service.overhead_ms_p50", "ms"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.busy_rejections", "count"),
    ("service.protocol_errors", "count"),
];

/// Per-layer values a workload fills in; `finish` turns them into the
/// traced run's metric list (every name of [`PER_LAYER`], zero-filled).
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        let now = self.0.get(name).copied().unwrap_or(0.0);
        self.set(name, now + value);
    }

    /// Adds one solver's counters to the `smt.*` metrics.
    pub fn solver(&mut self, s: &sepe_smt::SolverReuseStats) {
        self.add(
            "smt.rewrite.rules",
            s.encode.rewrite.rule_applications as f64,
        );
        self.add("smt.rewrite.pins", s.encode.rewrite.pins as f64);
        self.add("smt.aig.nodes", s.encode.aig.nodes as f64);
        self.add("smt.aig.strash_hits", s.encode.aig.strash_hits as f64);
        self.add("smt.cnf.vars", s.cnf_vars as f64);
        self.add("smt.cnf.clauses", s.cnf_clauses as f64);
        self.add("smt.sat.checks", s.checks as f64);
        self.add("smt.sat.conflicts", s.conflicts as f64);
        self.add("smt.sat.propagations", s.propagations as f64);
        self.add("smt.sat.learnt_deleted", s.learnt_deleted as f64);
        self.add("smt.sat.reduce_passes", s.reduce_passes as f64);
    }

    /// Fills in what the spans give: layer totals, self times per layer,
    /// the untracked remainder of the traced section, and SAT throughput.
    pub fn from_trace(&mut self, tr: &Tracer, traced: Duration) {
        let secs = |name: &str| tr.total(name).as_secs_f64();
        self.set("core.qed.build_s", secs("core.qed.build"));
        self.set(
            "tsys.session.encode_s",
            secs("tsys.session.open") + secs("tsys.session.extend"),
        );
        self.set("smt.sat.check_s", secs("smt.sat.check"));
        self.set("tsys.witness.extract_s", secs("tsys.witness.extract"));
        self.set("core.selfcheck.replay_s", secs("core.selfcheck.replay"));
        self.set(
            "core.selfcheck.replays",
            tr.count("core.selfcheck.replay") as f64,
        );
        self.set("tsys.pdr.s", secs("tsys.pdr.check"));
        self.set("tsys.prove.verify_s", secs("tsys.prove.verify"));
        self.set("service.protocol.codec_s", secs("service.protocol.codec"));
        self.set("service.cache.lookup_s", secs("service.cache.lookup"));
        self.set("service.cache.insert_s", secs("service.cache.insert"));
        for (layer, t) in tr.self_times() {
            let name = match layer {
                "bench" => "self.bench_s",
                "core.qed" => "self.core.qed_s",
                "tsys.session" => "self.tsys.session_s",
                "smt.sat" => "self.smt.sat_s",
                "tsys.witness" => "self.tsys.witness_s",
                "core.selfcheck" => "self.core.selfcheck_s",
                "tsys.pdr" => "self.tsys.pdr_s",
                "tsys.prove" => "self.tsys.prove_s",
                "synth.hpf" => "self.synth.hpf_s",
                "synth.iterative" => "self.synth.iterative_s",
                "service.client" => "self.service.client_s",
                "service.protocol" => "self.service.protocol_s",
                "service.cache" => "self.service.cache_s",
                other => panic!("span layer {other} has no self-time metric"),
            };
            self.add(name, t.as_secs_f64());
        }
        self.set("trace.traced_s", traced.as_secs_f64());
        self.set(
            "trace.untracked_s",
            traced.saturating_sub(tr.top_level()).as_secs_f64(),
        );
        self.set("trace.spans", tr.spans().len() as f64);
        let props = self.0.get("smt.sat.propagations").copied().unwrap_or(0.0);
        let checks = self.0.get("smt.sat.checks").copied().unwrap_or(0.0);
        let check_s = secs("smt.sat.check");
        if check_s > 0.0 {
            self.set("smt.sat.props_per_s", props / check_s);
        }
        if checks > 0.0 {
            self.set("smt.sat.props_per_check", props / checks);
        }
    }

    pub fn finish(self, report: &mut Report) {
        for (name, unit) in PER_LAYER {
            let value = self.0.get(name).copied().unwrap_or(0.0);
            report.metric(name, value, unit);
        }
    }
}

/// Compares the traced pass's deterministic counters with the untraced
/// pass's: traced code that does other work measures another program.
pub fn check_fidelity(
    report: &mut Report,
    untraced: &BTreeMap<String, u64>,
    traced: &BTreeMap<String, u64>,
) {
    if untraced != traced {
        for (k, v) in untraced {
            if traced.get(k) != Some(v) {
                report.problem(format!(
                    "fidelity: counter {k} is {v} untraced but {:?} traced",
                    traced.get(k)
                ));
            }
        }
        if traced.len() != untraced.len() {
            report.problem("fidelity: traced and untraced counter sets differ".to_string());
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "signoff" => signoff::run(&args),
        "synthesis" => synthesis::run(&args),
        "bughunt_service" => bughunt::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    report.correct = report.problems.is_empty() && report.failed == 0;
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.note("failed_ratio", failed_ratio, "ratio");

    for p in &report.problems {
        println!("check failed: {p}");
    }
    for m in report.notes.iter().chain(&report.metrics) {
        println!("{:<32} {:>18} {}", m.name, json_number(m.value), m.unit);
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let dir = out_dir();
    let counters: Vec<String> = report
        .counters
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    std::fs::write(
        dir.join(format!("{stem}.counters.json")),
        format!("{{\n{}\n}}\n", counters.join(",\n")),
    )
    .expect("write the counters file");
    for (k, v) in &report.counters {
        println!("counter {k} = {v}");
    }
    if let Some(spans) = &report.spans {
        std::fs::write(dir.join(format!("{stem}.spans.jsonl")), spans).expect("write the spans");
    }

    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}
