//! The detection-server binary.
//!
//! ```text
//! sepe_serve --unix /tmp/sepe.sock --cache-dir /var/cache/sepe
//! sepe_serve --tcp 127.0.0.1:0 --cache-dir ./cache --workers 2 --queue 8
//! ```
//!
//! On startup it prints one `ready` line (endpoint + cache recovery
//! counts) and flushes it, so a supervisor or test can wait for it before
//! connecting.  `--retries N` (default 1) re-runs a job that panicked, ran
//! out of a per-solver budget or failed its self-check down the engine's
//! degradation ladder: AIG off, then word-level rewriting off, each at the
//! requested bound.  The ladder has two rungs, so values above 2 retry no
//! further.  Test-only flags (`--crash-after-jobs`, `--job-delay-ms`) arm
//! the crash-safety and overload scenarios of the integration suite.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use sepe_service::server::{Endpoint, Server, ServerConfig};
use sepe_sqed::RetryPolicy;

fn usage() -> ! {
    eprintln!(
        "usage: sepe_serve (--unix PATH | --tcp ADDR) --cache-dir DIR\n\
         \x20      [--workers N] [--queue N] [--retries N]\n\
         \x20      [--read-timeout-ms N] [--busy-retry-ms N] [--drain-grace-ms N]\n\
         \x20      [--max-deadline-ms N] [--crash-after-jobs N] [--job-delay-ms N]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut endpoint = None;
    let mut cache_dir = None;
    type ConfigTweak = Box<dyn FnOnce(&mut ServerConfig)>;
    let mut apply: Vec<ConfigTweak> = Vec::new();
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        let parse = |v: String| v.parse::<u64>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--unix" => endpoint = Some(Endpoint::Unix(value().into())),
            "--tcp" => {
                let addr = value().parse().unwrap_or_else(|_| usage());
                endpoint = Some(Endpoint::Tcp(addr));
            }
            "--cache-dir" => cache_dir = Some(value()),
            "--workers" => {
                let n = parse(value()) as usize;
                apply.push(Box::new(move |c| c.job_workers = n));
            }
            "--queue" => {
                let n = parse(value()) as usize;
                apply.push(Box::new(move |c| c.queue_capacity = n));
            }
            "--retries" => {
                let n = parse(value()) as u32;
                apply.push(Box::new(move |c| c.retry = RetryPolicy::ladder(n)));
            }
            "--read-timeout-ms" => {
                let ms = parse(value());
                apply.push(Box::new(move |c| {
                    c.read_timeout = Duration::from_millis(ms);
                }));
            }
            "--busy-retry-ms" => {
                let ms = parse(value());
                apply.push(Box::new(move |c| {
                    c.busy_retry_after = Duration::from_millis(ms);
                }));
            }
            "--drain-grace-ms" => {
                let ms = parse(value());
                apply.push(Box::new(move |c| {
                    c.drain_grace = Duration::from_millis(ms);
                }));
            }
            "--max-deadline-ms" => {
                let ms = parse(value());
                apply.push(Box::new(move |c| {
                    c.max_deadline = Duration::from_millis(ms);
                }));
            }
            "--crash-after-jobs" => {
                let n = parse(value());
                apply.push(Box::new(move |c| c.crash_after_jobs = Some(n)));
            }
            "--job-delay-ms" => {
                let ms = parse(value());
                apply.push(Box::new(move |c| {
                    c.job_delay = Some(Duration::from_millis(ms));
                }));
            }
            _ => usage(),
        }
    }
    let (Some(endpoint), Some(cache_dir)) = (endpoint, cache_dir) else {
        usage();
    };
    let mut config = ServerConfig::new(endpoint, cache_dir);
    for f in apply {
        f(&mut config);
    }
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sepe_serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let recovery = server.recovery();
    // The `ready` line doubles as the supervisor handshake; tests read the
    // printed TCP port when binding port 0.
    let listening = server
        .local_addr()
        .map_or("unix".to_string(), |a| a.to_string());
    println!(
        "ready endpoint={listening} recovered={} corrupted={} temps={} clean={}",
        recovery.recovered,
        recovery.corrupted,
        recovery.temps_discarded,
        u8::from(recovery.clean_shutdown),
    );
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(report) => {
            // `println!` would panic if the supervisor closed our stdout
            // pipe early; the drain already succeeded, so exit 0 anyway.
            let _ = writeln!(
                std::io::stdout(),
                "drained cache_entries={} recovered={}",
                report.cache_entries,
                report.recovery.recovered
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sepe_serve: {e}");
            ExitCode::FAILURE
        }
    }
}
