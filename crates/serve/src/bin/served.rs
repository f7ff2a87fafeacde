//! The serving daemon: a long-running front end over the ucore model.
//!
//! ```text
//! served --serve 127.0.0.1:7878                 # defaults
//! served --serve 127.0.0.1:0 --workers 8        # free port, 8 workers
//! served --serve ... --queue-depth 32 --request-timeout-ms 5000
//! served --serve ... --journal run.jsonl        # durable sweeps
//! served --serve ... --journal run.jsonl --resume   # replay first
//! ```
//!
//! The daemon binds, prints `served: listening on ADDR` to stderr (so
//! scripts can scrape the bound port when `--serve` used port 0), and
//! serves until signaled:
//!
//! * the **first** SIGINT/SIGTERM starts a graceful drain — admission
//!   stops (late connections get a `server.draining` 503), in-flight
//!   and queued requests finish under `--drain-ms`, the journal is
//!   flushed, and the process exits 0;
//! * a **second** signal (or `kill -9`) is the crash path — the handler
//!   fsyncs the active journal and exits `128+signum` immediately. A
//!   journal cut off this way replays with `--resume` to byte-identical
//!   output.
//!
//! Sweeps run on the worker thread that serves the request: the worker
//! pool is the parallelism, and each request's cooperative deadline
//! stays on the thread that armed it.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use ucore_project::durability::{self, signals, DurabilityConfig, DurabilityGuard};
use ucore_project::faultinject::FaultPlan;
use ucore_serve::{Limits, Server, ServerConfig};

fn usage() -> &'static str {
    "usage: served [--serve ADDR] [--workers N] [--queue-depth N] \
     [--request-timeout-ms N] [--drain-ms N] [--io-timeout-ms N] [--max-body-bytes N] \
     [--journal PATH] [--resume] [--timeout-ms N] [--retries N]\n\
     --serve ADDR: listen address (default 127.0.0.1:7878; port 0 picks a free port)\n\
     --workers N: worker threads — the hard concurrency limit (default 4)\n\
     --queue-depth N: accepted connections allowed to wait; beyond this, shed 503 (default 16)\n\
     --request-timeout-ms N: per-request deadline; 0 disables (default 30000)\n\
     --drain-ms N: how long shutdown waits for in-flight requests (default 5000)\n\
     --io-timeout-ms N: socket read/write timeout bounding slow clients (default 10000)\n\
     --max-body-bytes N: largest accepted request body (default 65536)\n\
     --journal PATH: stream completed sweep points to an append-only checksummed journal\n\
     --resume: replay the journal before serving (requires --journal)\n\
     --timeout-ms N: release an injected stall (stall@i) as Failed{timeout} after N ms\n\
     --retries N: retry failed points up to N times (default 0)"
}

struct Cli {
    addr: String,
    workers: usize,
    queue_depth: usize,
    request_timeout: Option<Duration>,
    drain: Duration,
    io_timeout: Duration,
    max_body_bytes: usize,
    journal: Option<PathBuf>,
    resume: bool,
    timeout_ms: Option<u64>,
    retries: u32,
    help: bool,
}

/// Parses the command line.
///
/// # Errors
///
/// A usage message for an unknown flag, a missing or unparsable
/// value, or `--resume` without `--journal`.
fn parse(args: Vec<String>) -> Result<Cli, String> {
    let mut cli = Cli {
        addr: String::from("127.0.0.1:7878"),
        workers: 4,
        queue_depth: 16,
        request_timeout: Some(Duration::from_millis(30_000)),
        drain: Duration::from_millis(5_000),
        io_timeout: Duration::from_millis(10_000),
        max_body_bytes: 64 * 1024,
        journal: None,
        resume: false,
        timeout_ms: None,
        retries: 0,
        help: false,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        let parse_u64 = |flag: &str, v: &str| -> Result<u64, String> {
            v.parse().map_err(|_| {
                format!("{flag} value {v:?} is not a non-negative integer\n{}", usage())
            })
        };
        match arg.as_str() {
            "--help" | "-h" => cli.help = true,
            "--serve" => cli.addr = value_for("--serve")?,
            "--workers" => {
                let v = value_for("--workers")?;
                cli.workers = v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    format!("--workers value {v:?} is not a positive integer\n{}", usage())
                })?;
            }
            "--queue-depth" => {
                let v = value_for("--queue-depth")?;
                cli.queue_depth = parse_u64("--queue-depth", &v)? as usize;
            }
            "--request-timeout-ms" => {
                let v = value_for("--request-timeout-ms")?;
                let ms = parse_u64("--request-timeout-ms", &v)?;
                cli.request_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--drain-ms" => {
                let v = value_for("--drain-ms")?;
                cli.drain = Duration::from_millis(parse_u64("--drain-ms", &v)?);
            }
            "--io-timeout-ms" => {
                let v = value_for("--io-timeout-ms")?;
                let ms = parse_u64("--io-timeout-ms", &v)?;
                if ms == 0 {
                    return Err(format!(
                        "--io-timeout-ms must be positive (it bounds slow-loris clients)\n{}",
                        usage()
                    ));
                }
                cli.io_timeout = Duration::from_millis(ms);
            }
            "--max-body-bytes" => {
                let v = value_for("--max-body-bytes")?;
                cli.max_body_bytes = parse_u64("--max-body-bytes", &v)? as usize;
            }
            "--journal" => cli.journal = Some(PathBuf::from(value_for("--journal")?)),
            "--resume" => cli.resume = true,
            "--timeout-ms" => {
                let v = value_for("--timeout-ms")?;
                let ms = parse_u64("--timeout-ms", &v)?;
                if ms == 0 {
                    return Err(format!(
                        "--timeout-ms must be positive\n{}",
                        usage()
                    ));
                }
                cli.timeout_ms = Some(ms);
            }
            "--retries" => {
                let v = value_for("--retries")?;
                cli.retries = v.parse().map_err(|_| {
                    format!("--retries value {v:?} is not a non-negative integer\n{}", usage())
                })?;
            }
            other => {
                return Err(format!("unknown flag {other:?}\n{}", usage()));
            }
        }
    }
    if cli.resume && cli.journal.is_none() {
        return Err(format!("--resume requires --journal PATH\n{}", usage()));
    }
    Ok(cli)
}

/// Activates the durability layer when any of its flags were given,
/// reporting what a resume replayed (same contract as `repro`).
///
/// # Errors
///
/// The journal cannot be opened, replayed or locked.
fn activate_durability(cli: &Cli, faults: FaultPlan) -> Result<Option<DurabilityGuard>, String> {
    let wanted = cli.journal.is_some()
        || cli.timeout_ms.is_some()
        || cli.retries > 0
        || !faults.is_empty();
    if !wanted {
        return Ok(None);
    }
    let config = DurabilityConfig {
        journal: cli.journal.clone(),
        resume: cli.resume,
        timeout: cli.timeout_ms.map(Duration::from_millis),
        retries: cli.retries,
        shard: None,
        faults,
    };
    let (guard, report) = durability::activate(config).map_err(|e| e.to_string())?;
    if cli.resume {
        let path = cli.journal.as_deref().unwrap_or_else(|| std::path::Path::new("?"));
        eprintln!(
            "resume: replayed {} journaled outcome(s) from {}",
            report.records,
            path.display()
        );
        if report.torn_tail {
            eprintln!(
                "warning: journal {} ended in a torn (partially written) record; \
                 it was skipped and that point will be re-evaluated",
                path.display()
            );
        }
    }
    Ok(Some(guard))
}

fn main() -> ExitCode {
    // Installed before anything else so a signal during startup already
    // has crash-consistent behavior.
    signals::install(true);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if cli.help {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let faults = FaultPlan::from_env_value(std::env::var("UCORE_FAULT_INJECT").ok().as_deref());
    let _durability_guard = match activate_durability(&cli, faults) {
        Ok(guard) => guard,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let config = ServerConfig {
        addr: cli.addr.clone(),
        workers: cli.workers,
        queue_depth: cli.queue_depth,
        request_timeout: cli.request_timeout,
        drain: cli.drain,
        io_timeout: cli.io_timeout,
        limits: Limits { max_body_bytes: cli.max_body_bytes, ..Limits::default() },
    };
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", cli.addr);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => eprintln!("served: listening on {addr}"),
        Err(e) => eprintln!("served: listening (address unavailable: {e})"),
    }
    // Bridge the async-signal-safe flag to the server's shutdown handle.
    // The wake connection `request` makes is ordinary socket I/O, so it
    // happens here on the bridge thread, never in the signal handler.
    let shutdown = server.shutdown_handle();
    std::thread::spawn(move || loop {
        if signals::requested() {
            shutdown.request();
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    });
    match server.run() {
        Ok(report) if report.drained => {
            eprintln!("served: drained cleanly ({} workers)", report.workers_joined);
            ExitCode::SUCCESS
        }
        Ok(report) => {
            eprintln!(
                "warning: drain deadline expired with {} worker(s) still busy",
                cli.workers.saturating_sub(report.workers_joined)
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: server failed: {e}");
            ExitCode::FAILURE
        }
    }
    // _durability_guard drops here: the journal gets its final fsync
    // after the drain, so a graceful exit never leaves a torn tail.
}
