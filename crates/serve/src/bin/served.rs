//! The serving daemon: a long-running front end over the ucore model.
//! `served --help` lists every flag, generated from the flag table below
//! and the durability flags [`ucore_bench::cli`] shares with `repro`.
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
// Panic-freedom outside tests, as in every first-party crate.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::process::ExitCode;
use std::time::Duration;
use ucore_bench::cli::{self, Flag, Spec};
use ucore_project::durability::{signals, DurabilityConfig};
use ucore_project::faultinject::FaultPlan;
use ucore_serve::{Server, ServerConfig};

const SERVE: Flag = Flag::text("--serve", "ADDR", "listen address (default 127.0.0.1:7878)");
// The sizing flags are bounded: workers are spawned at bind, every queue
// slot is preallocated, and a client's Content-Length may make a worker
// allocate up to the body limit.
const WORKERS: Flag = Flag::positive("--workers", "worker threads (default 4)").at_most(1024);
const QUEUE_DEPTH: Flag =
    Flag::count("--queue-depth", "connections that may wait; more shed 503 (default 16)")
        .at_most(65_536);
const REQUEST_TIMEOUT_MS: Flag =
    Flag::count("--request-timeout-ms", "per-request deadline; 0 disables (default 30000)");
const DRAIN_MS: Flag =
    Flag::count("--drain-ms", "shutdown's wait for in-flight requests (default 5000)");
const IO_TIMEOUT_MS: Flag =
    Flag::positive("--io-timeout-ms", "socket read/write timeout (default 10000)");
const MAX_BODY_BYTES: Flag =
    Flag::count("--max-body-bytes", "largest request body (default 65536)").at_most(64 << 20);

static SPEC: Spec = Spec {
    synopsis: "usage: served [OPTION]...",
    groups: &[
        (
            "options",
            &[
                SERVE, WORKERS, QUEUE_DEPTH, REQUEST_TIMEOUT_MS, DRAIN_MS, IO_TIMEOUT_MS,
                MAX_BODY_BYTES, cli::HELP,
            ],
        ),
        ("durability", cli::DURABILITY),
    ],
};

struct Cli {
    server: ServerConfig,
    durability: DurabilityConfig,
    help: bool,
}

/// Parses the command line.
///
/// # Errors
///
/// A usage message for an unknown flag, a missing or out-of-range
/// value, or `--resume` without `--journal`.
fn parse(argv: Vec<String>) -> Result<Cli, String> {
    let args = SPEC.parse(argv)?;
    let mut server = ServerConfig::new(args.text(&SERVE).unwrap_or("127.0.0.1:7878"));
    server.workers = args.int(&WORKERS)?.unwrap_or(server.workers);
    server.queue_depth = args.int(&QUEUE_DEPTH)?.unwrap_or(server.queue_depth);
    if let Some(ms) = args.int(&REQUEST_TIMEOUT_MS)? {
        server.request_timeout = (ms > 0).then(|| Duration::from_millis(ms));
    }
    server.drain = args.int(&DRAIN_MS)?.map_or(server.drain, Duration::from_millis);
    server.io_timeout = args.int(&IO_TIMEOUT_MS)?.map_or(server.io_timeout, Duration::from_millis);
    server.limits.max_body_bytes =
        args.int(&MAX_BODY_BYTES)?.unwrap_or(server.limits.max_body_bytes);
    Ok(Cli { server, durability: cli::durability_config(&args)?, help: args.has(&cli::HELP) })
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
        println!("{}", SPEC.usage());
        return ExitCode::SUCCESS;
    }
    let faults = FaultPlan::from_env_value(std::env::var("UCORE_FAULT_INJECT").ok().as_deref());
    let _durability_guard = match cli::activate_durability(cli.durability, faults) {
        Ok(guard) => guard,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (addr, workers) = (cli.server.addr.clone(), cli.server.workers);
    let server = match Server::bind(cli.server) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
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
                workers.saturating_sub(report.workers_joined)
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

#[cfg(test)]
mod tests {
    /// Parsing alone refuses an over-cap value: nothing here binds,
    /// spawns or allocates what the value asks for.
    #[test]
    fn sizing_flags_are_bounded_where_they_are_parsed() {
        let huge = u64::MAX.to_string();
        for (flag, max, over) in [
            ("--workers", "1024", "1025"),
            ("--queue-depth", "65536", "65537"),
            ("--queue-depth", "65536", huge.as_str()),
            ("--max-body-bytes", "67108864", "67108865"),
        ] {
            assert!(super::parse(vec![flag.into(), max.into()]).is_ok(), "{flag} {max}");
            let err = super::parse(vec![flag.into(), over.into()]).err().expect("over the cap");
            let line = format!("{flag} value \"{over}\" exceeds the maximum of {max}\n");
            assert!(err.starts_with(&line) && err.contains("usage: served"), "{err}");
        }
    }
}
