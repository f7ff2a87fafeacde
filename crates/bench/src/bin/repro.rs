//! The reproduction driver: prints any table or figure of the paper.
//!
//! ```text
//! repro --all                  # everything, in paper order
//! repro --table 5              # one table (1-6)
//! repro --figure 6             # one figure (2-11)
//! repro --scenario 3           # one 6.2 scenario (1-6)
//! repro --json figure-6        # machine-readable figure data
//! repro --stats --figure 6     # + sweep/cache counters on stderr
//! repro --max-failures 1 ...   # tolerate one contained sweep failure
//! repro --json figure-6 --out fig6.json   # crash-safe artifact write
//! repro --journal run.jsonl --json figure-6   # durable run
//! repro --journal run.jsonl --resume --json figure-6   # resume it
//! repro --timeout-ms 500 --retries 2 ...   # stall timeout + retry policy
//! ```
//!
//! `--stats` composes with any other flag. The counters go to stderr so
//! that stdout stays byte-identical with and without the flag (the
//! `--json` exports are consumed by tools that diff them).
//!
//! Sweep evaluation is fault-contained: a panicking design point
//! degrades that one point instead of aborting the figure. `repro`
//! polices the damage: if more points failed than `--max-failures`
//! allows (default 0 — goldens stay strict), it prints a structured
//! diagnostic to stderr and exits nonzero even though output was
//! rendered.
//!
//! Runs are *durable* on request: `--journal PATH` streams every
//! completed sweep point to an append-only, checksummed journal, and
//! `--resume` replays that journal so a killed run re-evaluates only
//! the missing points — the resumed output is byte-identical to an
//! uninterrupted run. `--out PATH` writes the rendered output through
//! an atomic temp-file+fsync+rename, so an artifact on disk is never
//! half-written.
//!
//! Observability composes the same way `--stats` does: `--metrics PATH`
//! writes a Prometheus-style snapshot of the process metrics registry,
//! `--trace PATH` records structured spans into a bounded ring buffer
//! and writes the binary trace, and `--profile` reduces that trace to a
//! per-phase self/total table on stderr. None of the three perturbs
//! stdout: the rendered figure bytes are identical with and without
//! them.
//!
//! Runs shard across *processes* on request: `--shards N --journal
//! PATH` spawns N worker copies of `repro` (each running with `--shard
//! i/N` against its own `PATH.shard<i>` journal), watches their
//! journal-growth heartbeats, reassigns a crashed or stalled worker's
//! index-range lease with bounded backoff, merges the shard journals
//! deterministically into `PATH`, and renders the figure by replaying
//! the merged journal — byte-identical to a single-process run, even
//! when workers were killed mid-sweep. SIGINT/SIGTERM fsync the active
//! journal before exiting (codes 130/143), so an interrupted worker is
//! always resumable.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use ucore_bench::snapshot;
use ucore_obs::MetricsSnapshot;
use ucore_project::durability::{self, signals, DurabilityConfig, DurabilityGuard};
use ucore_project::faultinject::FaultPlan;
use ucore_project::shard::{self, OrchestratorConfig, ShardSpec};

fn usage() -> &'static str {
    "usage: repro [--stats] [--max-failures N] [--journal PATH] [--resume] \
     [--timeout-ms N] [--retries N] [--out PATH] \
     [--shards N | --shard I/N] [--shard-stall-ms N] [--shard-retries N] \
     [--metrics PATH] [--trace PATH] [--profile] \
     [--bench-dir DIR] [--bench-against PATH] [--bench-current PATH] [--bench-tolerance X] \
     [--all | --experiments | --table N | --figure N | --scenario N | --json figure-N | --csv figure-N \
     | --bench-snapshot TOPIC | --bench-check TOPIC]\n\
     tables: 1-6; figures: 2-11; scenarios: 1-6; json/csv: figures 6-11; bench topics: kernels|sweep|all\n\
     --stats: print evaluation/cache/sweep/durability counters to stderr\n\
     --max-failures N: exit nonzero if more than N sweep points fail (default 0)\n\
     --journal PATH: stream completed sweep points to an append-only checksummed journal\n\
     --resume: replay the journal first; only missing points are re-evaluated (requires --journal)\n\
     --timeout-ms N: release an injected stall (stall@i) as Failed{timeout} after N ms\n\
     --retries N: retry failed points up to N times with deterministic backoff (default 0)\n\
     --shards N: orchestrate the run across N worker processes sharing --journal (requires --journal)\n\
     --shard I/N: worker mode — evaluate and journal only shard I's index-range lease (requires --journal)\n\
     --shard-stall-ms N: kill and reassign a worker whose journal stops growing for N ms (default 30000)\n\
     --shard-retries N: reassign a failed lease up to N times before abandoning it (default 3)\n\
     --out PATH: write stdout output to PATH via atomic temp+fsync+rename\n\
     --metrics PATH: write a Prometheus-style metrics snapshot to PATH (atomic)\n\
     --trace PATH: record structured spans and write the binary trace to PATH (atomic)\n\
     --profile: print a per-phase span profile (self/total time) to stderr\n\
     --bench-snapshot TOPIC: measure the topic's benches and write BENCH_<topic>.json (atomic)\n\
     --bench-check TOPIC: re-measure and compare against the recorded BENCH_<topic>.json;\n\
         exits 2 when any bench ran more than the tolerance slower than its baseline\n\
     --bench-dir DIR: directory holding BENCH_*.json files (default .)\n\
     --bench-against PATH: baseline snapshot for --bench-check (single topic only)\n\
     --bench-current PATH: compare this recorded snapshot instead of re-measuring (single topic only)\n\
     --bench-tolerance X: slowdown ratio treated as a regression (default 2.0)"
}

/// Every flag the driver understands, for the "did you mean" hint.
const KNOWN_FLAGS: &[&str] = &[
    "--all",
    "--bench-against",
    "--bench-check",
    "--bench-current",
    "--bench-dir",
    "--bench-snapshot",
    "--bench-tolerance",
    "--csv",
    "--experiments",
    "--figure",
    "--help",
    "--journal",
    "--json",
    "--max-failures",
    "--metrics",
    "--out",
    "--profile",
    "--resume",
    "--retries",
    "--scenario",
    "--shard",
    "--shard-retries",
    "--shard-stall-ms",
    "--shards",
    "--stats",
    "--table",
    "--timeout-ms",
    "--trace",
];

/// Edit distance between two flags, for near-miss suggestions.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            cur[j + 1] = subst.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The closest known flag, when close enough to be a plausible typo.
fn did_you_mean(flag: &str) -> Option<&'static str> {
    KNOWN_FLAGS
        .iter()
        .map(|&k| (levenshtein(flag, k), k))
        .min()
        .filter(|&(d, _)| d <= 3)
        .map(|(_, k)| k)
}

/// What the driver was asked to print.
enum Command {
    All,
    Experiments,
    Help,
    Table(String),
    Figure(String),
    Scenario(String),
    Json(String),
    Csv(String),
    BenchSnapshot(String),
    BenchCheck(String),
}

struct Cli {
    stats: bool,
    max_failures: u64,
    journal: Option<PathBuf>,
    resume: bool,
    timeout_ms: Option<u64>,
    retries: u32,
    shards: Option<usize>,
    shard: Option<ShardSpec>,
    shard_stall_ms: u64,
    shard_retries: u32,
    out: Option<PathBuf>,
    metrics: Option<PathBuf>,
    trace: Option<PathBuf>,
    profile: bool,
    bench_dir: PathBuf,
    bench_against: Option<PathBuf>,
    bench_current: Option<PathBuf>,
    bench_tolerance: f64,
    command: Command,
}

/// Parses the command line.
///
/// # Errors
///
/// A usage message for an unknown flag, a missing or unparsable
/// value, or a flag combination that cannot run.
fn parse(args: Vec<String>) -> Result<Cli, String> {
    let mut stats = false;
    let mut max_failures: u64 = 0;
    let mut journal: Option<PathBuf> = None;
    let mut resume = false;
    let mut timeout_ms: Option<u64> = None;
    let mut retries: u32 = 0;
    let mut shards: Option<usize> = None;
    let mut shard: Option<ShardSpec> = None;
    let mut shard_stall_ms: u64 = shard::DEFAULT_STALL_TIMEOUT.as_millis() as u64;
    let mut shard_retries: u32 = shard::DEFAULT_LEASE_RETRIES;
    let mut out: Option<PathBuf> = None;
    let mut metrics: Option<PathBuf> = None;
    let mut trace: Option<PathBuf> = None;
    let mut profile = false;
    let mut bench_dir = PathBuf::from(".");
    let mut bench_against: Option<PathBuf> = None;
    let mut bench_current: Option<PathBuf> = None;
    let mut bench_tolerance = ucore_bench::snapshot::DEFAULT_TOLERANCE;
    let mut command: Option<Command> = None;
    let set = |slot: &mut Option<Command>, c: Command| -> Result<(), String> {
        if slot.is_some() {
            return Err(format!("only one command per invocation\n{}", usage()));
        }
        *slot = Some(c);
        Ok(())
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--stats" => stats = true,
            "--resume" => resume = true,
            "--profile" => profile = true,
            "--help" | "-h" => set(&mut command, Command::Help)?,
            "--all" => set(&mut command, Command::All)?,
            "--experiments" => set(&mut command, Command::Experiments)?,
            "--max-failures" => {
                let v = value_for("--max-failures")?;
                max_failures = v.parse().map_err(|_| {
                    format!(
                        "--max-failures value {v:?} is not a non-negative integer\n{}",
                        usage()
                    )
                })?;
            }
            "--journal" => {
                journal = Some(PathBuf::from(value_for("--journal")?));
            }
            "--out" => {
                out = Some(PathBuf::from(value_for("--out")?));
            }
            "--metrics" => {
                metrics = Some(PathBuf::from(value_for("--metrics")?));
            }
            "--trace" => {
                trace = Some(PathBuf::from(value_for("--trace")?));
            }
            "--timeout-ms" => {
                let v = value_for("--timeout-ms")?;
                let ms: u64 = v.parse().ok().filter(|&ms| ms > 0).ok_or_else(|| {
                    format!(
                        "--timeout-ms value {v:?} is not a positive integer\n{}",
                        usage()
                    )
                })?;
                timeout_ms = Some(ms);
            }
            "--retries" => {
                let v = value_for("--retries")?;
                retries = v.parse().map_err(|_| {
                    format!(
                        "--retries value {v:?} is not a non-negative integer\n{}",
                        usage()
                    )
                })?;
            }
            "--shards" => {
                let v = value_for("--shards")?;
                let n: usize = v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    format!("--shards value {v:?} is not a positive integer\n{}", usage())
                })?;
                shards = Some(n);
            }
            "--shard" => {
                let v = value_for("--shard")?;
                shard = Some(
                    ShardSpec::parse(&v).map_err(|e| format!("{e}\n{}", usage()))?,
                );
            }
            "--shard-stall-ms" => {
                let v = value_for("--shard-stall-ms")?;
                shard_stall_ms = v.parse().ok().filter(|&ms| ms > 0).ok_or_else(|| {
                    format!(
                        "--shard-stall-ms value {v:?} is not a positive integer\n{}",
                        usage()
                    )
                })?;
            }
            "--shard-retries" => {
                let v = value_for("--shard-retries")?;
                shard_retries = v.parse().map_err(|_| {
                    format!(
                        "--shard-retries value {v:?} is not a non-negative integer\n{}",
                        usage()
                    )
                })?;
            }
            "--table" => {
                let v = value_for("--table")?;
                set(&mut command, Command::Table(v))?;
            }
            "--figure" => {
                let v = value_for("--figure")?;
                set(&mut command, Command::Figure(v))?;
            }
            "--scenario" => {
                let v = value_for("--scenario")?;
                set(&mut command, Command::Scenario(v))?;
            }
            "--json" => {
                let v = value_for("--json")?;
                set(&mut command, Command::Json(v))?;
            }
            "--csv" => {
                let v = value_for("--csv")?;
                set(&mut command, Command::Csv(v))?;
            }
            "--bench-snapshot" => {
                let v = value_for("--bench-snapshot")?;
                set(&mut command, Command::BenchSnapshot(v))?;
            }
            "--bench-check" => {
                let v = value_for("--bench-check")?;
                set(&mut command, Command::BenchCheck(v))?;
            }
            "--bench-dir" => {
                bench_dir = PathBuf::from(value_for("--bench-dir")?);
            }
            "--bench-against" => {
                bench_against = Some(PathBuf::from(value_for("--bench-against")?));
            }
            "--bench-current" => {
                bench_current = Some(PathBuf::from(value_for("--bench-current")?));
            }
            "--bench-tolerance" => {
                let v = value_for("--bench-tolerance")?;
                bench_tolerance =
                    v.parse().ok().filter(|&t: &f64| t.is_finite() && t >= 1.0).ok_or_else(
                        || {
                            format!(
                                "--bench-tolerance value {v:?} is not a finite ratio >= 1.0\n{}",
                                usage()
                            )
                        },
                    )?;
            }
            other => {
                let kind = if other.starts_with('-') { "flag" } else { "argument" };
                let hint = did_you_mean(other)
                    .map(|s| format!(" (did you mean {s}?)"))
                    .unwrap_or_default();
                return Err(format!("unknown {kind} {other:?}{hint}\n{}", usage()));
            }
        }
    }
    if resume && journal.is_none() {
        return Err(format!("--resume requires --journal PATH\n{}", usage()));
    }
    if shards.is_some() && shard.is_some() {
        return Err(format!(
            "--shards (orchestrator) and --shard (worker) are mutually exclusive\n{}",
            usage()
        ));
    }
    if shards.is_some() && journal.is_none() {
        return Err(format!(
            "--shards requires --journal PATH (shard journals merge into it)\n{}",
            usage()
        ));
    }
    if shard.is_some() && journal.is_none() {
        return Err(format!(
            "--shard requires --journal PATH (a worker's results live in its journal)\n{}",
            usage()
        ));
    }
    if shards.is_some() && resume {
        return Err(format!(
            "--shards cannot be combined with --resume \
             (the orchestrator always replays the merged journal)\n{}",
            usage()
        ));
    }
    if shards.is_some() || shard.is_some() {
        match &command {
            None
            | Some(
                Command::All
                | Command::Experiments
                | Command::Table(_)
                | Command::Figure(_)
                | Command::Scenario(_)
                | Command::Json(_)
                | Command::Csv(_),
            ) => {}
            Some(Command::Help | Command::BenchSnapshot(_) | Command::BenchCheck(_)) => {
                return Err(format!(
                    "--shards/--shard need a rendering command \
                     (a table, figure, scenario, json or csv target)\n{}",
                    usage()
                ))
            }
        }
    }
    if bench_against.is_some() || bench_current.is_some() {
        match &command {
            Some(Command::BenchCheck(topic)) if topic != "all" => {}
            _ => {
                return Err(format!(
                    "--bench-against/--bench-current require --bench-check with a \
                     single topic (kernels|sweep)\n{}",
                    usage()
                ))
            }
        }
    }
    Ok(Cli {
        stats,
        max_failures,
        journal,
        resume,
        timeout_ms,
        retries,
        shards,
        shard,
        shard_stall_ms,
        shard_retries,
        out,
        metrics,
        trace,
        profile,
        bench_dir,
        bench_against,
        bench_current,
        bench_tolerance,
        command: command.unwrap_or(Command::All),
    })
}

/// Expands a bench topic argument into concrete topics.
///
/// # Errors
///
/// A usage message when `topic` is not `kernels`, `sweep` or `all`.
fn bench_topics(topic: &str) -> Result<Vec<&'static str>, String> {
    match topic {
        "all" => Ok(snapshot::TOPICS.to_vec()),
        other => snapshot::TOPICS
            .iter()
            .find(|&&t| t == other)
            .map(|&t| vec![t])
            .ok_or_else(|| {
                format!("bench topic {other:?} is not one of kernels|sweep|all\n{}", usage())
            }),
    }
}

/// Reads and decodes the bench snapshot at `path`.
///
/// # Errors
///
/// The path and the cause when the file cannot be read or decoded.
fn read_snapshot(path: &std::path::Path) -> Result<snapshot::BenchSnapshot, String> {
    let bytes = std::fs::read(path)
        .map_err(|e| format!("cannot read snapshot {}: {e}", path.display()))?;
    snapshot::BenchSnapshot::from_slice(&bytes)
        .map_err(|e| format!("snapshot {}: {e}", path.display()))
}

/// `--bench-snapshot`: measure each topic and record it, atomically.
///
/// # Errors
///
/// An unknown topic, a failed bench setup, or a snapshot that cannot
/// be serialized or written.
fn run_bench_snapshot(cli: &Cli, topic: &str) -> Result<(), String> {
    let budget = snapshot::budget_from_env();
    for t in bench_topics(topic)? {
        let snap = snapshot::capture(t, budget).map_err(|e| e.to_string())?;
        let path = cli.bench_dir.join(snapshot::file_name(t));
        let json = snap.to_json().map_err(|e| e.to_string())?;
        ucore_project::atomic_write(&path, json.as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("bench-snapshot: wrote {} ({} entries)", path.display(), snap.entries.len());
    }
    Ok(())
}

/// `--bench-check`: compare (fresh or recorded) measurements against the
/// recorded baseline. Returns the number of tolerance breaches.
///
/// # Errors
///
/// An unknown topic, a snapshot that cannot be read or measured, or
/// snapshots that cannot be compared (schema or topic mismatch).
fn run_bench_check(cli: &Cli, topic: &str) -> Result<usize, String> {
    let budget = snapshot::budget_from_env();
    let mut breaches_total = 0usize;
    for t in bench_topics(topic)? {
        let baseline_path = cli
            .bench_against
            .clone()
            .unwrap_or_else(|| cli.bench_dir.join(snapshot::file_name(t)));
        let baseline = read_snapshot(&baseline_path)?;
        let current = match &cli.bench_current {
            Some(path) => read_snapshot(path)?,
            None => snapshot::capture(t, budget).map_err(|e| e.to_string())?,
        };
        let breaches = snapshot::compare(&baseline, &current, cli.bench_tolerance)
            .map_err(|e| e.to_string())?;
        if breaches.is_empty() {
            println!(
                "bench-check {t}: ok ({} entries within x{:.2} of {})",
                baseline.entries.len(),
                cli.bench_tolerance,
                baseline_path.display()
            );
        } else {
            for breach in &breaches {
                eprintln!("{breach}");
            }
            breaches_total += breaches.len();
        }
    }
    Ok(breaches_total)
}

/// Activates the durability layer when any of its flags were given or
/// `faults` injects anything. Returns the guard keeping it active
/// (`None` when the run is not durable), after reporting what a resume
/// replayed.
///
/// # Errors
///
/// The journal cannot be opened, replayed or locked.
fn activate_durability(cli: &Cli, faults: FaultPlan) -> Result<Option<DurabilityGuard>, String> {
    let wanted = cli.journal.is_some()
        || cli.resume
        || cli.timeout_ms.is_some()
        || cli.retries > 0
        || cli.shard.is_some()
        || !faults.is_empty();
    if !wanted {
        return Ok(None);
    }
    let config = DurabilityConfig {
        journal: cli.journal.clone(),
        resume: cli.resume,
        timeout: cli.timeout_ms.map(Duration::from_millis),
        retries: cli.retries,
        shard: cli.shard,
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
        if report.duplicates > 0 {
            eprintln!(
                "note: journal contained {} superseded record(s) (kept the latest)",
                report.duplicates
            );
        }
    }
    Ok(Some(guard))
}

/// The command-line tail handed to every shard worker after the
/// generated `--shard i/n --journal PATH [--resume]` prefix: the
/// rendering command plus the forwarded per-point policy flags.
///
/// # Errors
///
/// A usage message when the command renders nothing (help or a bench
/// command).
fn worker_args(cli: &Cli) -> Result<Vec<String>, String> {
    let mut args: Vec<String> = Vec::new();
    match &cli.command {
        Command::All => args.push("--all".into()),
        Command::Experiments => args.push("--experiments".into()),
        Command::Table(n) => args.extend(["--table".into(), n.clone()]),
        Command::Figure(n) => args.extend(["--figure".into(), n.clone()]),
        Command::Scenario(n) => args.extend(["--scenario".into(), n.clone()]),
        Command::Json(which) => args.extend(["--json".into(), which.clone()]),
        Command::Csv(which) => args.extend(["--csv".into(), which.clone()]),
        Command::Help | Command::BenchSnapshot(_) | Command::BenchCheck(_) => {
            return Err(format!(
                "--shards needs a rendering command\n{}",
                usage()
            ))
        }
    }
    if let Some(ms) = cli.timeout_ms {
        args.extend(["--timeout-ms".into(), ms.to_string()]);
    }
    if cli.retries > 0 {
        args.extend(["--retries".into(), cli.retries.to_string()]);
    }
    Ok(args)
}

/// `--shards N`: run the worker fleet to completion and merge the shard
/// journals into `cli.journal`. The caller then renders by replaying
/// the merged journal, so worker crashes and abandoned leases cost
/// wall time, never output bytes.
///
/// # Errors
///
/// `--shards` without `--journal`, an executable path that cannot be
/// found, a worker that cannot be spawned, or a failed journal merge.
fn run_shard_fleet(cli: &Cli, shards: usize) -> Result<(), String> {
    let merged = cli
        .journal
        .clone()
        .ok_or_else(|| format!("--shards requires --journal PATH\n{}", usage()))?;
    let program = std::env::current_exe()
        .map_err(|e| format!("cannot locate the repro executable: {e}"))?;
    let mut cfg = OrchestratorConfig::new(shards, merged, program, worker_args(cli)?);
    cfg.stall_timeout = Duration::from_millis(cli.shard_stall_ms);
    cfg.lease_retries = cli.shard_retries;
    let report = shard::orchestrate(&cfg).map_err(|e| e.to_string())?;
    for outcome in &report.shards {
        let mut notes: Vec<String> = Vec::new();
        if outcome.crashes > 0 {
            notes.push(format!("{} crash(es)", outcome.crashes));
        }
        if outcome.stalls > 0 {
            notes.push(format!("{} stall(s)", outcome.stalls));
        }
        if !outcome.completed {
            notes.push(String::from("lease abandoned"));
        }
        let notes = if notes.is_empty() {
            String::new()
        } else {
            format!(" [{}]", notes.join(", "))
        };
        eprintln!(
            "shard {}/{}: {} journaled record(s) in {} attempt(s){notes}",
            outcome.shard, shards, outcome.records, outcome.attempts
        );
    }
    eprintln!(
        "shards: merged {} record(s) ({} duplicate(s), {} rejected, {} torn tail(s), \
         {} missing journal(s)) into {}",
        report.merge.records,
        report.merge.duplicates,
        report.merge.rejected,
        report.merge.torn_tails,
        report.merge.missing,
        cfg.merged_journal.display(),
    );
    Ok(())
}

/// Renders one shared-module target, restoring the CLI's historical
/// error bytes: bad targets get the usage banner appended, model
/// failures pass through verbatim.
///
/// # Errors
///
/// The render error, as described above.
fn target_bytes(target: &ucore_bench::Target) -> Result<String, Box<dyn std::error::Error>> {
    match ucore_bench::render::render(target) {
        Ok(rendered) => Ok(rendered.body),
        Err(e) if e.is_bad_target() => Err(format!("{e}\n{}", usage()).into()),
        Err(e) => Err(e.to_string().into()),
    }
}

/// Renders `--stats` from one coherent [`MetricsSnapshot`], taken after
/// every sweep has finished. The old implementation read each
/// atomic counter independently (and some twice), so the cache line and
/// the points line could disagree mid-run; a single snapshot cannot.
fn print_stats(snapshot: &MetricsSnapshot, total: Duration) {
    let cache_hits = snapshot.counter("cache.hits");
    let cache_misses = snapshot.counter("cache.misses");
    let cache_lookups = snapshot.counter("cache.lookups");
    let cache_entries = snapshot.gauge("cache.entries").unwrap_or(0.0) as u64;
    let hit_rate = if cache_lookups == 0 {
        0.0
    } else {
        cache_hits as f64 / cache_lookups as f64
    };
    eprintln!("--- repro --stats ---");
    for (i, s) in ucore_project::sweep::drain_phase_log().iter().enumerate() {
        // The lease note appears only for shard workers, so unsharded
        // runs keep the exact historical phase-line bytes.
        let lease_note = if s.points_skipped > 0 {
            format!(", {} lease-skipped", s.points_skipped)
        } else {
            String::new()
        };
        eprintln!(
            "sweep phase {i}: {} points ({} ok, {} infeasible, {} failed) on {} threads, \
             {} cache hits, {} misses, {} journal hits, {} retries{lease_note}, {:.3} ms",
            s.points,
            s.points_ok,
            s.points_infeasible,
            s.points_failed,
            s.threads,
            s.cache_hits,
            s.cache_misses,
            s.journal_hits,
            s.retries,
            s.wall.as_secs_f64() * 1e3,
        );
    }
    eprintln!(
        "points: {} ok, {} infeasible, {} failed",
        snapshot.counter("points.ok"),
        snapshot.counter("points.infeasible"),
        snapshot.counter("points.failed"),
    );
    eprintln!("evaluations run: {cache_misses}");
    eprintln!(
        "cache: {} hits, {} misses, {} entries, {:.1}% hit rate",
        cache_hits,
        cache_misses,
        cache_entries,
        hit_rate * 100.0,
    );
    eprintln!(
        "durability: {} journal hits, {} stale journal records, {} retries",
        snapshot.counter("journal.hits"),
        snapshot.counter("journal.stale"),
        snapshot.counter("points.retries"),
    );
    // Shard lines appear only when sharding was actually exercised, so
    // every pre-existing --stats consumer sees unchanged bytes.
    if snapshot.counter("shard.workers_spawned") > 0 {
        eprintln!(
            "sharding: {} workers spawned ({} ok, {} crashed, {} stalled), \
             {} leases reassigned, {} abandoned",
            snapshot.counter("shard.workers_spawned"),
            snapshot.counter("shard.workers_ok"),
            snapshot.counter("shard.workers_crashed"),
            snapshot.counter("shard.workers_stalled"),
            snapshot.counter("shard.leases_reassigned"),
            snapshot.counter("shard.leases_abandoned"),
        );
        eprintln!(
            "shard merge: {} records ({} duplicates deduped, {} rejected on \
             fingerprint mismatch)",
            snapshot.counter("shard.merge_records"),
            snapshot.counter("shard.merge_duplicates"),
            snapshot.counter("shard.merge_rejected"),
        );
    }
    if snapshot.counter("shard.points_skipped") > 0 {
        eprintln!(
            "shard lease: {} out-of-lease points skipped",
            snapshot.counter("shard.points_skipped"),
        );
    }
    eprintln!(
        "failure log: {} retained (cap {}), {} dropped",
        ucore_project::failure_diagnostics().len(),
        ucore_project::MAX_RETAINED_FAILURES,
        snapshot.counter("failures.dropped"),
    );
    eprintln!("total wall time: {:.3} ms", total.as_secs_f64() * 1e3);
}

/// The structured diagnostic printed when contained failures exceed the
/// `--max-failures` threshold.
fn print_failure_diagnostic(snapshot: &MetricsSnapshot, max_failures: u64) {
    eprintln!("error: sweep failures exceeded --max-failures");
    eprintln!("  points_failed: {}", snapshot.counter("points.failed"));
    eprintln!("  max_failures: {max_failures}");
    eprintln!("  points_ok: {}", snapshot.counter("points.ok"));
    eprintln!("  points_infeasible: {}", snapshot.counter("points.infeasible"));
    for d in ucore_project::failure_diagnostics() {
        eprintln!("  failure at point {}: {}", d.index, d.panic_msg);
    }
    let dropped = snapshot.counter("failures.dropped");
    if dropped > 0 {
        eprintln!(
            "  ({dropped} further failure(s) beyond the {}-entry log were dropped)",
            ucore_project::MAX_RETAINED_FAILURES
        );
    }
}

/// Renders the requested command to the exact bytes that would go to
/// stdout — so `--out` can write the identical artifact atomically.
/// Target rendering is delegated to [`ucore_bench::render`], the module
/// the `ucore-serve` daemon also answers from, so CLI and served bytes
/// can never drift apart.
///
/// # Errors
///
/// A bad target or a model failure while rendering.
fn render(command: &Command) -> Result<String, Box<dyn std::error::Error>> {
    use ucore_bench::Target;
    let out = match command {
        Command::Help => format!("{}\n", usage()),
        Command::All => ucore_bench::render_all()?,
        Command::Experiments => ucore_bench::experiments::render()?,
        Command::Table(n) => target_bytes(&Target::Table(n.clone()))?,
        Command::Figure(n) => target_bytes(&Target::Figure(n.clone()))?,
        Command::Scenario(n) => target_bytes(&Target::Scenario(n.clone()))?,
        Command::Json(which) => target_bytes(&Target::Json(which.clone()))?,
        Command::Csv(which) => target_bytes(&Target::Csv(which.clone()))?,
        // Handled in main before render is reached.
        Command::BenchSnapshot(_) | Command::BenchCheck(_) => String::new(),
    };
    Ok(out)
}

/// Renders `command` to stdout, or atomically to `out` when given.
///
/// # Errors
///
/// A render failure, or an `out` path that cannot be written.
fn run(command: &Command, out: Option<&std::path::Path>) -> Result<(), Box<dyn std::error::Error>> {
    let rendered = render(command)?;
    match out {
        Some(path) => {
            ucore_project::atomic_write(path, rendered.as_bytes())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

/// Writes the `--metrics` / `--trace` artifacts and prints the
/// `--profile` report, all from state captured after the run.
///
/// # Errors
///
/// A `--metrics` or `--trace` file that cannot be written.
fn write_observability(cli: &Cli, snapshot: &MetricsSnapshot) -> Result<(), String> {
    if let Some(path) = &cli.metrics {
        ucore_project::atomic_write(path, snapshot.render_prometheus().as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if cli.trace.is_some() || cli.profile {
        let trace = ucore_obs::trace::snapshot().unwrap_or_default();
        if let Some(path) = &cli.trace {
            ucore_project::atomic_write(path, &trace.encode())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        if cli.profile {
            let report = ucore_obs::profile::reduce(&trace);
            eprintln!("--- repro --profile ---");
            eprint!("{}", report.render());
            let folded = ucore_obs::profile::folded_stacks(&trace);
            if !folded.is_empty() {
                eprintln!("folded stacks (flamegraph.pl input):");
                eprint!("{folded}");
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    // Installed before any journal can open: SIGINT/SIGTERM fsync the
    // active journal and exit 130/143, so an interrupted worker's
    // journal tail is durable and the run is always resumable.
    signals::install(false);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = match parse(args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Bench commands are measurement, not rendering: they bypass the
    // durability/observability plumbing and the figure pipeline. Exit
    // codes match the driver's convention — 1 for usage/IO errors, 2
    // for a policy breach (here: a bench past its tolerance).
    match &cli.command {
        Command::BenchSnapshot(topic) => {
            return match run_bench_snapshot(&cli, topic) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            };
        }
        Command::BenchCheck(topic) => {
            return match run_bench_check(&cli, topic) {
                Ok(0) => ExitCode::SUCCESS,
                Ok(n) => {
                    eprintln!(
                        "bench-check failed: {n} benchmark(s) breached the x{:.2} tolerance",
                        cli.bench_tolerance
                    );
                    ExitCode::from(2)
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    // Orchestrator mode: run the worker fleet first, then fall through
    // to the ordinary render path in *resume* mode against the merged
    // journal — replay makes the output byte-identical to a
    // single-process run, and any points an abandoned lease never
    // journaled are simply evaluated here, in-process.
    let mut faults =
        FaultPlan::from_env_value(std::env::var("UCORE_FAULT_INJECT").ok().as_deref());
    if let Some(shards) = cli.shards {
        if let Err(e) = run_shard_fleet(&cli, shards) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        // The workers inherited any UCORE_FAULT_INJECT plan and already
        // honored it; the orchestrator's own replay-render leaves the
        // plan out so the same fault does not fire again.
        faults = FaultPlan::new();
        cli.resume = true;
    }
    let cli = cli;
    // Keep the journal alive (and fsync'd) for the whole render.
    let _durability_guard = match activate_durability(&cli, faults) {
        Ok(guard) => guard,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Span recording is guard-scoped: armed only when the run will
    // consume the buffer. Metrics counters are always live (they are
    // plain atomics), so `--metrics`/`--stats` need no arming.
    let _trace_guard = (cli.trace.is_some() || cli.profile)
        .then(|| ucore_obs::trace::start(ucore_obs::trace::DEFAULT_CAPACITY));
    let start = Instant::now();
    let outcome = run(&cli.command, cli.out.as_deref());
    // One coherent registry snapshot after every sweep has finished;
    // every consumer below (stats, metrics file, failure
    // policing) reads this snapshot, never the live counters.
    let snapshot = ucore_obs::registry().snapshot();
    if cli.stats {
        print_stats(&snapshot, start.elapsed());
    }
    let mut code = match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    };
    if let Err(e) = write_observability(&cli, &snapshot) {
        eprintln!("{e}");
        code = ExitCode::FAILURE;
    }
    // Fault-containment accounting: rendering succeeded point-by-point,
    // but the run as a whole is only healthy if contained failures stay
    // within the caller's tolerance. Shard *workers* skip this policing
    // — their journaled Failed records replay in the orchestrator,
    // which polices the whole merged run once.
    if cli.shard.is_none() && snapshot.counter("points.failed") > cli.max_failures {
        print_failure_diagnostic(&snapshot, cli.max_failures);
        return ExitCode::from(2);
    }
    code
}
