//! The reproduction driver: prints any table or figure of the paper.
//! `repro --help` lists every flag, generated from the tables below and
//! the durability flags [`ucore_bench::cli`] shares with `served`.
//!
//! Observing never touches stdout: `--stats`, `--metrics`, `--trace`
//! and `--profile` leave the rendered bytes identical. A failed sweep
//! point degrades only that point; more of them than `--max-failures`
//! exit 2. `--journal`/`--resume` make a killed run resumable to the same
//! bytes, and `--shards N` spreads it over worker processes whose
//! journals merge into `--journal` (DESIGN.md §12, §16). SIGINT/SIGTERM
//! fsync the active journal and exit 130/143.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use ucore_bench::cli::{self, Flag, Spec};
use ucore_bench::snapshot;
use ucore_obs::MetricsSnapshot;
use ucore_project::durability::{signals, DurabilityConfig};
use ucore_project::faultinject::FaultPlan;
use ucore_project::shard::{self, OrchestratorConfig, ShardSpec};

const ALL: Flag = Flag::switch("--all", "every table, figure, and scenario in paper order");
const EXPERIMENTS: Flag = Flag::switch("--experiments", "the experiment index");
const TABLE: Flag = Flag::text("--table", "N", "one table (1-6)");
const FIGURE: Flag = Flag::text("--figure", "N", "one figure (2-11)");
const SCENARIO: Flag = Flag::text("--scenario", "N", "one 6.2 scenario (1-6)");
const JSON: Flag = Flag::text("--json", "figure-N", "machine-readable figure data (figures 6-11)");
const CSV: Flag = Flag::text("--csv", "figure-N", "CSV figure data (figures 6-11)");
const BENCH_SNAPSHOT: Flag =
    Flag::text("--bench-snapshot", "TOPIC", "record BENCH_<topic>.json (kernels|sweep|all)");
const BENCH_CHECK: Flag =
    Flag::text("--bench-check", "TOPIC", "re-measure against BENCH_<topic>.json; 2 on a breach");
const STATS: Flag = Flag::switch("--stats", "print evaluation/cache/sweep counters to stderr");
const MAX_FAILURES: Flag = Flag::count("--max-failures", "tolerate N failed points (default 0)");
const OUT: Flag = Flag::text("--out", "PATH", "write the output to PATH atomically");
const SHARDS: Flag = Flag::positive("--shards", "run across N worker processes (needs --journal)");
const SHARD: Flag = Flag::text("--shard", "I/N", "run as worker I of N (set by --shards)");
const SHARD_STALL_MS: Flag =
    Flag::positive("--shard-stall-ms", "reassign a worker silent for N ms (default 30000)");
const SHARD_RETRIES: Flag =
    Flag::count("--shard-retries", "reassign a lease up to N times (default 3)");
const METRICS: Flag = Flag::text("--metrics", "PATH", "write a Prometheus metrics snapshot");
const TRACE: Flag = Flag::text("--trace", "PATH", "record spans and write the binary trace");
const PROFILE: Flag = Flag::switch("--profile", "print a per-phase span profile to stderr");
const BENCH_DIR: Flag = Flag::text("--bench-dir", "DIR", "where BENCH_*.json live (default .)");
const BENCH_AGAINST: Flag =
    Flag::text("--bench-against", "PATH", "baseline for --bench-check (one topic only)");
const BENCH_CURRENT: Flag =
    Flag::text("--bench-current", "PATH", "compare this snapshot instead of measuring");
const BENCH_TOLERANCE: Flag =
    Flag::text("--bench-tolerance", "X", "slowdown ratio that is a regression (default 2.0)");

static SPEC: Spec = Spec {
    synopsis: "usage: repro [COMMAND] [OPTION]...",
    groups: &[
        (
            "commands (at most one; the default renders everything)",
            &[
                ALL, EXPERIMENTS, TABLE, FIGURE, SCENARIO, JSON, CSV, BENCH_SNAPSHOT, BENCH_CHECK,
                cli::HELP,
            ],
        ),
        (
            "options",
            &[
                STATS, MAX_FAILURES, OUT, SHARDS, SHARD, SHARD_STALL_MS, SHARD_RETRIES, METRICS,
                TRACE, PROFILE, BENCH_DIR, BENCH_AGAINST, BENCH_CURRENT, BENCH_TOLERANCE,
            ],
        ),
        ("durability", cli::DURABILITY),
    ],
};

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

impl Command {
    /// The command `flag` selects with `value`, if it is a command flag.
    fn of(flag: &Flag, value: &Option<String>) -> Option<Self> {
        let v = || value.clone().unwrap_or_default();
        Some(match *flag {
            ALL => Command::All,
            EXPERIMENTS => Command::Experiments,
            cli::HELP => Command::Help,
            TABLE => Command::Table(v()),
            FIGURE => Command::Figure(v()),
            SCENARIO => Command::Scenario(v()),
            JSON => Command::Json(v()),
            CSV => Command::Csv(v()),
            BENCH_SNAPSHOT => Command::BenchSnapshot(v()),
            BENCH_CHECK => Command::BenchCheck(v()),
            _ => return None,
        })
    }
}

struct Cli {
    stats: bool,
    max_failures: u64,
    /// Journal, resume, stall timeout, retries and shard lease.
    durability: DurabilityConfig,
    shards: Option<usize>,
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
    /// What every shard worker gets after its `--shard i/n --journal
    /// PATH [--resume]` prefix: the command flag and the per-point
    /// policy flags, as given.
    worker_args: Vec<String>,
}

/// Parses the command line.
///
/// # Errors
///
/// A usage message for an unknown flag, a missing or unparsable
/// value, or a flag combination that cannot run.
fn parse(argv: Vec<String>) -> Result<Cli, String> {
    let args = SPEC.parse(argv)?;
    let mut command = None;
    let mut worker_args = Vec::new();
    for (flag, value) in args.given() {
        let selected = Command::of(flag, value);
        if selected.is_some() && command.is_some() {
            return Err(SPEC.error("only one command per invocation"));
        }
        if selected.is_some() || [cli::TIMEOUT_MS, cli::RETRIES].contains(flag) {
            worker_args.extend(std::iter::once(flag.name.to_string()).chain(value.clone()));
        }
        command = command.or(selected);
    }
    let mut durability = cli::durability_config(&args)?;
    durability.shard =
        args.text(&SHARD).map(ShardSpec::parse).transpose().map_err(|e| SPEC.error(e))?;
    let bench_tolerance = match args.text(&BENCH_TOLERANCE) {
        None => snapshot::DEFAULT_TOLERANCE,
        Some(v) => v.parse().ok().filter(|&t: &f64| t.is_finite() && t >= 1.0).ok_or_else(|| {
            SPEC.error(format!("--bench-tolerance value {v:?} is not a finite ratio >= 1.0"))
        })?,
    };
    let default_stall_ms = shard::DEFAULT_STALL_TIMEOUT.as_millis() as u64;
    let cli = Cli {
        stats: args.has(&STATS),
        max_failures: args.int(&MAX_FAILURES)?.unwrap_or(0),
        durability,
        shards: args.int(&SHARDS)?,
        shard_stall_ms: args.int(&SHARD_STALL_MS)?.unwrap_or(default_stall_ms),
        shard_retries: args.int(&SHARD_RETRIES)?.unwrap_or(shard::DEFAULT_LEASE_RETRIES),
        out: args.path(&OUT),
        metrics: args.path(&METRICS),
        trace: args.path(&TRACE),
        profile: args.has(&PROFILE),
        bench_dir: args.path(&BENCH_DIR).unwrap_or_else(|| PathBuf::from(".")),
        bench_against: args.path(&BENCH_AGAINST),
        bench_current: args.path(&BENCH_CURRENT),
        bench_tolerance,
        command: command.unwrap_or(Command::All),
        worker_args,
    };
    let (sharded, journal) = (cli.shards.is_some(), cli.durability.journal.is_some());
    let worker = cli.durability.shard.is_some();
    let renders =
        !matches!(cli.command, Command::Help | Command::BenchSnapshot(_) | Command::BenchCheck(_));
    let single_check = matches!(&cli.command, Command::BenchCheck(topic) if topic != "all");
    let conflicts = [
        (sharded && worker, "--shards (orchestrator) and --shard (worker) are mutually exclusive"),
        (sharded && !journal, "--shards requires --journal PATH (shard journals merge into it)"),
        (
            worker && !journal,
            "--shard requires --journal PATH (a worker's results live in its journal)",
        ),
        (
            sharded && cli.durability.resume,
            "--shards cannot be combined with --resume \
             (the orchestrator always replays the merged journal)",
        ),
        (
            (sharded || worker) && !renders,
            "--shards/--shard need a rendering command \
             (a table, figure, scenario, json or csv target)",
        ),
        (
            (cli.bench_against.is_some() || cli.bench_current.is_some()) && !single_check,
            "--bench-against/--bench-current require --bench-check with a \
             single topic (kernels|sweep)",
        ),
    ];
    match conflicts.into_iter().find(|&(conflict, _)| conflict) {
        Some((_, message)) => Err(SPEC.error(message)),
        None => Ok(cli),
    }
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
                SPEC.error(format!("bench topic {other:?} is not one of kernels|sweep|all"))
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

/// `--shards N`: run the worker fleet to completion and merge the shard
/// journals into `--journal`, which parsing made sure was given. The
/// caller then renders by replaying the merged journal, so worker
/// crashes and abandoned leases cost wall time, never output bytes.
///
/// # Errors
///
/// An executable path that cannot be found, a worker that cannot be
/// spawned, or a failed journal merge.
fn run_shard_fleet(cli: &Cli, shards: usize) -> Result<(), String> {
    let merged = cli.durability.journal.clone().unwrap_or_default();
    let program = std::env::current_exe()
        .map_err(|e| format!("cannot locate the repro executable: {e}"))?;
    let mut cfg = OrchestratorConfig::new(shards, merged, program, cli.worker_args.clone());
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
        Err(e) if e.is_bad_target() => Err(SPEC.error(e).into()),
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
        Command::Help => format!("{}\n", SPEC.usage()),
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
        cli.durability.resume = true;
    }
    // Keep the journal alive (and fsync'd) for the whole render.
    let _durability_guard = match cli::activate_durability(cli.durability.clone(), faults) {
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
    if cli.durability.shard.is_none() && snapshot.counter("points.failed") > cli.max_failures {
        print_failure_diagnostic(&snapshot, cli.max_failures);
        return ExitCode::from(2);
    }
    code
}
