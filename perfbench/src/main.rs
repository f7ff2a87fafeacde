//! The workspace benchmark: three workloads, each timed end to end with
//! every output checked, plus a traced run that splits the time into
//! layers.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-warm --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for which layers each loads):
//!
//! * `serve-warm` — two connections in a closed loop of seeded GETs
//!   against a spawned `served`;
//! * `explore-durable` — journaled sweeps of 512 fresh points from a
//!   pinned pool, then a resumed sweep that must replay every point;
//! * `repro-cold` — clear the evaluation cache, render all 34 artifacts
//!   in process. Not listed in `BENCHMARK.json`: its speed follows the
//!   host's load too closely to bound a change (see the README).
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). Human-readable detail goes to
//! stderr. `--print-digests` prints the pinned digest file the checks
//! compare against.

mod explore;
mod inputs;
mod layers;
mod measure;
mod repro;
mod serve;

use measure::{quantile, LayerReport, Timed};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 21;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReproCold,
    ServeWarm,
    ExploreDurable,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "repro-cold" => Some(Workload::ReproCold),
            "serve-warm" => Some(Workload::ServeWarm),
            "explore-durable" => Some(Workload::ExploreDurable),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ReproCold => "repro-cold",
            Workload::ServeWarm => "serve-warm",
            Workload::ExploreDurable => "explore-durable",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload repro-cold|serve-warm|explore-durable \
                     --seed N --seconds S --trace 0|1\n       perfbench --print-digests";

enum Mode {
    Run(Args),
    /// Internal: one set-up of an in-process workload in a fresh
    /// process, timed by the parent.
    SetupProbe(Args),
    PrintDigests,
}

fn parse_args(raw: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut probe = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--setup-probe" => probe = true,
            "--print-digests" => return Ok(Mode::PrintDigests),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let args = Args {
        workload,
        seed,
        seconds,
        trace,
    };
    Ok(if probe {
        Mode::SetupProbe(args)
    } else {
        Mode::Run(args)
    })
}

/// Verified operations over the whole run: set-ups, warm-ups, timed
/// and traced operations alike.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn add(&mut self, result: &Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: check failed: {e}");
        }
    }

    pub fn absorb(&mut self, timed: &Timed) {
        self.attempted += timed.attempted;
        self.failed += timed.failed;
    }
}

/// The metrics one run prints, in order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The end-to-end metrics of a timed closed loop.
    pub fn end_to_end(&mut self, setup: &[Duration], timed: &Timed, rss_mb: f64) {
        let setups: Vec<f64> = setup.iter().map(Duration::as_secs_f64).collect();
        eprintln!(
            "perfbench: {} operations in {:.2} s, {} failed; set-ups (s): {setups:?}",
            timed.attempted,
            timed.wall.as_secs_f64(),
            timed.failed
        );
        self.push("setup_s", quantile(&setups, 0.5), "s");
        self.push("latency_p50_ms", timed.p50(), "ms");
        self.push("latency_p99_ms", timed.p99(), "ms");
        self.push("throughput_per_s", timed.throughput(), "1/s");
        self.push("cpu_ms_per_op", timed.cpu_ms_per_op(), "ms");
        self.push("rss_mb", rss_mb, "MB");
    }

    /// The per-layer metrics of a traced run; layers the workload never
    /// reached read 0.
    pub fn layers(&mut self, l: &Layers) {
        let r = &l.report;
        let us = |layer: &str| r.per_call_us(layer);
        let per_op = |layer: &str| r.per_op_ms(layer);
        // Estimated layers are priced by a probe; they only count where
        // the workload actually called them.
        let probed = |layer: &str, ms: f64| if r.calls(layer) > 0.0 { ms * 1e3 } else { 0.0 };
        let ops = r.ops().max(1) as f64;
        let (t, p) = (&l.sweeps, &l.probes);
        // Two probes apart; where derivation is nearly all of the
        // engine, their noise could read below zero.
        let engine_self_ms = (p.engine_new_ms - p.table5_derive_ms).max(0.0);
        let hit_ratio = if l.journal_offered > 0.0 {
            l.journal_hits / l.journal_offered
        } else {
            0.0
        };
        self.0.extend([
            ("project.sweep_ms", per_op("project.sweep"), "ms"),
            ("project.sweep_points", t.points as f64 / ops, "count"),
            ("project.sweep_threads", t.mean_threads(), "count"),
            (
                "core.optimize_us",
                probed("core.optimize", p.optimize_ms),
                "us",
            ),
            ("core.cache.hit_ratio", t.hit_ratio(), "ratio"),
            (
                "calibrate.table5_derive_us",
                probed("calibrate.table5_derive", p.table5_derive_ms),
                "us",
            ),
            (
                "project.engine_new_us",
                probed("project.engine_new", engine_self_ms),
                "us",
            ),
            ("bench.render_us", us("bench.render"), "us"),
            ("report.serialize_us", us("report.serialize"), "us"),
            (
                "serve.http.parse_head_us",
                us("serve.http.parse_head"),
                "us",
            ),
            ("serve.service.handle_us", us("serve.service.handle"), "us"),
            (
                "serve.http.write_response_us",
                us("serve.http.write_response"),
                "us",
            ),
            ("serve.accepted", l.serve_accepted, "count"),
            ("serve.shed", l.serve_shed, "count"),
            ("serve.responses_error", l.serve_responses_error, "count"),
            ("serve.server.wait_ms", per_op("serve.server.wait"), "ms"),
            (
                "project.journal.append_us",
                probed("project.journal.append", l.append_ms),
                "us",
            ),
            (
                "project.journal.sync_us",
                probed("project.journal.sync", l.sync_ms),
                "us",
            ),
            (
                "project.journal.replay_us",
                us("project.journal.replay"),
                "us",
            ),
            (
                "project.durability.activate_ms",
                per_op("project.durability"),
                "ms",
            ),
            ("journal.appends", l.journal_appends / ops, "count"),
            ("journal.syncs", l.journal_syncs / ops, "count"),
            ("journal.hits", l.journal_hits / ops, "count"),
            ("journal.hit_ratio", hit_ratio, "ratio"),
            ("unexplained_ms", r.unexplained_ms(), "ms"),
            ("trace.overhead_ms", l.overhead_ms, "ms"),
            ("error_rate", l.error_rate, "ratio"),
        ]);
    }
}

/// What a traced run measured.
#[derive(Debug, Default)]
pub struct Layers {
    pub report: LayerReport,
    pub probes: layers::Probes,
    pub sweeps: layers::SweepTotals,
    /// Deltas over the traced phase, from `served`'s `/metrics`.
    pub serve_accepted: f64,
    pub serve_shed: f64,
    pub serve_responses_error: f64,
    /// Registry counter deltas over the traced phase.
    pub journal_appends: f64,
    pub journal_syncs: f64,
    /// Points the resumed sweeps replayed, and points they were offered.
    pub journal_hits: f64,
    pub journal_offered: f64,
    /// Per-call probes of a journal append and an fsync.
    pub append_ms: f64,
    pub sync_ms: f64,
    /// Traced minus untraced median operation time.
    pub overhead_ms: f64,
    pub error_rate: f64,
}

/// Times `SETUP_REPEATS` set-ups of an in-process workload, each in a
/// fresh process that exits once its first operation verified.
pub fn setup_in_child(args: &Args, checks: &mut Checks) -> Vec<Duration> {
    let exe = std::env::current_exe().expect("the running benchmark has a path");
    (0..SETUP_REPEATS)
        .map(|_| {
            let started = Instant::now();
            let status = Command::new(&exe)
                .args(["--setup-probe", "--workload", args.workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .status();
            let elapsed = started.elapsed();
            checks.add(&match status {
                Ok(s) if s.success() => Ok(()),
                Ok(s) => Err(format!("set-up probe exited with {s}")),
                Err(e) => Err(format!("cannot start set-up probe: {e}")),
            });
            elapsed
        })
        .collect()
}

fn print_result(checks: &Checks, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
}

/// The pinned digest file: every artifact's bytes, and the outcomes of
/// every `explore-durable` pool batch.
fn digest_file() -> Result<String, String> {
    let mut out = String::from(
        "# Output digests (FNV-1a, 64 bit) every benchmark operation is checked against.\n\
         # Regenerate only when an output is meant to change: perfbench --print-digests\n",
    );
    for a in inputs::artifacts() {
        let body = ucore_bench::render::render(&a.target)
            .map_err(|e| e.to_string())?
            .body;
        out.push_str(&format!(
            "artifact {} {}\n",
            a.path,
            inputs::digest(body.as_bytes())
        ));
    }
    let explore = explore::Explore::setup(0)?;
    for pool in 0..inputs::POOL_BATCHES {
        let outcomes = explore.outcomes(pool)?;
        out.push_str(&format!("explore {pool} {outcomes}\n"));
    }
    Ok(out)
}

fn main() -> ExitCode {
    // In-process sweeps run on one thread (set-up probes inherit this).
    // On a 2-vCPU host a two-thread sweep waits for whichever vCPU the
    // host has descheduled, and its latency swings threefold with the
    // host's load; one thread keeps the figures comparable between runs.
    // served is spawned without it and pins its sweeps to one thread
    // itself.
    std::env::set_var("UCORE_SWEEP_THREADS", "1");
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&raw) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match mode {
        Mode::PrintDigests => {
            return match digest_file() {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Mode::SetupProbe(args) => {
            let result = match args.workload {
                Workload::ReproCold => repro::Repro::setup().op().1,
                Workload::ExploreDurable => explore::probe_setup(args.seed),
                Workload::ServeWarm => Err("serve-warm sets up in the parent".into()),
            };
            return if result.is_ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        Mode::Run(args) => {
            eprintln!(
                "perfbench: {} seed {} for {} s, trace {}",
                args.workload.name(),
                args.seed,
                args.seconds,
                args.trace
            );
            match args.workload {
                Workload::ReproCold => repro::run(&args),
                Workload::ServeWarm => serve::run(&args),
                Workload::ExploreDurable => explore::run(&args),
            }
        }
    };
    match outcome {
        Ok((checks, metrics)) => {
            print_result(&checks, &metrics);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
