//! `explore-durable`: one caller sweeping batches of fresh seeded design
//! points through a journaled sweep, then resuming each batch from its
//! journal.

use crate::inputs::{outcomes_digest, pool_index, seed_check, BatchGen, Pinned, Rng};
use crate::layers::{new_engine, Probes};
use crate::measure::{closed_loop, cost, ms, peak_rss_mb, quantile, Cost, OpTrace, Timed, ROOT};
use crate::{setup_in_child, Args, Checks, Layers, Metrics};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ucore_core::EvalCache;
use ucore_project::durability::{self, DurabilityConfig};
use ucore_project::journal::{self, JournalWriter, SYNC_BATCH};
use ucore_project::{
    sweep, Outcome, ProjectionEngine, ReplayReport, Scenario, SweepConfig, SweepPoint, SweepResult,
    SweepStats,
};

/// Sampled points per batch re-derived through the optimizer directly.
const REFERENCE_SAMPLES: usize = 16;

/// Where every phase of one operation ended, measured from its start.
#[derive(Debug, Default)]
struct Marks {
    engine: Duration,
    activate: Duration,
    sweep: Duration,
    deactivate: Duration,
    resume: Duration,
    replayed: Duration,
    done: Duration,
}

struct Batch {
    marks: Marks,
    first: (Vec<SweepResult>, SweepStats),
    second: (Vec<SweepResult>, SweepStats),
    resumed: ReplayReport,
}

pub struct Explore {
    /// Baseline engine for building inputs and reference checks.
    reference: ProjectionEngine,
    seed: u64,
    pinned: Pinned,
    dir: PathBuf,
    journal: PathBuf,
}

impl Explore {
    pub fn setup(seed: u64) -> Result<Explore, String> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".run")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Explore {
            reference: new_engine(),
            seed,
            pinned: Pinned::load(),
            journal: dir.join("journal.jsonl"),
            dir,
        })
    }

    /// The pool batch that is this run's `k`-th batch.
    fn pool(&self, k: u64) -> u64 {
        pool_index(self.seed, k)
    }

    pub fn pool_batch(&self, pool: u64) -> Vec<SweepPoint> {
        BatchGen::new(&self.reference).batch(pool)
    }

    fn config(&self, resume: bool) -> DurabilityConfig {
        DurabilityConfig {
            journal: Some(self.journal.clone()),
            resume,
            ..Default::default()
        }
    }

    /// The timed part of one operation: a journaled sweep on a fresh
    /// engine, then the same batch resumed from the journal.
    fn run_batch(&self, points: Vec<SweepPoint>) -> Result<Batch, String> {
        let again = points.clone();
        let mut marks = Marks::default();
        let started = Instant::now();
        let engine = ProjectionEngine::with_cache(Scenario::baseline(), Arc::new(EvalCache::new()))
            .map_err(|e| e.to_string())?;
        marks.engine = started.elapsed();
        let (guard, _) = durability::activate(self.config(false)).map_err(|e| e.to_string())?;
        marks.activate = started.elapsed();
        let first = sweep(&engine, points, &SweepConfig::default());
        marks.sweep = started.elapsed();
        drop(guard);
        marks.deactivate = started.elapsed();
        let (guard, resumed) =
            durability::activate(self.config(true)).map_err(|e| e.to_string())?;
        marks.resume = started.elapsed();
        let second = sweep(&engine, again, &SweepConfig::default());
        marks.replayed = started.elapsed();
        drop(guard);
        marks.done = started.elapsed();
        Ok(Batch {
            marks,
            first,
            second,
            resumed,
        })
    }

    /// Digest of one pool batch's outcomes, for pinning.
    pub fn outcomes(&self, pool: u64) -> Result<String, String> {
        let batch = self.run_batch(self.pool_batch(pool))?;
        Ok(outcomes_digest(batch.first.0.iter().map(|r| &r.outcome)))
    }

    /// This run's `k`-th operation; making the batch and checking the
    /// outcomes stay outside its cost.
    pub fn op(&self, k: u64) -> (Cost, Result<(), String>) {
        let pool = self.pool(k);
        let points = self.pool_batch(pool);
        let (batch, cost) = cost(|| self.run_batch(points));
        // Keep the sweep engine's append-only phase log from growing
        // with the number of operations.
        drop(sweep::drain_phase_log());
        (cost, batch.and_then(|batch| self.verify(pool, &batch)))
    }

    /// Checks one batch: nothing failed, the resume replayed every point
    /// to the same outcome, sampled points match a direct optimizer
    /// call, and the outcome digest matches its pin.
    fn verify(&self, pool: u64, batch: &Batch) -> Result<(), String> {
        let (first, stats) = &batch.first;
        let (second, resumed) = &batch.second;
        let n = first.len();
        if stats.points_failed > 0 {
            return Err(format!(
                "pool batch {pool}: {} points failed",
                stats.points_failed
            ));
        }
        if resumed.journal_hits != n as u64 || batch.resumed.records != n {
            return Err(format!(
                "pool batch {pool}: resume replayed {} of {n} points from {} records",
                resumed.journal_hits, batch.resumed.records
            ));
        }
        if first
            .iter()
            .zip(second)
            .any(|(a, b)| a.outcome != b.outcome)
        {
            return Err(format!(
                "pool batch {pool}: resumed outcomes differ from the journaled run"
            ));
        }
        let optimizer = self.reference.optimizer();
        let mut rng = Rng::new(self.seed, u64::MAX - pool);
        for _ in 0..REFERENCE_SAMPLES {
            let r = &first[rng.below(n)];
            let p = &r.point;
            let direct = self
                .reference
                .chip_spec(p.design, p.column)
                .and_then(|spec| optimizer.optimize(&spec, &p.budgets, p.f).ok());
            let agrees = match (&direct, &r.outcome) {
                (None, Outcome::Infeasible) => true,
                (Some(best), Outcome::Feasible(np)) => {
                    let e = &best.evaluation;
                    e.speedup.get().to_bits() == np.speedup.to_bits()
                        && e.r.to_bits() == np.r.to_bits()
                        && e.n.to_bits() == np.n.to_bits()
                        && e.limiter == np.limiter
                }
                _ => false,
            };
            if !agrees {
                return Err(format!(
                    "pool batch {pool}: point {} disagrees with the optimizer",
                    r.index
                ));
            }
        }
        let digest = outcomes_digest(first.iter().map(|r| &r.outcome));
        self.pinned.check_explore(pool, &digest)
    }

    /// One traced operation: the same calls, split into layers.
    fn traced_op(&self, k: u64, layers: &mut Layers) -> Result<(), String> {
        let pool = self.pool(k);
        let batch = self.run_batch(self.pool_batch(pool))?;
        drop(sweep::drain_phase_log());
        let replay_started = Instant::now();
        journal::replay(&self.journal).map_err(|e| e.to_string())?;
        let replay = replay_started.elapsed();
        let m = &batch.marks;
        let (_, first) = &batch.first;
        let (_, second) = &batch.second;
        let p = layers.probes;
        let mut trace = OpTrace::new();
        let engine = trace.span(ROOT, "project.engine_new", 1.0, m.engine);
        trace.estimate(engine, "calibrate.table5_derive", 1.0, p.table5_derive_ms);
        trace.span(ROOT, "project.durability", 1.0, m.activate - m.engine);
        let sweep = trace.span(ROOT, "project.sweep", 1.0, m.sweep - m.activate);
        let appends = first.points as f64;
        let syncs = (first.points / SYNC_BATCH) as f64 + 1.0;
        trace.estimate(sweep, "project.journal.append", appends, layers.append_ms);
        trace.estimate(sweep, "project.journal.sync", syncs, layers.sync_ms);
        trace.estimate(
            sweep,
            "core.optimize",
            first.cache_misses as f64,
            p.optimize_ms / first.threads.max(1) as f64,
        );
        let closing = trace.span(ROOT, "project.durability", 1.0, m.deactivate - m.sweep);
        trace.estimate(closing, "project.journal.sync", 1.0, layers.sync_ms);
        let resume = trace.span(ROOT, "project.durability", 1.0, m.resume - m.deactivate);
        trace.estimate(resume, "project.journal.replay", 1.0, ms(replay));
        trace.span(ROOT, "project.sweep", 1.0, m.replayed - m.resume);
        let closing = trace.span(ROOT, "project.durability", 1.0, m.done - m.replayed);
        trace.estimate(closing, "project.journal.sync", 1.0, layers.sync_ms);
        trace.finish(m.done);
        layers.report.add(&trace);
        layers.sweeps.add(first);
        layers.sweeps.add(second);
        layers.journal_hits += second.journal_hits as f64;
        layers.journal_offered += second.points as f64;
        self.verify(pool, &batch)
    }

    /// Prices one journal append and one fsync by re-appending a batch's
    /// records to a scratch journal: the writer fsyncs on every
    /// `SYNC_BATCH`-th append.
    fn journal_probe(&self) -> Result<(f64, f64), String> {
        let (records, _) = journal::read_records(&self.journal).map_err(|e| e.to_string())?;
        let path = self.dir.join("probe.jsonl");
        let mut writer = JournalWriter::create(&path).map_err(|e| e.to_string())?;
        let (mut plain, mut synced) = (Vec::new(), Vec::new());
        for (i, record) in records.iter().cycle().take(4 * records.len()).enumerate() {
            let t = Instant::now();
            writer.append(record).map_err(|e| e.to_string())?;
            let d = ms(t.elapsed());
            if (i + 1) % SYNC_BATCH == 0 {
                synced.push(d)
            } else {
                plain.push(d)
            }
        }
        drop(writer);
        let _ = std::fs::remove_file(&path);
        let append = quantile(&plain, 0.5);
        Ok((append, quantile(&synced, 0.5) - append))
    }
}

impl Drop for Explore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The set-up a fresh process pays: inputs, journal directory, and the
/// first verified batch.
pub fn probe_setup(seed: u64) -> Result<(), String> {
    Explore::setup(seed)?.op(0).1
}

pub fn run(args: &Args) -> Result<(Checks, Metrics), String> {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let setups = if args.trace {
        Vec::new()
    } else {
        setup_in_child(args, &mut checks)
    };
    let explore = Explore::setup(args.seed)?;
    checks.add(&seed_check(&explore.reference, args.seed));
    checks.add(&explore.op(0).1);
    // The one caller's state is the index of its next batch.
    let run = |budget, next: u64| -> (Timed, u64) {
        let (timed, next) = closed_loop(budget, vec![next], None, |next| {
            *next += 1;
            explore.op(*next - 1)
        });
        (timed, next[0])
    };
    if !args.trace {
        let (timed, _) = run(Duration::from_secs_f64(args.seconds), 1);
        checks.absorb(&timed);
        metrics.end_to_end(&setups, &timed, peak_rss_mb(None));
        return Ok((checks, metrics));
    }
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let (plain, mut next) = run(half, 1);
    checks.absorb(&plain);
    let (append_ms, sync_ms) = explore.journal_probe()?;
    let mut layers = Layers {
        probes: Probes::measure(&explore.pool_batch(explore.pool(0))),
        append_ms,
        sync_ms,
        ..Layers::default()
    };
    let registry = ucore_obs::registry();
    let counters = || {
        let s = registry.snapshot();
        [
            s.counter("journal.appends") as f64,
            s.counter("journal.syncs") as f64,
        ]
    };
    let before = counters();
    let started = Instant::now();
    while started.elapsed() < half {
        checks.add(&explore.traced_op(next, &mut layers));
        next += 1;
    }
    let after = counters();
    layers.journal_appends = after[0] - before[0];
    layers.journal_syncs = after[1] - before[1];
    layers.overhead_ms = layers.report.p50_ms() - plain.p50();
    layers.error_rate = checks.failed as f64 / checks.attempted as f64;
    eprintln!(
        "perfbench: {} traced operations\n{}",
        layers.report.ops(),
        layers.report.table()
    );
    metrics.layers(&layers);
    Ok((checks, metrics))
}
