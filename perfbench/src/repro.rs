//! `repro-cold`: one caller reproducing every artifact from a cleared
//! evaluation cache, in process.

use crate::inputs::{artifacts, Artifact, Pinned};
use crate::layers::{figure_grid_points, traced_render, Probes};
use crate::measure::{closed_loop, cost, peak_rss_mb, Cost, OpTrace, ROOT};
use crate::{setup_in_child, Args, Checks, Layers, Metrics};
use std::time::{Duration, Instant};
use ucore_bench::render::render;
use ucore_core::EvalCache;
use ucore_project::sweep::drain_phase_log;

pub struct Repro {
    artifacts: Vec<Artifact>,
    pinned: Pinned,
}

impl Repro {
    pub fn setup() -> Repro {
        Repro {
            artifacts: artifacts(),
            pinned: Pinned::load(),
        }
    }

    /// One operation: clear the cache and render all 34 artifacts. Each
    /// body is checked against its pinned digest as soon as it is
    /// rendered, with the clock stopped, so the operation's cost is the
    /// program's alone.
    pub fn op(&self) -> (Cost, Result<(), String>) {
        let (_, mut total) = cost(|| EvalCache::global().clear());
        let mut result = Ok(());
        for a in &self.artifacts {
            let (body, c) = cost(|| render(&a.target));
            total.wall += c.wall;
            total.cpu_ms += c.cpu_ms;
            let checked = body
                .map_err(|e| format!("{}: {e}", a.path))
                .and_then(|r| self.pinned.check_artifact(&a.path, r.body.as_bytes()));
            result = result.and(checked);
        }
        // The sweep engine logs every sweep for `repro --stats` and never
        // forgets one; left alone, the log would grow with the number of
        // operations and so with the program's speed.
        drop(drain_phase_log());
        (total, result)
    }

    fn traced_op(&self, layers: &mut Layers) -> Result<(), String> {
        let mut trace = OpTrace::new();
        let started = Instant::now();
        EvalCache::global().clear();
        let bodies: Vec<Result<String, String>> = self
            .artifacts
            .iter()
            .map(|a| {
                traced_render(
                    &a.target,
                    &mut trace,
                    ROOT,
                    &layers.probes,
                    &mut layers.sweeps,
                )
            })
            .collect();
        trace.finish(started.elapsed());
        layers.report.add(&trace);
        self.verify(&bodies)
    }

    fn verify(&self, bodies: &[Result<String, String>]) -> Result<(), String> {
        for (a, body) in self.artifacts.iter().zip(bodies) {
            let body = body.as_ref().map_err(|e| format!("{}: {e}", a.path))?;
            self.pinned.check_artifact(&a.path, body.as_bytes())?;
        }
        Ok(())
    }
}

pub fn run(args: &Args) -> Result<(Checks, Metrics), String> {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let setups = if args.trace {
        Vec::new()
    } else {
        setup_in_child(args, &mut checks)
    };
    let repro = Repro::setup();
    // Lazy process state fills on the first operation, which is not
    // timed.
    checks.add(&repro.op().1);
    let run = |budget| closed_loop(budget, vec![()], None, |_| repro.op()).0;
    if !args.trace {
        let timed = run(Duration::from_secs_f64(args.seconds));
        checks.absorb(&timed);
        metrics.end_to_end(&setups, &timed, peak_rss_mb(None));
        return Ok((checks, metrics));
    }
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let plain = run(half);
    checks.absorb(&plain);
    let mut layers = Layers {
        probes: Probes::measure(&figure_grid_points()),
        ..Layers::default()
    };
    let started = Instant::now();
    while started.elapsed() < half {
        checks.add(&repro.traced_op(&mut layers));
    }
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
