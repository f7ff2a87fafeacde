//! Calls into the layers, wrapped from the outside: the decomposed
//! render path shared by the traced `repro-cold` and `serve-warm` runs,
//! and the per-call probes that price calls the benchmark cannot wrap.

use crate::measure::{probe_ms, OpTrace};
use std::time::Instant;
use ucore_bench::{render, Target};
use ucore_calibrate::{Table5, WorkloadColumn};
use ucore_project::{sweep, DesignId, ProjectionEngine, Scenario, SweepPoint, SweepStats};

/// Per-call times (ms) of layer functions that only run inside other
/// layers' public functions, measured on the workload's own inputs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Probes {
    pub table5_derive_ms: f64,
    pub engine_new_ms: f64,
    pub optimize_ms: f64,
}

impl Probes {
    /// Prices Table 5 derivation, engine construction, and one uncached
    /// optimization over `points`.
    pub fn measure(points: &[SweepPoint]) -> Probes {
        let table5_derive_ms = probe_ms(31, || {
            std::hint::black_box(Table5::derive().expect("the shipped lab derives Table 5"));
        });
        let engine_new_ms = probe_ms(31, || {
            std::hint::black_box(new_engine());
        });
        let engine = new_engine();
        let optimizer = engine.optimizer();
        let samples: Vec<f64> = points
            .iter()
            .filter_map(|p| engine.chip_spec(p.design, p.column).map(|spec| (p, spec)))
            .map(|(p, spec)| {
                let t = Instant::now();
                let _ = std::hint::black_box(optimizer.optimize(&spec, &p.budgets, p.f));
                crate::measure::ms(t.elapsed())
            })
            .collect();
        Probes {
            table5_derive_ms,
            engine_new_ms,
            optimize_ms: crate::measure::quantile(&samples, 0.5),
        }
    }
}

pub fn new_engine() -> ProjectionEngine {
    ProjectionEngine::new(Scenario::baseline()).expect("the baseline scenario builds")
}

/// The grids of the projection figures: the inputs `repro-cold`'s
/// optimizer calls see.
pub fn figure_grid_points() -> Vec<SweepPoint> {
    let engine = new_engine();
    [
        WorkloadColumn::Fft1024,
        WorkloadColumn::Mmm,
        WorkloadColumn::Bs,
    ]
    .into_iter()
    .flat_map(|column| {
        let designs = DesignId::for_column(engine.table5(), column);
        sweep::figure_points(&engine, &designs, column, &[0.5, 0.9, 0.99, 0.999])
            .expect("figure grids build")
    })
    .collect()
}

/// Sweep counters over a traced phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct SweepTotals {
    pub sweeps: u64,
    pub points: u64,
    pub threads: u64,
    pub hits: u64,
    pub misses: u64,
}

impl SweepTotals {
    pub fn add(&mut self, s: &SweepStats) {
        self.sweeps += 1;
        self.points += s.points as u64;
        self.threads += s.threads as u64;
        self.hits += s.cache_hits;
        self.misses += s.cache_misses;
    }

    pub fn hit_ratio(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    pub fn mean_threads(&self) -> f64 {
        self.threads as f64 / self.sweeps.max(1) as f64
    }
}

/// Renders one target the way `render::render` does, with a span around
/// each layer: the render itself, the serializer for JSON and CSV, the
/// sweeps it ran (from the sweep engine's phase log) with the optimizer
/// calls inside them, and the engines it built.
pub fn traced_render(
    target: &Target,
    trace: &mut OpTrace,
    parent: usize,
    probes: &Probes,
    totals: &mut SweepTotals,
) -> Result<String, String> {
    let _ = sweep::drain_phase_log();
    let started = Instant::now();
    let mut serialize = None;
    let body = match target {
        Target::Json(which) | Target::Csv(which) => {
            let fig = render::projection(which).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let text = match target {
                Target::Json(_) => serde_json::to_string_pretty(&fig).map_err(|e| e.to_string())?,
                _ => ucore_bench::figures::figure_csv(&fig),
            };
            serialize = Some(t.elapsed());
            format!("{text}\n")
        }
        _ => render::render(target).map_err(|e| e.to_string())?.body,
    };
    let span = trace.span(parent, "bench.render", 1.0, started.elapsed());
    if let Some(d) = serialize {
        trace.span(span, "report.serialize", 1.0, d);
    }
    let sweeps = sweep::drain_phase_log();
    for s in &sweeps {
        let sw = trace.span(span, "project.sweep", 1.0, s.wall);
        trace.estimate(
            sw,
            "core.optimize",
            s.cache_misses as f64,
            probes.optimize_ms / s.threads.max(1) as f64,
        );
        totals.add(s);
    }
    // Every projection builds one engine per sweep, and every engine
    // derives Table 5; the Table 5 artifact derives it once more.
    let engines = sweeps.len() as f64;
    let engine_span = trace.estimate(span, "project.engine_new", engines, probes.engine_new_ms);
    trace.estimate(
        engine_span,
        "calibrate.table5_derive",
        engines,
        probes.table5_derive_ms,
    );
    if *target == Target::Table("5".into()) {
        trace.estimate(
            span,
            "calibrate.table5_derive",
            1.0,
            probes.table5_derive_ms,
        );
    }
    Ok(body)
}
