//! The bench registry and bench-trajectory snapshots.
//!
//! [`each_bench`] is the one place a bench is declared: it hands every
//! `(id, closure)` of a topic to its caller in a fixed order. [`measure`]
//! is the one timing protocol; `cargo bench` (`benches/all.rs`) and
//! `repro --bench-snapshot` both time the registry through it, so their
//! numbers are directly comparable.
//!
//! A snapshot is a deliberately *small* reduction of a bench run: one
//! `(id, median_ns)` pair per benchmark, in registry order, under a
//! schema version. Everything except the timing fields (`median_ns`,
//! `iters`, `samples`) is deterministic: capturing the same topic twice
//! yields the same ids in the same order with the same units.
//!
//! The comparator ([`compare`]) is asymmetric by design: a current
//! median more than `tolerance`× **slower** than baseline is a breach;
//! being faster never is. The committed `BENCH_<topic>.json` files at
//! the repo root form the recorded trajectory; CI re-measures and
//! compares against them (warn at a tight tolerance, fail at a loose
//! one) so raw-speed regressions are caught while machine noise is not.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ucore_calibrate::{Table5, WorkloadColumn};
use ucore_core::{
    BoundSet, Budgets, ChipSpec, EvalCache, Optimizer, ParallelFraction, PollackLaw,
    SerialPowerLaw, UCore,
};
use ucore_devices::{Catalog, DeviceId};
use ucore_itrs::{Roadmap, Trend, TrendSeries};
use ucore_project::figures;
use ucore_project::sweep::{figure_points, sweep, SweepConfig};
use ucore_project::{DesignId, ProjectionEngine, Scenario};
use ucore_simdev::{counters, PowerModel, SimLab};
use ucore_workloads::blackscholes::batch;
use ucore_workloads::fft::{Direction, Fft};
use ucore_workloads::gen::{random_matrix, random_portfolio, random_signal};
use ucore_workloads::mmm::{blocked, naive};
use ucore_workloads::{Workload, WorkloadKind};

use crate::tables;

/// Version of the snapshot JSON schema. Bump on any change to the
/// serialized shape; the comparator refuses to compare across versions.
pub const SCHEMA_VERSION: u32 = 1;

/// Default per-benchmark wall-clock budget.
pub const DEFAULT_BUDGET_MS: u64 = 200;

/// Environment variable overriding the per-benchmark budget (in ms).
pub const BUDGET_ENV: &str = "UCORE_BENCH_BUDGET_MS";

/// Default slowdown tolerance of the comparator: a current median more
/// than this many times the baseline median is a regression.
pub const DEFAULT_TOLERANCE: f64 = 2.0;

/// The snapshot topics `repro --bench-snapshot` knows, in render order.
/// Each has a committed `BENCH_<topic>.json`.
pub const TOPICS: [&str; 2] = ["kernels", "sweep"];

/// Every topic the registry knows, in run order. Only [`TOPICS`] have
/// committed snapshots; `paper` is timed by `cargo bench` alone.
pub const REGISTRY_TOPICS: [&str; 3] = ["kernels", "sweep", "paper"];

/// The repo-root file name recording a topic's snapshot.
pub fn file_name(topic: &str) -> String {
    format!("BENCH_{topic}.json")
}

/// The per-benchmark budget: [`BUDGET_ENV`] in milliseconds when set and
/// parseable, [`DEFAULT_BUDGET_MS`] otherwise.
pub fn budget_from_env() -> Duration {
    let ms = std::env::var(BUDGET_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(DEFAULT_BUDGET_MS);
    Duration::from_millis(ms)
}

/// One measured benchmark. Field order is the JSON key order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Stable benchmark id, mirroring the `cargo bench` label.
    pub id: String,
    /// Median seconds-per-iteration, in nanoseconds.
    pub median_ns: f64,
    /// Iterations per sample after calibration.
    pub iters: u64,
    /// Samples taken within the budget.
    pub samples: u32,
}

/// A reduced bench run. Field order is the JSON key order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSnapshot {
    /// The schema version that wrote this snapshot.
    pub schema_version: u32,
    /// Which bench suite this reduces (`kernels` or `sweep`).
    pub topic: String,
    /// Unit of the `median_ns` fields; always `"ns"` at version 1.
    pub time_unit: String,
    /// The measurements, in fixed bench order.
    pub entries: Vec<BenchEntry>,
}

impl BenchSnapshot {
    /// Serializes with stable key order (struct declaration order) and a
    /// trailing newline, ready for `atomic_write`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Parse`] if serialization fails (it does
    /// not with the shipped field types).
    pub fn to_json(&self) -> Result<String, SnapshotError> {
        let mut out = serde_json::to_string_pretty(self)
            .map_err(|e| SnapshotError::Parse(e.to_string()))?;
        out.push('\n');
        Ok(out)
    }

    /// Parses a snapshot previously written by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Parse`] on malformed JSON.
    pub fn from_slice(bytes: &[u8]) -> Result<Self, SnapshotError> {
        serde_json::from_slice(bytes).map_err(|e| SnapshotError::Parse(e.to_string()))
    }
}

/// Why a snapshot could not be captured or compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The two snapshots were written by different schema versions.
    SchemaVersion {
        /// Version of the baseline file.
        baseline: u32,
        /// Version of the current file.
        current: u32,
    },
    /// The two snapshots reduce different bench suites.
    TopicMismatch {
        /// Topic of the baseline file.
        baseline: String,
        /// Topic of the current file.
        current: String,
    },
    /// An unknown topic was requested.
    UnknownTopic(String),
    /// Constructing a bench workload failed (impossible with shipped data).
    Setup(String),
    /// A snapshot file failed to parse.
    Parse(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::SchemaVersion { baseline, current } => write!(
                f,
                "snapshot schema mismatch: baseline v{baseline} vs current v{current}"
            ),
            SnapshotError::TopicMismatch { baseline, current } => write!(
                f,
                "snapshot topic mismatch: baseline '{baseline}' vs current '{current}'"
            ),
            SnapshotError::UnknownTopic(t) => {
                write!(f, "unknown bench topic '{t}' (expected kernels|sweep|all)")
            }
            SnapshotError::Setup(msg) => write!(f, "bench setup failed: {msg}"),
            SnapshotError::Parse(msg) => write!(f, "snapshot parse failed: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One comparator finding for one benchmark id.
#[derive(Debug, Clone, PartialEq)]
pub struct Breach {
    /// The benchmark id the finding is about.
    pub id: String,
    /// What went wrong.
    pub kind: BreachKind,
}

/// The kinds of comparator findings.
#[derive(Debug, Clone, PartialEq)]
pub enum BreachKind {
    /// Current median exceeds `tolerance` times the baseline median.
    Slower {
        /// Baseline median in nanoseconds.
        baseline_ns: f64,
        /// Current median in nanoseconds.
        current_ns: f64,
        /// `current_ns / baseline_ns`.
        ratio: f64,
        /// The tolerance that was exceeded.
        tolerance: f64,
    },
    /// The baseline has this id but the current snapshot does not.
    MissingInCurrent,
    /// The current snapshot has an id the baseline does not know.
    MissingInBaseline,
}

impl fmt::Display for Breach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            BreachKind::Slower { baseline_ns, current_ns, ratio, tolerance } => write!(
                f,
                "bench regression: {}: {current_ns:.0} ns vs baseline {baseline_ns:.0} ns \
                 (x{ratio:.2} > x{tolerance:.2})",
                self.id
            ),
            BreachKind::MissingInCurrent => {
                write!(f, "bench missing: {} is in the baseline but was not measured", self.id)
            }
            BreachKind::MissingInBaseline => {
                write!(f, "bench unknown: {} was measured but the baseline lacks it", self.id)
            }
        }
    }
}

/// Compares `current` against `baseline` under a slowdown `tolerance`.
///
/// Returns every finding, in baseline order followed by
/// baseline-unknown ids in current order. An empty vector means the
/// trajectory holds. Being *faster* than baseline is never a breach.
///
/// # Errors
///
/// Refuses mismatched schema versions or topics — those comparisons
/// would be meaningless, not merely failing.
pub fn compare(
    baseline: &BenchSnapshot,
    current: &BenchSnapshot,
    tolerance: f64,
) -> Result<Vec<Breach>, SnapshotError> {
    if baseline.schema_version != current.schema_version {
        return Err(SnapshotError::SchemaVersion {
            baseline: baseline.schema_version,
            current: current.schema_version,
        });
    }
    if baseline.topic != current.topic {
        return Err(SnapshotError::TopicMismatch {
            baseline: baseline.topic.clone(),
            current: current.topic.clone(),
        });
    }
    let mut breaches = Vec::new();
    for base in &baseline.entries {
        let Some(cur) = current.entries.iter().find(|e| e.id == base.id) else {
            breaches.push(Breach { id: base.id.clone(), kind: BreachKind::MissingInCurrent });
            continue;
        };
        let ratio = cur.median_ns / base.median_ns;
        if ratio > tolerance {
            breaches.push(Breach {
                id: base.id.clone(),
                kind: BreachKind::Slower {
                    baseline_ns: base.median_ns,
                    current_ns: cur.median_ns,
                    ratio,
                    tolerance,
                },
            });
        }
    }
    for cur in &current.entries {
        if !baseline.entries.iter().any(|e| e.id == cur.id) {
            breaches.push(Breach { id: cur.id.clone(), kind: BreachKind::MissingInBaseline });
        }
    }
    Ok(breaches)
}

/// Captures the snapshot for `topic`: every bench [`each_bench`]
/// registers under it, timed by [`measure`] in registry order.
///
/// # Errors
///
/// [`SnapshotError::UnknownTopic`] for topics the registry lacks;
/// [`SnapshotError::Setup`] if a bench workload cannot be constructed
/// (impossible with the shipped calibration data).
pub fn capture(topic: &str, budget: Duration) -> Result<BenchSnapshot, SnapshotError> {
    let mut entries = Vec::new();
    each_bench(topic, &mut |id, f| entries.push(measure(id, budget, f)))?;
    Ok(BenchSnapshot {
        schema_version: SCHEMA_VERSION,
        topic: topic.to_string(),
        time_unit: "ns".to_string(),
        entries,
    })
}

/// Measures one closure: calibrate the iteration count up by 4x until
/// a sample takes ≥ 5 ms (or 2^20 iterations), then sample within the
/// budget and keep the median.
pub fn measure<F: FnMut()>(id: &str, budget: Duration, mut f: F) -> BenchEntry {
    let mut iters: u64 = 1;
    let per_iter = loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(5) || iters >= 1 << 20 {
            break elapsed.as_secs_f64() / iters as f64;
        }
        iters *= 4;
    };
    let samples = ((budget.as_secs_f64() / (per_iter * iters as f64).max(1e-9)) as usize)
        .clamp(3, 25);
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    BenchEntry {
        id: id.to_string(),
        median_ns: times[times.len() / 2] * 1e9,
        iters,
        samples: samples as u32,
    }
}

fn setup<T, E: fmt::Display>(what: &str, r: Result<T, E>) -> Result<T, SnapshotError> {
    r.map_err(|e| SnapshotError::Setup(format!("{what}: {e}")))
}

/// The visitor [`each_bench`] feeds: a bench id and one iteration of
/// its measured work.
pub type Visitor<'a> = dyn FnMut(&str, &mut dyn FnMut()) + 'a;

/// The bench registry: hands every bench of `topic` (see
/// [`REGISTRY_TOPICS`]) to `visit` as `(id, closure)`, in a fixed order.
/// Each closure runs one iteration of the measured work; its inputs are
/// built before `visit` sees it.
///
/// # Errors
///
/// [`SnapshotError::UnknownTopic`] for other topic strings;
/// [`SnapshotError::Setup`] if a bench workload cannot be constructed.
pub fn each_bench(topic: &str, visit: &mut Visitor<'_>) -> Result<(), SnapshotError> {
    match topic {
        "kernels" => kernel_benches(visit),
        "sweep" => sweep_benches(visit),
        "paper" => paper_benches(visit),
        other => Err(SnapshotError::UnknownTopic(other.to_string())),
    }
}

/// The `kernels` topic: the real MMM / FFT / Black-Scholes kernels the
/// reproduction ships instead of MKL / CUFFT / PARSEC.
fn kernel_benches(visit: &mut Visitor<'_>) -> Result<(), SnapshotError> {
    for n in [64usize, 128] {
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, n, 2);
        visit(&format!("kernels/mmm/naive/{n}"), &mut || {
            if let Ok(c) = naive::multiply(&a, &b) {
                black_box(c);
            }
        });
        visit(&format!("kernels/mmm/blocked/{n}"), &mut || {
            if let Ok(c) = blocked::multiply(&a, &b, 32) {
                black_box(c);
            }
        });
    }

    for log2 in [8u32, 12] {
        let n = 1usize << log2;
        let plan = setup("fft plan", Fft::new(n))?;
        let signal = random_signal(n, 3);
        let mut buf = signal.clone();
        visit(&format!("kernels/fft/{n}"), &mut || {
            buf.copy_from_slice(&signal);
            if plan.transform(&mut buf, Direction::Forward).is_ok() {
                black_box(buf[0]);
            }
        });
    }

    let portfolio = random_portfolio(4096, 5);
    visit("kernels/black_scholes/serial", &mut || {
        black_box(batch::price_all(&portfolio));
    });
    Ok(())
}

/// The `sweep` topic: one Figure 6-sized batch (4 parallel fractions ×
/// 6 designs × 5 nodes) evaluated uncached and against a pre-warmed
/// cache, plus the optimizer and portfolio
/// allocator search strategies head to head.
fn sweep_benches(visit: &mut Visitor<'_>) -> Result<(), SnapshotError> {
    // A private cache isolates the benches from the process-global one.
    let engine = setup(
        "baseline engine",
        ProjectionEngine::with_cache(Scenario::baseline(), Arc::new(EvalCache::new())),
    )?;
    let designs = DesignId::for_column(engine.table5(), WorkloadColumn::Fft1024);
    let points = setup(
        "figure batch",
        figure_points(&engine, &designs, WorkloadColumn::Fft1024, &[0.5, 0.9, 0.99, 0.999]),
    )?;

    let uncached = SweepConfig { use_cache: false };
    visit("sweep/sequential", &mut || {
        black_box(sweep(&engine, points.clone(), &uncached));
    });
    let cached = SweepConfig::default();
    // Warm the memo table so the measured iterations hit it.
    sweep(&engine, points.clone(), &cached);
    visit("sweep/cached", &mut || {
        black_box(sweep(&engine, points.clone(), &cached));
    });

    // Optimizer search strategies on a paper-sized heterogeneous grid.
    let opt = Optimizer::paper_default();
    let asic = setup("u-core", UCore::new(27.4, 0.79))?;
    let specs = [
        ChipSpec::symmetric(),
        ChipSpec::asymmetric_offload(),
        ChipSpec::heterogeneous(asic),
    ];
    let budgets = setup("budgets", Budgets::new(40.0, 12.0, 6.4))?;
    let fractions: Vec<ParallelFraction> = [0.5, 0.9, 0.99, 0.999]
        .iter()
        .map(|&v| setup("fraction", ParallelFraction::new(v)))
        .collect::<Result<_, _>>()?;
    visit("optimize/exhaustive", &mut || {
        for spec in &specs {
            for &f in &fractions {
                black_box(opt.optimize_exhaustive(spec, &budgets, f).ok());
            }
        }
    });
    visit("optimize/pruned", &mut || {
        for spec in &specs {
            for &f in &fractions {
                black_box(opt.optimize(spec, &budgets, f).ok());
            }
        }
    });

    // Portfolio allocation strategies on the composite three-kernel
    // workload: the closed-form KKT waterfiller against the exhaustive
    // grid oracle it is differentially tested against.
    let table5 = setup("table 5", Table5::derive())?;
    let chip = {
        let f = setup("fraction", ParallelFraction::new(0.99))?;
        let workload = setup(
            "composite workload",
            ucore_calibrate::composite_workload(&table5, DeviceId::Asic, f),
        )?;
        setup("portfolio chip", ucore_core::PortfolioChip::new(40.0, 4.0, workload))?
    };
    visit("portfolio/allocate", &mut || {
        black_box(chip.allocate().ok());
    });
    visit("portfolio/exhaustive", &mut || {
        black_box(chip.allocate_exhaustive(64).ok());
    });
    Ok(())
}

/// The `paper` topic: one bench per table and figure of the paper, the
/// real FFT kernel behind Figure 2, and the DESIGN.md §7 ablations.
fn paper_benches(visit: &mut Visitor<'_>) -> Result<(), SnapshotError> {
    // Table 1: bound computation and limiter classification swept
    // across sequential-core sizes, then the rendered table.
    let budgets = setup("table 1 budgets", Budgets::new(298.0, 34.9, 475.0))?;
    let specs = [
        ChipSpec::symmetric(),
        ChipSpec::asymmetric_offload(),
        ChipSpec::heterogeneous(setup("u-core", UCore::new(27.4, 0.79))?),
    ];
    visit("table1/bound_sweep", &mut || {
        let mut acc = 0.0;
        for spec in &specs {
            for r in 1..=16 {
                if let Ok(bounds) = BoundSet::compute(spec, &budgets, f64::from(r)) {
                    acc += bounds.n_max();
                }
            }
        }
        black_box(acc);
    });
    visit("table1/render", &mut || {
        black_box(tables::table1().ok());
    });

    // Table 2: catalog construction and area normalization.
    visit("table2/catalog_build", &mut || {
        black_box(Catalog::paper());
    });
    let catalog = Catalog::paper();
    visit("table2/area_normalization", &mut || {
        let mut acc = 0.0;
        for id in DeviceId::ALL {
            if let Ok(area) = catalog.normalized_core_area(id) {
                acc += area;
            }
        }
        black_box(acc);
    });

    // Table 3: workload characterization (FLOP counts, intensities).
    visit("table3/characterize_all", &mut || {
        let mut acc = 0.0;
        for log2 in 4..=20 {
            if let Ok(fft) = Workload::fft(1usize << log2) {
                acc += fft.arithmetic_intensity() + fft.flops_per_unit();
            }
        }
        for n in [64usize, 128, 512, 2048] {
            if let Ok(mmm) = Workload::mmm(n) {
                acc += mmm.bytes_per_flop();
            }
        }
        acc += Workload::black_scholes().compulsory_bytes_per_unit();
        black_box(acc);
    });

    // Table 4: the simulated lab's MMM and Black-Scholes measurements.
    let lab = SimLab::paper();
    visit("table4/measure_mmm_and_bs", &mut || {
        let mmm = lab.table4(WorkloadKind::Mmm);
        let bs = lab.table4(WorkloadKind::BlackScholes);
        black_box((mmm.len(), bs.len()));
    });

    // Table 5: the full calibration pipeline.
    visit("table5/full_derivation", &mut || {
        black_box(Table5::derive().ok());
    });

    // Table 6: roadmap construction and the scenario derivations.
    visit("table6/roadmap_and_scenarios", &mut || {
        let base = Roadmap::itrs_2009();
        let variants = [
            base.with_bandwidth_gb_s(90.0),
            base.with_bandwidth_gb_s(1000.0),
            base.with_core_area_mm2(216.0),
            base.with_power_budget_w(200.0),
            base.with_power_budget_w(10.0),
        ];
        black_box(variants.iter().map(|r| r.nodes().len()).sum::<usize>());
    });

    // Figure 2: the simulated-lab FFT sweep and the real FFT kernel.
    visit("fig2/lab_sweep_all_devices", &mut || {
        let mut points = 0usize;
        for device in DeviceId::ALL {
            points += lab.fft_sweep(device).len();
        }
        black_box(points);
    });
    for log2 in [6u32, 10, 14] {
        let n = 1usize << log2;
        let plan = setup("fft plan", Fft::new(n))?;
        let signal = random_signal(n, 1);
        let mut buf = signal.clone();
        visit(&format!("fig2/real_fft_kernel/{n}"), &mut || {
            buf.copy_from_slice(&signal);
            if plan.transform(&mut buf, Direction::Forward).is_ok() {
                black_box(buf[0]);
            }
        });
    }

    // Figure 3: power breakdowns and the uncore subtraction.
    visit("fig3/breakdown_sweep", &mut || {
        let mut acc = 0.0;
        for device in DeviceId::ALL {
            for m in lab.fft_sweep(device) {
                acc += m.breakdown.total();
            }
        }
        black_box(acc);
    });
    let model = PowerModel::for_device(DeviceId::Gtx285);
    visit("fig3/uncore_subtraction", &mut || {
        let mut acc = 0.0;
        for traffic in 0..200 {
            let breakdown = model.breakdown(66.8, f64::from(traffic));
            acc += model.subtract_uncore(breakdown.total(), f64::from(traffic));
        }
        black_box(acc);
    });

    // Figure 4: the bandwidth-counter sweep.
    visit("fig4/bandwidth_counter_sweep", &mut || {
        black_box(counters::fft_bandwidth_sweep(DeviceId::Gtx285, true).len());
    });

    // Figure 5: ITRS trend-series construction and interpolation.
    visit("fig5/trend_series", &mut || {
        let mut acc = 0.0;
        for trend in Trend::ALL {
            let series = TrendSeries::itrs_2009(trend);
            for year in 2011..=2022 {
                acc += series.at(year).unwrap_or(0.0);
            }
        }
        black_box(acc);
    });

    // Figures 6-10: the full projections through the sweep engine.
    let projections = [
        ("fig6/fft1024_projection", figures::figure6 as fn() -> _),
        ("fig7/mmm_projection", figures::figure7),
        ("fig8/bs_projection", figures::figure8),
        ("fig9/terabyte_projection", figures::figure9),
        ("fig10/energy_projection", figures::figure10),
    ];
    for (id, project) in projections {
        visit(id, &mut || {
            black_box(project().ok());
        });
    }

    // Ablations (DESIGN.md §7) at one design point: the ASIC FFT u-core
    // at 22 nm budgets. The orderings they show are pinned by
    // `ablation_orderings_hold` in ucore-core's property tests.
    let asic_fft = setup("ablation u-core", UCore::new(489.0, 4.96))?;
    let spec = |alpha: f64, pollack: f64| -> Result<ChipSpec, SnapshotError> {
        Ok(ChipSpec::heterogeneous(asic_fft)
            .with_power_law(setup("serial power law", SerialPowerLaw::new(alpha))?)
            .with_law(setup("pollack law", PollackLaw::new(pollack))?))
    };
    let budgets = setup("ablation budgets", Budgets::new(75.0, 17.5, 59.0))?;
    let fraction = |v: f64| setup("fraction", ParallelFraction::new(v));
    let (f50, f90, f99) = (fraction(0.5)?, fraction(0.9)?, fraction(0.99)?);
    let speedup = |opt: &Optimizer, spec: &ChipSpec, f: ParallelFraction| {
        opt.optimize(spec, &budgets, f).map_or(0.0, |best| best.evaluation.speedup.get())
    };
    let paper_opt = Optimizer::paper_default();
    let base = spec(1.75, 0.5)?;
    let harsh = spec(2.25, 0.5)?;
    visit("ablation/alpha", &mut || {
        black_box((speedup(&paper_opt, &base, f90), speedup(&paper_opt, &harsh, f90)));
    });
    let uncapped = setup("r sweep", Optimizer::new(1.0, 64.0, 1.0))?;
    visit("ablation/r_max", &mut || {
        black_box((speedup(&paper_opt, &base, f50), speedup(&uncapped, &base, f50)));
    });
    let coarse = setup("r sweep", Optimizer::new(1.0, 16.0, 1.0))?;
    let fine = setup("r sweep", Optimizer::new(1.0, 16.0, 0.125))?;
    visit("ablation/r_granularity", &mut || {
        black_box((speedup(&coarse, &base, f90), speedup(&fine, &base, f90)));
    });
    let pollack = [spec(1.75, 0.4)?, base, spec(1.75, 0.6)?];
    visit("ablation/pollack_exponent", &mut || {
        black_box(pollack.iter().map(|s| speedup(&paper_opt, s, f90)).sum::<f64>());
    });
    let bandwidth = [1.0, 0.75, 0.5].map(|e| base.with_bandwidth_exponent(e));
    visit("ablation/bw_scaling", &mut || {
        black_box(bandwidth.iter().map(|s| speedup(&paper_opt, s, f99)).sum::<f64>());
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(topic: &str, entries: &[(&str, f64)]) -> BenchSnapshot {
        BenchSnapshot {
            schema_version: SCHEMA_VERSION,
            topic: topic.to_string(),
            time_unit: "ns".to_string(),
            entries: entries
                .iter()
                .map(|(id, ns)| BenchEntry {
                    id: id.to_string(),
                    median_ns: *ns,
                    iters: 16,
                    samples: 5,
                })
                .collect(),
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let s = snap("kernels", &[("a", 10.0), ("b", 20.5)]);
        let json = s.to_json().unwrap();
        assert_eq!(BenchSnapshot::from_slice(json.as_bytes()).unwrap(), s);
    }

    #[test]
    fn json_key_order_is_declaration_order() {
        let json = snap("kernels", &[("a", 10.0)]).to_json().unwrap();
        let schema = json.find("schema_version").unwrap();
        let topic = json.find("\"topic\"").unwrap();
        let unit = json.find("time_unit").unwrap();
        let entries = json.find("\"entries\"").unwrap();
        let id = json.find("\"id\"").unwrap();
        let median = json.find("median_ns").unwrap();
        let iters = json.find("\"iters\"").unwrap();
        let samples = json.find("\"samples\"").unwrap();
        assert!(schema < topic && topic < unit && unit < entries);
        assert!(entries < id && id < median && median < iters && iters < samples);
        assert!(json.ends_with('\n'));
    }

    #[test]
    fn comparator_passes_within_tolerance_and_when_faster() {
        let base = snap("kernels", &[("a", 100.0), ("b", 100.0)]);
        let cur = snap("kernels", &[("a", 150.0), ("b", 10.0)]);
        assert_eq!(compare(&base, &cur, 2.0).unwrap(), vec![]);
    }

    #[test]
    fn comparator_flags_slowdowns_past_tolerance() {
        let base = snap("kernels", &[("a", 100.0), ("b", 100.0)]);
        let cur = snap("kernels", &[("a", 250.0), ("b", 100.0)]);
        let breaches = compare(&base, &cur, 2.0).unwrap();
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].id, "a");
        match &breaches[0].kind {
            BreachKind::Slower { ratio, tolerance, .. } => {
                assert!((ratio - 2.5).abs() < 1e-12);
                assert!((tolerance - 2.0).abs() < 1e-12);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        let rendered = breaches[0].to_string();
        assert!(rendered.contains("bench regression: a"), "{rendered}");
        assert!(rendered.contains("x2.50 > x2.00"), "{rendered}");
    }

    #[test]
    fn comparator_flags_missing_ids_both_ways() {
        let base = snap("kernels", &[("a", 100.0), ("gone", 100.0)]);
        let cur = snap("kernels", &[("a", 100.0), ("new", 100.0)]);
        let breaches = compare(&base, &cur, 2.0).unwrap();
        assert_eq!(breaches.len(), 2);
        assert_eq!(
            (breaches[0].id.as_str(), breaches[0].kind.clone()),
            ("gone", BreachKind::MissingInCurrent)
        );
        assert_eq!(
            (breaches[1].id.as_str(), breaches[1].kind.clone()),
            ("new", BreachKind::MissingInBaseline)
        );
    }

    #[test]
    fn comparator_refuses_schema_and_topic_mismatch() {
        let base = snap("kernels", &[("a", 100.0)]);
        let mut v2 = base.clone();
        v2.schema_version = SCHEMA_VERSION + 1;
        assert!(matches!(
            compare(&base, &v2, 2.0),
            Err(SnapshotError::SchemaVersion { .. })
        ));
        let other = snap("sweep", &[("a", 100.0)]);
        assert!(matches!(
            compare(&base, &other, 2.0),
            Err(SnapshotError::TopicMismatch { .. })
        ));
    }

    #[test]
    fn unknown_topic_is_rejected() {
        assert!(matches!(
            capture("nonsense", Duration::from_millis(1)),
            Err(SnapshotError::UnknownTopic(_))
        ));
    }

    #[test]
    fn registry_runs_every_bench_once_in_committed_order() {
        let mut all = Vec::new();
        for topic in REGISTRY_TOPICS {
            let mut ids = Vec::new();
            each_bench(topic, &mut |id, f| {
                f();
                ids.push(id.to_string());
            })
            .unwrap_or_else(|e| panic!("{topic}: {e}"));
            if TOPICS.contains(&topic) {
                let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("../..")
                    .join(file_name(topic));
                let committed = BenchSnapshot::from_slice(&std::fs::read(&path).unwrap()).unwrap();
                let committed_ids: Vec<&str> =
                    committed.entries.iter().map(|e| e.id.as_str()).collect();
                assert_eq!(ids, committed_ids, "{topic} ids drifted from {}", path.display());
            }
            all.extend(ids);
        }
        assert_eq!(all.len(), 39, "{all:?}");
        let unique: std::collections::HashSet<&String> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "duplicate bench ids: {all:?}");
    }

    #[test]
    fn measure_produces_positive_median() {
        let entry = measure("t", Duration::from_millis(5), || {
            std::hint::black_box((0..100u64).sum::<u64>());
        });
        assert_eq!(entry.id, "t");
        assert!(entry.median_ns > 0.0);
        assert!(entry.iters >= 1);
        assert!((3..=25).contains(&(entry.samples as usize)));
    }
}
