//! Ready-made reproductions of the paper's projection figures.
//!
//! Figures are assembled by running their `(f, design, node)` grid
//! through the [`sweep`](mod@crate::sweep) engine. The sweep returns
//! results in submission order and each point is memoized in the
//! process-wide evaluation cache, so figure output is deterministic
//! and points shared between
//! figures — e.g. the baseline FFT grid appearing in both Figure 6 and
//! the scenario studies — are optimized only once per process.

// An output-producing path: no wall clock, no hash-ordered containers.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

use crate::engine::{DesignId, ProjectionEngine, ProjectionError};
use crate::results::{FailureRecord, FigureData, Metric, Panel, Series, SweepHealth};
use crate::scenario::Scenario;
use crate::sweep::{figure_points, sweep, SweepConfig};
use ucore_calibrate::WorkloadColumn;

/// Builds a speedup figure: one panel per `f`, one series per design.
///
/// # Errors
///
/// As [`figure_with_metric`].
fn speedup_figure(
    id: &str,
    title: &str,
    scenario: Scenario,
    column: WorkloadColumn,
    f_values: &[f64],
) -> Result<FigureData, ProjectionError> {
    figure_with_metric(id, title, scenario, column, f_values, Metric::Speedup)
}

/// Builds a figure plotting `metric`: one panel per `f`, one series per design.
///
/// # Errors
///
/// The scenario's engine cannot be built, or the sweep fails.
fn figure_with_metric(
    id: &str,
    title: &str,
    scenario: Scenario,
    column: WorkloadColumn,
    f_values: &[f64],
    metric: Metric,
) -> Result<FigureData, ProjectionError> {
    let engine = ProjectionEngine::new(scenario)?;
    let designs = DesignId::for_column(engine.table5(), column);
    assemble_figure(&engine, id, title, &designs, column, f_values, metric)
}

/// The shared assembly tail: fans the `(f, design, node)` grid over the
/// sweep and folds the ordered results into panels/series.
///
/// # Errors
///
/// A sweep failure.
fn assemble_figure(
    engine: &ProjectionEngine,
    id: &str,
    title: &str,
    designs: &[DesignId],
    column: WorkloadColumn,
    f_values: &[f64],
    metric: Metric,
) -> Result<FigureData, ProjectionError> {
    let nodes_per_series = engine.scenario().roadmap().nodes().len();
    let points = figure_points(engine, designs, column, f_values)?;
    let (results, stats) = sweep(engine, points, &SweepConfig::default());

    // Reassemble the ordered results into panels: the batch was built
    // with f outermost, then design, then node, so consecutive
    // `nodes_per_series` chunks form one series. A failed point leaves
    // its node absent from the series (like an infeasible one) and is
    // recorded in the figure's failure log instead.
    let mut chunks = results.chunks(nodes_per_series);
    let mut panels = Vec::with_capacity(f_values.len());
    let mut failures = Vec::new();
    for &fv in f_values {
        let mut series = Vec::with_capacity(designs.len());
        for &design in designs {
            let Some(chunk) = chunks.next() else {
                // Unreachable while figure_points covers the grid, but a
                // short figure must never panic mid-assembly.
                break;
            };
            let points = chunk.iter().filter_map(|r| r.outcome.node_point()).collect();
            for r in chunk {
                if let Some(message) = r.outcome.failure_message() {
                    failures.push(FailureRecord {
                        index: r.index,
                        f: fv,
                        label: design.label(),
                        message: message.to_string(),
                    });
                }
            }
            series.push(Series { label: design.label(), points });
        }
        panels.push(Panel { f: fv, series });
    }
    Ok(FigureData {
        id: id.into(),
        title: title.into(),
        metric,
        panels,
        health: SweepHealth {
            points_ok: stats.points_ok,
            points_infeasible: stats.points_infeasible,
            points_failed: stats.points_failed,
            retries: stats.retries,
        },
        failures,
    })
}

/// Figure 6: FFT-1024 speedup projection at `f ∈ {0.5, 0.9, 0.99,
/// 0.999}` under the baseline scenario.
///
/// # Errors
///
/// Propagates calibration failures (none with the shipped data).
pub fn figure6() -> Result<FigureData, ProjectionError> {
    speedup_figure(
        "figure-6",
        "FFT-1024 projection",
        Scenario::baseline(),
        WorkloadColumn::Fft1024,
        &[0.5, 0.9, 0.99, 0.999],
    )
}

/// Figure 7: MMM speedup projection (seven designs, ASIC exempt from the
/// bandwidth bound).
///
/// # Errors
///
/// Propagates calibration failures.
pub fn figure7() -> Result<FigureData, ProjectionError> {
    speedup_figure(
        "figure-7",
        "MMM projection",
        Scenario::baseline(),
        WorkloadColumn::Mmm,
        &[0.5, 0.9, 0.99, 0.999],
    )
}

/// Figure 8: Black-Scholes speedup projection at `f ∈ {0.5, 0.9}`.
///
/// # Errors
///
/// Propagates calibration failures.
pub fn figure8() -> Result<FigureData, ProjectionError> {
    speedup_figure(
        "figure-8",
        "Black-Scholes projection",
        Scenario::baseline(),
        WorkloadColumn::Bs,
        &[0.5, 0.9],
    )
}

/// Figure 9: FFT-1024 under the 1 TB/s scenario (embedded DRAM /
/// 3D-stacked memory).
///
/// # Errors
///
/// Propagates calibration failures.
pub fn figure9() -> Result<FigureData, ProjectionError> {
    speedup_figure(
        "figure-9",
        "FFT-1024 projection given 1 TB/sec bandwidth",
        Scenario::s2_high_bandwidth(),
        WorkloadColumn::Fft1024,
        &[0.5, 0.9, 0.99, 0.999],
    )
}

/// Figure 10: MMM total-energy projection (normalized to one BCE at
/// 40 nm) at `f ∈ {0.5, 0.9, 0.99}`.
///
/// # Errors
///
/// Propagates calibration failures.
pub fn figure10() -> Result<FigureData, ProjectionError> {
    figure_with_metric(
        "figure-10",
        "MMM energy projections (normalized to BCE)",
        Scenario::baseline(),
        WorkloadColumn::Mmm,
        &[0.5, 0.9, 0.99],
        Metric::Energy,
    )
}

/// Figure 11: the composite three-kernel workload (MMM, Black-Scholes,
/// and FFT-1024 in equal parallel shares) under the baseline scenario,
/// contrasting single shared U-cores against split accelerator
/// portfolios allocated by the Multi-Amdahl KKT rule.
///
/// # Errors
///
/// Propagates calibration failures.
pub fn figure11() -> Result<FigureData, ProjectionError> {
    let engine = ProjectionEngine::new(Scenario::baseline())?;
    let designs = DesignId::portfolio_designs();
    assemble_figure(
        &engine,
        "figure-11",
        "Composite-workload portfolio projection",
        &designs,
        WorkloadColumn::Mmm,
        &[0.9, 0.99, 0.999],
        Metric::Speedup,
    )
}

/// A §6.2 scenario projection for any workload column and `f` sweep —
/// the quantitative backing for the qualitative scenario discussion.
///
/// # Errors
///
/// Propagates calibration failures.
pub fn scenario_figure(
    scenario: Scenario,
    column: WorkloadColumn,
    f_values: &[f64],
) -> Result<FigureData, ProjectionError> {
    let id = format!("scenario:{}:{}", scenario.name(), column.label());
    let title = format!("{} under {}", column.label(), scenario.name());
    speedup_figure(&id.clone(), &title, scenario, column, f_values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucore_core::Limiter;
    use ucore_devices::TechNode;

    #[test]
    fn figure6_structure() {
        let fig = figure6().unwrap();
        assert_eq!(fig.panels.len(), 4);
        for panel in &fig.panels {
            assert_eq!(panel.series.len(), 6, "f = {}", panel.f);
        }
    }

    #[test]
    fn figure6_f0999_asic_ceiling_matches_paper_scale() {
        // The paper's f = 0.999 panel tops out around 45-70 across nodes.
        let fig = figure6().unwrap();
        let at40 = fig.value(0.999, "ASIC", TechNode::N40).unwrap();
        let at11 = fig.value(0.999, "ASIC", TechNode::N11).unwrap();
        assert!((30.0..70.0).contains(&at40), "40 nm: {at40}");
        assert!((45.0..90.0).contains(&at11), "11 nm: {at11}");
        assert!(at11 > at40);
    }

    #[test]
    fn figure6_flexible_ucores_converge_to_asic() {
        // "the FPGA design reaches ASIC-like bandwidth-limited
        // performance as early as 32nm — and similarly for the GPU
        // designs, around 22nm and 16nm."
        let fig = figure6().unwrap();
        let f = 0.999;
        let asic_11 = fig.value(f, "ASIC", TechNode::N11).unwrap();
        let fpga_11 = fig.value(f, "LX760", TechNode::N11).unwrap();
        let gtx285_11 = fig.value(f, "GTX285", TechNode::N11).unwrap();
        assert!(fpga_11 / asic_11 > 0.8, "FPGA reached {fpga_11} vs {asic_11}");
        assert!(gtx285_11 / asic_11 > 0.8, "GTX285 reached {gtx285_11}");
    }

    #[test]
    fn figure7_asic_scales_into_the_hundreds() {
        let fig = figure7().unwrap();
        let asic = fig.value(0.999, "ASIC", TechNode::N11).unwrap();
        assert!((400.0..1100.0).contains(&asic), "got {asic}");
        // And the CMPs stay far below.
        let sym = fig.value(0.999, "SymCMP", TechNode::N11).unwrap();
        assert!(asic / sym > 10.0);
    }

    #[test]
    fn figure8_f09_ceiling_matches_paper_scale() {
        // Paper's f = 0.9 panel tops out around 30-35.
        let fig = figure8().unwrap();
        let asic = fig.value(0.9, "ASIC", TechNode::N11).unwrap();
        assert!((20.0..45.0).contains(&asic), "got {asic}");
    }

    #[test]
    fn figure9_relieves_the_bandwidth_wall() {
        let base = figure6().unwrap();
        let relieved = figure9().unwrap();
        // With 1 TB/s the GPUs/FPGA go power-limited and the ASIC gains.
        let base_asic = base.value(0.999, "ASIC", TechNode::N11).unwrap();
        let relieved_asic = relieved.value(0.999, "ASIC", TechNode::N11).unwrap();
        assert!(relieved_asic > 2.0 * base_asic);
        // Paper: ~300-350 at f = 0.999, 11 nm.
        assert!((150.0..400.0).contains(&relieved_asic), "got {relieved_asic}");

        // Flexible HETs become power-limited instead of bandwidth-limited.
        let panel = relieved.panel(0.99).unwrap();
        let gtx = panel
            .series
            .iter()
            .find(|s| s.label.contains("GTX480"))
            .unwrap();
        let at11 = gtx.points.iter().find(|p| p.node == TechNode::N11).unwrap();
        assert_eq!(at11.limiter, Limiter::Power);
    }

    #[test]
    fn figure10_energy_ordering() {
        // At moderate parallelism the ASIC consumes the least energy and
        // the symmetric CMP the most.
        let fig = figure10().unwrap();
        for f in [0.9, 0.99] {
            let asic = fig.value(f, "ASIC", TechNode::N40).unwrap();
            let sym = fig.value(f, "SymCMP", TechNode::N40).unwrap();
            let gpu = fig.value(f, "GTX285", TechNode::N40).unwrap();
            assert!(asic < gpu, "f = {f}");
            assert!(gpu < sym, "f = {f}");
        }
    }

    #[test]
    fn figure10_f05_limited_by_sequential_core() {
        // "At low levels of parallelism (f = 0.5), the opportunity to
        // reduce the energy consumed is limited by the sequential core."
        let fig = figure10().unwrap();
        let asic = fig.value(0.5, "ASIC", TechNode::N40).unwrap();
        let cmp = fig.value(0.5, "AsymCMP", TechNode::N40).unwrap();
        // The ASIC's edge shrinks: within ~2.5x instead of orders of
        // magnitude.
        assert!(cmp / asic < 2.5, "ratio {}", cmp / asic);
    }

    #[test]
    fn figure11_structure_and_portfolio_ordering() {
        let fig = figure11().unwrap();
        assert_eq!(fig.panels.len(), 3);
        for panel in &fig.panels {
            assert_eq!(panel.series.len(), 4, "f = {}", panel.f);
            for series in &panel.series {
                assert_eq!(series.points.len(), 5, "{}", series.label);
            }
        }
        // The split ASIC bank tops the composite chart, like the single
        // ASIC tops every per-kernel chart.
        let asic = fig.value(0.99, "ASIC", TechNode::N11).unwrap();
        let gpu = fig.value(0.99, "GTX285", TechNode::N11).unwrap();
        assert!(asic > gpu, "ASIC {asic} vs GTX285 {gpu}");
    }

    #[test]
    fn scenario_figure_names_itself() {
        let fig = scenario_figure(
            Scenario::s5_low_power(),
            WorkloadColumn::Fft1024,
            &[0.9],
        )
        .unwrap();
        assert!(fig.id.contains("scenario-5"));
        assert_eq!(fig.panels.len(), 1);
    }
}
