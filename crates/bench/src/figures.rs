//! Figure renderers: the measured-baseline figures (2–4), the ITRS
//! trends (5), and the projections (6–10).

use ucore_devices::{DeviceId, TechNode};
use ucore_itrs::{Trend, TrendSeries};
use ucore_project::{figures as proj, FigureData};
use ucore_report::Chart;
use ucore_simdev::{counters, SimLab};

/// The devices plotted in the FFT baseline figures.
const FFT_DEVICES: [(DeviceId, char); 5] = [
    (DeviceId::CoreI7_960, 'i'),
    (DeviceId::V6Lx760, 'L'),
    (DeviceId::Gtx285, '2'),
    (DeviceId::Gtx480, '4'),
    (DeviceId::Asic, 'A'),
];

fn fft_size_labels() -> Vec<String> {
    (4..=20).map(|l| l.to_string()).collect()
}

/// Figure 2: FFT performance, raw and area-normalized (log y).
pub fn figure2() -> String {
    let lab = SimLab::paper();
    let mut raw = Chart::new(
        "Figure 2a: FFT performance (pseudo-GFLOP/s, log scale; x = log2 N)",
        fft_size_labels(),
        68,
        16,
    );
    raw.log_y();
    let mut norm = Chart::new(
        "Figure 2b: area-normalized FFT performance at 40nm (per mm2, log scale)",
        fft_size_labels(),
        68,
        16,
    );
    norm.log_y();
    for (device, glyph) in FFT_DEVICES {
        let sweep = lab.fft_sweep(device);
        if sweep.is_empty() {
            continue;
        }
        raw.series(
            device.label(),
            glyph,
            sweep.iter().map(|m| Some(m.perf)).collect(),
        );
        norm.series(
            device.label(),
            glyph,
            sweep.iter().map(|m| Some(m.perf_per_mm2)).collect(),
        );
    }
    format!("{raw}\n{norm}")
}

/// Figure 3: the FFT power breakdown at three representative sizes.
pub fn figure3() -> String {
    let lab = SimLab::paper();
    let mut out = String::from(
        "Figure 3: FFT power consumption breakdown (watts; sizes 2^6, 2^10, 2^14)\n",
    );
    let mut table = ucore_report::Table::new(vec![
        "device".into(),
        "log2N".into(),
        "core dyn".into(),
        "core leak".into(),
        "uncore stat".into(),
        "uncore dyn".into(),
        "unknown".into(),
        "total".into(),
    ]);
    for col in 1..=7 {
        table.align(col, ucore_report::Align::Right);
    }
    const FFT_SIZES: [(u32, ucore_workloads::Workload); 3] = [
        (6, ucore_workloads::Workload::fft_const::<64>()),
        (10, ucore_workloads::Workload::fft_const::<1024>()),
        (14, ucore_workloads::Workload::fft_const::<16384>()),
    ];
    for (device, _) in FFT_DEVICES {
        for (log2, workload) in FFT_SIZES {
            let Ok(m) = lab.measure(device, workload) else {
                continue;
            };
            let b = m.breakdown;
            table.row(vec![
                device.label().into(),
                log2.to_string(),
                format!("{:.1}", b.core_dynamic),
                format!("{:.1}", b.core_leakage),
                format!("{:.1}", b.uncore_static),
                format!("{:.1}", b.uncore_dynamic),
                format!("{:.1}", b.unknown),
                format!("{:.1}", b.total()),
            ]);
        }
    }
    out.push_str(&table.to_string());
    out
}

/// Figure 4: FFT energy efficiency (top) and the GTX285
/// compulsory-vs-measured bandwidth sweep (bottom).
pub fn figure4() -> String {
    let lab = SimLab::paper();
    let mut eff = Chart::new(
        "Figure 4a: FFT energy efficiency at 40nm (pseudo-GFLOP/J, log scale)",
        fft_size_labels(),
        68,
        14,
    );
    eff.log_y();
    for (device, glyph) in FFT_DEVICES {
        let sweep = lab.fft_sweep(device);
        if sweep.is_empty() {
            continue;
        }
        eff.series(
            device.label(),
            glyph,
            sweep.iter().map(|m| Some(m.perf_per_joule)).collect(),
        );
    }

    let mut bw = Chart::new(
        "Figure 4b: GTX285 FFT bandwidth (GB/s): compulsory vs measured",
        fft_size_labels(),
        68,
        14,
    );
    let sweep = counters::fft_bandwidth_sweep(DeviceId::Gtx285, true);
    bw.series(
        "compulsory",
        'c',
        sweep.iter().map(|r| Some(r.compulsory_gb_s)).collect(),
    );
    bw.series(
        "measured",
        'm',
        sweep.iter().map(|r| Some(r.measured_gb_s)).collect(),
    );
    format!("{eff}\n{bw}")
}

/// Figure 5: the ITRS 2009 normalized trends.
pub fn figure5() -> String {
    let years: Vec<String> = (2011u32..=2022).map(|y| (y % 100).to_string()).collect();
    let mut chart = Chart::new(
        "Figure 5: ITRS 2009 scaling projections (normalized to 2011; x = year '11-'22)",
        years,
        60,
        14,
    );
    for (trend, glyph) in [
        (Trend::PackagePins, 'p'),
        (Trend::Vdd, 'v'),
        (Trend::GateCapacitance, 'g'),
        (Trend::CombinedPowerReduction, 'C'),
    ] {
        let series = TrendSeries::itrs_2009(trend);
        chart.series(
            trend.label(),
            glyph,
            series.points().iter().map(|p| Some(p.value)).collect(),
        );
    }
    chart.to_string()
}

/// Renders any projection figure with a linear y-axis — the generic
/// entry point used by the scenario renderers.
pub fn render_figure(fig: &FigureData) -> String {
    render_projection(fig, false)
}

/// Exports a projection figure as CSV: one row per
/// `(f, design, node)` point with the speedup, energy and limiter.
pub fn figure_csv(fig: &FigureData) -> String {
    let mut w = ucore_report::CsvWriter::new(&[
        "figure", "f", "design", "node", "speedup", "energy", "limiter",
    ]);
    for panel in &fig.panels {
        for series in &panel.series {
            for p in &series.points {
                w.row(&[
                    &fig.id,
                    &panel.f,
                    &series.label,
                    &p.node,
                    &format_args!("{:.6}", p.speedup),
                    &format_args!("{:.6}", p.energy),
                    &p.limiter,
                ]);
            }
        }
    }
    w.finish()
}

/// Renders a projection figure as one chart per panel.
fn render_projection(fig: &FigureData, log_y: bool) -> String {
    let nodes: Vec<String> = TechNode::PROJECTION.iter().map(|n| n.to_string()).collect();
    let mut out = format!("{} ({})\n", fig.title, fig.id);
    out.push_str("(limiters per point are in the JSON export: area / power=dashed / bandwidth=solid)\n");
    for panel in &fig.panels {
        let mut chart = Chart::new(&format!("f = {}", panel.f), nodes.clone(), 56, 14);
        if log_y {
            chart.log_y();
        }
        for series in &panel.series {
            let glyph = series
                .label
                .chars()
                .nth(1)
                .unwrap_or('?');
            let values: Vec<Option<f64>> = TechNode::PROJECTION
                .iter()
                .map(|node| {
                    series.points.iter().find(|p| p.node == *node).map(|p| {
                        match fig.metric {
                            ucore_project::results::Metric::Speedup => p.speedup,
                            ucore_project::results::Metric::Energy => p.energy,
                        }
                    })
                })
                .collect();
            chart.series(&series.label, glyph, values);
        }
        out.push_str(&chart.to_string());
        out.push('\n');
    }
    out
}

/// Figure 6: the FFT-1024 projection.
///
/// # Errors
///
/// Propagates projection errors (none with the shipped data).
pub fn figure6() -> Result<String, Box<dyn std::error::Error>> {
    let fig = proj::figure6()?;
    Ok(format!("Figure 6: {}", render_projection(&fig, false)))
}

/// Figure 7: the MMM projection.
///
/// # Errors
///
/// Propagates projection errors.
pub fn figure7() -> Result<String, Box<dyn std::error::Error>> {
    let fig = proj::figure7()?;
    Ok(format!("Figure 7: {}", render_projection(&fig, true)))
}

/// Figure 8: the Black-Scholes projection.
///
/// # Errors
///
/// Propagates projection errors.
pub fn figure8() -> Result<String, Box<dyn std::error::Error>> {
    let fig = proj::figure8()?;
    Ok(format!("Figure 8: {}", render_projection(&fig, false)))
}

/// Figure 9: FFT-1024 at 1 TB/s.
///
/// # Errors
///
/// Propagates projection errors.
pub fn figure9() -> Result<String, Box<dyn std::error::Error>> {
    let fig = proj::figure9()?;
    Ok(format!("Figure 9: {}", render_projection(&fig, false)))
}

/// Figure 10: the MMM energy projection.
///
/// # Errors
///
/// Propagates projection errors.
pub fn figure10() -> Result<String, Box<dyn std::error::Error>> {
    let fig = proj::figure10()?;
    Ok(format!("Figure 10: {}", render_projection(&fig, false)))
}

/// Figure 11: the composite-workload portfolio projection (shared
/// U-cores vs Multi-Amdahl split portfolios).
///
/// # Errors
///
/// Propagates projection errors.
pub fn figure11() -> Result<String, Box<dyn std::error::Error>> {
    let fig = proj::figure11()?;
    Ok(format!("Figure 11: {}", render_projection(&fig, true)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_figures_render() {
        assert!(figure2().contains("ASIC"));
        assert!(figure3().contains("uncore"));
        assert!(figure4().contains("compulsory"));
        assert!(figure5().contains("Package pins"));
    }

    #[test]
    fn projection_figures_render() {
        let f6 = figure6().unwrap();
        assert!(f6.contains("f = 0.999"));
        assert!(f6.contains("ASIC"));
        let f10 = figure10().unwrap();
        assert!(f10.contains("f = 0.99"));
    }
}
