//! Calibrated observables for every (device, workload) pair.
//!
//! The source of truth is the paper itself:
//!
//! * MMM and Black-Scholes observables are Table 4, verbatim;
//! * FFT observables are reconstructed from Table 5's published `(µ, φ)`
//!   at sizes 64 / 1024 / 16384 by inverting the calibration formulas
//!   (footnote 1) around a documented Core i7 Spiral-FFT baseline, and
//!   interpolated in `log2 N` between those anchors;
//! * the Core i7 FFT baseline (45 / 70 / 60 GFLOP/s at N = 64 / 1024 /
//!   16384, 84 W of core power) is chosen to be consistent with published
//!   Spiral results on Nehalem *and* to reproduce the speedup ceilings of
//!   the paper's Figure 6 (see EXPERIMENTS.md).
//!
//! Derived quantities round-trip: running `ucore-calibrate` over this
//! data reproduces Table 5 to within rounding.

use serde::Serialize;
use ucore_devices::DeviceId;
use ucore_workloads::{Workload, WorkloadKind};

/// The observables the lab can produce for one (device, workload) pair,
/// all at the paper's 40 nm area normalization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DeviceWorkloadData {
    /// The device.
    pub device: DeviceId,
    /// Absolute throughput in the workload's unit (GFLOP/s or Mopts/s).
    pub perf: f64,
    /// Area-normalized throughput, per mm² at 40 nm.
    pub perf_per_mm2: f64,
    /// Energy efficiency (GFLOP/J or Mopts/J).
    pub perf_per_joule: f64,
}

impl DeviceWorkloadData {
    /// The compute area this design occupies (40 nm-normalized mm²).
    pub fn area_mm2(&self) -> f64 {
        self.perf / self.perf_per_mm2
    }

    /// Core power drawn while running, in watts.
    pub fn core_watts(&self) -> f64 {
        self.perf / self.perf_per_joule
    }
}

/// A published-measurement table: rows keyed by device.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MeasuredTable {
    workload: WorkloadKind,
    rows: Vec<DeviceWorkloadData>,
}

impl MeasuredTable {
    /// The workload this table measures.
    pub fn workload(&self) -> WorkloadKind {
        self.workload
    }

    /// All rows.
    pub fn rows(&self) -> &[DeviceWorkloadData] {
        &self.rows
    }

    /// The row for a device, if the paper has one (missing cells — BS on
    /// GTX480/R5870, FFT on R5870 — return `None`).
    pub fn row(&self, device: DeviceId) -> Option<&DeviceWorkloadData> {
        self.rows.iter().find(|r| r.device == device)
    }
}

/// Table 4, MMM section (GFLOP/s, (GFLOP/s)/mm², GFLOP/J).
pub fn table4_mmm() -> MeasuredTable {
    let rows = vec![
        row(DeviceId::CoreI7_960, 96.0, 0.50, 1.14),
        row(DeviceId::Gtx285, 425.0, 2.40, 6.78),
        row(DeviceId::Gtx480, 541.0, 1.28, 3.52),
        row(DeviceId::R5870, 1491.0, 5.95, 9.87),
        row(DeviceId::V6Lx760, 204.0, 0.53, 3.62),
        row(DeviceId::Asic, 694.0, 19.28, 50.73),
    ];
    MeasuredTable { workload: WorkloadKind::Mmm, rows }
}

/// Table 4, Black-Scholes section (Mopts/s, (Mopts/s)/mm², Mopts/J).
///
/// The GTX480 and R5870 rows are absent, as in the paper ("we were unable
/// to obtain optimized ... BS for the GTX480").
pub fn table4_bs() -> MeasuredTable {
    let rows = vec![
        row(DeviceId::CoreI7_960, 487.0, 2.52, 4.88),
        row(DeviceId::Gtx285, 10756.0, 60.72, 189.0),
        row(DeviceId::V6Lx760, 7800.0, 20.26, 138.0),
        row(DeviceId::Asic, 25532.0, 1719.0, 642.5),
    ];
    MeasuredTable { workload: WorkloadKind::BlackScholes, rows }
}

fn row(device: DeviceId, perf: f64, perf_per_mm2: f64, perf_per_joule: f64) -> DeviceWorkloadData {
    DeviceWorkloadData { device, perf, perf_per_mm2, perf_per_joule }
}

/// The anchor FFT sizes at which Table 5 publishes `(µ, φ)`.
pub const FFT_ANCHOR_LOG2: [u32; 3] = [6, 10, 14];

/// The Core i7 (4-core, Spiral-tuned, single-precision) FFT baseline at
/// the anchor sizes, in pseudo-GFLOP/s. See the module docs for how these
/// were chosen.
pub const I7_FFT_GFLOPS: [f64; 3] = [45.0, 70.0, 60.0];

/// Core-rail power of the i7 while running FFT, in watts (EATX12V-style
/// core+L1/L2 measurement).
pub const I7_FFT_CORE_WATTS: f64 = 84.0;

/// The i7 core+cache area at the 40 nm normalization, mm² (Table 2).
pub const I7_CORE_AREA_MM2: f64 = 193.0;

/// The area each FPGA design occupies: the paper scales designs until the
/// LX760 is full, and Table 4 puts the resulting fabric at ≈ 385 mm²
/// (204 GFLOP/s ÷ 0.53 (GFLOP/s)/mm²).
pub const FPGA_DESIGN_AREA_MM2: f64 = 385.0;

/// The 40 nm-normalized area of the ASIC FFT core array (chosen; the MMM
/// and BS ASIC areas come from Table 4 directly).
pub const ASIC_FFT_AREA_MM2: f64 = 16.0;

/// Published Table 5 `(φ, µ)` entries — also the source from which the
/// FFT observables are reconstructed.
///
/// Returns `(phi, mu)` or `None` for the paper's missing cells.
pub fn table5(device: DeviceId, workload: WorkloadKind, fft_log2: Option<u32>) -> Option<(f64, f64)> {
    use DeviceId::*;
    use WorkloadKind::*;
    match (device, workload, fft_log2) {
        (Gtx285, Mmm, _) => Some((0.74, 3.41)),
        (Gtx285, BlackScholes, _) => Some((0.57, 17.0)),
        (Gtx285, Fft, Some(6)) => Some((0.59, 2.42)),
        (Gtx285, Fft, Some(10)) => Some((0.63, 2.88)),
        (Gtx285, Fft, Some(14)) => Some((0.89, 3.75)),

        (Gtx480, Mmm, _) => Some((0.77, 1.83)),
        (Gtx480, Fft, Some(6)) => Some((0.39, 1.56)),
        (Gtx480, Fft, Some(10)) => Some((0.47, 2.20)),
        (Gtx480, Fft, Some(14)) => Some((0.66, 2.83)),

        (R5870, Mmm, _) => Some((1.27, 8.47)),

        (V6Lx760, Mmm, _) => Some((0.31, 0.75)),
        (V6Lx760, BlackScholes, _) => Some((0.26, 5.68)),
        (V6Lx760, Fft, Some(6)) => Some((0.29, 2.81)),
        (V6Lx760, Fft, Some(10)) => Some((0.29, 2.02)),
        (V6Lx760, Fft, Some(14)) => Some((0.37, 3.02)),

        (Asic, Mmm, _) => Some((0.79, 27.4)),
        (Asic, BlackScholes, _) => Some((4.75, 482.0)),
        (Asic, Fft, Some(6)) => Some((5.34, 733.0)),
        (Asic, Fft, Some(10)) => Some((4.96, 489.0)),
        (Asic, Fft, Some(14)) => Some((6.38, 689.0)),

        _ => None,
    }
}

/// `r^((1-α)/2)` with the paper's `r = 2`, `α = 1.75` — the constant in
/// the φ inversion.
fn r_pow() -> f64 {
    2f64.powf(-0.375)
}

/// `√r` with `r = 2`.
const SQRT_R: f64 = std::f64::consts::SQRT_2;

/// The i7 FFT observables at an anchor index.
fn i7_fft_anchor(idx: usize) -> DeviceWorkloadData {
    let perf = I7_FFT_GFLOPS[idx];
    DeviceWorkloadData {
        device: DeviceId::CoreI7_960,
        perf,
        perf_per_mm2: perf / I7_CORE_AREA_MM2,
        perf_per_joule: perf / I7_FFT_CORE_WATTS,
    }
}

/// Reconstructs a U-core device's FFT observables at an anchor index by
/// inverting footnote 1 around the i7 baseline:
/// `x_u = µ·x_i7·√r` and `e_u = µ·e_i7 / (φ·r^((1−α)/2))`.
fn ucore_fft_anchor(device: DeviceId, idx: usize) -> Option<DeviceWorkloadData> {
    let (phi, mu) = table5(device, WorkloadKind::Fft, Some(FFT_ANCHOR_LOG2[idx]))?;
    let i7 = i7_fft_anchor(idx);
    let x = mu * i7.perf_per_mm2 * SQRT_R;
    let e = mu * i7.perf_per_joule / (phi * r_pow());
    let area = match device {
        DeviceId::V6Lx760 => FPGA_DESIGN_AREA_MM2,
        DeviceId::Asic => ASIC_FFT_AREA_MM2,
        DeviceId::Gtx285 => 338.0 * (40.0f64 / 55.0).powi(2),
        DeviceId::Gtx480 => 422.0,
        DeviceId::R5870 => 250.5,
        DeviceId::CoreI7_960 => I7_CORE_AREA_MM2,
    };
    Some(DeviceWorkloadData {
        device,
        perf: x * area,
        perf_per_mm2: x,
        perf_per_joule: e,
    })
}

/// FFT observables for a device at an arbitrary power-of-two size,
/// interpolating (and clamping) the anchor data in `log2 N`.
///
/// Returns `None` for devices without published FFT results (the R5870).
pub fn fft_data(device: DeviceId, size: usize) -> Option<DeviceWorkloadData> {
    let workload = Workload::fft(size).ok()?;
    let log2 = (workload.size() as f64).log2();
    let anchors: Vec<DeviceWorkloadData> = if device == DeviceId::CoreI7_960 {
        (0..3).map(i7_fft_anchor).collect()
    } else {
        (0..3)
            .map(|i| ucore_fft_anchor(device, i))
            .collect::<Option<Vec<_>>>()?
    };
    let xs: Vec<f64> = FFT_ANCHOR_LOG2.iter().map(|&l| f64::from(l)).collect();
    let perf = interp_log(&xs, &anchors.iter().map(|a| a.perf).collect::<Vec<_>>(), log2);
    let x = interp_log(
        &xs,
        &anchors.iter().map(|a| a.perf_per_mm2).collect::<Vec<_>>(),
        log2,
    );
    let e = interp_log(
        &xs,
        &anchors.iter().map(|a| a.perf_per_joule).collect::<Vec<_>>(),
        log2,
    );
    Some(DeviceWorkloadData {
        device,
        perf,
        perf_per_mm2: x,
        perf_per_joule: e,
    })
}

/// Piecewise-linear interpolation in `log2 N`, geometric in the value
/// (linear in `log(value)`), clamped at the ends.
fn interp_log(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    debug_assert_eq!(xs.len(), ys.len());
    if x <= xs[0] {
        return ys[0];
    }
    if x >= xs[xs.len() - 1] {
        return ys[ys.len() - 1];
    }
    for i in 0..xs.len() - 1 {
        if (xs[i]..=xs[i + 1]).contains(&x) {
            let t = (x - xs[i]) / (xs[i + 1] - xs[i]);
            let ln = ys[i].ln() + t * (ys[i + 1].ln() - ys[i].ln());
            return ln.exp();
        }
    }
    // Only reachable for unsorted anchor tables (a data-entry bug, not a
    // caller input): degrade to the nearest-end clamp rather than
    // panicking the measurement path.
    ys[ys.len() - 1]
}

/// The off-chip peak bandwidth the lab assumes per device, in GB/s
/// (Table 2 where published; an interconnect-limited estimate for the
/// FPGA board and effectively unlimited for the ASIC test harness).
pub fn peak_bandwidth_gb_s(device: DeviceId) -> f64 {
    match device {
        DeviceId::CoreI7_960 => 32.0,
        DeviceId::Gtx285 => 159.0,
        DeviceId::Gtx480 => 177.4,
        DeviceId::R5870 => 153.6,
        // A fully populated multi-bank DDR3 memory system: the measured
        // Black-Scholes design streams 78 GB/s and stays compute-bound.
        DeviceId::V6Lx760 => 100.0,
        DeviceId::Asic => 1.0e4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_mmm_matches_paper() {
        let t = table4_mmm();
        assert_eq!(t.rows().len(), 6);
        let asic = t.row(DeviceId::Asic).unwrap();
        assert_eq!(asic.perf, 694.0);
        assert_eq!(asic.perf_per_mm2, 19.28);
        assert_eq!(asic.perf_per_joule, 50.73);
        // Implied ASIC MMM core: 36 mm².
        assert!((asic.area_mm2() - 36.0).abs() < 0.1);
    }

    #[test]
    fn table4_bs_has_paper_gaps() {
        let t = table4_bs();
        assert!(t.row(DeviceId::Gtx480).is_none());
        assert!(t.row(DeviceId::R5870).is_none());
        assert_eq!(t.row(DeviceId::Gtx285).unwrap().perf, 10756.0);
    }

    #[test]
    fn fft_anchor_inversion_round_trips_table5() {
        // Re-deriving (mu, phi) from the reconstructed observables must
        // give back the published Table 5 values.
        for device in [DeviceId::Gtx285, DeviceId::Gtx480, DeviceId::V6Lx760, DeviceId::Asic] {
            for (idx, &log2) in FFT_ANCHOR_LOG2.iter().enumerate() {
                let (phi, mu) = table5(device, WorkloadKind::Fft, Some(log2)).unwrap();
                let u = ucore_fft_anchor(device, idx).unwrap();
                let i7 = i7_fft_anchor(idx);
                let mu_back = u.perf_per_mm2 / (i7.perf_per_mm2 * SQRT_R);
                let phi_back = mu_back * i7.perf_per_joule / (r_pow() * u.perf_per_joule);
                assert!((mu_back - mu).abs() / mu < 1e-12, "{device:?} N=2^{log2}");
                assert!((phi_back - phi).abs() / phi < 1e-12, "{device:?} N=2^{log2}");
            }
        }
    }

    #[test]
    fn fft_data_interpolates_and_clamps() {
        let at64 = fft_data(DeviceId::Gtx285, 64).unwrap();
        let at128 = fft_data(DeviceId::Gtx285, 128).unwrap();
        let at1024 = fft_data(DeviceId::Gtx285, 1024).unwrap();
        assert!(at128.perf > at64.perf.min(at1024.perf) * 0.99);
        // Below the smallest anchor: clamped.
        let at16 = fft_data(DeviceId::Gtx285, 16).unwrap();
        assert_eq!(at16.perf, at64.perf);
        // Above the largest anchor: clamped.
        let at_million = fft_data(DeviceId::Gtx285, 1 << 20).unwrap();
        let at16k = fft_data(DeviceId::Gtx285, 1 << 14).unwrap();
        assert_eq!(at_million.perf, at16k.perf);
    }

    #[test]
    fn fft_data_missing_for_r5870() {
        assert!(fft_data(DeviceId::R5870, 1024).is_none());
    }

    #[test]
    fn fft_data_rejects_non_power_of_two() {
        assert!(fft_data(DeviceId::Gtx285, 1000).is_none());
    }

    #[test]
    fn asic_fft_is_orders_of_magnitude_denser() {
        // Figure 2 (bottom): ASIC ~100x the flexible cores, ~1000x the
        // CPU in area-normalized FFT performance.
        let asic = fft_data(DeviceId::Asic, 1024).unwrap();
        let i7 = fft_data(DeviceId::CoreI7_960, 1024).unwrap();
        let fpga = fft_data(DeviceId::V6Lx760, 1024).unwrap();
        let ratio_cpu = asic.perf_per_mm2 / i7.perf_per_mm2;
        let ratio_fpga = asic.perf_per_mm2 / fpga.perf_per_mm2;
        assert!((400.0..1500.0).contains(&ratio_cpu), "vs CPU: {ratio_cpu}");
        assert!((100.0..500.0).contains(&ratio_fpga), "vs FPGA: {ratio_fpga}");
    }

    #[test]
    fn asic_fft_energy_efficiency_dominates() {
        // Figure 4 (top): ASIC ~2 orders over the CPU, ~10x over
        // GPUs/FPGA in GFLOP/J.
        let asic = fft_data(DeviceId::Asic, 1024).unwrap();
        let i7 = fft_data(DeviceId::CoreI7_960, 1024).unwrap();
        let gtx480 = fft_data(DeviceId::Gtx480, 1024).unwrap();
        assert!(asic.perf_per_joule / i7.perf_per_joule > 50.0);
        let over_gpu = asic.perf_per_joule / gtx480.perf_per_joule;
        assert!((5.0..50.0).contains(&over_gpu), "vs GPU: {over_gpu}");
    }

    #[test]
    fn core_watts_are_plausible() {
        for device in [DeviceId::CoreI7_960, DeviceId::Gtx285, DeviceId::Gtx480, DeviceId::V6Lx760]
        {
            let d = fft_data(device, 1024).unwrap();
            let w = d.core_watts();
            assert!((10.0..200.0).contains(&w), "{device:?}: {w} W");
        }
    }

    #[test]
    fn peak_bandwidths_match_table2() {
        assert_eq!(peak_bandwidth_gb_s(DeviceId::Gtx285), 159.0);
        assert_eq!(peak_bandwidth_gb_s(DeviceId::Gtx480), 177.4);
        assert_eq!(peak_bandwidth_gb_s(DeviceId::CoreI7_960), 32.0);
    }
}
