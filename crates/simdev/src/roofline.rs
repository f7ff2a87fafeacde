//! The roofline model: attainable throughput under compute and bandwidth
//! ceilings.
//!
//! The paper's methodology requires every measured kernel to be
//! *compute-bound* ("performance increases would not be possible without
//! more chip area"); the roofline is how the lab checks that property and
//! how it clips throughput when a hypothetical configuration would run
//! out of memory bandwidth instead.

use serde::Serialize;

/// Whether the compute or the bandwidth ceiling binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum RooflineVerdict {
    /// The kernel's arithmetic keeps the device busy: more area would
    /// mean more performance.
    ComputeBound,
    /// Off-chip traffic limits throughput below the compute peak.
    BandwidthBound,
}

/// A two-ceiling roofline: a compute peak (in the workload's throughput
/// unit) and a memory-bandwidth peak (GB/s).
///
/// ```
/// use ucore_simdev::{Roofline, RooflineVerdict};
/// // 100 GFLOP/s compute peak, 10 GB/s of bandwidth, 2 flops/byte:
/// // bandwidth supports only 20 GFLOP/s.
/// let r = Roofline::new(100.0, 10.0);
/// let (attained, verdict) = r.attainable(2.0);
/// assert_eq!(attained, 20.0);
/// assert_eq!(verdict, RooflineVerdict::BandwidthBound);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Roofline {
    compute_peak: f64,
    bandwidth_peak_gb_s: f64,
}

impl Roofline {
    /// Creates a roofline from a compute peak (workload units/s, e.g.
    /// GFLOP/s) and a bandwidth peak in GB/s.
    ///
    /// Non-finite or non-positive ceilings are clamped to zero, making
    /// the device unable to attain anything — a deliberate "fail shut"
    /// for nonsense inputs.
    pub fn new(compute_peak: f64, bandwidth_peak_gb_s: f64) -> Self {
        let clamp = |v: f64| if v.is_finite() && v > 0.0 { v } else { 0.0 };
        Roofline {
            compute_peak: clamp(compute_peak),
            bandwidth_peak_gb_s: clamp(bandwidth_peak_gb_s),
        }
    }

    /// The compute ceiling.
    pub fn compute_peak(&self) -> f64 {
        self.compute_peak
    }

    /// The bandwidth ceiling in GB/s.
    pub fn bandwidth_peak_gb_s(&self) -> f64 {
        self.bandwidth_peak_gb_s
    }

    /// Attainable throughput at an arithmetic intensity of
    /// `flops_per_byte` (in GFLOP-per-GB terms, i.e. ops per byte),
    /// together with which ceiling binds.
    ///
    /// Ties count as compute-bound: the device is exactly balanced.
    pub fn attainable(&self, flops_per_byte: f64) -> (f64, RooflineVerdict) {
        let bw_limited = self.bandwidth_peak_gb_s * flops_per_byte.max(0.0);
        if bw_limited < self.compute_peak {
            (bw_limited, RooflineVerdict::BandwidthBound)
        } else {
            (self.compute_peak, RooflineVerdict::ComputeBound)
        }
    }

    /// The arithmetic intensity at which the two ceilings meet (the
    /// "ridge point"); kernels above it are compute-bound.
    pub fn ridge_intensity(&self) -> f64 {
        if self.bandwidth_peak_gb_s <= 0.0 {
            f64::INFINITY
        } else {
            self.compute_peak / self.bandwidth_peak_gb_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_intensity_is_compute_bound() {
        let r = Roofline::new(100.0, 10.0);
        let (perf, verdict) = r.attainable(1000.0);
        assert_eq!(perf, 100.0);
        assert_eq!(verdict, RooflineVerdict::ComputeBound);
    }

    #[test]
    fn low_intensity_is_bandwidth_bound() {
        let r = Roofline::new(100.0, 10.0);
        let (perf, verdict) = r.attainable(0.5);
        assert_eq!(perf, 5.0);
        assert_eq!(verdict, RooflineVerdict::BandwidthBound);
    }

    #[test]
    fn ridge_point_is_the_boundary() {
        let r = Roofline::new(100.0, 10.0);
        assert_eq!(r.ridge_intensity(), 10.0);
        let (perf, verdict) = r.attainable(10.0);
        assert_eq!(perf, 100.0);
        assert_eq!(verdict, RooflineVerdict::ComputeBound);
    }

    #[test]
    fn nonsense_inputs_fail_shut() {
        let r = Roofline::new(f64::NAN, -5.0);
        assert_eq!(r.compute_peak(), 0.0);
        assert_eq!(r.bandwidth_peak_gb_s(), 0.0);
        let (perf, _) = r.attainable(1.0);
        assert_eq!(perf, 0.0);
        assert_eq!(r.ridge_intensity(), f64::INFINITY);
    }

    #[test]
    fn attainable_monotone_in_intensity() {
        let r = Roofline::new(50.0, 8.0);
        let mut prev = 0.0;
        for i in 1..100 {
            let (perf, _) = r.attainable(i as f64 * 0.2);
            assert!(perf >= prev);
            prev = perf;
        }
    }

    #[test]
    fn mmm_on_gtx285_is_compute_bound() {
        // GTX285: 425 GFLOP/s, 159 GB/s peak; MMM at 32 flops/byte needs
        // only ~13 GB/s.
        let r = Roofline::new(425.0, 159.0);
        let (perf, verdict) = r.attainable(32.0);
        assert_eq!(perf, 425.0);
        assert_eq!(verdict, RooflineVerdict::ComputeBound);
    }
}
