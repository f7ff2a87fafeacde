//! Simulated off-chip bandwidth counters (Figure 4, bottom).
//!
//! The paper verified compute-boundedness by reading CPU/GPU performance
//! counters while sweeping FFT sizes. The observed GTX285 behavior:
//! traffic equals the *compulsory* bandwidth while the working set fits
//! on chip, then jumps to an out-of-core regime at `N = 2^12` — yet stays
//! below the 159 GB/s peak, because the library switches to
//! higher-intensity out-of-core algorithms.

use crate::data;
use serde::Serialize;
use ucore_devices::DeviceId;
use ucore_workloads::Workload;

/// One bandwidth-counter reading for an FFT size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BandwidthReading {
    /// The FFT size.
    pub size: usize,
    /// Compulsory traffic at the achieved throughput, GB/s.
    pub compulsory_gb_s: f64,
    /// What the counters actually see, GB/s.
    pub measured_gb_s: f64,
    /// Whether the working set spilled out of on-chip memory.
    pub out_of_core: bool,
}

/// The traffic multiplier once a transform no longer fits on chip (the
/// extra pass of a four-step out-of-core FFT).
const OUT_OF_CORE_MULTIPLIER: f64 = 2.0;

/// Fraction of peak bandwidth the out-of-core regime saturates at (the
/// GTX285 plateaus near 115 of 159 GB/s).
const OUT_OF_CORE_CEILING: f64 = 0.72;

/// On-chip capacity available to an FFT working set, in bytes.
pub fn onchip_capacity_bytes(device: DeviceId) -> f64 {
    match device {
        // 8 MB shared L3.
        DeviceId::CoreI7_960 => 8.0 * 1024.0 * 1024.0,
        // 30 SMs x 16 KB shared memory + register files: the observed
        // 2^12 transition implies ~64 KB usable per transform.
        DeviceId::Gtx285 => 64.0 * 1024.0,
        // 15 SMs x 48 KB + 768 KB L2.
        DeviceId::Gtx480 => 512.0 * 1024.0,
        DeviceId::R5870 => 256.0 * 1024.0,
        // ~26 Mb of block RAM.
        DeviceId::V6Lx760 => 3.2 * 1024.0 * 1024.0,
        // Streaming design with exactly-sized buffers.
        DeviceId::Asic => f64::INFINITY,
    }
}

/// Simulates the counter sweep for one device and FFT size.
///
/// Returns `None` when the lab has no FFT data for the device (the
/// R5870) — or, matching the paper's note that "for the GTX480, we were
/// unable to measure the bandwidth counters", when `device` is the
/// GTX480 and `honor_paper_gaps` is true.
pub fn fft_bandwidth(
    device: DeviceId,
    size: usize,
    honor_paper_gaps: bool,
) -> Option<BandwidthReading> {
    if honor_paper_gaps && device == DeviceId::Gtx480 {
        return None;
    }
    let measured = data::fft_data(device, size)?;
    let workload = Workload::fft(size).ok()?;
    let compulsory = workload.compulsory_bandwidth_gb_s(measured.perf);
    let working_set = workload.compulsory_bytes_per_unit();
    let out_of_core = working_set >= onchip_capacity_bytes(device);
    let measured_gb_s = if out_of_core {
        let ceiling = OUT_OF_CORE_CEILING * data::peak_bandwidth_gb_s(device);
        (compulsory * OUT_OF_CORE_MULTIPLIER).min(ceiling)
    } else {
        compulsory
    };
    Some(BandwidthReading { size, compulsory_gb_s: compulsory, measured_gb_s, out_of_core })
}

/// The full Figure 4 (bottom) sweep: sizes `2^4 .. 2^20`.
pub fn fft_bandwidth_sweep(device: DeviceId, honor_paper_gaps: bool) -> Vec<BandwidthReading> {
    (4..=20)
        .filter_map(|log2| fft_bandwidth(device, 1usize << log2, honor_paper_gaps))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx285_transitions_at_2_to_the_12() {
        let below = fft_bandwidth(DeviceId::Gtx285, 1 << 11, true).unwrap();
        let above = fft_bandwidth(DeviceId::Gtx285, 1 << 12, true).unwrap();
        assert!(!below.out_of_core);
        assert!(above.out_of_core);
        // In core: counters see exactly the compulsory traffic.
        assert_eq!(below.measured_gb_s, below.compulsory_gb_s);
        // Out of core: more than compulsory...
        assert!(above.measured_gb_s > above.compulsory_gb_s);
    }

    #[test]
    fn gtx285_never_reaches_peak() {
        // The paper's compute-bound evidence: even out of core, measured
        // bandwidth stays below the 159 GB/s peak.
        for reading in fft_bandwidth_sweep(DeviceId::Gtx285, true) {
            assert!(
                reading.measured_gb_s < 159.0,
                "N = {}: {} GB/s",
                reading.size,
                reading.measured_gb_s
            );
        }
    }

    #[test]
    fn gtx480_counters_unavailable_as_in_paper() {
        assert!(fft_bandwidth(DeviceId::Gtx480, 1024, true).is_none());
        // But the lab can simulate them when asked to go beyond the paper.
        assert!(fft_bandwidth(DeviceId::Gtx480, 1024, false).is_some());
    }

    #[test]
    fn r5870_has_no_fft_data_at_all() {
        assert!(fft_bandwidth(DeviceId::R5870, 1024, false).is_none());
    }

    #[test]
    fn asic_streams_at_compulsory_traffic_everywhere() {
        for reading in fft_bandwidth_sweep(DeviceId::Asic, true) {
            assert!(!reading.out_of_core);
            assert_eq!(reading.measured_gb_s, reading.compulsory_gb_s);
        }
    }

    #[test]
    fn sweep_covers_paper_range() {
        let sweep = fft_bandwidth_sweep(DeviceId::Gtx285, true);
        assert_eq!(sweep.len(), 17); // 2^4 ..= 2^20
        assert_eq!(sweep.first().unwrap().size, 16);
        assert_eq!(sweep.last().unwrap().size, 1 << 20);
    }

    #[test]
    fn i7_stays_in_cache_much_longer() {
        let i7_first_spill = fft_bandwidth_sweep(DeviceId::CoreI7_960, true)
            .iter()
            .find(|r| r.out_of_core)
            .map(|r| r.size);
        // 16N bytes > 8 MB first at N = 2^19.
        assert_eq!(i7_first_spill, Some(1 << 19));
    }
}
