//! Wall-clock throughput measurement of the real kernels.
//!
//! The paper measures devices "running applications in steady state";
//! this harness does the host-side equivalent for the Rust kernels:
//! repeat a work unit until a minimum duration has elapsed and report
//! throughput in the workload's unit (GFLOP/s or Mopts/s). It is used by
//! the examples and benchmarks; the simulated devices in `ucore-simdev`
//! have their own calibrated throughput model.

use crate::blackscholes::batch;
use crate::fft::{Direction, Fft};
use crate::gen::{random_matrix, random_portfolio, random_signal};
use crate::kernel::{PerfUnit, Workload, WorkloadError, WorkloadKind};
use crate::mmm::blocked;
use serde::Serialize;
use std::time::{Duration, Instant};

/// One throughput measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ThroughputSample {
    /// Throughput in the workload's reporting unit.
    pub value: f64,
    /// The unit of `value`.
    pub unit: PerfUnit,
    /// Work units completed.
    pub iterations: u64,
    /// Wall-clock time spent, in seconds.
    pub elapsed_s: f64,
}

impl ThroughputSample {
    /// Throughput converted to work units per second.
    pub fn units_per_second(&self) -> f64 {
        self.iterations as f64 / self.elapsed_s
    }
}

/// Runs `workload` repeatedly for at least `min_duration` and reports the
/// achieved throughput.
///
/// The kernel inputs are regenerated once (seeded) and reused, so the
/// measurement is compute-dominated — matching the paper's compute-bound
/// requirement.
///
/// # Errors
///
/// Propagates construction errors (e.g. an FFT size that is not a power
/// of two reaching the planner; impossible for a validated
/// [`Workload`]).
pub fn measure_throughput(
    workload: Workload,
    min_duration: Duration,
) -> Result<ThroughputSample, WorkloadError> {
    match workload.kind() {
        WorkloadKind::Mmm => {
            let n = workload.size();
            let a = random_matrix(n, n, 1);
            let b = random_matrix(n, n, 2);
            let mut iterations = 0u64;
            let start = Instant::now();
            let mut sink = 0.0f32;
            while start.elapsed() < min_duration {
                let c = blocked::multiply(&a, &b, blocked::DEFAULT_BLOCK.min(n))?;
                sink += c.get(0, 0);
                iterations += 1;
            }
            let elapsed = start.elapsed().as_secs_f64();
            std::hint::black_box(sink);
            Ok(ThroughputSample {
                value: iterations as f64 * workload.flops_per_unit() / elapsed / 1e9,
                unit: PerfUnit::GflopsPerSec,
                iterations,
                elapsed_s: elapsed,
            })
        }
        WorkloadKind::Fft => {
            let n = workload.size();
            let plan = Fft::new(n)?;
            let signal = random_signal(n, 3);
            let mut iterations = 0u64;
            let start = Instant::now();
            let mut buf = signal.clone();
            while start.elapsed() < min_duration {
                buf.copy_from_slice(&signal);
                plan.transform(&mut buf, Direction::Forward)?;
                iterations += 1;
            }
            let elapsed = start.elapsed().as_secs_f64();
            std::hint::black_box(buf[0]);
            Ok(ThroughputSample {
                value: iterations as f64 * workload.flops_per_unit() / elapsed / 1e9,
                unit: PerfUnit::GflopsPerSec,
                iterations,
                elapsed_s: elapsed,
            })
        }
        WorkloadKind::BlackScholes => {
            const BATCH: usize = 4096;
            let portfolio = random_portfolio(BATCH, 4);
            let mut iterations = 0u64;
            let start = Instant::now();
            let mut sink = 0.0f32;
            while start.elapsed() < min_duration {
                let prices = batch::price_all(&portfolio);
                sink += prices[0].call;
                iterations += BATCH as u64;
            }
            let elapsed = start.elapsed().as_secs_f64();
            std::hint::black_box(sink);
            Ok(ThroughputSample {
                value: iterations as f64 / elapsed / 1e6,
                unit: PerfUnit::MoptsPerSec,
                iterations,
                elapsed_s: elapsed,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_mmm() {
        let w = Workload::mmm(32).unwrap();
        let s = measure_throughput(w, Duration::from_millis(30)).unwrap();
        assert!(s.value > 0.0);
        assert!(s.iterations > 0);
        assert_eq!(s.unit, PerfUnit::GflopsPerSec);
    }

    #[test]
    fn measures_fft() {
        let w = Workload::fft(256).unwrap();
        let s = measure_throughput(w, Duration::from_millis(30)).unwrap();
        assert!(s.value > 0.0);
        assert_eq!(s.unit, PerfUnit::GflopsPerSec);
    }

    #[test]
    fn measures_black_scholes() {
        let w = Workload::black_scholes();
        let s = measure_throughput(w, Duration::from_millis(30)).unwrap();
        assert!(s.value > 0.0);
        assert_eq!(s.unit, PerfUnit::MoptsPerSec);
        assert!(s.units_per_second() > 0.0);
    }
}
