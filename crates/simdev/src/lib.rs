//! # ucore-simdev — the simulated measurement lab
//!
//! The paper calibrates its model by *measuring* tuned kernels on real
//! hardware: current probes on supply rails, GPU performance counters,
//! microbenchmarks that subtract uncore power, and a commercial synthesis
//! flow for the ASIC cores. None of that hardware is available here, so
//! this crate builds the closest synthetic equivalent:
//!
//! * [`data`] — the calibrated per-device, per-workload observables
//!   (absolute throughput, area-normalized throughput, energy
//!   efficiency), anchored to the paper's published Tables 4 and 5 and
//!   interpolated across FFT sizes;
//! * [`roofline`] — the compute-vs-bandwidth attainable-performance
//!   model that decides when a device stops being compute-bound;
//! * [`measure`] — [`measure::SimLab`], the top-level "lab" that
//!   produces steady-state measurements (Figures 2–4, Table 4);
//! * [`power`] — the power-breakdown model behind Figure 3 and the
//!   microbenchmark-style uncore subtraction of §4.2;
//! * [`probe`] — a simulated current probe with deterministic noise and
//!   steady-state averaging;
//! * [`counters`] — simulated off-chip bandwidth counters, including the
//!   GTX285's on-chip-capacity transition at FFT size 2^12 (Figure 4).
//!
//! The ASIC cells have no synthesis-flow stand-in: like every other
//! device, they come from the published observables in [`data`].
//!
//! Everything downstream (calibration, projection) consumes only the
//! observables this lab produces, exactly as the paper's model consumes
//! only its measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-freedom: model code returns typed errors; `unwrap`/`expect`
// and the panicking macros stay legal in `#[cfg(test)]` code only.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]

pub mod counters;
pub mod data;
pub mod measure;
pub mod power;
pub mod probe;
pub mod roofline;

pub use data::{DeviceWorkloadData, MeasuredTable};
pub use measure::{Measurement, SimLab, SimLabError};
pub use power::{PowerBreakdown, PowerModel};
pub use roofline::{Roofline, RooflineVerdict};
