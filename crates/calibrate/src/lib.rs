//! # ucore-calibrate — from measurements to model parameters
//!
//! The bridge between the lab (`ucore-simdev`) and the analytical model
//! (`ucore-core`):
//!
//! 1. **BCE anchoring** ([`bce`]): the Core i7 measurement plus the
//!    Atom-derived `r = 2` pin down the Base Core Equivalent's absolute
//!    throughput, power, and compulsory bandwidth for each workload;
//! 2. **U-core derivation** ([`params`], footnote 1 of the paper):
//!    `µ = x_u / (x_i7·√r)` and `φ = µ·e_i7 / (r^((1−α)/2)·e_u)` where
//!    `x` is perf/mm² (40 nm-normalized) and `e` is perf/W;
//! 3. **Table 5** ([`table5`]): the full grid of `(µ, φ)` for five
//!    devices × five workload columns.
//!
//! ```
//! use ucore_calibrate::Table5;
//! use ucore_devices::DeviceId;
//! use ucore_calibrate::WorkloadColumn;
//!
//! let table = Table5::derive()?;
//! let asic_mmm = table.ucore(DeviceId::Asic, WorkloadColumn::Mmm).unwrap();
//! assert!((asic_mmm.mu() - 27.4).abs() < 0.2); // published: 27.4
//! # Ok::<(), ucore_calibrate::CalibrationError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-freedom: model code returns typed errors; `unwrap`/`expect`
// and the panicking macros stay legal in `#[cfg(test)]` code only.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]

pub mod bce;
pub mod composite;
pub mod params;
pub mod sensitivity;
pub mod table5;

pub use bce::BceCalibration;
pub use composite::{composite_workload, COMPOSITE_COLUMNS};
pub use params::{derive_ucore, CalibrationError, CALIBRATION_ALPHA, CALIBRATION_R};
pub use sensitivity::{mu_ranking, table5_with_conventions};
pub use table5::{Table5, Table5Row, WorkloadColumn};
