//! # ucore-devices — the measured-device catalog and technology arithmetic
//!
//! This crate is the "Table 2" substrate of the reproduction: the six
//! devices whose measured performance and power calibrate the model
//! (Core i7-960, GTX285, GTX480, Radeon R5870, Virtex-6 LX760, and the
//! synthesized 65 nm ASIC cores), plus the technology-node arithmetic the
//! paper uses to compare them fairly:
//!
//! * **area normalization** — perf/mm² comparisons are made "in
//!   40nm/45nm": devices in older nodes have their core area scaled by the
//!   square of the feature-size ratio, while 45 nm is treated as the same
//!   generation as 40 nm;
//! * **non-compute subtraction** — die photos (or a 25% assumption for the
//!   R5870) remove memory controllers and I/O from the area;
//! * **FPGA LUT accounting** — FPGA area is the LUTs a design occupies
//!   times 0.00191 mm² per LUT (flip-flops, RAMs, multipliers and
//!   interconnect amortized in);
//! * **the BCE reference** — an Intel-Atom-like in-order core
//!   (26 mm² in 45 nm, 10% non-compute) defines the Base Core Equivalent,
//!   making one Core i7 core worth `r = 2` BCE.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-freedom: model code returns typed errors; `unwrap`/`expect`
// and the panicking macros stay legal in `#[cfg(test)]` code only.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]

pub mod bce;
pub mod catalog;
pub mod device;
pub mod fpga;
pub mod tech;

pub use bce::BceReference;
pub use catalog::Catalog;
pub use device::{Device, DeviceClass, DeviceError, DeviceId, DeviceSpec};
pub use fpga::FpgaAreaModel;
pub use tech::TechNode;
