//! # ucore-core — Amdahl's Law for single-chip heterogeneous multicores
//!
//! This crate implements the analytical model of Chung, Milder, Hoe and Mai,
//! *"Single-Chip Heterogeneous Computing: Does the Future Include Custom
//! Logic, FPGAs, and GPGPUs?"* (MICRO 2010), which extends the multicore
//! model of Hill and Marty (*"Amdahl's Law in the Multicore Era"*) with:
//!
//! * **power budgets** — a sequential core of area `r` BCE (Base Core
//!   Equivalents) delivers `perf_seq(r) = √r` (Pollack's Law) and consumes
//!   `r^(α/2)` BCE units of power (α ≈ 1.75);
//! * **bandwidth budgets** — off-chip bandwidth consumption scales linearly
//!   with delivered performance, in units of the workload's *compulsory*
//!   bandwidth;
//! * **U-cores** — unconventional cores (custom logic, FPGAs, GPGPUs)
//!   characterized by a relative performance `µ` and relative power `φ`
//!   per BCE of area.
//!
//! The central question the model answers: given area, power and bandwidth
//! budgets `(A, P, B)` and a workload with parallel fraction `f`, what
//! speedup (relative to one BCE) can a symmetric, asymmetric,
//! asymmetric-offload, dynamic, or heterogeneous chip achieve, and which
//! resource limits it?
//!
//! ## Quick example
//!
//! ```
//! use ucore_core::{Budgets, ChipSpec, Optimizer, ParallelFraction, UCore};
//!
//! # fn main() -> Result<(), ucore_core::ModelError> {
//! // An ASIC-like U-core: 27.4x the performance of a BCE per unit area,
//! // at 0.79x the power.
//! let asic = UCore::new(27.4, 0.79)?;
//!
//! // A chip with 19 BCE of area, 7.4 BCE of power, lots of bandwidth.
//! let budgets = Budgets::new(19.0, 7.4, 1000.0)?;
//!
//! // Find the best sequential-core size for a 99%-parallel workload.
//! let f = ParallelFraction::new(0.99)?;
//! let opt = Optimizer::paper_default();
//! let best = opt.optimize(&ChipSpec::heterogeneous(asic), &budgets, f)?;
//! assert!(best.evaluation.speedup.get() > 1.0);
//! # Ok(())
//! # }
//! ```
//!
//! All speedups are relative to the performance of a single BCE core, all
//! power values are relative to the active power of a BCE core, and all
//! bandwidth values are relative to the compulsory bandwidth of the
//! workload running on one BCE.
//!
//! Two modules exist as independent checks on the model rather than as
//! figure inputs: [`hillmarty`] reproduces Hill and Marty's published
//! numbers, and [`mix`] is a second formulation of the optimal area
//! split that `tests/portfolio_equiv.rs` holds the Figure 11
//! [`portfolio`] allocator to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The model crate is panic-free by contract: every fallible path returns
// a typed ModelError. Keep it that way.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]

pub mod bounds;
pub mod budget;
pub mod cache;
pub mod chip;
pub mod energy;
pub mod error;
pub mod hillmarty;
pub mod mix;
pub mod optimize;
pub mod portfolio;
pub mod segments;
pub mod seq;
pub mod speedup;
pub mod ucore;
pub mod units;

pub use bounds::{BoundSet, Constraint, Infeasibility, Limiter};
pub use budget::Budgets;
pub use cache::{CacheStats, EvalCache, EvalKey, F64Key};
pub use chip::{ChipSpec, DesignPoint, Evaluation};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use error::{ErrorCategory, ModelError};
pub use mix::{MixedChip, UCorePartition};
pub use optimize::{OptimalDesign, Optimizer};
pub use portfolio::{Allocation, PortfolioChip};
pub use segments::{Segment, SegmentedWorkload, WEIGHT_SUM_TOLERANCE};
pub use seq::{PollackLaw, SequentialLaw, SerialPowerLaw, DEFAULT_ALPHA, SCENARIO_ALPHA};
pub use speedup::{
    amdahl, asymmetric, asymmetric_offload, dynamic, heterogeneous, symmetric,
};
pub use ucore::{UCore, UCoreClass};
pub use units::{ParallelFraction, Speedup};
