//! # ucore — single-chip heterogeneous computing, modeled
//!
//! A reproduction of Chung, Milder, Hoe and Mai, *"Single-Chip
//! Heterogeneous Computing: Does the Future Include Custom Logic, FPGAs,
//! and GPGPUs?"* (MICRO 2010), packaged as a reusable Rust workspace.
//!
//! This facade crate re-exports every subsystem:
//!
//! * [`model`] — the extended Amdahl's-law model (speedup formulas,
//!   Table 1 bounds, the `r` optimizer, the energy model).
//! * [`devices`] — the measured-device catalog (Table 2) and
//!   technology-node arithmetic.
//! * [`workloads`] — executable MMM / FFT / Black-Scholes kernels with
//!   verified FLOP counts and arithmetic-intensity formulas.
//! * [`simdev`] — the simulated measurement lab (roofline execution,
//!   power breakdowns, bandwidth counters) standing in for the authors'
//!   hardware.
//! * [`itrs`] — the ITRS 2009 scaling roadmap (Table 6, Figure 5).
//! * [`calibrate`] — derivation of U-core `(µ, φ)` parameters (Table 5).
//! * [`project`] — the scaling projections (Figures 6–10 and the §6.2
//!   alternative scenarios), with a durable sweep orchestrator:
//!   checkpoint/resume run journal, per-request deadlines,
//!   deterministic retry-with-backoff, and crash-safe atomic exports.
//! * [`report`] — ASCII tables/charts and CSV export used by the
//!   reproduction binaries.
//! * [`obs`] — the deterministic observability layer: a typed metrics
//!   registry, structured span tracing into a bounded ring buffer, and
//!   a span-profile reducer. Guaranteed to never perturb figure output
//!   bytes (`repro --metrics/--trace/--profile`).
//! * [`error`] — the workspace-wide error taxonomy: [`UcoreError`]
//!   unifies every subsystem's typed error behind one `?`-composable
//!   type.
//!
//! ## Quickstart
//!
//! ```
//! use ucore::model::{Budgets, ChipSpec, Optimizer, ParallelFraction, UCore};
//!
//! # fn main() -> Result<(), ucore::model::ModelError> {
//! // Table 5: the ASIC running MMM is a (mu = 27.4, phi = 0.79) u-core.
//! let asic = UCore::new(27.4, 0.79)?;
//! let chip = ChipSpec::heterogeneous(asic);
//!
//! // 40 nm budgets: 19 BCE of area, 7.4 BCE of power, ample bandwidth.
//! let budgets = Budgets::new(19.0, 7.4, 10_000.0)?;
//! let f = ParallelFraction::new(0.99)?;
//!
//! let best = Optimizer::paper_default().optimize(&chip, &budgets, f)?;
//! println!("speedup {} with r = {}", best.evaluation.speedup, best.evaluation.r);
//! # Ok(())
//! # }
//! ```

pub mod error;

pub use error::UcoreError;

pub use ucore_calibrate as calibrate;
pub use ucore_core as model;
pub use ucore_devices as devices;
pub use ucore_itrs as itrs;
pub use ucore_obs as obs;
pub use ucore_project as project;
pub use ucore_report as report;
pub use ucore_simdev as simdev;
pub use ucore_workloads as workloads;
