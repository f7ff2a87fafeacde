//! # ucore-itrs — the ITRS 2009 scaling roadmap
//!
//! The paper's projections (Section 6) rest on the International
//! Technology Roadmap for Semiconductors, 2009 edition, distilled into:
//!
//! * **Table 6** — per-node budgets and scale factors for the five
//!   projection nodes 40/32/22/16/11 nm (2011–2022): a fixed 432 mm²
//!   core-area budget, a fixed 100 W core power budget, off-chip
//!   bandwidth growing only 1.4× in fifteen years, transistor density
//!   doubling per node, and power per transistor shrinking only 4×;
//! * **Figure 5** — the long-term normalized trends behind those factors
//!   (package pins, Vdd, gate capacitance, combined power reduction).
//!
//! ```
//! use ucore_itrs::Roadmap;
//! use ucore_devices::TechNode;
//!
//! let roadmap = Roadmap::itrs_2009();
//! let n11 = roadmap.node(TechNode::N11).unwrap();
//! assert_eq!(n11.max_area_bce, 298.0);
//! assert_eq!(n11.rel_power_per_transistor, 0.25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-freedom: model code returns typed errors; `unwrap`/`expect`
// and the panicking macros stay legal in `#[cfg(test)]` code only.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]

pub mod roadmap;
pub mod trends;

pub use roadmap::{NodeParams, Roadmap, RoadmapError};
pub use trends::{Trend, TrendPoint, TrendSeries};
