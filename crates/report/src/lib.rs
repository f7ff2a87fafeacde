//! # ucore-report — presentation helpers for the reproduction harness
//!
//! Small, dependency-light rendering utilities used by the `repro`
//! binary and the examples:
//!
//! * [`table`] — monospaced ASCII tables with per-column alignment;
//! * [`chart`] — ASCII line charts (one glyph per series) for the
//!   figure reproductions;
//! * [`csv`] — minimal CSV writing with correct quoting;
//! * [`markdown`] — GitHub-flavored markdown tables for documentation
//!   exports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-freedom: model code returns typed errors; `unwrap`/`expect`
// and the panicking macros stay legal in `#[cfg(test)]` code only.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
// Every renderer produces output bytes: no wall clock, no hash-ordered containers.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod chart;
pub mod csv;
pub mod markdown;
pub mod table;

pub use chart::Chart;
pub use csv::CsvWriter;
pub use markdown::MarkdownTable;
pub use table::{Align, Table};
