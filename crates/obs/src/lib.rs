//! # ucore-obs — the deterministic observability layer
//!
//! Counters, gauges, histograms, structured spans, and a span-profile
//! reducer for the sweep stack. The design constraint that shapes
//! everything here is the workspace's determinism contract (DESIGN.md
//! §10/§12): a figure's output bytes must not depend on thread count,
//! scheduling, or whether observability is enabled at all. This crate
//! therefore splits observability state into two strictly separated
//! channels:
//!
//! * **Deterministic** — every [`metrics`] value that is derived from
//!   the *data* of a run (outcome counts, cache activity, value-domain
//!   histograms) is identical at any thread count, and the registry
//!   [`MetricsSnapshot`] renders it in `BTreeMap` order with exact
//!   shortest-roundtrip `f64` formatting.
//! * **Observability-only wall time** — the *only* wall-clock reads in
//!   the crate live in [`clock`], behind a reasoned
//!   `#[expect(clippy::disallowed_methods)]`. Wall-clock values flow exclusively into span events
//!   and timing histograms, never into output bytes.
//!
//! [`trace`] provides the `span!` guard API: enter/exit events keyed by
//! `(sweep_seq, index, depth)` with a global monotonic tick for total
//! ordering, recorded into an append-only ring buffer that survives
//! contained worker panics (the guard emits its exit event from `Drop`,
//! which runs during unwinding). [`profile`] folds a recorded trace
//! into a per-phase self/total table and a `flamegraph.pl`-compatible
//! folded-stack text.
//!
//! ```
//! let registry = ucore_obs::registry();
//! let hits = registry.counter("example.hits");
//! hits.inc();
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("example.hits"), 1);
//! assert!(snap.render_prometheus().contains("ucore_example_hits 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Observability must never take a run down: no panics on this path.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
// Snapshots and traces are diffed byte-for-byte in golden tests: no wall
// clock (outside `clock::wall_ns`), no hash-ordered containers.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod clock;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use metrics::{
    is_timing_metric, registry, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue,
    MetricsSnapshot, Registry,
};
pub use profile::{PhaseProfile, ProfileReport};
pub use trace::{SpanEvent, SpanGuard, SpanKind, Trace, TraceError, TraceGuard};
