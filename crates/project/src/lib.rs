//! # ucore-project — the scaling projections
//!
//! Section 6 of the paper: calibrated U-core parameters plus the ITRS
//! 2009 roadmap, swept across technology nodes, parallel fractions, and
//! chip organizations, under area / power / bandwidth budgets.
//!
//! * [`scenario`] — the baseline study configuration and the §6.2
//!   alternatives (bandwidth, area, power, serial-power variations);
//! * [`engine`] — the projection engine: budgets per node, optimal
//!   sequential-core sizing, limiting-constraint classification;
//! * [`sweep`](mod@sweep) — the sweep engine: resolves a figure's
//!   `(f, design, node)` grid in submission order on the caller's
//!   thread, backed by the process-wide memoization cache
//!   ([`ucore_core::EvalCache`]);
//! * [`contain`](mod@contain) — the panic-containment envelope shared by
//!   sweep points and served requests;
//! * [`figures`] — ready-made reproductions of Figures 6, 7, 8, 9
//!   and 10, assembled via the sweep engine;
//! * [`results`] — serializable result structures for export;
//! * [`journal`] — the append-only, checksummed run journal (and the
//!   [`atomic_write`] helper for crash-safe artifacts);
//! * [`durability`] — the [`RunContext`] a sweep runs under:
//!   checkpoint/resume, retry-with-backoff, the shard lease and the
//!   fault plan;
//! * [`shard`] — multi-process sweep sharding: index-range leases,
//!   worker-crash/stall tolerance with bounded lease reassignment, and
//!   the deterministic shard-journal merge.
//!
//! ## Durability & recovery
//!
//! A sweep runs under a [`RunContext`] opened from a
//! [`DurabilityConfig`]: passed to [`sweep_in`], or installed for every
//! figure with [`durability::activate`]. With a journal configured,
//! every completed point streams to an append-only, CRC-framed journal
//! and an interrupted run can be resumed: replayed points are not
//! re-evaluated, and because the journal stores exact `f64` bit
//! patterns and retry counts, the resumed run's figure JSON is
//! **byte-identical** to an uninterrupted run. Failed points retry with
//! exponential backoff and deterministic jitter.
//!
//! ## Sharded execution
//!
//! A sweep runs on its caller's thread; parallelism comes from sharding
//! it across *processes*: [`ShardSpec::lease`] assigns worker `i` of `n`
//! a contiguous index range of every sweep, each worker journals only
//! its lease, and [`merge_journals`] folds the shard journals into one
//! index-sorted journal whose replay reproduces the single-process
//! figure bytes exactly. [`orchestrate`] runs the whole fleet: it spawns the
//! workers, watches journal-growth heartbeats, reassigns a crashed or
//! stalled worker's lease with bounded deterministic backoff, and
//! degrades gracefully — an abandoned lease's points are simply evaluated
//! in-process from the merged journal's gaps.
//!
//! ## Caching and determinism
//!
//! Design-point evaluation is a pure function of `(optimizer, spec,
//! budgets, f)`, so the engine memoizes every outcome — feasible or
//! infeasible — in a process-wide table keyed on the canonicalized bit
//! patterns of all inputs. Figures resolve their grids in submission
//! order on the caller's thread (see [`sweep`](mod@sweep)), so rendered and
//! exported output is bit-identical across cache states, shard counts
//! and repeated runs.
//!
//! ```
//! use ucore_project::{figures, Scenario};
//!
//! let fig6 = figures::figure6()?;
//! assert_eq!(fig6.panels.len(), 4); // f = 0.5, 0.9, 0.99, 0.999
//! # Ok::<(), ucore_project::ProjectionError>(())
//! ```

// Deny, not forbid: `durability::signals` holds the signal(2) FFI.
#![deny(unsafe_code)]
#![warn(missing_docs)]
// Failures on the projection path must flow through the Outcome /
// ProjectionError taxonomy, never abort the process. The few remaining
// intentional sites carry a local #[expect] with its reason.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]

pub mod contain;
pub mod crossover;
pub mod durability;
pub mod engine;
pub mod faultinject;
pub mod figures;
pub mod journal;
mod obs;
pub mod results;
pub mod scenario;
pub mod shard;
pub mod sweep;

pub use contain::contain;
pub use crossover::{f_crossover, node_crossover, paper_crossovers, CrossoverRecord};
pub use durability::{
    arm_request_deadline, backoff_delay, durability_totals, request_deadline_expired,
    DurabilityConfig, DurabilityError, DurabilityGuard, DurabilityTotals,
    RequestDeadlineGuard, RunContext,
};
pub use engine::{
    DesignId, PortfolioDesign, ProjectionEngine, ProjectionError, YearPoint,
};
pub use journal::{
    atomic_write, atomic_write_with, point_fingerprint, read_records, JournalError,
    JournalRecord, JournalWriter, ReplayReport,
};
pub use results::{FailureRecord, FigureData, NodePoint, Panel, Series, SweepHealth};
pub use scenario::Scenario;
pub use shard::{
    lease_ranges, merge_journals, orchestrate, shard_journal_path, shard_log_path,
    MergeReport, OrchestratorConfig, ShardError, ShardOutcome, ShardRunReport, ShardSpec,
};
pub use sweep::{
    failure_diagnostics, failures_dropped, figure_points, outcome_totals, sweep, sweep_in,
    FailureDiagnostic, Outcome, OutcomeTotals, SweepConfig, SweepPoint, SweepResult,
    SweepStats, MAX_RETAINED_FAILURES,
};
