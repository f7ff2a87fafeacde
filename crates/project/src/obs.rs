//! The projection pipeline's registered observability instruments.
//!
//! Every counter the sweep/durability/journal layers maintain lives in
//! the process-wide [`ucore_obs`] registry under these names (the
//! metric-name contract documented in DESIGN.md §14):
//!
//! | name                | type      | meaning                                    |
//! |---------------------|-----------|--------------------------------------------|
//! | `points.submitted`  | counter   | sweep points submitted                     |
//! | `points.ok`         | counter   | feasible outcomes                          |
//! | `points.infeasible` | counter   | infeasible outcomes                        |
//! | `points.failed`     | counter   | contained failures                         |
//! | `points.retries`    | counter   | retry attempts consumed by this process    |
//! | `points.speedup`    | histogram | feasible speedups (data-derived)           |
//! | `sweep.batches`     | counter   | sweep batches run                          |
//! | `sweep.point_us`    | histogram | per-point evaluation wall time (µs)        |
//! | `journal.hits`      | counter   | points answered from a replayed journal    |
//! | `journal.stale`     | counter   | journaled records with a stale fingerprint |
//! | `journal.appends`   | counter   | records appended to the run journal        |
//! | `journal.syncs`     | counter   | successful journal fsyncs (every `SYNC_BATCH` appends, each sweep's end, shutdown), only when records are unsynced |
//! | `journal.write_errors` | counter | append failures (journaling degraded)     |
//! | `failures.retained` | counter   | diagnostics kept in the bounded log        |
//! | `failures.dropped`  | counter   | diagnostics dropped beyond the cap         |
//!
//! (`ucore-core` registers `cache.hits`/`cache.misses`/`cache.lookups`
//! and the `cache.entries` gauge for the global evaluation cache.)
//!
//! Everything except `sweep.point_us` is derived from run *data*, so
//! the values are identical on every run; `sweep.point_us` is
//! wall-clock timing and is excluded from golden comparisons by the
//! [`ucore_obs::is_timing_metric`] naming convention.

use std::sync::{Arc, OnceLock};
use ucore_obs::{Counter, Histogram};

/// Upper bounds (µs) for the per-point evaluation-time histogram.
const POINT_US_BOUNDS: [f64; 8] =
    [50.0, 100.0, 250.0, 500.0, 1000.0, 5000.0, 25000.0, 100000.0];

/// Upper bounds for the feasible-speedup histogram. Speedups are model
/// outputs (data, not timing), so these bucket counts are part of the
/// deterministic snapshot.
const SPEEDUP_BOUNDS: [f64; 8] = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0];

/// One `Arc` per instrument, resolved from the registry exactly once.
pub(crate) struct ProjectMetrics {
    pub(crate) submitted: Arc<Counter>,
    pub(crate) ok: Arc<Counter>,
    pub(crate) infeasible: Arc<Counter>,
    pub(crate) failed: Arc<Counter>,
    pub(crate) retries: Arc<Counter>,
    pub(crate) sweep_batches: Arc<Counter>,
    pub(crate) journal_hits: Arc<Counter>,
    pub(crate) journal_stale: Arc<Counter>,
    pub(crate) journal_appends: Arc<Counter>,
    pub(crate) journal_syncs: Arc<Counter>,
    pub(crate) journal_write_errors: Arc<Counter>,
    pub(crate) failures_retained: Arc<Counter>,
    pub(crate) failures_dropped: Arc<Counter>,
    pub(crate) speedup: Arc<Histogram>,
    pub(crate) point_us: Arc<Histogram>,
}

/// The crate's registered instruments.
pub(crate) fn metrics() -> &'static ProjectMetrics {
    static METRICS: OnceLock<ProjectMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = ucore_obs::registry();
        ProjectMetrics {
            submitted: r.counter("points.submitted"),
            ok: r.counter("points.ok"),
            infeasible: r.counter("points.infeasible"),
            failed: r.counter("points.failed"),
            retries: r.counter("points.retries"),
            sweep_batches: r.counter("sweep.batches"),
            journal_hits: r.counter("journal.hits"),
            journal_stale: r.counter("journal.stale"),
            journal_appends: r.counter("journal.appends"),
            journal_syncs: r.counter("journal.syncs"),
            journal_write_errors: r.counter("journal.write_errors"),
            failures_retained: r.counter("failures.retained"),
            failures_dropped: r.counter("failures.dropped"),
            speedup: r.histogram("points.speedup", &SPEEDUP_BOUNDS),
            point_us: r.histogram("sweep.point_us", &POINT_US_BOUNDS),
        }
    })
}
