//! The observability clocks: a global monotonic tick and the crate's
//! single wall-clock channel.
//!
//! Every span event carries both timestamps. The **tick** is a global
//! atomic counter, so it totally orders events across threads and is
//! what the [`profile`](crate::profile) reducer sorts by — it is cheap,
//! monotonic, and has no wall-clock nondeterminism. The **wall-clock
//! nanoseconds** are real elapsed time since the first read in the
//! process; they are what makes a profile *mean* anything, and they are
//! confined to this module so the crate's clippy wall-clock ban has
//! exactly one reasoned `#[expect]` site to audit: wall time read here
//! flows only into span events and timing-suffixed metrics
//! ([`is_timing_metric`](crate::metrics::is_timing_metric)), never into
//! figure output bytes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static TICKS: AtomicU64 = AtomicU64::new(0);

/// Claims the next global monotonic tick. Ticks are unique and totally
/// ordered across threads; they carry no wall-clock information.
pub fn tick() -> u64 {
    TICKS.fetch_add(1, Ordering::Relaxed)
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds of wall time elapsed since the process's first call.
///
/// This is the crate's only wall-clock read. Values are observability
/// payload exclusively — span timestamps and `_ns`/`_us`/`_ms` metric
/// observations — and are filtered out of every golden comparison.
pub fn wall_ns() -> u64 {
    #[expect(
        clippy::disallowed_methods,
        reason = "this is the one sanctioned wall-clock channel; values feed span events and \
                  timing metrics only, never serialized figure output"
    )]
    let epoch = *EPOCH.get_or_init(Instant::now);
    #[expect(
        clippy::disallowed_methods,
        reason = "same observability-only channel as the epoch read above"
    )]
    let now = Instant::now();
    now.saturating_duration_since(epoch).as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_strictly_increasing() {
        let a = tick();
        let b = tick();
        assert!(b > a);
    }

    #[test]
    fn wall_ns_is_monotone() {
        let a = wall_ns();
        let b = wall_ns();
        assert!(b >= a);
    }
}
