//! `cargo bench`: times every registered bench through the one
//! protocol `repro --bench-snapshot` uses and prints `id  median` per
//! line. `UCORE_BENCH_BUDGET_MS` sets the per-bench budget.

use ucore_bench::snapshot::{budget_from_env, each_bench, measure, SnapshotError, TOPICS};

fn main() -> Result<(), SnapshotError> {
    let budget = budget_from_env();
    for topic in TOPICS {
        each_bench(topic, &mut |id, f| {
            let entry = measure(id, budget, f);
            println!("{id:<44} {:>14.1} ns", entry.median_ns);
        })?;
    }
    Ok(())
}
