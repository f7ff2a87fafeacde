//! Property tests: the memoized sweep is *exactly* equivalent to the
//! uncached path.
//!
//! Equivalence here means bit-for-bit equality of every produced
//! `OptimalDesign` / `NodePoint` — not approximate agreement. Both
//! paths run the same pure evaluation, so any divergence (a cache key
//! missing an input, say) shows up as inequality on some randomized
//! input.

use proptest::prelude::*;
use std::sync::Arc;
use ucore_calibrate::WorkloadColumn;
use ucore_core::{
    Budgets, ChipSpec, EvalCache, Optimizer, ParallelFraction, UCore,
};
use ucore_project::sweep::{figure_points, sweep, SweepConfig};
use ucore_project::{DesignId, ProjectionEngine, Scenario};

fn fraction() -> impl Strategy<Value = ParallelFraction> {
    (0.0..=0.9999f64).prop_map(|v| ParallelFraction::new(v).unwrap())
}

fn budgets() -> impl Strategy<Value = Budgets> {
    (2.0..600.0f64, 1.0..150.0f64, 2.0..2000.0f64)
        .prop_map(|(a, p, b)| Budgets::new(a, p, b).unwrap())
}

fn ucore() -> impl Strategy<Value = UCore> {
    (0.05..600.0f64, 0.05..12.0f64).prop_map(|(mu, phi)| UCore::new(mu, phi).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A memoized optimize returns exactly what a direct optimize
    /// returns, for randomized budgets, U-core (µ, φ), and f — on both
    /// the first (miss) and second (hit) lookup, errors included.
    #[test]
    fn cached_optimize_is_bit_identical(
        b in budgets(),
        u in ucore(),
        f in fraction(),
    ) {
        let optimizer = Optimizer::paper_default();
        let spec = ChipSpec::heterogeneous(u);
        let direct = optimizer.optimize(&spec, &b, f);
        let cache = EvalCache::new();
        let miss = cache.optimize(&optimizer, &spec, &b, f);
        let hit = cache.optimize(&optimizer, &spec, &b, f);
        prop_assert_eq!(&direct, &miss);
        prop_assert_eq!(&direct, &hit);
        let stats = cache.stats();
        prop_assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    /// The same, for the non-heterogeneous organizations.
    #[test]
    fn cached_optimize_matches_for_cmp_designs(
        b in budgets(),
        f in fraction(),
        which in 0usize..4,
    ) {
        let spec = [
            ChipSpec::symmetric(),
            ChipSpec::asymmetric(),
            ChipSpec::asymmetric_offload(),
            ChipSpec::dynamic(),
        ][which];
        let optimizer = Optimizer::paper_default();
        let cache = EvalCache::new();
        prop_assert_eq!(
            optimizer.optimize(&spec, &b, f),
            cache.optimize(&optimizer, &spec, &b, f)
        );
    }
}

proptest! {
    // Full-engine sweeps are heavier; fewer cases keep the suite quick.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A cached sweep over a randomized figure grid returns exactly the
    /// same outcome per point as the uncached sweep — same indices, same
    /// `NodePoint`s, same infeasible cells.
    #[test]
    fn cached_sweep_equals_uncached(
        f1 in 0.0..=0.9999f64,
        f2 in 0.0..=0.9999f64,
        column_idx in 0usize..3,
    ) {
        let column = [
            WorkloadColumn::Fft1024,
            WorkloadColumn::Mmm,
            WorkloadColumn::Bs,
        ][column_idx];
        let engine = ProjectionEngine::with_cache(
            Scenario::baseline(),
            Arc::new(EvalCache::new()),
        )
        .unwrap();
        let designs = DesignId::for_column(engine.table5(), column);
        let points = figure_points(&engine, &designs, column, &[f1, f2]).unwrap();

        let (uncached, _) =
            sweep(&engine, points.clone(), &SweepConfig { use_cache: false });
        // Run the cached sweep twice: once cold, once fully memoized.
        // Both must match the uncached result exactly.
        let config = SweepConfig::default();
        let (cold, _) = sweep(&engine, points.clone(), &config);
        let (warm, warm_stats) = sweep(&engine, points, &config);

        prop_assert_eq!(uncached.len(), cold.len());
        for (s, p) in uncached.iter().zip(&cold) {
            prop_assert_eq!(s.index, p.index);
            prop_assert_eq!(&s.outcome, &p.outcome);
        }
        for (s, p) in uncached.iter().zip(&warm) {
            prop_assert_eq!(&s.outcome, &p.outcome);
        }
        prop_assert_eq!(warm_stats.cache_misses, 0);
    }
}
