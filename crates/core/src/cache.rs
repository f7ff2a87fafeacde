//! Memoized design-point evaluation.
//!
//! An [`Optimizer::optimize`] call is a pure function of its inputs — the
//! sweep parameters, the chip organization and its laws, the budgets, and
//! the parallel fraction — so its result can be memoized. The projection
//! figures and §6.2 scenarios re-evaluate many identical points (the same
//! `(design, node, f)` triple appears in several figures, and the
//! design-space maps revisit grid cells during bisection), which makes a
//! process-wide cache worthwhile.
//!
//! The cache key is [`EvalKey`], built from the *canonicalized bit
//! patterns* of every `f64` input via [`F64Key`]. Canonicalization maps
//! `-0.0` to `0.0` and every NaN to one canonical NaN so that inputs that
//! compare equal (or are equally poisonous) hash equally; otherwise keys
//! are exact — two budgets that differ in the last ulp are distinct
//! design points, never aliased.
//!
//! [`EvalCache`] stores full `Result` values: infeasible points are
//! memoized too, which matters because the projection sweeps probe many
//! infeasible `(design, node)` cells under the tight §6.2 budgets.

use crate::budget::Budgets;
use crate::chip::{ChipKind, ChipSpec};
use crate::error::ModelError;
use crate::optimize::{OptimalDesign, Optimizer};
use crate::units::ParallelFraction;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use ucore_obs::{Counter, Gauge};

/// An `f64` reduced to hashable canonical bits.
///
/// `f64` is neither `Eq` nor `Hash`; this newtype makes model inputs
/// (budgets, fractions, law exponents) usable as `HashMap` keys by
/// canonicalizing the bit pattern: `-0.0` becomes `+0.0` and every NaN
/// becomes the canonical quiet NaN. All other values keep their exact
/// bits, so distinct finite inputs are never conflated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct F64Key(u64);

impl F64Key {
    /// The canonical key for `x`.
    pub fn new(x: f64) -> Self {
        // Exact-bits intent, so the comparison is on bits too: -0.0
        // collapses onto +0.0 (whose bit pattern is 0), and every NaN
        // payload collapses onto the canonical quiet NaN.
        let bits = x.to_bits();
        if bits == (-0.0f64).to_bits() {
            F64Key(0)
        } else if x.is_nan() {
            F64Key(f64::NAN.to_bits())
        } else {
            F64Key(bits)
        }
    }

    /// The canonicalized bit pattern.
    pub fn bits(&self) -> u64 {
        self.0
    }
}

impl From<f64> for F64Key {
    fn from(x: f64) -> Self {
        F64Key::new(x)
    }
}

impl From<ParallelFraction> for F64Key {
    fn from(f: ParallelFraction) -> Self {
        F64Key::new(f.get())
    }
}

impl From<&Budgets> for [F64Key; 3] {
    fn from(b: &Budgets) -> Self {
        [F64Key::new(b.area()), F64Key::new(b.power()), F64Key::new(b.bandwidth())]
    }
}

/// The complete identity of one `optimize` call: everything the result
/// depends on, in canonical-bits form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EvalKey {
    // Optimizer sweep parameters.
    r_min: F64Key,
    r_max: F64Key,
    r_step: F64Key,
    // Chip organization: discriminant plus the U-core's (µ, φ) when
    // heterogeneous (zero otherwise — the discriminant disambiguates).
    kind: u8,
    mu: F64Key,
    phi: F64Key,
    // Laws.
    pollack_exponent: F64Key,
    alpha: F64Key,
    bw_exponent: F64Key,
    // Budgets and workload.
    budgets: [F64Key; 3],
    f: F64Key,
}

impl EvalKey {
    /// Builds the key for `optimizer.optimize(spec, budgets, f)`.
    pub fn new(
        optimizer: &Optimizer,
        spec: &ChipSpec,
        budgets: &Budgets,
        f: ParallelFraction,
    ) -> Self {
        let (kind, mu, phi) = match spec.kind() {
            ChipKind::Symmetric => (0, 0.0, 0.0),
            ChipKind::Asymmetric => (1, 0.0, 0.0),
            ChipKind::AsymmetricOffload => (2, 0.0, 0.0),
            ChipKind::Dynamic => (3, 0.0, 0.0),
            ChipKind::Heterogeneous(u) => (4, u.mu(), u.phi()),
        };
        EvalKey {
            r_min: optimizer.r_min().into(),
            r_max: optimizer.r_max().into(),
            r_step: optimizer.r_step().into(),
            kind,
            mu: mu.into(),
            phi: phi.into(),
            pollack_exponent: spec.law().exponent().into(),
            alpha: spec.power_law().alpha().into(),
            bw_exponent: spec.bandwidth_exponent().into(),
            budgets: budgets.into(),
            f: f.into(),
        }
    }
}

/// Counters describing a cache's activity so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the optimizer (equals evaluations performed).
    pub misses: u64,
    /// Distinct design points currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (0 when none).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// A thread-safe memo table for [`Optimizer::optimize`] results.
///
/// Both feasible and infeasible outcomes are stored. Reads take a shared
/// lock; the first evaluation of a point runs *outside* any lock (the
/// optimizer sweep is the expensive part) and then takes the exclusive
/// lock only to insert, so concurrent sweeps scale.
///
/// Activity counters are [`ucore_obs`] instruments. A private cache
/// ([`EvalCache::new`]) carries detached instruments, so tests keep
/// exact per-instance stats; the [`EvalCache::global`] cache registers
/// its instruments in the process-wide metrics registry as
/// `cache.hits`, `cache.misses`, `cache.lookups`, and the
/// `cache.entries` gauge, making `repro --stats` a rendered view of the
/// registry.
#[derive(Debug)]
pub struct EvalCache {
    map: RwLock<HashMap<EvalKey, Result<OptimalDesign, ModelError>>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    lookups: Arc<Counter>,
    entries: Arc<Gauge>,
}

impl Default for EvalCache {
    fn default() -> Self {
        EvalCache {
            map: RwLock::new(HashMap::new()),
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            lookups: Arc::new(Counter::new()),
            entries: Arc::new(Gauge::new()),
        }
    }
}

impl EvalCache {
    /// An empty cache with detached (unregistered) instruments.
    pub fn new() -> Self {
        EvalCache::default()
    }

    /// The process-wide cache shared by the projection figures and
    /// scenarios (and anything else that opts in). Its counters are
    /// registered in the global metrics registry under `cache.*`.
    pub fn global() -> &'static Arc<EvalCache> {
        static GLOBAL: OnceLock<Arc<EvalCache>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let registry = ucore_obs::registry();
            Arc::new(EvalCache {
                map: RwLock::new(HashMap::new()),
                hits: registry.counter("cache.hits"),
                misses: registry.counter("cache.misses"),
                lookups: registry.counter("cache.lookups"),
                entries: registry.gauge("cache.entries"),
            })
        })
    }

    /// Memoized [`Optimizer::optimize`]: returns the cached result for
    /// this exact `(optimizer, spec, budgets, f)` point, evaluating and
    /// storing it on first sight.
    ///
    /// # Errors
    ///
    /// Exactly the errors `Optimizer::optimize` returns for these inputs
    /// (cached like successes).
    pub fn optimize(
        &self,
        optimizer: &Optimizer,
        spec: &ChipSpec,
        budgets: &Budgets,
        f: ParallelFraction,
    ) -> Result<OptimalDesign, ModelError> {
        let key = EvalKey::new(optimizer, spec, budgets, f);
        if let Some(cached) = self.map.read().get(&key) {
            self.hits.inc();
            self.lookups.inc();
            return cached.clone();
        }
        let result = optimizer.optimize(spec, budgets, f);
        self.misses.inc();
        self.lookups.inc();
        // A racing thread may have inserted the same key meanwhile; both
        // computed the same pure function, so either value is correct.
        let mut map = self.map.write();
        map.insert(key, result.clone());
        // Published under the write lock, so the gauge settles on the
        // final map size.
        self.entries.set(map.len() as f64);
        drop(map);
        result
    }

    /// Activity counters and current size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries: self.map.read().len(),
        }
    }

    /// Drops all stored entries (counters keep accumulating).
    pub fn clear(&self) {
        let mut map = self.map.write();
        map.clear();
        self.entries.set(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ucore::UCore;

    fn f(v: f64) -> ParallelFraction {
        ParallelFraction::new(v).unwrap()
    }

    #[test]
    fn f64key_canonicalizes_zero_and_nan() {
        assert_eq!(F64Key::new(0.0), F64Key::new(-0.0));
        assert_eq!(F64Key::new(f64::NAN), F64Key::new(-f64::NAN));
        assert_ne!(F64Key::new(1.0), F64Key::new(1.0 + f64::EPSILON));
    }

    #[test]
    fn f64key_unifies_every_nan_payload() {
        // Regression for the bits-based rewrite: every NaN bit pattern —
        // quiet or signaling, any payload, either sign — must collapse to
        // the one canonical NaN key, while non-NaN patterns stay exact.
        for bits in [0x7ff8_0000_dead_beefu64, 0x7ff0_0000_0000_0001, 0xfff8_1234_5678_9abc] {
            let nan = f64::from_bits(bits);
            assert!(nan.is_nan());
            assert_eq!(F64Key::new(nan), F64Key::new(f64::NAN), "payload {bits:#x}");
        }
        // -0.0 folds into +0.0 yet stays distinct from the smallest
        // subnormal one bit away.
        assert_eq!(F64Key::new(-0.0), F64Key::new(0.0));
        assert_ne!(F64Key::new(0.0), F64Key::new(f64::from_bits(1)));
    }

    #[test]
    fn cached_result_matches_direct_call() {
        let cache = EvalCache::new();
        let opt = Optimizer::paper_default();
        let spec = ChipSpec::heterogeneous(UCore::new(27.4, 0.79).unwrap());
        let budgets = Budgets::new(111.0, 29.0, 85.0).unwrap();
        let direct = opt.optimize(&spec, &budgets, f(0.99)).unwrap();
        let first = cache.optimize(&opt, &spec, &budgets, f(0.99)).unwrap();
        let second = cache.optimize(&opt, &spec, &budgets, f(0.99)).unwrap();
        assert_eq!(direct, first);
        assert_eq!(direct, second);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn infeasible_outcomes_are_cached_too() {
        let cache = EvalCache::new();
        let opt = Optimizer::paper_default();
        let spec = ChipSpec::symmetric();
        // Power 0.5 rejects even r = 1 in the serial phase.
        let budgets = Budgets::new(64.0, 0.5, 100.0).unwrap();
        assert!(cache.optimize(&opt, &spec, &budgets, f(0.5)).is_err());
        assert!(cache.optimize(&opt, &spec, &budgets, f(0.5)).is_err());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn distinct_points_get_distinct_entries() {
        let cache = EvalCache::new();
        let opt = Optimizer::paper_default();
        let budgets = Budgets::new(64.0, 100.0, 100.0).unwrap();
        for spec in [ChipSpec::symmetric(), ChipSpec::asymmetric_offload()] {
            for fv in [0.5, 0.9, 0.99] {
                cache.optimize(&opt, &spec, &budgets, f(fv)).unwrap();
            }
        }
        assert_eq!(cache.stats().entries, 6);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        // Counters survive a clear.
        assert_eq!(cache.stats().misses, 6);
    }

    #[test]
    fn key_distinguishes_ucores_and_laws() {
        let opt = Optimizer::paper_default();
        let budgets = Budgets::new(64.0, 100.0, 100.0).unwrap();
        let a = ChipSpec::heterogeneous(UCore::new(10.0, 0.5).unwrap());
        let b = ChipSpec::heterogeneous(UCore::new(10.0, 0.6).unwrap());
        assert_ne!(
            EvalKey::new(&opt, &a, &budgets, f(0.9)),
            EvalKey::new(&opt, &b, &budgets, f(0.9))
        );
        let c = a.with_bandwidth_exponent(0.8);
        assert_ne!(
            EvalKey::new(&opt, &a, &budgets, f(0.9)),
            EvalKey::new(&opt, &c, &budgets, f(0.9))
        );
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = EvalCache::new();
        let opt = Optimizer::paper_default();
        let spec = ChipSpec::asymmetric_offload();
        let budgets = Budgets::new(111.0, 29.0, 85.0).unwrap();
        let baseline = opt.optimize(&spec, &budgets, f(0.9)).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let got = cache.optimize(&opt, &spec, &budgets, f(0.9)).unwrap();
                        assert_eq!(got, baseline);
                    }
                });
            }
        });
        assert_eq!(cache.stats().lookups(), 200);
        assert_eq!(cache.stats().entries, 1);
    }
}
