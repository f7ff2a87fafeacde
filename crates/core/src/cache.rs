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
//!
//! Keys are built by this program from model inputs, never read from
//! outside it, so the map hashes them with `KeyHasher`, a fixed
//! multiply-rotate fold over the key's words, instead of SipHash: a
//! lookup is a few multiplies, and since the map is never iterated its
//! bucket order cannot reach any output.

use crate::budget::Budgets;
use crate::chip::{ChipKind, ChipSpec};
use crate::error::ModelError;
use crate::optimize::{OptimalDesign, Optimizer};
use crate::units::ParallelFraction;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
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

/// The [`EvalCache`] map's hasher: a multiply-rotate fold over the
/// key's `u64` words (each `F64Key`, the kind tag and the budget array's
/// length), finished by murmur3's `fmix64`.
///
/// A product's low bits depend only on its factors' low bits, which
/// round-number budgets leave mostly zero, and hashbrown picks buckets
/// from the low bits: the rotate carries high bits down between words,
/// and `finish` mixes every bit into the low ones. The hasher is
/// unseeded, hence deterministic across runs, and offers no defence
/// against crafted collisions: keys are built here from model inputs,
/// never taken from outside the program.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl KeyHasher {
    fn fold(&mut self, word: u64) {
        // FxHash's rotate-xor-multiply step.
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // `EvalKey` hashes through the typed writes below; this byte
        // path exists for completeness and is never on the hot path.
        for &b in bytes {
            self.fold(u64::from(b));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.fold(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.fold(x);
    }

    fn write_usize(&mut self, x: usize) {
        self.fold(x as u64);
    }

    fn finish(&self) -> u64 {
        // murmur3's fmix64 finalizer.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

type Memo = HashMap<EvalKey, Result<OptimalDesign, ModelError>, BuildHasherDefault<KeyHasher>>;

/// A thread-safe memo table for [`Optimizer::optimize`] results.
///
/// Both feasible and infeasible outcomes are stored. Reads take a shared
/// lock; the first evaluation of a point runs *outside* any lock (the
/// optimizer sweep is the expensive part) and then takes the exclusive
/// lock only to insert, so concurrent sweeps scale. The lock is
/// `std::sync::RwLock`; a guard poisoned by a panicking holder is
/// recovered, since the only updates made under it — one insert or one
/// clear — leave the map valid whenever they stop.
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
    map: RwLock<Memo>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    lookups: Arc<Counter>,
    entries: Arc<Gauge>,
}

impl Default for EvalCache {
    fn default() -> Self {
        EvalCache {
            map: RwLock::default(),
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

    fn read(&self) -> RwLockReadGuard<'_, Memo> {
        self.map.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Memo> {
        self.map.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The process-wide cache shared by the projection figures and
    /// scenarios (and anything else that opts in). Its counters are
    /// registered in the global metrics registry under `cache.*`.
    pub fn global() -> &'static Arc<EvalCache> {
        static GLOBAL: OnceLock<Arc<EvalCache>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let registry = ucore_obs::registry();
            Arc::new(EvalCache {
                map: RwLock::default(),
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
        if let Some(cached) = self.read().get(&key) {
            self.hits.inc();
            self.lookups.inc();
            return cached.clone();
        }
        let result = optimizer.optimize(spec, budgets, f);
        self.misses.inc();
        self.lookups.inc();
        // A racing thread may have inserted the same key meanwhile; both
        // computed the same pure function, so either value is correct.
        let mut map = self.write();
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
            entries: self.read().len(),
        }
    }

    /// Drops all stored entries (counters keep accumulating).
    pub fn clear(&self) {
        let mut map = self.write();
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
    fn key_hasher_separates_keys_and_fills_the_low_byte() {
        use std::hash::BuildHasher;
        let opt = Optimizer::paper_default();
        let specs = [
            ChipSpec::symmetric(),
            ChipSpec::asymmetric(),
            ChipSpec::asymmetric_offload(),
            ChipSpec::dynamic(),
            ChipSpec::heterogeneous(UCore::new(27.4, 0.79).unwrap()),
        ];
        let mut keys = Vec::new();
        // Round-number budgets and the paper's fractions: their bit
        // patterns end in long runs of zeros, the worst case for the
        // low output bits.
        for spec in &specs {
            for area in [16.0, 32.0, 64.0, 100.0, 128.0, 200.0, 256.0, 512.0] {
                for power in [10.0, 20.0, 50.0, 100.0, 200.0] {
                    for bandwidth in [25.0, 50.0, 100.0, 200.0, 400.0] {
                        let budgets = Budgets::new(area, power, bandwidth).unwrap();
                        for fv in [0.5, 0.9, 0.99, 0.999] {
                            keys.push(EvalKey::new(&opt, spec, &budgets, f(fv)));
                        }
                    }
                }
            }
        }
        let grid = keys.len();
        // A seeded batch of arbitrary U-cores, budgets and fractions.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut unit = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..1024 {
            let ucore = UCore::new(1.0 + 100.0 * unit(), 0.1 + unit()).unwrap();
            let spec = ChipSpec::heterogeneous(ucore);
            let (area, power, bandwidth) = (500.0 * unit(), 200.0 * unit(), 400.0 * unit());
            let budgets = Budgets::new(1.0 + area, 1.0 + power, 1.0 + bandwidth).unwrap();
            keys.push(EvalKey::new(&opt, &spec, &budgets, f(unit())));
        }
        let distinct: std::collections::HashSet<EvalKey> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), keys.len());
        assert!(keys.len() >= 4096, "{} keys", keys.len());

        let build = BuildHasherDefault::<KeyHasher>::default();
        let mut hashes: Vec<u64> = keys.iter().map(|k| build.hash_one(k)).collect();
        // The grid alone must fill the low byte: a bare xor-multiply fold
        // gives it 18 values there.
        for (what, hashes) in [("grid", &hashes[..grid]), ("all", &hashes[..])] {
            let mut seen = [false; 256];
            for &h in hashes {
                seen[usize::from(h as u8)] = true;
            }
            let filled = seen.iter().filter(|&&s| s).count();
            assert!(filled >= 200, "{what}: the low byte takes only {filled} of 256 values");
        }
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), keys.len(), "every key gets its own 64-bit hash");
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
