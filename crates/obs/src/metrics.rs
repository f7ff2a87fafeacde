//! The metrics registry: typed counters, gauges, and fixed-bucket
//! histograms registered by name.
//!
//! Hot-path updates are single lock-free atomic operations on `Arc`'d
//! instruments that call sites clone out of the registry once; the
//! registry lock is touched only at registration and snapshot time.
//! A [`MetricsSnapshot`] is `BTreeMap`-ordered, so rendering it is
//! deterministic by construction (the crate root denies clippy's
//! `disallowed_types`, which bans hash-ordered containers here).
//!
//! # Determinism contract
//!
//! * **Counters** counting data-derived events (outcomes, cache
//!   activity, journal hits) are identical at any thread count.
//! * **Histograms** store *bucket counts and a total only* — no sum.
//!   A floating-point sum would be accumulated in scheduling order and
//!   float addition is not associative, so a sum could differ across
//!   thread counts; bucket *counts* are order-independent.
//! * **Timing metrics** (names ending in `_ns`/`_us`/`_ms`/`_seconds`)
//!   are wall-clock-derived and therefore nondeterministic; golden
//!   comparisons filter them via [`is_timing_metric`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// A monotonically increasing `u64` counter.
///
/// `inc`/`add` are single `fetch_add`s; reads are single loads. Per-
/// atomic coherence makes successive [`Counter::get`] reads monotone
/// even under concurrent increments.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A new counter at zero (detached from any registry).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` gauge (stored as bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A new gauge at `0.0` (detached from any registry).
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0.0f64.to_bits()))
    }

    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram: `bounds.len() + 1` buckets, where bucket
/// `i` counts observations `v <= bounds[i]` (exclusive of lower
/// buckets) and the last bucket is the `+Inf` overflow. NaN counts as
/// overflow. There is deliberately no sum (see the module docs).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    total: AtomicU64,
}

impl Histogram {
    /// A new histogram with the given upper bounds (detached from any
    /// registry). Bounds are sorted, deduplicated, and stripped of
    /// NaNs; an empty bound list leaves just the `+Inf` bucket.
    pub fn new(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| !b.is_nan()).collect();
        bounds.sort_by(f64::total_cmp);
        bounds.dedup_by(|a, b| a == b);
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram { bounds, buckets, total: AtomicU64::new(0) }
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        if let Some(bucket) = self.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// The upper bounds (the `+Inf` overflow bucket is implicit).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// A point-in-time copy of the bucket counts and total. Between
    /// in-flight `observe` calls a bucket increment and the total
    /// increment may be observed separately; quiesce writers before
    /// asserting the sum invariant.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            total: self.total.load(Ordering::Relaxed),
        }
    }
}

/// A frozen view of one histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bounds, ascending; the final `+Inf` bucket is implicit.
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Total observations recorded.
    pub total: u64,
}

/// One registered instrument.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A frozen metric value inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(f64),
    /// A histogram's buckets and total.
    Histogram(HistogramSnapshot),
}

/// The process-wide name → instrument table.
///
/// Names are dotted lowercase paths (`cache.hits`, `points.failed`,
/// `sweep.point_us`). Registration is get-or-create: asking for an
/// existing name returns the same instrument, so counters survive any
/// number of lookups. Asking for a name that is registered *as a
/// different type* returns a fresh detached instrument instead of
/// panicking — observability must never take the run down — and bumps
/// the `obs.type_conflicts` counter so the misuse is visible.
#[derive(Debug, Default)]
pub struct Registry {
    instruments: RwLock<BTreeMap<String, Instrument>>,
}

impl Registry {
    /// An empty registry (tests; production code uses [`registry`]).
    pub fn new() -> Self {
        Registry::default()
    }

    fn note_type_conflict(&self) {
        // Registering the sentinel itself cannot conflict (it is always
        // a counter), so this terminates.
        self.counter("obs.type_conflicts").inc();
    }

    /// The counter registered under `name`, created at zero on first
    /// use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut table = self.instruments.write().unwrap_or_else(PoisonError::into_inner);
        match table.get(name) {
            Some(Instrument::Counter(c)) => return Arc::clone(c),
            Some(_) => {
                drop(table);
                self.note_type_conflict();
                return Arc::new(Counter::new());
            }
            None => {}
        }
        let c = Arc::new(Counter::new());
        table.insert(name.to_string(), Instrument::Counter(Arc::clone(&c)));
        c
    }

    /// The gauge registered under `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut table = self.instruments.write().unwrap_or_else(PoisonError::into_inner);
        match table.get(name) {
            Some(Instrument::Gauge(g)) => return Arc::clone(g),
            Some(_) => {
                drop(table);
                self.note_type_conflict();
                return Arc::new(Gauge::new());
            }
            None => {}
        }
        let g = Arc::new(Gauge::new());
        table.insert(name.to_string(), Instrument::Gauge(Arc::clone(&g)));
        g
    }

    /// The histogram registered under `name`, created with `bounds` on
    /// first use (later calls return the existing instrument and ignore
    /// `bounds`).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut table = self.instruments.write().unwrap_or_else(PoisonError::into_inner);
        match table.get(name) {
            Some(Instrument::Histogram(h)) => return Arc::clone(h),
            Some(_) => {
                drop(table);
                self.note_type_conflict();
                return Arc::new(Histogram::new(bounds));
            }
            None => {}
        }
        let h = Arc::new(Histogram::new(bounds));
        table.insert(name.to_string(), Instrument::Histogram(Arc::clone(&h)));
        h
    }

    /// A point-in-time, `BTreeMap`-ordered copy of every registered
    /// instrument's value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let table = self.instruments.read().unwrap_or_else(PoisonError::into_inner);
        let values = table
            .iter()
            .map(|(name, inst)| {
                let value = match inst {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect();
        MetricsSnapshot { values }
    }
}

/// The process-wide registry every subsystem registers into.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Whether a metric name carries wall-clock-derived (and therefore
/// nondeterministic) values, by naming convention: a final path segment
/// suffixed `_ns`, `_us`, `_ms`, or `_seconds`. Golden comparisons and
/// the differential suites filter these out.
pub fn is_timing_metric(name: &str) -> bool {
    ["_ns", "_us", "_ms", "_seconds"].iter().any(|suffix| name.ends_with(suffix))
}

/// A frozen, ordered view of the whole registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    values: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// The counter's value, `0` when `name` is not a registered
    /// counter.
    pub fn counter(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The gauge's value, when `name` is a registered gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.values.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram's frozen buckets, when `name` is a registered
    /// histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.values.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// A copy with every wall-clock-derived metric removed (see
    /// [`is_timing_metric`]) — the deterministic projection golden
    /// tests compare.
    pub fn without_timing(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            values: self
                .values
                .iter()
                .filter(|(name, _)| !is_timing_metric(name))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Human-readable one-line-per-metric rendering, in name order.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.values {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "counter   {name} = {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "gauge     {name} = {v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(out, "histogram {name} total={}", h.total);
                    for (bound, count) in bucket_labels(h) {
                        let _ = write!(out, " le[{bound}]={count}");
                    }
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Prometheus-style exposition: `# TYPE` lines, `ucore_`-prefixed
    /// mangled names, cumulative `_bucket{le="..."}` series plus
    /// `_count` for histograms. `f64` values render via the shortest
    /// round-trip formatter, so the text is exact.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.values {
            let mangled = mangle(name);
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {mangled} counter");
                    let _ = writeln!(out, "{mangled} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {mangled} gauge");
                    let _ = writeln!(out, "{mangled} {v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {mangled} histogram");
                    let mut cumulative = 0u64;
                    for (bound, count) in bucket_labels(h) {
                        cumulative = cumulative.saturating_add(count);
                        let _ = writeln!(
                            out,
                            "{mangled}_bucket{{le=\"{bound}\"}} {cumulative}"
                        );
                    }
                    let _ = writeln!(out, "{mangled}_count {}", h.total);
                }
            }
        }
        out
    }
}

/// `(bound label, count)` pairs for every bucket including the
/// trailing `+Inf` overflow.
fn bucket_labels(h: &HistogramSnapshot) -> impl Iterator<Item = (String, u64)> + '_ {
    h.counts.iter().enumerate().map(|(i, &count)| {
        let label = match h.bounds.get(i) {
            Some(b) => format!("{b}"),
            None => String::from("+Inf"),
        };
        (label, count)
    })
}

/// `cache.hits` → `ucore_cache_hits`: dots and dashes become
/// underscores under the workspace namespace prefix.
fn mangle(name: &str) -> String {
    let body: String = name
        .chars()
        .map(|c| if c == '.' || c == '-' { '_' } else { c })
        .collect();
    format!("ucore_{body}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let r = Registry::new();
        let c = r.counter("t.count");
        c.inc();
        c.add(4);
        r.gauge("t.gauge").set(2.5);
        let snap = r.snapshot();
        assert_eq!(snap.counter("t.count"), 5);
        assert_eq!(snap.gauge("t.gauge"), Some(2.5));
        assert_eq!(snap.gauge("t.count"), None, "type-checked accessor");
    }

    #[test]
    fn reregistration_returns_the_same_instrument() {
        let r = Registry::new();
        r.counter("same").inc();
        r.counter("same").inc();
        assert_eq!(r.snapshot().counter("same"), 2);
    }

    #[test]
    fn type_conflicts_degrade_to_detached_instruments() {
        let r = Registry::new();
        r.counter("clash").inc();
        let g = r.gauge("clash");
        g.set(9.0); // lands on a detached gauge, not the counter
        let snap = r.snapshot();
        assert_eq!(snap.counter("clash"), 1);
        assert_eq!(snap.counter("obs.type_conflicts"), 1);
    }

    #[test]
    fn histogram_buckets_partition_observations() {
        let h = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 1.0, 3.0, 100.0, f64::NAN] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![2, 1, 2], "le 1, le 10, +Inf");
        assert_eq!(snap.total, 5);
        assert_eq!(snap.counts.iter().sum::<u64>(), snap.total);
    }

    #[test]
    fn histogram_bounds_are_sanitized() {
        let h = Histogram::new(&[10.0, 1.0, 1.0, f64::NAN]);
        assert_eq!(h.bounds(), &[1.0, 10.0]);
    }

    #[test]
    fn snapshot_order_and_renderings_are_deterministic() {
        let r = Registry::new();
        r.counter("z.last").inc();
        r.gauge("a.first").set(1.5);
        r.histogram("m.middle", &[2.0]).observe(1.0);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.first", "m.middle", "z.last"]);
        let text = r.snapshot().render_text();
        assert_eq!(
            text,
            "gauge     a.first = 1.5\n\
             histogram m.middle total=1 le[2]=1 le[+Inf]=0\n\
             counter   z.last = 1\n"
        );
        let prom = r.snapshot().render_prometheus();
        assert_eq!(
            prom,
            "# TYPE ucore_a_first gauge\n\
             ucore_a_first 1.5\n\
             # TYPE ucore_m_middle histogram\n\
             ucore_m_middle_bucket{le=\"2\"} 1\n\
             ucore_m_middle_bucket{le=\"+Inf\"} 1\n\
             ucore_m_middle_count 1\n\
             # TYPE ucore_z_last counter\n\
             ucore_z_last 1\n"
        );
    }

    #[test]
    fn timing_metrics_are_recognized_and_filterable() {
        assert!(is_timing_metric("sweep.point_us"));
        assert!(is_timing_metric("engine.wall_ns"));
        assert!(is_timing_metric("render.wall_ms"));
        assert!(is_timing_metric("run.duration_seconds"));
        assert!(!is_timing_metric("points.ok"));
        let r = Registry::new();
        r.counter("points.ok").inc();
        r.histogram("sweep.point_us", &[1.0]).observe(0.5);
        let filtered = r.snapshot().without_timing();
        assert_eq!(filtered.len(), 1);
        assert_eq!(filtered.counter("points.ok"), 1);
    }
}
