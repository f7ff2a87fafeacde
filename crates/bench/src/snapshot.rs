//! The bench registry and bench-trajectory snapshots.
//!
//! [`each_bench`] is the one place a bench is declared: it hands every
//! `(id, closure)` of a topic to its caller in a fixed order. [`measure`]
//! is the one timing protocol; `cargo bench` (`benches/all.rs`) and
//! `repro --bench-snapshot` both time the registry through it, so their
//! numbers are directly comparable.
//!
//! A snapshot is a deliberately *small* reduction of a bench run: one
//! `(id, median_ns)` pair per benchmark, in registry order, under a
//! schema version. Everything except the timing fields (`median_ns`,
//! `iters`, `samples`) is deterministic: capturing the same topic twice
//! yields the same ids in the same order with the same units.
//!
//! The comparator ([`compare`]) is asymmetric by design: a current
//! median more than `tolerance`× **slower** than baseline is a breach;
//! being faster never is. The committed `BENCH_<topic>.json` files at
//! the repo root form the recorded trajectory; CI re-measures and
//! compares against them (warn at a tight tolerance, fail at a loose
//! one) so raw-speed regressions are caught while machine noise is not.

use serde::Serialize;
use serde_json::Value;
use std::fmt;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ucore_calibrate::{Table5, WorkloadColumn};
use ucore_core::{Budgets, ChipSpec, EvalCache, Optimizer, ParallelFraction, UCore};
use ucore_devices::DeviceId;
use ucore_project::journal::{self, JournalRecord};
use ucore_project::sweep::{figure_points, sweep, SweepConfig};
use ucore_project::{DesignId, ProjectionEngine, Scenario};
use ucore_workloads::blackscholes::batch;
use ucore_workloads::fft::{Direction, Fft};
use ucore_workloads::gen::{random_matrix, random_portfolio, random_signal};
use ucore_workloads::mmm::{blocked, naive};

/// Version of the snapshot JSON schema. Bump on any change to the
/// serialized shape; the comparator refuses to compare across versions.
pub const SCHEMA_VERSION: u32 = 1;

/// Default per-benchmark wall-clock budget.
pub const DEFAULT_BUDGET_MS: u64 = 200;

/// Environment variable overriding the per-benchmark budget (in ms).
pub const BUDGET_ENV: &str = "UCORE_BENCH_BUDGET_MS";

/// Default slowdown tolerance of the comparator: a current median more
/// than this many times the baseline median is a regression.
pub const DEFAULT_TOLERANCE: f64 = 2.0;

/// The registry's topics, in render order. Each has a committed
/// `BENCH_<topic>.json`.
pub const TOPICS: [&str; 2] = ["kernels", "sweep"];

/// The repo-root file name recording a topic's snapshot.
pub fn file_name(topic: &str) -> String {
    format!("BENCH_{topic}.json")
}

/// The per-benchmark budget: [`BUDGET_ENV`] in milliseconds when set and
/// parseable, [`DEFAULT_BUDGET_MS`] otherwise.
pub fn budget_from_env() -> Duration {
    let ms = std::env::var(BUDGET_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(DEFAULT_BUDGET_MS);
    Duration::from_millis(ms)
}

/// One measured benchmark. Field order is the JSON key order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BenchEntry {
    /// Stable benchmark id, mirroring the `cargo bench` label.
    pub id: String,
    /// Median seconds-per-iteration, in nanoseconds.
    pub median_ns: f64,
    /// Iterations per sample after calibration.
    pub iters: u64,
    /// Samples taken within the budget.
    pub samples: u32,
}

/// A reduced bench run. Field order is the JSON key order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BenchSnapshot {
    /// The schema version that wrote this snapshot.
    pub schema_version: u32,
    /// Which bench suite this reduces (`kernels` or `sweep`).
    pub topic: String,
    /// Unit of the `median_ns` fields; always `"ns"` at version 1.
    pub time_unit: String,
    /// The measurements, in fixed bench order.
    pub entries: Vec<BenchEntry>,
}

impl BenchSnapshot {
    /// Serializes with stable key order (struct declaration order) and a
    /// trailing newline, ready for `atomic_write`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Parse`] if serialization fails (it does
    /// not with the shipped field types).
    pub fn to_json(&self) -> Result<String, SnapshotError> {
        let mut out = serde_json::to_string_pretty(self)
            .map_err(|e| SnapshotError::Parse(e.to_string()))?;
        out.push('\n');
        Ok(out)
    }

    /// Parses a snapshot previously written by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Parse`] on malformed JSON, or when a field
    /// is missing, has the wrong type, or is out of its type's range.
    pub fn from_slice(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let doc: Value =
            serde_json::from_slice(bytes).map_err(|e| SnapshotError::Parse(e.to_string()))?;
        Ok(BenchSnapshot {
            schema_version: field(&doc, "schema_version", as_u32)?,
            topic: field(&doc, "topic", Value::as_str)?.to_string(),
            time_unit: field(&doc, "time_unit", Value::as_str)?.to_string(),
            entries: field(&doc, "entries", Value::as_array)?
                .iter()
                .map(|entry| {
                    Ok(BenchEntry {
                        id: field(entry, "id", Value::as_str)?.to_string(),
                        median_ns: field(entry, "median_ns", Value::as_f64)?,
                        iters: field(entry, "iters", Value::as_u64)?,
                        samples: field(entry, "samples", as_u32)?,
                    })
                })
                .collect::<Result<_, SnapshotError>>()?,
        })
    }
}

/// Reads `object[key]` through `read`, or fails naming the field.
fn field<'a, T>(
    object: &'a Value,
    key: &str,
    read: impl FnOnce(&'a Value) -> Option<T>,
) -> Result<T, SnapshotError> {
    object
        .get(key)
        .and_then(read)
        .ok_or_else(|| SnapshotError::Parse(format!("missing or mistyped field `{key}`")))
}

fn as_u32(value: &Value) -> Option<u32> {
    value.as_u64().and_then(|n| u32::try_from(n).ok())
}

/// Why a snapshot could not be captured or compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The two snapshots were written by different schema versions.
    SchemaVersion {
        /// Version of the baseline file.
        baseline: u32,
        /// Version of the current file.
        current: u32,
    },
    /// The two snapshots reduce different bench suites.
    TopicMismatch {
        /// Topic of the baseline file.
        baseline: String,
        /// Topic of the current file.
        current: String,
    },
    /// An unknown topic was requested.
    UnknownTopic(String),
    /// Constructing a bench workload failed (impossible with shipped data).
    Setup(String),
    /// A snapshot file failed to parse.
    Parse(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::SchemaVersion { baseline, current } => write!(
                f,
                "snapshot schema mismatch: baseline v{baseline} vs current v{current}"
            ),
            SnapshotError::TopicMismatch { baseline, current } => write!(
                f,
                "snapshot topic mismatch: baseline '{baseline}' vs current '{current}'"
            ),
            SnapshotError::UnknownTopic(t) => {
                write!(f, "unknown bench topic '{t}' (expected kernels|sweep|all)")
            }
            SnapshotError::Setup(msg) => write!(f, "bench setup failed: {msg}"),
            SnapshotError::Parse(msg) => write!(f, "snapshot parse failed: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One comparator finding for one benchmark id.
#[derive(Debug, Clone, PartialEq)]
pub struct Breach {
    /// The benchmark id the finding is about.
    pub id: String,
    /// What went wrong.
    pub kind: BreachKind,
}

/// The kinds of comparator findings.
#[derive(Debug, Clone, PartialEq)]
pub enum BreachKind {
    /// Current median exceeds `tolerance` times the baseline median.
    Slower {
        /// Baseline median in nanoseconds.
        baseline_ns: f64,
        /// Current median in nanoseconds.
        current_ns: f64,
        /// `current_ns / baseline_ns`.
        ratio: f64,
        /// The tolerance that was exceeded.
        tolerance: f64,
    },
    /// The baseline has this id but the current snapshot does not.
    MissingInCurrent,
    /// The current snapshot has an id the baseline does not know.
    MissingInBaseline,
}

impl fmt::Display for Breach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            BreachKind::Slower { baseline_ns, current_ns, ratio, tolerance } => write!(
                f,
                "bench regression: {}: {current_ns:.0} ns vs baseline {baseline_ns:.0} ns \
                 (x{ratio:.2} > x{tolerance:.2})",
                self.id
            ),
            BreachKind::MissingInCurrent => {
                write!(f, "bench missing: {} is in the baseline but was not measured", self.id)
            }
            BreachKind::MissingInBaseline => {
                write!(f, "bench unknown: {} was measured but the baseline lacks it", self.id)
            }
        }
    }
}

/// Compares `current` against `baseline` under a slowdown `tolerance`.
///
/// Returns every finding, in baseline order followed by
/// baseline-unknown ids in current order. An empty vector means the
/// trajectory holds. Being *faster* than baseline is never a breach.
///
/// # Errors
///
/// Refuses mismatched schema versions or topics — those comparisons
/// would be meaningless, not merely failing.
pub fn compare(
    baseline: &BenchSnapshot,
    current: &BenchSnapshot,
    tolerance: f64,
) -> Result<Vec<Breach>, SnapshotError> {
    if baseline.schema_version != current.schema_version {
        return Err(SnapshotError::SchemaVersion {
            baseline: baseline.schema_version,
            current: current.schema_version,
        });
    }
    if baseline.topic != current.topic {
        return Err(SnapshotError::TopicMismatch {
            baseline: baseline.topic.clone(),
            current: current.topic.clone(),
        });
    }
    let mut breaches = Vec::new();
    for base in &baseline.entries {
        let Some(cur) = current.entries.iter().find(|e| e.id == base.id) else {
            breaches.push(Breach { id: base.id.clone(), kind: BreachKind::MissingInCurrent });
            continue;
        };
        let ratio = cur.median_ns / base.median_ns;
        if ratio > tolerance {
            breaches.push(Breach {
                id: base.id.clone(),
                kind: BreachKind::Slower {
                    baseline_ns: base.median_ns,
                    current_ns: cur.median_ns,
                    ratio,
                    tolerance,
                },
            });
        }
    }
    for cur in &current.entries {
        if !baseline.entries.iter().any(|e| e.id == cur.id) {
            breaches.push(Breach { id: cur.id.clone(), kind: BreachKind::MissingInBaseline });
        }
    }
    Ok(breaches)
}

/// Captures the snapshot for `topic`: every bench [`each_bench`]
/// registers under it, timed by [`measure`] in registry order.
///
/// # Errors
///
/// [`SnapshotError::UnknownTopic`] for topics the registry lacks;
/// [`SnapshotError::Setup`] if a bench workload cannot be constructed
/// (impossible with the shipped calibration data).
pub fn capture(topic: &str, budget: Duration) -> Result<BenchSnapshot, SnapshotError> {
    let mut entries = Vec::new();
    each_bench(topic, &mut |id, f| entries.push(measure(id, budget, f)))?;
    Ok(BenchSnapshot {
        schema_version: SCHEMA_VERSION,
        topic: topic.to_string(),
        time_unit: "ns".to_string(),
        entries,
    })
}

/// Measures one closure: calibrate the iteration count up by 4x until
/// a sample takes ≥ 5 ms (or 2^20 iterations), then sample within the
/// budget and keep the median.
pub fn measure<F: FnMut()>(id: &str, budget: Duration, mut f: F) -> BenchEntry {
    let mut iters: u64 = 1;
    let per_iter = loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(5) || iters >= 1 << 20 {
            break elapsed.as_secs_f64() / iters as f64;
        }
        iters *= 4;
    };
    let samples = ((budget.as_secs_f64() / (per_iter * iters as f64).max(1e-9)) as usize)
        .clamp(3, 25);
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    BenchEntry {
        id: id.to_string(),
        median_ns: times[times.len() / 2] * 1e9,
        iters,
        samples: samples as u32,
    }
}

fn setup<T, E: fmt::Display>(what: &str, r: Result<T, E>) -> Result<T, SnapshotError> {
    r.map_err(|e| SnapshotError::Setup(format!("{what}: {e}")))
}

/// The visitor [`each_bench`] feeds: a bench id and one iteration of
/// its measured work.
pub type Visitor<'a> = dyn FnMut(&str, &mut dyn FnMut()) + 'a;

/// The bench registry: hands every bench of `topic` (see
/// [`TOPICS`]) to `visit` as `(id, closure)`, in a fixed order.
/// Each closure runs one iteration of the measured work; its inputs are
/// built before `visit` sees it.
///
/// # Errors
///
/// [`SnapshotError::UnknownTopic`] for other topic strings;
/// [`SnapshotError::Setup`] if a bench workload cannot be constructed.
pub fn each_bench(topic: &str, visit: &mut Visitor<'_>) -> Result<(), SnapshotError> {
    match topic {
        "kernels" => kernel_benches(visit),
        "sweep" => sweep_benches(visit),
        other => Err(SnapshotError::UnknownTopic(other.to_string())),
    }
}

/// The `kernels` topic: the real MMM / FFT / Black-Scholes kernels the
/// reproduction ships instead of MKL / CUFFT / PARSEC.
fn kernel_benches(visit: &mut Visitor<'_>) -> Result<(), SnapshotError> {
    for n in [64usize, 128] {
        let a = random_matrix(n, n, 1);
        let b = random_matrix(n, n, 2);
        visit(&format!("kernels/mmm/naive/{n}"), &mut || {
            if let Ok(c) = naive::multiply(&a, &b) {
                black_box(c);
            }
        });
        visit(&format!("kernels/mmm/blocked/{n}"), &mut || {
            if let Ok(c) = blocked::multiply(&a, &b, 32) {
                black_box(c);
            }
        });
    }

    for log2 in [8u32, 12] {
        let n = 1usize << log2;
        let plan = setup("fft plan", Fft::new(n))?;
        let signal = random_signal(n, 3);
        let mut buf = signal.clone();
        visit(&format!("kernels/fft/{n}"), &mut || {
            buf.copy_from_slice(&signal);
            if plan.transform(&mut buf, Direction::Forward).is_ok() {
                black_box(buf[0]);
            }
        });
    }

    let portfolio = random_portfolio(4096, 5);
    visit("kernels/black_scholes/serial", &mut || {
        black_box(batch::price_all(&portfolio));
    });
    Ok(())
}

/// The `sweep` topic: one Figure 6-sized batch (4 parallel fractions ×
/// 6 designs × 5 nodes) evaluated uncached and against a pre-warmed
/// cache, the optimizer and portfolio allocator search strategies head
/// to head, and the batch's journal fingerprint, encode and decode.
fn sweep_benches(visit: &mut Visitor<'_>) -> Result<(), SnapshotError> {
    // A private cache isolates the benches from the process-global one.
    let engine = setup(
        "baseline engine",
        ProjectionEngine::with_cache(Scenario::baseline(), Arc::new(EvalCache::new())),
    )?;
    let designs = DesignId::for_column(engine.table5(), WorkloadColumn::Fft1024);
    let points = setup(
        "figure batch",
        figure_points(&engine, &designs, WorkloadColumn::Fft1024, &[0.5, 0.9, 0.99, 0.999]),
    )?;

    let uncached = SweepConfig { use_cache: false };
    visit("sweep/sequential", &mut || {
        black_box(sweep(&engine, points.clone(), &uncached));
    });
    let cached = SweepConfig::default();
    // Warm the memo table so the measured iterations hit it.
    sweep(&engine, points.clone(), &cached);
    visit("sweep/cached", &mut || {
        black_box(sweep(&engine, points.clone(), &cached));
    });

    // Optimizer search strategies on a paper-sized heterogeneous grid.
    let opt = Optimizer::paper_default();
    let asic = setup("u-core", UCore::new(27.4, 0.79))?;
    let specs = [
        ChipSpec::symmetric(),
        ChipSpec::asymmetric_offload(),
        ChipSpec::heterogeneous(asic),
    ];
    let budgets = setup("budgets", Budgets::new(40.0, 12.0, 6.4))?;
    let fractions: Vec<ParallelFraction> = [0.5, 0.9, 0.99, 0.999]
        .iter()
        .map(|&v| setup("fraction", ParallelFraction::new(v)))
        .collect::<Result<_, _>>()?;
    visit("optimize/exhaustive", &mut || {
        for spec in &specs {
            for &f in &fractions {
                black_box(opt.optimize_exhaustive(spec, &budgets, f).ok());
            }
        }
    });
    visit("optimize/pruned", &mut || {
        for spec in &specs {
            for &f in &fractions {
                black_box(opt.optimize(spec, &budgets, f).ok());
            }
        }
    });

    // Portfolio allocation strategies on the composite three-kernel
    // workload: the closed-form KKT waterfiller against the exhaustive
    // grid oracle it is differentially tested against.
    let table5 = setup("table 5", Table5::derive())?;
    let chip = {
        let f = setup("fraction", ParallelFraction::new(0.99))?;
        let workload = setup(
            "composite workload",
            ucore_calibrate::composite_workload(&table5, DeviceId::Asic, f),
        )?;
        setup("portfolio chip", ucore_core::PortfolioChip::new(40.0, 4.0, workload))?
    };
    visit("portfolio/allocate", &mut || {
        black_box(chip.allocate().ok());
    });
    visit("portfolio/exhaustive", &mut || {
        black_box(chip.allocate_exhaustive(64).ok());
    });

    // The per-point journal work of a durable sweep, over the same
    // batch's 120 records: fingerprint every point, encode every record
    // to its line, and decode every line back.
    let (results, _) = sweep(&engine, points.clone(), &cached);
    let records: Vec<JournalRecord> = results
        .iter()
        .map(|r| JournalRecord {
            sweep_seq: 0,
            index: r.index,
            fingerprint: journal::point_fingerprint(&r.point),
            retries: 0,
            outcome: r.outcome.clone(),
        })
        .collect();
    let lines: Vec<String> = records.iter().map(journal::encode_record).collect();
    visit("journal/fingerprint", &mut || {
        for p in &points {
            black_box(journal::point_fingerprint(p));
        }
    });
    visit("journal/encode", &mut || {
        for r in &records {
            black_box(journal::encode_record(r));
        }
    });
    visit("journal/decode", &mut || {
        for (i, line) in lines.iter().enumerate() {
            black_box(journal::decode_record(line.trim_end_matches('\n'), i + 1).ok());
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(topic: &str, entries: &[(&str, f64)]) -> BenchSnapshot {
        BenchSnapshot {
            schema_version: SCHEMA_VERSION,
            topic: topic.to_string(),
            time_unit: "ns".to_string(),
            entries: entries
                .iter()
                .map(|(id, ns)| BenchEntry {
                    id: id.to_string(),
                    median_ns: *ns,
                    iters: 16,
                    samples: 5,
                })
                .collect(),
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let s = snap("kernels", &[("a", 10.0), ("b", 20.5)]);
        let json = s.to_json().unwrap();
        assert_eq!(BenchSnapshot::from_slice(json.as_bytes()).unwrap(), s);
    }

    const ONE_ENTRY: &str = r#"{"schema_version":1,"topic":"kernels","time_unit":"ns","entries":[{"id":"a","median_ns":10.5,"iters":16,"samples":5}]}"#;

    #[test]
    fn malformed_snapshots_are_parse_errors() {
        assert_eq!(
            BenchSnapshot::from_slice(ONE_ENTRY.as_bytes()).unwrap(),
            snap("kernels", &[("a", 10.5)])
        );
        for bad in [
            ONE_ENTRY.replace(r#""topic":"kernels","#, ""),
            ONE_ENTRY.replace(r#","samples":5"#, ""),
            ONE_ENTRY.replace(r#""schema_version":1"#, r#""schema_version":"1""#),
            ONE_ENTRY.replace(r#""median_ns":10.5"#, r#""median_ns":"fast""#),
            "[]".to_string(),
            format!("{ONE_ENTRY} x"),
            ONE_ENTRY.replace(r#""iters":16"#, r#""iters":16.5"#),
            ONE_ENTRY.replace(r#""samples":5"#, r#""samples":-1"#),
            ONE_ENTRY.replace(r#""samples":5"#, r#""samples":4294967296"#),
        ] {
            let got = BenchSnapshot::from_slice(bad.as_bytes());
            assert!(matches!(got, Err(SnapshotError::Parse(_))), "{bad}: {got:?}");
        }
    }

    /// No byte string panics the snapshot decoder. This crate has no
    /// dev-dependencies, so the cases come from an inline xorshift
    /// instead of proptest: 4,096 copies of a valid snapshot with up to
    /// eight random byte edits each (overwrite, insert, delete or
    /// truncate), so the field checks behind the JSON parser see them.
    #[test]
    fn from_slice_is_total_on_arbitrary_bytes() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..4096 {
            let mut bytes = ONE_ENTRY.as_bytes().to_vec();
            for _ in 0..next() % 9 {
                let at = (next() as usize) % (bytes.len() + 1);
                let b = next() as u8;
                match next() % 4 {
                    0 if at < bytes.len() => bytes[at] = b,
                    1 => bytes.insert(at, b),
                    2 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.truncate(at),
                }
            }
            let _ = BenchSnapshot::from_slice(&bytes);
        }
    }

    #[test]
    fn committed_snapshots_decode_and_rewrite_byte_identically() {
        for topic in TOPICS {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(file_name(topic));
            let bytes = std::fs::read(&path).unwrap();
            let snapshot = BenchSnapshot::from_slice(&bytes).unwrap();
            assert_eq!(snapshot.topic, topic);
            assert_eq!(snapshot.to_json().unwrap(), String::from_utf8(bytes).unwrap());
        }
    }

    #[test]
    fn json_key_order_is_declaration_order() {
        let json = snap("kernels", &[("a", 10.0)]).to_json().unwrap();
        let schema = json.find("schema_version").unwrap();
        let topic = json.find("\"topic\"").unwrap();
        let unit = json.find("time_unit").unwrap();
        let entries = json.find("\"entries\"").unwrap();
        let id = json.find("\"id\"").unwrap();
        let median = json.find("median_ns").unwrap();
        let iters = json.find("\"iters\"").unwrap();
        let samples = json.find("\"samples\"").unwrap();
        assert!(schema < topic && topic < unit && unit < entries);
        assert!(entries < id && id < median && median < iters && iters < samples);
        assert!(json.ends_with('\n'));
    }

    #[test]
    fn comparator_passes_within_tolerance_and_when_faster() {
        let base = snap("kernels", &[("a", 100.0), ("b", 100.0)]);
        let cur = snap("kernels", &[("a", 150.0), ("b", 10.0)]);
        assert_eq!(compare(&base, &cur, 2.0).unwrap(), vec![]);
    }

    #[test]
    fn comparator_flags_slowdowns_past_tolerance() {
        let base = snap("kernels", &[("a", 100.0), ("b", 100.0)]);
        let cur = snap("kernels", &[("a", 250.0), ("b", 100.0)]);
        let breaches = compare(&base, &cur, 2.0).unwrap();
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].id, "a");
        match &breaches[0].kind {
            BreachKind::Slower { ratio, tolerance, .. } => {
                assert!((ratio - 2.5).abs() < 1e-12);
                assert!((tolerance - 2.0).abs() < 1e-12);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        let rendered = breaches[0].to_string();
        assert!(rendered.contains("bench regression: a"), "{rendered}");
        assert!(rendered.contains("x2.50 > x2.00"), "{rendered}");
    }

    #[test]
    fn comparator_flags_missing_ids_both_ways() {
        let base = snap("kernels", &[("a", 100.0), ("gone", 100.0)]);
        let cur = snap("kernels", &[("a", 100.0), ("new", 100.0)]);
        let breaches = compare(&base, &cur, 2.0).unwrap();
        assert_eq!(breaches.len(), 2);
        assert_eq!(
            (breaches[0].id.as_str(), breaches[0].kind.clone()),
            ("gone", BreachKind::MissingInCurrent)
        );
        assert_eq!(
            (breaches[1].id.as_str(), breaches[1].kind.clone()),
            ("new", BreachKind::MissingInBaseline)
        );
    }

    #[test]
    fn comparator_refuses_schema_and_topic_mismatch() {
        let base = snap("kernels", &[("a", 100.0)]);
        let mut v2 = base.clone();
        v2.schema_version = SCHEMA_VERSION + 1;
        assert!(matches!(
            compare(&base, &v2, 2.0),
            Err(SnapshotError::SchemaVersion { .. })
        ));
        let other = snap("sweep", &[("a", 100.0)]);
        assert!(matches!(
            compare(&base, &other, 2.0),
            Err(SnapshotError::TopicMismatch { .. })
        ));
    }

    #[test]
    fn unknown_topic_is_rejected() {
        assert!(matches!(
            capture("nonsense", Duration::from_millis(1)),
            Err(SnapshotError::UnknownTopic(_))
        ));
    }

    #[test]
    fn registry_runs_every_bench_once_in_committed_order() {
        let mut all = Vec::new();
        for topic in TOPICS {
            let mut ids = Vec::new();
            each_bench(topic, &mut |id, f| {
                f();
                ids.push(id.to_string());
            })
            .unwrap_or_else(|e| panic!("{topic}: {e}"));
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(file_name(topic));
            let committed = BenchSnapshot::from_slice(&std::fs::read(&path).unwrap()).unwrap();
            let committed_ids: Vec<&str> =
                committed.entries.iter().map(|e| e.id.as_str()).collect();
            assert_eq!(ids, committed_ids, "{topic} ids drifted from {}", path.display());
            all.extend(ids);
        }
        assert_eq!(all.len(), 16, "{all:?}");
        let unique: std::collections::HashSet<&String> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "duplicate bench ids: {all:?}");
    }

    #[test]
    fn measure_produces_positive_median() {
        let entry = measure("t", Duration::from_millis(5), || {
            std::hint::black_box((0..100u64).sum::<u64>());
        });
        assert_eq!(entry.id, "t");
        assert!(entry.median_ns > 0.0);
        assert!(entry.iters >= 1);
        assert!((3..=25).contains(&(entry.samples as usize)));
    }
}
