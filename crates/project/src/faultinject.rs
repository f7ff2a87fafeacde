//! Deterministic fault injection for the sweep engine.
//!
//! The projection pipeline promises *fault containment*: a poisoned
//! design point degrades exactly one [`Outcome`](crate::sweep::Outcome)
//! instead of aborting the figure. That promise is only worth anything
//! if it is exercised, so this module can deterministically inject
//! faults into a sweep — a forced panic, a NaN or ∞ model parameter, or
//! a simulated cache-layer error — at chosen submission indices.
//!
//! Faults are keyed on the *submission index* of a point, which is
//! stable across runs and shard layouts, so an injected run is
//! reproducible: the same point fails, every other point is bit-identical
//! to an uninjected run.
//!
//! # Activation
//!
//! Programmatically, [`activate`] installs a [`FaultPlan`] and returns a
//! guard that removes it on drop:
//!
//! ```
//! use ucore_project::faultinject::{Fault, FaultPlan};
//! let _guard = ucore_project::faultinject::activate(
//!     FaultPlan::new().with(3, Fault::Panic),
//! );
//! // sweeps run while the guard lives see a forced panic at point 3
//! ```
//!
//! From the outside, the `UCORE_FAULT_INJECT` environment variable
//! carries the same plan in `kind@index[,kind@index...]` syntax, e.g.
//! `UCORE_FAULT_INJECT=panic@3,nan@7` — the form the CI fault-injection
//! job and the `repro` acceptance tests use. Kinds: `panic`, `nan`,
//! `inf`, `cache`, `kill`, `stall`, `enospc`, `eio`.
//!
//! # Transient faults
//!
//! A fault can be limited to the first N evaluation *attempts* of its
//! point with an `xN` suffix: `panic@3x1` panics attempt 0 of point 3
//! and lets every retry succeed — the shape that exercises the sweep's
//! retry-with-backoff recovery. Without the suffix a fault is
//! persistent (every attempt fails, so retries are exhausted).
//!
//! # Crash and stall faults
//!
//! Two kinds exercise the durability layer rather than containment:
//! `kill@i` aborts the whole process the moment point *i* is claimed
//! (after fsyncing the run journal — a deterministic `kill -9` for the
//! crash/resume suite), and `stall@i` makes point *i* hang until the
//! per-point watchdog deadline converts it to `Failed{timeout}`.
//!
//! # Disk faults
//!
//! Two further kinds fire at the *journal* layer instead of the
//! evaluation: `enospc@i` and `eio@i` make the journal append for
//! submission index *i* fail with a synthesized "no space left on
//! device" / "input/output error". The evaluation of point *i* is
//! untouched — these exercise the documented journal degradation path
//! (one-time warning, `journal.write_errors` increments, the run keeps
//! producing correct results with journaling disabled).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, RwLock};

/// One kind of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the evaluation of the point (exercises
    /// `catch_unwind` containment).
    Panic,
    /// Feed a NaN parameter to the model's ingress validation (exercises
    /// the typed-error path: validation must reject it, never propagate
    /// NaN into results).
    NanParam,
    /// Feed an infinite parameter to the model's ingress validation.
    InfParam,
    /// Simulate a cache-layer failure: the memo lookup errors out and
    /// must not corrupt the shared cache.
    CacheError,
    /// Abort the process the moment this point is claimed (after the
    /// run journal is fsync'd) — the deterministic crash behind the
    /// kill-and-resume durability suite.
    Kill,
    /// Hang the evaluation of this point until the watchdog deadline
    /// releases it as `Failed{timeout}` (or a safety cap, when no
    /// deadline is configured).
    Stall,
    /// Fail the *journal append* for this point with a synthesized
    /// "no space left on device" error. The evaluation itself is
    /// untouched — this exercises the journal's degrade-and-continue
    /// path, not containment.
    DiskEnospc,
    /// Fail the *journal append* for this point with a synthesized
    /// "input/output error". Like [`Fault::DiskEnospc`], fires at the
    /// durability layer only.
    DiskEio,
}

impl Fault {
    fn keyword(self) -> &'static str {
        match self {
            Fault::Panic => "panic",
            Fault::NanParam => "nan",
            Fault::InfParam => "inf",
            Fault::CacheError => "cache",
            Fault::Kill => "kill",
            Fault::Stall => "stall",
            Fault::DiskEnospc => "enospc",
            Fault::DiskEio => "eio",
        }
    }

    /// Whether this kind fires at the journal/durability layer (and is
    /// therefore a no-op on the evaluation path).
    pub fn is_disk_fault(self) -> bool {
        matches!(self, Fault::DiskEnospc | Fault::DiskEio)
    }

    /// The synthesized I/O error a disk-fault kind injects into the
    /// journal append; `None` for non-disk kinds.
    pub fn disk_error(self) -> Option<std::io::Error> {
        match self {
            Fault::DiskEnospc => Some(std::io::Error::other(
                "injected fault: no space left on device (ENOSPC)",
            )),
            Fault::DiskEio => Some(std::io::Error::other(
                "injected fault: input/output error (EIO)",
            )),
            _ => None,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A parse failure of a `UCORE_FAULT_INJECT` specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError {
    /// The offending fragment.
    pub fragment: String,
    /// Why it was rejected.
    pub reason: &'static str,
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid fault spec {:?}: {} (expected kind@index[xN] with kind one of \
             panic|nan|inf|cache|kill|stall|enospc|eio)",
            self.fragment, self.reason
        )
    }
}

impl Error for FaultSpecError {}

/// One planned fault: the kind, plus how many evaluation attempts it
/// poisons (`None` = every attempt — the fault is persistent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// The injected fault kind.
    pub fault: Fault,
    /// Number of leading attempts that fail; `None` means all of them.
    pub fail_attempts: Option<u32>,
}

/// A deterministic set of faults, keyed by sweep submission index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<usize, PlannedFault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a persistent fault at a submission index (builder style). A
    /// later fault at the same index replaces the earlier one.
    #[must_use]
    pub fn with(mut self, index: usize, fault: Fault) -> Self {
        self.faults.insert(index, PlannedFault { fault, fail_attempts: None });
        self
    }

    /// Adds a *transient* fault: only the first `attempts` evaluation
    /// attempts of the point fail; retries beyond that succeed. The
    /// `kind@indexxN` spec syntax maps here.
    #[must_use]
    pub fn with_transient(mut self, index: usize, fault: Fault, attempts: u32) -> Self {
        self.faults
            .insert(index, PlannedFault { fault, fail_attempts: Some(attempts) });
        self
    }

    /// The fault kind planned for a submission index, if any,
    /// regardless of attempt limits.
    pub fn fault_at(&self, index: usize) -> Option<Fault> {
        self.faults.get(&index).map(|p| p.fault)
    }

    /// The fault to apply to evaluation attempt `attempt` (0-based) of
    /// the point at `index`: `None` once a transient fault's attempt
    /// budget is spent.
    pub fn fault_for_attempt(&self, index: usize, attempt: u32) -> Option<Fault> {
        let planned = self.faults.get(&index)?;
        match planned.fail_attempts {
            Some(n) if attempt >= n => None,
            _ => Some(planned.fault),
        }
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parses a `kind@index[xN][,kind@index[xN]...]` specification, the
    /// `UCORE_FAULT_INJECT` syntax. The optional `xN` suffix makes the
    /// fault transient (only the first N attempts fail). Whitespace
    /// around fragments is ignored; an empty string is an empty plan.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError`] for an unknown kind, an unparsable
    /// index, or an unparsable attempt count.
    pub fn parse(spec: &str) -> Result<Self, FaultSpecError> {
        let mut plan = FaultPlan::new();
        for fragment in spec.split(',') {
            let fragment = fragment.trim();
            if fragment.is_empty() {
                continue;
            }
            let Some((kind, target)) = fragment.split_once('@') else {
                return Err(FaultSpecError {
                    fragment: fragment.into(),
                    reason: "missing '@'",
                });
            };
            let fault = match kind.trim() {
                "panic" => Fault::Panic,
                "nan" => Fault::NanParam,
                "inf" => Fault::InfParam,
                "cache" => Fault::CacheError,
                "kill" => Fault::Kill,
                "stall" => Fault::Stall,
                "enospc" => Fault::DiskEnospc,
                "eio" => Fault::DiskEio,
                _ => {
                    return Err(FaultSpecError {
                        fragment: fragment.into(),
                        reason: "unknown fault kind",
                    })
                }
            };
            let target = target.trim();
            let (index_str, fail_attempts) = match target.split_once('x') {
                Some((i, n)) => {
                    let attempts: u32 = n.trim().parse().map_err(|_| FaultSpecError {
                        fragment: fragment.into(),
                        reason: "attempt count after 'x' is not a non-negative integer",
                    })?;
                    (i.trim(), Some(attempts))
                }
                None => (target, None),
            };
            let index: usize = index_str.parse().map_err(|_| FaultSpecError {
                fragment: fragment.into(),
                reason: "index is not a non-negative integer",
            })?;
            plan.faults.insert(index, PlannedFault { fault, fail_attempts });
        }
        Ok(plan)
    }
}

/// The process-wide active plan. `None` means "consult the environment".
static ACTIVE: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);

/// Removes the active plan when dropped, restoring env-var behavior.
#[derive(Debug)]
pub struct FaultGuard {
    _private: (),
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        if let Ok(mut slot) = ACTIVE.write() {
            *slot = None;
        }
    }
}

/// Installs a plan for every sweep in the process until the returned
/// guard is dropped. Replaces any previously active plan.
pub fn activate(plan: FaultPlan) -> FaultGuard {
    if let Ok(mut slot) = ACTIVE.write() {
        *slot = Some(Arc::new(plan));
    }
    FaultGuard { _private: () }
}

/// The plan a starting sweep should apply: the programmatically
/// activated one if present, otherwise whatever `UCORE_FAULT_INJECT`
/// specifies (an unparsable variable is reported on stderr once per
/// sweep and ignored — fault injection must never corrupt a run it was
/// meant to test), otherwise `None`.
pub fn current_plan() -> Option<Arc<FaultPlan>> {
    if let Ok(slot) = ACTIVE.read() {
        if let Some(plan) = slot.as_ref() {
            return Some(Arc::clone(plan));
        }
    }
    let spec = std::env::var("UCORE_FAULT_INJECT").ok()?;
    match FaultPlan::parse(&spec) {
        Ok(plan) if !plan.is_empty() => Some(Arc::new(plan)),
        Ok(_) => None,
        Err(e) => {
            eprintln!("warning: UCORE_FAULT_INJECT ignored: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_syntax() {
        let plan = FaultPlan::parse(" panic@3 , nan@7,inf@0,cache@12 ").unwrap();
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.fault_at(3), Some(Fault::Panic));
        assert_eq!(plan.fault_at(7), Some(Fault::NanParam));
        assert_eq!(plan.fault_at(0), Some(Fault::InfParam));
        assert_eq!(plan.fault_at(12), Some(Fault::CacheError));
        assert_eq!(plan.fault_at(1), None);
    }

    #[test]
    fn parse_rejects_malformed_fragments() {
        for bad in ["panic", "panic@x", "frob@3", "@3", "panic@-1"] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.to_string().contains("invalid fault spec"), "{bad}");
        }
    }

    #[test]
    fn parse_empty_is_empty_plan() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" , ").unwrap().is_empty());
    }

    #[test]
    fn later_fault_at_same_index_wins() {
        let plan = FaultPlan::new().with(5, Fault::Panic).with(5, Fault::NanParam);
        assert_eq!(plan.fault_at(5), Some(Fault::NanParam));
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn display_round_trips_keywords() {
        for f in [
            Fault::Panic,
            Fault::NanParam,
            Fault::InfParam,
            Fault::CacheError,
            Fault::Kill,
            Fault::Stall,
            Fault::DiskEnospc,
            Fault::DiskEio,
        ] {
            let plan = FaultPlan::parse(&format!("{f}@1")).unwrap();
            assert_eq!(plan.fault_at(1), Some(f));
        }
    }

    #[test]
    fn transient_suffix_bounds_the_failing_attempts() {
        let plan = FaultPlan::parse("panic@3x2,stall@7").unwrap();
        // Point 3: first two attempts fail, the third succeeds.
        assert_eq!(plan.fault_at(3), Some(Fault::Panic));
        assert_eq!(plan.fault_for_attempt(3, 0), Some(Fault::Panic));
        assert_eq!(plan.fault_for_attempt(3, 1), Some(Fault::Panic));
        assert_eq!(plan.fault_for_attempt(3, 2), None);
        // Point 7: persistent — every attempt fails.
        assert_eq!(plan.fault_for_attempt(7, 0), Some(Fault::Stall));
        assert_eq!(plan.fault_for_attempt(7, 99), Some(Fault::Stall));
        // Unplanned points are clean.
        assert_eq!(plan.fault_for_attempt(5, 0), None);
    }

    #[test]
    fn transient_builder_matches_the_spec_syntax() {
        let built = FaultPlan::new().with_transient(3, Fault::Panic, 1);
        let parsed = FaultPlan::parse("panic@3x1").unwrap();
        assert_eq!(built, parsed);
        assert_eq!(built.fault_for_attempt(3, 0), Some(Fault::Panic));
        assert_eq!(built.fault_for_attempt(3, 1), None);
    }

    #[test]
    fn disk_fault_kinds_parse_and_classify() {
        let plan = FaultPlan::parse("enospc@4,eio@9").unwrap();
        assert_eq!(plan.fault_at(4), Some(Fault::DiskEnospc));
        assert_eq!(plan.fault_at(9), Some(Fault::DiskEio));
        for f in [Fault::DiskEnospc, Fault::DiskEio] {
            assert!(f.is_disk_fault());
            let err = f.disk_error().expect("disk faults carry an io error");
            assert!(err.to_string().contains("injected fault"), "{err}");
        }
        for f in [Fault::Panic, Fault::Kill, Fault::Stall, Fault::CacheError] {
            assert!(!f.is_disk_fault());
            assert!(f.disk_error().is_none());
        }
    }

    #[test]
    fn parse_rejects_malformed_attempt_counts() {
        for bad in ["panic@3x", "panic@3xq", "panic@x2"] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.to_string().contains("invalid fault spec"), "{bad}");
        }
    }

    proptest::proptest! {
        /// No string panics the `UCORE_FAULT_INJECT` parser. Bytes below
        /// 128 pick a token of the syntax; the rest are arbitrary chars.
        #[test]
        fn parse_is_total_on_arbitrary_strings(
            bytes in proptest::collection::vec(0u8..=255, 32),
            len in 0usize..=32,
        ) {
            const TOKENS: [&str; 10] =
                [",", "@", "x", " ", "kill", "stall", "eio", "3", "-1", "99999999999999999999"];
            let text: String = bytes[..len]
                .iter()
                .map(|&b| match b {
                    0..=127 => TOKENS[usize::from(b) % TOKENS.len()].to_string(),
                    _ => char::from(b).to_string(),
                })
                .collect();
            let _ = FaultPlan::parse(&text);
        }
    }
}
