//! The rule registries: file-scope rules and workspace-scope rules.
//!
//! A *file rule* is a token-stream pass over one file. A *workspace
//! rule* sees every file at once plus the symbol graph and the contract
//! documents ([`crate::WorkspaceContext`]) — that is where the
//! interprocedural and doc-diffing analyses live. To add a rule:
//!
//! 1. create `src/rules/<name>.rs` implementing [`Rule`] or
//!    [`WorkspaceRule`];
//! 2. register it in [`all`] / [`workspace_all`] below (keep the lists
//!    alphabetical);
//! 3. add known-good and known-bad fixtures under `fixtures/<name>/`
//!    and expectations in `tests/fixtures.rs` or `tests/semantic.rs`;
//! 4. document it in the DESIGN.md §13/§18 rule tables.
//!
//! Rules must be *total*: they run on hostile input (the lexer already
//! guarantees tokens for arbitrary bytes, the graph degrades to
//! unresolved calls) and must never panic — the lint binary itself is
//! linted by its own `panic-reachability` rule.

mod contract_drift;
mod determinism;
mod float_eq;
mod lock_discipline;
mod panic_reach;
mod raw_f64_api;
mod signal_safety;

use crate::context::FileContext;
use crate::diag::Diagnostic;
use crate::WorkspaceContext;

/// One file-scope static-analysis rule.
pub trait Rule {
    /// The kebab-case rule name used in reports and suppressions.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn description(&self) -> &'static str;
    /// Whether the rule runs on this workspace-relative path.
    fn applies(&self, rel_path: &str) -> bool;
    /// Scans one file, appending findings.
    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>);
}

/// One workspace-scope rule over the symbol graph and contract docs.
pub trait WorkspaceRule {
    /// The kebab-case rule name used in reports and suppressions.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn description(&self) -> &'static str;
    /// Scans the whole workspace, appending findings.
    fn check(&self, ws: &WorkspaceContext<'_>, out: &mut Vec<Diagnostic>);
}

/// All file rules, in registry order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(determinism::Determinism),
        Box::new(float_eq::FloatEq),
        Box::new(raw_f64_api::RawF64Api),
    ]
}

/// All workspace rules, in registry order.
pub fn workspace_all() -> Vec<Box<dyn WorkspaceRule>> {
    vec![
        Box::new(contract_drift::ContractDrift),
        Box::new(lock_discipline::LockDiscipline),
        Box::new(panic_reach::PanicReachability),
        Box::new(signal_safety::SignalSafety),
    ]
}

/// The names of all registered rules (file and workspace). The synthetic
/// `suppression` and `unused-suppression` rules are valid in reports,
/// not in `allow(…)`.
pub fn known_names() -> Vec<&'static str> {
    all()
        .iter()
        .map(|r| r.name())
        .chain(workspace_all().iter().map(|r| r.name()))
        .collect()
}

/// `(name, description)` pairs for every rule plus the synthetic engine
/// rules — the SARIF driver metadata.
pub fn all_rule_metadata() -> Vec<(&'static str, &'static str)> {
    let mut out: Vec<(&'static str, &'static str)> =
        all().iter().map(|r| (r.name(), r.description())).collect();
    out.extend(workspace_all().iter().map(|r| (r.name(), r.description())));
    out.push(("suppression", "malformed or unreasoned ucore-lint allow comment"));
    out.push(("unused-suppression", "allow comment that matched no finding"));
    out
}

/// The crates holding *model* code: arithmetic on BCE-relative
/// quantities whose invariants the rules police most strictly.
pub(crate) const MODEL_CRATE_DIRS: [&str; 9] = [
    "crates/core/",
    "crates/devices/",
    "crates/itrs/",
    "crates/calibrate/",
    "crates/workloads/",
    "crates/simdev/",
    "crates/project/",
    "crates/report/",
    "crates/bench/",
];

/// True when `rel_path` is inside a model crate's `src/` tree.
pub(crate) fn in_model_src(rel_path: &str) -> bool {
    MODEL_CRATE_DIRS
        .iter()
        .any(|d| rel_path.starts_with(d) && rel_path[d.len()..].starts_with("src/"))
}
