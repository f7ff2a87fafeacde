//! # ucore-lint — project-specific static analysis for the ucore workspace
//!
//! The analytical model's correctness rests on invariants `rustc` and
//! `clippy` cannot see: BCE-relative quantities must not be mixed as
//! raw `f64`s, sweep/figure output must be byte-deterministic, signal
//! handlers must stay async-signal-safe, and the metric/error/flag
//! names the docs promise must match what the code registers. This
//! crate enforces them with a hand-rolled total lexer ([`lexer`])
//! feeding token-level rules ([`rules`]) and a workspace symbol graph
//! ([`graph`]) feeding interprocedural rules — runnable locally and in
//! CI as `cargo run -p ucore-lint`.
//!
//! ## File rules (one file at a time)
//!
//! | rule | enforces |
//! |---|---|
//! | `float-eq` | no `==`/`!=` on float-typed expressions |
//! | `raw-f64-api` | no bare-`f64` dimensioned params on `pub fn` in core/devices/itrs |
//! | `determinism` | no wall-clock or `HashMap`/`HashSet` in output-producing paths |
//!
//! `// SAFETY:` comments, `# Safety` docs and `# Errors` docs are
//! checked by clippy instead (`undocumented_unsafe_blocks`,
//! `missing_safety_doc`, `missing_errors_doc`; see the root
//! `Cargo.toml` and `clippy.toml`).
//!
//! ## Workspace rules (whole-workspace symbol graph)
//!
//! | rule | enforces |
//! |---|---|
//! | `panic-reachability` | no `unwrap`/`expect`/`panic!` (+ slice indexing in `serve`) outside tests, with caller evidence chains |
//! | `signal-safety` | only allowlisted async-signal-safe calls reachable from `signal(2)` handlers |
//! | `lock-discipline` | no blocking call (fsync, channel send/recv, spawn, socket I/O) under a live lock guard |
//! | `contract-drift` | DESIGN.md/README contract tables match the code's metrics, error codes, and CLI flags |
//!
//! Plus two synthetic rules the engine itself emits: `suppression`
//! (malformed/unreasoned allows) and `unused-suppression` (stale
//! allows). See DESIGN.md §13 and §18 for the full contract.
//!
//! ## Suppression
//!
//! ```text
//! // ucore-lint: allow(float-eq): exact-zero sentinel; == on 0.0 is IEEE-exact
//! ```
//!
//! The reason after the second `:` is mandatory, and unused
//! suppressions are findings, so allows cannot go stale silently.
//! Findings anchored to Markdown files (contract-drift's stale doc
//! entries) cannot be suppressed — fix the doc instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod contracts;
pub mod diag;
pub mod graph;
pub mod lexer;
pub mod rules;
pub mod sarif;
pub mod suppress;
pub mod walk;

use context::FileContext;
use diag::Diagnostic;
use graph::SymbolGraph;
use rules::{Rule, WorkspaceRule};
use std::collections::BTreeMap;
use std::path::Path;
use suppress::Suppression;

/// The Markdown documents the contract-drift rule diffs code against.
#[derive(Debug, Default)]
pub struct Docs {
    /// DESIGN.md text (metric and error-code contract tables).
    pub design: Option<String>,
    /// README.md text (CLI flag reference tables).
    pub readme: Option<String>,
}

/// Everything a workspace rule can see.
pub struct WorkspaceContext<'a> {
    /// All lexed first-party files, in walk order.
    pub files: &'a [FileContext<'a>],
    /// The call graph over those files.
    pub graph: &'a SymbolGraph,
    /// Contract documents (may be absent in fixture runs).
    pub docs: &'a Docs,
    /// Parallel to `files`: each file's parsed suppressions.
    pub suppressions: &'a [Vec<Suppression>],
}

impl WorkspaceContext<'_> {
    /// True when a suppression of `rule` targets `line` of `files[file]`.
    ///
    /// Rules that *propagate* facts (panic reachability) consult this so
    /// a vetted source does not taint its callers; they still emit the
    /// site finding so the engine can mark the suppression used.
    pub fn is_suppressed(&self, rule: &str, file: usize, line: u32) -> bool {
        self.suppressions
            .get(file)
            .is_some_and(|sups| sups.iter().any(|s| s.rule == rule && s.target_line == line))
    }
}

/// Lints one file's source text with file-scope `rules`, applying
/// suppressions. Workspace rules need [`lint_files`].
///
/// `check_unused` should be true when running the full rule set (a
/// suppression for a disabled rule would otherwise be falsely reported
/// as unused).
pub fn lint_source(
    rel_path: &str,
    src: &str,
    rules: &[Box<dyn Rule>],
    check_unused: bool,
) -> Vec<Diagnostic> {
    let ctx = FileContext::new(rel_path, src);
    let mut findings = Vec::new();
    for rule in rules {
        if rule.applies(rel_path) {
            rule.check(&ctx, &mut findings);
        }
    }
    let mut malformed = Vec::new();
    let known = rules::known_names();
    let suppressions = suppress::collect(&ctx, &known, &mut malformed);
    let mut out = suppress::apply(&ctx, &suppressions, findings, check_unused);
    out.append(&mut malformed);
    out
}

/// Lints a set of files as one workspace: file rules per file, then
/// workspace rules over the symbol graph, then suppressions per file.
///
/// `files` are `(rel_path, source)` pairs; findings anchored to paths
/// outside the set (e.g. `DESIGN.md`) bypass suppression.
pub fn lint_files(
    files: &[(String, String)],
    docs: &Docs,
    file_rules: &[Box<dyn Rule>],
    ws_rules: &[Box<dyn WorkspaceRule>],
    check_unused: bool,
) -> Vec<Diagnostic> {
    let ctxs: Vec<FileContext<'_>> =
        files.iter().map(|(p, s)| FileContext::new(p.as_str(), s.as_str())).collect();
    let known = rules::known_names();
    let mut malformed = Vec::new();
    let sups: Vec<Vec<Suppression>> =
        ctxs.iter().map(|c| suppress::collect(c, &known, &mut malformed)).collect();

    let mut raw = Vec::new();
    for ctx in &ctxs {
        for rule in file_rules {
            if rule.applies(&ctx.rel_path) {
                rule.check(ctx, &mut raw);
            }
        }
    }
    if !ws_rules.is_empty() {
        let graph = SymbolGraph::build(&ctxs);
        let ws = WorkspaceContext { files: &ctxs, graph: &graph, docs, suppressions: &sups };
        for rule in ws_rules {
            rule.check(&ws, &mut raw);
        }
    }

    let index: BTreeMap<&str, usize> =
        ctxs.iter().enumerate().map(|(i, c)| (c.rel_path.as_str(), i)).collect();
    let mut per_file: Vec<Vec<Diagnostic>> = (0..ctxs.len()).map(|_| Vec::new()).collect();
    let mut out = Vec::new();
    for d in raw {
        match index.get(d.file.as_str()) {
            Some(&i) => per_file[i].push(d),
            None => out.push(d), // doc-anchored findings: no suppression
        }
    }
    for (i, ctx) in ctxs.iter().enumerate() {
        out.extend(suppress::apply(ctx, &sups[i], std::mem::take(&mut per_file[i]), check_unused));
    }
    out.append(&mut malformed);
    out.sort_by_key(Diagnostic::sort_key);
    out
}

/// Lints every first-party source file under the workspace `root` with
/// both rule sets, reading DESIGN.md/README.md for the contract rules.
///
/// # Errors
///
/// Returns the underlying `io::Error` when the workspace tree cannot be
/// read (missing root, unreadable file).
pub fn lint_workspace(
    root: &Path,
    file_rules: &[Box<dyn Rule>],
    ws_rules: &[Box<dyn WorkspaceRule>],
    check_unused: bool,
) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for rel in walk::workspace_files(root)? {
        let src = std::fs::read(root.join(&rel))?;
        files.push((rel, String::from_utf8_lossy(&src).into_owned()));
    }
    let docs = Docs {
        design: std::fs::read_to_string(root.join("DESIGN.md")).ok(),
        readme: std::fs::read_to_string(root.join("README.md")).ok(),
    };
    Ok(lint_files(&files, &docs, file_rules, ws_rules, check_unused))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_runs_all_rules_and_suppressions() {
        let src = "pub fn f() { let y = a == 1.0; }\n\
                   let z = b == 2.0; // ucore-lint: allow(float-eq): test of the engine\n";
        let out = lint_source("crates/core/src/x.rs", src, &rules::all(), true);
        assert_eq!(out.len(), 1, "unsuppressed float-eq remains: {out:?}");
        assert_eq!(out[0].rule, "float-eq");
    }

    #[test]
    fn clean_source_yields_nothing() {
        let src = "/// Adds.\npub fn add(a: u32, b: u32) -> u32 { a + b }\n";
        assert!(lint_source("crates/core/src/x.rs", src, &rules::all(), true).is_empty());
    }

    #[test]
    fn lint_files_runs_workspace_rules_with_suppressions() {
        let files = vec![(
            "crates/core/src/x.rs".to_string(),
            "pub fn f() { g.unwrap(); }\n\
             pub fn ok() { h.unwrap(); } // ucore-lint: allow(panic-reachability): engine test\n"
                .to_string(),
        )];
        let out =
            lint_files(&files, &Docs::default(), &rules::all(), &rules::workspace_all(), true);
        assert_eq!(out.len(), 1, "only the unsuppressed unwrap remains: {out:?}");
        assert_eq!(out[0].rule, "panic-reachability");
        assert_eq!(out[0].line, 1);
    }
}
