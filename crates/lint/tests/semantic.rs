//! Workspace-rule fixture corpus: each semantic rule runs over a
//! `bad.rs` fixture with known `(line, rule)` findings and a `good.rs`
//! that must lint clean — under the *full* file + workspace rule sets,
//! so fixtures also prove the rules do not trip over each other.
//!
//! Fixture sources live under `tests/fixtures/<rule>/`; they are data,
//! not compiled code. Contract-drift fixtures additionally carry their
//! own `DESIGN.md`/`README.md`, exercised through [`Docs`].

use ucore_lint::{lint_files, rules, Docs};

/// Lints a pseudo-workspace under every rule, returning sorted
/// `(line, rule)` pairs.
fn findings(files: &[(&str, &str)], docs: &Docs) -> Vec<(u32, &'static str)> {
    let mut out: Vec<(u32, &'static str)> = run(files, docs).into_iter().map(|d| (d.line, d.rule)).collect();
    out.sort_unstable();
    out
}

/// Same, but keeps the full diagnostics for message assertions.
fn run(files: &[(&str, &str)], docs: &Docs) -> Vec<ucore_lint::diag::Diagnostic> {
    let owned: Vec<(String, String)> =
        files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
    lint_files(&owned, docs, &rules::all(), &rules::workspace_all(), true)
}

fn assert_clean(files: &[(&str, &str)], docs: &Docs) {
    let out = findings(files, docs);
    assert!(out.is_empty(), "expected a clean fixture, got {out:?}");
}

#[test]
fn lock_discipline_corpus() {
    let files =
        [("crates/core/src/fixture.rs", include_str!("fixtures/lock_discipline/bad.rs"))];
    assert_eq!(
        findings(&files, &Docs::default()),
        vec![
            (8, "lock-discipline"),  // sync_all under `guard`
            (14, "lock-discipline"), // send under `g`
            (20, "lock-discipline"), // flush → persist → sync_all under `held`
        ],
    );
    let out = run(&files, &Docs::default());
    assert!(
        out.iter().any(|d| d.line == 20 && d.message.contains("transitively")),
        "the indirect finding must say so: {out:?}"
    );
    assert!(
        out.iter().any(|d| d.message.contains("bound at line 7")),
        "findings must name the binding site: {out:?}"
    );
    assert_clean(
        &[("crates/core/src/fixture.rs", include_str!("fixtures/lock_discipline/good.rs"))],
        &Docs::default(),
    );
}

#[test]
fn signal_safety_corpus() {
    let files =
        [("crates/bench/src/bin/repro.rs", include_str!("fixtures/signal_safety/bad.rs"))];
    assert_eq!(
        findings(&files, &Docs::default()),
        vec![
            (9, "signal-safety"),  // eprintln! allocates
            (10, "signal-safety"), // slice index can panic
            (16, "signal-safety"), // remove_file is not async-signal-safe
        ],
    );
    let out = run(&files, &Docs::default());
    assert!(
        out.iter().any(|d| d.line == 16 && d.message.contains("on_signal → helper")),
        "the indirect finding must carry the handler path: {out:?}"
    );
    assert_clean(
        &[("crates/bench/src/bin/repro.rs", include_str!("fixtures/signal_safety/good.rs"))],
        &Docs::default(),
    );
}

#[test]
fn contract_drift_corpus() {
    let docs = Docs {
        design: Some(include_str!("fixtures/contract_drift/DESIGN.md").to_string()),
        readme: Some(include_str!("fixtures/contract_drift/README.md").to_string()),
    };
    let files =
        [("crates/serve/src/bin/served.rs", include_str!("fixtures/contract_drift/code.rs"))];
    let out = run(&files, &docs);
    let spans: Vec<(&str, u32, &'static str)> =
        out.iter().map(|d| (d.file.as_str(), d.line, d.rule)).collect();
    assert_eq!(
        spans,
        vec![
            ("DESIGN.md", 6, "contract-drift"),  // `serve.ghost` is stale
            ("README.md", 7, "contract-drift"),  // `--gone` is stale
            ("crates/serve/src/bin/served.rs", 7, "contract-drift"), // `serve.shed` undocumented
        ],
        "{out:?}"
    );
    assert!(out.iter().any(|d| d.message.contains("`serve.shed`")), "{out:?}");
    assert!(out.iter().any(|d| d.message.contains("`serve.ghost`")), "{out:?}");
    assert!(out.iter().any(|d| d.message.contains("`--gone`")), "{out:?}");
}

#[test]
fn contract_drift_clean_when_docs_match() {
    // Same code, docs without the stale rows, shed/error/flags all
    // documented: zero findings in either direction.
    let design = "| metric |\n|---|\n| `serve.accepted` |\n| `serve.shed` |\n\n\
                  | code |\n|---|\n| `server.overloaded` |\n| `server.draining` |\n";
    let readme = "| flag |\n|---|\n| `--json` |\n| `--workers` |\n";
    let docs = Docs { design: Some(design.into()), readme: Some(readme.into()) };
    assert_clean(
        &[("crates/serve/src/bin/served.rs", include_str!("fixtures/contract_drift/code.rs"))],
        &docs,
    );
}

#[test]
fn suppressed_workspace_findings_need_reasons_and_stay_used() {
    // A reasoned allow drops the finding and is not reported unused; an
    // unreasoned one is itself a finding and suppresses nothing.
    let src = "fn a(m: &Mutex<F>) { let g = m.lock(); g.sync_all() } // ucore-lint: allow(lock-discipline): vetted\n\
               // ucore-lint: allow(lock-discipline)\n\
               fn b(m: &Mutex<F>) { let g = m.lock(); g.sync_all() }\n";
    assert_eq!(
        findings(&[("crates/core/src/fixture.rs", src)], &Docs::default()),
        vec![(2, "suppression"), (3, "lock-discipline")],
    );
}
