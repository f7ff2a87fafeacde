//! Fixture corpus: each rule runs over a `bad.rs` file with known
//! findings at known `(line, rule)` spans, and a `good.rs` file that
//! must lint clean — both under the *full* rule set, so fixtures also
//! prove the rules do not trip over each other.
//!
//! The fixture sources live under `tests/fixtures/<rule>/`; they are
//! data, not compiled code (the production walker only scans `src/`
//! trees, so they never reach `cargo run -p ucore-lint` either).

use ucore_lint::{lint_source, rules};

/// Lints fixture text as if it lived at `pseudo_path`, returning sorted
/// `(line, rule)` pairs.
fn findings(pseudo_path: &str, src: &str) -> Vec<(u32, &'static str)> {
    let mut out: Vec<(u32, &'static str)> = lint_source(pseudo_path, src, &rules::all(), true)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect();
    out.sort_unstable();
    out
}

fn assert_clean(pseudo_path: &str, src: &str) {
    let out = findings(pseudo_path, src);
    assert!(out.is_empty(), "expected a clean fixture, got {out:?}");
}

#[test]
fn float_eq_corpus() {
    assert_eq!(
        findings("crates/core/src/fixture.rs", include_str!("fixtures/float_eq/bad.rs")),
        vec![(5, "float-eq"), (6, "float-eq"), (7, "float-eq")],
    );
    assert_clean("crates/core/src/fixture.rs", include_str!("fixtures/float_eq/good.rs"));
}

#[test]
fn raw_f64_api_corpus() {
    assert_eq!(
        findings(
            "crates/core/src/fixture.rs",
            include_str!("fixtures/raw_f64_api/bad.rs"),
        ),
        vec![(4, "raw-f64-api"), (4, "raw-f64-api"), (10, "raw-f64-api")],
    );
    assert_clean(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/raw_f64_api/good.rs"),
    );
    // units.rs is the exempt conversion boundary.
    assert_clean("crates/core/src/units.rs", include_str!("fixtures/raw_f64_api/bad.rs"));
    // Crates outside core/devices/itrs are out of scope for this rule.
    assert_clean(
        "crates/report/src/fixture.rs",
        include_str!("fixtures/raw_f64_api/bad.rs"),
    );
}

#[test]
fn suppression_corpus() {
    assert_eq!(
        findings(
            "crates/core/src/fixture.rs",
            include_str!("fixtures/suppression/bad.rs"),
        ),
        vec![
            (5, "suppression"),         // allow without a reason
            (6, "float-eq"),            // … so the finding stays live
            (11, "suppression"),        // unknown rule name
            (12, "float-eq"),           // … suppresses nothing
            (16, "unused-suppression"), // stale allow
        ],
    );
    assert_clean(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/suppression/good.rs"),
    );
}
