//! End-to-end contract-drift regression: copy the real workspace
//! sources and docs into a scratch root, delete one documented row (a
//! `serve.*` metric from the DESIGN.md copy, or a `served` flag from the
//! README copy), and run the built `ucore-lint` binary against it. Each
//! doctored tree must produce exactly that one drift finding and exit 1;
//! the faithful copy must stay clean and exit 0 — which also pins the
//! real tree's "workspace lints clean" guarantee from CI's perspective.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;
use ucore_lint::walk;

/// The repository root (two levels above this crate's manifest).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("crates/lint has a root").to_path_buf()
}

/// Copies every first-party source file plus the contract docs into
/// `dst`, mutating the DESIGN.md and README.md texts through `design`
/// and `readme`.
fn copy_workspace(dst: &Path, design: fn(String) -> String, readme: fn(String) -> String) {
    let root = repo_root();
    let files = walk::workspace_files(&root).expect("walk the real workspace");
    assert!(files.len() > 20, "workspace walk looks truncated: {}", files.len());
    for rel in files {
        let to = dst.join(&rel);
        fs::create_dir_all(to.parent().expect("file paths have parents")).expect("mkdir");
        fs::copy(root.join(&rel), to).expect("copy source file");
    }
    let text = |doc: &str| fs::read_to_string(root.join(doc)).expect("read a contract doc");
    fs::write(dst.join("DESIGN.md"), design(text("DESIGN.md"))).expect("write DESIGN.md");
    fs::write(dst.join("README.md"), readme(text("README.md"))).expect("write README.md");
}

/// Runs the built binary with `--json --root dir`; returns (exit code,
/// parsed report).
fn lint(dir: &Path) -> (i32, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_ucore-lint"))
        .args(["--json", "--root"])
        .arg(dir)
        .output()
        .expect("run ucore-lint");
    let code = out.status.code().expect("exit code");
    let report: Value =
        serde_json::from_slice(&out.stdout).expect("--json output parses");
    (code, report)
}

#[test]
fn faithful_copy_is_clean_and_dropping_a_metric_row_is_exactly_one_drift() {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("drift_e2e");
    let _ = fs::remove_dir_all(&scratch);

    // Faithful copy: the workspace contract holds, exit 0.
    let clean = scratch.join("clean");
    copy_workspace(&clean, |design| design, |readme| readme);
    let (code, report) = lint(&clean);
    assert_eq!(report["total"], 0, "faithful copy must lint clean: {report}");
    assert_eq!(code, 0);

    // Doctored copy: the documented `serve.accepted` row is gone, so
    // the registration in crates/serve/src/obs.rs is undocumented.
    let doctored = scratch.join("doctored");
    let drop_metric_row = |design: String| {
        let row = "| `serve.accepted` |";
        assert!(design.contains(row), "DESIGN.md §18 must document serve.accepted");
        design.lines().filter(|l| !l.starts_with(row)).collect::<Vec<_>>().join("\n")
    };
    copy_workspace(&doctored, drop_metric_row, |readme| readme);
    let (code, report) = lint(&doctored);
    assert_eq!(code, 1, "drift must fail the run: {report}");
    assert_eq!(report["total"], 1, "exactly the one injected drift: {report}");
    let finding = &report["findings"][0];
    assert_eq!(finding["rule"], "contract-drift");
    assert_eq!(finding["file"], "crates/serve/src/obs.rs");
    let message = finding["message"].as_str().expect("message is a string");
    assert!(message.contains("`serve.accepted`"), "{message}");
    assert!(message.contains("missing from the DESIGN.md"), "{message}");

    // Doctored README: `served`'s `--journal` row is gone. The flag is
    // declared once, in crates/bench/src/cli.rs, for both binaries, and
    // `repro`'s table still documents it; only `served`'s table drifts.
    let doctored = scratch.join("doctored-readme");
    copy_workspace(&doctored, |design| design, |readme| {
        let served = readme.find("### `served`").expect("README has a served CLI table");
        let at = served + readme[served..].find("| `--journal` |").expect("served documents it");
        let end = at + readme[at..].find('\n').expect("row ends in a newline") + 1;
        format!("{}{}", &readme[..at], &readme[end..])
    });
    let (code, report) = lint(&doctored);
    assert_eq!(code, 1, "drift must fail the run: {report}");
    assert_eq!(report["total"], 1, "exactly the one injected drift: {report}");
    let finding = &report["findings"][0];
    assert_eq!(finding["file"], "crates/bench/src/cli.rs");
    let message = finding["message"].as_str().expect("message is a string");
    assert!(message.contains("`--journal`") && message.contains("served.rs"), "{message}");
}

