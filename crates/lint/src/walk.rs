//! Workspace source discovery.
//!
//! The lint pass covers first-party code only: the facade crate's
//! `src/` and every `crates/*/src/` tree. `vendor/` (API shims for the
//! offline build), `target/`, test/bench directories, and the lint
//! fixture corpus are out of scope — fixtures are linted explicitly by
//! the test suite, not by the workspace walk.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// All first-party `.rs` files under `root`, workspace-relative,
/// `/`-separated, sorted for deterministic reports.
///
/// # Errors
///
/// Returns the underlying I/O error when a source directory cannot be
/// read.
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let facade = root.join("src");
    if facade.is_dir() {
        collect_rs(&facade, &mut out)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> =
            fs::read_dir(&crates)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut out)?;
            }
        }
    }
    let mut rel: Vec<String> = out
        .iter()
        .filter_map(|p| {
            p.strip_prefix(root)
                .ok()
                .map(|r| r.to_string_lossy().replace(std::path::MAIN_SEPARATOR, "/"))
        })
        .collect();
    rel.sort();
    Ok(rel)
}

/// Recursively collects `.rs` files under `dir`, sorted per directory.
///
/// # Errors
///
/// The first directory that cannot be read.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locates the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_finds_this_crate_and_skips_vendor() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root exists");
        let files = workspace_files(&root).expect("walk succeeds");
        assert!(files.iter().any(|f| f == "crates/lint/src/walk.rs"));
        assert!(files.iter().any(|f| f == "crates/core/src/units.rs"));
        assert!(files.iter().any(|f| f == "src/lib.rs"));
        assert!(!files.iter().any(|f| f.starts_with("vendor/")));
        assert!(!files.iter().any(|f| f.contains("/tests/")));
        assert!(!files.iter().any(|f| f.contains("/fixtures/")));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "walk output must be sorted");
    }
}
