//! Pins the exact bytes of all 34 deliverable artifacts.
//!
//! Every table, figure, scenario and JSON/CSV export is rendered through
//! the shared `render::render` path, and the FNV-1a 64 digest of its body
//! is compared with the `artifact` line that `perfbench/digests.txt`
//! pins for it. The benchmark checks the same digests on every request
//! it sends; this test makes a byte change fail the ordinary test run.

use ucore_bench::render::{render, Target};

const DIGESTS: &str = include_str!("../../../perfbench/digests.txt");

/// FNV-1a, 64 bit, as the benchmark computes it.
fn fnv1a64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// The artifact path the digest file names, and its render target.
fn artifacts() -> Vec<(String, Target)> {
    let mut out = Vec::new();
    for n in 1..=6 {
        out.push((format!("/table/{n}"), Target::Table(n.to_string())));
    }
    for n in 2..=11 {
        out.push((format!("/figure/{n}"), Target::Figure(n.to_string())));
    }
    for n in 1..=6 {
        out.push((format!("/scenario/{n}"), Target::Scenario(n.to_string())));
    }
    for n in 6..=11 {
        out.push((format!("/json/figure-{n}"), Target::Json(format!("figure-{n}"))));
    }
    for n in 6..=11 {
        out.push((format!("/csv/figure-{n}"), Target::Csv(format!("figure-{n}"))));
    }
    out
}

fn pinned(path: &str) -> &'static str {
    DIGESTS
        .lines()
        .filter_map(|line| line.strip_prefix("artifact "))
        .find_map(|rest| {
            let (p, digest) = rest.split_once(' ')?;
            (p == path).then_some(digest.trim())
        })
        .unwrap_or_else(|| panic!("{path}: no pinned digest"))
}

#[test]
fn every_artifact_matches_its_pinned_digest() {
    let arts = artifacts();
    let pinned_count = DIGESTS.lines().filter(|l| l.starts_with("artifact ")).count();
    assert_eq!(arts.len(), 34);
    assert_eq!(pinned_count, arts.len(), "digest file pins a different artifact set");
    let mismatches: Vec<String> = arts
        .iter()
        .filter_map(|(path, target)| {
            let body = render(target)
                .unwrap_or_else(|e| panic!("{path}: render failed: {e}"))
                .body;
            let got = fnv1a64(body.as_bytes());
            let want = pinned(path);
            (got != want).then(|| format!("{path}: digest {got} != pinned {want}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
