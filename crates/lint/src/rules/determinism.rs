//! `determinism`: no wall-clock reads or hash-ordered containers in
//! output-producing paths.
//!
//! The sweep/figure pipeline guarantees byte-identical output across
//! cache states and shard counts (DESIGN.md §10) and across
//! crash/resume (§12). Two
//! things silently break that guarantee: reading the wall clock
//! (`Instant::now` / `SystemTime::now`) into anything that reaches the
//! output, and iterating a `HashMap`/`HashSet` (random per-process seed
//! order) while serializing. This rule polices the files that produce
//! output bytes: the sweep engine, the journal, figure/result assembly,
//! every renderer in `ucore-report`, and all of `ucore-obs` (whose
//! snapshots and traces are diffed byte-for-byte in golden tests; its
//! single sanctioned wall-clock channel carries a reasoned
//! suppression).

use super::Rule;
use crate::context::FileContext;
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;

/// The `determinism` rule.
pub struct Determinism;

/// File names (within model-crate `src/` trees) that assemble or
/// serialize output bytes.
const OUTPUT_FILES: [&str; 5] =
    ["sweep.rs", "journal.rs", "figures.rs", "results.rs", "shard.rs"];

impl Rule for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }

    fn description(&self) -> &'static str {
        "no Instant/SystemTime::now or HashMap/HashSet in output-producing paths"
    }

    fn applies(&self, rel_path: &str) -> bool {
        if rel_path.starts_with("crates/report/src/")
            || rel_path.starts_with("crates/obs/src/")
        {
            return true;
        }
        super::in_model_src(rel_path)
            && OUTPUT_FILES
                .iter()
                .any(|f| rel_path.ends_with(&format!("/{f}")))
    }

    fn check(&self, ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
        for (i, tok) in ctx.tokens.iter().enumerate() {
            if ctx.in_test[i] || tok.kind != TokenKind::Ident {
                continue;
            }
            let message = match tok.text {
                "Instant" | "SystemTime" if is_now_call(ctx, i) => format!(
                    "`{}::now` in an output-producing path; wall-clock values must \
                     not influence output bytes (keep timing observability-only)",
                    tok.text
                ),
                "HashMap" | "HashSet" => format!(
                    "`{}` in an output-producing path; iteration order is \
                     nondeterministic — use `BTreeMap`/`BTreeSet`",
                    tok.text
                ),
                _ => continue,
            };
            out.push(Diagnostic {
                rule: self.name(),
                file: ctx.rel_path.clone(),
                line: tok.line,
                col: tok.col,
                message,
            });
        }
    }
}

/// True when the ident at `i` is followed by `::now`.
fn is_now_call(ctx: &FileContext<'_>, i: usize) -> bool {
    let Some(sep) = ctx.next_code(i) else { return false };
    if !ctx.is_punct(sep, "::") {
        return false;
    }
    ctx.next_code(sep).is_some_and(|n| ctx.is_ident(n, "now"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<String> {
        let ctx = FileContext::new("crates/project/src/sweep.rs", src);
        let mut out = Vec::new();
        Determinism.check(&ctx, &mut out);
        out.iter().map(|d| d.message.clone()).collect()
    }

    #[test]
    fn flags_wall_clock_reads() {
        assert_eq!(findings("let t = Instant::now();").len(), 1);
        assert_eq!(findings("let t = std::time::SystemTime::now();").len(), 1);
    }

    #[test]
    fn flags_hash_containers() {
        assert_eq!(findings("use std::collections::HashMap;").len(), 1);
        assert_eq!(findings("let s: HashSet<u32> = HashSet::new();").len(), 2);
    }

    #[test]
    fn ignores_instant_without_now_and_btree() {
        assert!(findings("fn take(t: Instant) {}").is_empty());
        assert!(findings("use std::collections::BTreeMap;").is_empty());
        assert!(findings("let d: Duration = Instant::elapsed(&t);").is_empty());
    }

    #[test]
    fn scope_covers_output_paths_only() {
        for path in [
            "crates/project/src/sweep.rs",
            "crates/project/src/journal.rs",
            "crates/project/src/figures.rs",
            "crates/project/src/results.rs",
            "crates/project/src/shard.rs",
            "crates/bench/src/figures.rs",
            "crates/report/src/csv.rs",
            "crates/obs/src/clock.rs",
            "crates/obs/src/metrics.rs",
        ] {
            assert!(Determinism.applies(path), "{path} should be in scope");
        }
        for path in [
            "crates/core/src/cache.rs",
            "crates/project/src/durability.rs",
            "crates/workloads/src/throughput.rs",
        ] {
            assert!(!Determinism.applies(path), "{path} should be out of scope");
        }
    }
}
