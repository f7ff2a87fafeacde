//! `contract-drift`: the docs' contract tables match the code.
//!
//! Three contracts, each diffed in *both* directions (an undocumented
//! code identifier and a stale doc row are equally findings):
//!
//! 1. **Metrics** — every `Registry::counter/gauge/histogram("fam.name")`
//!    registration in non-test code vs DESIGN.md's metrics contract
//!    table (§18).
//! 2. **Error codes** — every `ServeError` dotted code constructed in
//!    `crates/serve/src/` and every `UcoreError` Display prefix in
//!    `src/error.rs` vs DESIGN.md's error-taxonomy table (§18).
//! 3. **CLI flags** — every whole-literal `"--flag"` string in the
//!    files each of `repro`, `served` and `ucore-lint` parses its flags
//!    from vs that binary's README CLI reference table, the one under the
//!    heading that names its parser file. The flags both binaries share
//!    (`crates/bench/src/cli.rs`) count for both tables. Rows under no
//!    binary's heading document whichever binaries parse them.
//!
//! Doc-side entries come only from table rows whose first cell is a
//! backticked identifier matching the contract's grammar (see
//! [`crate::contracts`]); prose and fenced code blocks are free-form.
//! Undocumented identifiers anchor at the code line; stale entries
//! anchor at the Markdown line (and cannot be suppressed — fix the
//! doc).

use super::WorkspaceRule;
use crate::context::FileContext;
use crate::contracts::{
    is_error_code, is_error_prefix, is_flag_name, is_metric_name, table_entries, DocEntry,
};
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::WorkspaceContext;
use std::collections::BTreeMap;

/// The `contract-drift` rule.
pub struct ContractDrift;

/// Metric-registering method names on the obs `Registry`.
const METRIC_METHODS: [&str; 3] = ["counter", "gauge", "histogram"];

/// Each binary's parser file, as its README CLI reference heading names
/// it, with the files whose `"--flag"` literals form its CLI contract.
const FLAG_FILES: [(&str, &[&str]); 3] = [
    ("crates/bench/src/bin/repro.rs", &["crates/bench/src/bin/repro.rs", SHARED_FLAGS]),
    ("crates/serve/src/bin/served.rs", &["crates/serve/src/bin/served.rs", SHARED_FLAGS]),
    ("crates/lint/src/main.rs", &["crates/lint/src/main.rs"]),
];

/// Where `repro` and `served` declare the flags they share.
const SHARED_FLAGS: &str = "crates/bench/src/cli.rs";

impl WorkspaceRule for ContractDrift {
    fn name(&self) -> &'static str {
        "contract-drift"
    }

    fn description(&self) -> &'static str {
        "DESIGN.md/README contract tables match code metrics, error codes, and CLI flags"
    }

    fn check(&self, ws: &WorkspaceContext<'_>, out: &mut Vec<Diagnostic>) {
        if let Some(design) = &ws.docs.design {
            let entries = table_entries(design);
            self.check_metrics(ws, &entries, out);
            self.check_errors(ws, &entries, out);
        }
        if let Some(readme) = &ws.docs.readme {
            self.check_flags(ws, readme, out);
        }
    }
}

/// A code-side identifier occurrence: name → first (file, line, col).
type CodeSide = BTreeMap<String, (String, u32, u32)>;

impl ContractDrift {
    fn check_metrics(
        &self,
        ws: &WorkspaceContext<'_>,
        entries: &[DocEntry],
        out: &mut Vec<Diagnostic>,
    ) {
        let mut code = CodeSide::new();
        for ctx in ws.files {
            for (i, tok) in ctx.tokens.iter().enumerate() {
                if ctx.in_test[i]
                    || tok.kind != TokenKind::Ident
                    || !METRIC_METHODS.contains(&tok.text)
                {
                    continue;
                }
                let Some(lit) = str_arg(ctx, i) else { continue };
                let (text, line, col) = lit;
                if is_metric_name(&text) {
                    code.entry(text).or_insert((ctx.rel_path.clone(), line, col));
                }
            }
        }
        self.diff(
            ws,
            &code,
            entries,
            is_metric_name,
            "metric",
            "the DESIGN.md metrics contract table (§18)",
            "registered",
            out,
        );
    }

    fn check_errors(
        &self,
        ws: &WorkspaceContext<'_>,
        entries: &[DocEntry],
        out: &mut Vec<Diagnostic>,
    ) {
        let mut code = CodeSide::new();
        for ctx in ws.files {
            if ctx.rel_path.starts_with("crates/serve/src/") {
                // `ServeError::new("code", …)` and helper constructors.
                for (i, tok) in ctx.tokens.iter().enumerate() {
                    if ctx.in_test[i] || tok.kind != TokenKind::Ident || tok.text != "new" {
                        continue;
                    }
                    let Some((text, line, col)) = str_arg(ctx, i) else { continue };
                    if is_error_code(&text) {
                        code.entry(text).or_insert((ctx.rel_path.clone(), line, col));
                    }
                }
            }
            if ctx.rel_path == "src/error.rs" {
                // `UcoreError` Display prefixes: `"model: {e}"` → `model:`.
                for (i, tok) in ctx.tokens.iter().enumerate() {
                    if ctx.in_test[i] || tok.kind != TokenKind::Str {
                        continue;
                    }
                    let text = unquote(tok.text);
                    let Some(colon) = text.find(": ") else { continue };
                    let prefix = format!("{}:", &text[..colon]);
                    if is_error_prefix(&prefix) {
                        code.entry(prefix).or_insert((
                            ctx.rel_path.clone(),
                            tok.line,
                            tok.col,
                        ));
                    }
                }
            }
        }
        let is_error_entry = |name: &str| is_error_code(name) || is_error_prefix(name);
        self.diff(
            ws,
            &code,
            entries,
            is_error_entry,
            "error code",
            "the DESIGN.md error-taxonomy table (§18)",
            "constructed",
            out,
        );
    }

    fn check_flags(&self, ws: &WorkspaceContext<'_>, readme: &str, out: &mut Vec<Diagnostic>) {
        let entries = table_entries(readme);
        let sections = flag_sections(readme);
        let section = |e: &DocEntry| sections.get(e.line as usize - 1).copied().flatten();
        let mut parsed = CodeSide::new();
        for (binary, files) in FLAG_FILES {
            let code = flag_literals(ws, files);
            // Rows under no binary's heading document every binary that
            // parses them...
            let table: Vec<DocEntry> = entries
                .iter()
                .filter(|e| section(e).map_or(code.contains_key(&e.name), |b| b == binary))
                .cloned()
                .collect();
            let name = format!("the README CLI reference table for {binary}");
            self.diff(ws, &code, &table, is_flag_name, "CLI flag", &name, "parsed", out);
            parsed.extend(code);
        }
        // ...and are stale only when none does.
        let shared: Vec<DocEntry> = entries.into_iter().filter(|e| section(e).is_none()).collect();
        parsed.retain(|name, _| shared.iter().any(|e| e.name == *name));
        let name = "the README CLI reference tables";
        self.diff(ws, &parsed, &shared, is_flag_name, "CLI flag", name, "parsed", out);
    }

    /// Emits both drift directions for one contract.
    #[expect(
        clippy::too_many_arguments,
        reason = "each argument names one independent side of the contract being diffed"
    )]
    fn diff(
        &self,
        ws: &WorkspaceContext<'_>,
        code: &CodeSide,
        entries: &[DocEntry],
        in_contract: impl Fn(&str) -> bool,
        noun: &str,
        table: &str,
        verb: &str,
        out: &mut Vec<Diagnostic>,
    ) {
        let doc_file = if table.contains("README") { "README.md" } else { "DESIGN.md" };
        let documented: BTreeMap<&str, u32> = entries
            .iter()
            .filter(|e| in_contract(&e.name))
            .map(|e| (e.name.as_str(), e.line))
            .collect();
        for (name, (file, line, col)) in code {
            if !documented.contains_key(name.as_str()) {
                out.push(Diagnostic {
                    rule: self.name(),
                    file: file.clone(),
                    line: *line,
                    col: *col,
                    message: format!(
                        "{noun} `{name}` is {verb} in code but missing from {table}; \
                         add a row or remove the identifier"
                    ),
                });
            }
        }
        let _ = ws;
        for (name, line) in &documented {
            if !code.contains_key(*name) {
                out.push(Diagnostic {
                    rule: self.name(),
                    file: doc_file.to_string(),
                    line: *line,
                    col: 1,
                    message: format!(
                        "{noun} `{name}` in {table} is no longer {verb} in code; \
                         delete the stale row or restore the identifier"
                    ),
                });
            }
        }
    }
}

/// Every whole-literal `"--flag"` string in non-test code of `files`.
fn flag_literals(ws: &WorkspaceContext<'_>, files: &[&str]) -> CodeSide {
    let mut code = CodeSide::new();
    for ctx in ws.files.iter().filter(|ctx| files.iter().any(|f| ctx.rel_path.ends_with(f))) {
        for (i, tok) in ctx.tokens.iter().enumerate() {
            if ctx.in_test[i] || tok.kind != TokenKind::Str {
                continue;
            }
            let text = unquote(tok.text);
            if is_flag_name(&text) {
                code.entry(text).or_insert((ctx.rel_path.clone(), tok.line, tok.col));
            }
        }
    }
    code
}

/// For each line of `md`, the `FLAG_FILES` parser named by the nearest
/// heading above it, skipping `# comments` in fenced code.
fn flag_sections(md: &str) -> Vec<Option<&'static str>> {
    let mut in_fence = false;
    let mut current = None;
    md.lines()
        .map(|line| {
            let trimmed = line.trim_start();
            if trimmed.starts_with("```") {
                in_fence = !in_fence;
            } else if !in_fence && trimmed.starts_with('#') {
                current = FLAG_FILES.iter().map(|&(bin, _)| bin).find(|bin| trimmed.contains(bin));
            }
            current
        })
        .collect()
}

/// When the ident at `i` is followed by `(` and a string literal,
/// returns the literal's unquoted text and position.
fn str_arg(ctx: &FileContext<'_>, i: usize) -> Option<(String, u32, u32)> {
    let open = ctx.next_code(i)?;
    if !ctx.is_punct(open, "(") {
        return None;
    }
    let arg = ctx.next_code(open)?;
    let tok = &ctx.tokens[arg];
    if tok.kind != TokenKind::Str {
        return None;
    }
    Some((unquote(tok.text), tok.line, tok.col))
}

/// Strips the quotes (and any `b`/`c` prefix) off a `Str` token's text.
fn unquote(text: &str) -> String {
    let inner = text.trim_start_matches(['b', 'c']);
    inner.strip_prefix('"').and_then(|s| s.strip_suffix('"')).unwrap_or(inner).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_files, rules, Docs};

    fn findings(files: &[(&str, &str)], design: &str, readme: &str) -> Vec<Diagnostic> {
        let owned: Vec<(String, String)> =
            files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        let docs = Docs {
            design: (!design.is_empty()).then(|| design.to_string()),
            readme: (!readme.is_empty()).then(|| readme.to_string()),
        };
        lint_files(
            &owned,
            &docs,
            &[],
            &[Box::new(ContractDrift) as Box<dyn rules::WorkspaceRule>],
            true,
        )
    }

    #[test]
    fn matching_contract_is_clean() {
        let out = findings(
            &[("crates/serve/src/obs.rs", "fn m(r: &Registry) { r.counter(\"serve.shed\"); }")],
            "| `serve.shed` | counter |\n",
            "",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn undocumented_metric_anchors_at_code() {
        let out = findings(
            &[(
                "crates/serve/src/obs.rs",
                "fn m(r: &Registry) { r.counter(\"serve.shed\"); r.gauge(\"serve.inflight\"); }",
            )],
            "| `serve.shed` | counter |\n",
            "",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].file, "crates/serve/src/obs.rs");
        assert!(out[0].message.contains("`serve.inflight`"));
    }

    #[test]
    fn stale_metric_anchors_at_design_md() {
        let out = findings(
            &[("crates/serve/src/obs.rs", "fn m(r: &Registry) { r.counter(\"serve.shed\"); }")],
            "| `serve.shed` | counter |\n| `serve.gone` | counter |\n",
            "",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].file, "DESIGN.md");
        assert_eq!(out[0].line, 2);
        assert!(out[0].message.contains("`serve.gone`"));
    }

    #[test]
    fn error_codes_and_prefixes_diff_both_ways() {
        let files = [
            (
                "crates/serve/src/error.rs",
                "fn e() { Self::new(\"http.timeout\", 408, \"m\"); }",
            ),
            ("src/error.rs", "fn d(f: &mut F, e: &E) { write!(f, \"model: {e}\") }"),
        ];
        let out = findings(
            &files,
            "| `http.timeout` | 408 |\n| `model:` | facade |\n",
            "",
        );
        assert!(out.is_empty(), "{out:?}");
        let out = findings(&files, "| `http.timeout` | 408 |\n| `device:` | facade |\n", "");
        assert_eq!(out.len(), 2, "stale `device:` and undocumented `model:`: {out:?}");
    }

    #[test]
    fn flag_drift_both_ways() {
        let files = [(
            "crates/lint/src/main.rs",
            "fn p(a: &str) { match a { \"--json\" => {} \"--sarif\" => {} _ => {} } }",
        )];
        let clean = findings(&files, "", "| `--json` | JSON out |\n| `--sarif` | SARIF out |\n");
        assert!(clean.is_empty(), "{clean:?}");
        let out = findings(&files, "", "| `--json` | JSON out |\n| `--gone` | removed |\n");
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().any(|d| d.file == "README.md" && d.message.contains("`--gone`")));
        assert!(out
            .iter()
            .any(|d| d.file == "crates/lint/src/main.rs" && d.message.contains("`--sarif`")));
    }

    #[test]
    fn absent_docs_disable_the_checks() {
        let out = findings(
            &[("crates/serve/src/obs.rs", "fn m(r: &Registry) { r.counter(\"serve.shed\"); }")],
            "",
            "",
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
