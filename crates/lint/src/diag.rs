//! Diagnostics: the finding type and its human/JSON renderings.

use serde::Serialize;
use std::fmt::Write as _;

/// One lint finding, anchored to a file/line/column. Its JSON form is
/// one `--json` finding, so the field order is the schema's.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Diagnostic {
    /// The rule that produced the finding (kebab-case, e.g. `float-eq`).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl Diagnostic {
    /// Sort key giving a deterministic report order: by file, then
    /// position, then rule name.
    pub fn sort_key(&self) -> (String, u32, u32, &'static str) {
        (self.file.clone(), self.line, self.col, self.rule)
    }

    /// The `file:line:col` prefix used in human output.
    pub fn span(&self) -> String {
        format!("{}:{}:{}", self.file, self.line, self.col)
    }
}

/// Renders findings in the human (rustc-like) format.
pub fn render_human(findings: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in findings {
        let _ = writeln!(out, "error[{}]: {}", d.rule, d.message);
        let _ = writeln!(out, "  --> {}", d.span());
    }
    if findings.is_empty() {
        out.push_str("ucore-lint: no findings\n");
    } else {
        let _ = writeln!(
            out,
            "ucore-lint: {} finding{}",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        );
    }
    out
}

/// Renders findings as a stable JSON document (sorted input expected).
///
/// The schema is intentionally small and append-only:
/// `{"version":1,"findings":[{rule,file,line,col,message}…],"total":N}`.
pub fn render_json(findings: &[Diagnostic]) -> String {
    let mut out = String::from("{\"version\":1,\"findings\":");
    findings.write_json(&mut out, false, 0);
    let _ = writeln!(out, ",\"total\":{}}}", findings.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(rule: &'static str, file: &str, line: u32) -> Diagnostic {
        Diagnostic { rule, file: file.into(), line, col: 1, message: "m \"q\"\n".into() }
    }

    #[test]
    fn json_escapes_quotes_and_control_chars() {
        let mut finding = d("float-eq", "a\\b.rs", 3);
        finding.message.push_str("\u{1}\u{1f}\r\t");
        assert_eq!(
            render_json(&[finding]),
            "{\"version\":1,\"findings\":[{\"rule\":\"float-eq\",\"file\":\"a\\\\b.rs\",\
             \"line\":3,\"col\":1,\"message\":\"m \\\"q\\\"\\n\\u0001\\u001f\\r\\t\"}],\"total\":1}\n"
        );
    }

    #[test]
    fn json_empty_is_valid() {
        assert_eq!(render_json(&[]), "{\"version\":1,\"findings\":[],\"total\":0}\n");
    }

    #[test]
    fn human_counts_findings() {
        let out = render_human(&[d("r", "a.rs", 1), d("r", "b.rs", 2)]);
        assert!(out.contains("2 findings"));
        assert!(out.contains("a.rs:1:1"));
    }
}
