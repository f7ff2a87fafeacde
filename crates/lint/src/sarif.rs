//! SARIF 2.1.0 output.
//!
//! One run, one driver (`ucore-lint`), every registered rule in the
//! driver's rule table, one `result` per finding with a physical
//! location. Strings are escaped by the vendored serde writer. The
//! emitted subset is pinned by `tests/sarif_schema.rs`, which validates
//! structure and required fields against the vendored `serde_json`
//! parser, so CI artifact consumers can rely on the shape.

use crate::diag::Diagnostic;
use serde::write::str;
use std::fmt::Write as _;

/// The SARIF schema the output declares.
pub const SCHEMA_URI: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Renders findings as a SARIF 2.1.0 document. `rules` is the full
/// `(name, description)` metadata table (see
/// [`crate::rules::all_rule_metadata`]); findings should be sorted.
pub fn render_sarif(findings: &[Diagnostic], rules: &[(&str, &str)]) -> String {
    let mut out = String::from("{\"$schema\":");
    str(SCHEMA_URI, &mut out);
    out.push_str(
        ",\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":\
         {\"name\":\"ucore-lint\",\"version\":",
    );
    str(env!("CARGO_PKG_VERSION"), &mut out);
    out.push_str(",\"rules\":[");
    for (i, (name, desc)) in rules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":");
        str(name, &mut out);
        out.push_str(",\"shortDescription\":{\"text\":");
        str(desc, &mut out);
        out.push_str("}}");
    }
    out.push_str("]}},\"results\":[");
    for (i, d) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"ruleId\":");
        str(d.rule, &mut out);
        out.push_str(",\"level\":\"error\",\"message\":{\"text\":");
        str(&d.message, &mut out);
        out.push_str("},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":");
        str(&d.file, &mut out);
        let _ = write!(
            out,
            "}},\"region\":{{\"startLine\":{},\"startColumn\":{}}}}}}}]}}",
            d.line, d.col
        );
    }
    out.push_str("]}]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Diagnostic {
        Diagnostic {
            rule: "contract-drift",
            file: "crates/serve/src/obs.rs".into(),
            line: 12,
            col: 9,
            message: "metric `serve.shed` undocumented \"quoted\"".into(),
        }
    }

    #[test]
    fn emits_schema_version_and_rule_table() {
        let out = render_sarif(&[finding()], &[("contract-drift", "docs match code")]);
        assert!(out.contains("\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\""));
        assert!(out.contains("\"version\":\"2.1.0\""));
        assert!(out.contains("\"id\":\"contract-drift\""));
        assert!(out.contains("\"startLine\":12"));
        assert!(out.contains("\\\"quoted\\\""));
    }

    #[test]
    fn empty_findings_still_emit_a_run() {
        let out = render_sarif(&[], &[("float-eq", "no float ==")]);
        assert!(out.contains("\"results\":[]"));
        assert!(out.contains("\"name\":\"ucore-lint\""));
    }
}
