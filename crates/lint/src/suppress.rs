//! Inline suppression comments.
//!
//! A finding is suppressed by a comment of the form:
//!
//! ```text
//! // ucore-lint: allow(rule-name): reason the rule does not apply here
//! ```
//!
//! The reason is **mandatory** — a suppression without one is itself a
//! finding. A suppression on its own line applies to the next line that
//! contains code; a trailing suppression applies to its own line. Unused
//! suppressions are findings too, so stale allows are cleaned up the
//! moment the code they excused changes.

use crate::context::FileContext;
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;

/// The marker that introduces a suppression inside a comment.
const MARKER: &str = "ucore-lint:";

/// One parsed suppression comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// The rule name inside `allow(…)`.
    pub rule: String,
    /// The line the comment sits on.
    pub comment_line: u32,
    /// The line findings must be on to be suppressed.
    pub target_line: u32,
    /// The written justification (non-empty once validated).
    pub reason: String,
}

/// Extracts suppressions from a file's comments. Malformed suppressions
/// (bad syntax, unknown rule, missing reason) are reported into
/// `malformed` as `suppression`-rule findings.
pub fn collect(
    ctx: &FileContext<'_>,
    known_rules: &[&'static str],
    malformed: &mut Vec<Diagnostic>,
) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (i, tok) in ctx.tokens.iter().enumerate() {
        if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let Some(pos) = tok.text.find(MARKER) else { continue };
        let body = tok.text[pos + MARKER.len()..].trim();
        // Strip a block comment's closing fence so the block form parses.
        let body = body.strip_suffix("*/").unwrap_or(body).trim_end();
        let bad = |message: String, malformed: &mut Vec<Diagnostic>| {
            malformed.push(Diagnostic {
                rule: "suppression",
                file: ctx.rel_path.clone(),
                line: tok.line,
                col: tok.col,
                message,
            });
        };
        let Some(rest) = body.strip_prefix("allow(") else {
            bad(
                format!(
                    "malformed suppression: expected `{MARKER} allow(rule): reason`, got `{body}`"
                ),
                malformed,
            );
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad("malformed suppression: unclosed `allow(`".to_string(), malformed);
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if !known_rules.contains(&rule.as_str()) {
            bad(
                format!(
                    "unknown rule `{rule}` in suppression (known: {})",
                    known_rules.join(", ")
                ),
                malformed,
            );
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            bad(
                format!(
                    "suppression of `{rule}` is missing its mandatory reason: \
                     write `{MARKER} allow({rule}): why this is sound`"
                ),
                malformed,
            );
            continue;
        }
        out.push(Suppression {
            rule,
            comment_line: tok.line,
            target_line: target_line(ctx, i),
            reason: reason.to_string(),
        });
    }
    out
}

/// The line a suppression at token `i` governs: its own line when code
/// precedes it there (trailing comment), otherwise the line of the next
/// code token (standalone comment above the offending line).
fn target_line(ctx: &FileContext<'_>, i: usize) -> u32 {
    let line = ctx.tokens[i].line;
    let has_code_before = ctx.tokens[..i]
        .iter()
        .rev()
        .take_while(|t| t.line == line)
        .any(|t| !t.is_comment());
    if has_code_before {
        return line;
    }
    ctx.tokens[i + 1..]
        .iter()
        .find(|t| !t.is_comment())
        .map_or(line, |t| t.line)
}

/// Applies `suppressions` to `findings`: drops suppressed findings and
/// appends an `unused-suppression` finding for every suppression that
/// matched nothing.
pub fn apply(
    ctx: &FileContext<'_>,
    suppressions: &[Suppression],
    findings: Vec<Diagnostic>,
    check_unused: bool,
) -> Vec<Diagnostic> {
    let mut used = vec![false; suppressions.len()];
    let mut kept: Vec<Diagnostic> = Vec::with_capacity(findings.len());
    for f in findings {
        let hit = suppressions
            .iter()
            .position(|s| s.rule == f.rule && s.target_line == f.line);
        match hit {
            Some(idx) => used[idx] = true,
            None => kept.push(f),
        }
    }
    if check_unused {
        for (s, _) in suppressions.iter().zip(&used).filter(|&(_, &u)| !u) {
            kept.push(Diagnostic {
                rule: "unused-suppression",
                file: ctx.rel_path.clone(),
                line: s.comment_line,
                col: 1,
                message: format!(
                    "suppression of `{}` matched no finding on line {}; remove it",
                    s.rule, s.target_line
                ),
            });
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULES: [&str; 2] = ["float-eq", "lock-discipline"];

    fn parse(src: &str) -> (Vec<Suppression>, Vec<Diagnostic>) {
        let ctx = FileContext::new("x.rs", src);
        let mut bad = Vec::new();
        let sup = collect(&ctx, &RULES, &mut bad);
        (sup, bad)
    }

    #[test]
    fn standalone_targets_next_code_line() {
        let (sup, bad) = parse(
            "// ucore-lint: allow(float-eq): sentinel compare is exact\nlet x = a == b;\n",
        );
        assert!(bad.is_empty());
        assert_eq!(sup.len(), 1);
        assert_eq!(sup[0].target_line, 2);
        assert_eq!(sup[0].reason, "sentinel compare is exact");
    }

    #[test]
    fn trailing_targets_own_line() {
        let (sup, bad) =
            parse("let x = a == b; // ucore-lint: allow(float-eq): exact by design\n");
        assert!(bad.is_empty());
        assert_eq!(sup[0].target_line, 1);
    }

    #[test]
    fn missing_reason_is_a_finding() {
        let (sup, bad) = parse("// ucore-lint: allow(float-eq)\nlet x = a == b;\n");
        assert!(sup.is_empty());
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "suppression");
        assert!(bad[0].message.contains("mandatory reason"));
    }

    #[test]
    fn unknown_rule_is_a_finding() {
        // `unsafe-audit`, `panic-reachability` and `determinism` were
        // retired to clippy; a leftover allow of one is unknown to the
        // real registry.
        for src in [
            "// ucore-lint: allow(no-such-rule): because\nlet x = 1;\n",
            "// ucore-lint: allow(unsafe-audit): retired rule\nlet x = 1;\n",
            "// ucore-lint: allow(panic-reachability): retired rule\nlet x = 1;\n",
            "// ucore-lint: allow(determinism): retired rule\nlet x = 1;\n",
        ] {
            let ctx = FileContext::new("x.rs", src);
            let mut bad = Vec::new();
            let sup = collect(&ctx, &crate::rules::known_names(), &mut bad);
            assert!(sup.is_empty(), "{src}");
            assert!(bad[0].message.contains("unknown rule"), "{src}");
        }
    }

    #[test]
    fn unused_suppression_is_reported() {
        let src = "// ucore-lint: allow(float-eq): stale excuse\nlet x = 1;\n";
        let ctx = FileContext::new("x.rs", src);
        let mut bad = Vec::new();
        let sup = collect(&ctx, &RULES, &mut bad);
        let out = apply(&ctx, &sup, Vec::new(), true);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "unused-suppression");
    }

    #[test]
    fn matching_suppression_drops_finding_and_is_used() {
        let src = "let x = a == b; // ucore-lint: allow(float-eq): exact\n";
        let ctx = FileContext::new("x.rs", src);
        let mut bad = Vec::new();
        let sup = collect(&ctx, &RULES, &mut bad);
        let finding = Diagnostic {
            rule: "float-eq",
            file: "x.rs".into(),
            line: 1,
            col: 9,
            message: "m".into(),
        };
        let out = apply(&ctx, &sup, vec![finding], true);
        assert!(out.is_empty());
    }

    #[test]
    fn block_comment_form_works() {
        let (sup, bad) =
            parse("/* ucore-lint: allow(lock-discipline): the guard only parks idle workers */\nrx.recv();\n");
        assert!(bad.is_empty());
        assert_eq!(sup.len(), 1);
        assert_eq!(sup[0].rule, "lock-discipline");
    }
}
