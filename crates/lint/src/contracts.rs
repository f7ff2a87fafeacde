//! Markdown contract-table parsing for the `contract-drift` rule.
//!
//! The *contract* format is deliberately narrow: a Markdown table row
//! whose first cell is a backticked identifier —
//!
//! ```text
//! | `serve.accepted` | counter | connections accepted |
//! ```
//!
//! Only table rows count (prose mentions and fenced code blocks do
//! not), so the docs can discuss names freely without every mention
//! becoming load-bearing. DESIGN.md §18 holds the authoritative metric
//! and error-code tables; README's CLI reference holds the flag tables.

/// One documented identifier and the 1-based line of its table row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocEntry {
    /// The backticked identifier (first whitespace-delimited word).
    pub name: String,
    /// 1-based line in the Markdown file.
    pub line: u32,
}

/// Extracts the first-cell backticked identifier of every table row,
/// skipping fenced code blocks and separator rows.
pub fn table_entries(md: &str) -> Vec<DocEntry> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for (idx, line) in md.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence || !trimmed.starts_with('|') {
            continue;
        }
        // First cell: between the leading `|` and the next `|`.
        let rest = &trimmed[1..];
        let cell = rest.split('|').next().unwrap_or("").trim();
        let Some(span) = backticked(cell) else { continue };
        // Error prefixes may contain spaces (`fault spec:`); everything
        // else is the first whitespace-delimited word.
        let span = span.trim();
        let name =
            if is_error_prefix(span) { span } else { span.split_whitespace().next().unwrap_or("") };
        if name.is_empty() {
            continue;
        }
        out.push(DocEntry { name: name.to_string(), line: (idx + 1) as u32 });
    }
    out
}

/// The content of the first `` `…` `` span in `cell`, if any.
fn backticked(cell: &str) -> Option<&str> {
    let open = cell.find('`')?;
    let rest = &cell[open + 1..];
    let close = rest.find('`')?;
    Some(&rest[..close])
}

/// True for dotted metric names in a known family, e.g. `serve.shed`.
pub fn is_metric_name(name: &str) -> bool {
    const FAMILIES: [&str; 7] =
        ["points", "sweep", "journal", "cache", "failures", "serve", "obs"];
    let Some((family, rest)) = name.split_once('.') else { return false };
    FAMILIES.contains(&family)
        && !rest.is_empty()
        && rest.chars().all(|c| c.is_ascii_lowercase() || c == '_' || c == '.')
}

/// True for dotted `ServeError` codes, e.g. `request.deadline`.
pub fn is_error_code(name: &str) -> bool {
    const FAMILIES: [&str; 3] = ["http", "request", "server"];
    let Some((family, rest)) = name.split_once('.') else { return false };
    FAMILIES.contains(&family)
        && !rest.is_empty()
        && rest.chars().all(|c| c.is_ascii_lowercase() || c == '_')
}

/// True for `UcoreError` subsystem prefixes as documented, e.g.
/// `model:` or `fault spec:`.
pub fn is_error_prefix(name: &str) -> bool {
    let Some(stem) = name.strip_suffix(':') else { return false };
    !stem.is_empty()
        && stem.chars().all(|c| c.is_ascii_lowercase() || c == ' ')
        && !stem.starts_with(' ')
        && !stem.ends_with(' ')
}

/// True for long-form CLI flags, e.g. `--bench-tolerance`.
pub fn is_flag_name(name: &str) -> bool {
    let Some(stem) = name.strip_prefix("--") else { return false };
    let mut chars = stem.chars();
    chars.next().is_some_and(|c| c.is_ascii_lowercase())
        && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_parse_and_fences_are_skipped() {
        let md = "intro `serve.fake` in prose\n\
                  | `serve.accepted` | counter |\n\
                  |---|---|\n\
                  | `--json` machine output | flag |\n\
                  | `fault spec:` | prefix |\n\
                  ```\n| `serve.fenced` | nope |\n```\n\
                  | plain cell | no backtick |\n";
        let entries = table_entries(md);
        assert_eq!(
            entries,
            vec![
                DocEntry { name: "serve.accepted".into(), line: 2 },
                DocEntry { name: "--json".into(), line: 4 },
                DocEntry { name: "fault spec:".into(), line: 5 },
            ]
        );
    }

    #[test]
    fn grammars_accept_and_reject() {
        assert!(is_metric_name("serve.request_us"));
        assert!(is_metric_name("journal.write_errors"));
        assert!(!is_metric_name("serve."));
        assert!(!is_metric_name("unknown.thing"));
        assert!(!is_metric_name("serve"));

        assert!(is_error_code("http.too_large"));
        assert!(!is_error_code("serve.accepted"));

        assert!(is_error_prefix("model:"));
        assert!(is_error_prefix("fault spec:"));
        assert!(!is_error_prefix("model"));
        assert!(!is_error_prefix(":"));

        assert!(is_flag_name("--bench-tolerance"));
        assert!(!is_flag_name("--"));
        assert!(!is_flag_name("-h"));
        assert!(!is_flag_name("--Flag"));
    }
}
