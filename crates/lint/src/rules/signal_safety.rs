//! `signal-safety`: only async-signal-safe calls reachable from
//! `signal(2)` handlers.
//!
//! `repro` and `served` install raw `signal(2)` handlers for
//! SIGINT/SIGTERM from `ucore_project::durability::signals` (DESIGN.md
//! §12/§17): the handler may run between any
//! two instructions of the interrupted thread, so it may only touch
//! atomics and the POSIX async-signal-safe set (`fsync`, `_exit`, …).
//! Allocation, locks, buffered I/O (`eprintln!`), and anything that can
//! panic are deadlocks or UB waiting for a signal at the wrong moment.
//!
//! The rule finds every function passed *by name* as an argument to a
//! `signal(…)` call, walks the call graph from those handlers, and
//! flags: calls that neither resolve into the workspace nor appear on
//! the allowlist, macro invocations (all formatting/allocating), and
//! slice-index expressions (panic paths). Workspace-internal callees
//! are traversed, so a handler may factor its logic into helpers as
//! long as every leaf stays on the allowlist.

use super::WorkspaceRule;
use crate::diag::Diagnostic;
use crate::graph::{CallKind, Resolution};
use crate::lexer::TokenKind;
use crate::WorkspaceContext;

/// The `signal-safety` rule.
pub struct SignalSafety;

/// Names a signal-handler path may call without resolving internally:
/// POSIX async-signal-safe functions and `std::sync::atomic` methods.
const ALLOWLIST: [&str; 12] = [
    "fsync",
    "_exit",
    "signal",
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
];

/// Macros that expand to plain control flow without allocating.
const SAFE_MACROS: [&str; 2] = ["matches", "cfg"];

impl WorkspaceRule for SignalSafety {
    fn name(&self) -> &'static str {
        "signal-safety"
    }

    fn description(&self) -> &'static str {
        "signal(2) handler paths may only reach the async-signal-safe allowlist"
    }

    fn check(&self, ws: &WorkspaceContext<'_>, out: &mut Vec<Diagnostic>) {
        // Roots: fns passed by name as arguments inside `signal(…)`.
        let mut roots: Vec<usize> = Vec::new();
        for (id, f) in ws.graph.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            for call in &f.calls {
                if call.callee_name() != "signal"
                    || matches!(call.kind, CallKind::Macro(_))
                {
                    continue;
                }
                for name in call_arg_idents(ws, f.file, call.site.token) {
                    for handler in ws.graph.resolve_value_name(id, &name) {
                        if !roots.contains(&handler) {
                            roots.push(handler);
                        }
                    }
                }
            }
        }

        // DFS from each handler; remember the path for evidence chains.
        for &root in &roots {
            let mut visited = vec![false; ws.graph.fns.len()];
            walk(ws, self.name(), root, root, &mut Vec::new(), &mut visited, out);
        }
    }
}

/// Recursively audits `at` (reached from handler `root` via `path`).
fn walk(
    ws: &WorkspaceContext<'_>,
    rule: &'static str,
    root: usize,
    at: usize,
    path: &mut Vec<usize>,
    visited: &mut [bool],
    out: &mut Vec<Diagnostic>,
) {
    if visited[at] {
        return;
    }
    visited[at] = true;
    path.push(at);
    let node = &ws.graph.fns[at];
    let ctx = &ws.files[node.file];
    for call in &node.calls {
        let name = call.callee_name().to_string();
        if let CallKind::Macro(_) = call.kind {
            if !SAFE_MACROS.contains(&name.as_str()) {
                out.push(Diagnostic {
                    rule,
                    file: ctx.rel_path.clone(),
                    line: call.site.line,
                    col: call.site.col,
                    message: format!(
                        "`{name}!` in a signal-handler path: macros allocate or take \
                         locks, which is not async-signal-safe{}",
                        chain(ws, root, path)
                    ),
                });
            }
            continue;
        }
        if ALLOWLIST.contains(&name.as_str()) {
            continue;
        }
        match &call.resolved {
            Resolution::Internal(ids) => {
                for &callee in ids {
                    walk(ws, rule, root, callee, path, visited, out);
                }
            }
            Resolution::External(_) => {
                out.push(Diagnostic {
                    rule,
                    file: ctx.rel_path.clone(),
                    line: call.site.line,
                    col: call.site.col,
                    message: format!(
                        "call to `{name}` in a signal-handler path is not on the \
                         async-signal-safe allowlist{}",
                        chain(ws, root, path)
                    ),
                });
            }
        }
    }
    for site in &node.index_sites {
        out.push(Diagnostic {
            rule,
            file: ctx.rel_path.clone(),
            line: site.line,
            col: site.col,
            message: format!(
                "slice indexing in a signal-handler path can panic, and unwinding \
                 out of a signal handler is undefined behavior{}",
                chain(ws, root, path)
            ),
        });
    }
    path.pop();
}

/// Renders the handler evidence chain for a finding message.
fn chain(ws: &WorkspaceContext<'_>, root: usize, path: &[usize]) -> String {
    let names: Vec<&str> =
        path.iter().take(6).map(|&id| ws.graph.fns[id].name.as_str()).collect();
    format!(
        " (handler `{}` path: {})",
        ws.graph.fns[root].qualified,
        names.join(" \u{2192} ")
    )
}

/// Identifier arguments of the call whose name token is `tok_idx` —
/// idents at paren depth 1 directly delimited by `(`, `,`, or `)`.
fn call_arg_idents(ws: &WorkspaceContext<'_>, file: usize, tok_idx: usize) -> Vec<String> {
    let ctx = &ws.files[file];
    let mut out = Vec::new();
    let Some(open) = ctx.next_code(tok_idx) else { return out };
    if !ctx.is_punct(open, "(") {
        return out;
    }
    let mut depth = 1i64;
    let mut at = open;
    while depth > 0 {
        let Some(n) = ctx.next_code(at) else { break };
        let t = &ctx.tokens[n];
        if t.kind == TokenKind::Punct {
            match t.text {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                _ => {}
            }
        } else if t.kind == TokenKind::Ident && depth == 1 {
            let before_ok = ctx
                .prev_code(n)
                .is_some_and(|p| ctx.is_punct(p, "(") || ctx.is_punct(p, ","));
            let after_ok = ctx
                .next_code(n)
                .is_some_and(|x| ctx.is_punct(x, ")") || ctx.is_punct(x, ","));
            if before_ok && after_ok {
                out.push(t.text.to_string());
            }
        }
        at = n;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_files, rules, Docs};

    fn findings(src: &str) -> Vec<Diagnostic> {
        let files = vec![("crates/bench/src/bin/repro.rs".to_string(), src.to_string())];
        lint_files(
            &files,
            &Docs::default(),
            &[],
            &[Box::new(SignalSafety) as Box<dyn rules::WorkspaceRule>],
            true,
        )
    }

    const PRELUDE: &str = "extern \"C\" { fn signal(s: i32, h: extern \"C\" fn(i32)) -> usize; \
                           fn fsync(fd: i32) -> i32; fn _exit(c: i32) -> !; }\n";

    #[test]
    fn clean_handler_with_atomics_and_fsync_passes() {
        let src = format!(
            "{PRELUDE}extern \"C\" fn handler(s: i32) {{ FLAG.store(true, SeqCst); \
             unsafe {{ fsync(3); _exit(130); }} }}\n\
             fn install() {{ unsafe {{ signal(2, handler); }} }}"
        );
        assert!(findings(&src).is_empty(), "{:?}", findings(&src));
    }

    #[test]
    fn non_allowlisted_external_call_is_flagged_with_chain() {
        let src = format!(
            "{PRELUDE}extern \"C\" fn handler(s: i32) {{ helper(); }}\n\
             fn helper() {{ std::fs::remove_file(\"x\"); }}\n\
             fn install() {{ unsafe {{ signal(2, handler); }} }}"
        );
        let out = findings(&src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`remove_file`"), "{}", out[0].message);
        assert!(out[0].message.contains("handler → helper"), "{}", out[0].message);
    }

    #[test]
    fn macros_and_indexing_in_handler_are_flagged() {
        let src = format!(
            "{PRELUDE}extern \"C\" fn handler(s: i32) {{ eprintln!(\"sig\"); let _ = TABLE[0]; }}\n\
             fn install() {{ unsafe {{ signal(2, handler); }} }}"
        );
        let out = findings(&src);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().any(|d| d.message.contains("eprintln")));
        assert!(out.iter().any(|d| d.message.contains("slice indexing")));
    }

    #[test]
    fn non_handler_code_is_not_audited() {
        let src = format!("{PRELUDE}fn free() {{ std::fs::remove_file(\"x\"); }}");
        assert!(findings(&src).is_empty());
    }
}
