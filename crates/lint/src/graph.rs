//! The workspace symbol graph.
//!
//! A zero-dependency item indexer over the total lexer: it finds every
//! `fn` definition in the workspace, records the calls, macro
//! invocations, and slice-index sites inside each body, and resolves
//! call names to definitions with best-effort path resolution (module
//! walk-out, `use` aliases, `Self::`/`Type::` impl lookup). The graph is
//! *total* like the lexer underneath it: hostile or malformed input
//! degrades to fewer/unresolved nodes — [`Resolution::External`] — never
//! a panic (see the graph proptests).
//!
//! Resolution is name-based, not type-based. Method calls resolve to the
//! union of same-named impl fns anywhere in the workspace; interprocedural
//! rules must treat that union as an over-approximation. The documented
//! limits live in DESIGN.md §18.

use crate::context::FileContext;
use crate::lexer::TokenKind;
use std::collections::BTreeMap;

/// Keywords that look like call targets when followed by `(`.
const KEYWORDS: [&str; 28] = [
    "if", "else", "while", "match", "return", "for", "in", "loop", "let", "mut", "ref", "move",
    "as", "use", "pub", "fn", "impl", "mod", "where", "unsafe", "extern", "dyn", "break",
    "continue", "await", "async", "const", "static",
];

/// One function (or extern declaration) found in the workspace.
#[derive(Debug)]
pub struct FnNode {
    /// Bare name, e.g. `append`.
    pub name: String,
    /// Fully qualified `::`-joined path, e.g.
    /// `ucore_project::durability::DurabilityContext::append`.
    pub qualified: String,
    /// Index into the file list handed to [`SymbolGraph::build`].
    pub file: usize,
    /// 1-based line of the `fn` name token.
    pub line: u32,
    /// 1-based column of the `fn` name token.
    pub col: u32,
    /// Module path of the definition site (no impl/type segment).
    pub module: Vec<String>,
    /// Enclosing `impl` type name, when the fn is an associated item.
    pub impl_type: Option<String>,
    /// True when the definition sits inside `#[cfg(test)]` code.
    pub in_test: bool,
    /// Calls, macro invocations, and method calls inside the body.
    pub calls: Vec<CallSite>,
    /// Slice-index expressions (`expr[...]`) inside the body.
    pub index_sites: Vec<Site>,
}

/// A source position plus the token index it came from.
#[derive(Debug, Clone, Copy)]
pub struct Site {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Index into the owning file's token stream.
    pub token: usize,
}

/// What kind of invocation a call site is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `a::b::f(...)` or bare `f(...)` — path segments as written.
    Path(Vec<String>),
    /// `.m(...)` — receiver type unknown.
    Method(String),
    /// `m!(...)` / `m![...]` / `m!{...}`.
    Macro(String),
}

/// Where a call resolved to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// Candidate definitions in the workspace (len 1 = unique; more =
    /// ambiguous method union).
    Internal(Vec<usize>),
    /// Not resolvable to a workspace definition; the callee's bare name.
    External(String),
}

/// One call site inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// The syntactic shape of the invocation.
    pub kind: CallKind,
    /// Position of the callee name token.
    pub site: Site,
    /// True when the first code token after the opening `(` is not `)`.
    pub has_args: bool,
    /// Best-effort resolution to workspace definitions.
    pub resolved: Resolution,
}

impl CallSite {
    /// The bare callee name (last path segment, method, or macro name).
    pub fn callee_name(&self) -> &str {
        match &self.kind {
            CallKind::Path(segs) => segs.last().map_or("", String::as_str),
            CallKind::Method(m) | CallKind::Macro(m) => m,
        }
    }
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct SymbolGraph {
    /// All function nodes, in file-then-position order.
    pub fns: Vec<FnNode>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_qualified: BTreeMap<String, Vec<usize>>,
}

/// Per-file import table: alias → full path segments.
#[derive(Debug, Default)]
struct Imports {
    map: BTreeMap<String, Vec<String>>,
}

impl SymbolGraph {
    /// Builds the graph over already-lexed files. `files[i]` must be the
    /// context whose index call sites refer to via `FnNode::file`.
    pub fn build(files: &[FileContext<'_>]) -> Self {
        let mut graph = SymbolGraph::default();
        let mut imports: Vec<Imports> = Vec::with_capacity(files.len());
        for (file_idx, ctx) in files.iter().enumerate() {
            let imp = index_file(&mut graph, file_idx, ctx);
            imports.push(imp);
        }
        for (id, node) in graph.fns.iter().enumerate() {
            graph.by_name.entry(node.name.clone()).or_default().push(id);
            graph.by_qualified.entry(node.qualified.clone()).or_default().push(id);
        }
        graph.resolve_calls(&imports);
        graph
    }

    /// All definitions with the bare name `name`.
    pub fn fns_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// All definitions with the fully qualified path `path`.
    pub fn fns_qualified(&self, path: &str) -> &[usize] {
        self.by_qualified.get(path).map_or(&[], Vec::as_slice)
    }

    /// Resolves an identifier used as a *value* (e.g. a handler passed to
    /// `signal`) from inside `from_fn`'s scope.
    pub fn resolve_value_name(&self, from_fn: usize, name: &str) -> Vec<usize> {
        let module = self.fns[from_fn].module.clone();
        let walked = self.resolve_path_from(&[name.to_string()], &module, None);
        if !walked.is_empty() {
            return walked;
        }
        let all = self.fns_named(name);
        if all.len() == 1 {
            return all.to_vec();
        }
        Vec::new()
    }

    fn resolve_calls(&mut self, imports: &[Imports]) {
        // Resolve against an immutable snapshot of the definition tables.
        let mut resolved: Vec<Vec<Resolution>> = Vec::with_capacity(self.fns.len());
        for node in &self.fns {
            let imp = &imports[node.file];
            let mut per_call = Vec::with_capacity(node.calls.len());
            for call in &node.calls {
                per_call.push(self.resolve_call(call, node, imp));
            }
            resolved.push(per_call);
        }
        for (node, per_call) in self.fns.iter_mut().zip(resolved) {
            for (call, res) in node.calls.iter_mut().zip(per_call) {
                call.resolved = res;
            }
        }
    }

    fn resolve_call(&self, call: &CallSite, from: &FnNode, imp: &Imports) -> Resolution {
        match &call.kind {
            CallKind::Macro(name) => Resolution::External(name.clone()),
            CallKind::Method(name) => {
                let ids = self.fns_named(name);
                let methods: Vec<usize> =
                    ids.iter().copied().filter(|&id| self.fns[id].impl_type.is_some()).collect();
                if methods.is_empty() {
                    Resolution::External(name.clone())
                } else {
                    Resolution::Internal(methods)
                }
            }
            CallKind::Path(segs) => {
                let ids = self.resolve_path(segs, from, imp);
                if ids.is_empty() {
                    Resolution::External(
                        segs.last().cloned().unwrap_or_default(),
                    )
                } else {
                    Resolution::Internal(ids)
                }
            }
        }
    }

    fn resolve_path(&self, segs: &[String], from: &FnNode, imp: &Imports) -> Vec<usize> {
        if segs.len() == 1 {
            // `Self::…`-free bare call: module walk-out, then imports,
            // then a unique bare-name match anywhere in the workspace.
            let name = &segs[0];
            let walked = self.resolve_path_from(segs, &from.module, None);
            if !walked.is_empty() {
                return walked;
            }
            if let Some(full) = imp.map.get(name) {
                let ids = self.resolve_absolute(full);
                if !ids.is_empty() {
                    return ids;
                }
            }
            let all = self.fns_named(name);
            if all.len() == 1 {
                return all.to_vec();
            }
            return Vec::new();
        }
        // Normalize crate/self/super against the caller's module.
        let mut norm: Vec<String> = Vec::new();
        let mut rest = segs;
        match segs[0].as_str() {
            "crate" => {
                norm.push(from.module.first().cloned().unwrap_or_default());
                rest = &segs[1..];
            }
            "self" => {
                norm.extend(from.module.iter().cloned());
                rest = &segs[1..];
            }
            "super" => {
                let mut m = from.module.clone();
                m.pop();
                norm.extend(m);
                rest = &segs[1..];
            }
            "Self" => {
                if let Some(ty) = &from.impl_type {
                    norm.extend(from.module.iter().cloned());
                    norm.push(ty.clone());
                    rest = &segs[1..];
                }
            }
            _ => {}
        }
        if !norm.is_empty() || rest.len() != segs.len() {
            norm.extend(rest.iter().cloned());
            let ids = self.resolve_absolute(&norm);
            if !ids.is_empty() {
                return ids;
            }
            return Vec::new();
        }
        // Absolute as written (covers `ucore_project::durability::f`).
        let ids = self.resolve_absolute(segs);
        if !ids.is_empty() {
            return ids;
        }
        // First segment may be a `use` alias.
        if let Some(full) = imp.map.get(&segs[0]) {
            let mut expanded = full.clone();
            expanded.extend(segs[1..].iter().cloned());
            let ids = self.resolve_absolute(&expanded);
            if !ids.is_empty() {
                return ids;
            }
        }
        // `Type::method` relative to the caller's module chain.
        let walked = self.resolve_path_from(segs, &from.module, None);
        if !walked.is_empty() {
            return walked;
        }
        // Last resort: a workspace-unique suffix match on the final two
        // segments (catches `Type::new` for types imported by glob).
        if segs.len() >= 2 {
            let suffix = format!("{}::{}", segs[segs.len() - 2], segs[segs.len() - 1]);
            let mut hits = Vec::new();
            for (q, ids) in &self.by_qualified {
                if q.ends_with(&suffix)
                    && (q.len() == suffix.len()
                        || q.as_bytes()[q.len() - suffix.len() - 1] == b':')
                {
                    hits.extend(ids.iter().copied());
                }
            }
            if !hits.is_empty() {
                return hits;
            }
        }
        Vec::new()
    }

    /// Tries `module[..k] ++ segs` for every prefix of the module chain,
    /// innermost first.
    fn resolve_path_from(
        &self,
        segs: &[String],
        module: &[String],
        _impl_type: Option<&str>,
    ) -> Vec<usize> {
        for k in (0..=module.len()).rev() {
            let mut cand: Vec<String> = module[..k].to_vec();
            cand.extend(segs.iter().cloned());
            let ids = self.resolve_absolute(&cand);
            if !ids.is_empty() {
                return ids;
            }
        }
        Vec::new()
    }

    fn resolve_absolute(&self, segs: &[String]) -> Vec<usize> {
        self.fns_qualified(&segs.join("::")).to_vec()
    }
}

/// Derives a file's module path from its workspace-relative path.
///
/// `crates/project/src/durability.rs` → `[ucore_project, durability]`;
/// `src/error.rs` (the facade crate) → `[ucore, error]`; binaries get
/// their own `bin_<name>` namespace.
pub fn module_path_of(rel_path: &str) -> Vec<String> {
    let (crate_name, tail) = if let Some(rest) = rel_path.strip_prefix("crates/") {
        let Some((dir, tail)) = rest.split_once("/src/") else {
            return vec![rel_path.replace(['/', '.'], "_")];
        };
        (format!("ucore_{}", dir.replace('-', "_")), tail)
    } else if let Some(tail) = rel_path.strip_prefix("src/") {
        ("ucore".to_string(), tail)
    } else {
        return vec![rel_path.replace(['/', '.'], "_")];
    };
    if let Some(bin) = tail.strip_prefix("bin/") {
        let name = bin.strip_suffix(".rs").unwrap_or(bin).replace('/', "_");
        return vec![format!("bin_{name}")];
    }
    let mut path = vec![crate_name];
    if tail == "lib.rs" || tail == "main.rs" {
        return path;
    }
    let stem = tail.strip_suffix(".rs").unwrap_or(tail);
    for seg in stem.split('/') {
        if seg != "mod" {
            path.push(seg.to_string());
        }
    }
    path
}

/// Scans one file: records fn definitions with their calls and index
/// sites into `graph`, and returns the file's import table.
fn index_file(graph: &mut SymbolGraph, file_idx: usize, ctx: &FileContext<'_>) -> Imports {
    let file_module = module_path_of(&ctx.rel_path);
    let mut imports = Imports::default();
    // (name, depth-inside) stacks for inline modules and impl blocks.
    let mut mod_stack: Vec<(String, i64)> = Vec::new();
    let mut impl_stack: Vec<(String, i64)> = Vec::new();
    let mut fn_stack: Vec<(usize, i64)> = Vec::new();
    let mut depth = 0i64;

    let toks = &ctx.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_comment() {
            i += 1;
            continue;
        }
        match (t.kind, t.text) {
            (TokenKind::Punct, "{") => depth += 1,
            (TokenKind::Punct, "}") => {
                depth -= 1;
                while mod_stack.last().is_some_and(|&(_, d)| d > depth) {
                    mod_stack.pop();
                }
                while impl_stack.last().is_some_and(|&(_, d)| d > depth) {
                    impl_stack.pop();
                }
                while fn_stack.last().is_some_and(|&(_, d)| d > depth) {
                    fn_stack.pop();
                }
            }
            (TokenKind::Ident, "use") if fn_stack.is_empty() => {
                i = parse_use(ctx, i + 1, &mut imports);
                continue;
            }
            (TokenKind::Ident, "mod") => {
                if let Some(ni) = ctx.next_code(i) {
                    if toks[ni].kind == TokenKind::Ident {
                        if let Some(bi) = ctx.next_code(ni) {
                            if ctx.is_punct(bi, "{") {
                                mod_stack.push((toks[ni].text.to_string(), depth + 1));
                                depth += 1;
                                i = bi + 1;
                                continue;
                            }
                        }
                    }
                }
            }
            (TokenKind::Ident, "impl") => {
                if let Some((ty, body)) = parse_impl_header(ctx, i) {
                    impl_stack.push((ty, depth + 1));
                    depth += 1;
                    i = body + 1;
                    continue;
                }
            }
            (TokenKind::Ident, "fn") => {
                if let Some(ni) = ctx.next_code(i) {
                    if toks[ni].kind == TokenKind::Ident {
                        let mut module = file_module.clone();
                        module.extend(mod_stack.iter().map(|(m, _)| m.clone()));
                        let impl_type = impl_stack.last().map(|(t, _)| t.clone());
                        let mut qualified = module.clone();
                        if let Some(ty) = &impl_type {
                            qualified.push(ty.clone());
                        }
                        qualified.push(toks[ni].text.to_string());
                        let node = FnNode {
                            name: toks[ni].text.to_string(),
                            qualified: qualified.join("::"),
                            file: file_idx,
                            line: toks[ni].line,
                            col: toks[ni].col,
                            module,
                            impl_type,
                            in_test: ctx.in_test[ni],
                            calls: Vec::new(),
                            index_sites: Vec::new(),
                        };
                        let id = graph.fns.len();
                        graph.fns.push(node);
                        // Find the body `{` (or `;` for declarations).
                        if let Some(body) = fn_body_open(ctx, ni) {
                            fn_stack.push((id, depth + 1));
                            depth += 1;
                            i = body + 1;
                            continue;
                        }
                        i = ni + 1;
                        continue;
                    }
                }
            }
            (TokenKind::Ident, name) => {
                if let Some(&(owner, _)) = fn_stack.last() {
                    record_call_or_skip(ctx, i, name, owner, graph);
                }
            }
            (TokenKind::Punct, "[") => {
                if let Some(&(owner, _)) = fn_stack.last() {
                    if is_index_open(ctx, i) {
                        graph.fns[owner].index_sites.push(Site {
                            line: t.line,
                            col: t.col,
                            token: i,
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    imports
}

/// Records the call at ident token `i` into `graph.fns[owner]`, unless
/// the ident is a keyword, definition name, or constructor.
fn record_call_or_skip(
    ctx: &FileContext<'_>,
    i: usize,
    name: &str,
    owner: usize,
    graph: &mut SymbolGraph,
) {
    if KEYWORDS.contains(&name) {
        return;
    }
    let t = &ctx.tokens[i];
    let next = ctx.next_code(i);
    let prev = ctx.prev_code(i);
    let site = Site { line: t.line, col: t.col, token: i };
    // Macro invocation: `name!(` / `name![` / `name!{`.
    if let Some(n1) = next {
        if ctx.is_punct(n1, "!") {
            if let Some(n2) = ctx.next_code(n1) {
                if ctx.is_punct(n2, "(") || ctx.is_punct(n2, "[") || ctx.is_punct(n2, "{") {
                    graph.fns[owner].calls.push(CallSite {
                        kind: CallKind::Macro(name.to_string()),
                        site,
                        has_args: ctx.next_code(n2).is_some_and(|n3| {
                            !ctx.is_punct(n3, ")") && !ctx.is_punct(n3, "]") && !ctx.is_punct(n3, "}")
                        }),
                        resolved: Resolution::External(name.to_string()),
                    });
                }
            }
            return;
        }
    }
    // Otherwise a call needs `name(`.
    let Some(n1) = next else { return };
    if !ctx.is_punct(n1, "(") {
        return;
    }
    let has_args = ctx.next_code(n1).is_some_and(|n2| !ctx.is_punct(n2, ")"));
    // Method call: preceded by `.`.
    if prev.is_some_and(|p| ctx.is_punct(p, ".")) {
        graph.fns[owner].calls.push(CallSite {
            kind: CallKind::Method(name.to_string()),
            site,
            has_args,
            resolved: Resolution::External(name.to_string()),
        });
        return;
    }
    // Skip definition names (`fn name(`) — handled by the fn indexer —
    // and CamelCase constructors / tuple variants (`Some(`, `Vec(`).
    if prev.is_some_and(|p| ctx.is_ident(p, "fn")) {
        return;
    }
    if name.chars().next().is_some_and(char::is_uppercase) {
        return;
    }
    // Collect leading `seg::` path segments by walking backwards.
    let mut segs = vec![name.to_string()];
    let mut at = i;
    while let Some(p) = ctx.prev_code(at) {
        if !ctx.is_punct(p, "::") {
            break;
        }
        let Some(pp) = ctx.prev_code(p) else { break };
        let pt = &ctx.tokens[pp];
        if pt.kind != TokenKind::Ident {
            break; // `<T as Trait>::f` — keep the partial path.
        }
        segs.insert(0, pt.text.to_string());
        at = pp;
    }
    graph.fns[owner].calls.push(CallSite {
        kind: CallKind::Path(segs),
        site,
        has_args,
        resolved: Resolution::External(name.to_string()),
    });
}

/// True when the `[` at token `i` indexes an expression (follows an
/// ident, `)`, or `]`) rather than opening an array/attribute.
fn is_index_open(ctx: &FileContext<'_>, i: usize) -> bool {
    let Some(p) = ctx.prev_code(i) else { return false };
    let t = &ctx.tokens[p];
    match t.kind {
        TokenKind::Ident => !KEYWORDS.contains(&t.text) && t.text != "Self",
        TokenKind::Punct => t.text == ")" || t.text == "]",
        _ => false,
    }
}

/// Finds the body-opening `{` of the fn whose name token is `ni`;
/// `None` for body-less declarations (`fn f();` in extern blocks).
fn fn_body_open(ctx: &FileContext<'_>, ni: usize) -> Option<usize> {
    let mut paren = 0i64;
    let mut at = ni;
    while let Some(n) = ctx.next_code(at) {
        let t = &ctx.tokens[n];
        if t.kind == TokenKind::Punct {
            match t.text {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                ";" if paren == 0 => return None,
                "{" if paren == 0 => return Some(n),
                _ => {}
            }
        }
        at = n;
    }
    None
}

/// Parses an `impl` header starting at token `i`; returns the type name
/// and the body-opening `{` index. `None` when no body is found.
fn parse_impl_header(ctx: &FileContext<'_>, i: usize) -> Option<(String, usize)> {
    // Collect tokens up to the body `{`, tracking `for`.
    let mut at = i;
    let mut angle = 0i64;
    let mut after_for = false;
    let mut first_ident: Option<String> = None;
    let mut for_ident: Option<String> = None;
    while let Some(n) = ctx.next_code(at) {
        let t = &ctx.tokens[n];
        match (t.kind, t.text) {
            (TokenKind::Punct, "<") => angle += 1,
            (TokenKind::Punct, ">") => angle -= 1,
            (TokenKind::Punct, "{") if angle <= 0 => {
                let ty = for_ident.or(first_ident)?;
                return Some((ty, n));
            }
            (TokenKind::Punct, ";") if angle <= 0 => return None,
            (TokenKind::Ident, "for") if angle <= 0 => after_for = true,
            (TokenKind::Ident, "where") if angle <= 0 => {
                // Type position is over; keep scanning for the `{`.
            }
            (TokenKind::Ident, name) if angle <= 0 => {
                if after_for {
                    if for_ident.is_none() && name.chars().next().is_some_and(char::is_uppercase)
                    {
                        for_ident = Some(name.to_string());
                    }
                } else if first_ident.is_none()
                    && name.chars().next().is_some_and(char::is_uppercase)
                {
                    first_ident = Some(name.to_string());
                }
            }
            _ => {}
        }
        at = n;
    }
    None
}

/// Parses a `use` declaration starting right after the `use` keyword;
/// returns the token index to continue scanning from (past the `;`).
fn parse_use(ctx: &FileContext<'_>, start: usize, imports: &mut Imports) -> usize {
    // Find the terminating `;` first so malformed trees can't wedge us.
    let mut end = start;
    while end < ctx.tokens.len() {
        let t = &ctx.tokens[end];
        if !t.is_comment() && t.kind == TokenKind::Punct && t.text == ";" {
            break;
        }
        end += 1;
    }
    let code: Vec<usize> = (start..end.min(ctx.tokens.len()))
        .filter(|&k| !ctx.tokens[k].is_comment())
        .collect();
    parse_use_tree(ctx, &code, &mut 0, &mut Vec::new(), imports);
    end + 1
}

/// Recursively parses one use-tree; `pos` indexes into `code`.
fn parse_use_tree(
    ctx: &FileContext<'_>,
    code: &[usize],
    pos: &mut usize,
    prefix: &mut Vec<String>,
    imports: &mut Imports,
) {
    let base_len = prefix.len();
    while let Some(&k) = code.get(*pos) {
        let t = &ctx.tokens[k];
        match (t.kind, t.text) {
            (TokenKind::Ident, "as") => {
                *pos += 1;
                if let Some(&ak) = code.get(*pos) {
                    if ctx.tokens[ak].kind == TokenKind::Ident {
                        imports
                            .map
                            .insert(ctx.tokens[ak].text.to_string(), prefix.clone());
                        *pos += 1;
                    }
                }
                break;
            }
            (TokenKind::Ident, seg) => {
                prefix.push(seg.to_string());
                *pos += 1;
            }
            (TokenKind::Punct, "::") => {
                *pos += 1;
                if let Some(&nk) = code.get(*pos) {
                    if ctx.is_punct(nk, "{") {
                        *pos += 1;
                        // Nested group: each arm extends this prefix.
                        loop {
                            let before = *pos;
                            parse_use_tree(ctx, code, pos, prefix, imports);
                            match code.get(*pos).map(|&k| ctx.tokens[k].text) {
                                Some(",") => *pos += 1,
                                Some("}") => {
                                    *pos += 1;
                                    break;
                                }
                                _ if *pos == before => {
                                    *pos += 1; // forward progress on junk
                                }
                                _ => {}
                            }
                            if *pos >= code.len() {
                                break;
                            }
                        }
                        prefix.truncate(base_len);
                        return;
                    }
                    if ctx.is_punct(nk, "*") {
                        *pos += 1; // glob: not tracked
                        break;
                    }
                }
            }
            (TokenKind::Punct, "," | "}") => break,
            _ => {
                *pos += 1;
            }
        }
    }
    // A plain path imports its last segment under its own name.
    if prefix.len() > base_len {
        if let Some(last) = prefix.last().cloned() {
            if last != "self" {
                imports.map.insert(last, prefix.clone());
            } else {
                // `use a::b::{self}` imports `b`.
                let without: Vec<String> = prefix[..prefix.len() - 1].to_vec();
                if let Some(name) = without.last().cloned() {
                    imports.map.insert(name, without);
                }
            }
        }
    }
    prefix.truncate(base_len);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(files: &[(&str, &str)]) -> (SymbolGraph, Vec<String>) {
        let ctxs: Vec<FileContext<'_>> =
            files.iter().map(|(p, s)| FileContext::new(*p, s)).collect();
        let g = SymbolGraph::build(&ctxs);
        let names = g.fns.iter().map(|f| f.qualified.clone()).collect();
        (g, names)
    }

    #[test]
    fn module_paths_from_rel_paths() {
        assert_eq!(module_path_of("crates/project/src/durability.rs"), ["ucore_project", "durability"]);
        assert_eq!(module_path_of("crates/core/src/lib.rs"), ["ucore_core"]);
        assert_eq!(module_path_of("src/error.rs"), ["ucore", "error"]);
        assert_eq!(module_path_of("crates/bench/src/bin/repro.rs"), ["bin_repro"]);
        assert_eq!(module_path_of("crates/x/src/a/mod.rs"), ["ucore_x", "a"]);
        assert_eq!(module_path_of("crates/x/src/a/b.rs"), ["ucore_x", "a", "b"]);
    }

    #[test]
    fn indexes_fns_with_qualified_names() {
        let (_, names) = graph_of(&[(
            "crates/core/src/cache.rs",
            "pub struct C;\nimpl C { pub fn get(&self) {} }\nfn free() {}\nmod inner { fn deep() {} }",
        )]);
        assert_eq!(
            names,
            vec![
                "ucore_core::cache::C::get",
                "ucore_core::cache::free",
                "ucore_core::cache::inner::deep",
            ]
        );
    }

    #[test]
    fn resolves_bare_call_in_same_module() {
        let (g, _) = graph_of(&[(
            "crates/core/src/a.rs",
            "fn callee() {}\nfn caller() { callee(); }",
        )]);
        let caller = &g.fns[1];
        assert_eq!(caller.calls.len(), 1);
        assert_eq!(caller.calls[0].resolved, Resolution::Internal(vec![0]));
    }

    #[test]
    fn resolves_cross_crate_via_use() {
        let (g, _) = graph_of(&[
            ("crates/core/src/lib.rs", "pub fn shared() {}"),
            (
                "crates/project/src/lib.rs",
                "use ucore_core::shared;\nfn go() { shared(); }",
            ),
        ]);
        let go = &g.fns[1];
        assert_eq!(go.calls[0].resolved, Resolution::Internal(vec![0]));
    }

    #[test]
    fn resolves_absolute_and_aliased_paths() {
        let (g, _) = graph_of(&[
            ("crates/core/src/units.rs", "pub fn conv() {}"),
            (
                "crates/project/src/lib.rs",
                "use ucore_core::units as u;\nfn a() { ucore_core::units::conv(); }\nfn b() { u::conv(); }",
            ),
        ]);
        assert_eq!(g.fns[1].calls[0].resolved, Resolution::Internal(vec![0]));
        assert_eq!(g.fns[2].calls[0].resolved, Resolution::Internal(vec![0]));
    }

    #[test]
    fn method_calls_resolve_to_union() {
        let (g, _) = graph_of(&[
            ("crates/a/src/lib.rs", "struct X; impl X { fn go(&self) {} }"),
            ("crates/b/src/lib.rs", "struct Y; impl Y { fn go(&self) {} }"),
            ("crates/c/src/lib.rs", "fn f(v: V) { v.go(); }"),
        ]);
        let f = &g.fns[2];
        assert_eq!(f.calls[0].resolved, Resolution::Internal(vec![0, 1]));
    }

    #[test]
    fn unresolved_degrades_to_external() {
        let (g, _) = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn f() { std::fs::read(\"x\"); nothing_known(); }",
        )]);
        let f = &g.fns[0];
        assert_eq!(f.calls[0].resolved, Resolution::External("read".into()));
        assert_eq!(f.calls[1].resolved, Resolution::External("nothing_known".into()));
    }

    #[test]
    fn self_and_super_resolve() {
        let (g, _) = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn top() {}\nmod m { fn f() { super::top(); self::g(); } fn g() {} }",
        )]);
        let f = &g.fns[1];
        assert_eq!(f.calls[0].resolved, Resolution::Internal(vec![0]));
        assert_eq!(f.calls[1].resolved, Resolution::Internal(vec![2]));
    }

    #[test]
    fn type_method_and_self_method_resolve() {
        let (g, _) = graph_of(&[(
            "crates/a/src/lib.rs",
            "struct T;\nimpl T { fn new() -> T { T }\n fn go() { Self::new(); T::new(); } }",
        )]);
        let go = &g.fns[1];
        assert_eq!(go.calls[0].resolved, Resolution::Internal(vec![0]));
        assert_eq!(go.calls[1].resolved, Resolution::Internal(vec![0]));
    }

    #[test]
    fn macros_and_index_sites_recorded() {
        let (g, _) = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn f(v: &[u8]) { panic!(\"x\"); let _ = v[0]; }",
        )]);
        let f = &g.fns[0];
        assert_eq!(f.calls[0].kind, CallKind::Macro("panic".into()));
        assert_eq!(f.index_sites.len(), 1);
    }

    #[test]
    fn constructors_and_keywords_are_not_calls() {
        let (g, _) = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn f() { let x = Some(1); if (x.is_some()) { return; } }",
        )]);
        let f = &g.fns[0];
        // Only the `.is_some()` method call is recorded.
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].kind, CallKind::Method("is_some".into()));
    }

    #[test]
    fn extern_decls_are_leaf_nodes() {
        let (g, _) = graph_of(&[(
            "crates/a/src/lib.rs",
            "extern \"C\" { fn fsync(fd: i32) -> i32; }\nfn f() { unsafe { fsync(3); } }",
        )]);
        assert_eq!(g.fns[0].name, "fsync");
        assert!(g.fns[0].calls.is_empty());
        assert_eq!(g.fns[1].calls[0].resolved, Resolution::Internal(vec![0]));
    }

    #[test]
    fn nested_use_groups_and_glob() {
        let (g, _) = graph_of(&[
            ("crates/a/src/lib.rs", "pub fn one() {}\npub fn two() {}"),
            (
                "crates/b/src/lib.rs",
                "use ucore_a::{one, two as deux};\nuse ucore_a::*;\nfn f() { one(); deux(); }",
            ),
        ]);
        let f = &g.fns[2];
        assert_eq!(f.calls[0].resolved, Resolution::Internal(vec![0]));
        assert_eq!(f.calls[1].resolved, Resolution::Internal(vec![1]));
    }

    #[test]
    fn hostile_input_never_panics() {
        for src in ["fn", "fn (", "impl {", "use ::;", "mod {", "fn f(", "impl < for {", "use a::{b", "fn f() { g(; }"] {
            let ctx = FileContext::new("crates/a/src/lib.rs", src);
            let _ = SymbolGraph::build(std::slice::from_ref(&ctx));
        }
    }

    #[test]
    fn in_test_fns_are_marked() {
        let (g, _) = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn live() {}\n#[cfg(test)]\nmod t { fn check() {} }",
        )]);
        assert!(!g.fns[0].in_test);
        assert!(g.fns[1].in_test);
    }
}
