//! The audit's lint rules and the workspace walker that applies them.
//!
//! Token-level rules that clippy can express (unwrap, float equality,
//! narrowing casts, std hash maps, ambient time, unbounded channels) live in
//! the workspace lint table and `clippy.toml`. What remains here are the
//! call-graph analyses (see [`crate::callgraph`] and [`crate::reach`]) plus
//! two token rules clippy cannot express: `no-unbounded-queue` in the serve
//! crate and `unique-policy-names`. Diagnostics pass through inline
//! `audit:allow(rule)` suppression and come back in canonical order (file,
//! line, rule), ready for byte-stable JSON emission.

use crate::callgraph::{self, FileView};
use crate::lexer::{tokenize_full, Tok, TokKind};
use crate::parser::{parse_items, FileItems};
use crate::reach;
use std::path::{Path, PathBuf};
use uopcache_model::hash::FastHashMap;

/// A single lint finding.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Diagnostic {
    /// Path of the offending file (as walked, workspace-relative when the
    /// audit is run from the workspace root).
    pub file: PathBuf,
    /// 1-indexed line.
    pub line: u32,
    /// Rule identifier: token rules (`no-unbounded-queue`,
    /// `unique-policy-names`) or graph rules (`hot-path-alloc`,
    /// `unordered-emission`, `lock-order`, `lock-across-channel`,
    /// `blocking-under-lock`, `unaccounted-spawn`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// A parsed source file ready for linting.
struct SourceFile {
    path: PathBuf,
    toks: Vec<Tok>,
    items: FileItems,
    /// Token-index ranges belonging to `#[cfg(test)]` items.
    test_ranges: Vec<(usize, usize)>,
    /// `(line, rule)` pairs from inline `audit:allow(rule)` comments.
    inline_allows: Vec<(u32, String)>,
}

impl SourceFile {
    fn parse(path: PathBuf, src: &str) -> Self {
        let lexed = tokenize_full(src);
        let test_ranges = find_test_ranges(&lexed.toks);
        // Inline allows come from real comments only: the marker inside a
        // string literal is data, not a suppression.
        let mut inline_allows = Vec::new();
        for (line, text) in &lexed.comments {
            let mut rest = text.as_str();
            while let Some(at) = rest.find("audit:allow(") {
                rest = &rest[at + "audit:allow(".len()..];
                if let Some(rule) = rest.split(')').next() {
                    inline_allows.push((*line, rule.trim().to_string()));
                }
            }
        }
        let items = parse_items(&lexed.toks, &lexed.comments);
        SourceFile {
            path,
            toks: lexed.toks,
            items,
            test_ranges,
            inline_allows,
        }
    }

    fn view(&self) -> FileView<'_> {
        FileView {
            path: &self.path,
            toks: &self.toks,
            items: &self.items,
            test_ranges: &self.test_ranges,
        }
    }

    fn in_test_code(&self, tok_idx: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(s, e)| (s..=e).contains(&tok_idx))
    }

    fn allowed_inline(&self, rule: &str, line: u32) -> bool {
        self.inline_allows
            .iter()
            .any(|(l, r)| *l == line && r == rule)
    }
}

fn parse_sources(sources: Vec<(PathBuf, String)>) -> Vec<SourceFile> {
    sources
        .into_iter()
        .map(|(p, s)| SourceFile::parse(p, &s))
        .collect()
}

/// Finds token ranges covered by `#[cfg(test)]`-annotated items: from the
/// attribute to the end of the item's brace block (or its terminating `;`).
fn find_test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].is_punct("#")
            && toks[i + 1].is_punct("[")
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct("(")
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is_punct(")")
            && toks[i + 6].is_punct("]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip to the end of the annotated item: brace-match the first `{`,
        // or stop at a `;` that precedes any `{` (e.g. `use` under cfg).
        let start = i;
        let mut j = i + 7;
        let mut depth = 0usize;
        let mut seen_brace = false;
        while j < toks.len() {
            if toks[j].is_punct("{") {
                depth += 1;
                seen_brace = true;
            } else if toks[j].is_punct("}") {
                depth = depth.saturating_sub(1);
                if seen_brace && depth == 0 {
                    break;
                }
            } else if toks[j].is_punct(";") && !seen_brace {
                break;
            }
            j += 1;
        }
        ranges.push((start, j.min(toks.len().saturating_sub(1))));
        i = j + 1;
    }
    ranges
}

/// Rule `no-unbounded-queue`: `Vec::new()` / `VecDeque::new()` /
/// `String::new()` / `HashMap::new()` / `HashSet::new()` in the serve
/// crate's non-test code. The daemon is long-running, so its collections
/// must be created with `with_capacity` (and guarded by an explicit capacity
/// check or eviction policy before growth): backpressure, not the allocator,
/// absorbs load spikes. Clippy's `disallowed-methods` list is global, so it
/// cannot ban `Vec::new` in one crate only.
fn rule_no_unbounded_queue(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let p = f.path.to_string_lossy().replace('\\', "/");
    if !p.contains("crates/serve/src/") {
        return;
    }
    for (i, w) in f.toks.windows(3).enumerate() {
        if f.in_test_code(i) || !w[1].is_punct("::") || !w[2].is_ident("new") {
            continue;
        }
        if w[0].is_ident("Vec")
            || w[0].is_ident("VecDeque")
            || w[0].is_ident("String")
            || w[0].is_ident("HashMap")
            || w[0].is_ident("HashSet")
        {
            out.push(Diagnostic {
                file: f.path.clone(),
                line: w[0].line,
                rule: "no-unbounded-queue",
                message: format!(
                    "{}::new() in daemon code; size it with with_capacity and \
                     refuse growth past the bound (backpressure, not OOM)",
                    w[0].text
                ),
            });
        }
    }
}

/// Rule `unique-policy-names`: every `impl PwReplacementPolicy for T` block
/// that returns a string literal from `fn name` must use a distinct string.
fn rule_unique_policy_names(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    let mut seen: FastHashMap<String, (PathBuf, u32, String)> = FastHashMap::default();
    for f in files {
        let toks = &f.toks;
        for i in 0..toks.len() {
            if !toks[i].is_ident("impl") {
                continue;
            }
            // Find `PwReplacementPolicy for <Type>` within the next few
            // tokens (skipping generics and paths).
            let header_end = toks[i..]
                .iter()
                .position(|t| t.is_punct("{"))
                .map(|p| i + p)
                .unwrap_or(toks.len());
            let header = &toks[i..header_end];
            let is_policy_impl = header.iter().any(|t| t.is_ident("PwReplacementPolicy"))
                && header.iter().any(|t| t.is_ident("for"));
            if !is_policy_impl {
                continue;
            }
            let impl_for = header
                .iter()
                .rev()
                .find(|t| t.kind == TokKind::Ident && t.text != "for")
                .map_or_else(|| "?".to_string(), |t| t.text.clone());
            // Brace-match the impl block, then find `fn name` and the first
            // string literal inside that fn's body.
            let mut depth = 0usize;
            let mut j = header_end;
            let mut impl_close = toks.len();
            while j < toks.len() {
                if toks[j].is_punct("{") {
                    depth += 1;
                } else if toks[j].is_punct("}") {
                    depth -= 1;
                    if depth == 0 {
                        impl_close = j;
                        break;
                    }
                }
                j += 1;
            }
            let body = &toks[header_end..impl_close];
            let Some(fn_name_pos) = body
                .windows(2)
                .position(|w| w[0].is_ident("fn") && w[1].is_ident("name"))
            else {
                continue; // forwards name() without a literal — fine
            };
            let Some(lit) = body[fn_name_pos + 2..]
                .iter()
                .take_while(|t| !t.is_ident("fn"))
                .find(|t| t.kind == TokKind::Str)
            else {
                continue;
            };
            match seen.get(&lit.text) {
                Some((other_file, other_line, other_ty)) if *other_ty != impl_for => {
                    out.push(Diagnostic {
                        file: f.path.clone(),
                        line: lit.line,
                        rule: "unique-policy-names",
                        message: format!(
                            "policy name \"{}\" for `{}` duplicates the one declared for \
                             `{}` at {}:{}",
                            lit.text,
                            impl_for,
                            other_ty,
                            other_file.display(),
                            other_line
                        ),
                    });
                }
                Some(_) => {}
                None => {
                    seen.insert(
                        lit.text.clone(),
                        (f.path.clone(), lit.line, impl_for.clone()),
                    );
                }
            }
        }
    }
}

/// Whether a path is exempt wholesale: tests, benches, examples, build
/// scripts and generated artifacts.
fn exempt_path(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    p.contains("/tests/")
        || p.contains("/benches/")
        || p.contains("/examples/")
        || p.contains("/target/")
        || p.ends_with("build.rs")
}

/// Recursively collects the workspace's `.rs` files under `root`.
fn collect_rs_files(root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Reads all lintable sources under `root`, workspace-relative: every `.rs`
/// file outside `target/`, dot-directories, tests, benches, examples and
/// build scripts, in path order.
///
/// # Errors
///
/// Returns a message if `root` contains no `.rs` files.
pub fn read_sources(root: &Path) -> Result<Vec<(PathBuf, String)>, String> {
    let mut paths = Vec::new();
    collect_rs_files(root, &mut paths);
    if paths.is_empty() {
        return Err(format!("no .rs files found under {}", root.display()));
    }
    Ok(paths
        .into_iter()
        .filter(|p| !exempt_path(p))
        .filter_map(|p| {
            let src = std::fs::read_to_string(&p).ok()?;
            let rel = p
                .strip_prefix(root)
                .map(Path::to_path_buf)
                .unwrap_or_else(|_| p.clone());
            Some((rel, src))
        })
        .collect())
}

/// The result of a full audit run.
pub struct AuditReport {
    /// Surviving diagnostics, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Files linted.
    pub files: usize,
    /// Call-graph nodes (parsed function bodies).
    pub functions: usize,
    /// Call-graph edges.
    pub edges: usize,
}

/// Runs the full lint pass (token rules, then call-graph passes) over every
/// workspace `.rs` file under `root`.
///
/// # Errors
///
/// Returns a message if `root` contains no `.rs` files (almost certainly a
/// wrong `--root`).
pub fn run_lint(root: &Path) -> Result<AuditReport, String> {
    Ok(run_lint_sources(read_sources(root)?))
}

/// [`run_lint`] over in-memory sources — the seam fixture tests use to
/// assert each rule fires (and stays quiet) on known snippets.
pub fn run_lint_sources(sources: Vec<(PathBuf, String)>) -> AuditReport {
    let files = parse_sources(sources);
    let mut diags = Vec::new();
    for f in &files {
        rule_no_unbounded_queue(f, &mut diags);
    }
    rule_unique_policy_names(&files, &mut diags);

    let views: Vec<FileView> = files.iter().map(SourceFile::view).collect();
    let graph = callgraph::build(&views);
    diags.extend(reach::analyze(&graph, &views));

    let by_file: FastHashMap<PathBuf, &SourceFile> =
        files.iter().map(|f| (f.path.clone(), f)).collect();
    diags.retain(|d| {
        !by_file
            .get(&d.file)
            .is_some_and(|f| f.allowed_inline(d.rule, d.line))
    });
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    diags.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
    AuditReport {
        diagnostics: diags,
        files: files.len(),
        functions: graph.nodes.len(),
        edges: graph.edges.iter().map(Vec::len).sum(),
    }
}

// ---------------------------------------------------------------------------
// JSON emission
// ---------------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn json_path(p: &Path) -> String {
    json_escape(&p.to_string_lossy().replace('\\', "/"))
}

/// Canonical JSON for a diagnostic list: `schema_version: 1`, one
/// diagnostic per line, already in (file, line, rule) order — byte-stable
/// so CI can diff it against a committed golden.
pub fn diagnostics_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"schema_version\": 1,\n  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_path(&d.file),
            d.line,
            json_escape(d.rule),
            json_escape(&d.message)
        ));
    }
    if diags.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

/// Builds the workspace call graph under `root` and dumps it as canonical
/// JSON: nodes (with hot-root/exempt flags) and index-based edges, both in
/// deterministic order. Future lints — and the kernel-specialization work —
/// consume this.
///
/// # Errors
///
/// Returns a message if `root` contains no `.rs` files.
pub fn callgraph_json(root: &Path) -> Result<String, String> {
    let files = parse_sources(read_sources(root)?);
    let views: Vec<FileView> = files.iter().map(SourceFile::view).collect();
    let g = callgraph::build(&views);
    let mut out = String::from("{\n  \"schema_version\": 1,\n  \"nodes\": [");
    for (i, n) in g.nodes.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"file\": \"{}\", \"line\": {}, \"hot_root\": {}, \
             \"alloc_exempt\": {}, \"test\": {}}}",
            json_escape(&n.display_name()),
            json_path(views[n.file].path),
            n.line,
            reach::is_hot_root(&g, i),
            reach::is_alloc_exempt(&g, i),
            n.in_test
        ));
    }
    out.push_str(if g.nodes.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out.push_str("  \"edges\": [");
    let mut first = true;
    for (from, callees) in g.edges.iter().enumerate() {
        for &to in callees {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            out.push_str(&format!("    [{from}, {to}]"));
        }
    }
    if first {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(path: &str, src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::parse(PathBuf::from(path), src);
        let mut out = Vec::new();
        rule_no_unbounded_queue(&f, &mut out);
        out
    }

    #[test]
    fn uncapacitated_collections_flagged_in_serve_only() {
        for ty in ["Vec", "VecDeque", "String", "HashMap", "HashSet"] {
            let src = format!("fn f() {{ let q = {ty}::new(); }}");
            assert_eq!(
                lint_one("crates/serve/src/a.rs", &src).len(),
                1,
                "{ty} in serve"
            );
            assert_eq!(
                lint_one("crates/flow/src/a.rs", &src).len(),
                0,
                "{ty} elsewhere"
            );
        }
        // with_capacity passes, and test code is exempt.
        assert_eq!(
            lint_one(
                "crates/serve/src/a.rs",
                "fn f() { let q = VecDeque::with_capacity(8); }"
            )
            .len(),
            0
        );
        assert_eq!(
            lint_one(
                "crates/serve/src/a.rs",
                "fn lib() {}\n#[cfg(test)]\nmod tests { fn f() { let q = Vec::new(); } }"
            )
            .len(),
            0
        );
    }

    #[test]
    fn duplicate_policy_names_reported() {
        let a = SourceFile::parse(
            PathBuf::from("crates/policies/src/a.rs"),
            "impl PwReplacementPolicy for A { fn name(&self) -> &'static str { \"LRU\" } }",
        );
        let b = SourceFile::parse(
            PathBuf::from("crates/policies/src/b.rs"),
            "impl PwReplacementPolicy for B { fn name(&self) -> &'static str { \"LRU\" } }",
        );
        let mut out = Vec::new();
        rule_unique_policy_names(&[a, b], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "unique-policy-names");
        assert!(out[0].message.contains("duplicates"));
    }

    #[test]
    fn forwarding_name_impls_are_ignored() {
        let f = SourceFile::parse(
            PathBuf::from("crates/cache/src/w.rs"),
            "impl<P: PwReplacementPolicy> PwReplacementPolicy for Wrap<P> {\n\
             fn name(&self) -> &'static str { self.inner.name() } }",
        );
        let mut out = Vec::new();
        rule_unique_policy_names(&[f], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn inline_allow_comment_suppresses_but_string_contents_do_not() {
        let f = SourceFile::parse(
            PathBuf::from("crates/cache/src/a.rs"),
            "fn f(v: &mut Vec<u8>) { v.push(1) } // audit:allow(hot-path-alloc)\n\
             fn g() -> &'static str { \"audit:allow(hot-path-alloc)\" }",
        );
        assert!(f.allowed_inline("hot-path-alloc", 1));
        assert!(!f.allowed_inline("unordered-emission", 1));
        // The marker inside a string literal is data, not a suppression.
        assert!(!f.allowed_inline("hot-path-alloc", 2));
    }

    #[test]
    fn diagnostics_json_is_canonical() {
        assert_eq!(
            diagnostics_json(&[]),
            "{\n  \"schema_version\": 1,\n  \"diagnostics\": []\n}\n"
        );
        let js = diagnostics_json(&[Diagnostic {
            file: PathBuf::from("crates/cache/src/a.rs"),
            line: 3,
            rule: "hot-path-alloc",
            message: String::new(),
        }]);
        assert!(js.contains("\"schema_version\": 1"));
        assert!(js.contains(
            "\"file\": \"crates/cache/src/a.rs\", \"line\": 3, \"rule\": \"hot-path-alloc\""
        ));
    }
}
