//! Workspace-wide call-graph construction over parsed items.
//!
//! Each parsed function becomes a node; call sites in its body become edges,
//! resolved by *receiver typing*:
//!
//! * `self.method(..)` → the enclosing impl type's methods;
//! * `self.field.method(..)` / `self.field[i].method(..)` → the field's base
//!   type (a trait-object field like `Box<dyn PwReplacementPolicy>` fans out
//!   to **every** implementation of the trait — exactly how a policy hook
//!   call behaves dynamically);
//! * `param.method(..)` → the parameter's base type;
//! * `Type::assoc(..)` / `Self::assoc(..)` → that type's methods;
//! * anything else (locals, chained call results) → conservatively, every
//!   workspace method with that name.
//!
//! Calls that resolve to *no* workspace function are checked against an
//! allocation denylist (`push`, `extend`, `collect`, `to_string`, ...): an
//! unresolved `.push(..)` is almost certainly `Vec::push`, and recording it
//! as allocation *evidence* is what makes the alloc-reachability pass an
//! over-approximating proof rather than a spot check. Direct constructs
//! (`Box::new`, `Vec::with_capacity`, `vec!`, `format!`, ...) are recorded
//! unconditionally. Allocation-like calls inside panic-only macros
//! (`assert!`, `panic!`, ...) are ignored: the panic path is not the hot
//! path. [`FastHashMap`]/`FastHashSet` receivers are *blessed* leaves for
//! the allocation pass — steady-state capacity-stable by construction and
//! backed by the runtime counting-allocator wall — but their iteration
//! methods still count as unordered-iteration evidence for the determinism
//! pass.
//!
//! [`FastHashMap`]: uopcache_model::hash::FastHashMap

use crate::lexer::{Tok, TokKind};
use crate::parser::{FileItems, Markers};
use std::path::Path;
use uopcache_model::hash::{FastHashMap, FastHashSet};

/// Method names that allocate when the receiver is not a workspace type.
const ALLOC_METHODS: [&str; 20] = [
    "push",
    "push_back",
    "push_front",
    "push_str",
    "extend",
    "extend_from_slice",
    "append",
    "resize",
    "resize_with",
    "reserve",
    "reserve_exact",
    "insert_str",
    "split_off",
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
    "into_boxed_slice",
    "repeat",
    "join",
];

/// `Type::method(..)` path calls that construct/allocate directly. The
/// container `new`s are included even though they defer their first heap
/// block: constructing a container per access *is* per-access allocation.
const ALLOC_PATH_CALLS: [(&str, &str); 15] = [
    ("Box", "new"),
    ("Rc", "new"),
    ("Arc", "new"),
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("VecDeque", "new"),
    ("VecDeque", "with_capacity"),
    ("String", "new"),
    ("String", "with_capacity"),
    ("String", "from"),
    ("HashMap", "new"),
    ("HashSet", "new"),
    ("BTreeMap", "new"),
    ("PathBuf", "from"),
];

/// Macros that allocate.
const ALLOC_MACROS: [&str; 2] = ["format", "vec"];

/// Panic-family macros: their interiors are the panic path, not the hot
/// path, so allocation evidence inside them is not recorded.
const PANIC_MACROS: [&str; 10] = [
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Map/set types whose iteration order is hash-dependent.
const MAP_TYPES: [&str; 4] = ["FastHashMap", "FastHashSet", "HashMap", "HashSet"];

/// Blessed leaf types for the allocation pass (see module docs).
const BLESSED_TYPES: [&str; 2] = ["FastHashMap", "FastHashSet"];

/// Methods that iterate a map in hash order.
const ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "retain",
];

/// Method names that never use the unresolved-receiver name fallback:
/// ubiquitous std iterator/`Option`/`Result` adapters. An unresolved
/// `.all(..)` is an iterator adapter, not `PolicyRegistry::all`; resolving
/// it by name would drag unrelated workspace methods into every hot path.
/// Workspace methods with these names are still resolved when the receiver
/// types (self, fields, params).
const NO_FALLBACK_METHODS: [&str; 26] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "into_iter",
    "drain",
    "all",
    "any",
    "map",
    "filter",
    "filter_map",
    "fold",
    "for_each",
    "find",
    "position",
    "count",
    "max_by_key",
    "min_by_key",
    "rev",
    "take",
    "skip",
    "enumerate",
    "flatten",
    "last",
    "expect",
    "get",
];

/// One file's parse results, viewed by the graph builder.
pub(crate) struct FileView<'a> {
    /// Workspace-relative path.
    pub path: &'a Path,
    /// The file's code tokens.
    pub toks: &'a [Tok],
    /// Parsed items.
    pub items: &'a FileItems,
    /// Token ranges under `#[cfg(test)]`.
    pub test_ranges: &'a [(usize, usize)],
}

/// A call-graph node: one parsed function.
#[derive(Clone, Debug)]
pub(crate) struct Node {
    /// Index into the builder's file list.
    pub file: usize,
    /// Function name.
    pub name: String,
    /// Enclosing impl type.
    pub self_type: Option<String>,
    /// Implemented trait, if any.
    pub trait_impl: Option<String>,
    /// 1-indexed declaration line.
    pub line: u32,
    /// Body token range in the owning file.
    pub body: (usize, usize),
    /// Parameter `(name, base_type)` pairs.
    pub params: Vec<(String, String)>,
    /// Audit markers.
    pub markers: Markers,
    /// Whether the fn sits under `#[cfg(test)]`.
    pub in_test: bool,
}

impl Node {
    /// `Type::name` or bare `name` — for diagnostics and the JSON dump.
    pub(crate) fn display_name(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// An allocation (or map-iteration) evidence site inside a function body.
#[derive(Clone, Debug)]
pub(crate) struct Evidence {
    /// 1-indexed line of the construct.
    pub line: u32,
    /// What was found (`` `Vec::with_capacity(..)` `` etc.).
    pub what: String,
    /// Token index — used for the later-`sort` suppression of iteration
    /// evidence.
    pub tok: usize,
}

/// The workspace call graph plus per-node analysis evidence.
pub(crate) struct CallGraph {
    /// All nodes, in file order then declaration order (deterministic).
    pub nodes: Vec<Node>,
    /// `edges[n]` — callee node indices, sorted and deduplicated.
    pub edges: Vec<Vec<usize>>,
    /// Per-node allocation evidence.
    pub allocs: Vec<Vec<Evidence>>,
    /// Per-node unordered-map-iteration evidence (already suppressed where
    /// a `sort*` call follows later in the same body).
    pub map_iters: Vec<Vec<Evidence>>,
}

/// Builds the call graph over all files.
pub(crate) fn build(files: &[FileView]) -> CallGraph {
    // ---- indexes -------------------------------------------------------
    let mut nodes: Vec<Node> = Vec::new();
    let mut fields: FastHashMap<String, FastHashMap<String, String>> = FastHashMap::default();
    let mut traits: FastHashSet<String> = FastHashSet::default();
    for (fi, f) in files.iter().enumerate() {
        for s in &f.items.structs {
            let entry = fields.entry(s.name.clone()).or_default();
            for (name, ty) in &s.fields {
                entry.insert(name.clone(), ty.clone());
            }
        }
        for t in &f.items.traits {
            traits.insert(t.name.clone());
        }
        for item in &f.items.fns {
            let Some(body) = item.body else { continue };
            let in_test = f
                .test_ranges
                .iter()
                .any(|&(s, e)| (s..=e).contains(&item.decl_tok));
            nodes.push(Node {
                file: fi,
                name: item.name.clone(),
                self_type: item.self_type.clone(),
                trait_impl: item.trait_impl.clone(),
                line: item.line,
                body,
                params: item.params.clone(),
                markers: item.markers,
                in_test,
            });
        }
    }
    let mut methods_by_type: FastHashMap<(String, String), Vec<usize>> = FastHashMap::default();
    let mut methods_by_name: FastHashMap<String, Vec<usize>> = FastHashMap::default();
    let mut trait_methods: FastHashMap<(String, String), Vec<usize>> = FastHashMap::default();
    let mut free_by_name: FastHashMap<String, Vec<usize>> = FastHashMap::default();
    for (i, n) in nodes.iter().enumerate() {
        match &n.self_type {
            Some(ty) => {
                methods_by_type
                    .entry((ty.clone(), n.name.clone()))
                    .or_default()
                    .push(i);
                methods_by_name.entry(n.name.clone()).or_default().push(i);
            }
            None => free_by_name.entry(n.name.clone()).or_default().push(i),
        }
        if let Some(tr) = &n.trait_impl {
            trait_methods
                .entry((tr.clone(), n.name.clone()))
                .or_default()
                .push(i);
        }
    }

    // ---- body scans ----------------------------------------------------
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut allocs: Vec<Vec<Evidence>> = vec![Vec::new(); nodes.len()];
    let mut map_iters: Vec<Vec<Evidence>> = vec![Vec::new(); nodes.len()];

    let resolve_method = |ty: Option<&str>, m: &str| -> Vec<usize> {
        match ty {
            Some(ty) => {
                let mut c: Vec<usize> = methods_by_type
                    .get(&(ty.to_string(), m.to_string()))
                    .cloned()
                    .unwrap_or_default();
                if traits.contains(ty) {
                    if let Some(more) = trait_methods.get(&(ty.to_string(), m.to_string())) {
                        c.extend_from_slice(more);
                    }
                }
                c
            }
            None if NO_FALLBACK_METHODS.contains(&m) => Vec::new(),
            None => methods_by_name.get(m).cloned().unwrap_or_default(),
        }
    };

    for (ni, node) in nodes.iter().enumerate() {
        let f = &files[node.file];
        let toks = f.toks;
        let (bs, be) = node.body;
        let mut sort_positions: Vec<usize> = Vec::new();
        let mut k = bs;
        while k < be {
            let t = &toks[k];
            if t.kind != TokKind::Ident {
                k += 1;
                continue;
            }
            let name = t.text.as_str();
            if name.starts_with("sort") {
                sort_positions.push(k);
            }
            // Macro invocation.
            if toks.get(k + 1).is_some_and(|n| n.is_punct("!"))
                && toks
                    .get(k + 2)
                    .is_some_and(|n| n.is_punct("(") || n.is_punct("[") || n.is_punct("{"))
            {
                if PANIC_MACROS.contains(&name) {
                    k = skip_group(toks, k + 2).min(be);
                    continue;
                }
                if ALLOC_MACROS.contains(&name) {
                    allocs[ni].push(Evidence {
                        line: t.line,
                        what: format!("`{name}!(..)`"),
                        tok: k,
                    });
                }
                k += 2;
                continue;
            }
            // Call? Either `name(` or turbofish `name::<..>(`.
            let call = if toks.get(k + 1).is_some_and(|n| n.is_punct("(")) {
                true
            } else {
                toks.get(k + 1).is_some_and(|n| n.is_punct("::"))
                    && toks.get(k + 2).is_some_and(|n| n.is_punct("<"))
                    && {
                        let after = skip_angles_at(toks, k + 2);
                        toks.get(after).is_some_and(|n| n.is_punct("("))
                    }
            };
            if !call {
                k += 1;
                continue;
            }
            let prev = k.checked_sub(1).map(|p| &toks[p]);
            let mut targets: Vec<usize> = Vec::new();
            if prev.is_some_and(|p| p.is_punct(".")) {
                // Method call: type the receiver chain.
                let chain = receiver_chain(toks, k - 2, bs);
                let recv_ty = chain
                    .as_deref()
                    .and_then(|c| type_of_chain(c, node, &fields));
                let is_map = recv_ty.as_deref().is_some_and(|t| MAP_TYPES.contains(&t));
                if is_map && ITER_METHODS.contains(&name) {
                    map_iters[ni].push(Evidence {
                        line: t.line,
                        what: format!(
                            "`.{name}()` on hash-ordered `{}`",
                            recv_ty.as_deref().unwrap_or("map")
                        ),
                        tok: k,
                    });
                } else if recv_ty
                    .as_deref()
                    .is_some_and(|t| BLESSED_TYPES.contains(&t))
                {
                    // Blessed leaf: capacity-stable by construction, backed
                    // by the runtime allocator wall.
                } else if recv_ty.is_none() && ALLOC_METHODS.contains(&name) {
                    // An untyped `.push(..)`/`.collect()`/... is almost
                    // certainly a std container or iterator: record it as
                    // evidence here rather than fanning out by name, which
                    // would both misplace the span and drag unrelated
                    // workspace methods into the path.
                    allocs[ni].push(Evidence {
                        line: t.line,
                        what: format!("`.{name}(..)` on an unresolved receiver"),
                        tok: k,
                    });
                } else {
                    targets = resolve_method(recv_ty.as_deref(), name);
                    if targets.is_empty() && ALLOC_METHODS.contains(&name) {
                        allocs[ni].push(Evidence {
                            line: t.line,
                            what: format!(
                                "`.{name}(..)` on {}",
                                recv_ty.as_deref().map_or_else(
                                    || "an unresolved receiver".to_string(),
                                    |t| { format!("`{t}`") }
                                )
                            ),
                            tok: k,
                        });
                    }
                }
            } else if prev.is_some_and(|p| p.is_punct("::")) {
                // Path call `Qual::name(..)`.
                let qual = k
                    .checked_sub(2)
                    .map(|q| &toks[q])
                    .filter(|q| q.kind == TokKind::Ident)
                    .map(|q| q.text.clone());
                match qual.as_deref() {
                    Some("Self") => {
                        targets = resolve_method(node.self_type.as_deref(), name);
                    }
                    Some(q) => {
                        let c = resolve_method(Some(q), name);
                        if c.is_empty() {
                            if ALLOC_PATH_CALLS.contains(&(q, name)) {
                                allocs[ni].push(Evidence {
                                    line: t.line,
                                    what: format!("`{q}::{name}(..)`"),
                                    tok: k,
                                });
                            } else if let Some(frees) = free_by_name.get(name) {
                                // Module-qualified free fn.
                                targets = frees.clone();
                            }
                        } else {
                            targets = c;
                        }
                    }
                    None => {}
                }
            } else {
                // Free call.
                targets = free_by_name.get(name).cloned().unwrap_or_default();
            }
            for t in targets {
                if t != ni {
                    edges[ni].push(t);
                }
            }
            k += 1;
        }
        // Iteration followed by an in-body `sort*` is the canonical
        // sorted-emission idiom: suppress it.
        if let Some(&last_sort) = sort_positions.last() {
            map_iters[ni].retain(|e| e.tok > last_sort);
        }
    }
    for e in &mut edges {
        e.sort_unstable();
        e.dedup();
    }
    CallGraph {
        nodes,
        edges,
        allocs,
        map_iters,
    }
}

/// Index just past the bracket group opening at `open`.
fn skip_group(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "(" | "[" | "{" if toks[i].kind == TokKind::Punct => depth += 1,
            ")" | "]" | "}" if toks[i].kind == TokKind::Punct => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Index just past an angle-bracket group opening at `open`.
fn skip_angles_at(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "<" if toks[i].kind == TokKind::Punct => depth += 1,
            ">" if toks[i].kind == TokKind::Punct => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Walks a receiver chain backwards from `end` (the token just before the
/// `.` of a method call), stripping index groups: `self.sets[i]` → `[self,
/// sets]`. Returns `None` for receivers rooted at a call result or other
/// non-path expression.
pub(crate) fn receiver_chain(toks: &[Tok], end: usize, lo: usize) -> Option<Vec<String>> {
    let mut parts: Vec<String> = Vec::new();
    let mut j = end;
    loop {
        if j < lo || j >= toks.len() {
            break;
        }
        let t = &toks[j];
        if t.is_punct("]") {
            // Strip one index group.
            let mut depth = 0i32;
            let mut b = j;
            loop {
                if toks[b].is_punct("]") {
                    depth += 1;
                } else if toks[b].is_punct("[") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if b == lo {
                    return None;
                }
                b -= 1;
            }
            if b == lo {
                return None;
            }
            j = b - 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            parts.push(t.text.clone());
            if j > lo && toks[j - 1].is_punct(".") && j >= 2 {
                j -= 2;
                continue;
            }
            break;
        }
        // `)`-rooted (call result), literals, `?`, etc: unresolved.
        return if parts.is_empty() {
            None
        } else {
            break_some(parts)
        };
    }
    if parts.is_empty() {
        None
    } else {
        parts.reverse();
        Some(parts)
    }
}

fn break_some(mut parts: Vec<String>) -> Option<Vec<String>> {
    parts.reverse();
    Some(parts)
}

/// Types a receiver chain against the enclosing function's context.
fn type_of_chain(
    chain: &[String],
    node: &Node,
    fields: &FastHashMap<String, FastHashMap<String, String>>,
) -> Option<String> {
    if chain.len() > 4 {
        return None;
    }
    let first = chain.first()?;
    let mut ty: String = if first == "self" {
        node.self_type.clone()?
    } else {
        node.params
            .iter()
            .find(|(n, _)| n == first)
            .map(|(_, t)| t.clone())?
    };
    for part in &chain[1..] {
        ty = fields.get(&ty)?.get(part)?.clone();
    }
    Some(ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize_full;
    use crate::parser::parse_items;
    use std::path::PathBuf;

    struct Owned {
        path: PathBuf,
        toks: Vec<Tok>,
        items: FileItems,
    }

    fn prepare(srcs: &[(&str, &str)]) -> Vec<Owned> {
        srcs.iter()
            .map(|(p, s)| {
                let lexed = tokenize_full(s);
                let items = parse_items(&lexed.toks, &lexed.comments);
                Owned {
                    path: PathBuf::from(p),
                    toks: lexed.toks,
                    items,
                }
            })
            .collect()
    }

    fn graph(owned: &[Owned]) -> CallGraph {
        let views: Vec<FileView> = owned
            .iter()
            .map(|o| FileView {
                path: &o.path,
                toks: &o.toks,
                items: &o.items,
                test_ranges: &[],
            })
            .collect();
        build(&views)
    }

    fn idx(g: &CallGraph, disp: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.display_name() == disp)
            .unwrap_or_else(|| panic!("node {disp} missing"))
    }

    #[test]
    fn field_typed_receivers_resolve_precisely() {
        let owned = prepare(&[(
            "crates/cache/src/a.rs",
            "struct Cache { sets: Vec<Set> }\n\
             struct Set { n: u32 }\n\
             impl Set { fn insert(&mut self) {} fn find(&self) {} }\n\
             impl Cache { fn lookup(&mut self, i: usize) { self.sets[i].insert(); } }\n",
        )]);
        let g = graph(&owned);
        let lookup = idx(&g, "Cache::lookup");
        let insert = idx(&g, "Set::insert");
        let find = idx(&g, "Set::find");
        assert!(g.edges[lookup].contains(&insert));
        assert!(!g.edges[lookup].contains(&find));
    }

    #[test]
    fn trait_object_fields_fan_out_to_all_impls() {
        let owned = prepare(&[(
            "crates/cache/src/a.rs",
            "trait Pol { fn on_hit(&mut self); }\n\
             struct Cache { policy: Box<dyn Pol> }\n\
             struct A; struct B;\n\
             impl Pol for A { fn on_hit(&mut self) {} }\n\
             impl Pol for B { fn on_hit(&mut self) {} }\n\
             impl Cache { fn hit(&mut self) { self.policy.on_hit(); } }\n",
        )]);
        let g = graph(&owned);
        let hit = idx(&g, "Cache::hit");
        assert!(g.edges[hit].contains(&idx(&g, "A::on_hit")));
        assert!(g.edges[hit].contains(&idx(&g, "B::on_hit")));
    }

    #[test]
    fn unresolved_alloc_methods_and_direct_constructs_are_evidence() {
        let owned = prepare(&[(
            "crates/cache/src/a.rs",
            "fn f() { let mut v = Vec::with_capacity(4); v.push(1); let s = format!(\"x\"); }",
        )]);
        let g = graph(&owned);
        let f = idx(&g, "f");
        let whats: Vec<_> = g.allocs[f].iter().map(|e| e.what.as_str()).collect();
        assert!(
            whats.iter().any(|w| w.contains("with_capacity")),
            "{whats:?}"
        );
        assert!(whats.iter().any(|w| w.contains("push")), "{whats:?}");
        assert!(whats.iter().any(|w| w.contains("format")), "{whats:?}");
    }

    #[test]
    fn panic_macro_interiors_are_not_evidence() {
        let owned = prepare(&[(
            "crates/cache/src/a.rs",
            "fn f(x: u32) { assert!(x > 0, \"bad {}\", format!(\"{x}\")); }",
        )]);
        let g = graph(&owned);
        assert!(g.allocs[idx(&g, "f")].is_empty());
    }

    #[test]
    fn blessed_map_mutation_is_clean_but_iteration_is_evidence() {
        let owned = prepare(&[(
            "crates/policies/src/a.rs",
            "struct P { rdp: FastHashMap<u64, u64> }\n\
             impl P {\n\
               fn train(&mut self, a: u64) { self.rdp.insert(a, 1); }\n\
               fn emit(&self) { for (k, v) in self.rdp.iter() { let _ = (k, v); } }\n\
               fn emit_sorted(&self) { let mut v: Vec<u64> = Vec::new(); for (k, _) in self.rdp.iter() { v.push(*k); } v.sort_unstable(); }\n\
             }\n",
        )]);
        let g = graph(&owned);
        assert!(g.allocs[idx(&g, "P::train")].is_empty());
        assert_eq!(g.map_iters[idx(&g, "P::emit")].len(), 1);
        // sorted afterwards → suppressed
        assert!(g.map_iters[idx(&g, "P::emit_sorted")].is_empty());
    }
}
