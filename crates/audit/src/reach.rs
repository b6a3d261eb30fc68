//! Graph-level analysis passes: alloc-reachability, canonical-output
//! determinism, and serve/exec concurrency lints.
//!
//! # Alloc-reachability (`hot-path-alloc`)
//!
//! Roots are the per-access hooks of every [`PwReplacementPolicy`] impl
//! plus any function marked `// audit:hot-path`. From each root, a BFS
//! walks call edges (skipping construction-time functions — `new`,
//! `default`, `prepare`, `with_*`/`from_*`, and anything marked
//! `// audit:alloc-exempt`) and reports every allocation-evidence site it
//! can reach, with the path that reaches it. This turns the runtime
//! counting-allocator wall (`tests/alloc_budget.rs`) from a sampled check
//! on the inputs the tests happen to run into a whole-graph static proof.
//!
//! # Canonical-output determinism (`unordered-emission`)
//!
//! Roots are functions named `to_json` and anything marked
//! `// audit:canonical-output`. Reaching a hash-ordered map iteration
//! (`.iter()`/`.keys()`/... on a `FastHashMap` without a later in-body
//! `sort*`) means byte-identical output depends on hash order — exactly
//! the bug class the golden files pin at runtime.
//!
//! # Concurrency (`lock-order`, `lock-across-channel`,
//! `blocking-under-lock`, `unaccounted-spawn`)
//!
//! Token-level guard tracking over `crates/serve` and `crates/exec` only:
//! guards from `lock_clean(..)`/`.lock(..)` are *binding* guards (live to
//! the end of the enclosing block) when bound by a plain `let g = ...;`,
//! and *temporary* guards (dead at the end of the statement) otherwise —
//! which is precisely how the worker-pool steal loop stays deadlock-free.
//! While a guard is live: acquiring the same lock again is a self-deadlock,
//! globally inconsistent acquisition orders are reported at every site,
//! blocking channel operations (`send`/`recv`/...) under a guard are
//! reported, and so are `sleep`/`join` pauses (`Condvar::wait_timeout` is
//! the accounted way to pause while locked — it atomically releases the
//! guard it consumes). Thread spawns outside functions marked
//! `// audit:spawn-site` are flagged so every thread — the daemon's
//! per-shard executors, the router's forwarders and health prober, the
//! event-loop acceptors — stays accounted to a join/shutdown path.
//!
//! [`PwReplacementPolicy`]: uopcache_cache::PwReplacementPolicy

use crate::callgraph::{CallGraph, FileView};
use crate::lexer::{Tok, TokKind};
use crate::rules::Diagnostic;
use std::collections::VecDeque;
use uopcache_model::hash::{FastHashMap, FastHashSet};

/// The replacement-policy trait whose per-access hooks are hot-path roots.
const POLICY_TRAIT: &str = "PwReplacementPolicy";

/// Per-access hooks of [`POLICY_TRAIT`] — everything but `name`/`prepare`
/// (construction-time) and `introspect` (a diagnostics accessor, only
/// consulted by reporting surfaces after a run).
const HOT_HOOKS: [&str; 8] = [
    "on_lookup",
    "on_hit",
    "on_insert",
    "on_evict",
    "on_invalidate",
    "should_bypass",
    "choose_victim",
    "last_selection_was_fallback",
];

/// Function names exempt from alloc-reachability by construction-time
/// convention.
fn name_exempt(name: &str) -> bool {
    name == "new"
        || name == "default"
        || name == "prepare"
        || name.starts_with("with_")
        || name.starts_with("from_")
}

/// Whether node `i` is a hot-path root. An `audit:alloc-exempt` marker
/// wins over root status: a policy wrapper that exists to allocate
/// diagnostics (e.g. the strict-invariants `CheckedPolicy`) opts its hooks
/// out of the proof entirely, with the justification at the marker.
pub(crate) fn is_hot_root(g: &CallGraph, i: usize) -> bool {
    let n = &g.nodes[i];
    if n.in_test || n.markers.alloc_exempt {
        return false;
    }
    n.markers.hot_path
        || (n.trait_impl.as_deref() == Some(POLICY_TRAIT) && HOT_HOOKS.contains(&n.name.as_str()))
}

/// Whether node `i` is exempt from alloc-reachability traversal.
pub(crate) fn is_alloc_exempt(g: &CallGraph, i: usize) -> bool {
    let n = &g.nodes[i];
    n.in_test || n.markers.alloc_exempt || name_exempt(&n.name)
}

/// Runs all three passes and returns their diagnostics (unsorted,
/// undeduplicated across passes — the caller owns canonical ordering).
pub(crate) fn analyze(g: &CallGraph, files: &[FileView]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    alloc_reachability(g, files, &mut diags);
    unordered_emission(g, files, &mut diags);
    concurrency(g, files, &mut diags);
    diags
}

/// BFS from `root` over call edges, skipping nodes where `skip` is true.
/// Calls `visit(node, path_from_root)` on every reached node (including
/// the root itself).
fn walk(
    g: &CallGraph,
    root: usize,
    skip: &dyn Fn(usize) -> bool,
    visit: &mut dyn FnMut(usize, &[usize]),
) {
    let mut parent: FastHashMap<usize, usize> = FastHashMap::default();
    let mut seen: FastHashSet<usize> = FastHashSet::default();
    let mut q = VecDeque::new();
    seen.insert(root);
    q.push_back(root);
    while let Some(n) = q.pop_front() {
        let mut path = vec![n];
        let mut p = n;
        while let Some(&pp) = parent.get(&p) {
            path.push(pp);
            p = pp;
        }
        path.reverse();
        visit(n, &path);
        for &c in &g.edges[n] {
            if !seen.contains(&c) && !skip(c) {
                seen.insert(c);
                parent.insert(c, n);
                q.push_back(c);
            }
        }
    }
}

fn trace(g: &CallGraph, path: &[usize]) -> String {
    path.iter()
        .map(|&i| format!("`{}`", g.nodes[i].display_name()))
        .collect::<Vec<_>>()
        .join(" → ")
}

fn alloc_reachability(g: &CallGraph, files: &[FileView], diags: &mut Vec<Diagnostic>) {
    let mut reported: FastHashSet<(usize, u32, usize)> = FastHashSet::default();
    for root in 0..g.nodes.len() {
        if !is_hot_root(g, root) {
            continue;
        }
        walk(g, root, &|i| is_alloc_exempt(g, i), &mut |n, path| {
            for ev in &g.allocs[n] {
                if !reported.insert((g.nodes[n].file, ev.line, root)) {
                    continue;
                }
                diags.push(Diagnostic {
                    file: files[g.nodes[n].file].path.to_path_buf(),
                    line: ev.line,
                    rule: "hot-path-alloc",
                    message: format!(
                        "{} reachable from hot-path root `{}` via {}; move it to \
                         construction/`prepare()` time or mark the containing fn \
                         `// audit:alloc-exempt` with a justification",
                        ev.what,
                        g.nodes[root].display_name(),
                        trace(g, path),
                    ),
                });
            }
        });
    }
}

fn unordered_emission(g: &CallGraph, files: &[FileView], diags: &mut Vec<Diagnostic>) {
    let mut reported: FastHashSet<(usize, u32)> = FastHashSet::default();
    for root in 0..g.nodes.len() {
        let rn = &g.nodes[root];
        if rn.in_test || !(rn.name == "to_json" || rn.markers.canonical_output) {
            continue;
        }
        walk(g, root, &|i| g.nodes[i].in_test, &mut |n, path| {
            for ev in &g.map_iters[n] {
                if !reported.insert((g.nodes[n].file, ev.line)) {
                    continue;
                }
                diags.push(Diagnostic {
                    file: files[g.nodes[n].file].path.to_path_buf(),
                    line: ev.line,
                    rule: "unordered-emission",
                    message: format!(
                        "{} feeds canonical output root `{}` via {}; collect and \
                         sort before emitting",
                        ev.what,
                        g.nodes[root].display_name(),
                        trace(g, path),
                    ),
                });
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Concurrency pass
// ---------------------------------------------------------------------------

/// A live mutex guard being tracked through a function body.
struct Guard {
    /// Lock identity — the trailing identifier of the mutex path
    /// (`self.metrics` → `metrics`, `queues[w]` → `queues`).
    lock: String,
    /// `let` binding name, for `drop(name)` tracking.
    binding: Option<String>,
    /// Brace depth at acquisition.
    depth: i32,
    /// Temporary guards die at the end of the acquiring statement.
    temp: bool,
    /// Line of acquisition (for diagnostics).
    line: u32,
}

/// Channel operations that block (or publish) while a guard is held.
const CHANNEL_OPS: [&str; 5] = ["send", "recv", "recv_timeout", "try_recv", "try_send"];

/// Blocking calls that stall every other waiter while a guard is held:
/// `thread::sleep` freezes the lock for the whole pause, and `join`ing a
/// thread that needs the same lock is a deadlock. `Condvar::wait_timeout`
/// is the accounted way to pause while locked (it atomically releases the
/// guard it consumes), so it is deliberately absent here.
const BLOCKING_OPS: [&str; 2] = ["sleep", "join"];

fn concurrency(g: &CallGraph, files: &[FileView], diags: &mut Vec<Diagnostic>) {
    // (first, second) lock-name pair → acquisition sites.
    let mut pairs: FastHashMap<(String, String), Vec<(usize, u32)>> = FastHashMap::default();
    for (ni, node) in g.nodes.iter().enumerate() {
        let f = &files[node.file];
        let path_str = f.path.to_string_lossy().replace('\\', "/");
        if !(path_str.contains("crates/serve/") || path_str.contains("crates/exec/")) {
            continue;
        }
        if node.in_test || node.name == "lock_clean" {
            continue;
        }
        scan_fn(g, ni, f, &mut pairs, diags);
    }
    // Globally inconsistent orders: both (a, b) and (b, a) observed.
    let mut keys: Vec<&(String, String)> = pairs.keys().collect();
    keys.sort();
    for key in keys {
        let (a, b) = key;
        if a >= b {
            continue;
        }
        let rev = (b.clone(), a.clone());
        if let Some(rev_sites) = pairs.get(&rev) {
            let sites = &pairs[key];
            for &(fi, line) in sites.iter().chain(rev_sites.iter()) {
                diags.push(Diagnostic {
                    file: files[fi].path.to_path_buf(),
                    line,
                    rule: "lock-order",
                    message: format!(
                        "inconsistent lock order: `{a}` and `{b}` are acquired in \
                         both orders across the workspace (deadlock risk); pick one \
                         global order"
                    ),
                });
            }
        }
    }
}

/// Scans one function body tracking guard liveness.
fn scan_fn(
    g: &CallGraph,
    ni: usize,
    f: &FileView,
    pairs: &mut FastHashMap<(String, String), Vec<(usize, u32)>>,
    diags: &mut Vec<Diagnostic>,
) {
    let node = &g.nodes[ni];
    let toks = f.toks;
    let (bs, be) = node.body;
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    // Current statement's `let` binding name, if any.
    let mut stmt_let: Option<String> = None;
    let mut k = bs;
    while k < be {
        let t = &toks[k];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => {
                    depth += 1;
                    stmt_let = None;
                }
                "}" => {
                    depth -= 1;
                    guards.retain(|gu| gu.depth <= depth);
                    stmt_let = None;
                }
                ";" => {
                    guards.retain(|gu| !(gu.temp && gu.depth == depth));
                    stmt_let = None;
                }
                _ => {}
            }
            k += 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            k += 1;
            continue;
        }
        let name = t.text.as_str();
        if name == "let" {
            let mut j = k + 1;
            if toks
                .get(j)
                .is_some_and(|x| x.kind == TokKind::Ident && x.text == "mut")
            {
                j += 1;
            }
            stmt_let = toks
                .get(j)
                .filter(|x| x.kind == TokKind::Ident)
                .map(|x| x.text.clone());
            k += 1;
            continue;
        }
        let is_call = toks.get(k + 1).is_some_and(|n| n.is_punct("("));
        if !is_call {
            k += 1;
            continue;
        }
        let after_dot = k >= 1 && toks[k - 1].is_punct(".");
        // `drop(binding)` releases a named guard.
        if name == "drop" && !after_dot {
            if let Some(arg) = toks.get(k + 2).filter(|x| x.kind == TokKind::Ident) {
                guards.retain(|gu| gu.binding.as_deref() != Some(arg.text.as_str()));
            }
            k += 2;
            continue;
        }
        // Lock acquisition?
        let lock_name = if name == "lock_clean" && !after_dot {
            lock_name_forward(toks, k + 1, be)
        } else if (name == "lock" || name == "lock_clean") && after_dot {
            crate::callgraph::receiver_chain(toks, k.saturating_sub(2), bs)
                .and_then(|c| c.into_iter().rev().find(|p| p != "self"))
        } else {
            None
        };
        if let Some(lock) = lock_name {
            for gu in &guards {
                if gu.lock == lock {
                    diags.push(Diagnostic {
                        file: f.path.to_path_buf(),
                        line: t.line,
                        rule: "lock-order",
                        message: format!(
                            "lock `{lock}` re-acquired while its guard from line {} \
                             is still live (self-deadlock)",
                            gu.line
                        ),
                    });
                } else {
                    pairs
                        .entry((gu.lock.clone(), lock.clone()))
                        .or_default()
                        .push((node.file, t.line));
                }
            }
            // Binding guard only for `let g = lock_clean(..);` — a chained
            // method (`let x = lock_clean(..).pop_front();`) is a temporary
            // that dies at the `;`.
            let close = skip_group_at(toks, k + 1);
            let plain_binding =
                stmt_let.is_some() && toks.get(close).is_some_and(|x| x.is_punct(";"));
            guards.push(Guard {
                lock,
                binding: if plain_binding {
                    stmt_let.clone()
                } else {
                    None
                },
                depth,
                temp: !plain_binding,
                line: t.line,
            });
            k += 2;
            continue;
        }
        // Channel op under a guard?
        if after_dot && CHANNEL_OPS.contains(&name) {
            if let Some(gu) = guards.first() {
                diags.push(Diagnostic {
                    file: f.path.to_path_buf(),
                    line: t.line,
                    rule: "lock-across-channel",
                    message: format!(
                        "channel `.{name}(..)` while holding the `{}` guard from \
                         line {}; release the lock before touching the channel",
                        gu.lock, gu.line
                    ),
                });
            }
        }
        // Sleep or join under a guard? The event loop and the router's
        // health thread pace themselves with sleeps; none of those pauses
        // may pin a lock other threads need to make progress.
        if BLOCKING_OPS.contains(&name) {
            if let Some(gu) = guards.first() {
                diags.push(Diagnostic {
                    file: f.path.to_path_buf(),
                    line: t.line,
                    rule: "blocking-under-lock",
                    message: format!(
                        "blocking `{name}(..)` while holding the `{}` guard from \
                         line {}; release the lock first (pausing with a lock held \
                         is only accounted through `Condvar::wait_timeout`)",
                        gu.lock, gu.line
                    ),
                });
            }
        }
        // Unaccounted spawn?
        if name == "spawn" && !node.markers.spawn_site {
            diags.push(Diagnostic {
                file: f.path.to_path_buf(),
                line: t.line,
                rule: "unaccounted-spawn",
                message: format!(
                    "thread spawn in `{}` outside an accounted spawn path; mark the \
                     fn `// audit:spawn-site` once its join/shutdown story is owned",
                    node.display_name()
                ),
            });
        }
        k += 1;
    }
}

/// Lock name from a `lock_clean(&self.metrics)` argument list starting at
/// `open` (the `(` token index): the last path identifier before an index
/// bracket, comma, or the closing paren, skipping `&`/`mut`/`self`.
fn lock_name_forward(toks: &[Tok], open: usize, hi: usize) -> Option<String> {
    let mut j = open + 1;
    let mut last: Option<String> = None;
    while j < hi {
        let t = &toks[j];
        if t.is_punct(")") || t.is_punct(",") || t.is_punct("[") {
            break;
        }
        if t.kind == TokKind::Ident && t.text != "self" && t.text != "mut" {
            last = Some(t.text.clone());
        }
        j += 1;
    }
    last
}

/// Index just past the group opening at `open`.
fn skip_group_at(toks: &[Tok], open: usize) -> usize {
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
