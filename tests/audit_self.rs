//! The audit lints the workspace that contains it.
//!
//! Two layers of coverage:
//!
//! 1. **Self-audit** — the full lint (token rules, call-graph reachability
//!    passes, concurrency pass) runs over the real workspace sources and
//!    must report zero diagnostics. This is the same run CI diffs against
//!    `tests/golden/audit_clean.json`.
//! 2. **Fixtures** — each graph rule is driven through
//!    [`run_lint_sources`] on known snippets, asserting both that it fires
//!    (with a path trace where the rule promises one) and that the
//!    documented exemptions keep it quiet. The seeded checks mirror the
//!    acceptance criterion: planting an allocation in `PwSet::insert` or a
//!    policy per-access hook must fail the audit at the planted line. (That
//!    a std `HashMap` is rejected at all is clippy's job, via `clippy.toml`;
//!    CI plants one and requires clippy to fail.)
//!
//! [`run_lint_sources`]: uopcache_audit::run_lint_sources

use std::path::{Path, PathBuf};
use uopcache_audit::{diagnostics_json, read_sources, run_lint, run_lint_sources, Diagnostic};

fn lint_fixture(path: &str, src: &str) -> Vec<Diagnostic> {
    run_lint_sources(vec![(PathBuf::from(path), src.to_string())]).diagnostics
}

fn rules_of<'d>(diags: &'d [Diagnostic], rule: &str) -> Vec<&'d Diagnostic> {
    diags.iter().filter(|d| d.rule == rule).collect()
}

/// The workspace sources, as the audit itself walks them.
fn workspace_sources() -> Vec<(PathBuf, String)> {
    read_sources(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace has sources")
}

// ---------------------------------------------------------------------------
// Self-audit
// ---------------------------------------------------------------------------

/// The workspace audits clean: this is the single source of truth CI
/// enforces by diffing `audit --json` against the committed golden.
#[test]
fn workspace_audit_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let report = run_lint(&root).expect("workspace has sources to lint");
    assert!(
        report.diagnostics.is_empty(),
        "audit found {} problem(s):\n{}",
        report.diagnostics.len(),
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The graph actually covered the workspace — a parser regression that
    // silently dropped most functions would otherwise read as "clean".
    assert!(report.files > 50, "only {} files linted", report.files);
    assert!(
        report.functions > 500,
        "only {} fns parsed",
        report.functions
    );
    assert!(report.edges > 1000, "only {} call edges", report.edges);
}

/// The committed golden is byte-identical to what a clean run emits.
#[test]
fn clean_golden_matches_emitter() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(root.join("tests/golden/audit_clean.json"))
        .expect("committed golden exists");
    assert_eq!(golden, diagnostics_json(&[]));
}

/// The call-graph dump names the kernel's hot spine.
#[test]
fn callgraph_dump_covers_the_kernel() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let graph = uopcache_audit::callgraph_json(&root).expect("graph builds");
    for needle in ["PwSet::insert", "UopCache::lookup", "UopCache::insert"] {
        assert!(graph.contains(needle), "graph dump is missing {needle}");
    }
}

// ---------------------------------------------------------------------------
// Seeded acceptance checks (the ISSUE's falsifiability criterion)
// ---------------------------------------------------------------------------

/// Planting a `Vec` push into the real `PwSet::insert` fails the audit at
/// the planted line, with a path trace from the hot-path root.
#[test]
fn seeded_alloc_in_pwset_insert_is_caught() {
    let mut sources = workspace_sources();
    let pwset = sources
        .iter_mut()
        .find(|(p, _)| p.ends_with(Path::new("cache/src/pwset.rs")))
        .expect("pwset.rs in the walked sources");
    let sig = "pub fn insert(&mut self, desc: PwDesc, entries: u32, now: u64) -> PwMeta {";
    assert!(pwset.1.contains(sig), "PwSet::insert signature moved");
    pwset.1 = pwset.1.replace(
        sig,
        "pub fn insert(&mut self, desc: PwDesc, entries: u32, now: u64) -> PwMeta {\n        \
         let mut seeded: Vec<u64> = Vec::new();\n        seeded.push(now);",
    );
    let report = run_lint_sources(sources);
    let hits: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "hot-path-alloc" && d.file.ends_with(Path::new("pwset.rs")))
        .collect();
    assert!(
        !hits.is_empty(),
        "seeded Vec push in PwSet::insert not caught"
    );
    assert!(
        hits.iter().any(|d| d.message.contains("`PwSet::insert`")),
        "diagnostic lacks a path trace: {hits:?}"
    );
}

/// Planting a `HashMap::new()` into a real policy per-access hook fails
/// the audit's reachability proof.
#[test]
fn seeded_hashmap_in_policy_hook_is_caught() {
    let mut sources = workspace_sources();
    let fifo = sources
        .iter_mut()
        .find(|(p, _)| p.ends_with(Path::new("policies/src/fifo.rs")))
        .expect("fifo.rs in the walked sources");
    let sig = "fn on_insert(&mut self, _set: usize, _meta: &PwMeta) {}";
    assert!(
        fifo.1.contains(sig),
        "FifoPolicy::on_insert signature moved"
    );
    fifo.1 = fifo.1.replace(
        sig,
        "fn on_insert(&mut self, _set: usize, _meta: &PwMeta) {\n        \
         let _m: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();\n    }",
    );
    let report = run_lint_sources(sources);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "hot-path-alloc" && d.file.ends_with(Path::new("fifo.rs"))),
        "HashMap::new in hook not proven"
    );
}

// ---------------------------------------------------------------------------
// Alloc-reachability fixtures
// ---------------------------------------------------------------------------

#[test]
fn hot_path_alloc_fires_through_a_callee_with_a_trace() {
    let diags = lint_fixture(
        "crates/cache/src/fixture.rs",
        r#"
struct S { scratch: Vec<u64> }
impl S {
    // audit:hot-path — fixture root
    fn hot(&mut self) { self.helper(); }
    fn helper(&mut self) { self.scratch.push(1); }
}
"#,
    );
    let hits = rules_of(&diags, "hot-path-alloc");
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert!(
        hits[0].message.contains("`S::hot` → `S::helper`"),
        "missing call path: {}",
        hits[0].message
    );
}

#[test]
fn prepare_time_allocation_stays_clean() {
    let diags = lint_fixture(
        "crates/policies/src/fixture.rs",
        r#"
struct FixPolicy { table: Vec<u64> }
impl PwReplacementPolicy for FixPolicy {
    fn prepare(&mut self, sets: usize) {
        self.table = Vec::with_capacity(sets);
        self.table.push(0);
    }
    fn on_insert(&mut self, _set: usize) { self.tick(); }
}
impl FixPolicy {
    fn tick(&mut self) { self.table[0] += 1; }
}
"#,
    );
    assert!(
        rules_of(&diags, "hot-path-alloc").is_empty(),
        "prepare()-time allocation was flagged: {diags:?}"
    );
}

#[test]
fn alloc_exempt_marker_excuses_a_root() {
    let diags = lint_fixture(
        "crates/cache/src/fixture.rs",
        r#"
struct W { log: Vec<u64> }
impl PwReplacementPolicy for W {
    // audit:alloc-exempt — diagnostic wrapper, never on the timed path
    fn on_insert(&mut self, set: usize) { self.log.push(set as u64); }
}
"#,
    );
    assert!(
        rules_of(&diags, "hot-path-alloc").is_empty(),
        "alloc-exempt marker ignored: {diags:?}"
    );
}

// ---------------------------------------------------------------------------
// Determinism fixtures
// ---------------------------------------------------------------------------

#[test]
fn unordered_emission_fires_without_a_sort_and_not_with_one() {
    let unsorted = r#"
struct E { m: FastHashMap<u64, u64> }
impl E {
    fn to_json(&self) -> usize {
        let mut n = 0;
        for (_k, v) in self.m.iter() { n += *v as usize; }
        n
    }
}
"#;
    let diags = lint_fixture("crates/obs/src/fixture.rs", unsorted);
    assert!(
        !rules_of(&diags, "unordered-emission").is_empty(),
        "hash-ordered iteration feeding to_json not flagged: {diags:?}"
    );
    let sorted = r#"
struct E { m: FastHashMap<u64, u64> }
impl E {
    fn to_json(&self) -> u64 {
        let mut keys: Vec<u64> = self.m.keys().copied().collect();
        keys.sort_unstable();
        keys[0]
    }
}
"#;
    let diags = lint_fixture("crates/obs/src/fixture.rs", sorted);
    assert!(
        rules_of(&diags, "unordered-emission").is_empty(),
        "sorted emission still flagged: {diags:?}"
    );
}

// ---------------------------------------------------------------------------
// Concurrency fixtures
// ---------------------------------------------------------------------------

#[test]
fn inconsistent_lock_order_is_reported() {
    let diags = lint_fixture(
        "crates/serve/src/fixture.rs",
        r#"
fn forward(alpha: &M, beta: &M) {
    let ga = lock_clean(alpha);
    let gb = lock_clean(beta);
    drop(gb);
    drop(ga);
}
fn backward(alpha: &M, beta: &M) {
    let gb = lock_clean(beta);
    let ga = lock_clean(alpha);
    drop(ga);
    drop(gb);
}
"#,
    );
    assert!(
        !rules_of(&diags, "lock-order").is_empty(),
        "A→B vs B→A acquisition not reported: {diags:?}"
    );
}

#[test]
fn lock_reacquisition_is_a_self_deadlock() {
    let diags = lint_fixture(
        "crates/exec/src/fixture.rs",
        r#"
fn twice(gamma: &M) {
    let g1 = lock_clean(gamma);
    let g2 = lock_clean(gamma);
    drop(g2);
    drop(g1);
}
"#,
    );
    let hits = rules_of(&diags, "lock-order");
    assert!(
        hits.iter().any(|d| d.message.contains("re-acquired")),
        "self-deadlock not reported: {diags:?}"
    );
}

#[test]
fn channel_ops_under_a_guard_are_reported_and_drop_clears_it() {
    let held = r#"
fn publish(jobs: &M, tx: &Sender) {
    let g = lock_clean(jobs);
    tx.send(1);
    drop(g);
}
"#;
    let diags = lint_fixture("crates/serve/src/fixture.rs", held);
    assert!(
        !rules_of(&diags, "lock-across-channel").is_empty(),
        "send under a live guard not reported: {diags:?}"
    );
    let released = r#"
fn publish(jobs: &M, tx: &Sender) {
    let g = lock_clean(jobs);
    drop(g);
    tx.send(1);
}
"#;
    let diags = lint_fixture("crates/serve/src/fixture.rs", released);
    assert!(
        rules_of(&diags, "lock-across-channel").is_empty(),
        "send after drop(guard) still flagged: {diags:?}"
    );
}

#[test]
fn sleeps_and_joins_under_a_guard_are_reported() {
    let paused = r#"
fn tick(state: &M) {
    let g = lock_clean(state);
    std::thread::sleep(POLL);
    drop(g);
}
fn reap(state: &M, handle: H) {
    let g = lock_clean(state);
    handle.join();
    drop(g);
}
"#;
    let diags = lint_fixture("crates/serve/src/fixture.rs", paused);
    let hits = rules_of(&diags, "blocking-under-lock");
    assert_eq!(hits.len(), 2, "{diags:?}");
    assert!(hits.iter().any(|d| d.message.contains("`sleep(..)`")));
    assert!(hits.iter().any(|d| d.message.contains("`join(..)`")));

    // Released first — and the Condvar idiom, which consumes its guard
    // atomically — are both fine.
    let released = r#"
fn tick(state: &M) {
    let g = lock_clean(state);
    drop(g);
    std::thread::sleep(POLL);
}
fn park(state: &M, cv: &Condvar) {
    let mut g = lock_clean(state);
    let (guard, _timed_out) = cv.wait_timeout(g, POLL).unwrap_or_else(|p| p.into_inner());
    g = guard;
    drop(g);
}
"#;
    let diags = lint_fixture("crates/serve/src/fixture.rs", released);
    assert!(
        rules_of(&diags, "blocking-under-lock").is_empty(),
        "released or Condvar-parked pauses must not be flagged: {diags:?}"
    );
}

#[test]
fn unmarked_spawns_are_flagged_and_spawn_site_marker_accounts_them() {
    let diags = lint_fixture(
        "crates/serve/src/fixture.rs",
        r#"
fn boot() { std::thread::spawn(worker); }
// audit:spawn-site — joined in shutdown()
fn boot_accounted() { std::thread::spawn(worker); }
fn worker() {}
"#,
    );
    let hits = rules_of(&diags, "unaccounted-spawn");
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert!(
        hits[0].message.contains("`boot`"),
        "wrong spawn flagged: {}",
        hits[0].message
    );
}
