//! Golden-trace regression tests: seeded sweeps whose canonical JSON —
//! per-policy hit rates, MPKI, eviction counts, seeds — is pinned under
//! `tests/golden/`, and the quick-mode `EXPERIMENTS.md` every table and
//! figure renders. Any behavioural drift in the trace generator, the
//! simulator, a policy, the seeding scheme or an experiment shows up as a
//! diff here.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_outputs
//! ```
//!
//! then commit the rewritten files with a note on why the numbers moved.

use std::path::PathBuf;
use uopcache::exec::Engine;
use uopcache::model::FrontendConfig;
use uopcache::trace::AppId;
use uopcache_bench::experiments::reproduce;
use uopcache_bench::runs::Lab;
use uopcache_bench::sweep::{run_sweep, SweepSpec, SCHEMA_VERSION};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Runs the spec at two worker counts, checks they agree, then compares the
/// canonical JSON against the committed golden file (or rewrites it when
/// `UPDATE_GOLDEN=1`).
fn check_golden(name: &str, spec: &SweepSpec) {
    let actual = run_sweep(spec, &Engine::new(1)).to_json();
    let parallel = run_sweep(spec, &Engine::new(4)).to_json();
    assert_eq!(actual, parallel, "{name}: sweep is not jobs-invariant");
    assert_eq!(SCHEMA_VERSION, 1, "bumping the schema needs new goldens");
    assert!(
        actual.starts_with("{\"schema_version\":1,"),
        "{name}: canonical JSON must lead with the schema version"
    );

    check_text(name, &actual);
}

/// Compares `actual` against the committed golden file `name` (or rewrites
/// it when `UPDATE_GOLDEN=1`).
fn check_text(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with \
             `UPDATE_GOLDEN=1 cargo test --test golden_outputs`",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected.trim_end(),
        "{name}: output drifted from the golden reference; if the change is \
         intentional, regenerate with `UPDATE_GOLDEN=1 cargo test --test \
         golden_outputs` and commit the diff"
    );
}

fn apps() -> Vec<AppId> {
    vec![AppId::Kafka, AppId::Postgres, AppId::Clang]
}

fn policies() -> Vec<String> {
    // A cross-section of the registry: the paper roster's extremes, the
    // seeded control, one representative per zoo family (recency, frequency,
    // clock, segmented, ghost-adaptive) and the set-dueling meta-policy.
    names(&[
        "LRU",
        "Thermometer",
        "FURBYS",
        "Random",
        "MRU",
        "LFU",
        "CLOCK",
        "SLRU",
        "2Q",
        "ARC",
        "CAR",
        "set-dueling",
    ])
}

/// The zen3 golden's spec; the other zen3 goldens vary it.
fn zen3_spec() -> SweepSpec {
    SweepSpec {
        cfg: FrontendConfig::zen3(),
        config_name: "zen3".to_string(),
        apps: apps(),
        policies: policies(),
        variant: 0,
        len: 4_000,
        metrics: false,
        sample: None,
        scale: 1,
    }
}

fn names(policies: &[&str]) -> Vec<String> {
    policies.iter().map(|p| (*p).to_string()).collect()
}

#[test]
fn golden_zen3() {
    check_golden("zen3.json", &zen3_spec());
}

#[test]
fn golden_zen4_small() {
    // The Zen4-like frontend at a quarter of its capacity: exercises a
    // different geometry (more conflict misses, more evictions) and a
    // different input variant than the zen3 golden.
    let mut cfg = FrontendConfig::zen4();
    cfg.uop_cache = cfg.uop_cache.with_entries(cfg.uop_cache.entries / 4);
    check_golden(
        "zen4_small.json",
        &SweepSpec {
            cfg,
            config_name: "zen4_small".to_string(),
            variant: 1,
            ..zen3_spec()
        },
    );
}

#[test]
fn golden_metrics_zen3() {
    // Pins the `--metrics` additions no other golden covers: per-cell
    // sampled events and metrics, merged totals and per-task profiles.
    check_golden(
        "metrics_zen3.json",
        &SweepSpec {
            apps: vec![AppId::Kafka],
            policies: names(&["LRU", "Random"]),
            len: 2_000,
            metrics: true,
            ..zen3_spec()
        },
    );
}

#[test]
fn golden_sampled_zen3() {
    // Pins a sampled sweep on scaled traces: the `sampled` block of every
    // cell, the reconstructed counters, the empty totals of a sampled
    // `--metrics` sweep and its segment-keyed profiles.
    check_golden(
        "sampled_zen3.json",
        &SweepSpec {
            apps: vec![AppId::Kafka, AppId::Postgres],
            policies: names(&["LRU", "FURBYS", "Random"]),
            len: 3_000,
            metrics: true,
            sample: Some(1_000),
            scale: 2,
            ..zen3_spec()
        },
    );
}

#[test]
fn golden_experiments_quick() {
    // Every table and figure in quick mode (2 apps, 8 000-access traces),
    // all read from one lab.
    let mut lab = Lab::new(true, Engine::new(4));
    let run = reproduce(&mut lab);
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    check_claims(&run.markdown);
    check_text("experiments_quick.md", run.markdown.trim_end());

    // Each distinct trace and solve is computed once. The traces: 2 apps x 3
    // input variants, Clang for Fig. 13 and Fig. 22's longer Kafka trace.
    // The solves, per (trace, micro-op cache, solver configuration): 3
    // solver configurations on each zen3 input-0 trace; FLACK on inputs 1
    // and 2, on the 256-entry, zen4 and non-inclusive caches, on Clang and on
    // Fig. 22's trace.
    let work = lab.work();
    assert_eq!(work.traces, 8, "{work:?}");
    assert_eq!(work.solves, 2 * 3 + 2 * 2 + 3 * 2 + 1 + 1, "{work:?}");
    // A second pass is answered from the memo.
    let again = reproduce(&mut lab);
    assert_eq!(again.markdown, run.markdown);
    assert_eq!(lab.work(), work, "a second pass recomputed work");
}

/// The numbers of the row labelled `label` in the markdown table titled
/// `title`, after the label; a cell that is not a number (a paper column's
/// "~30%") reads as NaN.
fn row(md: &str, title: &str, label: &str) -> Vec<f64> {
    let heading = format!("### {title}\n\n");
    let start = md
        .find(&heading)
        .unwrap_or_else(|| panic!("no table {title:?}"));
    let line = (md[start + heading.len()..].lines())
        .take_while(|l| l.starts_with('|'))
        .find(|l| l.split('|').nth(1).map(str::trim) == Some(label))
        .unwrap_or_else(|| panic!("no row {label:?} in {title:?}"));
    (line
        .split('|')
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .skip(1))
    .map(|c| c.trim_end_matches(['%', 'x']).parse().unwrap_or(f64::NAN))
    .collect()
}

/// What the figures claim, checked on their numbers, so that regenerating
/// the golden cannot carry a broken claim through: each runs before the
/// golden is compared or rewritten.
fn check_claims(md: &str) {
    let ppw = row(
        md,
        "Fig. 2: PPW gain of perfect structures over the LRU baseline",
        "MEAN",
    );
    assert!(
        ppw.iter().all(|&g| g <= ppw[0]),
        "Fig. 2: the uop cache is the largest lever: {ppw:?}"
    );
    // Belady, FOO, A, A+VC, FLACK.
    let ablation = row(
        md,
        "Fig. 10: miss reduction over LRU (offline, perfect-icache setting)",
        "MEAN",
    );
    assert!(
        ablation[1..].windows(2).all(|w| w[0] <= w[1]),
        "Fig. 10: each FLACK feature helps: {ablation:?}"
    );
    let iso = row(md, "Fig. 12 summary", "avg ISO capacity for LRU");
    assert!(
        iso[1] > 1.0,
        "Fig. 12: LRU needs more capacity than FURBYS: {iso:?}"
    );
    let energy = row(
        md,
        "Fig. 13: per-core energy on Clang, normalised to no-uop-cache baseline",
        "TOTAL",
    );
    assert!(
        (energy[0] - 100.0).abs() < 1e-9 && energy[2] <= energy[1],
        "Fig. 13: {energy:?}"
    );
    let bypassed = row(md, "Fig. 21 summary", "insertions bypassed");
    assert!(bypassed[1] > 0.0, "Fig. 21: FURBYS bypasses: {bypassed:?}");
    let hotness = "Fig. 22: hit rate (%) by PW hotness class on Kafka";
    let (lru, furbys) = (row(md, hotness, "LRU"), row(md, hotness, "FURBYS"));
    assert!(
        furbys[0] > lru[0],
        "Fig. 22: FURBYS keeps hot PWs: {furbys:?} vs {lru:?}"
    );
    let overhead = "SVI: FURBYS hardware overhead per micro-op cache set";
    let meta = row(md, overhead, "metadata bits per set")[1];
    let payload = row(md, overhead, "payload bits per set")[1];
    assert!(
        (meta - 46.0).abs() < 1e-9 && (payload - 4608.0).abs() < 1e-9,
        "SVI: {meta} metadata bits over {payload} payload bits"
    );
    let share = row(md, overhead, "overhead")[1];
    assert!(
        (share - 100.0 * meta / payload).abs() < 0.005,
        "SVI: overhead {share}%"
    );
}
