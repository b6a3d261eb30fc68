//! Golden-trace regression tests: seeded sweeps whose canonical JSON —
//! per-policy hit rates, MPKI, eviction counts, seeds — is pinned under
//! `tests/golden/`. Any behavioural drift in the trace generator, the
//! simulator, a policy, or the seeding scheme shows up as a diff here.
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

    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).expect("write golden file");
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
