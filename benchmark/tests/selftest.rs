//! Self-tests: every workload at a tiny size emits exactly the metric names
//! `BENCHMARK.json` lists, and the checks count what they should.

use std::path::Path;
use std::time::Duration;
use uopcache_bench::sweep::SweepSpec;
use uopcache_benchmark::serve::{self, check_replies, Record, Shape};
use uopcache_benchmark::{sweep, Outcome};
use uopcache_model::json::Json;
use uopcache_trace::AppId;

const EXE: &str = env!("CARGO_BIN_EXE_uopcache-benchmark");
const SECONDS: Duration = Duration::from_millis(200);

/// The names `BENCHMARK.json` lists under `section`.
fn listed(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.field(section)
        .expect("section present")
        .as_arr()
        .expect("section is a list")
        .iter()
        .map(|m| {
            m.field("name")
                .expect("named")
                .as_str()
                .expect("string")
                .to_string()
        })
        .collect()
}

fn emitted(outcome: &Outcome) -> Vec<String> {
    outcome
        .metrics
        .all()
        .iter()
        .map(|m| m.name.to_string())
        .collect()
}

/// Runs `run(traced)` untraced and traced; both must pass their checks and
/// emit exactly the listed names.
fn assert_names(what: &str, run: impl Fn(bool) -> std::io::Result<Outcome>) {
    for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let outcome = run(traced).expect("workload runs");
        assert!(
            outcome.correct(),
            "{what} traced={traced}: {:?}",
            outcome.problems
        );
        assert!(outcome.attempted > 0);
        assert_eq!(emitted(&outcome), listed(section), "{what} traced={traced}");
    }
}

fn tiny_sweep(sampled: bool) -> SweepSpec {
    let mut spec = sweep::full_template();
    spec.apps = vec![AppId::Kafka, AppId::Postgres];
    spec.policies = vec!["LRU".to_string(), "FURBYS".to_string()];
    spec.len = 2_000;
    if sampled {
        spec.scale = 3;
        spec.sample = Some(2_000);
    }
    spec
}

const TINY_SERVE: Shape = Shape {
    len: 1_000,
    spot_checks: 2,
};

#[test]
fn sweep_full_emits_the_listed_metrics() {
    let spec = tiny_sweep(false);
    assert_names("sweep-full", |traced| {
        sweep::run(&spec, 3, SECONDS, traced, Path::new(EXE))
    });
}

#[test]
fn sweep_sampled_emits_the_listed_metrics() {
    let spec = tiny_sweep(true);
    assert_names("sweep-sampled", |traced| {
        sweep::run(&spec, 3, SECONDS, traced, Path::new(EXE))
    });
}

#[test]
fn serve_mixed_emits_the_listed_metrics() {
    assert_names("serve-mixed", |traced| {
        serve::run(false, &TINY_SERVE, 3, SECONDS, traced, Path::new(EXE))
    });
}

#[test]
fn route_mixed_emits_the_listed_metrics() {
    assert_names("route-mixed", |traced| {
        serve::run(true, &TINY_SERVE, 3, SECONDS, traced, Path::new(EXE))
    });
}

/// A successful record whose report has digest `digest`.
fn record(client: usize, i: usize, digest: u64) -> Record {
    Record {
        client,
        i,
        fresh: i % 4 != 3,
        rt_s: 0.01,
        reply: Ok(digest),
    }
}

#[test]
fn corrupted_served_reports_count_as_failures() {
    // Request 3 repeats request 0, so its report must match; a clean
    // stream passes.
    let clean: Vec<Record> = [10, 11, 12, 10]
        .into_iter()
        .enumerate()
        .map(|(i, d)| record(0, i, d))
        .collect();
    let offline = vec![(1, 11)];
    assert_eq!(check_replies(&clean, &offline).0, 0);

    // A served report that differs from the offline sweep fails.
    let (failed, problems) = check_replies(&clean, &[(1, 99)]);
    assert_eq!(failed, 1, "{problems:?}");

    // So does a repeat whose bytes differ from the first reply, and a
    // client error.
    let mut bad = clean.clone();
    bad[3].reply = Ok(13);
    bad[2].reply = Err("server busy: queue full".to_string());
    assert_eq!(check_replies(&bad, &offline).0, 2);
}
