//! The two sweep workloads. Each repetition runs `run_sweep` +
//! `SweepReport::to_json` in a fresh child process of the benchmark binary
//! on an engine with `available_parallelism()` workers — what a CLI user
//! pays per sweep, so an in-process memo cannot fake a gain.

use crate::host::{self, Child};
use crate::layers::replicate;
use crate::stats::median;
use crate::{Metrics, Outcome, SETUP_TRIALS};
use std::io::{self, Read, Write};
use std::path::Path;
use std::time::{Duration, Instant};
use uopcache_bench::policies::PolicyId;
use uopcache_bench::sweep::{run_sweep, SweepSpec};
use uopcache_exec::seed::splitmix64;
use uopcache_exec::Engine;
use uopcache_model::json::Json;
use uopcache_model::FrontendConfig;
use uopcache_trace::AppId;

/// Timed repetitions a run makes even when they overrun `--seconds`.
const MIN_REPS: usize = 3;

/// Largest |sampled − full| uop hit rate a sampled cell may show before it
/// counts as failed. A gross-error gate: the baseline's worst cell is near
/// 0.035 and its reported bounds near 0.025 (see README.md).
const ACCURACY_GATE: f64 = 0.10;

fn template(apps: &[AppId], policies: &[PolicyId], len: usize) -> SweepSpec {
    SweepSpec {
        cfg: FrontendConfig::zen3(),
        config_name: "zen3".to_string(),
        apps: apps.to_vec(),
        policies: policies.iter().map(|p| p.name().to_string()).collect(),
        variant: 0,
        len,
        metrics: false,
        sample: None,
        scale: 1,
    }
}

/// `sweep-full`: 11 apps × all 17 policies, zen3, 30 000 accesses.
pub fn full_template() -> SweepSpec {
    template(&AppId::ALL, &PolicyId::ALL, 30_000)
}

/// `sweep-sampled`: kafka + postgres × the 7 online policies, 12 000
/// accesses scaled 100×, 20 000-uop intervals.
pub fn sampled_template() -> SweepSpec {
    let mut spec = template(&[AppId::Kafka, AppId::Postgres], &PolicyId::ONLINE, 12_000);
    spec.scale = 100;
    spec.sample = Some(20_000);
    spec
}

/// `template` with its input variant derived from the workload seed.
fn spec_for(template: &SweepSpec, seed: u64) -> SweepSpec {
    let mut spec = template.clone();
    spec.variant = u32::try_from(splitmix64(seed) >> 40).expect("24-bit value fits u32");
    spec
}

/// One repetition, as seen from the parent.
struct Rep {
    /// Spawn until the child is ready to start the sweep.
    setup_s: f64,
    /// `run_sweep` + `to_json`, timed in the child.
    wall_s: f64,
    /// CPU time of the same span.
    cpu_s: f64,
    /// The child's peak resident set.
    rss_mb: f64,
    /// The canonical report.
    report: String,
}

/// Starts a child for `spec` and waits until it is ready to sweep; returns
/// the set-up time. With `run` false the child exits instead of sweeping.
fn start(exe: &Path, spec: &SweepSpec, jobs: usize, run: bool) -> io::Result<(f64, Child)> {
    let input = Json::Obj(vec![
        ("spec".to_string(), spec.to_json()),
        ("jobs".to_string(), Json::U64(jobs as u64)),
        ("run".to_string(), Json::Bool(run)),
    ]);
    let spawned = Instant::now();
    let mut child = Child::spawn(exe, "sweep", &input.to_string())?;
    let ready = child.line()?;
    let setup_s = spawned.elapsed().as_secs_f64();
    if ready != "ready" {
        return Err(io::Error::other(format!("child said {ready:?}, not ready")));
    }
    Ok((setup_s, child))
}

fn run_rep(exe: &Path, spec: &SweepSpec, jobs: usize) -> io::Result<Rep> {
    let (setup_s, child) = start(exe, spec, jobs, true)?;
    let [timings, report] = <[String; 2]>::try_from(child.finish()?)
        .map_err(|_| io::Error::other("child printed other than two result lines"))?;
    let t: Vec<f64> = timings
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|e| io::Error::other(format!("bad timing line {timings:?}: {e}")))?;
    let [wall_s, cpu_s, rss_mb] = t[..] else {
        return Err(io::Error::other(format!("bad timing line {timings:?}")));
    };
    Ok(Rep {
        setup_s,
        wall_s,
        cpu_s,
        rss_mb,
        report,
    })
}

/// The child side of a repetition (`--child sweep`): reads the spec and
/// worker count, says `ready`, then runs and reports (or, for a set-up
/// trial, exits).
///
/// # Errors
///
/// Unreadable input, an invalid spec, or a stdout failure.
pub fn child() -> io::Result<()> {
    let mut input = String::new();
    io::stdin().read_to_string(&mut input)?;
    let doc = Json::parse(&input).map_err(io::Error::other)?;
    let spec = doc
        .field("spec")
        .map_err(io::Error::other)
        .and_then(|j| SweepSpec::from_json(j).map_err(io::Error::other))?;
    let jobs = doc.field("jobs").ok().and_then(Json::as_u64).unwrap_or(1);
    let engine = Engine::new(usize::try_from(jobs).unwrap_or(1));
    let mut out = io::stdout().lock();
    writeln!(out, "ready")?;
    out.flush()?;
    if doc.field("run").ok().and_then(Json::as_bool) == Some(false) {
        return Ok(());
    }

    let cpu = host::cpu_seconds()?;
    let start = Instant::now();
    let report = run_sweep(&spec, &engine).to_json();
    let wall = start.elapsed().as_secs_f64();
    let cpu = host::cpu_seconds()? - cpu;
    writeln!(out, "{wall} {cpu} {}", host::peak_rss_mb()?)?;
    writeln!(out, "{report}")?;
    out.flush()
}

/// Checks a report's shape: one cell per `(app, policy)`, no failures, and
/// for sampled cells weights summing to 1 over exact micro-op totals.
/// Returns the number of failed cells.
fn check_report(spec: &SweepSpec, report: &Json, problems: &mut Vec<String>) -> u64 {
    let cells = report
        .field("cells")
        .ok()
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    let failures = report
        .field("failures")
        .ok()
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    let expected = spec.apps.len() * spec.policies.len();
    if cells.len() + failures != expected {
        problems.push(format!(
            "report has {} cells and {failures} failures, expected {expected} cells",
            cells.len()
        ));
    }
    let mut failed = failures as u64;
    if spec.sample.is_some() {
        for c in cells {
            let u = |f: &str| c.field(f).ok().and_then(Json::as_u64);
            let weights: f64 = c
                .field("sampled")
                .and_then(|s| s.field("weights"))
                .ok()
                .and_then(Json::as_arr)
                .map_or(0.0, |w| w.iter().filter_map(Json::as_f64).sum());
            let exact = u("trace_uops").is_some() && u("trace_uops") == u("uops_requested");
            if !exact || (weights - 1.0).abs() > 1e-4 {
                failed += 1;
                problems.push(format!(
                    "sampled cell {:?} is malformed",
                    c.field("key").ok()
                ));
            }
        }
    }
    failed
}

/// Per sampled cell of `report`: `(key, |sampled − full| hit rate, reported
/// est_error)`, against an unsampled sweep of the same spec.
fn sampled_errors(spec: &SweepSpec, report: &Json, jobs: usize) -> Vec<(String, f64, f64)> {
    let mut full_spec = spec.clone();
    full_spec.sample = None;
    let full = run_sweep(&full_spec, &Engine::new(jobs));
    let cells = report
        .field("cells")
        .ok()
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    cells
        .iter()
        .filter_map(|c| {
            let key = c.field("key").ok()?.as_str()?;
            let hit = c.field("hit_rate").ok()?.as_f64()?;
            let bound = c.field("sampled").ok()?.field("est_error").ok()?.as_f64()?;
            let err = full
                .cells
                .iter()
                .find(|f| f.key.to_string() == key)
                .map_or(f64::INFINITY, |truth| (hit - truth.hit_rate()).abs());
            Some((key.to_string(), err, bound))
        })
        .collect()
}

/// Runs a sweep workload: with tracing off, one discarded warm-up
/// repetition and then repetitions until `seconds` have passed (at least
/// [`MIN_REPS`]); with tracing on, one repetition, one untraced serial
/// sweep and the traced serial replica.
///
/// # Errors
///
/// A child that cannot be started or dies.
pub fn run(
    template: &SweepSpec,
    seed: u64,
    seconds: Duration,
    traced: bool,
    exe: &Path,
) -> io::Result<Outcome> {
    let spec = spec_for(template, seed);
    let jobs = Engine::default_parallelism();
    let cells = (spec.apps.len() * spec.policies.len()) as u64;
    let mut problems = Vec::new();
    let mut notes = vec![format!(
        "spec: {} apps x {} policies, len {} x{}, variant {}, sample {:?}; engine workers {jobs}",
        spec.apps.len(),
        spec.policies.len(),
        spec.len,
        spec.scale,
        spec.variant,
        spec.sample
    )];

    let first = run_rep(exe, &spec, jobs)?;
    let parsed = Json::parse(&first.report).map_err(io::Error::other)?;
    let failed_cells = check_report(&spec, &parsed, &mut problems);
    notes.push(format!(
        "report digest {:016x} ({} bytes)",
        host::digest(first.report.as_bytes()),
        first.report.len()
    ));
    let errors = if spec.sample.is_some() {
        sampled_errors(&spec, &parsed, jobs)
    } else {
        Vec::new()
    };
    let mut failed = 0;
    for (key, err, _) in errors.iter().filter(|e| e.1 > ACCURACY_GATE) {
        failed += 1;
        problems.push(format!("{key}: sampled hit rate off by {err:.4}"));
    }

    let mut metrics = Metrics::new(traced);
    let attempted;
    if traced {
        let begun = Instant::now();
        let serial = run_sweep(&spec, &Engine::new(1));
        let serial_json = serial.to_json();
        let untraced_ms = begun.elapsed().as_secs_f64() * 1e3;
        if serial_json != first.report {
            failed += cells;
            problems.push("one-worker report differs from the parallel report".to_string());
        }
        let replica = replicate(&spec, &serial);
        failed += failed_cells + replica.mismatches.len() as u64;
        problems.extend(replica.mismatches.iter().cloned());
        replica.set_metrics(
            &mut metrics,
            untraced_ms,
            untraced_ms / (first.wall_s * 1e3),
        );
        let n = errors.len();
        let err_max = errors.iter().map(|e| e.1).fold(0.0, f64::max);
        let violations = errors.iter().filter(|(_, err, bound)| err > bound).count();
        metrics.set("sample.err_max_pp", err_max * 100.0, n);
        metrics.set("sample.bound_violations", violations as f64, n);
        for (key, err, bound) in errors.iter().filter(|(_, err, bound)| err > bound) {
            notes.push(format!(
                "{key}: true error {:.2} pp exceeds est_error {:.2} pp",
                err * 100.0,
                bound * 100.0
            ));
        }
        notes.push(format!(
            "traced wall {:.1} ms, untraced one-worker {untraced_ms:.1} ms, parallel {:.1} ms",
            replica.wall_ms,
            first.wall_s * 1e3
        ));
        attempted = 2 * cells;
    } else {
        let mut setups = (0..SETUP_TRIALS)
            .map(|_| {
                start(exe, &spec, jobs, false).and_then(|(s, child)| child.finish().map(|_| s))
            })
            .collect::<io::Result<Vec<f64>>>()?;
        let mut reps = Vec::new();
        let begun = Instant::now();
        while reps.len() < MIN_REPS || begun.elapsed() < seconds {
            reps.push(run_rep(exe, &spec, jobs)?);
        }
        let differing = reps.iter().filter(|r| r.report != first.report).count() as u64;
        if differing > 0 {
            problems.push(format!(
                "{differing} repetition(s) gave different report bytes"
            ));
        }
        // Identical bytes carry identical failed cells, so the first
        // report's count holds for every repetition that matches it.
        failed += failed_cells * (reps.len() as u64 + 1 - differing) + differing * cells;
        attempted = (reps.len() as u64 + 1) * cells;
        let n = reps.len();
        let col = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
        setups.extend(col(|r| r.setup_s));
        metrics.set("setup_s", median(&setups), setups.len());
        metrics.set("wall_p50_ms", median(&col(|r| r.wall_s)) * 1e3, n);
        metrics.set("cpu_ms", median(&col(|r| r.cpu_s)) * 1e3, n);
        let rss = reps.iter().map(|r| r.rss_mb).fold(first.rss_mb, f64::max);
        metrics.set("peak_rss_mb", rss, n + 1);
        let walls: Vec<String> = reps
            .iter()
            .map(|r| format!("{:.0}", r.wall_s * 1e3))
            .collect();
        notes.push(format!(
            "{n} timed repetitions after 1 warm-up in {:.1} s; wall ms: {}",
            begun.elapsed().as_secs_f64(),
            walls.join(" ")
        ));
    }
    Ok(Outcome {
        attempted,
        failed,
        problems,
        notes,
        metrics,
    })
}
