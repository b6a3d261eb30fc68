//! The benchmark command:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload sweep-full|sweep-sampled|serve-mixed|route-mixed \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints every metric with its unit and sample count, then, as the last
//! line, one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! Exits 1 when a check fails and 2 when the workload cannot run.

use std::process::ExitCode;
use std::time::Duration;
use uopcache_benchmark::{serve, sweep, Workload};

const USAGE: &str = "usage: uopcache-benchmark --workload sweep-full|sweep-sampled|serve-mixed|route-mixed [--seed N] [--seconds S] [--trace 0|1]";

/// The values of `--flag value` pairs, or a usage error.
fn parse(args: &[String]) -> Result<(Workload, u64, Duration, bool), String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 1, 20.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = Duration::try_from_secs_f64(seconds).map_err(|e| format!("--seconds: {e}"))?;
    Ok((workload, seed, seconds, traced))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, mode] = &args[..] {
        if flag == "--child" {
            let ran = match mode.as_str() {
                "sweep" => sweep::child(),
                "serve" => serve::child(false),
                "route" => serve::child(true),
                _ => Err(std::io::Error::other(format!("unknown child mode {mode}"))),
            };
            return match ran {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("child {mode}: {e}");
                    ExitCode::from(2)
                }
            };
        }
    }
    let (workload, seed, seconds, traced) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = std::env::current_exe().and_then(|exe| workload.run(seed, seconds, traced, &exe));
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            return ExitCode::from(2);
        }
    };
    println!(
        "{} seed {seed}, {}",
        workload.name(),
        if traced { "traced" } else { "untraced" }
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in outcome.metrics.all() {
        println!("  {} = {} {} (n = {})", m.name, m.value, m.unit, m.samples);
    }
    for p in &outcome.problems {
        println!("  FAILED: {p}");
    }
    println!(
        "  attempted {}, failed {}",
        outcome.attempted, outcome.failed
    );
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
