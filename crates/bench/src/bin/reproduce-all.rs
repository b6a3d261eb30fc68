//! Runs every experiment in the registry and writes `EXPERIMENTS.md` with
//! the paper-vs-measured results.
//!
//! ```text
//! cargo run -p uopcache-bench --release --bin reproduce-all -- [--quick] [--jobs N] [OUT]
//! ```
//!
//! `--quick` runs the two-app, short-trace mode; `--jobs N` (default:
//! available parallelism) sets the worker count; `OUT` (default
//! `EXPERIMENTS.md`) names the file to write. Any other argument is
//! refused. The document is byte-identical for every `--jobs` value;
//! progress and runtimes go to stderr. A panicking experiment is reported as
//! a failure line instead of aborting the run, and makes the exit status
//! non-zero.

use std::process::ExitCode;
use uopcache_bench::experiments;
use uopcache_bench::runs::Lab;
use uopcache_exec::Engine;

const USAGE: &str = "usage: reproduce-all [--quick] [--jobs N] [OUT]";

fn main() -> ExitCode {
    let mut quick = false;
    let mut out_path = None;
    let mut jobs = Engine::default_parallelism();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--jobs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => jobs = n,
                _ => {
                    eprintln!("--jobs needs a positive worker count\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            path if !path.starts_with('-') && out_path.is_none() => {
                out_path = Some(path.to_string());
            }
            other => {
                eprintln!("unexpected argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let out_path = out_path.unwrap_or_else(|| "EXPERIMENTS.md".to_string());

    let engine = Engine::new(jobs);
    eprintln!("[{} jobs]", engine.jobs());
    let mut lab = Lab::new(quick, engine);
    let run = experiments::reproduce(&mut lab);
    if let Err(e) = std::fs::write(&out_path, &run.markdown) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    let count = experiments::all().len();
    eprintln!("{:?}", lab.work());
    eprintln!(
        "wrote {out_path} ({}/{count} experiments ok)",
        count - run.failures.len()
    );
    if run.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
