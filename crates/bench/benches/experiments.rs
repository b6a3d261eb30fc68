//! Bench target regenerating the paper's tables and figures.
//!
//! `cargo bench -p uopcache-bench --bench experiments` runs every experiment
//! in paper order; `cargo bench -p uopcache-bench --bench experiments --
//! fig08 fig10` runs only the named ones (ids as in `DESIGN.md`'s experiment
//! index). Set `UOPCACHE_QUICK=1` for a fast smoke run.

use std::process::ExitCode;
use uopcache_bench::experiments;

fn main() -> ExitCode {
    let quick = std::env::var("UOPCACHE_QUICK").is_ok();
    // Cargo hands bench targets a `--bench` flag; bare words name experiments.
    let ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|arg| !arg.starts_with('-'))
        .collect();
    let selected = if ids.is_empty() {
        experiments::all()
    } else {
        let mut selected = Vec::with_capacity(ids.len());
        for id in &ids {
            let Some(exp) = experiments::by_id(id) else {
                let valid: Vec<&str> = experiments::all().iter().map(|e| e.id).collect();
                eprintln!("unknown experiment {id:?}; valid ids: {}", valid.join(", "));
                return ExitCode::FAILURE;
            };
            selected.push(exp);
        }
        selected
    };
    for exp in selected {
        println!("{} — {}\n", exp.id, exp.caption);
        for table in (exp.run)(quick) {
            table.print();
        }
    }
    ExitCode::SUCCESS
}
