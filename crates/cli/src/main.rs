//! `uopcache` — command-line driver for the micro-op cache simulator.
//!
//! ```text
//! uopcache gen --app kafka --variant 0 --len 100000 -o kafka.trc
//! uopcache stats -i kafka.trc
//! uopcache simulate -i kafka.trc --policy furbys
//! uopcache profile -i kafka.trc --oracle flack -o hints.json
//! uopcache compare -i kafka.trc
//! uopcache experiment fig08 [--quick]
//! uopcache apps
//! ```

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            // A failed check already printed its findings — the usage text
            // is only for argument mistakes.
            if !e.is::<args::CheckFailed>() {
                eprintln!();
                eprintln!("{}", commands::USAGE);
            }
            ExitCode::FAILURE
        }
    }
}
