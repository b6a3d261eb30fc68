//! `reproduce-all` follows the CLI's argument rules: `--quick`, `--jobs N`
//! and one optional output path, and nothing else.

use std::process::Command;

fn reproduce_all(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce-all"))
        .args(args)
        .output()
        .expect("reproduce-all starts")
}

#[test]
fn unknown_arguments_are_refused_before_any_work() {
    for args in [
        &["--bogus"][..],
        &["--quick", "a.md", "b.md"],
        &["--jobs", "0"],
        &["--jobs"],
    ] {
        let out = reproduce_all(args);
        assert!(!out.status.success(), "{args:?} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: reproduce-all"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("running"), "{args:?} started experiments");
    }
}
