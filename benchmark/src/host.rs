//! Host-side measurements and child processes: CPU time and peak memory
//! from `/proc`, a content digest for output bytes, and the line-oriented
//! pipe the parent uses to drive a child copy of the benchmark binary.

use std::io::{self, BufRead, BufReader, Lines, Write};
use std::path::Path;
use std::process::{ChildStdout, Command, Stdio};

/// `/proc/<pid>/stat` counts CPU time in `USER_HZ` ticks, 100 per second on
/// every Linux platform.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of this process so far, all threads
/// (including ones that already exited). Resolution is one tick (10 ms).
///
/// # Errors
///
/// When `/proc/self/stat` is unreadable or malformed (non-Linux hosts).
pub fn cpu_seconds() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // Fields after the parenthesised command name start at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| io::Error::other("malformed /proc/self/stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / TICKS_PER_SECOND)
            .ok_or_else(|| io::Error::other("malformed /proc/self/stat"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// This process's peak resident set (`VmHWM`), in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// FNV-1a 64 of `bytes`: the digest printed per workload so that a change
/// in any simulated statistic between two commits is visible at a glance.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A child copy of the benchmark binary, fed one input document on stdin
/// and read line by line from stdout.
pub struct Child {
    child: std::process::Child,
    lines: Lines<BufReader<ChildStdout>>,
}

impl Child {
    /// Starts `exe --child <mode>` and writes `input` to its stdin, then
    /// closes it.
    ///
    /// # Errors
    ///
    /// Any spawn or pipe failure.
    pub fn spawn(exe: &Path, mode: &str, input: &str) -> io::Result<Child> {
        let mut child = Command::new(exe)
            .args(["--child", mode])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        let written = stdin.write_all(input.as_bytes());
        drop(stdin);
        let mut this = Child {
            child,
            lines: BufReader::new(stdout).lines(),
        };
        if let Err(e) = written {
            let _ = this.child.kill();
            let _ = this.child.wait();
            return Err(e);
        }
        Ok(this)
    }

    /// The next stdout line.
    ///
    /// # Errors
    ///
    /// A pipe failure, or end of output before a line arrived.
    pub fn line(&mut self) -> io::Result<String> {
        self.lines
            .next()
            .unwrap_or_else(|| Err(io::Error::other("child output ended early")))
    }

    /// Reads the rest of the output, waits for the child and checks that it
    /// exited cleanly.
    ///
    /// # Errors
    ///
    /// A pipe or wait failure, or a non-zero exit.
    pub fn finish(mut self) -> io::Result<Vec<String>> {
        let rest = self.lines.by_ref().collect::<io::Result<Vec<_>>>()?;
        let status = self.child.wait()?;
        if status.success() {
            Ok(rest)
        } else {
            Err(io::Error::other(format!("child exited with {status}")))
        }
    }
}

impl Drop for Child {
    /// A child abandoned on an error path is killed and reaped, so no
    /// process outlives the benchmark.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
