//! Prediction-window formation: converts the executed basic-block stream into
//! the micro-op cache lookup stream.
//!
//! Windows terminate at predicted-taken branches and at i-cache line
//! boundaries (§II-B): a fall-through run of blocks is cut wherever the next
//! instruction would start in a new line. Because conditional branches are
//! sometimes taken and sometimes not, the same start address yields windows
//! of different lengths — the *overlapping PWs* that cause partial hits.

use crate::program::{Bb, Program};
use crate::walker::BlockExec;
use uopcache_model::{Addr, LookupTrace, PwAccess, PwDesc, PwTermination};

/// Incremental PW builder.
///
/// Feed it executed blocks via [`PwBuilder::push`]; completed windows are
/// appended to the output. Call [`PwBuilder::flush`] at end of stream.
///
/// # Examples
///
/// ```
/// use uopcache_trace::{AppId, InputVariant, Program, PwBuilder, Walker};
///
/// let spec = AppId::Kafka.spec();
/// let program = Program::synthesize(&spec);
/// let mut builder = PwBuilder::new(64);
/// let mut out = Vec::new();
/// for exec in Walker::new(&program, &spec, InputVariant::default()).take(100) {
///     builder.push(&program, &exec, &mut out);
/// }
/// builder.flush(&mut out);
/// assert!(!out.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct PwBuilder {
    line_bytes: u64,
    accum: Option<Accum>,
    /// The window after a mispredicted branch is fetched behind a flush.
    pending_mispredict: bool,
}

#[derive(Copy, Clone, Debug)]
struct Accum {
    start: Addr,
    next_addr: u64,
    bytes: u32,
    uops: u32,
    mispredicted: bool,
}

impl PwBuilder {
    /// Creates a builder cutting windows at `line_bytes` boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn new(line_bytes: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        PwBuilder {
            line_bytes,
            accum: None,
            pending_mispredict: false,
        }
    }

    /// Processes one executed block, appending any completed windows to
    /// `out`.
    pub fn push(&mut self, program: &Program, exec: &BlockExec, out: &mut Vec<PwAccess>) {
        let bb = &program.regions[exec.region as usize].bbs[exec.bb as usize];
        // Discontinuity (we arrived via a taken branch elsewhere): close the
        // open window first.
        if let Some(acc) = self.accum {
            if acc.next_addr != bb.addr.get() {
                self.finalize(PwTermination::TakenBranch, out);
            }
        }
        let before = out.len();
        self.append_block(bb, out);
        if exec.taken {
            if self.accum.is_some() {
                self.finalize(PwTermination::TakenBranch, out);
            } else if out.len() > before {
                // The line-boundary cut coincided with the block's last
                // instruction; the branch is what really ended the window.
                if let Some(last) = out.last_mut() {
                    last.pw.term = PwTermination::TakenBranch;
                }
            }
        }
        if exec.mispredicted {
            // The *next* window is fetched after the flush resolves.
            self.finalize(PwTermination::TakenBranch, out);
            self.pending_mispredict = true;
        }
    }

    /// Closes any open window at end of stream.
    pub fn flush(&mut self, out: &mut Vec<PwAccess>) {
        self.finalize(PwTermination::TakenBranch, out);
    }

    /// Appends the block's instructions, cutting at line boundaries.
    fn append_block(&mut self, bb: &Bb, out: &mut Vec<PwAccess>) {
        // Approximate the block as `insts` equally-sized instructions with
        // the remainder bytes on the last one, and the micro-ops distributed
        // as evenly as possible.
        let insts = bb.insts.max(1);
        let base_bytes = bb.bytes / insts;
        let extra_bytes = bb.bytes % insts;
        let base_uops = bb.uops / insts;
        let extra_uops = bb.uops % insts;
        let mut addr = bb.addr.get();
        for i in 0..insts {
            let ibytes = base_bytes + u32::from(i < extra_bytes);
            let iuops = base_uops + u32::from(i < extra_uops);
            let acc = self.accum.get_or_insert(Accum {
                start: Addr::new(addr),
                next_addr: addr,
                bytes: 0,
                uops: 0,
                mispredicted: std::mem::take(&mut self.pending_mispredict),
            });
            acc.bytes += ibytes.max(1);
            acc.uops += iuops;
            acc.next_addr += u64::from(ibytes.max(1));
            addr = acc.next_addr;
            // The PW terminates with the last instruction of a cache line.
            let start_line = acc.start.line(self.line_bytes);
            let next_line = Addr::new(acc.next_addr).line(self.line_bytes);
            if next_line != start_line {
                self.finalize(PwTermination::LineBoundary, out);
            }
        }
    }

    fn finalize(&mut self, term: PwTermination, out: &mut Vec<PwAccess>) {
        if let Some(acc) = self.accum.take() {
            // Zero-uop fragments (e.g. a cut right at a block edge whose uops
            // all landed earlier) merge into nothing; skip them.
            if acc.uops > 0 {
                let pw = PwDesc::new(acc.start, acc.uops, acc.bytes.max(1), term);
                out.push(PwAccess {
                    pw,
                    mispredicted: acc.mispredicted,
                });
            }
        }
    }
}

/// Convenience: runs `walker`-style block streams through a builder into a
/// [`LookupTrace`] of exactly `accesses` lookups.
pub fn collect_trace<I>(
    program: &Program,
    execs: I,
    line_bytes: u64,
    accesses: usize,
) -> LookupTrace
where
    I: IntoIterator<Item = BlockExec>,
{
    let mut builder = PwBuilder::new(line_bytes);
    let mut out = Vec::with_capacity(accesses + 8);
    for exec in execs {
        builder.push(program, &exec, &mut out);
        if out.len() >= accesses {
            break;
        }
    }
    if out.len() < accesses {
        builder.flush(&mut out);
    }
    out.truncate(accesses);
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walker::Walker;
    use crate::workload::{AppId, InputVariant};
    use uopcache_model::hash::{FastHashMap, FastHashSet};

    fn trace(app: AppId, n: usize) -> LookupTrace {
        let spec = app.spec();
        let program = Program::synthesize(&spec);
        let walker = Walker::new(&program, &spec, InputVariant(0));
        collect_trace(&program, walker, 64, n)
    }

    #[test]
    fn windows_fit_within_a_line_plus_overhang() {
        let t = trace(AppId::Kafka, 20_000);
        for a in t.iter() {
            // A PW never spans more than one full line plus the final
            // instruction's overhang (max x86 instruction is 15 bytes).
            assert!(a.pw.bytes <= 64 + 15, "{:?}", a.pw);
            assert!(a.pw.uops >= 1);
        }
    }

    #[test]
    fn overlapping_windows_exist() {
        let t = trace(AppId::Tomcat, 30_000);
        let mut lens: FastHashMap<u64, FastHashSet<u32>> = FastHashMap::default();
        for a in t.iter() {
            lens.entry(a.pw.start.get()).or_default().insert(a.pw.uops);
        }
        let overlapping = lens.values().filter(|s| s.len() > 1).count();
        assert!(
            overlapping * 10 > lens.len(),
            "expected >10% overlapping start addresses, got {overlapping}/{}",
            lens.len()
        );
    }

    #[test]
    fn variable_costs_exist() {
        let t = trace(AppId::Clang, 20_000);
        let mut sizes = FastHashSet::default();
        for a in t.iter() {
            sizes.insert(a.pw.entries(8));
        }
        assert!(
            sizes.len() >= 2,
            "PWs should span multiple entry sizes: {sizes:?}"
        );
    }

    #[test]
    fn both_termination_kinds_occur() {
        let t = trace(AppId::Drupal, 20_000);
        let taken = t
            .iter()
            .filter(|a| a.pw.term == PwTermination::TakenBranch)
            .count();
        let line = t
            .iter()
            .filter(|a| a.pw.term == PwTermination::LineBoundary)
            .count();
        assert!(taken > 0 && line > 0, "taken={taken} line={line}");
    }

    #[test]
    fn collect_trace_truncates_exactly() {
        let t = trace(AppId::Python, 1234);
        assert_eq!(t.len(), 1234);
    }

    #[test]
    fn mispredicted_flags_present_for_high_mpki_apps() {
        let t = trace(AppId::Wordpress, 50_000);
        let flagged = t.iter().filter(|a| a.mispredicted).count();
        assert!(flagged > 0);
    }

    #[test]
    fn windows_tile_fallthrough_runs_without_gaps() {
        // Within a fall-through run, each next window starts where the
        // previous ended.
        let spec = AppId::Mysql.spec();
        let program = Program::synthesize(&spec);
        let walker = Walker::new(&program, &spec, InputVariant(0));
        let t = collect_trace(&program, walker.take(2000), 64, 5000);
        for w in t.accesses().windows(2) {
            if w[0].pw.term == PwTermination::LineBoundary {
                assert_eq!(
                    w[0].pw.end(),
                    w[1].pw.start,
                    "line-boundary cut must fall through contiguously"
                );
            }
        }
    }
}
