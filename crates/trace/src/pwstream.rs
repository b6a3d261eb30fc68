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
use uopcache_model::{Addr, PwAccess, PwDesc, PwTermination};

/// Incremental PW builder over one program.
///
/// Feed it executed blocks via [`PwBuilder::push`]; completed windows are
/// appended to the output. Call [`PwBuilder::flush`] at end of stream.
///
/// Where a window is cut is static. A window is cut after an instruction
/// exactly when the instruction ends in a different line than it starts,
/// because a window never spans a line before its cut: its start line is
/// always the line of its current instruction. So each block splits once
/// into *line-cut segments*, runs of instructions ending at such a cut or
/// at the block's end, and the builder pushes whole segments. The segments
/// are built lazily, on a block's first visit, into one flat table that
/// lives as long as the builder and serves every stream it builds.
///
/// # Examples
///
/// ```
/// use uopcache_trace::{AppId, InputVariant, Program, PwBuilder, Walker};
///
/// let spec = AppId::Kafka.spec();
/// let program = Program::synthesize(&spec);
/// let mut builder = PwBuilder::new(&program, 64);
/// let mut out = Vec::new();
/// for exec in Walker::new(&program, &spec, InputVariant::default()).take(100) {
///     builder.push(&exec, &mut out);
/// }
/// builder.flush(&mut out);
/// assert!(!out.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct PwBuilder<'p> {
    program: &'p Program,
    line_bytes: u64,
    segments: SegmentTable,
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

/// A run of a block's instructions that ends either with an instruction
/// crossing into the next line (`cut`) or with the block's last one.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Segment {
    start: u64,
    bytes: u32,
    uops: u32,
    cut: bool,
}

/// Every visited block's segments, flat, indexed by region base + block.
#[derive(Clone, Debug)]
struct SegmentTable {
    /// Flat index of each region's first block.
    region_base: Vec<usize>,
    /// Per block: its first segment in `segs` and its segment count. A
    /// count of 0 marks a block not visited yet (every block has at least
    /// one segment).
    spans: Vec<(u32, u32)>,
    segs: Vec<Segment>,
}

impl SegmentTable {
    fn new(program: &Program) -> Self {
        let mut region_base = Vec::with_capacity(program.regions.len());
        let mut blocks = 0;
        for region in &program.regions {
            region_base.push(blocks);
            blocks += region.bbs.len();
        }
        SegmentTable {
            region_base,
            spans: vec![(0, 0); blocks],
            segs: Vec::new(),
        }
    }

    /// The range in `segs` of `exec`'s block, building it on first visit.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a block has at most `insts` segments, and synthesized programs stay far below 2^32 segments"
    )]
    fn span(&mut self, program: &Program, line_bytes: u64, exec: &BlockExec) -> (usize, usize) {
        let slot = self.region_base[exec.region as usize] + exec.bb as usize;
        let (first, count) = self.spans[slot];
        if count > 0 {
            return (first as usize, count as usize);
        }
        let bb = &program.regions[exec.region as usize].bbs[exec.bb as usize];
        let first = self.segs.len();
        push_segments(bb, line_bytes, &mut self.segs);
        let count = self.segs.len() - first;
        self.spans[slot] = (first as u32, count as u32);
        (first, count)
    }
}

/// Appends `bb`'s line-cut segments to `segs`.
///
/// The block is approximated as `insts` equally-sized instructions, the
/// remainder bytes and micro-ops going one each to the first instructions,
/// and every instruction at least one byte long.
fn push_segments(bb: &Bb, line_bytes: u64, segs: &mut Vec<Segment>) {
    let insts = bb.insts.max(1);
    let (base_bytes, extra_bytes) = (bb.bytes / insts, bb.bytes % insts);
    let (base_uops, extra_uops) = (bb.uops / insts, bb.uops % insts);
    let line_mask = !(line_bytes - 1);
    let mut addr = bb.addr.get();
    let mut seg = Segment {
        start: addr,
        bytes: 0,
        uops: 0,
        cut: false,
    };
    for i in 0..insts {
        let ibytes = (base_bytes + u32::from(i < extra_bytes)).max(1);
        seg.bytes += ibytes;
        seg.uops += base_uops + u32::from(i < extra_uops);
        let end = addr + u64::from(ibytes);
        if (end ^ addr) & line_mask != 0 {
            seg.cut = true;
            segs.push(seg);
            seg = Segment {
                start: end,
                bytes: 0,
                uops: 0,
                cut: false,
            };
        }
        addr = end;
    }
    if seg.bytes > 0 {
        segs.push(seg);
    }
}

impl<'p> PwBuilder<'p> {
    /// Creates a builder over `program`, cutting windows at `line_bytes`
    /// boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn new(program: &'p Program, line_bytes: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        PwBuilder {
            program,
            line_bytes,
            segments: SegmentTable::new(program),
            accum: None,
            pending_mispredict: false,
        }
    }

    /// Processes one executed block, appending any completed windows to
    /// `out`.
    pub fn push(&mut self, exec: &BlockExec, out: &mut Vec<PwAccess>) {
        let (first, count) = self.segments.span(self.program, self.line_bytes, exec);
        // Discontinuity (we arrived via a taken branch elsewhere): close the
        // open window first.
        if let Some(acc) = self.accum {
            if acc.next_addr != self.segments.segs[first].start {
                self.finalize(PwTermination::TakenBranch, out);
            }
        }
        let before = out.len();
        for i in first..first + count {
            let seg = self.segments.segs[i];
            let acc = self.accum.get_or_insert_with(|| Accum {
                start: Addr::new(seg.start),
                next_addr: seg.start,
                bytes: 0,
                uops: 0,
                mispredicted: std::mem::take(&mut self.pending_mispredict),
            });
            acc.bytes += seg.bytes;
            acc.uops += seg.uops;
            acc.next_addr += u64::from(seg.bytes);
            // The PW terminates with the last instruction of a cache line.
            if seg.cut {
                self.finalize(PwTermination::LineBoundary, out);
            }
        }
        if exec.taken {
            if self.accum.is_some() {
                self.finalize(PwTermination::TakenBranch, out);
            } else if out.len() > before {
                // The line-boundary cut coincided with the block's last
                // instruction; the branch is what really ended the window.
                if let Some(last) = out.last_mut() {
                    let pw = PwDesc {
                        term: PwTermination::TakenBranch,
                        ..last.pw()
                    };
                    *last = PwAccess::with_mispredict(pw, last.is_mispredicted());
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

    /// Runs a fresh block stream through the builder, appending exactly
    /// `accesses` windows to `out`: the stream is cut short once enough
    /// windows exist, and flushed if it ends early. Window state starts
    /// fresh for each stream; the segment table carries over, so the
    /// epochs of a scaled trace share it.
    pub fn collect<I>(&mut self, execs: I, accesses: usize, out: &mut Vec<PwAccess>)
    where
        I: IntoIterator<Item = BlockExec>,
    {
        self.accum = None;
        self.pending_mispredict = false;
        let target = out.len() + accesses;
        for exec in execs {
            self.push(&exec, out);
            if out.len() >= target {
                break;
            }
        }
        if out.len() < target {
            self.flush(out);
        }
        out.truncate(target);
    }

    fn finalize(&mut self, term: PwTermination, out: &mut Vec<PwAccess>) {
        if let Some(acc) = self.accum.take() {
            // Zero-uop fragments (e.g. a cut right at a block edge whose uops
            // all landed earlier) merge into nothing; skip them.
            if acc.uops > 0 {
                let pw = PwDesc::new(acc.start, acc.uops, acc.bytes.max(1), term);
                out.push(PwAccess::with_mispredict(pw, acc.mispredicted));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walker::Walker;
    use crate::workload::{AppId, InputVariant};
    use uopcache_model::hash::{FastHashMap, FastHashSet};
    use uopcache_model::LookupTrace;

    fn collect_trace<I>(program: &Program, execs: I, accesses: usize) -> LookupTrace
    where
        I: IntoIterator<Item = BlockExec>,
    {
        let mut out = Vec::new();
        PwBuilder::new(program, 64).collect(execs, accesses, &mut out);
        out.into_iter().collect()
    }

    fn trace(app: AppId, n: usize) -> LookupTrace {
        let spec = app.spec();
        let program = Program::synthesize(&spec);
        let walker = Walker::new(&program, &spec, InputVariant(0));
        collect_trace(&program, walker, n)
    }

    #[test]
    fn windows_fit_within_a_line_plus_overhang() {
        let t = trace(AppId::Kafka, 20_000);
        for a in t.iter() {
            // A PW never spans more than one full line plus the final
            // instruction's overhang (max x86 instruction is 15 bytes).
            assert!(a.pw().bytes <= 64 + 15, "{:?}", a.pw());
            assert!(a.pw().uops >= 1);
        }
    }

    #[test]
    fn overlapping_windows_exist() {
        let t = trace(AppId::Tomcat, 30_000);
        let mut lens: FastHashMap<u64, FastHashSet<u32>> = FastHashMap::default();
        for a in t.iter() {
            lens.entry(a.pw().start.get())
                .or_default()
                .insert(a.pw().uops);
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
            sizes.insert(a.pw().entries(8));
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
            .filter(|a| a.pw().term == PwTermination::TakenBranch)
            .count();
        let line = t
            .iter()
            .filter(|a| a.pw().term == PwTermination::LineBoundary)
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
        let flagged = t.iter().filter(|a| a.is_mispredicted()).count();
        assert!(flagged > 0);
    }

    #[test]
    fn windows_tile_fallthrough_runs_without_gaps() {
        // Within a fall-through run, each next window starts where the
        // previous ended.
        let spec = AppId::Mysql.spec();
        let program = Program::synthesize(&spec);
        let walker = Walker::new(&program, &spec, InputVariant(0));
        let t = collect_trace(&program, walker.take(2000), 5000);
        for w in t.accesses().windows(2) {
            if w[0].pw().term == PwTermination::LineBoundary {
                assert_eq!(
                    w[0].pw().end(),
                    w[1].pw().start,
                    "line-boundary cut must fall through contiguously"
                );
            }
        }
    }

    /// The per-instruction builder the segmented one replaced, kept as the
    /// differential reference: it walks every instruction of a block and
    /// checks the window's start line after each one.
    struct ReferenceBuilder {
        line_bytes: u64,
        accum: Option<Accum>,
        pending_mispredict: bool,
    }

    impl ReferenceBuilder {
        fn new(line_bytes: u64) -> Self {
            ReferenceBuilder {
                line_bytes,
                accum: None,
                pending_mispredict: false,
            }
        }

        fn push(&mut self, program: &Program, exec: &BlockExec, out: &mut Vec<PwAccess>) {
            let bb = &program.regions[exec.region as usize].bbs[exec.bb as usize];
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
                    if let Some(last) = out.last_mut() {
                        let pw = PwDesc {
                            term: PwTermination::TakenBranch,
                            ..last.pw()
                        };
                        *last = PwAccess::with_mispredict(pw, last.is_mispredicted());
                    }
                }
            }
            if exec.mispredicted {
                self.finalize(PwTermination::TakenBranch, out);
                self.pending_mispredict = true;
            }
        }

        fn append_block(&mut self, bb: &Bb, out: &mut Vec<PwAccess>) {
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
                let start_line = acc.start.line(self.line_bytes);
                let next_line = Addr::new(acc.next_addr).line(self.line_bytes);
                if next_line != start_line {
                    self.finalize(PwTermination::LineBoundary, out);
                }
            }
        }

        fn finalize(&mut self, term: PwTermination, out: &mut Vec<PwAccess>) {
            if let Some(acc) = self.accum.take() {
                if acc.uops > 0 {
                    let pw = PwDesc::new(acc.start, acc.uops, acc.bytes.max(1), term);
                    out.push(PwAccess::with_mispredict(pw, acc.mispredicted));
                }
            }
        }
    }

    /// Runs both builders over one block stream and asserts equal windows.
    fn assert_builders_agree(program: &Program, execs: &[BlockExec], line_bytes: u64) {
        let mut segmented = PwBuilder::new(program, line_bytes);
        let mut reference = ReferenceBuilder::new(line_bytes);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for exec in execs {
            segmented.push(exec, &mut got);
            reference.push(program, exec, &mut want);
            assert_eq!(got, want, "line {line_bytes}, after {exec:?}");
        }
        segmented.flush(&mut got);
        reference.finalize(PwTermination::TakenBranch, &mut want);
        assert_eq!(got, want, "line {line_bytes}, at flush");
    }

    /// The instruction end addresses of `bb` under the builder's split.
    fn inst_ends(bb: &Bb) -> Vec<(u64, u64, u32)> {
        let insts = bb.insts.max(1);
        let mut addr = bb.addr.get();
        (0..insts)
            .map(|i| {
                let ibytes = (bb.bytes / insts + u32::from(i < bb.bytes % insts)).max(1);
                let iuops = bb.uops / insts + u32::from(i < bb.uops % insts);
                let start = addr;
                addr += u64::from(ibytes);
                (start, addr, iuops)
            })
            .collect()
    }

    /// A seeded random program: regions of contiguous blocks at random
    /// (often line-aligned) bases, with instruction counts that do not
    /// divide the byte counts, blocks shorter than their instruction count,
    /// and micro-op counts from zero to twice the instruction count.
    fn random_program(rng: &mut uopcache_model::rng::Prng) -> Program {
        use crate::program::{BbTarget, BranchKind, Region};
        use uopcache_model::rng::Rng;
        let mut cursor = 0x1000u64;
        let regions = (0..rng.gen_range(1..6usize))
            .map(|_| {
                if rng.gen_bool(0.5) {
                    cursor = (cursor + 31) & !31;
                }
                cursor += rng.gen_range(0..40u64);
                let bbs = (0..rng.gen_range(1..8usize))
                    .map(|_| {
                        let insts = rng.gen_range(0..9u32);
                        let bytes = match rng.gen_range(0..4u32) {
                            0 => rng.gen_range(1..=insts.max(1)),
                            _ => rng.gen_range(1..70u32),
                        };
                        let uops = rng.gen_range(0..=2 * insts.max(1));
                        let bb = Bb {
                            addr: Addr::new(cursor),
                            bytes,
                            insts,
                            uops,
                            branch: BranchKind::Conditional,
                            taken_prob: 0.5,
                            target: BbTarget::Skip(1),
                        };
                        cursor += u64::from(bytes);
                        bb
                    })
                    .collect();
                Region { bbs }
            })
            .collect();
        Program { regions }
    }

    /// A seeded random block stream: mostly fall-through runs, with random
    /// taken and mispredicted branches and random jumps.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "region and block indices are tiny"
    )]
    fn random_execs(program: &Program, rng: &mut uopcache_model::rng::Prng) -> Vec<BlockExec> {
        use uopcache_model::rng::Rng;
        let mut execs = Vec::new();
        let (mut region, mut bb) = (0usize, 0usize);
        for _ in 0..400 {
            let taken = rng.gen_bool(0.3);
            execs.push(BlockExec {
                region: region as u32,
                bb: bb as u32,
                taken,
                mispredicted: rng.gen_bool(0.15),
            });
            if !taken && bb + 1 < program.regions[region].bbs.len() {
                bb += 1;
            } else {
                region = rng.gen_range(0..program.regions.len());
                bb = rng.gen_range(0..program.regions[region].bbs.len());
            }
        }
        execs
    }

    #[test]
    fn segmented_builder_matches_the_per_instruction_reference() {
        use uopcache_model::rng::Prng;
        let mut rng = Prng::seed_from_u64(0x5e9_2017);
        // Count the edge cases the streams exercise, so the test fails if
        // the generator stops producing one.
        let (mut zero_uop, mut uneven, mut on_boundary, mut cut_then_branch) = (0, 0, 0, 0);
        for round in 0..600 {
            let line_bytes = [32u64, 64, 128][round % 3];
            let program = random_program(&mut rng);
            let execs = random_execs(&program, &mut rng);
            for exec in &execs {
                let bb = &program.regions[exec.region as usize].bbs[exec.bb as usize];
                let ends = inst_ends(bb);
                zero_uop += usize::from(ends.iter().any(|&(_, _, u)| u == 0));
                uneven += usize::from(bb.insts > 0 && !bb.bytes.is_multiple_of(bb.insts));
                on_boundary +=
                    usize::from(ends.iter().any(|&(_, e, _)| e.is_multiple_of(line_bytes)));
                let &(start, end, _) = ends.last().expect("at least one instruction");
                let last_cut = (start ^ end) & !(line_bytes - 1) != 0;
                cut_then_branch += usize::from(last_cut && (exec.taken || exec.mispredicted));
            }
            assert_builders_agree(&program, &execs, line_bytes);
        }
        assert!(zero_uop > 0 && uneven > 0 && on_boundary > 0 && cut_then_branch > 0);
    }

    #[test]
    fn segmented_builder_matches_the_reference_on_walked_programs() {
        for app in [AppId::Kafka, AppId::Python, AppId::Wordpress] {
            for uops_per_inst in [0.4, 1.12, 1.9] {
                let mut spec = app.spec();
                spec.uops_per_inst = uops_per_inst;
                let program = Program::synthesize(&spec);
                let execs: Vec<_> = Walker::new(&program, &spec, InputVariant(3))
                    .take(3_000)
                    .collect();
                for line_bytes in [32, 64, 128] {
                    assert_builders_agree(&program, &execs, line_bytes);
                }
            }
        }
    }
}
