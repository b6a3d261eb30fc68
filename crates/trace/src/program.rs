//! Static program synthesis: regions of basic blocks with a fixed address
//! layout, shared by every input variant of an application.

use crate::workload::WorkloadSpec;
use uopcache_model::json::{FromJson, Json, JsonError, ToJson};
use uopcache_model::json_struct;
use uopcache_model::rng::{Prng, Rng};
use uopcache_model::Addr;

/// What kind of control-flow instruction terminates a basic block.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum BranchKind {
    /// Conditional branch: taken with the block's `taken_prob`.
    Conditional,
    /// Unconditional jump/call/return: always taken.
    Unconditional,
}

/// Where a taken branch goes.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum BbTarget {
    /// Skip forward `n` blocks within the region (an if/else shape).
    Skip(u8),
    /// Return to the region's first block (loop back-edge).
    LoopBack,
    /// Leave the region (return / tail call).
    Exit,
}

/// A basic block: straight-line instructions ending in a branch.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Bb {
    /// First instruction address.
    pub addr: Addr,
    /// Total bytes including the terminal branch.
    pub bytes: u32,
    /// x86 instructions in the block.
    pub insts: u32,
    /// Decoded micro-ops in the block.
    pub uops: u32,
    /// Terminal branch kind.
    pub branch: BranchKind,
    /// Probability the terminal branch is taken (1.0 for unconditional).
    pub taken_prob: f64,
    /// Taken-path target.
    pub target: BbTarget,
}

/// A code region: a function or loop nest of sequentially laid-out blocks.
#[derive(Clone, PartialEq, Debug)]
pub struct Region {
    /// The blocks, in address order. Control flow falls through to the next
    /// block when the terminal branch is not taken.
    pub bbs: Vec<Bb>,
}

impl Region {
    /// Address of the region entry point.
    #[cfg(test)]
    pub(crate) fn entry(&self) -> Addr {
        self.bbs[0].addr
    }

    /// Total bytes of the region.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> u32 {
        self.bbs.iter().map(|b| b.bytes).sum()
    }
}

/// A synthesized static program.
///
/// # Examples
///
/// ```
/// use uopcache_trace::{AppId, Program};
///
/// let spec = AppId::Postgres.spec();
/// let program = Program::synthesize(&spec);
/// assert_eq!(program.regions.len() as u32, spec.regions);
/// // Synthesis is deterministic.
/// assert_eq!(program, Program::synthesize(&spec));
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Program {
    /// All code regions, in layout order.
    pub regions: Vec<Region>,
}

impl Program {
    /// Synthesizes the static program for a workload. Deterministic in the
    /// spec's application (see `WorkloadSpec::program_seed`).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "instruction and uop counts are clamped far below u32::MAX"
    )]
    pub fn synthesize(spec: &WorkloadSpec) -> Self {
        let mut rng = Prng::seed_from_u64(spec.program_seed());
        let mut regions = Vec::with_capacity(spec.regions as usize);
        // Code starts at a typical text-segment base.
        let mut cursor: u64 = 0x0040_0000;
        for _ in 0..spec.regions {
            let bb_count = sample_count(&mut rng, spec.bbs_per_region, 2, 40);
            let mut bbs = Vec::with_capacity(bb_count);
            for i in 0..bb_count {
                let insts = sample_count(&mut rng, spec.insts_per_bb, 1, 24) as u32;
                // x86 instructions average ~3.7 bytes with high variance.
                let bytes: u32 = (0..insts)
                    .map(|_| match rng.gen_range(0..10) {
                        0 => 1u32,
                        1..=2 => 2,
                        3..=5 => 3,
                        6..=7 => 5,
                        8 => 7,
                        _ => 10,
                    })
                    .sum::<u32>()
                    .max(1);
                let uops =
                    ((insts as f64 * spec.uops_per_inst).round() as u32).clamp(1, insts * 2 + 2);
                let last = i + 1 == bb_count;
                let (branch, taken_prob, target) = if last {
                    // Loop back-edge: taken with probability q so the region
                    // iterates loop_mean times on average, else exits.
                    let q = 1.0 - 1.0 / spec.loop_mean.max(1.0);
                    (BranchKind::Conditional, q, BbTarget::LoopBack)
                } else if rng.gen_bool(0.15) {
                    // Occasional unconditional early exit (call/return).
                    (BranchKind::Unconditional, 1.0, BbTarget::Exit)
                } else {
                    // Conditional forward branch skipping 1-3 blocks, or the
                    // common fall-through-biased if.
                    let skip = rng.gen_range(1..=3u8);
                    let jitter: f64 = rng.gen_range(-0.25..0.25);
                    let p = (spec.taken_bias + jitter).clamp(0.02, 0.9);
                    (BranchKind::Conditional, p, BbTarget::Skip(skip))
                };
                bbs.push(Bb {
                    addr: Addr::new(cursor),
                    bytes,
                    insts,
                    uops,
                    branch,
                    taken_prob,
                    target,
                });
                cursor += u64::from(bytes);
            }
            regions.push(Region { bbs });
            // Functions are padded/aligned; leave a gap of 0-3 lines.
            cursor = (cursor + 63) & !63;
            cursor += 64 * rng.gen_range(0..4u64);
        }
        Program { regions }
    }

    /// Total static micro-ops in the program.
    #[cfg(test)]
    pub(crate) fn total_uops(&self) -> u64 {
        self.regions
            .iter()
            .flat_map(|r| &r.bbs)
            .map(|b| u64::from(b.uops))
            .sum()
    }
}

/// Samples a count around `mean` (geometric-ish), clamped to `[lo, hi]`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the float-to-int cast saturates, and the result is clamped"
)]
fn sample_count(rng: &mut Prng, mean: f64, lo: usize, hi: usize) -> usize {
    // Exponential around the mean gives a long tail like real code.
    let u: f64 = rng.gen_range(1e-9..1.0f64);
    let v = -mean * u.ln();
    (v.round() as usize).clamp(lo, hi)
}

impl ToJson for BranchKind {
    /// Serialises as `"conditional"` / `"unconditional"`.
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                BranchKind::Conditional => "conditional",
                BranchKind::Unconditional => "unconditional",
            }
            .to_string(),
        )
    }
}

impl FromJson for BranchKind {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.as_str() {
            Some("conditional") => Ok(BranchKind::Conditional),
            Some("unconditional") => Ok(BranchKind::Unconditional),
            _ => Err(JsonError(format!("expected branch kind string, got {j:?}"))),
        }
    }
}

impl ToJson for BbTarget {
    /// Serialises as `{"skip": n}`, `"loop-back"` or `"exit"`.
    fn to_json(&self) -> Json {
        match self {
            BbTarget::Skip(n) => Json::Obj(vec![("skip".to_string(), Json::U64(u64::from(*n)))]),
            BbTarget::LoopBack => Json::Str("loop-back".to_string()),
            BbTarget::Exit => Json::Str("exit".to_string()),
        }
    }
}

impl FromJson for BbTarget {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Str(s) if s == "loop-back" => Ok(BbTarget::LoopBack),
            Json::Str(s) if s == "exit" => Ok(BbTarget::Exit),
            Json::Obj(_) => u8::from_json(j.field("skip")?).map(BbTarget::Skip),
            other => Err(JsonError(format!("expected BB target, got {other:?}"))),
        }
    }
}

json_struct!(Bb {
    addr,
    bytes,
    insts,
    uops,
    branch,
    taken_prob,
    target
});
json_struct!(Region { bbs });
json_struct!(Program { regions });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::AppId;

    fn program(app: AppId) -> Program {
        Program::synthesize(&app.spec())
    }

    #[test]
    fn deterministic_per_app() {
        assert_eq!(program(AppId::Kafka), program(AppId::Kafka));
    }

    #[test]
    fn different_apps_differ() {
        assert_ne!(program(AppId::Kafka), program(AppId::Clang));
    }

    #[test]
    fn blocks_are_laid_out_in_order_without_overlap() {
        let p = program(AppId::Postgres);
        let mut prev_end = 0u64;
        for region in &p.regions {
            for bb in &region.bbs {
                assert!(bb.addr.get() >= prev_end, "blocks overlap");
                prev_end = bb.addr.get() + u64::from(bb.bytes);
            }
        }
    }

    #[test]
    fn last_block_loops_back() {
        let p = program(AppId::Mysql);
        for region in &p.regions {
            let last = region.bbs.last().unwrap();
            assert_eq!(last.target, BbTarget::LoopBack);
            assert!(last.taken_prob < 1.0);
        }
    }

    #[test]
    fn skip_targets_may_overshoot_but_counts_are_positive() {
        let p = program(AppId::Tomcat);
        for region in &p.regions {
            for bb in &region.bbs {
                assert!(bb.uops >= 1);
                assert!(bb.insts >= 1);
                assert!(bb.bytes >= 1);
                assert!((0.0..=1.0).contains(&bb.taken_prob));
            }
        }
    }

    #[test]
    fn footprint_exceeds_uop_cache_capacity() {
        for app in AppId::ALL {
            let p = program(app);
            // 512 entries * 8 uops = 4096 uops capacity; footprints must be
            // several times larger to reproduce the paper's capacity pressure.
            assert!(p.total_uops() > 4 * 4096, "{app}: {}", p.total_uops());
        }
    }

    #[test]
    fn entry_points_are_region_starts() {
        let p = program(AppId::Drupal);
        for r in &p.regions {
            assert_eq!(r.entry(), r.bbs[0].addr);
            assert_eq!(r.bytes(), r.bbs.iter().map(|b| b.bytes).sum::<u32>());
        }
    }
}
