//! The dynamic walk: executes the static program with phase behaviour,
//! Zipfian region popularity and stochastic branch outcomes.

use crate::program::{BbTarget, BranchKind, Program};
use crate::workload::{InputVariant, WorkloadSpec};
use crate::zipf::Zipf;
use uopcache_model::rng::{Prng, Rng};

/// One executed basic block with its branch outcome.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct BlockExec {
    /// Region index in the program.
    pub region: u32,
    /// Block index within the region.
    pub bb: u32,
    /// Whether the terminal branch was taken.
    pub taken: bool,
    /// Whether the branch predictor would have mispredicted this branch.
    pub mispredicted: bool,
}

/// Regions per call chain.
const CHAIN_LEN: usize = 4;
/// Ranking stride between consecutive chains (< CHAIN_LEN, so chains overlap
/// and the same region is reachable through differently-ranked chains).
const CHAIN_STRIDE: usize = 2;

/// An infinite iterator over executed basic blocks.
///
/// Popularity structure:
/// * A **base ranking** of regions derived from the application seed only, so
///   all input variants agree on what is globally hot (the property the
///   cross-validation study relies on).
/// * A per-variant **perturbation** swapping a fraction of ranks.
/// * Per-phase **local boosts**: a slice of globally-cold regions becomes hot
///   within a single phase — the "locally hot, globally cold" PWs that trip
///   purely profile-based policies.
/// * **Call chains**: execution proceeds in short chains of regions
///   (overlapping windows over the popularity ranking), mirroring the call
///   sequences of real server software. Chains give control flow the history
///   correlation that history-based predictors such as GHRP exploit: the
///   same region reached through a hotter chain is reused sooner than
///   through a colder one.
///
/// # Examples
///
/// ```
/// use uopcache_trace::{AppId, InputVariant, Program, Walker};
///
/// let spec = AppId::Kafka.spec();
/// let program = Program::synthesize(&spec);
/// let mut walker = Walker::new(&program, &spec, InputVariant::default());
/// let exec = walker.next().unwrap();
/// assert!((exec.region as usize) < program.regions.len());
/// ```
pub struct Walker<'a> {
    program: &'a Program,
    rng: Prng,
    zipf: Zipf,
    /// Per-phase rank → region index.
    phase_ranking: Vec<Vec<u32>>,
    phase: usize,
    phase_remaining: u32,
    phase_len: u32,
    mispredict_prob: f64,
    /// Current region execution; `None` means advance the chain.
    cursor: Option<(usize, usize)>,
    /// Remaining regions of the active call chain (chain rank, next offset).
    chain: Option<(usize, usize)>,
}

impl<'a> Walker<'a> {
    /// Creates a walker over `program` for the given input variant.
    ///
    /// # Panics
    ///
    /// Panics if the program has no regions.
    pub fn new(program: &'a Program, spec: &WorkloadSpec, variant: InputVariant) -> Self {
        Walker::with_epoch(program, spec, variant, 0)
    }

    /// As [`Walker::new`], but for execution epoch `epoch` of a long-running
    /// process: the walk RNG stream is re-keyed per epoch and the phase clock
    /// starts rotated by `epoch`, so consecutive epochs of the same program
    /// repeat its phase structure without replaying an identical access
    /// stream. Epoch 0 is byte-identical to [`Walker::new`].
    ///
    /// # Panics
    ///
    /// Panics if the program has no regions.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "region counts fit in u32, float-to-int casts saturate, and the phase index is below `phases`"
    )]
    pub fn with_epoch(
        program: &'a Program,
        spec: &WorkloadSpec,
        variant: InputVariant,
        epoch: u64,
    ) -> Self {
        assert!(!program.regions.is_empty(), "program must have regions");
        let n = program.regions.len();
        // Base ranking: deterministic per application (shared by all variants
        // and epochs — what is globally hot stays hot across epochs).
        let mut base_rng = Prng::seed_from_u64(spec.program_seed() ^ 0x9e37_79b9);
        let mut base: Vec<u32> = (0..n as u32).collect();
        shuffle(&mut base, &mut base_rng);

        // Epoch 0 multiplies by zero, keeping the original walk seed.
        let epoch_mix = epoch.wrapping_mul(0xd1b5_4a32_d192_ed03);
        let mut rng = Prng::seed_from_u64(spec.walk_seed(variant) ^ epoch_mix);
        // Variant perturbation: swap ~4% of adjacent-ish ranks.
        let swaps = n / 24;
        for _ in 0..swaps {
            let i = rng.gen_range(0..n);
            let j = (i + rng.gen_range(1..8usize)).min(n - 1);
            base.swap(i, j);
        }

        // Per-phase rankings with local boosts from the cold half.
        let local = ((n as f64 * spec.phase_local_fraction) as usize).max(1);
        let mut phase_ranking = Vec::with_capacity(spec.phases as usize);
        for p in 0..spec.phases as usize {
            let mut ranking = base.clone();
            // Choose this phase's locally-hot set deterministically from the
            // cold half (application-level, not variant-level, so profiles
            // see consistent phase structure).
            let cold_start = n / 2;
            for k in 0..local {
                let cold_idx = cold_start + (p * local * 7 + k * 13) % (n - cold_start);
                // Promote to a top rank (interleaved below the very hottest).
                let hot_slot = 3 + k * 5;
                if hot_slot < ranking.len() {
                    ranking.swap(hot_slot, cold_idx);
                }
            }
            phase_ranking.push(ranking);
        }

        let chains = if n > CHAIN_LEN {
            (n - CHAIN_LEN) / CHAIN_STRIDE + 1
        } else {
            1
        };
        Walker {
            program,
            rng,
            zipf: Zipf::new(chains, spec.zipf_alpha),
            phase: (epoch % u64::from(spec.phases.max(1))) as usize % phase_ranking.len().max(1),
            phase_ranking,
            phase_remaining: spec.phase_len,
            phase_len: spec.phase_len,
            mispredict_prob: spec.mispredict_prob(),
            cursor: None,
            chain: None,
        }
    }

    /// Advances to the next region: either the next member of the active
    /// call chain, or the head of a freshly sampled chain.
    fn pick_region(&mut self) -> usize {
        let ranking = &self.phase_ranking[self.phase];
        let n = ranking.len();
        let (chain_rank, offset) = match self.chain {
            Some((c, o)) if o < CHAIN_LEN => (c, o),
            _ => (self.zipf.sample(&mut self.rng), 0),
        };
        self.chain = Some((chain_rank, offset + 1));
        let pos = (chain_rank * CHAIN_STRIDE + offset).min(n - 1);
        ranking[pos] as usize
    }

    fn advance_phase_clock(&mut self) {
        self.phase_remaining = self.phase_remaining.saturating_sub(1);
        if self.phase_remaining == 0 {
            self.phase = (self.phase + 1) % self.phase_ranking.len();
            self.phase_remaining = self.phase_len;
        }
    }

    /// The current phase index (for tests and diagnostics).
    pub fn phase(&self) -> usize {
        self.phase
    }
}

impl Iterator for Walker<'_> {
    type Item = BlockExec;

    #[expect(
        clippy::cast_possible_truncation,
        reason = "region and block indices fit in u32 by construction"
    )]
    fn next(&mut self) -> Option<BlockExec> {
        let (region_idx, bb_idx) = match self.cursor.take() {
            Some(c) => c,
            None => (self.pick_region(), 0),
        };
        let region = &self.program.regions[region_idx];
        let bb = &region.bbs[bb_idx];
        let taken = match bb.branch {
            BranchKind::Unconditional => true,
            BranchKind::Conditional => self.rng.gen_bool(bb.taken_prob),
        };
        let mispredicted =
            matches!(bb.branch, BranchKind::Conditional) && self.rng.gen_bool(self.mispredict_prob);

        // Compute the next block.
        let next = if taken {
            match bb.target {
                BbTarget::Skip(k) => {
                    let t = bb_idx + usize::from(k);
                    (t < region.bbs.len()).then_some((region_idx, t))
                }
                BbTarget::LoopBack => Some((region_idx, 0)),
                BbTarget::Exit => None,
            }
        } else {
            let t = bb_idx + 1;
            (t < region.bbs.len()).then_some((region_idx, t))
        };
        // Leaving a region is always a control transfer (a return), even
        // when the simulated branch fell through past the last block — the
        // next fetch address is discontinuous either way.
        let taken = taken || next.is_none();
        self.cursor = next;
        self.advance_phase_clock();
        Some(BlockExec {
            region: region_idx as u32,
            bb: bb_idx as u32,
            taken,
            mispredicted,
        })
    }
}

/// Fisher-Yates shuffle.
fn shuffle(v: &mut [u32], rng: &mut Prng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::AppId;
    use uopcache_model::hash::{FastHashMap, FastHashSet};

    fn walk(app: AppId, variant: u32, n: usize) -> Vec<BlockExec> {
        let spec = app.spec();
        let program = Program::synthesize(&spec);
        Walker::new(&program, &spec, InputVariant(variant))
            .take(n)
            .collect()
    }

    #[test]
    fn deterministic_per_variant() {
        assert_eq!(walk(AppId::Kafka, 0, 500), walk(AppId::Kafka, 0, 500));
        assert_ne!(walk(AppId::Kafka, 0, 500), walk(AppId::Kafka, 1, 500));
    }

    #[test]
    fn popularity_is_skewed() {
        let execs = walk(AppId::Python, 0, 50_000);
        let mut counts: FastHashMap<u32, u64> = FastHashMap::default();
        for e in &execs {
            *counts.entry(e.region).or_insert(0) += 1;
        }
        let mut freq: Vec<u64> = counts.values().copied().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        // Top 10% of regions account for most executions.
        let top: u64 = freq.iter().take(freq.len() / 10 + 1).sum();
        let total: u64 = freq.iter().sum();
        assert!(top * 2 > total, "top decile {top} of {total}");
    }

    #[test]
    fn control_flow_stays_within_regions() {
        let spec = AppId::Mysql.spec();
        let program = Program::synthesize(&spec);
        for e in Walker::new(&program, &spec, InputVariant(0)).take(10_000) {
            let r = &program.regions[e.region as usize];
            assert!((e.bb as usize) < r.bbs.len());
        }
    }

    #[test]
    fn mispredictions_track_mpki_order() {
        let low = walk(AppId::Postgres, 0, 50_000); // MPKI 0.41
        let high = walk(AppId::Wordpress, 0, 50_000); // MPKI 5.64
        let rate =
            |v: &[BlockExec]| v.iter().filter(|e| e.mispredicted).count() as f64 / v.len() as f64;
        assert!(rate(&high) > rate(&low));
    }

    #[test]
    fn variants_agree_on_hot_regions() {
        // The hottest regions of two variants overlap substantially — the
        // property Fig. 18's cross-validation depends on.
        let top_regions = |variant| {
            let execs = walk(AppId::Clang, variant, 40_000);
            let mut counts: FastHashMap<u32, u64> = FastHashMap::default();
            for e in &execs {
                *counts.entry(e.region).or_insert(0) += 1;
            }
            let mut v: Vec<(u64, u32)> = counts.into_iter().map(|(r, c)| (c, r)).collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v.into_iter()
                .take(50)
                .map(|(_, r)| r)
                .collect::<FastHashSet<_>>()
        };
        let a = top_regions(0);
        let b = top_regions(1);
        let overlap = a.intersection(&b).count();
        assert!(overlap >= 25, "only {overlap}/50 hot regions shared");
    }

    #[test]
    fn loops_revisit_block_zero() {
        let execs = walk(AppId::Postgres, 0, 5_000);
        // Some consecutive pair must loop back to bb 0 of the same region.
        let looped = execs
            .windows(2)
            .any(|w| w[0].region == w[1].region && w[1].bb == 0 && w[0].bb != 0);
        assert!(looped);
    }
}
