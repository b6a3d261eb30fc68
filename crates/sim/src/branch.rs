//! The replacement-independent branch stream.
//!
//! Three parts of the frontend depend only on the access sequence and the
//! configuration, never on the micro-op cache or its replacement policy:
//! the BTB, the misprediction penalty and the backend's absorption of
//! micro-ops. [`BranchStream::build`] simulates them once over a sequence of
//! accesses, starting from a fresh state, and packs each access's outcome
//! into one byte. Every policy replayed over the same accesses can then
//! share one stream ([`Frontend::run_stream`]), and [`Frontend::run`] drives
//! the same kernel from a stream it fills from its own persistent state.
//!
//! [`Frontend::run`]: crate::Frontend::run
//! [`Frontend::run_stream`]: crate::Frontend::run_stream

use std::ops::Range;
use uopcache_cache::{LineCache, LineOutcome};
use uopcache_model::{Addr, BpuConfig, CacheStats, FrontendConfig, PwAccess};

/// Entry bit: the access missed in the BTB (a re-steer penalty).
const BTB_MISS: u8 = 1 << 7;
/// Entry bit: the BTB miss displaced a valid entry.
const BTB_EVICTION: u8 = 1 << 6;
/// Entry bit: the branch that produced the window was mispredicted (and the
/// predictor is not perfect).
const MISPREDICT: u8 = 1 << 5;
/// Entry field: the backend cycles of the access. The all-ones value, 31,
/// is an escape: the cycles did not fit and are the next value of the
/// stream's overflow list. Under the zen3 and zen4 presets an access never
/// needs more than `⌈uops / 3⌉` cycles, about 22 for the longest windows,
/// so the list stays empty; a smaller IPC ceiling only lengthens it.
const BACKEND: u8 = MISPREDICT - 1;
/// Re-steer penalty on a BTB miss for a taken branch.
const BTB_MISS_PENALTY: u64 = 2;

/// The parts of a [`FrontendConfig`] a branch stream depends on. A stream
/// only drives a frontend whose configuration agrees on all of them.
#[derive(Copy, Clone, PartialEq, Debug)]
struct BranchKey {
    bpu: BpuConfig,
    perfect_btb: bool,
    perfect_predictor: bool,
    /// The backend's IPC ceiling, as bits so that keys compare exactly.
    uop_ipc_ceiling: u64,
}

impl BranchKey {
    fn of(cfg: &FrontendConfig) -> Self {
        BranchKey {
            bpu: cfg.bpu,
            perfect_btb: cfg.perfect.btb,
            perfect_predictor: cfg.perfect.branch_predictor,
            uop_ipc_ceiling: cfg.backend.uop_ipc_ceiling.to_bits(),
        }
    }
}

/// The persistent state behind a branch stream: the BTB and the fractional
/// backend-absorption debt.
pub(crate) struct BranchState {
    key: BranchKey,
    btb: LineCache,
    /// Micro-ops the backend has not yet absorbed, in cycles. Never
    /// negative: it starts at zero, only grows by non-negative amounts and
    /// is reduced by its own integer part.
    debt: f64,
}

impl BranchState {
    /// A fresh state for `cfg`.
    pub(crate) fn new(cfg: &FrontendConfig) -> Self {
        BranchState {
            key: BranchKey::of(cfg),
            // BTB: tagged at 4-byte granularity.
            btb: LineCache::with_entries(cfg.bpu.btb_entries, cfg.bpu.btb_ways, 4),
            debt: 0.0,
        }
    }

    /// An empty stream this state can extend, with room for `capacity`
    /// entries.
    pub(crate) fn empty_stream(&self, capacity: usize) -> BranchStream {
        BranchStream {
            key: self.key,
            entries: Vec::with_capacity(capacity),
            overflow: Vec::new(),
        }
    }

    /// Simulates `accesses` from the current state and appends one entry
    /// per access to `stream`.
    pub(crate) fn extend(&mut self, stream: &mut BranchStream, accesses: &[PwAccess]) {
        debug_assert!(
            stream.key == self.key,
            "a stream extends from its own state"
        );
        for access in accesses {
            let pw = access.pw();
            let mut entry = 0;
            if !self.key.perfect_btb {
                if let LineOutcome::Miss { evicted } =
                    self.btb.access(Addr::new(pw.start.get()).line(4))
                {
                    entry |= BTB_MISS;
                    if evicted.is_some() {
                        entry |= BTB_EVICTION;
                    }
                }
            }
            if access.is_mispredicted() && !self.key.perfect_predictor {
                entry |= MISPREDICT;
            }
            // The backend absorbs micro-ops at its IPC ceiling; the frontend
            // only dents IPC when it under-supplies.
            self.debt += f64::from(pw.uops) / f64::from_bits(self.key.uop_ipc_ceiling);
            debug_assert!(self.debt >= 0.0, "the backend debt is never negative");
            // The debt is non-negative, so truncation is `floor` and the
            // cast is exact (a saturating cast also maps any negative or NaN
            // debt to 0, as `floor` followed by the same cast would).
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let cycles = self.debt as u64;
            self.debt -= cycles as f64;
            match u8::try_from(cycles) {
                Ok(c) if c < BACKEND => entry |= c,
                _ => {
                    entry |= BACKEND;
                    stream.overflow.push(cycles);
                }
            }
            stream.entries.push(entry);
        }
    }
}

/// The BTB, misprediction and backend outcome of every access of a
/// sequence, simulated once from a fresh state. Independent of the micro-op
/// cache and its policy, so one stream serves every policy replayed over
/// the same accesses under the same branch and backend configuration.
///
/// Each access packs into one byte: a BTB-miss bit, a BTB-eviction bit, a
/// misprediction bit and 5 bits of backend cycles.
///
/// # Examples
///
/// ```
/// use uopcache_cache::LruPolicy;
/// use uopcache_model::FrontendConfig;
/// use uopcache_sim::{BranchStream, Frontend};
/// use uopcache_trace::{build_trace, AppId, InputVariant};
///
/// let cfg = FrontendConfig::zen3();
/// let trace = build_trace(AppId::Kafka, InputVariant::default(), 2_000);
/// let stream = BranchStream::build(&cfg, &[trace.accesses()]);
/// let own = Frontend::builder(cfg).policy(LruPolicy::new()).build().run(&trace);
/// let shared = Frontend::builder(cfg)
///     .policy(LruPolicy::new())
///     .build()
///     .run_stream(trace.accesses(), stream.slice(0..trace.len()));
/// assert_eq!(own, shared);
/// ```
#[derive(Clone, Debug)]
pub struct BranchStream {
    key: BranchKey,
    entries: Vec<u8>,
    /// Backend cycles of the entries holding the escape value, in order.
    overflow: Vec<u64>,
}

impl BranchStream {
    /// Simulates the concatenation of `parts` from a fresh branch state.
    /// Pass a warmup range and the measured range after it as two parts to
    /// share them as one functionally-warmed interval.
    pub fn build(cfg: &FrontendConfig, parts: &[&[PwAccess]]) -> BranchStream {
        let mut state = BranchState::new(cfg);
        let mut stream = state.empty_stream(parts.iter().map(|p| p.len()).sum());
        for part in parts {
            state.extend(&mut stream, part);
        }
        stream
    }

    /// Number of accesses in the stream.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Empties the stream, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.overflow.clear();
    }

    /// The entries of the accesses in `range` (positions in the built
    /// sequence).
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> BranchSlice<'_> {
        let entries = &self.entries[range.clone()];
        let escapes = |e: &[u8]| e.iter().filter(|&&e| e & BACKEND == BACKEND).count();
        let overflow = if self.overflow.is_empty() {
            &[]
        } else {
            let first = escapes(&self.entries[..range.start]);
            &self.overflow[first..first + escapes(entries)]
        };
        BranchSlice {
            key: &self.key,
            start: range.start,
            entries,
            overflow,
        }
    }
}

/// A contiguous run of a [`BranchStream`], for one [`Frontend::run_stream`]
/// call.
///
/// [`Frontend::run_stream`]: crate::Frontend::run_stream
#[derive(Copy, Clone, Debug)]
pub struct BranchSlice<'a> {
    key: &'a BranchKey,
    /// Position of the first entry in the stream.
    pub(crate) start: usize,
    entries: &'a [u8],
    overflow: &'a [u64],
}

impl<'a> BranchSlice<'a> {
    /// Number of accesses in the slice.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the slice was built for `cfg`'s branch and backend
    /// configuration.
    pub(crate) fn built_for(&self, cfg: &FrontendConfig) -> bool {
        *self.key == BranchKey::of(cfg)
    }

    /// The packed entries with a cursor over the overflow list.
    pub(crate) fn outcomes(&self, mispredict_penalty: u64) -> Outcomes<'a> {
        Outcomes {
            entries: self.entries.iter(),
            overflow: self.overflow.iter(),
            mispredict_penalty,
        }
    }

    /// The BTB statistics and the misprediction count over the slice.
    pub(crate) fn tally(&self) -> (CacheStats, u64) {
        let count = |bit: u8| self.entries.iter().filter(|&&e| e & bit != 0).count() as u64;
        let misses = count(BTB_MISS);
        let accesses = if self.key.perfect_btb {
            0
        } else {
            self.entries.len() as u64
        };
        let btb = CacheStats {
            accesses,
            hits: accesses - misses,
            misses,
            evictions: count(BTB_EVICTION),
            fills: misses,
        };
        (btb, count(MISPREDICT))
    }
}

/// Yields each access's `(branch penalty cycles, backend cycles)`.
pub(crate) struct Outcomes<'a> {
    entries: std::slice::Iter<'a, u8>,
    overflow: std::slice::Iter<'a, u64>,
    mispredict_penalty: u64,
}

impl Iterator for Outcomes<'_> {
    type Item = (u64, u64);

    #[inline]
    fn next(&mut self) -> Option<(u64, u64)> {
        let e = *self.entries.next()?;
        let mut penalty = u64::from(e & BTB_MISS != 0) * BTB_MISS_PENALTY;
        if e & MISPREDICT != 0 {
            penalty += self.mispredict_penalty;
        }
        let backend = match e & BACKEND {
            BACKEND => *self
                .overflow
                .next()
                .expect("every escaped entry has an overflow value"),
            cycles => u64::from(cycles),
        };
        Some((penalty, backend))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Frontend;
    use uopcache_cache::LruPolicy;
    use uopcache_trace::{build_trace, AppId, InputVariant};

    fn frontend(cfg: FrontendConfig) -> Frontend {
        Frontend::builder(cfg).policy(LruPolicy::new()).build()
    }

    #[test]
    fn escaped_backend_cycles_survive_slicing() {
        // At 0.1 micro-ops per cycle most accesses need more than 30
        // backend cycles, so most entries escape to the overflow list.
        let mut cfg = FrontendConfig::zen3();
        cfg.backend.uop_ipc_ceiling = 0.1;
        let trace = build_trace(AppId::Kafka, InputVariant(0), 3_000);
        let stream = BranchStream::build(&cfg, &[trace.accesses()]);
        assert!(stream.overflow.len() > trace.len() / 2);
        for split in [0, 1, 1_234, 2_999] {
            let mut own = frontend(cfg);
            let mut fed = frontend(cfg);
            for range in [0..split, split..trace.len()] {
                assert_eq!(
                    own.run(&trace.slice(range.clone())),
                    fed.run_stream(&trace.accesses()[range.clone()], stream.slice(range)),
                    "split {split}"
                );
            }
        }
    }

    #[test]
    fn tally_counts_the_btb_and_mispredictions_of_the_slice() {
        let cfg = FrontendConfig::zen3();
        let trace = build_trace(AppId::Clang, InputVariant(0), 20_000);
        let stream = BranchStream::build(&cfg, &[trace.accesses()]);
        let mut btb = LineCache::with_entries(cfg.bpu.btb_entries, cfg.bpu.btb_ways, 4);
        for access in &trace.accesses()[..5_000] {
            btb.access(Addr::new(access.pw().start.get()).line(4));
        }
        let before = *btb.stats();
        for access in &trace.accesses()[5_000..] {
            btb.access(Addr::new(access.pw().start.get()).line(4));
        }
        let (tally, mispredictions) = stream.slice(5_000..trace.len()).tally();
        let after = *btb.stats();
        assert_eq!(tally.accesses, after.accesses - before.accesses);
        assert_eq!(tally.misses, after.misses - before.misses);
        assert_eq!(tally.evictions, after.evictions - before.evictions);
        assert!(tally.evictions > 0);
        let mispredicted = trace.accesses()[5_000..]
            .iter()
            .filter(|a| a.is_mispredicted())
            .count();
        assert_eq!(mispredictions, mispredicted as u64);
    }

    #[test]
    #[should_panic(expected = "another branch or backend configuration")]
    fn a_stream_refuses_a_frontend_of_another_configuration() {
        let trace = build_trace(AppId::Kafka, InputVariant(0), 100);
        let stream = BranchStream::build(&FrontendConfig::zen3(), &[trace.accesses()]);
        let mut cfg = FrontendConfig::zen3();
        cfg.perfect.btb = true;
        frontend(cfg).run_stream(trace.accesses(), stream.slice(0..100));
    }

    #[test]
    #[should_panic(expected = "in order from its start")]
    fn a_stream_is_fed_from_its_start() {
        let trace = build_trace(AppId::Kafka, InputVariant(0), 100);
        let stream = BranchStream::build(&FrontendConfig::zen3(), &[trace.accesses()]);
        frontend(FrontendConfig::zen3()).run_stream(&trace.accesses()[1..], stream.slice(1..100));
    }
}
