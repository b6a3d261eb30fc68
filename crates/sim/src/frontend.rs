//! The frontend simulation loop.

use crate::branch::{BranchSlice, BranchState, BranchStream};
use std::collections::VecDeque;
use uopcache_cache::{LineCache, LineOutcome, LookupResult, PwReplacementPolicy, UopCache};
use uopcache_model::{
    CacheStats, FrontendConfig, LookupTrace, PwAccess, PwDesc, SimResult, UopCacheStats,
};
#[cfg(feature = "obs")]
use uopcache_obs::Recorder;

/// Exposed L2 latency charged on an L1i miss. Table I's L2 is 16 cycles, but
/// decoupled frontends hide roughly half of it with fetch-ahead (the paper
/// leaves FDIP unmodelled, §VII); we charge the exposed portion.
const L2_LATENCY: u64 = 8;
/// Micro-ops the micro-op cache path can deliver per cycle (8 per entry, one
/// entry per cycle — the paper notes only one PW is released per cycle).
const UOPC_DELIVERY_PER_CYCLE: u64 = 8;
/// Assumed micro-ops per x86 instruction for instruction-count reporting.
const UOPS_PER_INST: f64 = 1.12;
/// Initial capacity of the asynchronous-insertion queue. In-flight
/// insertions are bounded by the insertion latency (a few tens of cycles)
/// times one insertion per access, so this comfortably covers steady state;
/// pathological bursts merely grow the queue once.
const INSERT_QUEUE_CAPACITY: usize = 256;
/// Accesses per chunk of [`Frontend::run`]: the frontend's own branch
/// stream buffer holds one chunk, so its size does not grow with the trace.
const STREAM_CHUNK: usize = 4_096;

/// Non-architectural simulation switches.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub struct SimOptions {
    /// Classify micro-op cache misses into cold/capacity/conflict
    /// (adds a fully-associative shadow; slows simulation slightly).
    pub classify_misses: bool,
}

/// Configures and constructs a [`Frontend`].
///
/// Obtained from [`Frontend::builder`]; every knob is optional except the
/// configuration:
///
/// ```
/// use uopcache_cache::LruPolicy;
/// use uopcache_model::FrontendConfig;
/// use uopcache_sim::Frontend;
///
/// let fe = Frontend::builder(FrontendConfig::zen3())
///     .policy(LruPolicy::new())
///     .classify_misses(true)
///     .build();
/// assert_eq!(fe.uop_cache().policy_name(), "LRU");
/// ```
pub struct FrontendBuilder {
    cfg: FrontendConfig,
    policy: Option<Box<dyn PwReplacementPolicy>>,
    opts: SimOptions,
    #[cfg(feature = "obs")]
    recorder: Option<Box<dyn Recorder>>,
}

impl FrontendBuilder {
    fn new(cfg: FrontendConfig) -> Self {
        FrontendBuilder {
            cfg,
            policy: None,
            opts: SimOptions::default(),
            #[cfg(feature = "obs")]
            recorder: None,
        }
    }

    /// Sets the micro-op cache replacement policy (default: LRU). Accepts
    /// both unboxed policies and `Box<dyn PwReplacementPolicy>`; a box is
    /// kept as it is (see [`PwReplacementPolicy::into_boxed`]).
    #[must_use]
    pub fn policy(mut self, policy: impl PwReplacementPolicy + 'static) -> Self {
        self.policy = Some(policy.into_boxed());
        self
    }

    /// Replaces the whole option block.
    #[must_use]
    pub fn options(mut self, opts: SimOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Toggles cold/capacity/conflict miss classification.
    #[must_use]
    pub fn classify_misses(mut self, classify: bool) -> Self {
        self.opts.classify_misses = classify;
        self
    }

    /// Installs an event sink on the micro-op cache; the run loop stamps
    /// each event with the frontend cycle it occurred on.
    #[cfg(feature = "obs")]
    #[must_use]
    pub fn recorder(mut self, recorder: impl Recorder + 'static) -> Self {
        self.recorder = Some(Box::new(recorder));
        self
    }

    /// Constructs the frontend.
    ///
    /// # Panics
    ///
    /// Panics if the cache geometries are inconsistent.
    pub fn build(self) -> Frontend {
        let cfg = self.cfg;
        let policy = self
            .policy
            .unwrap_or_else(|| Box::new(uopcache_cache::LruPolicy::new()));
        let mut uopc =
            UopCache::with_line_bytes(cfg.uop_cache, policy, u64::from(cfg.icache.line_bytes));
        if self.opts.classify_misses {
            uopc.enable_classification();
        }
        #[cfg(feature = "obs")]
        if let Some(recorder) = self.recorder {
            uopc.set_recorder(recorder);
        }
        let l1i = LineCache::new(
            cfg.icache.size_bytes,
            cfg.icache.ways,
            cfg.icache.line_bytes,
        );
        Frontend {
            cfg,
            uopc,
            l1i,
            own_branch: None,
            driven: 0,
            insert_queue: VecDeque::with_capacity(INSERT_QUEUE_CAPACITY),
            uopc_mode: false,
            cycle: 0,
        }
    }
}

impl std::fmt::Debug for FrontendBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontendBuilder")
            .field("cfg", &self.cfg)
            .field("policy", &self.policy.as_ref().map(|p| p.name()))
            .field("opts", &self.opts)
            .finish()
    }
}

/// The trace-driven frontend simulator.
///
/// Construct via [`Frontend::builder`], then [`run`] a lookup trace. The
/// simulator may be run repeatedly; statistics accumulate on the underlying
/// structures while [`run`] returns per-run deltas.
///
/// [`run`]: Frontend::run
pub struct Frontend {
    cfg: FrontendConfig,
    uopc: UopCache,
    l1i: LineCache,
    /// The BTB and backend state [`Frontend::run`] continues from, with
    /// the reusable buffer for one chunk of its branch stream. Built on the
    /// first `run`, so a frontend fed a shared stream never allocates a BTB.
    own_branch: Option<(BranchState, BranchStream)>,
    /// Accesses driven through the kernel so far.
    driven: usize,
    /// Pending asynchronous insertions: (ready_cycle, window). Drained in
    /// place, so the per-access drain never allocates (the queue is
    /// preallocated and only ever refilled).
    insert_queue: VecDeque<(u64, PwDesc)>,
    /// Whether the previous window was served by the micro-op cache.
    uopc_mode: bool,
    /// Frontend cycle counter.
    cycle: u64,
}

impl Frontend {
    /// Starts building a frontend for the given configuration.
    pub fn builder(cfg: FrontendConfig) -> FrontendBuilder {
        FrontendBuilder::new(cfg)
    }

    /// The configuration in use.
    pub fn config(&self) -> &FrontendConfig {
        &self.cfg
    }

    /// The micro-op cache (for inspection in tests and experiments).
    pub fn uop_cache(&self) -> &UopCache {
        &self.uopc
    }

    /// The event sink installed via [`FrontendBuilder::recorder`], if any.
    #[cfg(feature = "obs")]
    pub fn recorder(&self) -> Option<&dyn Recorder> {
        self.uopc.recorder()
    }

    /// Removes and returns the installed event sink (to read out events and
    /// metrics after a run).
    #[cfg(feature = "obs")]
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.uopc.take_recorder()
    }

    /// Drives the lookup trace through the frontend and returns the
    /// statistics of this run.
    ///
    /// The branch side continues from this frontend's own BTB and backend
    /// state: the trace is cut into chunks, and each chunk's branch stream
    /// is filled into a buffer the frontend reuses before the kernel runs
    /// over it.
    pub fn run(&mut self, trace: &LookupTrace) -> SimResult {
        assert!(
            self.own_branch.is_some() || self.driven == 0,
            "a frontend driven by a shared branch stream has no branch state of its own"
        );
        let before = self.snapshot();
        let mut result = SimResult::default();
        let cfg = self.cfg;
        let (mut state, mut stream) = self.own_branch.take().unwrap_or_else(|| {
            let state = BranchState::new(&cfg);
            let stream = state.empty_stream(STREAM_CHUNK);
            (state, stream)
        });
        for chunk in trace.accesses().chunks(STREAM_CHUNK) {
            stream.clear();
            state.extend(&mut stream, chunk);
            self.kernel(chunk, stream.slice(0..chunk.len()), &mut result);
        }
        self.own_branch = Some((state, stream));
        self.finish(before, result)
    }

    /// Drives `accesses` through the frontend with their branch side read
    /// from a shared [`BranchStream`] instead of simulated, and returns the
    /// statistics of this run, equal to what [`run`] returns for the same
    /// accesses.
    ///
    /// A frontend fed this way starts fresh and takes consecutive slices of
    /// one stream from its start, one per call, each over the accesses the
    /// stream was built from at those positions (for a warmed interval: the
    /// warmup slice, then the measured one).
    ///
    /// # Panics
    ///
    /// Panics if the slice does not continue where the previous call ended,
    /// was built for another branch or backend configuration, differs in
    /// length from `accesses`, or this frontend already ran on its own
    /// branch state.
    ///
    /// [`run`]: Frontend::run
    pub fn run_stream(&mut self, accesses: &[PwAccess], branch: BranchSlice<'_>) -> SimResult {
        assert_eq!(accesses.len(), branch.len(), "one stream entry per access");
        assert!(
            branch.built_for(&self.cfg),
            "the stream was built for another branch or backend configuration"
        );
        assert!(
            branch.start == self.driven && self.own_branch.is_none(),
            "a shared stream is fed in order from its start to a fresh frontend"
        );
        let before = self.snapshot();
        let mut result = SimResult::default();
        self.kernel(accesses, branch, &mut result);
        self.finish(before, result)
    }

    /// The counters a run reports as deltas.
    fn snapshot(&self) -> (UopCacheStats, CacheStats, u64) {
        (*self.uopc.stats(), *self.l1i.stats(), self.cycle)
    }

    /// The frontend kernel: drives `accesses` through the micro-op cache,
    /// L1i and decoder, taking each access's branch penalty and backend
    /// cycles from `branch`, and accumulates the run's counters.
    fn kernel(&mut self, accesses: &[PwAccess], branch: BranchSlice<'_>, result: &mut SimResult) {
        let n = accesses.len() as u64;
        result.events.bp_accesses += n;
        result.events.btb_accesses += n;
        result.events.uopc_lookups += n;
        let (btb, mispredictions) = branch.tally();
        result.btb += btb;
        result.mispredictions += mispredictions;
        let outcomes = branch.outcomes(u64::from(self.cfg.bpu.mispredict_penalty));
        for (access, (penalty, backend_cycles)) in accesses.iter().zip(outcomes) {
            let pw = access.pw();
            // Branch prediction for the branch that produced this window.
            let mut add = penalty;

            // Stamp this access's events with the frontend cycle.
            #[cfg(feature = "obs")]
            self.uopc.set_cycle(self.cycle);

            // Retire pending asynchronous insertions that are now ready.
            self.drain_insertions();

            // Micro-op cache lookup.
            let lookup = if self.cfg.perfect.uop_cache {
                LookupResult::Hit { uops: pw.uops }
            } else {
                self.uopc.lookup(&pw)
            };
            // Divisions in u32, where they are cheaper; the counts fit.
            let (hit, miss) = (lookup.hit_uops(), lookup.miss_uops(pw.uops));
            let (hit_uops, miss_uops) = (u64::from(hit), u64::from(miss));
            result.events.uopc_entry_reads +=
                u64::from(hit.div_ceil(self.cfg.uop_cache.uops_per_entry));

            if miss_uops == 0 {
                // Served entirely by the micro-op cache.
                if !self.uopc_mode {
                    add += u64::from(self.cfg.uop_cache.switch_penalty);
                    self.uopc_mode = true;
                }
                add += hit_uops.div_ceil(UOPC_DELIVERY_PER_CYCLE).max(1);
                // Inclusion keeps the window's lines in L1i; their recency
                // tracks micro-op cache hits (no energy is spent — the L1i
                // array is clock-gated on this path).
                if !self.cfg.perfect.icache && self.cfg.uop_cache.inclusive_with_l1i {
                    let line_bytes = u64::from(self.cfg.icache.line_bytes);
                    for line in pw.lines(line_bytes) {
                        self.l1i.touch(line);
                    }
                }
            } else {
                // Deliver any partial-hit prefix from the micro-op cache.
                if hit_uops > 0 {
                    add += hit_uops.div_ceil(UOPC_DELIVERY_PER_CYCLE);
                }
                // Switch to the legacy path and refill the decode pipeline.
                if self.uopc_mode {
                    add += u64::from(self.cfg.uop_cache.switch_penalty);
                    self.uopc_mode = false;
                    add += u64::from(self.cfg.decoder.latency);
                }
                // Fetch the window's lines through L1i.
                let line_bytes = u64::from(self.cfg.icache.line_bytes);
                for line in pw.lines(line_bytes) {
                    result.events.icache_reads += 1;
                    if self.cfg.perfect.icache {
                        continue;
                    }
                    match self.l1i.access(line) {
                        LineOutcome::Hit => {}
                        LineOutcome::Miss { evicted } => {
                            add += L2_LATENCY;
                            result.events.icache_fills += 1;
                            if let Some(victim) = evicted {
                                if self.cfg.uop_cache.inclusive_with_l1i
                                    && !self.cfg.perfect.uop_cache
                                {
                                    self.uopc.invalidate_line(victim);
                                }
                            }
                        }
                    }
                }
                // Decode the missed micro-ops.
                let decode_cycles = u64::from(miss.div_ceil(self.cfg.decoder.width).max(1));
                add += decode_cycles;
                result.events.decoded_uops += miss_uops;
                result.events.decoder_active_cycles += decode_cycles;
                // Schedule the asynchronous insertion of the full window.
                if !self.cfg.perfect.uop_cache {
                    let ready = self.cycle + add + u64::from(self.cfg.decoder.latency);
                    self.insert_queue.push_back((ready, pw));
                }
            }

            // The backend absorbs micro-ops at its IPC ceiling; the frontend
            // only dents IPC when it under-supplies.
            self.cycle += add.max(backend_cycles);
            result.events.retired_uops += u64::from(pw.uops);
        }
        self.driven += accesses.len();
    }

    /// Closes a run begun at `before`: flushes pending insertions and fills
    /// in the counters that are deltas or totals.
    fn finish(
        &mut self,
        before: (UopCacheStats, CacheStats, u64),
        mut result: SimResult,
    ) -> SimResult {
        let (uopc_before, l1i_before, cycle_before) = before;
        // Flush remaining insertions so repeated runs start clean.
        self.flush_insertions();

        result.uopc = *self.uopc.stats() - uopc_before;
        if self.cfg.perfect.uop_cache {
            // The perfect micro-op cache bypasses the real structure: credit
            // its hits directly.
            result.uopc.lookups = result.events.uopc_lookups;
            result.uopc.pw_hits = result.events.uopc_lookups;
            result.uopc.uops_requested = result.events.retired_uops;
            result.uopc.uops_hit = result.events.retired_uops;
        }
        let mut l1i_stats = *self.l1i.stats();
        l1i_stats.accesses -= l1i_before.accesses;
        l1i_stats.hits -= l1i_before.hits;
        l1i_stats.misses -= l1i_before.misses;
        l1i_stats.evictions -= l1i_before.evictions;
        l1i_stats.fills -= l1i_before.fills;
        result.icache = l1i_stats;
        result.events.cycles = self.cycle - cycle_before;
        result.events.uopc_entry_writes = result.uopc.entries_written;
        // Retired-uop counts are far below 2^53, so the f64 round-trip and
        // the cast back to u64 are exact.
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            clippy::cast_precision_loss
        )]
        {
            result.events.retired_instructions =
                (result.events.retired_uops as f64 / UOPS_PER_INST).round() as u64;
        }
        result
    }

    fn drain_insertions(&mut self) {
        while let Some(&(ready, pw)) = self.insert_queue.front() {
            if ready > self.cycle {
                break;
            }
            self.insert_queue.pop_front();
            self.uopc.insert(&pw);
        }
    }

    fn flush_insertions(&mut self) {
        while let Some((_, pw)) = self.insert_queue.pop_front() {
            self.uopc.insert(&pw);
        }
    }
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontend")
            .field("cfg", &self.cfg)
            .field("cycle", &self.cycle)
            .field("uopc_mode", &self.uopc_mode)
            .field("pending_insertions", &self.insert_queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_cache::LruPolicy;
    use uopcache_model::{Addr, PwAccess, PwTermination};
    use uopcache_trace::{build_trace, AppId, InputVariant};

    fn frontend(cfg: FrontendConfig) -> Frontend {
        Frontend::builder(cfg).policy(LruPolicy::new()).build()
    }

    #[test]
    fn runs_and_accounts() {
        let trace = build_trace(AppId::Kafka, InputVariant(0), 10_000);
        let mut fe = frontend(FrontendConfig::zen3());
        let r = fe.run(&trace);
        assert_eq!(r.uopc.lookups, 10_000);
        assert_eq!(r.uopc.uops_hit + r.uopc.uops_missed, r.uopc.uops_requested);
        assert!(r.events.cycles > 0);
        assert!(r.ipc() > 0.1 && r.ipc() < 6.0, "ipc = {}", r.ipc());
    }

    #[test]
    fn perfect_uop_cache_never_misses() {
        let trace = build_trace(AppId::Python, InputVariant(0), 5_000);
        let mut cfg = FrontendConfig::zen3();
        cfg.perfect.uop_cache = true;
        let mut fe = frontend(cfg);
        let r = fe.run(&trace);
        assert_eq!(r.uopc.uops_missed, 0);
        assert_eq!(r.events.decoded_uops, 0);
        assert_eq!(r.events.icache_reads, 0);
    }

    #[test]
    fn perfect_structures_improve_ipc() {
        let trace = build_trace(AppId::Wordpress, InputVariant(0), 20_000);
        let base = frontend(FrontendConfig::zen3()).run(&trace);
        for which in ["uopc", "icache", "btb", "bp"] {
            let mut cfg = FrontendConfig::zen3();
            match which {
                "uopc" => cfg.perfect.uop_cache = true,
                "icache" => cfg.perfect.icache = true,
                "btb" => cfg.perfect.btb = true,
                _ => cfg.perfect.branch_predictor = true,
            }
            let r = frontend(cfg).run(&trace);
            assert!(
                r.ipc() >= base.ipc(),
                "{which}: perfect {} < base {}",
                r.ipc(),
                base.ipc()
            );
        }
    }

    #[test]
    fn asynchronous_insertion_is_delayed() {
        // Two back-to-back lookups of the same window: the second arrives
        // before the insertion from the first miss completes, so it also
        // misses (the asynchrony of §II-B).
        let pw = PwDesc::new(Addr::new(0x1000), 4, 12, PwTermination::TakenBranch);
        let t: LookupTrace = [PwAccess::new(pw), PwAccess::new(pw)].into_iter().collect();
        let mut fe = frontend(FrontendConfig::zen3());
        let r = fe.run(&t);
        assert_eq!(
            r.uopc.pw_misses, 2,
            "second lookup races the in-flight insertion"
        );
    }

    #[test]
    fn spaced_reaccess_hits_after_insertion_completes() {
        let pw = PwDesc::new(Addr::new(0x1000), 4, 12, PwTermination::TakenBranch);
        let filler = PwDesc::new(Addr::new(0x8000), 8, 24, PwTermination::TakenBranch);
        let mut accs = vec![PwAccess::new(pw)];
        for _ in 0..6 {
            accs.push(PwAccess::new(filler));
        }
        accs.push(PwAccess::new(pw));
        let t: LookupTrace = accs.into_iter().collect();
        let mut fe = frontend(FrontendConfig::zen3());
        let r = fe.run(&t);
        assert!(
            r.uopc.pw_hits >= 1,
            "spaced re-access should hit: {:?}",
            r.uopc
        );
    }

    #[test]
    fn inclusion_invalidations_occur_under_icache_pressure() {
        let trace = build_trace(AppId::Clang, InputVariant(0), 60_000);
        let mut fe = frontend(FrontendConfig::zen3());
        let r = fe.run(&trace);
        assert!(
            r.uopc.inclusion_invalidations > 0,
            "L1i evictions must invalidate PWs: {:?}",
            r.uopc
        );
    }

    #[test]
    fn better_policy_means_better_or_equal_ipc() {
        let trace = build_trace(AppId::Postgres, InputVariant(0), 30_000);
        let lru_r = frontend(FrontendConfig::zen3()).run(&trace);
        let mut big = FrontendConfig::zen3();
        big.uop_cache = big.uop_cache.with_entries(4096);
        let big_r = frontend(big).run(&trace);
        assert!(big_r.uopc.uops_missed <= lru_r.uopc.uops_missed);
        assert!(big_r.ipc() >= lru_r.ipc());
    }

    #[test]
    fn misprediction_penalty_costs_cycles() {
        let trace = build_trace(AppId::Wordpress, InputVariant(0), 10_000);
        let base = frontend(FrontendConfig::zen3()).run(&trace);
        let mut cfg = FrontendConfig::zen3();
        cfg.perfect.branch_predictor = true;
        let perfect = frontend(cfg).run(&trace);
        assert!(perfect.events.cycles < base.events.cycles);
        assert_eq!(perfect.mispredictions, 0);
    }

    #[test]
    fn classification_option_populates_3c_breakdown() {
        let trace = build_trace(AppId::Kafka, InputVariant(0), 20_000);
        let mut fe = Frontend::builder(FrontendConfig::zen3())
            .policy(LruPolicy::new())
            .classify_misses(true)
            .build();
        let r = fe.run(&trace);
        let classified =
            r.uopc.cold_miss_uops + r.uopc.capacity_miss_uops + r.uopc.conflict_miss_uops;
        assert_eq!(classified, r.uopc.uops_missed);
        // Data-center shape: capacity misses dominate, cold misses are rare.
        assert!(r.uopc.capacity_miss_uops > r.uopc.cold_miss_uops);
    }
}
