//! Property wall for the classic policy zoo: seeded random workloads drive
//! each zoo policy through the real cache while the test holds a second
//! handle to the concrete policy (via a shared-cell forwarding wrapper) and
//! checks its structural invariants after every access:
//!
//! * ARC / CAR — ghost lists (B1/B2) never exceed their per-way capacity
//!   and the adaptation target never exceeds the associativity;
//! * CLOCK — the hand always points inside `[0, ways)` and advances to
//!   `victim + 1 (mod ways)` on every selection;
//! * SLRU — the probation/protected segment counts sum to exactly the
//!   set's resident population and the protected segment respects its cap;
//! * 2Q — the A1out ghost list is bounded by the associativity;
//! * LFU — ties (equal hit counts, equal recency) break deterministically
//!   to the lowest slot.
//!
//! A final conformance sweep runs every zoo policy and the set-dueling
//! meta-policy through `CheckedPolicy` (strict invariants), mirroring
//! `policy_invariants.rs` for the paper's roster.

use std::cell::RefCell;
use std::rc::Rc;
use uopcache::cache::checked::verify_stats;
use uopcache::cache::{CheckedPolicy, PwMeta, PwReplacementPolicy, UopCache};
use uopcache::model::json::Json;
use uopcache::model::rng::{Prng, Rng};
use uopcache::model::{Addr, LookupTrace, PwAccess, PwDesc, PwTermination, UopCacheConfig};
use uopcache::obs::{EventKind, RingRecorder};
use uopcache::policies::{
    run_trace, ArcPolicy, CarPolicy, ClockPolicy, LfuPolicy, MruPolicy, SetDuelingPolicy,
    SlruPolicy, TwoQPolicy,
};

fn small_cfg(entries: u32, ways: u32) -> UopCacheConfig {
    UopCacheConfig {
        entries,
        ways,
        uops_per_entry: 8,
        switch_penalty: 1,
        inclusive_with_l1i: true,
        max_entries_per_pw: ways.min(4),
    }
}

/// A short trace over a small address universe with variable uop counts (so
/// multi-entry PWs and overlapping windows both occur).
fn random_trace(rng: &mut Prng, max_len: usize) -> LookupTrace {
    let len = rng.gen_range(1..max_len.max(2));
    (0..len)
        .map(|_| {
            let slot = rng.gen_range(0..24u64);
            let uops = rng.gen_range(1..28u32);
            let start = 0x1000 + slot * 64;
            PwAccess::new(PwDesc::new(
                Addr::new(start),
                uops,
                uops * 3,
                PwTermination::TakenBranch,
            ))
        })
        .collect()
}

/// Forwards every hook to a shared concrete policy, so the test can inspect
/// the policy's internals while the cache owns the `Box<dyn>` driving it.
struct Shared<P>(Rc<RefCell<P>>);

impl<P: PwReplacementPolicy> PwReplacementPolicy for Shared<P> {
    fn name(&self) -> &'static str {
        self.0.borrow().name()
    }
    fn prepare(&mut self, sets: usize, ways: u32) {
        self.0.borrow_mut().prepare(sets, ways);
    }
    fn on_lookup(&mut self, pw: &PwDesc) {
        self.0.borrow_mut().on_lookup(pw);
    }
    fn on_hit(&mut self, set: usize, meta: &PwMeta) {
        self.0.borrow_mut().on_hit(set, meta);
    }
    fn on_insert(&mut self, set: usize, meta: &PwMeta) {
        self.0.borrow_mut().on_insert(set, meta);
    }
    fn on_evict(&mut self, set: usize, meta: &PwMeta) {
        self.0.borrow_mut().on_evict(set, meta);
    }
    fn on_invalidate(&mut self, set: usize, meta: &PwMeta) {
        self.0.borrow_mut().on_invalidate(set, meta);
    }
    fn should_bypass(
        &mut self,
        set: usize,
        incoming: &PwDesc,
        needed_entries: u32,
        free_entries: u32,
        resident: &[PwMeta],
    ) -> bool {
        self.0
            .borrow_mut()
            .should_bypass(set, incoming, needed_entries, free_entries, resident)
    }
    fn choose_victim(&mut self, set: usize, incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        self.0.borrow_mut().choose_victim(set, incoming, resident)
    }
    fn last_selection_was_fallback(&self) -> bool {
        self.0.borrow().last_selection_was_fallback()
    }
    fn introspect(&self) -> Option<Json> {
        self.0.borrow().introspect()
    }
}

/// Drives `policy` over `rounds` seeded traces, calling `check(&policy, set
/// count)` after every access. The policy stays warm across accesses within
/// a round; each round gets a fresh cache and policy state is rebuilt by
/// `fresh`.
fn drive_with_checks<P, F, C>(seed: u64, rounds: u64, cfg: UopCacheConfig, fresh: F, mut check: C)
where
    P: PwReplacementPolicy + 'static,
    F: Fn() -> P,
    C: FnMut(&P, usize),
{
    let sets = (cfg.entries / cfg.ways) as usize;
    let mut rng = Prng::seed_from_u64(seed);
    for round in 0..rounds {
        let trace = random_trace(&mut rng, 160);
        let shared = Rc::new(RefCell::new(fresh()));
        let handle = Rc::clone(&shared);
        let mut cache = UopCache::new(cfg, Box::new(Shared(shared)));
        for (i, access) in trace.iter().enumerate() {
            if !cache.lookup(&access.pw()).is_full_hit() {
                cache.insert(&access.pw());
            }
            let p = handle.borrow();
            check(&p, sets);
            let _ = (round, i);
        }
        verify_stats(cache.stats());
    }
}

#[test]
fn arc_ghost_lists_and_target_stay_bounded() {
    let cfg = small_cfg(8, 4);
    drive_with_checks(0xA2C, 24, cfg, ArcPolicy::new, |p: &ArcPolicy, sets| {
        for set in 0..sets {
            let (b1, b2) = p.ghost_lens(set);
            assert!(b1 <= p.ghost_capacity(), "B1 {b1} over capacity");
            assert!(b2 <= p.ghost_capacity(), "B2 {b2} over capacity");
            assert!(p.target(set) <= cfg.ways, "target over associativity");
        }
    });
}

#[test]
fn car_ghost_lists_and_target_stay_bounded() {
    let cfg = small_cfg(8, 4);
    drive_with_checks(0xCA2, 24, cfg, CarPolicy::new, |p: &CarPolicy, sets| {
        for set in 0..sets {
            let (b1, b2) = p.ghost_lens(set);
            assert!(b1 <= cfg.ways && b2 <= cfg.ways, "ghosts over per-way cap");
            assert!(p.target(set) <= cfg.ways, "target over associativity");
        }
    });
}

#[test]
fn twoq_ghost_list_stays_bounded() {
    let cfg = small_cfg(8, 4);
    drive_with_checks(0x2B2, 24, cfg, TwoQPolicy::new, |p: &TwoQPolicy, sets| {
        for set in 0..sets {
            assert!(p.ghost_len(set) <= cfg.ways, "A1out over per-way cap");
        }
    });
}

#[test]
fn clock_hand_stays_in_range_under_churn() {
    let cfg = small_cfg(8, 4);
    drive_with_checks(
        0xC10C,
        24,
        cfg,
        ClockPolicy::new,
        |p: &ClockPolicy, sets| {
            for set in 0..sets {
                assert!(
                    u32::from(p.hand(set)) < cfg.ways,
                    "hand {} out of [0, {})",
                    p.hand(set),
                    cfg.ways
                );
            }
        },
    );
}

#[test]
fn clock_hand_advances_monotonically_modulo_ways() {
    // Driven directly (no cache): with a full, static resident set the hand
    // must land on `victim.slot + 1 (mod ways)` after every selection, and
    // consecutive victims sweep the ways in circular order once all
    // reference bits have been consumed.
    let ways = 4u32;
    let mut p = ClockPolicy::new();
    p.prepare(1, ways);
    let meta = |slot: u8| PwMeta {
        desc: PwDesc::new(
            Addr::new(0x100 + u64::from(slot) * 64),
            4,
            12,
            PwTermination::TakenBranch,
        ),
        slot,
        entries: 1,
        inserted_at: 0,
        last_access: 0,
        hits: 0,
    };
    let resident: Vec<PwMeta> = (0..4u8).map(meta).collect();
    for m in &resident {
        p.on_insert(0, m);
    }
    let incoming = PwDesc::new(Addr::new(0x900), 4, 12, PwTermination::TakenBranch);
    let mut rng = Prng::seed_from_u64(0x44AD);
    for step in 0..200 {
        // Randomly re-reference someone, then select.
        if rng.gen_range(0..2u32) == 1 {
            let lucky = rng.gen_range(0..4u64) as usize;
            p.on_hit(0, &resident[lucky]);
        }
        let v = p.choose_victim(0, &incoming, &resident);
        let expect = (u32::from(resident[v].slot) + 1) % ways;
        assert_eq!(
            u32::from(p.hand(0)),
            expect,
            "step {step}: hand must advance past the victim"
        );
        // The evicted slot is immediately reused by an identical window.
        p.on_evict(0, &resident[v]);
        p.on_insert(0, &resident[v]);
    }
}

#[test]
fn slru_segments_reconcile_with_resident_population() {
    // The per-set probation + protected counts must always equal the set's
    // live population (reconstructed from the recorded event stream), and
    // the protected segment must respect its capacity.
    let cfg = small_cfg(8, 4);
    let sets = (cfg.entries / cfg.ways) as usize;
    let protected_cap = (cfg.ways / 2).max(1);
    let mut rng = Prng::seed_from_u64(0x51BD);
    for round in 0..24 {
        let trace = random_trace(&mut rng, 160);
        let shared = Rc::new(RefCell::new(SlruPolicy::new()));
        let handle = Rc::clone(&shared);
        let mut cache = UopCache::new(cfg, Box::new(Shared(shared)));
        cache.set_recorder(Box::new(RingRecorder::new(1 << 20)));
        for access in trace.iter() {
            if !cache.lookup(&access.pw()).is_full_hit() {
                cache.insert(&access.pw());
            }
            let p = handle.borrow();
            for set in 0..sets {
                let (probation, protected) = p.segment_counts(set);
                assert!(probation + protected <= cfg.ways, "round {round}");
                assert!(protected <= protected_cap, "round {round}");
            }
        }
        // Reconcile: inserts minus departures per set == segment sum.
        let mut live = vec![0i64; sets];
        let recorder = cache.take_recorder().expect("installed above");
        for ev in recorder.events() {
            match ev.kind {
                EventKind::Insert => live[ev.set as usize] += 1,
                EventKind::Evict | EventKind::Invalidate => live[ev.set as usize] -= 1,
                _ => {}
            }
        }
        let p = handle.borrow();
        for (set, &population) in live.iter().enumerate() {
            let (probation, protected) = p.segment_counts(set);
            assert_eq!(
                i64::from(probation + protected),
                population,
                "round {round} set {set}: segment sum drifted from population"
            );
        }
    }
}

#[test]
fn lfu_breaks_ties_deterministically_to_the_lowest_slot() {
    let mut p = LfuPolicy::new();
    p.prepare(1, 4);
    let meta = |slot: u8, hits: u32, last_access: u64| PwMeta {
        desc: PwDesc::new(
            Addr::new(0x100 + u64::from(slot) * 64),
            4,
            12,
            PwTermination::TakenBranch,
        ),
        slot,
        entries: 1,
        inserted_at: 0,
        last_access,
        hits,
    };
    let incoming = PwDesc::new(Addr::new(0x900), 4, 12, PwTermination::TakenBranch);
    // Full tie: equal hits, equal recency -> the first (lowest-slot) entry.
    let tied = [meta(0, 2, 5), meta(1, 2, 5), meta(2, 2, 5)];
    for _ in 0..3 {
        assert_eq!(p.choose_victim(0, &incoming, &tied), 0, "must be stable");
    }
    // Hits dominate; recency only splits equal hit counts.
    let mixed = [meta(0, 3, 1), meta(1, 1, 9), meta(2, 1, 2)];
    assert_eq!(
        p.choose_victim(0, &incoming, &mixed),
        2,
        "older of the cold"
    );
    // MRU sanity alongside: newest goes first, ties to the lowest slot.
    let mut mru = MruPolicy::new();
    let fresh = [meta(0, 0, 7), meta(1, 0, 7), meta(2, 0, 3)];
    assert_eq!(mru.choose_victim(0, &incoming, &fresh), 0);
}

/// Every zoo policy plus the set-dueling meta-policy, wrapped in the
/// strict-invariants conformance checker.
fn zoo_under_test(ways: u32) -> Vec<Box<dyn PwReplacementPolicy>> {
    let bare: Vec<Box<dyn PwReplacementPolicy>> = vec![
        Box::new(MruPolicy::new()),
        Box::new(LfuPolicy::new()),
        Box::new(ClockPolicy::new()),
        Box::new(SlruPolicy::new()),
        Box::new(TwoQPolicy::new()),
        Box::new(ArcPolicy::new()),
        Box::new(CarPolicy::new()),
        Box::new(SetDuelingPolicy::default_zoo()),
    ];
    bare.into_iter()
        .map(|p| Box::new(CheckedPolicy::new(p, ways)) as Box<dyn PwReplacementPolicy>)
        .collect()
}

#[test]
fn zoo_conformance_sweep_under_strict_invariants() {
    let mut rng = Prng::seed_from_u64(0x200);
    for round in 0..24 {
        let trace = random_trace(&mut rng, 120);
        let cfg = small_cfg(8, 4);
        for policy in zoo_under_test(cfg.ways) {
            let name = policy.name();
            let mut cache = UopCache::new(cfg, policy);
            let stats = run_trace(&mut cache, &trace);
            assert!(
                cache.occupied_entries() <= cfg.entries,
                "round {round} {name}: overfull"
            );
            assert_eq!(stats.lookups, trace.len() as u64, "round {round} {name}");
            verify_stats(&stats);
        }
    }
}

#[test]
fn zoo_conformance_survives_an_odd_geometry() {
    // 3 ways: SLRU's protected cap and 2Q's A1 threshold both hit their
    // rounding branches; 24 entries / 3 ways = 8 sets.
    let mut rng = Prng::seed_from_u64(0x0DD);
    for round in 0..12 {
        let trace = random_trace(&mut rng, 120);
        let cfg = small_cfg(24, 3);
        for policy in zoo_under_test(cfg.ways) {
            let name = policy.name();
            let mut cache = UopCache::new(cfg, policy);
            let stats = run_trace(&mut cache, &trace);
            verify_stats(&stats);
            assert!(
                cache.occupied_entries() <= cfg.entries,
                "round {round} {name}: overfull"
            );
        }
    }
}
