//! Integration wall for set-dueling dynamic selection and the offline
//! `identify` pass:
//!
//! * the leader/follower partition is a pure function of
//!   `(sets, K, candidates)` — same inputs, same map, K leader sets per
//!   candidate whenever the geometry has room;
//! * a crafted two-phase workload flips the duel winner (MRU wins a cyclic
//!   scan, LRU wins a pinned-line stream) and follower sets demonstrably
//!   switch their decisions to the new winner;
//! * `identify` round-trips every registered policy on a quick probe trace,
//!   reporting ambiguity explicitly instead of guessing when two candidates
//!   produce identical decision streams.

use std::cell::RefCell;
use std::rc::Rc;
use uopcache::cache::{LruPolicy, PwMeta, PwReplacementPolicy, UopCache};
use uopcache::model::json::Json;
use uopcache::model::{Addr, PwAccess, PwDesc, PwTermination, UopCacheConfig};
use uopcache::offline::identify::{digest_run, digest_table, identify};
use uopcache::offline::IdentifyVerdict;
use uopcache::policies::dueling::leader_map;
use uopcache::policies::{MruPolicy, SetDuelingPolicy};
use uopcache_bench::apps::trace_for;
use uopcache_bench::policies::{PolicyRegistry, ProfileInputs};

#[test]
fn leader_map_is_a_pure_function_of_its_inputs() {
    for (sets, k, n) in [(64, 2, 4), (16, 1, 2), (8, 2, 3), (3, 2, 4), (1, 1, 1)] {
        let a = leader_map(sets, k, n);
        let b = leader_map(sets, k, n);
        assert_eq!(a, b, "({sets},{k},{n}): map must be deterministic");
        assert_eq!(a.len(), sets);
    }
}

#[test]
fn leader_map_partitions_k_leaders_per_candidate() {
    for (sets, k, n) in [(64, 2, 4), (64, 4, 2), (32, 1, 8), (16, 2, 2)] {
        let map = leader_map(sets, k, n);
        let mut per_candidate = vec![0usize; n];
        for cand in map.iter().flatten() {
            per_candidate[*cand] += 1;
        }
        assert_eq!(
            per_candidate,
            vec![k; n],
            "({sets},{k},{n}): every candidate gets exactly K leader sets"
        );
        let followers = map.iter().filter(|m| m.is_none()).count();
        assert_eq!(followers, sets - k * n, "({sets},{k},{n})");
    }
}

#[test]
fn leader_map_degrades_gracefully_when_sets_are_scarce() {
    // 3 sets cannot host 2x4 leaders: the available sets are handed out
    // round-robin and nothing panics.
    let map = leader_map(3, 2, 4);
    assert_eq!(map, vec![Some(0), Some(1), Some(2)]);
    // k = 0 means no leaders at all: everyone follows the incumbent.
    assert!(leader_map(16, 0, 4).iter().all(Option::is_none));
}

fn meta(slot: u8, inserted_at: u64, last_access: u64) -> PwMeta {
    PwMeta {
        desc: PwDesc::new(
            Addr::new(0x100 + u64::from(slot) * 64),
            4,
            12,
            PwTermination::TakenBranch,
        ),
        slot,
        entries: 1,
        inserted_at,
        last_access,
        hits: 0,
    }
}

#[test]
fn followers_switch_to_the_phase_winner() {
    // Two candidates (LRU, MRU), K = 1, 8 sets: set 0 is LRU's leader,
    // set 4 MRU's, the rest follow. Charge misses against LRU's leader set
    // only, cross a phase boundary, and a *follower* set's victim choice
    // must flip from LRU's (oldest) to MRU's (newest).
    let phase = 32u64;
    let mut duel = SetDuelingPolicy::new(
        vec![Box::new(LruPolicy::new()), Box::new(MruPolicy::new())],
        1,
        phase,
    );
    duel.prepare(8, 4);
    assert_eq!(duel.leader_of(0), Some(0));
    assert_eq!(duel.leader_of(4), Some(1));
    assert_eq!(duel.leader_of(1), None, "set 1 follows");
    assert_eq!(
        duel.winner_name(),
        "LRU",
        "first candidate is the incumbent"
    );

    let resident = [meta(0, 1, 1), meta(1, 2, 9), meta(2, 3, 5)];
    let incoming = PwDesc::new(Addr::new(0x900), 4, 12, PwTermination::TakenBranch);
    // LRU evicts the least recently used (slot 0); MRU the most recent
    // (slot 1). While LRU holds the crown, follower sets take its pick.
    assert_eq!(duel.choose_victim(1, &incoming, &resident), 0);

    // A miss in LRU's leader set charges LRU's PSEL; MRU stays clean.
    for _ in 0..phase {
        duel.should_bypass(0, &incoming, 1, 0, &resident);
        duel.on_lookup(&incoming);
    }
    let (phases, switches) = duel.phase_counts();
    assert!(phases >= 1, "a phase boundary must have passed");
    assert_eq!(switches, 1, "exactly one crown change");
    assert_eq!(duel.winner_name(), "MRU");
    assert_eq!(
        duel.choose_victim(1, &incoming, &resident),
        1,
        "the follower now takes MRU's pick"
    );
    // Leaders keep dueling with their own candidate regardless of the crown.
    assert_eq!(duel.choose_victim(0, &incoming, &resident), 0);
}

/// Builds a probe trace that alternates between an MRU-friendly cyclic scan
/// (5 tags round-robin thrash LRU, MRU keeps 3 of 5 resident) and an
/// LRU-friendly pinned-line stream (one hot line plus cold streams; MRU
/// keeps evicting the hot line). Each phase covers every set.
fn two_phase_trace(sets: u64, lookups_per_phase: usize) -> uopcache::model::LookupTrace {
    let addr = |set: u64, tag: u64| Addr::new(0x4_0000 + (tag * sets + set) * 64);
    let pw = |a: Addr| PwAccess::new(PwDesc::new(a, 4, 12, PwTermination::TakenBranch));
    let mut out = Vec::new();
    // Phase A: cyclic scan, tags 0..5 in every set.
    let mut i = 0u64;
    while out.len() < lookups_per_phase {
        let set = i % sets;
        let tag = (i / sets) % 5;
        out.push(pw(addr(set, tag)));
        i += 1;
    }
    // Phase B: pinned line (tag 0) interleaved with a cold stream. The set
    // index advances every *pair* so each set sees hot, cold, hot, cold —
    // a plain `j % sets` would correlate set parity with hot/cold parity
    // and starve the odd sets of the hot line entirely.
    let mut j = 0u64;
    while out.len() < 2 * lookups_per_phase {
        let set = (j / 2) % sets;
        if j.is_multiple_of(2) {
            out.push(pw(addr(set, 0)));
        } else {
            out.push(pw(addr(set, 10 + (j / 2) % 24)));
        }
        j += 1;
    }
    out.into_iter().collect()
}

/// Forwards hooks to a shared policy so the test can watch the duel evolve
/// while the cache drives it.
struct Shared(Rc<RefCell<SetDuelingPolicy>>);

impl PwReplacementPolicy for Shared {
    fn name(&self) -> &'static str {
        self.0.borrow().name()
    }
    fn prepare(&mut self, sets: usize, ways: u32) {
        self.0.borrow_mut().prepare(sets, ways);
    }
    fn on_lookup(&mut self, pw: &PwDesc) {
        self.0.borrow_mut().on_lookup(pw);
    }
    fn on_hit(&mut self, set: usize, m: &PwMeta) {
        self.0.borrow_mut().on_hit(set, m);
    }
    fn on_insert(&mut self, set: usize, m: &PwMeta) {
        self.0.borrow_mut().on_insert(set, m);
    }
    fn on_evict(&mut self, set: usize, m: &PwMeta) {
        self.0.borrow_mut().on_evict(set, m);
    }
    fn on_invalidate(&mut self, set: usize, m: &PwMeta) {
        self.0.borrow_mut().on_invalidate(set, m);
    }
    fn should_bypass(
        &mut self,
        set: usize,
        incoming: &PwDesc,
        needed: u32,
        free: u32,
        resident: &[PwMeta],
    ) -> bool {
        self.0
            .borrow_mut()
            .should_bypass(set, incoming, needed, free, resident)
    }
    fn choose_victim(&mut self, set: usize, incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        self.0.borrow_mut().choose_victim(set, incoming, resident)
    }
    fn introspect(&self) -> Option<Json> {
        self.0.borrow().introspect()
    }
}

#[test]
fn crafted_two_phase_workload_flips_the_winner_through_the_real_cache() {
    let cfg = UopCacheConfig {
        entries: 32,
        ways: 4,
        uops_per_entry: 8,
        switch_penalty: 1,
        inclusive_with_l1i: true,
        max_entries_per_pw: 4,
    };
    let sets = u64::from(cfg.sets());
    let phase_lookups = 2_048usize;
    let duel = SetDuelingPolicy::new(
        vec![Box::new(LruPolicy::new()), Box::new(MruPolicy::new())],
        1,
        256,
    );
    let shared = Rc::new(RefCell::new(duel));
    let handle = Rc::clone(&shared);
    let mut cache = UopCache::new(cfg, Box::new(Shared(shared)));
    let trace = two_phase_trace(sets, phase_lookups);

    let mut winner_after_a = None;
    for (i, access) in trace.iter().enumerate() {
        if !cache.lookup(&access.pw()).is_full_hit() {
            cache.insert(&access.pw());
        }
        if i + 1 == phase_lookups {
            winner_after_a = Some(handle.borrow().winner_name());
        }
    }
    let winner_after_b = handle.borrow().winner_name();
    assert_eq!(
        winner_after_a,
        Some("MRU"),
        "the cyclic scan must crown MRU"
    );
    assert_eq!(
        winner_after_b, "LRU",
        "the pinned-line stream takes it back"
    );
    let (phases, switches) = handle.borrow().phase_counts();
    assert!(phases >= 2, "both phase boundaries crossed (saw {phases})");
    assert!(
        switches >= 2,
        "the crown must change hands at least twice (saw {switches})"
    );

    // The duel's introspection is a JSON object naming every candidate.
    let state = handle.borrow().introspect().expect("duel introspects");
    let text = state.to_string();
    assert!(text.contains("\"winner\":\"LRU\""), "{text}");
    assert!(text.contains("\"candidates\":["), "{text}");
}

fn quick_cfg() -> UopCacheConfig {
    let mut cfg = UopCacheConfig::zen3();
    cfg.entries /= 4;
    cfg
}

#[test]
fn identify_round_trips_every_registered_policy() {
    let frontend = {
        let mut f = uopcache::model::FrontendConfig::zen3();
        f.uop_cache = quick_cfg();
        f
    };
    let trace = trace_for(uopcache::trace::AppId::Kafka, 0, 2_500);
    let profiles = ProfileInputs::build(&frontend, &trace);
    let registry = PolicyRegistry::all();
    let table = digest_table(
        quick_cfg(),
        registry
            .ids()
            .iter()
            .map(|id| (id.name().to_string(), id.build(&frontend, &profiles, 0)))
            .collect(),
        &trace,
    );
    let mut unique = 0;
    for id in registry.ids() {
        let captured = digest_run(quick_cfg(), id.build(&frontend, &profiles, 0), &trace);
        match identify(captured, &table) {
            IdentifyVerdict::Unique(name) => {
                assert_eq!(name, id.name(), "misidentified");
                unique += 1;
            }
            IdentifyVerdict::Ambiguous(names) => {
                assert!(
                    names.iter().any(|n| n == id.name()),
                    "{}: ambiguity set {names:?} must contain the generator",
                    id.name()
                );
            }
            IdentifyVerdict::Unknown => {
                panic!("{}: a registered policy cannot be unknown", id.name())
            }
        }
    }
    assert!(
        unique >= registry.ids().len() - 2,
        "the probe trace should separate nearly every policy ({unique} unique)"
    );
}

#[test]
fn identify_reports_ambiguity_rather_than_guessing() {
    let trace = trace_for(uopcache::trace::AppId::Postgres, 0, 1_500);
    // The same policy under two names: a digest collision by construction.
    let table = digest_table(
        quick_cfg(),
        vec![
            ("LRU".into(), Box::new(LruPolicy::new()) as _),
            ("LRU-prime".into(), Box::new(LruPolicy::new()) as _),
            ("MRU".into(), Box::new(MruPolicy::new()) as _),
        ],
        &trace,
    );
    let captured = digest_run(quick_cfg(), Box::new(LruPolicy::new()), &trace);
    assert_eq!(
        identify(captured, &table),
        IdentifyVerdict::Ambiguous(vec!["LRU".into(), "LRU-prime".into()])
    );
    let mru = digest_run(quick_cfg(), Box::new(MruPolicy::new()), &trace);
    assert_eq!(identify(mru, &table), IdentifyVerdict::Unique("MRU".into()));
}
