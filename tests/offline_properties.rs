//! Property-style checks of the offline machinery: the FOO flow solution is
//! feasible and consistent, replay honours it, and Jenks natural breaks is
//! optimal against brute force on small inputs. Two pins guard the flow
//! solver: digests of the FOO/FLACK decisions on real traces, and the exact
//! number of shortest-path searches on the benchmark's `sweep-full` input.
//!
//! Random inputs come from the workspace's deterministic seeded [`Prng`], so
//! any failure reproduces exactly from the printed round number.

use uopcache::core::jenks::{classify, jenks_breaks};
use uopcache::model::rng::{Prng, Rng};
use uopcache::model::{Addr, LookupTrace, PwAccess, PwDesc, PwTermination, UopCacheConfig};
use uopcache::offline::{foo, replay, EvictionTiming, FooConfig};

fn tiny_cfg() -> UopCacheConfig {
    UopCacheConfig {
        entries: 4,
        ways: 2,
        uops_per_entry: 8,
        switch_penalty: 1,
        inclusive_with_l1i: true,
        max_entries_per_pw: 2,
    }
}

fn random_trace(rng: &mut Prng, max_len: usize) -> LookupTrace {
    let len = rng.gen_range(1..max_len.max(2));
    (0..len)
        .map(|_| {
            let slot = rng.gen_range(0..12u64);
            let uops = rng.gen_range(1..16u32);
            PwAccess::new(PwDesc::new(
                Addr::new(0x2000 + slot * 64),
                uops,
                uops * 3,
                PwTermination::TakenBranch,
            ))
        })
        .collect()
}

/// Per-set occupancy implied by the keep decisions must never exceed the
/// set's capacity at any point in time.
fn check_feasible(trace: &LookupTrace, cfg: &UopCacheConfig, sol: &foo::FooSolution) -> bool {
    use uopcache::model::hash::FastHashMap;
    // For each kept interval [i, j): the window of access i occupies
    // entries(i) in its set from i to the next access of the same start.
    let accesses = trace.accesses();
    let mut next_same: Vec<Option<usize>> = vec![None; accesses.len()];
    let mut last: FastHashMap<Addr, usize> = FastHashMap::default();
    for (i, a) in accesses.iter().enumerate().rev() {
        next_same[i] = last.get(&a.pw().start).copied();
        last.insert(a.pw().start, i);
    }
    // Sweep: per set, track active kept intervals.
    let mut load_delta: FastHashMap<(usize, usize), i64> = FastHashMap::default(); // (set, time) -> delta
    for (i, a) in accesses.iter().enumerate() {
        if sol.keep[i] {
            if let Some(j) = next_same[i] {
                let set = cfg.set_index_for(a.pw().start, 64);
                let e = i64::from(a.pw().entries(cfg.uops_per_entry));
                *load_delta.entry((set, i)).or_insert(0) += e;
                *load_delta.entry((set, j)).or_insert(0) -= e;
            }
        }
    }
    for set in 0..cfg.sets() as usize {
        let mut load = 0i64;
        for t in 0..accesses.len() {
            load += load_delta.get(&(set, t)).copied().unwrap_or(0);
            if load > i64::from(cfg.ways) {
                return false;
            }
        }
    }
    true
}

#[test]
fn foo_solutions_are_capacity_feasible() {
    let mut rng = Prng::seed_from_u64(0xF1A6);
    for round in 0..64 {
        let trace = random_trace(&mut rng, 60);
        let cfg = tiny_cfg();
        for foo_cfg in [
            FooConfig::foo_ohr(),
            FooConfig::foo_bhr(),
            FooConfig::flack(),
        ] {
            let sol = foo::solve(&trace, &cfg, &foo_cfg);
            assert_eq!(sol.keep.len(), trace.len(), "round {round}");
            assert_eq!(sol.expected_hit.len(), trace.len(), "round {round}");
            assert!(
                check_feasible(&trace, &cfg, &sol),
                "round {round}: {foo_cfg:?}"
            );
        }
    }
}

#[test]
fn expected_hits_never_precede_a_keep() {
    // Every expected hit must be the target of some kept interval: the
    // count of expected hits equals the count of keeps whose window is
    // re-accessed.
    let mut rng = Prng::seed_from_u64(0x0F0F);
    for round in 0..64 {
        let trace = random_trace(&mut rng, 60);
        let cfg = tiny_cfg();
        let sol = foo::solve(&trace, &cfg, &FooConfig::foo_ohr());
        assert_eq!(
            sol.expected_hit.iter().filter(|&&h| h).count(),
            sol.kept_count(),
            "round {round}"
        );
        // The first access of any start address can never be an expected hit.
        let mut seen = uopcache::model::hash::FastHashSet::default();
        for (i, a) in trace.iter().enumerate() {
            if seen.insert(a.pw().start) {
                assert!(
                    !sol.expected_hit[i],
                    "round {round}: first touch flagged as hit"
                );
            }
        }
    }
}

#[test]
fn replay_achieves_expected_hits_in_exact_mode() {
    // In ExactWindow mode with eager replay, every expected hit the
    // solver promises is realised by the replayed cache (the per-set
    // formulation makes decisions enforceable).
    let mut rng = Prng::seed_from_u64(0xE4A7);
    for round in 0..64 {
        let trace = random_trace(&mut rng, 50);
        let cfg = tiny_cfg();
        let sol = foo::solve(&trace, &cfg, &FooConfig::foo_ohr());
        let stats = replay::replay(&trace, &cfg, &sol, EvictionTiming::Eager);
        let expected: u64 = sol.expected_hit.iter().filter(|&&h| h).count() as u64;
        assert!(
            stats.pw_hits + stats.pw_partial_hits >= expected,
            "round {round}: promised {} hits, achieved {} (+{} partial)",
            expected,
            stats.pw_hits,
            stats.pw_partial_hits
        );
    }
}

#[test]
fn lazy_replay_never_misses_more_than_eager() {
    let mut rng = Prng::seed_from_u64(0x1A2B);
    for round in 0..64 {
        let trace = random_trace(&mut rng, 80);
        let cfg = tiny_cfg();
        let sol = foo::solve(&trace, &cfg, &FooConfig::flack());
        let eager = replay::replay(&trace, &cfg, &sol, EvictionTiming::Eager);
        let lazy = replay::replay(&trace, &cfg, &sol, EvictionTiming::Lazy);
        assert!(lazy.uops_missed <= eager.uops_missed, "round {round}");
    }
}

#[test]
fn jenks_breaks_are_sorted_and_cover() {
    let mut rng = Prng::seed_from_u64(0x9E4B);
    for round in 0..64 {
        let n = rng.gen_range(1..40usize);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_f64()).collect();
        let breaks = jenks_breaks(&values, 8);
        assert!(
            breaks.windows(2).all(|w| w[0] < w[1]),
            "round {round}: {breaks:?}"
        );
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        assert_eq!(
            *breaks.last().expect("nonempty breaks"),
            max,
            "round {round}"
        );
        for &v in &values {
            let c = classify(v, &breaks);
            assert!(c < breaks.len(), "round {round}");
            assert!(v <= breaks[c] + 1e-12, "round {round}");
        }
    }
}

#[test]
fn jenks_matches_brute_force_on_small_inputs() {
    let mut rng = Prng::seed_from_u64(0xB4F3);
    for round in 0..64 {
        let n = rng.gen_range(2..8usize);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_f64()).collect();
        let classes = rng.gen_range(2..4usize);
        let breaks = jenks_breaks(&values, classes);
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        sorted.dedup();
        let k = classes.min(sorted.len());
        // Brute force: all ways to cut `sorted` into k contiguous groups.
        fn ssd(xs: &[f64]) -> f64 {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m) * (x - m)).sum()
        }
        fn best(xs: &[f64], k: usize) -> f64 {
            if k == 1 || xs.len() <= 1 {
                return if k >= 1 { ssd(xs) } else { f64::INFINITY };
            }
            let mut b = f64::INFINITY;
            for cut in 1..=xs.len() - (k - 1) {
                let cand = ssd(&xs[..cut]) + best(&xs[cut..], k - 1);
                if cand < b {
                    b = cand;
                }
            }
            b
        }
        let optimal = best(&sorted, k);
        // Recompute the SSD the returned breaks induce.
        let mut total = 0.0;
        let mut lo = 0usize;
        for &b in &breaks {
            let hi = sorted.iter().position(|&x| x > b).unwrap_or(sorted.len());
            if hi > lo {
                total += ssd(&sorted[lo..hi]);
            }
            lo = hi;
        }
        assert!(
            total <= optimal + 1e-9,
            "round {round}: jenks {total} vs optimal {optimal}"
        );
    }
}

/// FNV-1a over one FOO solution's decisions: every `keep` and
/// `expected_hit` bit in access order, then the objective value.
fn fnv1a_solution(h: &mut u64, sol: &foo::FooSolution) {
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (&k, &e) in sol.keep.iter().zip(&sol.expected_hit) {
        eat(&[u8::from(k) | u8::from(e) << 1]);
    }
    eat(&sol.objective_value.to_le_bytes());
}

/// Pins the FOO/FLACK decisions on realistic traces, so a solver rework
/// that picks a different (equally optimal) augmenting path, and with it
/// different keep bits and FURBYS profiles, fails here first.
#[test]
fn foo_decisions_match_pinned_digests() {
    use uopcache::trace::{build_trace, AppId, InputVariant};
    let cases: [(&str, UopCacheConfig, &[AppId]); 2] = [
        ("zen3", UopCacheConfig::zen3(), &AppId::ALL),
        (
            "zen4",
            UopCacheConfig::zen4(),
            &[AppId::Kafka, AppId::Postgres, AppId::Clang],
        ),
    ];
    let mut got = Vec::new();
    for (name, cfg, apps) in &cases {
        for foo_cfg in [
            FooConfig::foo_ohr(),
            FooConfig::foo_bhr(),
            FooConfig::flack(),
        ] {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &app in *apps {
                let trace = build_trace(app, InputVariant::new(3), 8_000);
                fnv1a_solution(&mut h, &foo::solve(&trace, cfg, &foo_cfg));
            }
            got.push(format!(
                "{name}/{:?}/{:?}={h:016x}",
                foo_cfg.objective, foo_cfg.interval_mode
            ));
        }
    }
    // Recorded with the plain successive-shortest-path loop.
    let want = [
        "zen3/ObjectHitRatio/ExactWindow=82f66c98e2ffaf47",
        "zen3/ByteHitRatio/ExactWindow=00935255342006e0",
        "zen3/CostAware/Coverage=4e086cf0f91ae472",
        "zen4/ObjectHitRatio/ExactWindow=79df045ea55d4339",
        "zen4/ByteHitRatio/ExactWindow=6175aa878b2b6a61",
        "zen4/CostAware/Coverage=dc7e88eab9f7baa0",
    ];
    assert_eq!(got, want);
}

/// Pins the FLACK solve's exact work on the benchmark's `sweep-full` input
/// (11 apps × 30 000 accesses, zen3, the seed-1 variant). Its 704 per-set
/// solves augment 5 618 times in all. Each takes its first augmenting path
/// from the potential pass, so each runs one Dijkstra search fewer than it
/// augments: 5 618 − 704 = 4 914.
#[test]
fn flack_search_count_is_pinned() {
    use uopcache::trace::{build_trace, AppId, InputVariant};
    let searches: u64 = AppId::ALL
        .iter()
        .map(|&app| {
            let trace = build_trace(app, InputVariant::new(9_505_325), 30_000);
            foo::solve(&trace, &UopCacheConfig::zen3(), &FooConfig::flack()).searches
        })
        .sum();
    assert_eq!(searches, 4_914);
}
