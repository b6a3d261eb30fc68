//! Seeded fuzz wall for `SweepSpec::from_json`, the decoder every served
//! `submit` goes through: each field of a valid spec is mutated to wrong
//! types, edge integers, odd arrays and strings, and removed or duplicated.
//! Every input must come back `Ok` or `Err`, never as a panic, and every
//! `Ok` must name a micro-op cache that builds, for each of its policies,
//! under a peak-live-bytes bound.
//!
//! One test function runs every case in turn, so the counting global
//! allocator measures one construction at a time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use uopcache::cache::UopCache;
use uopcache::model::alloc::CountingAllocator;
use uopcache::model::json::Json;
use uopcache::model::rng::{Prng, Rng};
use uopcache::model::FrontendConfig;
use uopcache::trace::{build_trace, AppId, InputVariant};
use uopcache_bench::policies::{PolicyId, ProfileInputs};
use uopcache_bench::sweep::{SweepSpec, MAX_SPEC_ACCESSES, MAX_SPEC_SETS};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Fuzz cases per run.
const CASES: usize = 4_000;

/// The most bytes one accepted spec's micro-op cache may hold live while
/// it is built, whatever its policy: the largest accepted geometry
/// (`MAX_SPEC_SETS` sets of 64 ways) needs about 40 MB.
const PEAK_BOUND: usize = 64 << 20;

/// A valid spec touching every field `from_json` reads.
fn valid() -> Vec<(String, Json)> {
    let strs = |names: &[&str]| Json::Arr(names.iter().map(|n| Json::Str(n.to_string())).collect());
    vec![
        ("config".to_string(), Json::Str("zen3".to_string())),
        ("entries".to_string(), Json::U64(512)),
        ("ways".to_string(), Json::U64(8)),
        ("apps".to_string(), strs(&["kafka", "postgres"])),
        ("policies".to_string(), strs(&["lru", "FURBYS"])),
        ("variant".to_string(), Json::U64(0)),
        ("len".to_string(), Json::U64(1_000)),
        ("metrics".to_string(), Json::Bool(false)),
        ("scale".to_string(), Json::U64(1)),
        ("sample".to_string(), Json::U64(500)),
    ]
}

/// A value of the wrong type or at an edge, for any field.
fn hostile_value(rng: &mut Prng) -> Json {
    let edge_u64 = [
        0,
        1,
        2,
        64,
        65,
        4_096,
        u64::from(MAX_SPEC_SETS),
        u64::from(MAX_SPEC_SETS) * 64,
        u64::from(MAX_SPEC_SETS) * 64 + 64,
        MAX_SPEC_ACCESSES,
        MAX_SPEC_ACCESSES + 1,
        u64::from(u32::MAX),
        u64::from(u32::MAX) + 1,
        1 << 53,
        u64::MAX,
    ];
    match rng.gen_range(0..12u32) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::I64(-1 - (rng.next_u64() >> 2) as i64),
        3 => Json::F64([0.5, -0.0, 1e300, f64::MIN_POSITIVE][rng.gen_range(0..4usize)]),
        4 => Json::Str(
            ["", "zen4", "ZEN3", "kafka", "lru", "x"][rng.gen_range(0..6usize)].to_string(),
        ),
        5 => Json::Str("z".repeat(rng.gen_range(0..5_000usize))),
        6 => Json::Arr(Vec::new()),
        7 => Json::Obj(vec![("len".to_string(), Json::U64(1))]),
        8 => Json::U64(rng.next_u64()),
        9 => Json::U64(rng.gen_range(0..100u64)),
        _ => Json::U64(edge_u64[rng.gen_range(0..edge_u64.len())]),
    }
}

/// An array of names for `apps`/`policies`: empty, mixed types, unknown or
/// duplicated names, or every name there is.
fn hostile_names(rng: &mut Prng, field: &str) -> Json {
    let all: Vec<String> = if field == "apps" {
        AppId::ALL.iter().map(|a| a.name().to_string()).collect()
    } else {
        PolicyId::ALL.iter().map(|p| p.name().to_string()).collect()
    };
    let pick = |rng: &mut Prng| Json::Str(all[rng.gen_range(0..all.len())].clone());
    match rng.gen_range(0..6u32) {
        0 => Json::Arr(Vec::new()),
        1 => Json::Arr(all.iter().cloned().map(Json::Str).collect()),
        2 => Json::Arr(vec![pick(rng), Json::U64(3)]),
        3 => Json::Arr(vec![pick(rng), Json::Str("no-such-name".to_string())]),
        4 => {
            let name = pick(rng);
            Json::Arr(vec![name.clone(), name])
        }
        _ => Json::Arr(vec![Json::Arr(vec![pick(rng)])]),
    }
}

/// Sets `entries` and `ways` together to an edge of the accepted geometry
/// or just past it.
fn mutate_geometry(rng: &mut Prng, spec: &mut [(String, Json)]) {
    let sets = u64::from(MAX_SPEC_SETS);
    let pairs = [
        (sets * 64, 64),
        (sets * 64 + 64, 64),
        (sets, 1),
        (sets + 1, 1),
        (4_096, 8),
        (4_000_000_000, 1),
        (512, 0),
        (6_400, 100),
        (0, 1),
        (864, 12),
    ];
    let (entries, ways) = pairs[rng.gen_range(0..pairs.len())];
    for (k, v) in spec.iter_mut() {
        match k.as_str() {
            "entries" => *v = Json::U64(entries),
            "ways" => *v = Json::U64(ways),
            _ => {}
        }
    }
}

/// Applies one random mutation to one random field, or to the geometry.
fn mutate(rng: &mut Prng, spec: &mut Vec<(String, Json)>) {
    if rng.gen_bool(0.1) {
        return mutate_geometry(rng, spec);
    }
    let fields = valid();
    let field = fields[rng.gen_range(0..fields.len())].0.clone();
    let value = if (field == "apps" || field == "policies") && rng.gen_bool(0.5) {
        hostile_names(rng, &field)
    } else {
        hostile_value(rng)
    };
    match rng.gen_range(0..4u32) {
        // Missing.
        0 => spec.retain(|(k, _)| *k != field),
        // Duplicated, before or after the original.
        1 => spec.insert(rng.gen_range(0..=spec.len()), (field, value)),
        // Replaced.
        _ => match spec.iter_mut().find(|(k, _)| *k == field) {
            Some(pair) => pair.1 = value,
            None => spec.push((field, value)),
        },
    }
}

/// Live bytes at the peak of building `policy`'s cache for `cfg`.
fn build_peak(cfg: &FrontendConfig, profiles: &ProfileInputs, policy: PolicyId) -> usize {
    let (cache, stats) =
        CountingAllocator::measure(|| UopCache::new(cfg.uop_cache, policy.build(cfg, profiles, 7)));
    assert_eq!(cache.occupied_entries(), 0);
    stats.peak
}

#[test]
fn hostile_specs_decode_cleanly_and_accepted_geometries_build_in_bounded_memory() {
    let profiles = ProfileInputs::build(
        &FrontendConfig::zen3(),
        &build_trace(AppId::Kafka, InputVariant(0), 500),
    );
    let decode = |pairs: &[(String, Json)]| {
        let text = Json::Obj(pairs.to_vec()).to_string();
        let parsed = Json::parse(&text).expect("rendered JSON parses");
        catch_unwind(AssertUnwindSafe(|| SweepSpec::from_json(&parsed)))
            .unwrap_or_else(|_| panic!("from_json panicked on {text}"))
    };
    assert!(decode(&valid()).is_ok(), "the unmutated spec is valid");

    let mut rng = Prng::seed_from_u64(0x5eed_f022);
    let (mut accepted, mut rejected, mut max_peak) = (0, 0, 0);
    for _ in 0..CASES {
        let mut pairs = valid();
        for _ in 0..rng.gen_range(1..=3u32) {
            mutate(&mut rng, &mut pairs);
        }
        let Ok(spec) = decode(&pairs) else {
            rejected += 1;
            continue;
        };
        accepted += 1;
        let geometry = spec.cfg.uop_cache;
        assert!((1..=64).contains(&geometry.ways), "{geometry:?}");
        assert!(geometry.sets() <= MAX_SPEC_SETS, "{geometry:?}");
        assert!(spec.len as u64 * spec.scale <= MAX_SPEC_ACCESSES);
        assert!(!spec.apps.is_empty() && !spec.policies.is_empty());
        for name in &spec.policies {
            let id: PolicyId = name.parse().expect("accepted names resolve");
            let peak = build_peak(&spec.cfg, &profiles, id);
            assert!(
                peak <= PEAK_BOUND,
                "{name} at {geometry:?}: peak {peak} bytes"
            );
            max_peak = max_peak.max(peak);
        }
    }
    // Both outcomes are exercised, and the largest geometry was built.
    assert!(
        accepted > CASES / 10 && rejected > CASES / 2,
        "{accepted} ok, {rejected} err"
    );
    assert!(
        max_peak > PEAK_BOUND / 4,
        "largest build took {max_peak} bytes"
    );
    eprintln!("{accepted} accepted, {rejected} rejected, max peak {max_peak} bytes");
}
