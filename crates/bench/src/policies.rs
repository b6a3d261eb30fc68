//! Typed policy identities and construction for the experiment drivers.
//!
//! [`PolicyId`] replaces the old stringly `make_policy`/`make_policy_seeded`
//! pair: every policy the evaluation compares is an enum variant, so
//! construction is one exhaustive `match`, CLI round-tripping goes through
//! `FromStr`/`Display`, and the audit `unique-policy-names` rule keys off a
//! single authoritative list.

use std::str::FromStr;
use uopcache_cache::{LruPolicy, PwReplacementPolicy};
use uopcache_core::{FurbysPipeline, Profile};
use uopcache_model::hash::FastHashMap;
use uopcache_model::{Addr, FrontendConfig, LookupTrace};
use uopcache_offline::foo::FooSolution;
use uopcache_policies::{
    profile::lru_pw_hit_rates, ArcPolicy, CarPolicy, ClockPolicy, FifoPolicy, GhrpPolicy,
    LfuPolicy, MockingjayPolicy, MruPolicy, RandomPolicy, SetDuelingPolicy, ShipPlusPlusPolicy,
    SlruPolicy, SrripPolicy, ThermometerPolicy, TwoQPolicy,
};

/// The identity of one replacement policy under evaluation.
///
/// `Display` renders the canonical figure label (`"SHiP++"`, `"FURBYS"`);
/// `FromStr` accepts those labels case-insensitively, so CLI flags
/// round-trip through the enum.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, PartialOrd, Ord)]
pub enum PolicyId {
    /// Least-recently-used (the baseline).
    Lru,
    /// Static re-reference interval prediction.
    Srrip,
    /// Signature-based hit prediction (SHiP++).
    ShipPlusPlus,
    /// Mockingjay's estimated-time-of-arrival replacement.
    Mockingjay,
    /// Global-history reuse prediction.
    Ghrp,
    /// Thermometer's profile-guided BTB-style port.
    Thermometer,
    /// The paper's profile-guided policy (FLACK-derived hints).
    Furbys,
    /// Uniform-random victim selection (seeded per task).
    Random,
    /// First-in-first-out (insertion-order) victim selection.
    Fifo,
    /// Most-recently-used victim selection (anti-recency extreme).
    Mru,
    /// In-cache least-frequently-used (hit-count) victim selection.
    Lfu,
    /// Second-chance clock sweep over per-way reference bits.
    Clock,
    /// Segmented LRU: probation/protected segments within each set.
    Slru,
    /// 2Q: A1in/Am queues with an A1out ghost list.
    TwoQ,
    /// Adaptive replacement cache: T1/T2 lists balanced by B1/B2 ghost hits.
    Arc,
    /// Clock with adaptive replacement: CLOCK sweeps over ARC's lists.
    Car,
    /// Set-dueling dynamic selection over the zoo candidates.
    SetDueling,
}

impl PolicyId {
    /// The online policies compared throughout the evaluation, in figure
    /// order (LRU is the baseline and listed first).
    pub const ONLINE: [PolicyId; 7] = [
        PolicyId::Lru,
        PolicyId::Srrip,
        PolicyId::ShipPlusPlus,
        PolicyId::Mockingjay,
        PolicyId::Ghrp,
        PolicyId::Thermometer,
        PolicyId::Furbys,
    ];

    /// The classic zoo the set-dueling work selects over, plus the dueling
    /// meta-policy itself (listed last).
    pub const ZOO: [PolicyId; 9] = [
        PolicyId::Fifo,
        PolicyId::Mru,
        PolicyId::Lfu,
        PolicyId::Clock,
        PolicyId::Slru,
        PolicyId::TwoQ,
        PolicyId::Arc,
        PolicyId::Car,
        PolicyId::SetDueling,
    ];

    /// Every constructible policy: [`ONLINE`](Self::ONLINE), the seeded
    /// `Random` control, then the [`ZOO`](Self::ZOO).
    pub const ALL: [PolicyId; 17] = [
        PolicyId::Lru,
        PolicyId::Srrip,
        PolicyId::ShipPlusPlus,
        PolicyId::Mockingjay,
        PolicyId::Ghrp,
        PolicyId::Thermometer,
        PolicyId::Furbys,
        PolicyId::Random,
        PolicyId::Fifo,
        PolicyId::Mru,
        PolicyId::Lfu,
        PolicyId::Clock,
        PolicyId::Slru,
        PolicyId::TwoQ,
        PolicyId::Arc,
        PolicyId::Car,
        PolicyId::SetDueling,
    ];

    /// The canonical label, exactly as the figures and JSON reports spell
    /// it. Matches `PwReplacementPolicy::name` of the constructed policy.
    pub fn name(self) -> &'static str {
        match self {
            PolicyId::Lru => "LRU",
            PolicyId::Srrip => "SRRIP",
            PolicyId::ShipPlusPlus => "SHiP++",
            PolicyId::Mockingjay => "Mockingjay",
            PolicyId::Ghrp => "GHRP",
            PolicyId::Thermometer => "Thermometer",
            PolicyId::Furbys => "FURBYS",
            PolicyId::Random => "Random",
            PolicyId::Fifo => "FIFO",
            PolicyId::Mru => "MRU",
            PolicyId::Lfu => "LFU",
            PolicyId::Clock => "CLOCK",
            PolicyId::Slru => "SLRU",
            PolicyId::TwoQ => "2Q",
            PolicyId::Arc => "ARC",
            PolicyId::Car => "CAR",
            PolicyId::SetDueling => "set-dueling",
        }
    }

    /// Whether the policy consumes the per-task seed (only `Random` does;
    /// every other listed policy is deterministic by construction).
    pub fn is_seeded(self) -> bool {
        matches!(self, PolicyId::Random)
    }

    /// Whether the policy is built from a profile of its trace, i.e. reads
    /// [`ProfileInputs`]: Thermometer its LRU hit rates, FURBYS its FLACK
    /// profile.
    pub fn reads_profile(self) -> bool {
        matches!(self, PolicyId::Thermometer | PolicyId::Furbys)
    }

    /// Instantiates the policy. `seed` is the task-key-derived seed and is
    /// only consumed by [`is_seeded`](Self::is_seeded) policies, so parallel
    /// sweeps stay reproducible (the seed is a pure function of the task,
    /// never of scheduling).
    pub fn build(
        self,
        cfg: &FrontendConfig,
        profiles: &ProfileInputs,
        seed: u64,
    ) -> Box<dyn PwReplacementPolicy> {
        match self {
            PolicyId::Lru => Box::new(LruPolicy::new()),
            PolicyId::Srrip => Box::new(SrripPolicy::new()),
            PolicyId::ShipPlusPlus => Box::new(ShipPlusPlusPolicy::new()),
            PolicyId::Mockingjay => Box::new(MockingjayPolicy::new()),
            PolicyId::Ghrp => Box::new(GhrpPolicy::new()),
            PolicyId::Thermometer => {
                Box::new(ThermometerPolicy::from_hit_rates(&profiles.lru_rates))
            }
            PolicyId::Furbys => {
                let pipeline = FurbysPipeline::new(*cfg);
                Box::new(pipeline.policy(&profiles.furbys))
            }
            PolicyId::Random => Box::new(RandomPolicy::new(seed)),
            PolicyId::Fifo => Box::new(FifoPolicy::new()),
            PolicyId::Mru => Box::new(MruPolicy::new()),
            PolicyId::Lfu => Box::new(LfuPolicy::new()),
            PolicyId::Clock => Box::new(ClockPolicy::new()),
            PolicyId::Slru => Box::new(SlruPolicy::new()),
            PolicyId::TwoQ => Box::new(TwoQPolicy::new()),
            PolicyId::Arc => Box::new(ArcPolicy::new()),
            PolicyId::Car => Box::new(CarPolicy::new()),
            PolicyId::SetDueling => Box::new(SetDuelingPolicy::default_zoo()),
        }
    }
}

impl std::fmt::Display for PolicyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PolicyId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicyId::ALL
            .into_iter()
            .find(|id| id.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown policy {s:?}"))
    }
}

/// A fixed roster of policies, for call sites that resolve user input
/// against a specific subset (the CLI's `simulate` accepts any policy, its
/// `compare` only the online ones).
#[derive(Clone, Debug)]
pub struct PolicyRegistry {
    ids: Vec<PolicyId>,
}

impl PolicyRegistry {
    /// The online-policy roster ([`PolicyId::ONLINE`]).
    pub fn online() -> Self {
        PolicyRegistry {
            ids: PolicyId::ONLINE.to_vec(),
        }
    }

    /// Every constructible policy ([`PolicyId::ALL`]).
    pub fn all() -> Self {
        PolicyRegistry {
            ids: PolicyId::ALL.to_vec(),
        }
    }

    /// The roster, in figure order.
    pub fn ids(&self) -> &[PolicyId] {
        &self.ids
    }

    /// Resolves a user-supplied name (case-insensitive) against the roster.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names when `s` parses to no
    /// policy or to one outside the roster.
    pub fn resolve(&self, s: &str) -> Result<PolicyId, String> {
        let listed = || {
            self.ids
                .iter()
                .map(|id| id.name())
                .collect::<Vec<_>>()
                .join(", ")
        };
        match s.parse::<PolicyId>() {
            Ok(id) if self.ids.contains(&id) => Ok(id),
            Ok(id) => Err(format!(
                "policy {} is not in this roster (expected one of: {})",
                id.name(),
                listed()
            )),
            Err(_) => Err(format!(
                "unknown policy {s:?} (expected one of: {})",
                listed()
            )),
        }
    }
}

/// Profile inputs needed by the profile-guided policies. The default is
/// empty: what the other policies, which read none, are built from.
#[derive(Clone, Default)]
pub struct ProfileInputs {
    /// Per-start PW-granularity LRU hit rates (Thermometer's profile — a
    /// straight BTB-style port, blind to micro-op costs).
    pub lru_rates: FastHashMap<Addr, f64>,
    /// The FURBYS profile (FLACK-derived hints).
    pub furbys: Profile,
}

impl ProfileInputs {
    /// Profiles `train` for all profile-guided policies under `cfg`.
    pub fn build(cfg: &FrontendConfig, train: &LookupTrace) -> Self {
        Self::solved(&FurbysPipeline::new(*cfg), train, None, &PolicyId::ALL)
    }

    /// Profiles `train` under `pipeline` for the profile-guided policies
    /// among `ids` only: Thermometer's LRU hit rates when Thermometer is
    /// listed, FURBYS's profile when FURBYS is, its oracle replaying
    /// `solution` of `train` when given one (see
    /// [`FurbysPipeline::observations`]). The other inputs stay empty, as
    /// in [`ProfileInputs::default`].
    pub fn solved(
        pipeline: &FurbysPipeline,
        train: &LookupTrace,
        solution: Option<&FooSolution>,
        ids: &[PolicyId],
    ) -> Self {
        ProfileInputs {
            lru_rates: if ids.contains(&PolicyId::Thermometer) {
                lru_pw_hit_rates(train, pipeline.frontend_cfg.uop_cache)
            } else {
                FastHashMap::default()
            },
            furbys: if ids.contains(&PolicyId::Furbys) {
                pipeline.profile_observed(pipeline.observations(train, solution))
            } else {
                Profile::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::trace_for;
    use uopcache_trace::AppId;

    #[test]
    fn every_listed_policy_builds_under_its_own_name() {
        let cfg = FrontendConfig::zen3();
        let train = trace_for(AppId::Postgres, 0, 3_000);
        let profiles = ProfileInputs::build(&cfg, &train);
        for id in PolicyId::ALL {
            let p = id.build(&cfg, &profiles, 7);
            assert_eq!(p.name(), id.name());
        }
    }

    #[test]
    fn only_listed_profile_guided_policies_are_profiled() {
        let cfg = FrontendConfig::zen3();
        let train = trace_for(AppId::Postgres, 0, 3_000);
        let full = ProfileInputs::build(&cfg, &train);
        let only =
            |ids: &[PolicyId]| ProfileInputs::solved(&FurbysPipeline::new(cfg), &train, None, ids);
        let thermometer = only(&[PolicyId::Thermometer]);
        assert_eq!(thermometer.lru_rates, full.lru_rates);
        assert!(thermometer.furbys.hints.is_empty());
        let furbys = only(&[PolicyId::Lru, PolicyId::Furbys]);
        assert!(furbys.lru_rates.is_empty());
        assert_eq!(furbys.furbys.hints, full.furbys.hints);
        assert!(!full.furbys.hints.is_empty());
        let rest: Vec<PolicyId> = (PolicyId::ALL.into_iter())
            .filter(|id| !id.reads_profile())
            .collect();
        let none = only(&rest);
        assert!(none.lru_rates.is_empty() && none.furbys.hit_rates.is_empty());
    }

    #[test]
    fn names_round_trip_case_insensitively() {
        for id in PolicyId::ALL {
            assert_eq!(id.name().parse::<PolicyId>(), Ok(id));
            assert_eq!(id.name().to_lowercase().parse::<PolicyId>(), Ok(id));
            assert_eq!(id.name().to_uppercase().parse::<PolicyId>(), Ok(id));
            assert_eq!(id.to_string(), id.name());
        }
        let err = "Belady".parse::<PolicyId>().expect_err("offline-only");
        assert!(err.contains("unknown policy"), "{err}");
    }

    #[test]
    fn registry_resolves_only_its_roster() {
        let online = PolicyRegistry::online();
        assert_eq!(online.resolve("furbys"), Ok(PolicyId::Furbys));
        let err = online.resolve("random").expect_err("seeded control");
        assert!(err.contains("not in this roster"), "{err}");
        assert_eq!(
            PolicyRegistry::all().resolve("RANDOM"),
            Ok(PolicyId::Random)
        );
        let err = PolicyRegistry::all().resolve("nope").expect_err("unknown");
        assert!(err.contains("expected one of"), "{err}");
    }

    #[test]
    fn online_roster_is_all_minus_random_and_zoo() {
        assert_eq!(
            PolicyId::ONLINE.len() + 1 + PolicyId::ZOO.len(),
            PolicyId::ALL.len()
        );
        assert!(!PolicyId::ONLINE.contains(&PolicyId::Random));
        for id in PolicyId::ONLINE {
            assert!(PolicyId::ALL.contains(&id));
            assert!(!PolicyId::ZOO.contains(&id));
            assert!(!id.is_seeded());
        }
        for id in PolicyId::ZOO {
            assert!(PolicyId::ALL.contains(&id));
            assert!(!id.is_seeded());
        }
        assert!(PolicyId::Random.is_seeded());
    }

    #[test]
    fn zoo_names_are_unique_and_cli_safe() {
        let mut names: Vec<&str> = PolicyId::ALL.iter().map(|id| id.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PolicyId::ALL.len(), "duplicate policy label");
        // The dueling meta-policy resolves under its canonical CLI spelling.
        assert_eq!("set-dueling".parse::<PolicyId>(), Ok(PolicyId::SetDueling));
        assert_eq!("Set-Dueling".parse::<PolicyId>(), Ok(PolicyId::SetDueling));
    }
}
