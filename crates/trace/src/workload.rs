//! The 11 data-center applications of Table II, as calibrated workload
//! specifications.

use std::fmt;

/// One of the paper's 11 data-center applications (Table II).
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub enum AppId {
    /// Apache Cassandra (DaCapo suite). Branch MPKI 1.78.
    Cassandra,
    /// Apache Kafka (DaCapo suite). Branch MPKI 1.77.
    Kafka,
    /// Apache Tomcat (DaCapo suite). Branch MPKI 4.45.
    Tomcat,
    /// Drupal (Facebook OSS-performance). Branch MPKI 1.89.
    Drupal,
    /// MediaWiki (Facebook OSS-performance). Branch MPKI 2.35.
    Mediawiki,
    /// WordPress (Facebook OSS-performance). Branch MPKI 5.64.
    Wordpress,
    /// PostgreSQL serving pgbench. Branch MPKI 0.41.
    Postgres,
    /// MySQL serving TPC-C. Branch MPKI 0.66.
    Mysql,
    /// CPython running pyperformance. Branch MPKI 4.73.
    Python,
    /// Twitter Finagle microblogging service. Branch MPKI 4.76.
    Finagle,
    /// Clang building LLVM. Branch MPKI 1.86.
    Clang,
}

impl AppId {
    /// All 11 applications in the paper's presentation order.
    pub const ALL: [AppId; 11] = [
        AppId::Cassandra,
        AppId::Kafka,
        AppId::Tomcat,
        AppId::Drupal,
        AppId::Mediawiki,
        AppId::Wordpress,
        AppId::Postgres,
        AppId::Mysql,
        AppId::Python,
        AppId::Finagle,
        AppId::Clang,
    ];

    /// Lowercase display name used in figures.
    pub fn name(&self) -> &'static str {
        match self {
            AppId::Cassandra => "cassandra",
            AppId::Kafka => "kafka",
            AppId::Tomcat => "tomcat",
            AppId::Drupal => "drupal",
            AppId::Mediawiki => "mediawiki",
            AppId::Wordpress => "wordpress",
            AppId::Postgres => "postgres",
            AppId::Mysql => "mysql",
            AppId::Python => "python",
            AppId::Finagle => "finagle",
            AppId::Clang => "clang",
        }
    }

    /// Short description from Table II.
    pub fn description(&self) -> &'static str {
        match self {
            AppId::Cassandra | AppId::Kafka | AppId::Tomcat => {
                "from the Java DaCapo benchmark suite"
            }
            AppId::Drupal | AppId::Mediawiki | AppId::Wordpress => {
                "from Facebook's OSS-performance benchmark suite"
            }
            AppId::Postgres => "collected when used to serve pgbench queries",
            AppId::Mysql => "collected while serving TPC-C queries",
            AppId::Python => "collected while running the pyperformance benchmark suite",
            AppId::Finagle => "Twitter's microblogging service",
            AppId::Clang => "collected while building LLVM",
        }
    }

    /// Branch MPKI from Table II.
    pub fn branch_mpki(&self) -> f64 {
        match self {
            AppId::Cassandra => 1.78,
            AppId::Kafka => 1.77,
            AppId::Tomcat => 4.45,
            AppId::Drupal => 1.89,
            AppId::Mediawiki => 2.35,
            AppId::Wordpress => 5.64,
            AppId::Postgres => 0.41,
            AppId::Mysql => 0.66,
            AppId::Python => 4.73,
            AppId::Finagle => 4.76,
            AppId::Clang => 1.86,
        }
    }

    /// The calibrated workload specification for this application.
    pub fn spec(&self) -> WorkloadSpec {
        WorkloadSpec::for_app(*self)
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An input variant of an application, used for the cross-validation study
/// (Fig. 18): same binary, different dynamic behaviour (request mix, data
/// size, seeds).
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug, Default)]
pub struct InputVariant(pub u32);

impl InputVariant {
    /// The default input used for the main evaluation.
    pub const DEFAULT: InputVariant = InputVariant(0);

    /// An alternative input.
    pub const fn new(i: u32) -> Self {
        InputVariant(i)
    }
}

impl fmt::Display for InputVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "input-{}", self.0)
    }
}

/// Parameters steering static program synthesis and the dynamic walk for one
/// application.
///
/// The static parameters (regions, blocks, layout) are chosen so the
/// instruction footprint far exceeds the 512-entry micro-op cache — the paper
/// reports >99 % of misses are capacity/conflict misses — while the dynamic
/// parameters (skew, phases, branch bias) reproduce the reuse behaviour that
/// separates the replacement policies.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct WorkloadSpec {
    /// Which application this spec models.
    pub app: AppId,
    /// Number of code regions (functions / loop nests).
    pub regions: u32,
    /// Mean basic blocks per region.
    pub bbs_per_region: f64,
    /// Zipf skew of region popularity.
    pub zipf_alpha: f64,
    /// Number of program phases.
    pub phases: u32,
    /// Block executions per phase before rotating.
    pub phase_len: u32,
    /// Mean loop iterations per region activation.
    pub loop_mean: f64,
    /// Mean instructions per basic block.
    pub insts_per_bb: f64,
    /// Micro-ops per instruction.
    pub uops_per_inst: f64,
    /// Mean conditional-branch taken probability inside regions.
    pub taken_bias: f64,
    /// Branch MPKI target (drives the mispredicted flags).
    pub branch_mpki: f64,
    /// Fraction of regions that are only hot in a single phase
    /// (globally cold, locally hot — what FURBYS's pitfall detector targets).
    pub phase_local_fraction: f64,
}

impl WorkloadSpec {
    /// The calibrated spec for `app`.
    pub fn for_app(app: AppId) -> Self {
        // Base values common to the suite; per-app deltas follow.
        let mut s = WorkloadSpec {
            app,
            regions: 700,
            bbs_per_region: 9.0,
            zipf_alpha: 1.08,
            phases: 4,
            phase_len: 60_000,
            loop_mean: 3.0,
            insts_per_bb: 5.0,
            uops_per_inst: 1.12,
            taken_bias: 0.45,
            branch_mpki: app.branch_mpki(),
            phase_local_fraction: 0.12,
        };
        match app {
            // Large managed-runtime footprints, moderate skew.
            AppId::Cassandra => {
                s.regions = 1100;
                s.zipf_alpha = 1.0;
                s.phases = 5;
            }
            AppId::Kafka => {
                s.regions = 950;
                s.zipf_alpha = 1.05;
                s.phase_local_fraction = 0.16;
            }
            AppId::Tomcat => {
                s.regions = 1250;
                s.zipf_alpha = 0.95;
                s.insts_per_bb = 4.4;
            }
            // PHP request-serving: very large flat footprints.
            AppId::Drupal => {
                s.regions = 1400;
                s.zipf_alpha = 0.93;
                s.phases = 6;
            }
            AppId::Mediawiki => {
                s.regions = 1350;
                s.zipf_alpha = 0.96;
            }
            AppId::Wordpress => {
                s.regions = 1500;
                s.zipf_alpha = 0.9;
                s.insts_per_bb = 4.2;
            }
            // Databases: tighter loops, smaller hot sets, long basic blocks.
            AppId::Postgres => {
                s.regions = 650;
                s.zipf_alpha = 1.18;
                s.loop_mean = 5.0;
                s.insts_per_bb = 6.5;
                s.phases = 3;
            }
            AppId::Mysql => {
                s.regions = 750;
                s.zipf_alpha = 1.12;
                s.loop_mean = 4.5;
                s.insts_per_bb = 6.0;
            }
            // Interpreters: hot dispatch loop + long cold tail.
            AppId::Python => {
                s.regions = 1050;
                s.zipf_alpha = 1.2;
                s.insts_per_bb = 3.8;
                s.phase_local_fraction = 0.2;
            }
            AppId::Finagle => {
                s.regions = 1200;
                s.zipf_alpha = 0.98;
                s.phases = 6;
                s.phase_local_fraction = 0.18;
            }
            // Compiler: biggest footprint, phase-heavy.
            AppId::Clang => {
                s.regions = 1300;
                s.zipf_alpha = 1.0;
                s.phases = 7;
                s.insts_per_bb = 5.5;
                s.phase_local_fraction = 0.15;
            }
        }
        s
    }

    /// Deterministic seed for static program synthesis: depends only on the
    /// application so all input variants share one binary.
    pub fn program_seed(&self) -> u64 {
        0x5eed_0000 + self.app as u64
    }

    /// Deterministic seed for the dynamic walk of a given input variant.
    pub fn walk_seed(&self, variant: InputVariant) -> u64 {
        0x3a11_0000 + (self.app as u64) * 1_000 + u64::from(variant.0)
    }

    /// Probability that a conditional branch is mispredicted, derived from
    /// the Table II MPKI and the branch density of this workload.
    pub fn mispredict_prob(&self) -> f64 {
        // branches per kilo-instruction = 1000 / insts_per_bb;
        // MPKI = bpki * p  =>  p = MPKI * insts_per_bb / 1000.
        (self.branch_mpki * self.insts_per_bb / 1000.0).clamp(0.0, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_eleven_unique_apps() {
        assert_eq!(AppId::ALL.len(), 11);
        let mut names: Vec<_> = AppId::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11);
    }

    #[test]
    #[expect(
        clippy::float_cmp,
        reason = "the table constants are stored as written"
    )]
    fn table_ii_mpki_values() {
        assert_eq!(AppId::Postgres.branch_mpki(), 0.41);
        assert_eq!(AppId::Wordpress.branch_mpki(), 5.64);
        assert_eq!(AppId::Clang.branch_mpki(), 1.86);
    }

    #[test]
    fn program_seed_ignores_variant() {
        let s = WorkloadSpec::for_app(AppId::Kafka);
        assert_eq!(s.program_seed(), s.program_seed());
        assert_ne!(s.walk_seed(InputVariant(0)), s.walk_seed(InputVariant(1)));
        assert_ne!(
            WorkloadSpec::for_app(AppId::Kafka).program_seed(),
            WorkloadSpec::for_app(AppId::Clang).program_seed()
        );
    }

    #[test]
    fn mispredict_prob_tracks_mpki() {
        let hot = WorkloadSpec::for_app(AppId::Wordpress).mispredict_prob();
        let cold = WorkloadSpec::for_app(AppId::Postgres).mispredict_prob();
        assert!(hot > cold);
        assert!(hot < 0.1);
    }

    #[test]
    fn specs_have_large_footprints() {
        for app in AppId::ALL {
            let s = app.spec();
            // regions * bbs * ~1 entry each must exceed 512 entries severalfold.
            assert!(s.regions as f64 * s.bbs_per_region > 3.0 * 512.0, "{app}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(AppId::Mediawiki.to_string(), "mediawiki");
        assert_eq!(InputVariant(3).to_string(), "input-3");
    }
}
