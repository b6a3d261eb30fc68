//! One function per paper table/figure.
//!
//! Every experiment takes a `quick` flag (shorter traces, fewer apps — used
//! by tests and smoke runs) and returns the tables it produces. Bench targets
//! print them; `reproduce-all` collects them into `EXPERIMENTS.md`.

pub mod discussion;
pub mod misses;
pub mod power;
pub mod sensitivity;
pub mod tables;
pub mod timing;

use crate::table::Table;

/// An experiment entry: id, paper caption, and the function that runs it.
pub struct Experiment {
    /// Identifier the `experiments` bench target selects by (e.g. `fig08`).
    pub id: &'static str,
    /// What the paper's table/figure shows.
    pub caption: &'static str,
    /// Runs the experiment.
    pub run: fn(quick: bool) -> Vec<Table>,
}

/// Every experiment, in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "tab1",
            caption: "Table I: simulation parameters (Zen3-like preset)",
            run: tables::tab1_parameters,
        },
        Experiment {
            id: "tab2",
            caption: "Table II: the 11 data center applications",
            run: tables::tab2_applications,
        },
        Experiment {
            id: "sec3b",
            caption: "SIII-B: cold/capacity/conflict miss classification",
            run: misses::sec3b_miss_classes,
        },
        Experiment {
            id: "fig02",
            caption: "Fig. 2: per-core PPW gain of perfect structures",
            run: power::fig02_perfect_structures,
        },
        Experiment {
            id: "fig05",
            caption: "Fig. 5: miss reduction of existing policies vs FLACK",
            run: misses::fig05_existing_policies,
        },
        Experiment {
            id: "fig08",
            caption: "Fig. 8: FURBYS miss reduction vs existing policies",
            run: misses::fig08_furbys_miss_reduction,
        },
        Experiment {
            id: "fig09",
            caption: "Fig. 9: performance-per-watt gain of FURBYS",
            run: power::fig09_ppw_gain,
        },
        Experiment {
            id: "fig10",
            caption: "Fig. 10: FLACK ablation (FOO, A, A+VC, A+VC+SB) vs Belady",
            run: misses::fig10_flack_ablation,
        },
        Experiment {
            id: "fig11",
            caption: "Fig. 11: IPC speedup over LRU",
            run: timing::fig11_ipc_speedup,
        },
        Experiment {
            id: "fig12",
            caption: "Fig. 12: ISO-performance (LRU capacity to match FURBYS)",
            run: timing::fig12_iso_performance,
        },
        Experiment {
            id: "fig13",
            caption: "Fig. 13: per-core energy breakdown on Clang",
            run: power::fig13_energy_breakdown,
        },
        Experiment {
            id: "fig14",
            caption: "Fig. 14: energy-reduction breakdown of FURBYS",
            run: power::fig14_energy_reduction,
        },
        Experiment {
            id: "fig15",
            caption: "Fig. 15: FURBYS with Belady/FOO/FLACK profile sources",
            run: misses::fig15_profile_sources,
        },
        Experiment {
            id: "fig16",
            caption: "Fig. 16: sensitivity to micro-op cache size and associativity",
            run: sensitivity::fig16_size_assoc,
        },
        Experiment {
            id: "fig17",
            caption: "Fig. 17: PPW gain with the Zen4-like configuration",
            run: power::fig17_zen4_ppw,
        },
        Experiment {
            id: "fig18",
            caption: "Fig. 18: cross-validation across input variants",
            run: misses::fig18_cross_validation,
        },
        Experiment {
            id: "fig19",
            caption: "Fig. 19: weight-group bits sweep",
            run: sensitivity::fig19_weight_groups,
        },
        Experiment {
            id: "fig20",
            caption: "Fig. 20: local pitfall detector depth sweep",
            run: sensitivity::fig20_pitfall_depth,
        },
        Experiment {
            id: "fig21",
            caption: "Fig. 21: FURBYS bypass mechanism on/off",
            run: misses::fig21_bypass,
        },
        Experiment {
            id: "fig22",
            caption: "Fig. 22: hit rate by PW hotness class (Kafka)",
            run: misses::fig22_hotness,
        },
        Experiment {
            id: "sec6c",
            caption: "SVI-C: FURBYS replacement coverage",
            run: misses::sec6c_coverage,
        },
        Experiment {
            id: "sec6hw",
            caption: "SVI: FURBYS hardware overhead",
            run: discussion::sec6_hw_overhead,
        },
        Experiment {
            id: "sec7",
            caption: "SVII: non-inclusive micro-op cache IPC study",
            run: discussion::sec7_noninclusive,
        },
        Experiment {
            id: "ext1",
            caption: "EXT-1 (SVII future work): phase-aware FURBYS",
            run: discussion::ext1_phased_furbys,
        },
    ]
}

/// Looks up one experiment by id.
pub fn by_id(id: &str) -> Option<Experiment> {
    all().into_iter().find(|e| e.id == id)
}

/// The apps used in quick mode.
pub(crate) fn quick_apps() -> Vec<uopcache_trace::AppId> {
    vec![
        uopcache_trace::AppId::Kafka,
        uopcache_trace::AppId::Postgres,
    ]
}

/// The app set for a mode.
pub(crate) fn apps_for(quick: bool) -> Vec<uopcache_trace::AppId> {
    if quick {
        quick_apps()
    } else {
        crate::apps::standard_apps().to_vec()
    }
}

/// The trace length for a mode.
pub(crate) fn len_for(quick: bool) -> usize {
    if quick {
        8_000
    } else {
        crate::apps::TRACE_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_complete() {
        let ids: Vec<&str> = all().iter().map(|e| e.id).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
        assert_eq!(
            ids.len(),
            24,
            "tables + figures + section studies + extension"
        );
        assert!(by_id("fig08").is_some());
        assert!(by_id("nope").is_none());
    }
}
