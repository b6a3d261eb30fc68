//! Table I (simulation parameters) and Table II (applications).

use crate::runs::{Lab, TraceKey};
use crate::table::Table;
use uopcache_model::FrontendConfig;
use uopcache_trace::TraceStats;

/// Table I: the Zen3-like simulation parameters, paper vs. configured.
pub(crate) fn tab1_parameters(_lab: &mut Lab) -> Vec<Table> {
    let cfg = FrontendConfig::zen3();
    let mut t = Table::new(
        "Table I: simulation parameters",
        &["parameter", "paper", "configured"],
    );
    let rows: Vec<(&str, String, String)> = vec![
        (
            "CPU",
            "3.2GHz, 6-wide OoO, 256-entry ROB, 96-entry RS".into(),
            format!(
                "{:.1}GHz, {}-wide OoO, {}-entry ROB, {}-entry RS",
                cfg.backend.freq_ghz,
                cfg.backend.width,
                cfg.backend.rob_entries,
                cfg.backend.rs_entries
            ),
        ),
        (
            "Decoder",
            "4-wide, 5-cycle latency".into(),
            format!(
                "{}-wide, {}-cycle latency",
                cfg.decoder.width, cfg.decoder.latency
            ),
        ),
        (
            "Branch predictor",
            "8192-entry 4-way BTB, 32-entry RAS, 4096-entry IBTB".into(),
            format!(
                "{}-entry {}-way BTB, {}-entry RAS, {}-entry IBTB",
                cfg.bpu.btb_entries, cfg.bpu.btb_ways, cfg.bpu.ras_entries, cfg.bpu.ibtb_entries
            ),
        ),
        (
            "Micro-op cache",
            "512-entry, 8-way, 8 uops/entry, inclusive with L1i, 1-cycle switch".into(),
            format!(
                "{}-entry, {}-way, {} uops/entry, inclusive={}, {}-cycle switch",
                cfg.uop_cache.entries,
                cfg.uop_cache.ways,
                cfg.uop_cache.uops_per_entry,
                cfg.uop_cache.inclusive_with_l1i,
                cfg.uop_cache.switch_penalty
            ),
        ),
        (
            "L1i",
            "64B-line, 32KiB, 8-way, 1-cycle, LRU".into(),
            format!(
                "{}B-line, {}KiB, {}-way, {}-cycle, LRU",
                cfg.icache.line_bytes,
                cfg.icache.size_bytes / 1024,
                cfg.icache.ways,
                cfg.icache.latency
            ),
        ),
    ];
    for (name, paper, ours) in rows {
        t.row(&[name.to_string(), paper, ours]);
    }
    vec![t]
}

/// Table II: applications, paper branch MPKI vs. the MPKI implied by the
/// synthetic traces, plus the static footprint pressure.
pub(crate) fn tab2_applications(lab: &mut Lab) -> Vec<Table> {
    let mut t = Table::new(
        "Table II: data center applications",
        &[
            "app",
            "description",
            "paper MPKI",
            "trace MPKI",
            "footprint (entries)",
            "reuse>30",
        ],
    );
    let len = lab.trace_len();
    for app in lab.apps() {
        let trace = lab.trace(TraceKey {
            app,
            variant: 0,
            len,
        });
        let stats = TraceStats::from_trace(&trace, 8);
        t.row(&[
            app.name().to_string(),
            app.description().to_string(),
            format!("{:.2}", app.branch_mpki()),
            format!("{:.2}", stats.implied_mpki),
            format!("{}", stats.footprint_entries),
            format!("{:.0}%", stats.reuse_gt_30 * 100.0),
        ]);
    }
    vec![t]
}
