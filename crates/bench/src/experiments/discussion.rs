//! Discussion-section studies: the non-inclusive micro-op cache (§VII) and
//! the FURBYS hardware overhead arithmetic (§VI).

use super::reductions_vs_first;
use crate::policies::PolicyId;
use crate::runs::{mean, Arm, Lab};
use crate::table::Table;
use uopcache_model::FrontendConfig;

/// §VII: a non-inclusive micro-op cache decouples it from L1i evictions and
/// effectively grows the instruction-supply capacity; the paper reports
/// FURBYS's IPC gain rising from ~0.48% (inclusive) to ~2.5% (non-inclusive).
pub(crate) fn sec7_noninclusive(lab: &mut Lab) -> Vec<Table> {
    let inclusive_cfg = FrontendConfig::zen3();
    let mut noninclusive_cfg = inclusive_cfg;
    noninclusive_cfg.uop_cache.inclusive_with_l1i = false;

    let mut t = Table::new(
        "SVII: FURBYS IPC speedup over LRU, inclusive vs non-inclusive uop cache",
        &["app", "inclusive", "non-inclusive"],
    );
    let mut inc_all = Vec::new();
    let mut non_all = Vec::new();
    let apps = lab.apps();
    let arms = [PolicyId::Lru, PolicyId::Furbys].map(Arm::Online);
    let inclusive = lab.grid(inclusive_cfg, &arms);
    let noninclusive = lab.grid(noninclusive_cfg, &arms);
    for ((app, i), n) in apps.iter().zip(&inclusive).zip(&noninclusive) {
        let (lru_i, fur_i, lru_n, fur_n) = (&i[0], &i[1], &n[0], &n[1]);
        let inc = fur_i.ipc_speedup_vs(lru_i);
        let non = fur_n.ipc_speedup_vs(lru_n);
        inc_all.push(inc);
        non_all.push(non);
        t.row(&[
            app.name().to_string(),
            format!("{inc:.3}%"),
            format!("{non:.3}%"),
        ]);
    }
    t.row(&[
        "MEAN".into(),
        format!("{:.3}%", mean(&inc_all)),
        format!("{:.3}%", mean(&non_all)),
    ]);
    let mut t2 = Table::new("SVII summary", &["metric", "paper", "measured"]);
    t2.row(&[
        "non-inclusive >= inclusive IPC gain".into(),
        "yes (2.5% vs 0.48%)".into(),
        format!("{}", mean(&non_all) >= mean(&inc_all)),
    ]);
    vec![t, t2]
}

/// §VI "Hardware and runtime overhead": FURBYS's metadata per set vs the set
/// payload — the paper computes 46 bits over 4608 bits = 1%.
pub(crate) fn sec6_hw_overhead(_lab: &mut Lab) -> Vec<Table> {
    let cfg = FrontendConfig::zen3().uop_cache;
    let weight_bits = 3u32;
    let srrip_bits = 2u32;
    let detector_slots = 2u32;
    let way_bits = 3u32; // log2(8 ways)

    let per_set_overhead = (weight_bits + srrip_bits) * cfg.ways + detector_slots * way_bits;
    // Payload per set: 56 bits/uop x 8 uops/entry + 32-bit immediates x 4
    // per entry, per way (the paper's footnote 3).
    let uop_bits = 56u32;
    let imm_bits = 32u32;
    let imms_per_entry = 4u32;
    let per_set_payload = (uop_bits * cfg.uops_per_entry + imm_bits * imms_per_entry) * cfg.ways;

    let mut t = Table::new(
        "SVI: FURBYS hardware overhead per micro-op cache set",
        &["quantity", "paper", "measured"],
    );
    t.row(&[
        "metadata bits per set".into(),
        "46".into(),
        format!("{per_set_overhead}"),
    ]);
    t.row(&[
        "payload bits per set".into(),
        "4608".into(),
        format!("{per_set_payload}"),
    ]);
    t.row(&[
        "overhead".into(),
        "1%".into(),
        format!(
            "{:.2}%",
            f64::from(per_set_overhead) / f64::from(per_set_payload) * 100.0
        ),
    ]);
    vec![t]
}

/// Extension (§VII future work): phase-aware FURBYS — per-segment weight
/// tables elected at runtime — versus standard FURBYS, targeting globally
/// cold but locally hot PWs.
pub(crate) fn ext1_phased_furbys(lab: &mut Lab) -> Vec<Table> {
    let segments = 4;
    let mut t = Table::new(
        "EXT-1: phase-aware FURBYS vs standard FURBYS (miss reduction over LRU)",
        &["app", "FURBYS", "FURBYS-phased", "delta"],
    );
    let mut flat_all = Vec::new();
    let mut phased_all = Vec::new();
    let apps = lab.apps();
    let grid = lab.grid(
        FrontendConfig::zen3(),
        &[
            Arm::Online(PolicyId::Lru),
            Arm::Online(PolicyId::Furbys),
            Arm::Phased(segments),
        ],
    );
    for (&app, reds) in apps.iter().zip(reductions_vs_first(&grid)) {
        let (f, p) = (reds[0], reds[1]);
        flat_all.push(f);
        phased_all.push(p);
        t.row(&[
            app.name().to_string(),
            format!("{f:.2}"),
            format!("{p:.2}"),
            format!("{:+.2}", p - f),
        ]);
    }
    t.row(&[
        "MEAN".into(),
        format!("{:.2}", mean(&flat_all)),
        format!("{:.2}", mean(&phased_all)),
        format!("{:+.2}", mean(&phased_all) - mean(&flat_all)),
    ]);
    vec![t]
}
