//! Sensitivity studies: Figs. 16, 19 and 20.

use super::{column, reductions_vs_first};
use crate::policies::PolicyId;
use crate::runs::{mean, Arm, Knobs, Lab};
use crate::table::Table;
use uopcache_model::FrontendConfig;

/// Fig. 16: FURBYS vs the best existing policies across micro-op cache sizes
/// and associativities (paper: FURBYS wins everywhere; the gap shrinks as
/// capacity misses vanish).
pub(crate) fn fig16_size_assoc(lab: &mut Lab) -> Vec<Table> {
    let configs: &[(u32, u32)] = if lab.quick() {
        &[(256, 8), (512, 8)]
    } else {
        &[
            (256, 4),
            (256, 8),
            (512, 4),
            (512, 8),
            (512, 16),
            (1024, 8),
            (2048, 8),
        ]
    };
    let mut t = Table::new(
        "Fig. 16: avg miss reduction over LRU by geometry (entries x ways)",
        &["entries", "ways", "GHRP", "Thermometer", "FURBYS"],
    );
    for &(entries, ways) in configs {
        let mut cfg = FrontendConfig::zen3();
        cfg.uop_cache = cfg.uop_cache.with_entries(entries).with_ways(ways);
        let arms = [
            PolicyId::Lru,
            PolicyId::Ghrp,
            PolicyId::Thermometer,
            PolicyId::Furbys,
        ]
        .map(Arm::Online);
        let reds = reductions_vs_first(&lab.grid(cfg, &arms));
        let mut row = vec![format!("{entries}"), format!("{ways}")];
        row.extend((0..3).map(|i| format!("{:.2}", mean(&column(&reds, i)))));
        t.row(&row);
    }
    vec![t]
}

/// Fig. 19: miss reduction as a function of the weight-group hint width
/// (paper: 3 bits is the sweet spot; more bits add hardware, not benefit).
pub(crate) fn fig19_weight_groups(lab: &mut Lab) -> Vec<Table> {
    let bits: &[u8] = if lab.quick() {
        &[1, 3]
    } else {
        &[1, 2, 3, 4, 5, 6, 8]
    };
    let mut t = Table::new(
        "Fig. 19: avg miss reduction by weight-group bits (paper picks 3)",
        &["bits", "groups", "miss reduction"],
    );
    let mut arms = vec![Arm::Online(PolicyId::Lru)];
    arms.extend(bits.iter().map(|&bits| {
        let mut knobs = Knobs::paper();
        knobs.weight_cfg.bits = bits;
        Arm::Furbys(knobs)
    }));
    let reds = reductions_vs_first(&lab.grid(FrontendConfig::zen3(), &arms));
    for (i, &b) in bits.iter().enumerate() {
        t.row(&[
            format!("{b}"),
            format!("{}", 1u16 << b),
            format!("{:.2}%", mean(&column(&reds, i))),
        ]);
    }
    vec![t]
}

/// Fig. 20: miss reduction as a function of the local pitfall detector depth
/// (paper: depth 2 is best).
pub(crate) fn fig20_pitfall_depth(lab: &mut Lab) -> Vec<Table> {
    let depths: &[usize] = if lab.quick() {
        &[0, 2]
    } else {
        &[0, 1, 2, 3, 4, 6]
    };
    let mut t = Table::new(
        "Fig. 20: avg miss reduction by pitfall-detector depth (paper picks 2)",
        &["depth", "miss reduction", "coverage"],
    );
    // Every depth deploys the same profile: it does not depend on the
    // detector.
    let mut arms = vec![Arm::Online(PolicyId::Lru)];
    arms.extend(depths.iter().map(|&detector_depth| {
        Arm::Furbys(Knobs {
            detector_depth,
            ..Knobs::paper()
        })
    }));
    let grid = lab.grid(FrontendConfig::zen3(), &arms);
    let reds = reductions_vs_first(&grid);
    for (i, &d) in depths.iter().enumerate() {
        let covs: Vec<f64> = (grid.iter())
            .map(|row| row[i + 1].uopc.replacement_coverage() * 100.0)
            .collect();
        t.row(&[
            format!("{d}"),
            format!("{:.2}%", mean(&column(&reds, i))),
            format!("{:.1}%", mean(&covs)),
        ]);
    }
    vec![t]
}
