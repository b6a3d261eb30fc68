//! IPC experiments: Figs. 11 and 12.

use super::per_app_table;
use crate::policies::PolicyId;
use crate::runs::{mean, Arm, Lab};
use crate::table::Table;
use uopcache_model::FrontendConfig;

/// Fig. 11: IPC speedup over LRU (paper: FURBYS 0.47-0.49% on average —
/// miss reduction translates only partially into IPC).
pub(crate) fn fig11_ipc_speedup(lab: &mut Lab) -> Vec<Table> {
    let grid = lab.grid(FrontendConfig::zen3(), &PolicyId::ONLINE.map(Arm::Online));
    let rows: Vec<Vec<f64>> = (grid.iter())
        .map(|row| row[1..].iter().map(|r| r.ipc_speedup_vs(&row[0])).collect())
        .collect();
    let (t, means) = per_app_table(
        lab,
        "Fig. 11: IPC speedup over LRU (%)",
        &[
            "app",
            "SRRIP",
            "SHiP++",
            "Mockingjay",
            "GHRP",
            "Thermometer",
            "FURBYS",
        ],
        &rows,
        3,
    );
    let mut t2 = Table::new("Fig. 11 summary", &["metric", "paper", "measured"]);
    t2.row(&[
        "FURBYS IPC speedup".into(),
        "0.47%".into(),
        format!("{:.3}%", means[5]),
    ]);
    t2.row(&[
        "speedup is much smaller than miss reduction".into(),
        "yes (0.47% vs 14.34%)".into(),
        format!("{}", means[5] < 5.0),
    ]);
    vec![t, t2]
}

/// Fig. 12: ISO-performance — how much larger an LRU-managed micro-op cache
/// must be to match FURBYS at 512 entries (paper: 1.5x on average, up to 2x).
pub(crate) fn fig12_iso_performance(lab: &mut Lab) -> Vec<Table> {
    let base_cfg = FrontendConfig::zen3();
    let sizes: &[u32] = &[512, 640, 768, 1024, 1536, 2048];

    let mut t = Table::new(
        "Fig. 12: LRU missed uops by capacity vs FURBYS@512 (per-app)",
        &[
            "app",
            "FURBYS@512",
            "LRU@512",
            "LRU@768",
            "LRU@1024",
            "LRU@2048",
            "ISO size",
        ],
    );
    let mut ratios = Vec::new();
    let apps = lab.apps();
    let furbys = lab.grid(base_cfg, &[Arm::Online(PolicyId::Furbys)]);
    let lru: Vec<Vec<_>> = (sizes.iter())
        .map(|&s| {
            let mut cfg = base_cfg;
            cfg.uop_cache = cfg.uop_cache.with_entries(s);
            lab.grid(cfg, &[Arm::Online(PolicyId::Lru)])
        })
        .collect();
    for (a, app) in apps.iter().enumerate() {
        let furbys = furbys[a][0].uopc.uops_missed;
        let by_size: Vec<(u32, u64)> = (sizes.iter().zip(&lru))
            .map(|(&s, grid)| (s, grid[a][0].uopc.uops_missed))
            .collect();
        // First LRU capacity whose misses drop to (or below) FURBYS's.
        let iso = by_size
            .iter()
            .find(|(_, m)| *m <= furbys)
            .map(|(s, _)| *s)
            .unwrap_or(*sizes.last().expect("sizes is nonempty"));
        ratios.push(f64::from(iso) / 512.0);
        let get = |s: u32| {
            by_size
                .iter()
                .find(|(x, _)| *x == s)
                .map(|(_, m)| *m)
                .unwrap_or(0)
        };
        t.row(&[
            app.name().to_string(),
            format!("{furbys}"),
            format!("{}", get(512)),
            format!("{}", get(768)),
            format!("{}", get(1024)),
            format!("{}", get(2048)),
            format!("{:.2}x", f64::from(iso) / 512.0),
        ]);
    }
    let mut t2 = Table::new("Fig. 12 summary", &["metric", "paper", "measured"]);
    t2.row(&[
        "avg ISO capacity for LRU".into(),
        "~1.5x (up to 2x)".into(),
        format!("{:.2}x", mean(&ratios)),
    ]);
    vec![t, t2]
}
