//! Energy / performance-per-watt experiments: Figs. 2, 9, 13, 14, 17.

use super::per_app_table;
use crate::policies::PolicyId;
use crate::runs::{mean, Arm, Cell, Lab};
use crate::table::Table;
use uopcache_model::FrontendConfig;
use uopcache_power::{ppw_gain_percent, EnergyModel};

/// Fig. 2: per-core PPW gain of making one structure perfect (paper: the
/// perfect micro-op cache gives the largest gain, 7.41% on average).
pub(crate) fn fig02_perfect_structures(lab: &mut Lab) -> Vec<Table> {
    let base_cfg = FrontendConfig::zen3();
    let model = EnergyModel::zen3_22nm(&base_cfg);
    let configs: Vec<FrontendConfig> = (0..5)
        .map(|i| {
            let mut cfg = base_cfg;
            match i {
                0 => {}
                1 => cfg.perfect.uop_cache = true,
                2 => cfg.perfect.icache = true,
                3 => cfg.perfect.btb = true,
                _ => cfg.perfect.branch_predictor = true,
            }
            cfg
        })
        .collect();
    let apps = lab.apps();
    let cells: Vec<Cell> = (apps.iter())
        .flat_map(|&app| {
            (configs.iter()).map(move |&cfg| Cell::new(cfg, app, Arm::Online(PolicyId::Lru)))
        })
        .collect();
    let results = lab.run(&cells);
    let rows: Vec<Vec<f64>> = (results.chunks(configs.len()))
        .map(|row| {
            (row[1..].iter())
                .map(|p| ppw_gain_percent(&model, p, &row[0]))
                .collect()
        })
        .collect();
    let (t, means) = per_app_table(
        lab,
        "Fig. 2: PPW gain of perfect structures over the LRU baseline",
        &[
            "app",
            "perfect uop cache",
            "perfect icache",
            "perfect BTB",
            "perfect BP",
        ],
        &rows,
        2,
    );
    let mut t2 = Table::new("Fig. 2 summary", &["metric", "paper", "measured"]);
    t2.row(&[
        "perfect uop cache PPW gain".into(),
        "7.41% (largest of all structures)".into(),
        format!("{:.2}%", means[0]),
    ]);
    t2.row(&[
        "uop cache is the largest lever".into(),
        "yes".into(),
        format!(
            "{}",
            means.iter().copied().fold(f64::MIN, f64::max) <= means[0] + 1e-9
        ),
    ]);
    vec![t, t2]
}

/// Fig. 9: PPW gain of FURBYS and the baselines over LRU (paper: FURBYS
/// 3.10%, surpassing existing policies by 5.1x).
pub(crate) fn fig09_ppw_gain(lab: &mut Lab) -> Vec<Table> {
    ppw_table(
        lab,
        FrontendConfig::zen3(),
        "Fig. 9: per-core PPW gain over LRU (Zen3)",
        "3.10%",
    )
}

/// Fig. 17: the same study on the Zen4-like frontend (paper: FURBYS 2.41%).
pub(crate) fn fig17_zen4_ppw(lab: &mut Lab) -> Vec<Table> {
    ppw_table(
        lab,
        FrontendConfig::zen4(),
        "Fig. 17: per-core PPW gain over LRU (Zen4-like)",
        "2.41%",
    )
}

fn ppw_table(lab: &mut Lab, cfg: FrontendConfig, title: &str, paper_furbys: &str) -> Vec<Table> {
    let model = EnergyModel::zen3_22nm(&cfg);
    let grid = lab.grid(cfg, &PolicyId::ONLINE.map(Arm::Online));
    let rows: Vec<Vec<f64>> = (grid.iter())
        .map(|row| {
            (row[1..].iter())
                .map(|r| ppw_gain_percent(&model, r, &row[0]))
                .collect()
        })
        .collect();
    let (t, means) = per_app_table(
        lab,
        title,
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
        2,
    );
    let mut t2 = Table::new("summary", &["metric", "paper", "measured"]);
    t2.row(&[
        "FURBYS avg PPW gain".into(),
        paper_furbys.into(),
        format!("{:.2}%", means[5]),
    ]);
    vec![t, t2]
}

/// Fig. 13: per-core energy breakdown on Clang for (a) no micro-op cache,
/// (b) LRU micro-op cache, (c) FURBYS — normalised to (a).
pub(crate) fn fig13_energy_breakdown(lab: &mut Lab) -> Vec<Table> {
    let app = uopcache_trace::AppId::Clang;
    let cfg = FrontendConfig::zen3();
    let model = EnergyModel::zen3_22nm(&cfg);

    // (a) Baseline without a micro-op cache: smallest legal geometry so
    // effectively everything streams through the decoders.
    let mut no_uopc = cfg;
    no_uopc.uop_cache.entries = 1;
    no_uopc.uop_cache.ways = 1;
    no_uopc.uop_cache.uops_per_entry = 1;
    no_uopc.uop_cache.max_entries_per_pw = 1;
    let runs = lab.run(&[
        Cell::new(no_uopc, app, Arm::Online(PolicyId::Lru)),
        Cell::new(cfg, app, Arm::Online(PolicyId::Lru)),
        Cell::new(cfg, app, Arm::Online(PolicyId::Furbys)),
    ]);
    let [base_b, lru_b, furbys_b] = [0, 1, 2].map(|i| model.evaluate(&runs[i]));

    let mut t = Table::new(
        "Fig. 13: per-core energy on Clang, normalised to no-uop-cache baseline",
        &["component", "(a) no uop cache", "(b) LRU", "(c) FURBYS"],
    );
    let total = base_b.total();
    let pct = |v: f64| format!("{:.1}%", v / total * 100.0);
    t.row(&[
        "decoder".into(),
        pct(base_b.decoder),
        pct(lru_b.decoder),
        pct(furbys_b.decoder),
    ]);
    t.row(&[
        "icache".into(),
        pct(base_b.icache),
        pct(lru_b.icache),
        pct(furbys_b.icache),
    ]);
    t.row(&[
        "uop cache".into(),
        pct(base_b.uop_cache),
        pct(lru_b.uop_cache),
        pct(furbys_b.uop_cache),
    ]);
    t.row(&[
        "others".into(),
        pct(base_b.others()),
        pct(lru_b.others()),
        pct(furbys_b.others()),
    ]);
    t.row(&[
        "TOTAL".into(),
        pct(total),
        pct(lru_b.total()),
        pct(furbys_b.total()),
    ]);

    let mut t2 = Table::new("Fig. 13 summary", &["metric", "paper", "measured"]);
    t2.row(&[
        "decoder share of baseline".into(),
        "12.5%".into(),
        format!("{:.1}%", base_b.decoder / total * 100.0),
    ]);
    t2.row(&[
        "icache share of baseline".into(),
        "7.7%".into(),
        format!("{:.1}%", base_b.icache / total * 100.0),
    ]);
    t2.row(&[
        "LRU uop cache saving".into(),
        "8.1%".into(),
        format!("{:.1}%", (1.0 - lru_b.total() / total) * 100.0),
    ]);
    t2.row(&[
        "additional FURBYS saving".into(),
        "2.2%".into(),
        format!("{:.1}%", (lru_b.total() - furbys_b.total()) / total * 100.0),
    ]);
    vec![t, t2]
}

/// Fig. 14: where FURBYS's energy reduction over LRU comes from (paper:
/// 73.26% fewer micro-op cache insertions, 16.35% decoder, 7.75% icache).
pub(crate) fn fig14_energy_reduction(lab: &mut Lab) -> Vec<Table> {
    let cfg = FrontendConfig::zen3();
    let model = EnergyModel::zen3_22nm(&cfg);
    let mut decoder = Vec::new();
    let mut icache = Vec::new();
    let mut uopc = Vec::new();
    let mut other = Vec::new();
    let mut t = Table::new(
        "Fig. 14: energy-reduction breakdown of FURBYS vs LRU",
        &[
            "app",
            "decoder",
            "icache",
            "uop cache (insertions)",
            "others",
        ],
    );
    let apps = lab.apps();
    let grid = lab.grid(cfg, &[PolicyId::Lru, PolicyId::Furbys].map(Arm::Online));
    for (app, row) in apps.iter().zip(&grid) {
        let lru = model.evaluate(&row[0]);
        let fur = model.evaluate(&row[1]);
        let saved = (lru.total() - fur.total()).max(1e-12);
        let d = (lru.decoder - fur.decoder) / saved * 100.0;
        let i = (lru.icache - fur.icache) / saved * 100.0;
        let u = (lru.uop_cache - fur.uop_cache) / saved * 100.0;
        let o = 100.0 - d - i - u;
        decoder.push(d);
        icache.push(i);
        uopc.push(u);
        other.push(o);
        t.row(&[
            app.name().to_string(),
            format!("{d:.1}%"),
            format!("{i:.1}%"),
            format!("{u:.1}%"),
            format!("{o:.1}%"),
        ]);
    }
    t.row(&[
        "MEAN".into(),
        format!("{:.1}%", mean(&decoder)),
        format!("{:.1}%", mean(&icache)),
        format!("{:.1}%", mean(&uopc)),
        format!("{:.1}%", mean(&other)),
    ]);
    let mut t2 = Table::new("Fig. 14 summary", &["source", "paper", "measured"]);
    t2.row(&[
        "uop cache insertions".into(),
        "73.26%".into(),
        format!("{:.1}%", mean(&uopc)),
    ]);
    t2.row(&[
        "decoder".into(),
        "16.35%".into(),
        format!("{:.1}%", mean(&decoder)),
    ]);
    t2.row(&[
        "icache".into(),
        "7.75%".into(),
        format!("{:.1}%", mean(&icache)),
    ]);
    vec![t, t2]
}
