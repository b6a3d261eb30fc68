//! Miss-rate experiments: §III-B, Figs. 5, 8, 10, 15, 18, 21, 22 and the
//! §VI-C coverage study.

use super::{per_app_table, reductions_vs_first};
use crate::policies::PolicyId;
use crate::runs::{mean, Arm, Cell, Knobs, Lab, TraceKey};
use crate::table::Table;
use uopcache_core::{Flack, OracleKind};
use uopcache_model::FrontendConfig;
use uopcache_sim::SimOptions;

/// The existing online policies the evaluation compares, in figure order.
const EXISTING: [PolicyId; 5] = [
    PolicyId::Srrip,
    PolicyId::ShipPlusPlus,
    PolicyId::Mockingjay,
    PolicyId::Ghrp,
    PolicyId::Thermometer,
];

/// §III-B: miss classification under LRU and the reduction a near-optimal
/// policy (FLACK) achieves on capacity and conflict misses.
pub(crate) fn sec3b_miss_classes(lab: &mut Lab) -> Vec<Table> {
    let classify = SimOptions {
        classify_misses: true,
    };
    let apps = lab.apps();
    // Online LRU, and the near-optimal (FLACK) misses vs the synchronous LRU
    // baseline, all classified.
    let arms = [
        Arm::Online(PolicyId::Lru),
        Arm::Oracle(Flack::new()),
        Arm::SyncLru,
    ];
    let cells: Vec<Cell> = (apps.iter())
        .flat_map(|&app| {
            arms.map(|arm| Cell {
                opts: classify,
                ..Cell::new(FrontendConfig::zen3(), app, arm)
            })
        })
        .collect();
    let results = lab.run(&cells);
    let mut t = Table::new(
        "SIII-B: LRU miss classes (paper: cold 0.89%, capacity 88.31%, conflict 10.8%)",
        &["app", "cold%", "capacity%", "conflict%"],
    );
    let red = |o: u64, b: u64| {
        if b == 0 {
            0.0
        } else {
            (1.0 - o as f64 / b as f64) * 100.0
        }
    };
    let (mut cold, mut cap, mut conf) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cap_red, mut conf_red, mut tot_red) = (Vec::new(), Vec::new(), Vec::new());
    for (&app, row) in apps.iter().zip(results.chunks(arms.len())) {
        let (lru, opt, base) = (row[0].uopc, row[1].uopc, row[2].uopc);
        cap_red.push(red(opt.capacity_miss_uops, base.capacity_miss_uops));
        conf_red.push(red(opt.conflict_miss_uops, base.conflict_miss_uops));
        tot_red.push(red(opt.uops_missed, base.uops_missed));
        let total = lru.uops_missed.max(1) as f64;
        cold.push(lru.cold_miss_uops as f64 / total * 100.0);
        cap.push(lru.capacity_miss_uops as f64 / total * 100.0);
        conf.push(lru.conflict_miss_uops as f64 / total * 100.0);
        t.row(&[
            app.name().to_string(),
            format!("{:.2}", cold.last().expect("pushed above")),
            format!("{:.2}", cap.last().expect("pushed above")),
            format!("{:.2}", conf.last().expect("pushed above")),
        ]);
    }
    t.row(&[
        "MEAN".into(),
        format!("{:.2}", mean(&cold)),
        format!("{:.2}", mean(&cap)),
        format!("{:.2}", mean(&conf)),
    ]);
    let mut t2 = Table::new(
        "SIII-B: near-optimal reduction (paper: capacity -23.9%, conflict -31.6%, total -24.5%)",
        &["metric", "paper", "measured"],
    );
    t2.row(&[
        "capacity miss reduction".into(),
        "23.9%".into(),
        format!("{:.1}%", mean(&cap_red)),
    ]);
    t2.row(&[
        "conflict miss reduction".into(),
        "31.6%".into(),
        format!("{:.1}%", mean(&conf_red)),
    ]);
    t2.row(&[
        "total miss reduction".into(),
        "24.5%".into(),
        format!("{:.1}%", mean(&tot_red)),
    ]);
    vec![t, t2]
}

/// Per-app miss reductions over LRU of `policies` (online, vs online LRU)
/// and of offline FLACK (vs the synchronous LRU baseline), FLACK last: one
/// row per app.
fn reductions(lab: &mut Lab, policies: &[PolicyId]) -> Vec<Vec<f64>> {
    let mut arms = vec![
        Arm::Online(PolicyId::Lru),
        Arm::Oracle(Flack::new()),
        Arm::SyncLru,
    ];
    arms.extend(policies.iter().map(|&p| Arm::Online(p)));
    let grid = lab.grid(FrontendConfig::zen3(), &arms);
    (grid.iter())
        .map(|row| {
            let online = row[3..]
                .iter()
                .map(|r| r.uopc.miss_reduction_vs(&row[0].uopc));
            online
                .chain([row[1].uopc.miss_reduction_vs(&row[2].uopc)])
                .collect()
        })
        .collect()
}

/// Fig. 5: existing online policies achieve only a fraction of FLACK's miss
/// reduction (paper: GHRP, the best, reaches 31.52% of FLACK).
pub(crate) fn fig05_existing_policies(lab: &mut Lab) -> Vec<Table> {
    let rows = reductions(lab, &EXISTING);
    let (t, means) = per_app_table(
        lab,
        "Fig. 5: miss reduction over LRU (existing policies vs offline FLACK)",
        &[
            "app",
            "SRRIP",
            "SHiP++",
            "Mockingjay",
            "GHRP",
            "Thermometer",
            "FLACK",
        ],
        &rows,
        2,
    );
    let mut t2 = Table::new("Fig. 5 summary", &["metric", "paper", "measured"]);
    let best = means[..EXISTING.len()]
        .iter()
        .copied()
        .fold(f64::MIN, f64::max);
    t2.row(&[
        "best existing / FLACK".into(),
        "31.52%".into(),
        format!("{:.1}%", best / means[EXISTING.len()].max(1e-9) * 100.0),
    ]);
    vec![t, t2]
}

/// Fig. 8: FURBYS miss reduction vs existing policies (paper: 14.34% avg,
/// GHRP best existing at 7.81%, FURBYS = 57.85% of FLACK).
pub(crate) fn fig08_furbys_miss_reduction(lab: &mut Lab) -> Vec<Table> {
    let mut policies = EXISTING.to_vec();
    policies.push(PolicyId::Furbys);
    let rows = reductions(lab, &policies);
    let (t, means) = per_app_table(
        lab,
        "Fig. 8: miss reduction over LRU",
        &[
            "app",
            "SRRIP",
            "SHiP++",
            "Mockingjay",
            "GHRP",
            "Thermometer",
            "FURBYS",
            "FLACK",
        ],
        &rows,
        2,
    );
    let (furbys, flack) = (means[5], means[6]);
    let best_existing = means[..5].iter().copied().fold(f64::MIN, f64::max);
    let mut t2 = Table::new("Fig. 8 summary", &["metric", "paper", "measured"]);
    t2.row(&[
        "FURBYS avg miss reduction".into(),
        "14.34%".into(),
        format!("{furbys:.2}%"),
    ]);
    t2.row(&[
        "FURBYS / best existing".into(),
        "1.84x (vs GHRP 7.81%)".into(),
        format!(
            "{:.2}x (vs {:.2}%)",
            furbys / best_existing.max(1e-9),
            best_existing
        ),
    ]);
    t2.row(&[
        "FURBYS / FLACK".into(),
        "57.85%".into(),
        format!("{:.1}%", furbys / flack.max(1e-9) * 100.0),
    ]);
    vec![t, t2]
}

/// Fig. 10: FLACK feature ablation vs FOO and Belady (perfect-icache-style
/// synchronous setting; paper: FLACK beats Belady by 4.46% on average).
pub(crate) fn fig10_flack_ablation(lab: &mut Lab) -> Vec<Table> {
    let variants = [
        Flack::ablation(false, false, false),
        Flack::ablation(true, false, false),
        Flack::ablation(true, true, false),
        Flack::new(),
    ];
    let mut arms = vec![Arm::SyncLru, Arm::Belady];
    arms.extend(variants.map(Arm::Oracle));
    let grid = lab.grid(FrontendConfig::zen3(), &arms);
    let rows = reductions_vs_first(&grid);
    let (t, means) = per_app_table(
        lab,
        "Fig. 10: miss reduction over LRU (offline, perfect-icache setting)",
        &["app", "Belady", "FOO", "A", "A+VC", "A+VC+SB (FLACK)"],
        &rows,
        2,
    );
    let mut t2 = Table::new("Fig. 10 summary", &["metric", "paper", "measured"]);
    t2.row(&[
        "FLACK avg miss reduction".into(),
        "30.21%".into(),
        format!("{:.2}%", means[4]),
    ]);
    t2.row(&[
        "FLACK - Belady".into(),
        "4.46%".into(),
        format!("{:.2}%", means[4] - means[0]),
    ]);
    t2.row(&[
        "FLACK - FOO".into(),
        "17.93%".into(),
        format!("{:.2}%", means[4] - means[1]),
    ]);
    vec![t, t2]
}

/// Fig. 15: FURBYS fed by profiles from Belady, FOO and FLACK (paper: FLACK
/// profiles give ~3.47% more reduction than Belady's, 4.39% more than FOO's).
pub(crate) fn fig15_profile_sources(lab: &mut Lab) -> Vec<Table> {
    let mut arms = vec![Arm::Online(PolicyId::Lru)];
    arms.extend(
        [OracleKind::Belady, OracleKind::Foo, OracleKind::Flack].map(|oracle| {
            Arm::Furbys(Knobs {
                oracle,
                ..Knobs::paper()
            })
        }),
    );
    let grid = lab.grid(FrontendConfig::zen3(), &arms);
    let rows = reductions_vs_first(&grid);
    let (t, means) = per_app_table(
        lab,
        "Fig. 15: FURBYS miss reduction by profile source",
        &["app", "Belady-profile", "FOO-profile", "FLACK-profile"],
        &rows,
        2,
    );
    let mut t2 = Table::new("Fig. 15 summary", &["metric", "paper", "measured"]);
    t2.row(&[
        "FLACK-profile - Belady-profile".into(),
        "3.47%".into(),
        format!("{:.2}%", means[2] - means[0]),
    ]);
    t2.row(&[
        "FLACK-profile - FOO-profile".into(),
        "4.39%".into(),
        format!("{:.2}%", means[2] - means[1]),
    ]);
    vec![t, t2]
}

/// Fig. 18: cross-validation — profile on training inputs, deploy on a
/// held-out input (paper: 94.34% of the same-input benefit, 13.51% vs LRU).
pub(crate) fn fig18_cross_validation(lab: &mut Lab) -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 18: cross-validation (train on inputs 0+1, test on input 2)",
        &["app", "same-input", "cross-input", "retained"],
    );
    let mut same_all = Vec::new();
    let mut cross_all = Vec::new();
    let apps = lab.apps();
    // Test on input 2: LRU, FURBYS profiled on input 2 itself, and FURBYS
    // profiled on inputs 0 and 1.
    let cross = Knobs {
        cross_input: true,
        ..Knobs::paper()
    };
    let arms = [
        Arm::Online(PolicyId::Lru),
        Arm::Online(PolicyId::Furbys),
        Arm::Furbys(cross),
    ];
    let cells: Vec<Cell> = (apps.iter())
        .flat_map(|&app| {
            arms.map(|arm| Cell {
                variant: 2,
                ..Cell::new(FrontendConfig::zen3(), app, arm)
            })
        })
        .collect();
    let results = lab.run(&cells);
    let grid: Vec<Vec<_>> = results.chunks(arms.len()).map(<[_]>::to_vec).collect();
    for (&app, reds) in apps.iter().zip(reductions_vs_first(&grid)) {
        let (same, cross) = (reds[0], reds[1]);
        same_all.push(same);
        cross_all.push(cross);
        t.row(&[
            app.name().to_string(),
            format!("{same:.2}"),
            format!("{cross:.2}"),
            format!(
                "{:.1}%",
                if same.abs() < 1e-9 {
                    0.0
                } else {
                    cross / same * 100.0
                }
            ),
        ]);
    }
    let mut t2 = Table::new("Fig. 18 summary", &["metric", "paper", "measured"]);
    t2.row(&[
        "cross-input avg reduction".into(),
        "13.51%".into(),
        format!("{:.2}%", mean(&cross_all)),
    ]);
    t2.row(&[
        "retained vs same-input".into(),
        "94.34%".into(),
        format!(
            "{:.1}%",
            mean(&cross_all) / mean(&same_all).max(1e-9) * 100.0
        ),
    ]);
    vec![t, t2]
}

/// Fig. 21: the dynamic bypass mechanism on vs off (paper: bypass adds 4.33%
/// more reduction and skips ~30% of insertions).
pub(crate) fn fig21_bypass(lab: &mut Lab) -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 21: FURBYS with bypass off/on",
        &[
            "app",
            "bypass off",
            "bypass on",
            "delta",
            "bypassed insertions",
        ],
    );
    let mut off_all = Vec::new();
    let mut on_all = Vec::new();
    let mut rate_all = Vec::new();
    let apps = lab.apps();
    let off = Knobs {
        bypass_k: u8::MAX, // disables bypassing
        ..Knobs::paper()
    };
    let grid = lab.grid(
        FrontendConfig::zen3(),
        &[
            Arm::Online(PolicyId::Lru),
            Arm::Online(PolicyId::Furbys),
            Arm::Furbys(off),
        ],
    );
    for ((&app, row), reds) in apps.iter().zip(&grid).zip(reductions_vs_first(&grid)) {
        let (on_red, off_red, rate) = (reds[0], reds[1], row[1].uopc.bypass_rate() * 100.0);
        on_all.push(on_red);
        off_all.push(off_red);
        rate_all.push(rate);
        t.row(&[
            app.name().to_string(),
            format!("{off_red:.2}"),
            format!("{on_red:.2}"),
            format!("{:.2}", on_red - off_red),
            format!("{:.1}%", rate_all.last().expect("pushed above")),
        ]);
    }
    let mut t2 = Table::new("Fig. 21 summary", &["metric", "paper", "measured"]);
    t2.row(&[
        "extra reduction from bypass".into(),
        "4.33%".into(),
        format!("{:.2}%", mean(&on_all) - mean(&off_all)),
    ]);
    t2.row(&[
        "insertions bypassed".into(),
        "~30%".into(),
        format!("{:.1}%", mean(&rate_all)),
    ]);
    vec![t, t2]
}

/// Fig. 22: per-hotness-class hit rates on Kafka (paper: all policies agree
/// on hot PWs; FURBYS wins on warm PWs; FLACK's remaining edge is in cold
/// PWs).
pub(crate) fn fig22_hotness(lab: &mut Lab) -> Vec<Table> {
    use uopcache_model::hash::FastHashMap;
    use uopcache_model::Addr;

    let cfg = FrontendConfig::zen3();
    let key = TraceKey {
        app: uopcache_trace::AppId::Kafka,
        variant: 0,
        len: lab.trace_len().max(20_000),
    };
    let trace = lab.trace(key);

    // Hotness classes by access count: hot (0) = top 10% of starts, warm (1)
    // = next 40%, cold (2) = the rest.
    let counts = trace.access_counts();
    let mut ranked: Vec<(Addr, u64)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let n = ranked.len();
    let class: FastHashMap<Addr, usize> = (ranked.iter().enumerate())
        .map(|(i, &(a, _))| (a, usize::from(i >= n / 10) + usize::from(i >= n / 2)))
        .collect();

    let mut t = Table::new(
        "Fig. 22: hit rate (%) by PW hotness class on Kafka",
        &["policy", "hot (top 10%)", "warm (10-50%)", "cold (50-100%)"],
    );
    // Online policies through the synchronous observer for per-PW hit data;
    // FLACK via its replay observations.
    let profiles = lab.profile_inputs(cfg, key);
    let mut observed: Vec<_> = [
        PolicyId::Lru,
        PolicyId::Srrip,
        PolicyId::Ghrp,
        PolicyId::Thermometer,
        PolicyId::Furbys,
    ]
    .into_iter()
    .map(|id| {
        let policy = id.build(&cfg, profiles, 0);
        let mut cache = uopcache_cache::UopCache::new(cfg.uop_cache, policy);
        (
            id.to_string(),
            uopcache_policies::run_trace_observed(&mut cache, &trace).1,
        )
    })
    .collect();
    observed.push(("FLACK".to_string(), lab.observations(cfg, key)));
    for (name, obs) in observed {
        let (mut hit, mut tot) = ([0u64; 3], [0u64; 3]);
        for &(a, h, total) in &obs {
            hit[class[&a]] += u64::from(h);
            tot[class[&a]] += u64::from(total);
        }
        let mut row = vec![name];
        row.extend((0..3).map(|c| {
            let rate = if tot[c] == 0 {
                0.0
            } else {
                hit[c] as f64 / tot[c] as f64 * 100.0
            };
            format!("{rate:.1}")
        }));
        t.row(&row);
    }
    vec![t]
}

/// §VI-C: replacement coverage — the share of victim selections FURBYS makes
/// itself rather than its SRRIP fallback (paper: 88.68%).
pub(crate) fn sec6c_coverage(lab: &mut Lab) -> Vec<Table> {
    let apps = lab.apps();
    let grid = lab.grid(FrontendConfig::zen3(), &[Arm::Online(PolicyId::Furbys)]);
    let mut t = Table::new(
        "SVI-C: FURBYS replacement coverage (paper: 88.68% average)",
        &["app", "coverage"],
    );
    let mut all = Vec::new();
    for (app, row) in apps.iter().zip(&grid) {
        let cov = row[0].uopc.replacement_coverage() * 100.0;
        all.push(cov);
        t.row(&[app.name().to_string(), format!("{cov:.2}%")]);
    }
    t.row(&["MEAN".into(), format!("{:.2}%", mean(&all))]);
    vec![t]
}
