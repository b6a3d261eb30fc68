//! Event energies, per-structure breakdown and performance-per-watt.

use uopcache_model::{FrontendConfig, SimResult};

/// Per-event energies in arbitrary consistent units (think pJ at 22 nm).
///
/// Use [`EnergyModel::zen3_22nm`] for the calibrated instance; all fields are
/// public so sensitivity studies can perturb them.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct EnergyModel {
    /// Energy per micro-op through the legacy decoders.
    pub decode_per_uop: f64,
    /// Energy per decoder-active cycle (pipeline clocking while not gated).
    pub decoder_per_active_cycle: f64,
    /// Energy per L1i line read.
    pub icache_read: f64,
    /// Energy per L1i line fill.
    pub icache_fill: f64,
    /// Energy per micro-op cache set activation (lookup).
    pub uopc_lookup: f64,
    /// Energy per micro-op cache entry read on a hit.
    pub uopc_entry_read: f64,
    /// Energy per micro-op cache entry written on insertion.
    pub uopc_entry_write: f64,
    /// Energy per branch-predictor access.
    pub bp_access: f64,
    /// Energy per BTB access.
    pub btb_access: f64,
    /// Backend (rename/issue/execute/retire) energy per retired micro-op.
    pub backend_per_uop: f64,
    /// Static/leakage energy per cycle for the whole core.
    pub static_per_cycle: f64,
}

impl EnergyModel {
    /// The calibrated 22 nm / 3.2 GHz / 1.25 V model for `cfg`.
    ///
    /// Micro-op cache energies scale CACTI-style with geometry:
    /// sub-linearly in capacity (`(entries/512)^0.5`) and associativity
    /// (`(ways/8)^0.3`) relative to the Zen3 reference point.
    pub fn zen3_22nm(cfg: &FrontendConfig) -> Self {
        let size_scale = (f64::from(cfg.uop_cache.entries) / 512.0).powf(0.5);
        let assoc_scale = (f64::from(cfg.uop_cache.ways) / 8.0).powf(0.3);
        let uopc_scale = size_scale * assoc_scale;
        let icache_scale = (f64::from(cfg.icache.size_bytes) / (32.0 * 1024.0)).powf(0.5);
        EnergyModel {
            decode_per_uop: 0.115,
            decoder_per_active_cycle: 0.05,
            icache_read: 0.34 * icache_scale,
            icache_fill: 0.68 * icache_scale,
            uopc_lookup: 0.055 * uopc_scale,
            uopc_entry_read: 0.022 * uopc_scale,
            uopc_entry_write: 0.22 * uopc_scale,
            bp_access: 0.012,
            btb_access: 0.018,
            backend_per_uop: 0.58,
            static_per_cycle: 0.22,
        }
    }

    /// Evaluates the model on one simulation result.
    pub fn evaluate(&self, r: &SimResult) -> EnergyBreakdown {
        let e = &r.events;
        EnergyBreakdown {
            decoder: e.decoded_uops as f64 * self.decode_per_uop
                + e.decoder_active_cycles as f64 * self.decoder_per_active_cycle,
            icache: e.icache_reads as f64 * self.icache_read
                + e.icache_fills as f64 * self.icache_fill,
            uop_cache: e.uopc_lookups as f64 * self.uopc_lookup
                + e.uopc_entry_reads as f64 * self.uopc_entry_read
                + e.uopc_entry_writes as f64 * self.uopc_entry_write,
            bp_btb: e.bp_accesses as f64 * self.bp_access + e.btb_accesses as f64 * self.btb_access,
            backend: e.retired_uops as f64 * self.backend_per_uop,
            static_: e.cycles as f64 * self.static_per_cycle,
            retired_instructions: e.retired_instructions,
            cycles: e.cycles,
        }
    }
}

/// Per-structure energy of one run.
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub struct EnergyBreakdown {
    /// Legacy decode pipeline.
    pub decoder: f64,
    /// L1 instruction cache.
    pub icache: f64,
    /// Micro-op cache (lookups + reads + insertions).
    pub uop_cache: f64,
    /// Branch predictor and BTB.
    pub bp_btb: f64,
    /// Backend per-uop energy.
    pub backend: f64,
    /// Static/leakage energy.
    pub static_: f64,
    /// Instructions retired (for PPW).
    pub retired_instructions: u64,
    /// Cycles elapsed.
    pub cycles: u64,
}

impl EnergyBreakdown {
    /// Total per-core energy.
    pub fn total(&self) -> f64 {
        self.decoder + self.icache + self.uop_cache + self.bp_btb + self.backend + self.static_
    }

    /// "Others" in the paper's Fig. 13 grouping: everything that is not the
    /// decoder, icache or micro-op cache.
    pub fn others(&self) -> f64 {
        self.bp_btb + self.backend + self.static_
    }

    /// Performance-per-watt: instructions retired per unit energy
    /// (equivalently instructions per Joule — the paper's energy-efficiency
    /// metric).
    pub fn ppw(&self) -> f64 {
        if self.total() <= 0.0 {
            0.0
        } else {
            self.retired_instructions as f64 / self.total()
        }
    }

    /// The fraction of total energy a component consumes, in percent.
    pub fn fraction_percent(&self, component: f64) -> f64 {
        if self.total() <= 0.0 {
            0.0
        } else {
            component / self.total() * 100.0
        }
    }
}

/// Performance-per-watt gain of `new` over `baseline`, in percent, under one
/// energy model (the Fig. 9 metric).
pub fn ppw_gain_percent(model: &EnergyModel, new: &SimResult, baseline: &SimResult) -> f64 {
    let n = model.evaluate(new).ppw();
    let b = model.evaluate(baseline).ppw();
    if b <= 0.0 {
        0.0
    } else {
        (n / b - 1.0) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_cache::LruPolicy;
    use uopcache_model::FrontendConfig;
    use uopcache_sim::Frontend;
    use uopcache_trace::{build_trace, AppId, InputVariant};

    fn run(cfg: FrontendConfig, app: AppId, n: usize) -> SimResult {
        let trace = build_trace(app, InputVariant(0), n);
        Frontend::builder(cfg)
            .policy(LruPolicy::new())
            .build()
            .run(&trace)
    }

    /// A configuration with an effectively disabled micro-op cache (everything
    /// misses through the legacy path), for baseline-without-uop-cache runs.
    fn no_uopc_cfg() -> FrontendConfig {
        let mut cfg = FrontendConfig::zen3();
        // Smallest legal geometry: 1 set x 1 way holding 1-uop windows only.
        cfg.uop_cache.entries = 1;
        cfg.uop_cache.ways = 1;
        cfg.uop_cache.max_entries_per_pw = 1;
        cfg.uop_cache.uops_per_entry = 1;
        cfg
    }

    #[test]
    fn fig13_anchor_fractions_without_uop_cache() {
        // Paper: baseline without micro-op cache spends ~12.5% on the decoder
        // and ~7.7% on the icache.
        let r = run(no_uopc_cfg(), AppId::Clang, 40_000);
        let model = EnergyModel::zen3_22nm(&no_uopc_cfg());
        let b = model.evaluate(&r);
        let decoder_pct = b.fraction_percent(b.decoder);
        let icache_pct = b.fraction_percent(b.icache);
        assert!(
            (9.0..=16.0).contains(&decoder_pct),
            "decoder fraction {decoder_pct:.1}% out of band"
        );
        assert!(
            (5.0..=11.0).contains(&icache_pct),
            "icache fraction {icache_pct:.1}% out of band"
        );
    }

    #[test]
    fn uop_cache_saves_energy_like_fig13() {
        // Adding a Zen3 micro-op cache with LRU should save roughly the
        // paper's 8.1% of per-core energy on Clang.
        let base = run(no_uopc_cfg(), AppId::Clang, 40_000);
        let with = run(FrontendConfig::zen3(), AppId::Clang, 40_000);
        let model = EnergyModel::zen3_22nm(&FrontendConfig::zen3());
        let eb = model.evaluate(&base).total();
        let ew = model.evaluate(&with).total();
        let saving = (1.0 - ew / eb) * 100.0;
        assert!(
            (2.0..=15.0).contains(&saving),
            "saving {saving:.1}% out of band"
        );
    }

    #[test]
    fn ppw_gain_positive_for_bigger_cache() {
        let small = run(FrontendConfig::zen3(), AppId::Kafka, 30_000);
        let mut big_cfg = FrontendConfig::zen3();
        big_cfg.uop_cache = big_cfg.uop_cache.with_entries(2048);
        let big = run(big_cfg, AppId::Kafka, 30_000);
        // Evaluate both under the Zen3 model (structure-identical comparison
        // of activity counts).
        let model = EnergyModel::zen3_22nm(&FrontendConfig::zen3());
        let gain = ppw_gain_percent(&model, &big, &small);
        assert!(gain > 0.0, "gain {gain:.2}%");
    }

    #[test]
    fn breakdown_sums() {
        let b = EnergyBreakdown {
            decoder: 1.0,
            icache: 2.0,
            uop_cache: 3.0,
            bp_btb: 4.0,
            backend: 5.0,
            static_: 6.0,
            retired_instructions: 42,
            cycles: 10,
        };
        assert!((b.total() - 21.0).abs() < 1e-12);
        assert!((b.others() - 15.0).abs() < 1e-12);
        assert!((b.fraction_percent(b.decoder) - 100.0 / 21.0).abs() < 1e-9);
        assert!((b.ppw() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "the zero guards return exactly 0.0")]
    fn zero_guards() {
        assert_eq!(EnergyBreakdown::default().ppw(), 0.0);
        assert_eq!(EnergyBreakdown::default().fraction_percent(1.0), 0.0);
        let model = EnergyModel::zen3_22nm(&FrontendConfig::zen3());
        assert_eq!(
            ppw_gain_percent(&model, &SimResult::default(), &SimResult::default()),
            0.0
        );
    }

    #[test]
    #[expect(
        clippy::float_cmp,
        reason = "the per-uop decode cost does not depend on geometry"
    )]
    fn geometry_scaling_is_monotone() {
        let zen3 = EnergyModel::zen3_22nm(&FrontendConfig::zen3());
        let zen4 = EnergyModel::zen3_22nm(&FrontendConfig::zen4());
        assert!(
            zen4.uopc_lookup > zen3.uopc_lookup,
            "larger structure costs more per access"
        );
        assert_eq!(zen4.decode_per_uop, zen3.decode_per_uop);
    }
}
