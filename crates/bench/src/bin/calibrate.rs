//! Calibration driver: one compact table with the headline shapes — per-app
//! miss reduction of every online policy and offline oracle against LRU.
//! Used when tuning the workload model or policy parameters.
//!
//! ```text
//! cargo run -p uopcache-bench --release --bin calibrate [accesses]
//! ```

use std::time::Instant;
use uopcache_bench::policies::PolicyId;
use uopcache_bench::runs::{mean, Lab};
use uopcache_core::Flack;
use uopcache_model::FrontendConfig;
use uopcache_trace::AppId;

fn main() {
    let len: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60_000);
    let mut lab = Lab::with_len(FrontendConfig::zen3(), len);
    #[expect(
        clippy::disallowed_methods,
        reason = "the elapsed-time footer is informational"
    )]
    let t0 = Instant::now();
    println!("app          LRUmiss%  SRRIP  SHiP++  Mockj   GHRP  Thermo FURBYS |  Belady    FOO      A   A+VC  FLACK");
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); PolicyId::ONLINE.len() - 1 + 5];
    for app in AppId::ALL {
        let lru = lab.run_online(PolicyId::Lru, app, 0);
        print!(
            "{:<12} {:>8.2}",
            app.name(),
            lru.uopc.uop_miss_rate() * 100.0
        );
        let mut ci = 0;
        for &p in &PolicyId::ONLINE[1..] {
            let red = lab.online_miss_reduction(p, app);
            print!(" {:>6.2}", red);
            cols[ci].push(red);
            ci += 1;
        }
        print!(" |");
        let bel = {
            let lru_s = lab.run_sync_lru(app);
            lab.run_belady(app).miss_reduction_vs(&lru_s)
        };
        print!(" {:>7.2}", bel);
        cols[ci].push(bel);
        ci += 1;
        for v in [
            Flack::ablation(false, false, false),
            Flack::ablation(true, false, false),
            Flack::ablation(true, true, false),
            Flack::new(),
        ] {
            let red = lab.offline_miss_reduction(v, app);
            print!(" {:>6.2}", red);
            cols[ci].push(red);
            ci += 1;
        }
        println!();
    }
    print!("{:<12} {:>8}", "MEAN", "");
    for c in &cols[..6] {
        print!(" {:>6.2}", mean(c));
    }
    print!(" |");
    print!(" {:>7.2}", mean(&cols[6]));
    for c in &cols[7..] {
        print!(" {:>6.2}", mean(c));
    }
    println!();
    println!("elapsed: {:?}", t0.elapsed());
}
