//! Property tests for the synthetic workload generator — the inputs every
//! benchmark baseline and golden output depends on.
//!
//! Three families of properties:
//!
//! * **seeded reproducibility** — a trace is a pure function of
//!   (app, variant, length); different variants and apps genuinely differ;
//! * **Zipf shape** — the region popularity distribution is monotone in
//!   rank, normalised, and its sampler matches its own pmf empirically;
//! * **PW length distribution** — per application, window lengths stay
//!   within the tolerances implied by the `WorkloadSpec` calibration
//!   (basic-block size, uops per instruction, termination mix).

use uopcache::model::rng::Prng;
use uopcache::model::PwTermination;
use uopcache::trace::{build_trace, AppId, InputVariant, WorkloadSpec, Zipf};

#[test]
fn traces_are_pure_functions_of_their_seeds() {
    for app in [AppId::Kafka, AppId::Postgres, AppId::Python] {
        for variant in [0u32, 1, 7] {
            let a = build_trace(app, InputVariant(variant), 5_000);
            let b = build_trace(app, InputVariant(variant), 5_000);
            assert_eq!(a, b, "{}/{variant}: trace is not reproducible", app.name());
        }
        let v0 = build_trace(app, InputVariant(0), 5_000);
        let v1 = build_trace(app, InputVariant(1), 5_000);
        assert_ne!(v0, v1, "{}: variants must differ", app.name());
    }
    let kafka = build_trace(AppId::Kafka, InputVariant(0), 5_000);
    let postgres = build_trace(AppId::Postgres, InputVariant(0), 5_000);
    assert_ne!(kafka, postgres, "different apps must differ");
}

#[test]
fn zipf_pmf_is_monotone_in_rank_and_normalised() {
    for alpha in [0.5, 0.98, 1.5] {
        let z = Zipf::new(512, alpha);
        let mut sum = 0.0;
        let mut prev = f64::INFINITY;
        for k in 0..z.len() {
            let p = z.pmf(k);
            assert!(
                p <= prev + 1e-12,
                "alpha {alpha}: pmf not monotone at rank {k} ({p} > {prev})"
            );
            assert!(p > 0.0, "alpha {alpha}: pmf must be positive at rank {k}");
            sum += p;
            prev = p;
        }
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "alpha {alpha}: pmf sums to {sum}, not 1"
        );
    }
}

#[test]
fn zipf_sampler_matches_its_pmf_empirically() {
    const N: usize = 64;
    const DRAWS: usize = 200_000;
    let z = Zipf::new(N, 0.98);
    let mut rng = Prng::seed_from_u64(0x21bf_0001);
    let mut counts = [0u32; N];
    for _ in 0..DRAWS {
        counts[z.sample(&mut rng)] += 1;
    }
    // Rank-frequency monotonicity, coarsened: each octave of ranks is more
    // popular than the next (single adjacent ranks may swap by noise).
    let per_rank =
        |lo: usize, hi: usize| f64::from(counts[lo..hi].iter().sum::<u32>()) / (hi - lo) as f64;
    let o0 = per_rank(0, 8);
    let o1 = per_rank(8, 16);
    let o2 = per_rank(16, 32);
    let o3 = per_rank(32, 64);
    assert!(
        o0 > o1 && o1 > o2 && o2 > o3,
        "empirical rank-frequency must fall by octave: {o0} {o1} {o2} {o3}"
    );
    // The head matches the analytic pmf within 5% relative error.
    for (k, &count) in counts.iter().enumerate().take(4) {
        let expected = z.pmf(k) * DRAWS as f64;
        let got = f64::from(count);
        assert!(
            (got - expected).abs() / expected < 0.05,
            "rank {k}: {got} draws vs expected {expected:.0}"
        );
    }
    // The sampler is itself seed-deterministic.
    let mut rng2 = Prng::seed_from_u64(0x21bf_0001);
    let replay: Vec<usize> = (0..1_000).map(|_| z.sample(&mut rng2)).collect();
    let mut rng3 = Prng::seed_from_u64(0x21bf_0001);
    let replay2: Vec<usize> = (0..1_000).map(|_| z.sample(&mut rng3)).collect();
    assert_eq!(replay, replay2);
}

#[test]
fn pw_lengths_stay_within_spec_tolerances() {
    for app in AppId::ALL {
        let spec = WorkloadSpec::for_app(app);
        let t = build_trace(app, InputVariant(0), 20_000);
        let n = t.len() as f64;
        let mean = t.iter().map(|a| f64::from(a.pw().uops)).sum::<f64>() / n;
        let max = t.iter().map(|a| a.pw().uops).max().expect("non-empty");

        // A PW spans at least one basic block (it ends at a *taken* branch
        // or a line boundary, and not-taken branches run through), so its
        // mean length sits a little above one block's worth of micro-ops —
        // and nowhere near two blocks' worth for these taken biases.
        let bb_uops = spec.insts_per_bb * spec.uops_per_inst;
        let ratio = mean / bb_uops;
        assert!(
            (0.9..=1.8).contains(&ratio),
            "{}: mean PW length {mean:.2} uops is {ratio:.2}x the calibrated \
             block size {bb_uops:.2}",
            app.name()
        );
        // Windows terminate at the latest on a 64-byte line boundary.
        assert!(
            max <= 64,
            "{}: max PW length {max} exceeds any line-bounded window",
            app.name()
        );

        // Termination mix: both mechanisms must occur, with taken branches
        // dominating (the walker's taken bias plus loop back-edges).
        let taken = t
            .iter()
            .filter(|a| a.pw().term == PwTermination::TakenBranch)
            .count() as f64
            / n;
        assert!(
            (0.55..=0.95).contains(&taken),
            "{}: taken-branch termination fraction {taken:.2} out of tolerance",
            app.name()
        );
    }
}

/// Apps calibrated with larger basic blocks generate longer windows — the
/// cross-app ordering the paper's Table II relies on.
#[test]
fn pw_lengths_order_by_calibrated_block_size() {
    let mean_uops = |app: AppId| {
        let t = build_trace(app, InputVariant(0), 20_000);
        t.iter().map(|a| f64::from(a.pw().uops)).sum::<f64>() / t.len() as f64
    };
    // Postgres (6.5 insts/bb) vs Python (3.8 insts/bb): a wide calibration
    // gap must survive into the generated streams.
    assert!(
        mean_uops(AppId::Postgres) > mean_uops(AppId::Python),
        "calibrated block-size ordering lost in generation"
    );
}

/// `--scale` must produce *phase-structured repetition with drift*, not a
/// tiled copy of the base trace: epoch 0 is exactly the unscaled trace, every
/// later epoch walks the same program (heavily overlapping code footprint)
/// under a deterministically drifted spec, so no two epochs are identical.
#[test]
fn scaled_traces_repeat_phase_structure_without_tiling() {
    use uopcache::model::hash::FastHashSet;
    use uopcache::trace::{build_trace_scaled, Program};

    for app in [AppId::Kafka, AppId::Postgres] {
        let program = Program::synthesize(&app.spec());
        let blocks: Vec<_> = program.regions.iter().flat_map(|r| r.bbs.iter()).collect();
        let image_lo = blocks.iter().map(|bb| bb.addr.get()).min().unwrap();
        let image_hi = blocks
            .iter()
            .map(|bb| bb.addr.get() + u64::from(bb.bytes))
            .max()
            .unwrap();
        let base = build_trace(app, InputVariant(0), 3_000);
        let scaled = build_trace_scaled(app, InputVariant(0), 3_000, 4);

        // Scaling is a pure function and yields exactly `scale` base-length
        // epochs; scale 1 degenerates to the unscaled trace.
        assert_eq!(scaled.len(), 4 * base.len(), "{}", app.name());
        assert_eq!(scaled, build_trace_scaled(app, InputVariant(0), 3_000, 4));
        assert_eq!(build_trace_scaled(app, InputVariant(0), 3_000, 1), base);
        assert_eq!(scaled.slice(0..base.len()), base, "{}", app.name());

        let starts: FastHashSet<_> = base.iter().map(|a| a.pw().start).collect();
        for e in 1..4 {
            let epoch = scaled.slice(e * base.len()..(e + 1) * base.len());
            assert_ne!(
                epoch,
                base,
                "{}: epoch {e} is a verbatim tile of epoch 0",
                app.name()
            );
            // Same program, different walk: every epoch stays inside the one
            // synthesized program image...
            assert!(
                epoch.iter().all(|a| {
                    let s = a.pw().start.get();
                    (image_lo..image_hi).contains(&s)
                }),
                "{}: epoch {e} fetches outside the program image",
                app.name()
            );
            // ...and still spends a solid share of its accesses in epoch-0
            // code (the drifted Zipf skew may shift the cold tail, but the
            // hot blocks persist across epochs).
            let shared_accesses = epoch
                .iter()
                .filter(|a| starts.contains(&a.pw().start))
                .count();
            assert!(
                shared_accesses * 3 >= epoch.len(),
                "{}: epoch {e} spends only {shared_accesses}/{} accesses in epoch-0 code",
                app.name(),
                epoch.len()
            );
        }
    }
}

/// FNV-1a over every access of a trace: start, uops, bytes, termination and
/// the mispredict flag, in stream order.
fn fnv1a_trace(h: &mut u64, trace: &uopcache::model::LookupTrace) {
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for a in trace.iter() {
        eat(&a.pw().start.get().to_le_bytes());
        eat(&a.pw().uops.to_le_bytes());
        eat(&a.pw().bytes.to_le_bytes());
        eat(&[u8::from(a.pw().term == PwTermination::LineBoundary)
            | u8::from(a.is_mispredicted()) << 1]);
    }
}

/// Pins the generator's bytes: every access of `build_trace_scaled` for all
/// 11 apps at lengths 1, 1 000, 8 000 and 30 000 (scale 1) and 12 000 × 5,
/// at variant 0 and the benchmark's seed-1 variant. Recorded with the
/// per-instruction window builder, so a faster builder must reproduce it.
#[test]
fn generated_traces_match_pinned_digests() {
    use uopcache::trace::build_trace_scaled;
    let mut got = Vec::new();
    for app in AppId::ALL {
        for variant in [0u32, 9_505_325] {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for (len, scale) in [(1, 1), (1_000, 1), (8_000, 1), (30_000, 1), (12_000, 5)] {
                fnv1a_trace(
                    &mut h,
                    &build_trace_scaled(app, InputVariant(variant), len, scale),
                );
            }
            got.push(format!("{}/v{variant}={h:016x}", app.name()));
        }
    }
    let want = [
        "cassandra/v0=39dd6014a5ffd220",
        "cassandra/v9505325=c3a4d68efa5530e1",
        "kafka/v0=1843c7b9498b6993",
        "kafka/v9505325=99fad1a7a4b1eacb",
        "tomcat/v0=5bc32a3bffc2a117",
        "tomcat/v9505325=10478af543cc5b81",
        "drupal/v0=4ac7965d0b19b0cd",
        "drupal/v9505325=c4f5cb37f210c124",
        "mediawiki/v0=4ba1869996c45d78",
        "mediawiki/v9505325=f1ebaf92841a3783",
        "wordpress/v0=fefa9c8ab47e6226",
        "wordpress/v9505325=f3d618afeed900df",
        "postgres/v0=35361c2659bef957",
        "postgres/v9505325=c2a14cbb0bfb10c1",
        "mysql/v0=dbffa1f62be1ef36",
        "mysql/v9505325=501678adddfbbd0a",
        "python/v0=1eaeab56fd5afefe",
        "python/v9505325=5a7f1735d7d9e518",
        "finagle/v0=6236de0e449c3790",
        "finagle/v9505325=1a0232440f7840ff",
        "clang/v0=f91ab35854d87305",
        "clang/v9505325=f0dc470bb216e79b",
    ];
    assert_eq!(got, want);
}
