//! Top-level trace generation entry points.

use crate::program::Program;
use crate::pwstream::PwBuilder;
use crate::walker::Walker;
use crate::workload::{AppId, InputVariant, WorkloadSpec};
use uopcache_model::rng::{Prng, Rng};
use uopcache_model::LookupTrace;

/// The most accesses a build reserves up front (2^21, 32 MiB of windows).
/// A longer trace grows past it as windows arrive, so an absurd length
/// fails on memory it really uses, never on one giant reservation.
const RESERVE_CHUNK: usize = 1 << 21;

/// Generates `accesses` micro-op cache lookups for an application and input
/// variant. Deterministic: the same arguments always produce the same trace.
///
/// # Examples
///
/// ```
/// use uopcache_trace::{build_trace, AppId, InputVariant};
///
/// let a = build_trace(AppId::Postgres, InputVariant::default(), 1000);
/// let b = build_trace(AppId::Postgres, InputVariant::default(), 1000);
/// assert_eq!(a, b);
/// ```
pub fn build_trace(app: AppId, variant: InputVariant, accesses: usize) -> LookupTrace {
    build_trace_with_spec(&app.spec(), variant, accesses)
}

/// As [`build_trace`] with an explicit (possibly customised) workload spec.
pub fn build_trace_with_spec(
    spec: &WorkloadSpec,
    variant: InputVariant,
    accesses: usize,
) -> LookupTrace {
    build_trace_scaled_with_spec(spec, variant, accesses, 1)
}

/// Generates `accesses * scale` lookups as `scale` consecutive execution
/// epochs of the same program — phase-structured repetition with drift, not
/// plain tiling. Each epoch re-keys the walk RNG, rotates the phase clock,
/// and drifts the popularity skew and phase locality a few percent, the way
/// a long-running server's load mix wanders over time; the static program
/// (and therefore the hot code) is shared by every epoch.
///
/// `scale == 1` is byte-identical to [`build_trace`].
///
/// # Panics
///
/// Panics if `scale` is zero.
///
/// # Examples
///
/// ```
/// use uopcache_trace::{build_trace, build_trace_scaled, AppId, InputVariant};
///
/// let v = InputVariant::default();
/// let one = build_trace_scaled(AppId::Kafka, v, 1000, 1);
/// assert_eq!(one, build_trace(AppId::Kafka, v, 1000));
/// let three = build_trace_scaled(AppId::Kafka, v, 1000, 3);
/// assert_eq!(three.len(), 3000);
/// ```
pub fn build_trace_scaled(
    app: AppId,
    variant: InputVariant,
    accesses: usize,
    scale: u64,
) -> LookupTrace {
    build_trace_scaled_with_spec(&app.spec(), variant, accesses, scale)
}

/// As [`build_trace_scaled`] with an explicit workload spec.
///
/// # Panics
///
/// Panics if `scale` is zero.
pub fn build_trace_scaled_with_spec(
    spec: &WorkloadSpec,
    variant: InputVariant,
    accesses: usize,
    scale: u64,
) -> LookupTrace {
    assert!(scale >= 1, "scale must be at least 1");
    let program = Program::synthesize(spec);
    let scale_hint = usize::try_from(scale).unwrap_or(usize::MAX);
    // A few windows past the target: the last block may overshoot it.
    let reserve = accesses.saturating_mul(scale_hint).saturating_add(8);
    let mut out = Vec::with_capacity(reserve.min(RESERVE_CHUNK));
    let mut builder = PwBuilder::new(&program, 64);
    for epoch in 0..scale {
        let espec = drifted_spec(spec, epoch);
        builder.collect(
            Walker::with_epoch(&program, &espec, variant, epoch),
            accesses,
            &mut out,
        );
    }
    out.into_iter().collect()
}

/// The workload spec as observed during execution epoch `epoch`: popularity
/// skew and phase locality wander a few percent per epoch (deterministically,
/// from the application seed). Epoch 0 is the spec unchanged, so a scaled
/// trace starts with exactly the unscaled one.
fn drifted_spec(spec: &WorkloadSpec, epoch: u64) -> WorkloadSpec {
    if epoch == 0 {
        return *spec;
    }
    let mut s = *spec;
    let mut rng = Prng::seed_from_u64(
        spec.program_seed() ^ 0xec0c_d21f ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    // Zipf skew drifts ±5%, phase locality ±10% (clamped to sane bounds).
    s.zipf_alpha = (s.zipf_alpha * (1.0 + (rng.gen_f64() - 0.5) * 0.10)).clamp(0.3, 2.5);
    s.phase_local_fraction =
        (s.phase_local_fraction * (1.0 + (rng.gen_f64() - 0.5) * 0.20)).clamp(0.02, 0.5);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::hash::FastHashSet;

    #[test]
    fn exact_length() {
        let t = build_trace(AppId::Finagle, InputVariant(2), 777);
        assert_eq!(t.len(), 777);
    }

    #[test]
    fn variants_share_the_static_code() {
        let a = build_trace(AppId::Kafka, InputVariant(0), 30_000);
        let b = build_trace(AppId::Kafka, InputVariant(1), 30_000);
        // Dynamic streams differ...
        assert_ne!(a, b);
        // ...but the bulk of variant-b *accesses* go to addresses variant-a
        // also touched (same binary, shared hot code; the cold Zipf tail may
        // differ by sampling).
        let sa: FastHashSet<u64> = a.iter().map(|x| x.pw().start.get()).collect();
        let shared_accesses = b
            .iter()
            .filter(|x| sa.contains(&x.pw().start.get()))
            .count();
        assert!(
            shared_accesses * 10 > b.len() * 6,
            "{shared_accesses} of {} accesses hit shared code",
            b.len()
        );
    }

    #[test]
    fn scaled_trace_is_drifted_repetition_not_tiling() {
        let n = 4_000;
        let scaled = build_trace_scaled(AppId::Finagle, InputVariant(0), n, 3);
        assert_eq!(scaled.len(), 3 * n);
        let base = build_trace(AppId::Finagle, InputVariant(0), n);
        // Epoch 0 is exactly the unscaled trace...
        assert_eq!(scaled.slice(0..n), base);
        // ...and later epochs are not copies of it (no plain tiling)...
        assert_ne!(scaled.slice(n..2 * n), base);
        assert_ne!(scaled.slice(2 * n..3 * n), scaled.slice(n..2 * n));
        // ...yet they mostly revisit the same (hot) code.
        let first: FastHashSet<u64> = base.iter().map(|a| a.pw().start.get()).collect();
        let revisits = scaled
            .slice(n..2 * n)
            .iter()
            .filter(|a| first.contains(&a.pw().start.get()))
            .count();
        assert!(revisits * 10 > n * 5, "{revisits} of {n} accesses shared");
    }

    #[test]
    fn custom_spec_is_respected() {
        let mut spec = AppId::Python.spec();
        spec.regions = 50;
        let t = build_trace_with_spec(&spec, InputVariant(0), 2000);
        assert!(t.unique_starts() < 50 * 60);
    }
}
