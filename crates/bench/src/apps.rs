//! Trace construction for the evaluation's applications.

use uopcache_model::LookupTrace;
use uopcache_trace::{build_trace, build_trace_scaled, AppId, InputVariant};

/// Default trace length per application. Large enough that the cache warms
/// up and phase behaviour is exercised (several phase rotations), small
/// enough that the full 11-app × 10-policy evaluation runs in minutes.
pub(crate) const TRACE_LEN: usize = 120_000;

/// Builds the evaluation trace for an application and input variant.
/// Deterministic; callers cache as needed.
pub fn trace_for(app: AppId, variant: u32, len: usize) -> LookupTrace {
    build_trace(app, InputVariant::new(variant), len)
}

/// As [`trace_for`], stretched to `len × scale` accesses by the generator's
/// epoch mechanism (phase-structured repetition with drift). `scale == 1`
/// is byte-identical to [`trace_for`].
pub fn trace_for_scaled(app: AppId, variant: u32, len: usize, scale: u64) -> LookupTrace {
    build_trace_scaled(app, InputVariant::new(variant), len, scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic() {
        let a = trace_for(AppId::Kafka, 0, 1000);
        let b = trace_for(AppId::Kafka, 0, 1000);
        assert_eq!(a, b);
    }
}
