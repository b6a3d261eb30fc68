//! Descriptive statistics of a lookup trace, for calibration and reporting.

use uopcache_model::hash::FastHashMap;
use uopcache_model::json_struct;
use uopcache_model::{Addr, LookupTrace};

/// Summary statistics of a PW lookup trace.
///
/// # Examples
///
/// ```
/// use uopcache_trace::{build_trace, AppId, InputVariant, TraceStats};
///
/// let t = build_trace(AppId::Kafka, InputVariant::default(), 20_000);
/// let s = TraceStats::from_trace(&t, 8);
/// assert!(s.mean_pw_uops > 1.0);
/// assert!(s.footprint_entries > 512);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TraceStats {
    /// Number of lookups.
    pub accesses: usize,
    /// Total micro-ops requested.
    pub total_uops: u64,
    /// Distinct PW start addresses.
    pub unique_starts: usize,
    /// Static footprint in micro-op cache entries.
    pub footprint_entries: u64,
    /// Mean micro-ops per PW lookup.
    pub mean_pw_uops: f64,
    /// Histogram of PW sizes in entries (index 0 = 1 entry).
    pub entry_histogram: Vec<u64>,
    /// Fraction of re-accesses whose PW-granularity stack reuse distance
    /// exceeds 30 (the paper reports >20 % for data-center apps).
    pub reuse_gt_30: f64,
    /// Fraction of accesses flagged as mispredicted.
    pub mispredict_rate: f64,
    /// Approximate branch MPKI implied by the mispredict flags
    /// (mispredictions per 1000 instructions, instructions estimated from
    /// micro-ops).
    pub implied_mpki: f64,
}

impl TraceStats {
    /// Computes statistics for `trace` with the given micro-ops per entry.
    pub fn from_trace(trace: &LookupTrace, uops_per_entry: u32) -> Self {
        let accesses = trace.len();
        let total_uops = trace.total_uops();
        let unique_starts = trace.unique_starts();
        let footprint_entries = trace.footprint_entries(uops_per_entry);

        let mut entry_histogram = vec![0u64; 8];
        for a in trace.iter() {
            let e = a.pw().entries(uops_per_entry) as usize;
            let idx = (e - 1).min(entry_histogram.len() - 1);
            entry_histogram[idx] += 1;
        }

        // PW-granularity LRU stack distance, capped at 64 for tractability.
        const CAP: usize = 64;
        let mut stack: Vec<Addr> = Vec::with_capacity(CAP + 1);
        let mut reaccesses = 0u64;
        let mut far = 0u64;
        let mut seen: FastHashMap<Addr, ()> = FastHashMap::default();
        for a in trace.iter() {
            let start = a.pw().start;
            if let Some(pos) = stack.iter().position(|&s| s == start) {
                reaccesses += 1;
                if pos > 30 {
                    far += 1;
                }
                stack.remove(pos);
            } else if seen.contains_key(&start) {
                // Fell off the capped stack: distance certainly > CAP > 30.
                reaccesses += 1;
                far += 1;
            }
            seen.insert(start, ());
            stack.insert(0, start);
            stack.truncate(CAP);
        }

        let mispredicted = trace.iter().filter(|a| a.is_mispredicted()).count();
        let instructions = total_uops as f64 / 1.12;
        TraceStats {
            accesses,
            total_uops,
            unique_starts,
            footprint_entries,
            mean_pw_uops: if accesses == 0 {
                0.0
            } else {
                total_uops as f64 / accesses as f64
            },
            entry_histogram,
            reuse_gt_30: if reaccesses == 0 {
                0.0
            } else {
                far as f64 / reaccesses as f64
            },
            mispredict_rate: if accesses == 0 {
                0.0
            } else {
                mispredicted as f64 / accesses as f64
            },
            implied_mpki: if instructions <= 0.0 {
                0.0
            } else {
                mispredicted as f64 / instructions * 1000.0
            },
        }
    }
}

json_struct!(TraceStats {
    accesses,
    total_uops,
    unique_starts,
    footprint_entries,
    mean_pw_uops,
    entry_histogram,
    reuse_gt_30,
    mispredict_rate,
    implied_mpki,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::build_trace;
    use crate::workload::{AppId, InputVariant};

    #[test]
    #[expect(clippy::float_cmp, reason = "an empty trace's means are exactly 0.0")]
    fn empty_trace_is_all_zero() {
        let s = TraceStats::from_trace(&LookupTrace::new(), 8);
        assert_eq!(s.accesses, 0);
        assert_eq!(s.mean_pw_uops, 0.0);
        assert_eq!(s.reuse_gt_30, 0.0);
    }

    #[test]
    fn scattered_reuse_distance_property() {
        // The paper: >20% of PWs have reuse distance larger than 30.
        let t = build_trace(AppId::Clang, InputVariant(0), 60_000);
        let s = TraceStats::from_trace(&t, 8);
        assert!(
            s.reuse_gt_30 > 0.20,
            "reuse>30 fraction = {}",
            s.reuse_gt_30
        );
    }

    #[test]
    fn implied_mpki_is_in_a_plausible_band() {
        let t = build_trace(AppId::Wordpress, InputVariant(0), 60_000);
        let s = TraceStats::from_trace(&t, 8);
        let target = AppId::Wordpress.branch_mpki();
        assert!(
            s.implied_mpki > target * 0.4 && s.implied_mpki < target * 2.5,
            "implied {} vs target {}",
            s.implied_mpki,
            target
        );
    }

    #[test]
    fn histogram_covers_all_accesses() {
        let t = build_trace(AppId::Kafka, InputVariant(0), 10_000);
        let s = TraceStats::from_trace(&t, 8);
        assert_eq!(s.entry_histogram.iter().sum::<u64>(), 10_000);
    }
}
