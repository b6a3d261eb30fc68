//! Decision-stream identification: which policy produced a captured run?
//!
//! The identification protocol is CacheQuery-flavoured but offline and
//! exact: replay the *same* trace through every candidate policy under the
//! same geometry, digest each replay's full decision stream with
//! [`StreamDigest`] (which pins eviction victims, not just verdicts), and
//! compare against the digest captured from the run under investigation.
//! Because every registered policy is deterministic for a fixed seed, a
//! digest match means the candidate makes byte-identical decisions on this
//! trace — and a unique match names the generating policy.
//!
//! Two candidates can still tie when the trace never forces them to
//! disagree (e.g. a trace whose working set fits in one way never exercises
//! victim selection). The verdict is explicit about this:
//! [`IdentifyVerdict::Ambiguous`] lists every matching candidate rather
//! than guessing, and [`IdentifyVerdict::Unknown`] means the stream matches
//! no registered policy at all.

use uopcache_cache::{PwReplacementPolicy, UopCache};
use uopcache_model::{LookupTrace, UopCacheConfig};
use uopcache_obs::{DigestRecorder, StreamDigest};

/// One candidate's name and the digest its replay produced.
#[derive(Clone, Debug)]
pub struct CandidateDigest {
    /// The candidate's canonical policy label.
    pub name: String,
    /// The digest of the candidate's decision stream on the probe trace.
    pub digest: StreamDigest,
}

/// The outcome of matching a captured digest against the candidate table.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum IdentifyVerdict {
    /// Exactly one candidate reproduces the stream.
    Unique(String),
    /// Several candidates reproduce the stream — the probe trace does not
    /// separate them, so no single name is claimed. Sorted by name.
    Ambiguous(Vec<String>),
    /// No candidate reproduces the stream.
    Unknown,
}

impl std::fmt::Display for IdentifyVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IdentifyVerdict::Unique(name) => write!(f, "unique: {name}"),
            IdentifyVerdict::Ambiguous(names) => {
                write!(f, "ambiguous: {}", names.join(", "))
            }
            IdentifyVerdict::Unknown => f.write_str("unknown: no registered policy matches"),
        }
    }
}

/// Replays `trace` through `policy` under `cfg` with the synchronous
/// insert-on-miss protocol and returns the digest of the full decision
/// stream (constant memory — the events are folded, never retained).
pub fn digest_run(
    cfg: UopCacheConfig,
    policy: Box<dyn PwReplacementPolicy>,
    trace: &LookupTrace,
) -> StreamDigest {
    let mut cache = UopCache::new(cfg, policy);
    cache.set_recorder(Box::new(DigestRecorder::new()));
    for access in trace.iter() {
        let pw = access.pw();
        let result = cache.lookup(&pw);
        if !result.is_full_hit() {
            cache.insert(&pw);
        }
    }
    let rec = cache.take_recorder().expect("recorder installed above");
    rec.as_any()
        .and_then(|any| any.downcast_ref::<DigestRecorder>())
        .expect("DigestRecorder round-trips through as_any")
        .digest()
}

/// Digests every `(name, policy)` candidate on the same probe trace,
/// producing the table [`identify`] matches against.
pub fn digest_table(
    cfg: UopCacheConfig,
    candidates: Vec<(String, Box<dyn PwReplacementPolicy>)>,
    trace: &LookupTrace,
) -> Vec<CandidateDigest> {
    candidates
        .into_iter()
        .map(|(name, policy)| CandidateDigest {
            name,
            digest: digest_run(cfg, policy, trace),
        })
        .collect()
}

/// Matches `target` against the candidate table.
///
/// Reports [`IdentifyVerdict::Ambiguous`] whenever more than one candidate
/// matches, rather than picking one — a digest collision on the probe trace
/// is evidence the candidates are indistinguishable *on that trace*, not
/// that either generated the stream.
pub fn identify(target: StreamDigest, table: &[CandidateDigest]) -> IdentifyVerdict {
    let mut matches: Vec<String> = table
        .iter()
        .filter(|c| c.digest == target)
        .map(|c| c.name.clone())
        .collect();
    matches.sort();
    match matches.len() {
        0 => IdentifyVerdict::Unknown,
        1 => IdentifyVerdict::Unique(matches.remove(0)),
        _ => IdentifyVerdict::Ambiguous(matches),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_cache::LruPolicy;
    use uopcache_policies::{FifoPolicy, SrripPolicy};
    use uopcache_trace::{build_trace, AppId, InputVariant};

    fn probe() -> LookupTrace {
        build_trace(AppId::Kafka, InputVariant(0), 4_000)
    }

    fn small_cfg() -> UopCacheConfig {
        // A quarter-size zen3 keeps sets under pressure so victim choices
        // actually separate the candidates.
        let mut cfg = UopCacheConfig::zen3();
        cfg.entries /= 4;
        cfg
    }

    #[test]
    fn digesting_is_deterministic() {
        let trace = probe();
        let a = digest_run(small_cfg(), Box::new(LruPolicy::new()), &trace);
        let b = digest_run(small_cfg(), Box::new(LruPolicy::new()), &trace);
        assert_eq!(a, b);
    }

    #[test]
    fn identifies_the_generating_policy_uniquely() {
        let trace = probe();
        let table = digest_table(
            small_cfg(),
            vec![
                ("LRU".into(), Box::new(LruPolicy::new()) as _),
                ("FIFO".into(), Box::new(FifoPolicy::new()) as _),
                ("SRRIP".into(), Box::new(SrripPolicy::new()) as _),
            ],
            &trace,
        );
        let captured = digest_run(small_cfg(), Box::new(FifoPolicy::new()), &trace);
        assert_eq!(
            identify(captured, &table),
            IdentifyVerdict::Unique("FIFO".into())
        );
    }

    #[test]
    fn collisions_are_reported_ambiguous_not_guessed() {
        let trace = probe();
        // The same policy registered under two names is the canonical
        // forced collision.
        let table = digest_table(
            small_cfg(),
            vec![
                ("LRU".into(), Box::new(LruPolicy::new()) as _),
                ("LRU-again".into(), Box::new(LruPolicy::new()) as _),
            ],
            &trace,
        );
        let captured = digest_run(small_cfg(), Box::new(LruPolicy::new()), &trace);
        assert_eq!(
            identify(captured, &table),
            IdentifyVerdict::Ambiguous(vec!["LRU".into(), "LRU-again".into()])
        );
    }

    #[test]
    fn unregistered_streams_come_back_unknown() {
        let trace = probe();
        let table = digest_table(
            small_cfg(),
            vec![("LRU".into(), Box::new(LruPolicy::new()) as _)],
            &trace,
        );
        let captured = digest_run(small_cfg(), Box::new(SrripPolicy::new()), &trace);
        assert_eq!(identify(captured, &table), IdentifyVerdict::Unknown);
        assert_eq!(identify(captured, &[]), IdentifyVerdict::Unknown);
    }

    #[test]
    fn verdicts_render_for_the_cli() {
        assert_eq!(
            IdentifyVerdict::Unique("ARC".into()).to_string(),
            "unique: ARC"
        );
        assert_eq!(
            IdentifyVerdict::Ambiguous(vec!["CAR".into(), "CLOCK".into()]).to_string(),
            "ambiguous: CAR, CLOCK"
        );
        assert!(IdentifyVerdict::Unknown.to_string().contains("unknown"));
    }
}
