//! Per-candidate metrics for the set-dueling meta-policy.
//!
//! The dueling policy (in `uopcache-policies`) counts leader-set hits and
//! misses, PSEL values and phase wins per candidate; this module is the
//! observable shape of those counters — canonical JSON, stable field order —
//! so `uopcache inspect` and tests can read a duel without knowing the
//! policy's internals.

use uopcache_model::json::Json;

/// One candidate's view of the duel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CandidateDuel {
    /// The candidate policy's canonical name.
    pub name: String,
    /// How many leader sets sample this candidate.
    pub leader_sets: u32,
    /// Hits observed in this candidate's leader sets.
    pub leader_hits: u64,
    /// Misses (insert attempts) observed in this candidate's leader sets.
    pub leader_misses: u64,
    /// Phases this candidate ended as the winner.
    pub phases_won: u64,
    /// The candidate's PSEL counter at the last reading (misses minus hits,
    /// saturating at the configured width).
    pub psel: u16,
}

impl CandidateDuel {
    /// Canonical JSON rendering (fixed field order).
    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            (
                "leader_sets".to_string(),
                Json::U64(u64::from(self.leader_sets)),
            ),
            ("leader_hits".to_string(), Json::U64(self.leader_hits)),
            ("leader_misses".to_string(), Json::U64(self.leader_misses)),
            ("phases_won".to_string(), Json::U64(self.phases_won)),
            ("psel".to_string(), Json::U64(u64::from(self.psel))),
        ])
    }
}

/// A complete duel snapshot: configuration, progress, and one
/// [`CandidateDuel`] row per candidate (in candidate order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DuelStats {
    /// Leader sets sampled per candidate (the configured K).
    pub k: u32,
    /// Lookups per phase.
    pub phase_len: u64,
    /// Completed phases.
    pub phases: u64,
    /// How many phase boundaries changed the winner.
    pub switches: u64,
    /// The currently winning candidate's name.
    pub winner: String,
    /// Per-candidate counters.
    pub candidates: Vec<CandidateDuel>,
}

impl DuelStats {
    /// Canonical JSON rendering (fixed field order).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("k".to_string(), Json::U64(u64::from(self.k))),
            ("phase_len".to_string(), Json::U64(self.phase_len)),
            ("phases".to_string(), Json::U64(self.phases)),
            ("switches".to_string(), Json::U64(self.switches)),
            ("winner".to_string(), Json::Str(self.winner.clone())),
            (
                "candidates".to_string(),
                Json::Arr(self.candidates.iter().map(CandidateDuel::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DuelStats {
        DuelStats {
            k: 2,
            phase_len: 1024,
            phases: 3,
            switches: 1,
            winner: "SRRIP".to_string(),
            candidates: vec![
                CandidateDuel {
                    name: "LRU".to_string(),
                    leader_sets: 2,
                    leader_hits: 10,
                    leader_misses: 20,
                    phases_won: 1,
                    psel: 10,
                },
                CandidateDuel {
                    name: "SRRIP".to_string(),
                    leader_sets: 2,
                    leader_hits: 25,
                    leader_misses: 5,
                    phases_won: 2,
                    psel: 0,
                },
            ],
        }
    }

    #[test]
    fn json_is_canonical_and_ordered() {
        let s = sample().to_json().to_string();
        let k_pos = s.find("\"k\"").expect("k field");
        let winner_pos = s.find("\"winner\"").expect("winner field");
        let cands_pos = s.find("\"candidates\"").expect("candidates field");
        assert!(k_pos < winner_pos && winner_pos < cands_pos, "{s}");
        assert_eq!(s, sample().to_json().to_string(), "rendering is stable");
    }

    #[test]
    fn candidate_rows_render_in_order() {
        let s = sample().to_json().to_string();
        let lru = s.find("\"LRU\"").expect("LRU row");
        let srrip = s.rfind("\"SRRIP\"").expect("SRRIP row");
        assert!(lru < srrip);
    }
}
