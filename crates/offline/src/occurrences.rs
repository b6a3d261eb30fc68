//! Next-use indexing over a lookup trace, shared by the oracle policies.

use uopcache_model::hash::FastHashMap;
use uopcache_model::{Addr, LookupTrace};

/// Position `u32::MAX` stands for "never used again".
pub const NEVER: u32 = u32::MAX;

/// For every PW start address, the sorted positions at which it is looked up,
/// with a moving cursor for O(1) amortised next-use queries.
///
/// # Examples
///
/// ```
/// use uopcache_model::{Addr, LookupTrace, PwAccess, PwDesc, PwTermination};
/// use uopcache_offline::{occurrences::NEVER, OccurrenceIndex};
///
/// let mk = |a| PwAccess::new(PwDesc::new(Addr::new(a), 2, 6, PwTermination::TakenBranch));
/// let trace: LookupTrace = [mk(0x10), mk(0x20), mk(0x10)].into_iter().collect();
/// let mut idx = OccurrenceIndex::new(&trace);
/// assert_eq!(idx.next_use_after(Addr::new(0x10), 0), 2);
/// assert_eq!(idx.next_use_after(Addr::new(0x20), 1), NEVER);
/// ```
#[derive(Clone, Debug)]
pub struct OccurrenceIndex {
    positions: FastHashMap<Addr, (Vec<u32>, usize)>,
}

impl OccurrenceIndex {
    /// Builds the index for `trace`.
    pub fn new(trace: &LookupTrace) -> Self {
        let mut positions: FastHashMap<Addr, (Vec<u32>, usize)> = FastHashMap::default();
        for (i, a) in trace.iter().enumerate() {
            positions
                .entry(a.pw().start)
                .or_default()
                .0
                .push(u32::try_from(i).expect("trace indices fit in u32"));
        }
        OccurrenceIndex { positions }
    }

    /// The first position strictly greater than `now` at which `start` is
    /// looked up, or [`NEVER`].
    ///
    /// Queries must be made with non-decreasing `now` per address (the cursor
    /// only moves forward), which holds for trace-order replay.
    pub fn next_use_after(&mut self, start: Addr, now: u32) -> u32 {
        match self.positions.get_mut(&start) {
            None => NEVER,
            Some((list, cursor)) => {
                while *cursor < list.len() && list[*cursor] <= now {
                    *cursor += 1;
                }
                list.get(*cursor).copied().unwrap_or(NEVER)
            }
        }
    }

    /// Total occurrences of `start` in the trace.
    pub fn count(&self, start: Addr) -> usize {
        self.positions.get(&start).map_or(0, |(l, _)| l.len())
    }

    /// Rewinds every per-address cursor to the start of the trace, so the
    /// index can serve another in-order replay of the same trace without
    /// being rebuilt (the position lists are immutable; only cursors move).
    pub fn reset_cursors(&mut self) {
        for (_, cursor) in self.positions.values_mut() {
            *cursor = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::{PwAccess, PwDesc, PwTermination};

    fn trace_of(starts: &[u64]) -> LookupTrace {
        starts
            .iter()
            .map(|&a| PwAccess::new(PwDesc::new(Addr::new(a), 2, 6, PwTermination::TakenBranch)))
            .collect()
    }

    #[test]
    fn cursor_advances_monotonically() {
        let t = trace_of(&[1, 2, 1, 3, 1]);
        let mut idx = OccurrenceIndex::new(&t);
        assert_eq!(idx.next_use_after(Addr::new(1), 0), 2);
        assert_eq!(idx.next_use_after(Addr::new(1), 2), 4);
        assert_eq!(idx.next_use_after(Addr::new(1), 4), NEVER);
    }

    #[test]
    fn unknown_address_is_never() {
        let t = trace_of(&[1]);
        let mut idx = OccurrenceIndex::new(&t);
        assert_eq!(idx.next_use_after(Addr::new(9), 0), NEVER);
        assert_eq!(idx.count(Addr::new(9)), 0);
        assert_eq!(idx.count(Addr::new(1)), 1);
    }

    #[test]
    fn now_equal_to_position_moves_past_it() {
        let t = trace_of(&[7, 7]);
        let mut idx = OccurrenceIndex::new(&t);
        // At position 0 (the access itself), next use is 1; at 1, never.
        assert_eq!(idx.next_use_after(Addr::new(7), 0), 1);
        assert_eq!(idx.next_use_after(Addr::new(7), 1), NEVER);
    }
}
