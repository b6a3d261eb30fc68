//! A conventional set-associative LRU line cache (L1 instruction cache, BTB).

use uopcache_model::{CacheStats, LineAddr};

/// Result of a line-cache access.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum LineOutcome {
    /// The line was present.
    Hit,
    /// The line was filled; `evicted` is the line displaced, if any.
    Miss {
        /// Line evicted to make room (None if a way was free).
        evicted: Option<LineAddr>,
    },
}

#[derive(Copy, Clone, Debug, Default)]
struct Way {
    line: LineAddr,
    /// Access stamp of the last touch. Stamps start at 1, so 0 marks a way
    /// that has never been filled.
    last_access: u64,
}

impl Way {
    fn holds(&self, line: LineAddr) -> bool {
        self.last_access != 0 && self.line == line
    }
}

/// Set-associative LRU cache of lines, used for the 32 KiB L1i (Table I) and
/// as a generic tagged structure for the BTB.
///
/// # Examples
///
/// ```
/// use uopcache_cache::{LineCache, LineOutcome};
/// use uopcache_model::Addr;
///
/// let mut l1i = LineCache::new(32 * 1024, 8, 64);
/// let line = Addr::new(0x1234).line(64);
/// assert!(matches!(l1i.access(line), LineOutcome::Miss { .. }));
/// assert_eq!(l1i.access(line), LineOutcome::Hit);
/// ```
#[derive(Clone, Debug)]
pub struct LineCache {
    /// Every way, set-major: set `s` owns `ways[s * assoc..(s + 1) * assoc]`.
    /// Allocated once at construction.
    ways: Box<[Way]>,
    assoc: usize,
    /// `log2(line_bytes)` — set indexing is a shift and a mask, not a
    /// division.
    set_shift: u32,
    /// `sets - 1`.
    set_mask: u64,
    stats: CacheStats,
    now: u64,
}

impl LineCache {
    /// Creates a cache with `size_bytes` capacity, `ways` associativity and
    /// the given line size.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two, the geometry does not
    /// divide evenly or the set count is not a power of two.
    pub fn new(size_bytes: u32, ways: u32, line_bytes: u32) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = size_bytes / line_bytes;
        assert!(
            ways > 0 && lines.is_multiple_of(ways),
            "lines must divide into ways"
        );
        let sets = lines / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        LineCache {
            ways: vec![Way::default(); lines as usize].into_boxed_slice(),
            assoc: ways as usize,
            set_shift: line_bytes.trailing_zeros(),
            set_mask: u64::from(sets - 1),
            stats: CacheStats::default(),
            now: 0,
        }
    }

    /// Creates a cache by entry count instead of byte size (for BTB-like
    /// structures where "line" is an entry tag).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`LineCache::new`]).
    pub fn with_entries(entries: u32, ways: u32, line_bytes: u32) -> Self {
        Self::new(entries * line_bytes, ways, line_bytes)
    }

    /// The ways of the set `line` maps to.
    #[inline]
    fn set_of(&self, line: LineAddr) -> std::ops::Range<usize> {
        // Masked by `sets - 1`, so the value always fits in usize.
        #[allow(clippy::cast_possible_truncation)]
        let set = ((line.base().get() >> self.set_shift) & self.set_mask) as usize;
        set * self.assoc..(set + 1) * self.assoc
    }

    /// Accesses `line`, filling it on a miss. Returns what happened.
    #[inline]
    pub fn access(&mut self, line: LineAddr) -> LineOutcome {
        self.now += 1;
        self.stats.accesses += 1;
        let range = self.set_of(line);
        let set = &mut self.ways[range];
        if let Some(way) = set.iter_mut().find(|w| w.holds(line)) {
            way.last_access = self.now;
            self.stats.hits += 1;
            return LineOutcome::Hit;
        }
        self.stats.misses += 1;
        self.stats.fills += 1;
        // The first never-filled way (stamp 0) if any, else the LRU way.
        let victim = set
            .iter_mut()
            .min_by_key(|w| w.last_access)
            .expect("sets have at least one way");
        let old = std::mem::replace(
            victim,
            Way {
                line,
                last_access: self.now,
            },
        );
        let evicted = (old.last_access != 0).then_some(old.line);
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        LineOutcome::Miss { evicted }
    }

    /// Refreshes `line`'s recency without counting an access (used to keep
    /// the L1i's LRU state coupled to micro-op cache hits under inclusion).
    /// Returns whether the line was present.
    #[inline]
    pub fn touch(&mut self, line: LineAddr) -> bool {
        self.now += 1;
        let range = self.set_of(line);
        if let Some(way) = self.ways[range].iter_mut().find(|w| w.holds(line)) {
            way.last_access = self.now;
            true
        } else {
            false
        }
    }

    /// Whether `line` is present (does not update recency).
    #[cfg(test)]
    pub(crate) fn contains(&self, line: LineAddr) -> bool {
        self.ways[self.set_of(line)].iter().any(|w| w.holds(line))
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::Addr;

    fn line(addr: u64) -> LineAddr {
        Addr::new(addr).line(64)
    }

    #[test]
    fn fill_then_hit() {
        let mut c = LineCache::new(4 * 64, 2, 64); // 2 sets x 2 ways
        assert!(matches!(
            c.access(line(0)),
            LineOutcome::Miss { evicted: None }
        ));
        assert_eq!(c.access(line(0)), LineOutcome::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = LineCache::new(4 * 64, 2, 64); // sets 0,1
                                                   // Lines 0, 128, 256 all map to set 0.
        c.access(line(0));
        c.access(line(128));
        c.access(line(0)); // refresh 0; 128 is now LRU
        match c.access(line(256)) {
            LineOutcome::Miss { evicted: Some(e) } => assert_eq!(e, line(128)),
            other => panic!("{other:?}"),
        }
        assert!(c.contains(line(0)));
        assert!(!c.contains(line(128)));
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = LineCache::new(4 * 64, 2, 64);
        c.access(line(0)); // set 0
        c.access(line(64)); // set 1
        assert!(c.contains(line(0)));
        assert!(c.contains(line(64)));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn entries_constructor() {
        let c = LineCache::with_entries(8192, 4, 64);
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = LineCache::new(3 * 64, 1, 64);
    }

    #[test]
    #[should_panic(expected = "line size must be a power of two")]
    fn non_power_of_two_line_size_rejected_at_construction() {
        // 16 lines of 48 bytes in 8 sets of 2 ways: the set geometry is
        // valid, but a 48-byte line cannot be indexed by shift and mask.
        let _ = LineCache::new(16 * 48, 2, 48);
    }

    #[test]
    fn never_filled_line_zero_is_not_a_hit() {
        let mut c = LineCache::new(4 * 64, 2, 64);
        assert!(!c.contains(line(0)));
        assert!(!c.touch(line(0)));
        assert!(matches!(
            c.access(line(0)),
            LineOutcome::Miss { evicted: None }
        ));
    }
}
