//! Lazily-grown per-(set, slot) state storage shared by the policies.

/// A 2-D table of policy state indexed by `(set, slot)`, growing on demand.
///
/// # Examples
///
/// ```
/// use uopcache_policies::SlotTable;
///
/// let mut t: SlotTable<u8> = SlotTable::new();
/// *t.get_mut(3, 1) = 7;
/// assert_eq!(*t.get(3, 1), 7);
/// assert_eq!(*t.get(0, 0), 0); // untouched cells read as default
/// ```
#[derive(Clone, Debug, Default)]
pub struct SlotTable<T: Default + Clone> {
    rows: Vec<Vec<T>>,
    default: T,
}

impl<T: Default + Clone> SlotTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        SlotTable {
            rows: Vec::new(),
            default: T::default(),
        }
    }

    /// Grows the table to cover `sets × ways` cells up front (all reading
    /// as default), so subsequent `get_mut` calls never allocate. Policies
    /// call this from [`prepare`] with the cache geometry; cells outside it
    /// still lazily grow if ever touched.
    ///
    /// [`prepare`]: uopcache_cache::PwReplacementPolicy::prepare
    pub fn reserve(&mut self, sets: usize, ways: u32) {
        if self.rows.len() < sets {
            self.rows.resize_with(sets, Vec::new);
        }
        let ways = ways as usize;
        for row in &mut self.rows {
            if row.len() < ways {
                row.resize_with(ways, T::default);
            }
        }
    }

    /// Mutable access to the cell, growing the table as needed.
    pub fn get_mut(&mut self, set: usize, slot: u8) -> &mut T {
        if self.rows.len() <= set {
            self.rows.resize_with(set + 1, Vec::new); // audit:allow(hot-path-alloc) — lazy growth to the geometry; warmed tables never regrow
        }
        let row = &mut self.rows[set];
        let slot = usize::from(slot);
        if row.len() <= slot {
            row.resize_with(slot + 1, T::default); // audit:allow(hot-path-alloc) — lazy growth to the geometry; warmed tables never regrow
        }
        &mut row[slot]
    }

    /// Read access; returns the default for untouched cells.
    pub fn get(&self, set: usize, slot: u8) -> &T {
        self.rows
            .get(set)
            .and_then(|row| row.get(usize::from(slot)))
            .unwrap_or(&self.default)
    }
}

/// A 1-D table of per-set policy state, growing on demand — the per-set
/// companion of [`SlotTable`] for scalars like a CLOCK hand, an ARC
/// adaptation target, or a set-dueling PSEL counter.
///
/// # Examples
///
/// ```
/// use uopcache_policies::SetTable;
///
/// let mut t: SetTable<u16> = SetTable::new();
/// *t.get_mut(5) = 300;
/// assert_eq!(*t.get(5), 300);
/// assert_eq!(*t.get(0), 0); // untouched cells read as default
/// ```
#[derive(Clone, Debug, Default)]
pub struct SetTable<T: Default + Clone> {
    cells: Vec<T>,
    default: T,
}

impl<T: Default + Clone> SetTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        SetTable {
            cells: Vec::new(),
            default: T::default(),
        }
    }

    /// Grows the table to cover `sets` cells up front (all reading as
    /// default), so subsequent `get_mut` calls never allocate. Policies call
    /// this from [`prepare`] with the cache geometry.
    ///
    /// [`prepare`]: uopcache_cache::PwReplacementPolicy::prepare
    pub(crate) fn reserve(&mut self, sets: usize) {
        if self.cells.len() < sets {
            self.cells.resize_with(sets, T::default);
        }
    }

    /// Mutable access to the cell, growing the table as needed.
    pub fn get_mut(&mut self, set: usize) -> &mut T {
        if self.cells.len() <= set {
            self.cells.resize_with(set + 1, T::default); // audit:allow(hot-path-alloc) — lazy growth to the geometry; warmed tables never regrow
        }
        &mut self.cells[set]
    }

    /// Read access; returns the default for untouched cells.
    pub fn get(&self, set: usize) -> &T {
        self.cells.get(set).unwrap_or(&self.default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_table_grows_and_reads_default() {
        let mut t: SetTable<u32> = SetTable::new();
        *t.get_mut(9) = 7;
        assert_eq!(*t.get(9), 7);
        assert_eq!(*t.get(8), 0);
        assert_eq!(*t.get(1000), 0);
        t.reserve(16);
        assert_eq!(*t.get(15), 0);
    }

    #[test]
    fn grows_independently_per_row() {
        let mut t: SlotTable<u32> = SlotTable::new();
        *t.get_mut(5, 7) = 42;
        assert_eq!(*t.get(5, 7), 42);
        assert_eq!(*t.get(5, 6), 0);
        assert_eq!(*t.get(4, 7), 0);
        assert_eq!(*t.get(100, 100), 0);
    }

    #[test]
    fn overwrites_persist() {
        let mut t: SlotTable<i64> = SlotTable::new();
        *t.get_mut(0, 0) = -1;
        *t.get_mut(0, 0) = 9;
        assert_eq!(*t.get(0, 0), 9);
    }
}
