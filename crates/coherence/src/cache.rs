//! Generic set-associative cache array with true-LRU replacement.
//!
//! Storage is proportional to the sets a run has touched, not to the
//! array's geometry. A set has no storage until its first insert. It
//! then gets one buffer of `assoc` ways, appended to a dense list of
//! touched sets, and a per-set `u32` index maps set numbers into that
//! list. The index itself is allocated, zeroed, on the first insert
//! anywhere. A litmus-scale run touches a handful of the 2048 sets of
//! each 1 MB L3 bank, so it builds, and later drops, 8 KB of index plus
//! a few 64-byte sets instead of 2048 set headers per bank. Lookups go
//! through the index and then scan one set, exactly as before. Each set
//! is still ordered most-recently-used first, so recency, victims and
//! `iter` order do not depend on the storage.

use sa_isa::{Line, LINE_BYTES};

/// A set-associative tag array mapping [`Line`]s to per-line payloads of
/// type `T`, with true-LRU replacement.
///
/// ```
/// use sa_coherence::cache::CacheArray;
/// // 2 sets x 2 ways
/// let mut c: CacheArray<u32> = CacheArray::new(4 * 64, 2);
/// use sa_isa::Line;
/// assert!(c.insert(Line::from_raw(0), 10).is_none());
/// assert!(c.insert(Line::from_raw(2), 20).is_none()); // same set (2 sets)
/// c.touch(Line::from_raw(0));
/// // next insert in the set evicts the LRU line (line 2)
/// let victim = c.insert(Line::from_raw(4), 30).unwrap();
/// assert_eq!(victim, (Line::from_raw(2), 20));
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray<T> {
    /// `index[s]` is 0 while set `s` has never been inserted into, else
    /// one plus the position of its ways in `sets`. Empty until the
    /// first insert.
    index: Vec<u32>,
    /// Ways of the touched sets, in first-touch order. Each is ordered
    /// most-recently-used first and holds at most `assoc` lines.
    sets: Vec<Vec<(Line, T)>>,
    assoc: usize,
    set_mask: u64,
}

impl<T> CacheArray<T> {
    /// Creates an array of `bytes` capacity and `assoc` ways. Nothing is
    /// allocated until the first insert.
    ///
    /// # Panics
    ///
    /// Panics if the resulting set count is zero or not a power of two.
    pub fn new(bytes: usize, assoc: usize) -> CacheArray<T> {
        let lines = bytes / LINE_BYTES as usize;
        assert!(assoc > 0 && lines >= assoc, "cache smaller than one set");
        let n_sets = lines / assoc;
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        CacheArray {
            index: Vec::new(),
            sets: Vec::new(),
            assoc,
            set_mask: n_sets as u64 - 1,
        }
    }

    #[inline]
    fn set_of(&self, line: Line) -> usize {
        (line.raw() & self.set_mask) as usize
    }

    /// Position in `sets` of `line`'s set, `None` while it is untouched.
    #[inline]
    fn slot(&self, line: Line) -> Option<usize> {
        let i = *self.index.get(self.set_of(line))?;
        (i as usize).checked_sub(1)
    }

    #[inline]
    fn set(&self, line: Line) -> Option<&Vec<(Line, T)>> {
        self.slot(line).map(|i| &self.sets[i])
    }

    #[inline]
    fn set_mut(&mut self, line: Line) -> Option<&mut Vec<(Line, T)>> {
        self.slot(line).map(|i| &mut self.sets[i])
    }

    /// Number of sets.
    pub fn n_sets(&self) -> usize {
        (self.set_mask + 1) as usize
    }

    /// Associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// `true` when `line` is present.
    pub fn contains(&self, line: Line) -> bool {
        self.set(line)
            .is_some_and(|set| set.iter().any(|(l, _)| *l == line))
    }

    /// Payload of `line`, without updating recency.
    pub fn peek(&self, line: Line) -> Option<&T> {
        self.set(line)?
            .iter()
            .find(|(l, _)| *l == line)
            .map(|(_, t)| t)
    }

    /// Mutable payload of `line`, without updating recency.
    pub fn peek_mut(&mut self, line: Line) -> Option<&mut T> {
        self.set_mut(line)?
            .iter_mut()
            .find(|(l, _)| *l == line)
            .map(|(_, t)| t)
    }

    /// Marks `line` most-recently-used; returns `true` if it was present.
    pub fn touch(&mut self, line: Line) -> bool {
        let Some(set) = self.set_mut(line) else {
            return false;
        };
        if let Some(pos) = set.iter().position(|(l, _)| *l == line) {
            set[..=pos].rotate_right(1);
            true
        } else {
            false
        }
    }

    /// Inserts `line` as MRU, returning the evicted LRU victim when the set
    /// was full. Re-inserting a present line updates its payload and
    /// recency without eviction.
    pub fn insert(&mut self, line: Line, payload: T) -> Option<(Line, T)> {
        let s = self.set_of(line);
        if self.index.is_empty() {
            self.index = vec![0; self.n_sets()];
        }
        if self.index[s] == 0 {
            // First insert into this set: its full way capacity at once,
            // so the set never reallocates.
            self.sets.push(Vec::with_capacity(self.assoc));
            self.index[s] = u32::try_from(self.sets.len()).expect("set count fits u32");
        }
        let assoc = self.assoc;
        let set = &mut self.sets[self.index[s] as usize - 1];
        if let Some(pos) = set.iter().position(|(l, _)| *l == line) {
            set.remove(pos);
            set.insert(0, (line, payload));
            return None;
        }
        let victim = if set.len() == assoc { set.pop() } else { None };
        set.insert(0, (line, payload));
        victim
    }

    /// Removes `line`, returning its payload.
    pub fn remove(&mut self, line: Line) -> Option<T> {
        let set = self.set_mut(line)?;
        let pos = set.iter().position(|(l, _)| *l == line)?;
        Some(set.remove(pos).1)
    }

    /// Total lines currently resident.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.sets.iter().all(Vec::is_empty)
    }

    /// Iterates over `(line, payload)` pairs by ascending set number,
    /// most-recently-used first within a set.
    pub fn iter(&self) -> impl Iterator<Item = (Line, &T)> {
        self.index
            .iter()
            .filter_map(|&i| (i as usize).checked_sub(1))
            .flat_map(|i| self.sets[i].iter())
            .map(|(l, t)| (*l, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ln(i: u64) -> Line {
        Line::from_raw(i)
    }

    #[test]
    fn insert_probe_remove() {
        let mut c: CacheArray<i32> = CacheArray::new(8 * 64, 2); // 4 sets x 2 ways
        assert!(c.insert(ln(1), 11).is_none());
        assert!(c.contains(ln(1)));
        assert_eq!(c.peek(ln(1)), Some(&11));
        assert_eq!(c.remove(ln(1)), Some(11));
        assert!(!c.contains(ln(1)));
        assert!(c.is_empty());
    }

    #[test]
    fn lru_eviction_order() {
        let mut c: CacheArray<i32> = CacheArray::new(2 * 64, 2); // 1 set x 2 ways
        c.insert(ln(0), 0);
        c.insert(ln(1), 1);
        c.touch(ln(0)); // 1 becomes LRU
        let v = c.insert(ln(2), 2).unwrap();
        assert_eq!(v.0, ln(1));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_updates_payload_without_eviction() {
        let mut c: CacheArray<i32> = CacheArray::new(2 * 64, 2);
        c.insert(ln(0), 0);
        c.insert(ln(1), 1);
        assert!(c.insert(ln(0), 99).is_none());
        assert_eq!(c.peek(ln(0)), Some(&99));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn sets_are_independent() {
        let mut c: CacheArray<i32> = CacheArray::new(4 * 64, 1); // 4 sets x 1 way
        assert!(c.insert(ln(0), 0).is_none());
        assert!(c.insert(ln(1), 1).is_none());
        assert!(c.insert(ln(2), 2).is_none());
        assert!(c.insert(ln(3), 3).is_none());
        // line 4 maps to set 0 -> evicts line 0
        let v = c.insert(ln(4), 4).unwrap();
        assert_eq!(v, (ln(0), 0));
    }

    #[test]
    fn peek_mut_modifies() {
        let mut c: CacheArray<i32> = CacheArray::new(2 * 64, 2);
        c.insert(ln(0), 1);
        *c.peek_mut(ln(0)).unwrap() = 7;
        assert_eq!(c.peek(ln(0)), Some(&7));
        assert!(c.peek_mut(ln(9)).is_none());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        let _: CacheArray<()> = CacheArray::new(6 * 64, 2); // 3 sets
    }
}
