//! The unified store queue / store buffer (SQ/SB), stored
//! struct-of-arrays.
//!
//! As in actual implementations (and the paper's §II-A), the SQ and SB are
//! one physical circular buffer; the boundary between them is just the
//! retired/non-retired flag. Each entry's **key** is its position in the
//! circular buffer plus a *sorting bit* that flips on wrap-around, so a
//! key uniquely names one store generation (§IV-B2).
//!
//! The SoA ring is sized exactly to the architectural capacity, which
//! makes the physical slot *be* the key's position bits: `contains_key`
//! — the check every retiring SLF load and every gate-key probe performs
//! — is one occupancy test plus one sorting-bit compare instead of a
//! queue scan. The forwarding age search walks the dense
//! address/size/resolved columns youngest-first. The fields only one
//! store's own dispatch, commit or ordering check reads share one
//! `StoreEntry` column.

use sa_coherence::MemReqId;
use sa_isa::{addr, Addr, Cycle, Line, Value};

use crate::gate::Key;
use crate::rob::RobIdx;

/// Generation-tagged handle to an SQ/SB entry. `seq` is the unique,
/// monotonic store id (program order, never reused — squash rewinds the
/// circular tail but not the seq counter); `slot` locates the physical
/// column index, which equals the key's position bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SqIdx {
    /// Unique store id (program order).
    pub seq: u64,
    /// Physical slot in the SoA columns (== `Key::slot`).
    pub slot: u32,
}

/// Result of a load's forwarding search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchHit {
    /// No older store overlaps; `passed_unresolved` reports whether the
    /// scan skipped stores with unresolved addresses (D-speculation).
    Miss {
        /// Scan skipped at least one unresolved-address older store.
        passed_unresolved: bool,
    },
    /// The youngest older matching store fully covers the load.
    Forward {
        /// The matching store.
        store: SqIdx,
        /// Scan skipped an unresolved-address store younger than `store`.
        passed_unresolved: bool,
    },
    /// The youngest older overlapping store only partially covers the
    /// load (no forwarding possible).
    Partial {
        /// The overlapping store.
        store: SqIdx,
    },
}

/// Per-store fields outside the scanned columns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StoreEntry {
    pub(crate) pc: u64,
    pub(crate) value: Option<Value>,
    pub(crate) committing_done: Option<Cycle>,
    pub(crate) own_req: Option<MemReqId>,
}

/// The circular SQ/SB over struct-of-arrays columns.
#[derive(Debug)]
pub struct StoreQueue {
    capacity: usize,
    /// Physical slot of the oldest entry.
    head: usize,
    /// Occupied entries.
    len: usize,
    /// Total allocations; `alloc % capacity` is the circular slot and
    /// `(alloc / capacity) & 1` the sorting bit. Rewound on squash exactly
    /// like a hardware tail pointer, so `(head + len) % capacity ==
    /// alloc_count % capacity` is an invariant.
    alloc_count: u64,
    next_seq: u64,
    /// Live stores with an unresolved address — lets the D-speculation
    /// prefix scans ([`StoreQueue::any_older_unresolved`] and the
    /// StoreSet conflict test) exit in O(1) in the common all-resolved
    /// case.
    unresolved: usize,
    /// Live retired (SB-portion) stores — makes `sb_nonempty`/`sb_depth`
    /// O(1).
    n_retired: usize,
    /// Live stores whose commit has started (`committing_done` set).
    /// Commits start in order, so the next candidate is at queue
    /// position `n_committing` — an O(1) lookup instead of a prefix
    /// walk in the drain phase.
    n_committing: usize,
    /// Bloom-style presence filter over the 8-byte granules touched by
    /// live stores: bit `(addr >> 3) & 63` is set while any live store
    /// writes that granule. Addresses are fixed at `alloc` (resolution
    /// is a timing event, not a value event), so the filter only moves
    /// on alloc / pop / truncate; `filter_counts` makes removal exact.
    /// When every address is resolved and no load granule hits the
    /// filter, a forwarding search is a guaranteed clean miss without
    /// walking the queue.
    filter: u64,
    filter_counts: [u16; 64],
    // --- parallel columns, indexed by physical slot ---
    pub(crate) seq: Vec<u64>,
    pub(crate) rob: Vec<RobIdx>,
    pub(crate) addr: Vec<Addr>,
    pub(crate) size: Vec<u8>,
    pub(crate) line: Vec<Line>,
    addr_resolved: Vec<bool>,
    retired: Vec<bool>,
    sorting: Vec<bool>,
    pub(crate) entry: Vec<StoreEntry>,
}

impl StoreQueue {
    /// An empty SQ/SB of `capacity` entries.
    pub fn new(capacity: usize) -> StoreQueue {
        StoreQueue {
            capacity,
            head: 0,
            len: 0,
            alloc_count: 0,
            next_seq: 0,
            unresolved: 0,
            n_retired: 0,
            n_committing: 0,
            filter: 0,
            filter_counts: [0; 64],
            seq: vec![0; capacity],
            rob: vec![RobIdx { seq: 0, slot: 0 }; capacity],
            addr: vec![0; capacity],
            size: vec![0; capacity],
            line: vec![Line::containing(0); capacity],
            addr_resolved: vec![false; capacity],
            retired: vec![false; capacity],
            sorting: vec![false; capacity],
            entry: vec![
                StoreEntry {
                    pc: 0,
                    value: None,
                    committing_done: None,
                    own_req: None,
                };
                capacity
            ],
        }
    }

    /// The (at most two) filter bits for the granules `[a, a+size)`
    /// touches: a ≤8-byte access spans one or two 8-byte granules.
    #[inline]
    fn filter_bits(a: Addr, size: u8) -> (u32, Option<u32>) {
        let lo = ((a >> 3) & 63) as u32;
        let hi = (((a + u64::from(size) - 1) >> 3) & 63) as u32;
        (lo, if hi == lo { None } else { Some(hi) })
    }

    #[inline]
    fn filter_add(&mut self, a: Addr, size: u8) {
        let (lo, hi) = Self::filter_bits(a, size);
        self.filter_counts[lo as usize] += 1;
        self.filter |= 1u64 << lo;
        if let Some(hi) = hi {
            self.filter_counts[hi as usize] += 1;
            self.filter |= 1u64 << hi;
        }
    }

    #[inline]
    fn filter_remove(&mut self, a: Addr, size: u8) {
        let (lo, hi) = Self::filter_bits(a, size);
        self.filter_counts[lo as usize] -= 1;
        if self.filter_counts[lo as usize] == 0 {
            self.filter &= !(1u64 << lo);
        }
        if let Some(hi) = hi {
            self.filter_counts[hi as usize] -= 1;
            if self.filter_counts[hi as usize] == 0 {
                self.filter &= !(1u64 << hi);
            }
        }
    }

    /// `false` only when no live store can overlap `[a, a+size)`.
    #[inline]
    fn filter_may_match(&self, a: Addr, size: u8) -> bool {
        let (lo, hi) = Self::filter_bits(a, size);
        let mut probe = 1u64 << lo;
        if let Some(hi) = hi {
            probe |= 1u64 << hi;
        }
        self.filter & probe != 0
    }

    /// `true` when no entry can be allocated.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// `true` when there are no stores at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Physical slot of queue position `pos` (0 = oldest); `pos < len`.
    #[inline]
    pub(crate) fn phys(&self, pos: usize) -> usize {
        let s = self.head + pos;
        if s >= self.capacity {
            s - self.capacity
        } else {
            s
        }
    }

    /// Queue position of a live handle, `None` when stale.
    #[inline]
    pub fn pos_of(&self, idx: SqIdx) -> Option<usize> {
        let slot = idx.slot as usize;
        if slot >= self.capacity {
            return None;
        }
        let pos = if slot >= self.head {
            slot - self.head
        } else {
            slot + self.capacity - self.head
        };
        (pos < self.len && self.seq[slot] == idx.seq).then_some(pos)
    }

    /// Physical slot of a live handle, `None` when stale.
    #[inline]
    pub(crate) fn live_slot(&self, idx: SqIdx) -> Option<usize> {
        self.pos_of(idx).map(|_| idx.slot as usize)
    }

    /// `true` while the handle names a live entry.
    pub fn contains(&self, idx: SqIdx) -> bool {
        self.pos_of(idx).is_some()
    }

    /// Handle of the entry in physical `slot` (must be occupied).
    #[inline]
    pub(crate) fn idx_at_slot(&self, slot: usize) -> SqIdx {
        SqIdx {
            seq: self.seq[slot],
            slot: slot as u32,
        }
    }

    /// Handle of the oldest store (the SB head when retired).
    pub fn head_idx(&self) -> Option<SqIdx> {
        (self.len > 0).then(|| self.idx_at_slot(self.head))
    }

    /// Physical slot of the oldest store.
    #[inline]
    pub(crate) fn head_slot(&self) -> Option<usize> {
        (self.len > 0).then_some(self.head)
    }

    /// Allocates a store at the tail.
    ///
    /// # Panics
    ///
    /// Panics when full — the dispatcher must check [`StoreQueue::is_full`].
    pub fn alloc(
        &mut self,
        rob: RobIdx,
        pc: u64,
        addr: Addr,
        size: u8,
        addr_resolved: bool,
        value: Option<Value>,
    ) -> SqIdx {
        assert!(!self.is_full(), "SQ/SB overflow");
        let slot = (self.alloc_count % self.capacity as u64) as usize;
        debug_assert_eq!(slot, self.phys(self.len), "tail/alloc invariant");
        let sorting = (self.alloc_count / self.capacity as u64) & 1 == 1;
        self.alloc_count += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.seq[slot] = seq;
        self.rob[slot] = rob;
        self.addr[slot] = addr;
        self.size[slot] = size;
        self.line[slot] = Line::containing(addr);
        self.addr_resolved[slot] = addr_resolved;
        self.retired[slot] = false;
        self.sorting[slot] = sorting;
        self.entry[slot] = StoreEntry {
            pc,
            value,
            committing_done: None,
            own_req: None,
        };
        if !addr_resolved {
            self.unresolved += 1;
        }
        self.filter_add(addr, size);
        SqIdx {
            seq,
            slot: slot as u32,
        }
    }

    /// The key of the entry in physical `slot`.
    #[inline]
    pub(crate) fn key_at(&self, slot: usize) -> Key {
        Key {
            slot: slot as u16,
            sorting: self.sorting[slot],
        }
    }

    /// The key of a live store, `None` when the handle is stale.
    pub fn key_of(&self, idx: SqIdx) -> Option<Key> {
        self.live_slot(idx).map(|s| self.key_at(s))
    }

    /// Whether the entry in `slot` has its address resolved.
    #[inline]
    pub(crate) fn addr_resolved_at(&self, slot: usize) -> bool {
        self.addr_resolved[slot]
    }

    /// Marks the address of `slot` resolved, maintaining the unresolved
    /// count.
    pub(crate) fn resolve_addr_at(&mut self, slot: usize) {
        if !self.addr_resolved[slot] {
            self.addr_resolved[slot] = true;
            self.unresolved -= 1;
        }
    }

    /// Marks a live store's address resolved; `false` when stale.
    pub fn resolve_addr(&mut self, idx: SqIdx) -> bool {
        match self.live_slot(idx) {
            Some(slot) => {
                self.resolve_addr_at(slot);
                true
            }
            None => false,
        }
    }

    /// Whether the entry in `slot` is retired (in the SB portion).
    #[inline]
    pub(crate) fn retired_at(&self, slot: usize) -> bool {
        self.retired[slot]
    }

    /// Moves the entry in `slot` to the SB portion, maintaining the
    /// retired count.
    pub(crate) fn mark_retired_at(&mut self, slot: usize) {
        debug_assert!(!self.retired[slot], "store retired twice");
        self.retired[slot] = true;
        self.n_retired += 1;
    }

    /// Moves a live store to the SB portion; `false` when stale.
    pub fn mark_retired(&mut self, idx: SqIdx) -> bool {
        match self.live_slot(idx) {
            Some(slot) => {
                self.mark_retired_at(slot);
                true
            }
            None => false,
        }
    }

    /// `true` once address and data of `slot` are both available.
    #[inline]
    pub(crate) fn executed_at(&self, slot: usize) -> bool {
        self.addr_resolved[slot] && self.entry[slot].value.is_some()
    }

    /// Removes the committed head. The caller reads any fields it needs
    /// from the head columns first.
    /// Marks the store in physical `slot` as committing, done at `done`
    /// — the only writer of `committing_done`, so the started-commit
    /// counter stays exact.
    #[inline]
    pub(crate) fn start_commit_at(&mut self, slot: usize, done: Cycle) {
        debug_assert!(
            self.entry[slot].committing_done.is_none(),
            "commit started twice"
        );
        self.entry[slot].committing_done = Some(done);
        self.n_committing += 1;
    }

    /// Started (possibly finished, not yet drained) commits. Commits
    /// start strictly in order, so this doubles as the queue position of
    /// the next commit candidate.
    #[inline]
    pub(crate) fn n_committing(&self) -> usize {
        self.n_committing
    }

    pub fn pop_head(&mut self) {
        debug_assert!(self.len > 0, "popping empty SQ/SB");
        let slot = self.head;
        if self.retired[slot] {
            self.n_retired -= 1;
        }
        if self.entry[slot].committing_done.is_some() {
            self.n_committing -= 1;
        }
        if !self.addr_resolved[slot] {
            self.unresolved -= 1;
        }
        self.filter_remove(self.addr[slot], self.size[slot]);
        self.head = if self.head + 1 >= self.capacity {
            0
        } else {
            self.head + 1
        };
        self.len -= 1;
    }

    /// `true` while a store whose key is `key` is still in the SQ/SB —
    /// the hardware check a retiring SLF load performs. The position
    /// bits index the buffer directly (physical slot == key slot) and
    /// the sorting bit disambiguates the generation, so this is O(1).
    pub fn contains_key(&self, key: Key) -> bool {
        let slot = key.slot as usize;
        if slot >= self.capacity {
            return false;
        }
        let pos = if slot >= self.head {
            slot - self.head
        } else {
            slot + self.capacity - self.head
        };
        pos < self.len && self.sorting[slot] == key.sorting
    }

    /// `true` when any *retired, uncommitted* store exists (the SB is
    /// non-empty) — the `370-SLFSpec` retire condition and the fence
    /// condition.
    pub fn sb_nonempty(&self) -> bool {
        self.n_retired > 0
    }

    /// Retired (SB-portion) stores right now.
    pub fn sb_depth(&self) -> usize {
        self.n_retired
    }

    /// `true` when any live store's address is still unresolved — O(1)
    /// gate for the StoreSet conflict scan.
    pub fn has_unresolved(&self) -> bool {
        self.unresolved > 0
    }

    /// `true` when any store *older than* `rob` is still in the SQ/SB.
    pub fn any_older(&self, rob: RobIdx) -> bool {
        self.len > 0 && self.rob[self.head] < rob
    }

    /// `true` when a store older than `rob` has an unresolved address
    /// (the load at `rob` is D-speculative right now).
    pub fn any_older_unresolved(&self, rob: RobIdx) -> bool {
        if self.unresolved == 0 {
            return false;
        }
        for pos in 0..self.len {
            let s = self.phys(pos);
            if self.rob[s] >= rob {
                break;
            }
            if !self.addr_resolved[s] {
                return true;
            }
        }
        false
    }

    /// Forwarding search for a load (`rob`, `[a, a+size)`): scans older
    /// stores youngest-first (§II-A: the most recent matching store
    /// wins).
    pub fn search(&self, rob: RobIdx, a: Addr, size: u8) -> SearchHit {
        // Fast path: every address is resolved (so the walk can't set
        // `passed_unresolved`) and no live store touches the load's
        // granules — a clean miss without walking the queue.
        if self.unresolved == 0 && !self.filter_may_match(a, size) {
            return SearchHit::Miss {
                passed_unresolved: false,
            };
        }
        let mut passed_unresolved = false;
        // Entries are age-ordered, so the younger suffix is located with
        // a binary search instead of being stepped over entry by entry.
        let mut pos = self.cut_pos(rob);
        while pos > 0 {
            pos -= 1;
            let s = self.phys(pos);
            debug_assert!(self.rob[s] < rob);
            if !self.addr_resolved[s] {
                passed_unresolved = true;
                continue;
            }
            if addr::covers(self.addr[s], self.size[s], a, size) {
                return SearchHit::Forward {
                    store: self.idx_at_slot(s),
                    passed_unresolved,
                };
            }
            if addr::overlaps(self.addr[s], self.size[s], a, size) {
                return SearchHit::Partial {
                    store: self.idx_at_slot(s),
                };
            }
        }
        SearchHit::Miss { passed_unresolved }
    }

    /// First queue position whose store is `from` or younger (the squash
    /// cut point); `len` when every store is older.
    pub fn cut_pos(&self, from: RobIdx) -> usize {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.rob[self.phys(mid)] < from {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Drops every *non-retired* store at queue position `new_len` and
    /// beyond, rewinding the circular tail pointer (slots and sorting
    /// bits are reused, as in hardware). The caller walks the suffix
    /// first to release any in-flight bookkeeping.
    pub fn truncate(&mut self, new_len: usize) {
        debug_assert!(new_len <= self.len);
        for pos in new_len..self.len {
            let s = self.phys(pos);
            debug_assert!(!self.retired[s], "squashed a retired store");
            if !self.addr_resolved[s] {
                self.unresolved -= 1;
            }
            self.filter_remove(self.addr[s], self.size[s]);
        }
        self.alloc_count -= (self.len - new_len) as u64;
        self.len = new_len;
    }

    /// Iterates live handles oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = SqIdx> + '_ {
        (0..self.len).map(|pos| self.idx_at_slot(self.phys(pos)))
    }

    /// Iterates live keys oldest → youngest.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        (0..self.len).map(|pos| self.key_at(self.phys(pos)))
    }
}

/// Extracts the bytes `[la, la+lsize)` from a store of `value` at
/// `[sa, sa+ssize)`; the store must cover the load.
pub fn extract_forwarded(sa: Addr, ssize: u8, value: Value, la: Addr, lsize: u8) -> Value {
    debug_assert!(
        addr::covers(sa, ssize, la, lsize),
        "store does not cover load"
    );
    let shift = (la - sa) * 8;
    let v = value >> shift;
    if lsize == 8 {
        v
    } else {
        v & ((1u64 << (u64::from(lsize) * 8)) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(seq: u64) -> RobIdx {
        RobIdx { seq, slot: 0 }
    }

    fn sq() -> StoreQueue {
        StoreQueue::new(4)
    }

    #[test]
    fn keys_cycle_with_sorting_bit() {
        let mut q = StoreQueue::new(2);
        let a = q.alloc(rid(0), 0, 0x100, 8, true, Some(1));
        let b = q.alloc(rid(1), 0, 0x108, 8, true, Some(2));
        assert_eq!(
            q.key_of(a).unwrap(),
            Key {
                slot: 0,
                sorting: false
            }
        );
        assert_eq!(
            q.key_of(b).unwrap(),
            Key {
                slot: 1,
                sorting: false
            }
        );
        q.pop_head();
        q.pop_head();
        let c = q.alloc(rid(2), 0, 0x110, 8, true, Some(3));
        assert_eq!(
            q.key_of(c).unwrap(),
            Key {
                slot: 0,
                sorting: true
            },
            "wrap-around flips the sorting bit"
        );
    }

    #[test]
    fn squash_rewinds_tail_pointer() {
        let mut q = StoreQueue::new(2);
        let _a = q.alloc(rid(0), 0, 0x100, 8, true, Some(1));
        let b = q.alloc(rid(5), 0, 0x108, 8, true, Some(2));
        let key_b = q.key_of(b).unwrap();
        let cut = q.cut_pos(rid(5));
        q.truncate(cut);
        assert_eq!(q.len(), 1);
        assert!(!q.contains(b), "squashed handle is stale");
        // Replay allocates the same slot and sorting bit.
        let b2 = q.alloc(rid(7), 0, 0x108, 8, true, Some(2));
        assert_eq!(q.key_of(b2).unwrap(), key_b);
        assert!(!q.contains(b), "stale handle stays dead after slot reuse");
    }

    #[test]
    fn search_prefers_youngest_older_match() {
        let mut q = sq();
        q.alloc(rid(0), 0, 0x100, 8, true, Some(1));
        let newer = q.alloc(rid(2), 0, 0x100, 8, true, Some(2));
        // A load at seq 5 matches the younger of the two stores.
        match q.search(rid(5), 0x100, 8) {
            SearchHit::Forward {
                store,
                passed_unresolved,
            } => {
                assert_eq!(store, newer);
                assert!(!passed_unresolved);
            }
            other => panic!("expected forward, got {other:?}"),
        }
        // A load older than both misses.
        assert_eq!(
            q.search(rid(0), 0x100, 8),
            SearchHit::Miss {
                passed_unresolved: false
            }
        );
    }

    #[test]
    fn search_reports_unresolved_scans() {
        let mut q = sq();
        q.alloc(rid(0), 0, 0x100, 8, true, Some(1));
        q.alloc(rid(2), 0, 0x900, 8, false, None); // unresolved
        match q.search(rid(5), 0x100, 8) {
            SearchHit::Forward {
                passed_unresolved, ..
            } => assert!(passed_unresolved),
            other => panic!("{other:?}"),
        }
        match q.search(rid(5), 0x700, 8) {
            SearchHit::Miss { passed_unresolved } => assert!(passed_unresolved),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn partial_overlap_detected() {
        let mut q = sq();
        q.alloc(rid(0), 0, 0x104, 4, true, Some(1));
        match q.search(rid(5), 0x100, 8) {
            SearchHit::Partial { .. } => {}
            other => panic!("expected partial, got {other:?}"),
        }
    }

    #[test]
    fn sb_nonempty_tracks_retirement() {
        let mut q = sq();
        let a = q.alloc(rid(0), 0, 0x100, 8, true, Some(1));
        assert!(!q.sb_nonempty());
        q.mark_retired(a);
        assert!(q.sb_nonempty());
        assert_eq!(q.sb_depth(), 1);
        q.pop_head();
        assert!(!q.sb_nonempty());
        assert_eq!(q.sb_depth(), 0);
    }

    #[test]
    fn contains_key_identifies_generation() {
        let mut q = StoreQueue::new(2);
        let a = q.alloc(rid(0), 0, 0x100, 8, true, Some(1));
        let key = q.key_of(a).unwrap();
        assert!(q.contains_key(key));
        q.pop_head();
        assert!(!q.contains_key(key));
        // Next generation in the same slot has a different key (the
        // sorting bit flips), so a stale key can never match it.
        let _b = q.alloc(rid(1), 0, 0x108, 8, true, Some(2));
        let c = q.alloc(rid(2), 0, 0x110, 8, true, Some(2));
        let ck = q.key_of(c).unwrap();
        assert_eq!(ck.slot, key.slot);
        assert_ne!(ck, key);
        assert!(!q.contains_key(key));
    }

    #[test]
    fn unresolved_count_gates_prefix_scan() {
        let mut q = sq();
        let a = q.alloc(rid(0), 0, 0x100, 8, false, None);
        q.alloc(rid(1), 0, 0x108, 8, true, Some(2));
        assert!(q.any_older_unresolved(rid(5)));
        assert!(!q.any_older_unresolved(rid(0)));
        q.resolve_addr(a);
        assert!(!q.any_older_unresolved(rid(5)));
    }

    #[test]
    fn extract_forwarded_subsets() {
        assert_eq!(
            extract_forwarded(0x100, 8, 0x1122_3344_5566_7788, 0x100, 8),
            0x1122_3344_5566_7788
        );
        assert_eq!(
            extract_forwarded(0x100, 8, 0x1122_3344_5566_7788, 0x104, 4),
            0x1122_3344
        );
        assert_eq!(
            extract_forwarded(0x100, 8, 0x1122_3344_5566_7788, 0x100, 1),
            0x88
        );
    }

    #[test]
    #[should_panic(expected = "SQ/SB overflow")]
    fn overflow_panics() {
        let mut q = StoreQueue::new(1);
        q.alloc(rid(0), 0, 0x100, 8, true, None);
        q.alloc(rid(1), 0, 0x108, 8, true, None);
    }
}
