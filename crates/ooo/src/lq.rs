//! The load queue, stored struct-of-arrays.
//!
//! Each entry carries, beyond the classic fields, the paper's two
//! additions (§IV-D): the **SLF bit** (here folded into `slf_key`) and a
//! copy of the forwarding store's **key**. The speculation flags record
//! *why* a performed load is squashable when an invalidation or eviction
//! snoops the queue.
//!
//! Entries live in parallel columns over a circular slot array sized
//! exactly to the capacity, named by generation-tagged [`LqIdx`] handles
//! (same scheme as the ROB). The snoop probe walks the dense
//! `line`/`state` columns, and the any-older-unperformed prefix query
//! reads a word-scanned *performed bitset* instead of striding over
//! entry structs. The fields only an entry's own execution, retry or
//! ordering check reads share one `LoadEntry` column.

use sa_coherence::MemReqId;
use sa_isa::{Addr, Cycle, Line, Value};

use crate::gate::Key;
use crate::rob::RobIdx;
use crate::sq::SqIdx;

/// Generation-tagged handle to a load-queue entry. `seq` is unique and
/// monotonic (age order, never reused); `slot` locates the physical
/// column index in O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LqIdx {
    /// Unique dynamic-load id (age order).
    pub seq: u64,
    /// Physical slot in the SoA columns.
    pub slot: u32,
}

/// Why a load is not executing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// The StoreSet predictor says an older same-set store is unresolved.
    StoreSet,
    /// Forwarding store matched but its data is not ready yet.
    ForwardData(SqIdx),
    /// Must wait for the matched store to write to the L1
    /// (`370-NoSpec`, or a partial overlap in any model).
    StoreCommit(SqIdx),
    /// An older fence is still in the window.
    Fence,
    /// The memory system had no MSHR free; retry.
    MshrFull,
    /// An invalidation or eviction hit the line while this load's memory
    /// access was in flight: the response would be a stale hit, so it is
    /// dropped and the load re-executes from scratch (as an L1 kills an
    /// in-flight hit when a probe takes the line).
    Replay,
}

/// Load execution state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadState {
    /// Address operand not ready yet.
    WaitDeps,
    /// Tried to execute and must retry.
    Blocked(BlockReason),
    /// In flight in the memory system.
    Issued(MemReqId),
    /// Has its value.
    Performed,
}

/// Per-load fields outside the scanned columns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoadEntry {
    pub(crate) pc: u64,
    pub(crate) addr: Addr,
    pub(crate) value: Value,
    pub(crate) performed_at: Cycle,
    pub(crate) attempt_epoch: u64,
    /// Memory-side version stamp captured when this load's issue was
    /// MSHR-rejected; while the port's stamp is unchanged, a retry is
    /// guaranteed to reject identically and is booked without re-probing.
    pub(crate) reject_stamp: u64,
    pub(crate) fwd_from: Option<SqIdx>,
    pub(crate) size: u8,
    pub(crate) m_spec: bool,
    pub(crate) d_spec: bool,
    pub(crate) miss_passed_unresolved: bool,
}

/// The load queue: a bounded, age-ordered circular buffer over
/// struct-of-arrays columns.
#[derive(Debug)]
pub struct LoadQueue {
    /// Physical slot of the oldest entry.
    head: usize,
    /// Occupied entries.
    len: usize,
    /// Capacity, which is also the ring's slot count.
    capacity: usize,
    next_seq: u64,
    /// Live entries whose `slf_key` is set — lets the SA shadow test
    /// skip its prefix scan entirely when no SLF load is in flight.
    slf_live: usize,
    // --- parallel columns, indexed by physical slot ---
    pub(crate) seq: Vec<u64>,
    pub(crate) rob: Vec<RobIdx>,
    pub(crate) line: Vec<Line>,
    state: Vec<LoadState>,
    slf_key: Vec<Option<Key>>,
    pub(crate) entry: Vec<LoadEntry>,
    /// One bit per physical slot: set iff the slot holds a live entry in
    /// [`LoadState::Performed`]. The any-older-unperformed query reduces
    /// to "any zero bit over the prefix's slot range", scanned a word at
    /// a time.
    performed: Vec<u64>,
    /// One bit per physical slot: set iff the slot holds a live entry in
    /// [`LoadState::Blocked`]. The per-cycle retry pass word-scans this
    /// instead of reading every live entry's state.
    blocked: Vec<u64>,
}

impl LoadEntry {
    const EMPTY: LoadEntry = LoadEntry {
        pc: 0,
        addr: 0,
        value: 0,
        performed_at: 0,
        attempt_epoch: 0,
        reject_stamp: 0,
        fwd_from: None,
        size: 0,
        m_spec: false,
        d_spec: false,
        miss_passed_unresolved: false,
    };
}

impl LoadQueue {
    /// An empty LQ of `capacity` entries.
    pub fn new(capacity: usize) -> LoadQueue {
        LoadQueue {
            head: 0,
            len: 0,
            capacity,
            next_seq: 0,
            slf_live: 0,
            seq: vec![0; capacity],
            rob: vec![RobIdx { seq: 0, slot: 0 }; capacity],
            line: vec![Line::containing(0); capacity],
            state: vec![LoadState::WaitDeps; capacity],
            slf_key: vec![None; capacity],
            entry: vec![LoadEntry::EMPTY; capacity],
            performed: vec![0; capacity.div_ceil(64)],
            blocked: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Physical slot of ring index `i < 2 * capacity`.
    #[inline]
    fn wrap(&self, i: usize) -> usize {
        if i >= self.capacity {
            i - self.capacity
        } else {
            i
        }
    }

    /// `true` when no more loads can dispatch.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// `true` when the queue is empty.
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
        self.wrap(self.head + pos)
    }

    /// Queue position of a live handle, `None` when stale.
    #[inline]
    pub fn pos_of(&self, idx: LqIdx) -> Option<usize> {
        let slot = idx.slot as usize;
        let pos = if slot >= self.head {
            slot - self.head
        } else {
            slot + self.capacity - self.head
        };
        (pos < self.len && self.seq[slot] == idx.seq).then_some(pos)
    }

    /// Physical slot of a live handle, `None` when stale.
    #[inline]
    pub(crate) fn live_slot(&self, idx: LqIdx) -> Option<usize> {
        self.pos_of(idx).map(|_| idx.slot as usize)
    }

    /// `true` while the handle names a live entry.
    pub fn contains(&self, idx: LqIdx) -> bool {
        self.pos_of(idx).is_some()
    }

    /// Handle at queue position `pos`.
    pub(crate) fn idx_at(&self, pos: usize) -> LqIdx {
        let slot = self.phys(pos);
        LqIdx {
            seq: self.seq[slot],
            slot: slot as u32,
        }
    }

    /// Allocates an entry at the tail.
    ///
    /// # Panics
    ///
    /// Panics when full — the dispatcher must check [`LoadQueue::is_full`].
    pub fn alloc(&mut self, rob: RobIdx, pc: u64, addr: Addr, size: u8) -> LqIdx {
        assert!(!self.is_full(), "LQ overflow");
        let slot = self.wrap(self.head + self.len);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.seq[slot] = seq;
        self.rob[slot] = rob;
        self.line[slot] = Line::containing(addr);
        self.state[slot] = LoadState::WaitDeps;
        self.slf_key[slot] = None;
        self.entry[slot] = LoadEntry {
            pc,
            addr,
            size,
            ..LoadEntry::EMPTY
        };
        self.performed[slot / 64] &= !(1u64 << (slot % 64));
        self.blocked[slot / 64] &= !(1u64 << (slot % 64));
        LqIdx {
            seq,
            slot: slot as u32,
        }
    }

    /// Execution state of the entry in physical `slot`.
    #[inline]
    pub(crate) fn state_at(&self, slot: usize) -> LoadState {
        self.state[slot]
    }

    /// Execution state by handle (stale handles return `None`).
    pub fn state_of(&self, idx: LqIdx) -> Option<LoadState> {
        self.live_slot(idx).map(|s| self.state[s])
    }

    /// Sets the execution state of `slot`, maintaining the performed
    /// bitset.
    #[inline]
    pub(crate) fn set_state_at(&mut self, slot: usize, s: LoadState) {
        self.state[slot] = s;
        let bit = 1u64 << (slot % 64);
        if s == LoadState::Performed {
            self.performed[slot / 64] |= bit;
        } else {
            self.performed[slot / 64] &= !bit;
        }
        if matches!(s, LoadState::Blocked(_)) {
            self.blocked[slot / 64] |= bit;
        } else {
            self.blocked[slot / 64] &= !bit;
        }
    }

    /// Collects (into `out`) the physical slots of all `Blocked` live
    /// entries, oldest → youngest, by word-scanning the blocked bitset
    /// over the ring window — the retry pass's candidate set.
    pub(crate) fn blocked_slots(&self, out: &mut Vec<u32>) {
        out.clear();
        if self.len == 0 {
            return;
        }
        let phys = self.capacity;
        let lo = self.head;
        let seg1 = (lo, (lo + self.len).min(phys));
        let seg2 = (0, (lo + self.len).saturating_sub(phys));
        for (lo, hi) in [seg1, seg2] {
            let mut w = lo / 64;
            while w * 64 < hi {
                let base = w * 64;
                let mut m = !0u64;
                if lo > base {
                    m &= !0u64 << (lo - base);
                }
                if hi < base + 64 {
                    m &= !0u64 >> (base + 64 - hi);
                }
                let mut bw = self.blocked[w] & m;
                while bw != 0 {
                    out.push((base as u32) + bw.trailing_zeros());
                    bw &= bw - 1;
                }
                w += 1;
            }
        }
    }

    /// Sets the execution state by handle; `false` when the handle is
    /// stale.
    pub fn set_state(&mut self, idx: LqIdx, s: LoadState) -> bool {
        match self.live_slot(idx) {
            Some(slot) => {
                self.set_state_at(slot, s);
                true
            }
            None => false,
        }
    }

    /// The forwarding store's key of the entry in `slot`.
    #[inline]
    pub(crate) fn slf_key_at(&self, slot: usize) -> Option<Key> {
        self.slf_key[slot]
    }

    /// Marks `slot` as an SLF load of `key`, maintaining the live-SLF
    /// count.
    pub(crate) fn set_slf_key_at(&mut self, slot: usize, key: Key) {
        if self.slf_key[slot].is_none() {
            self.slf_live += 1;
        }
        self.slf_key[slot] = Some(key);
    }

    /// Marks an SLF load by handle; `false` when the handle is stale.
    pub fn set_slf_key(&mut self, idx: LqIdx, key: Key) -> bool {
        match self.live_slot(idx) {
            Some(slot) => {
                self.set_slf_key_at(slot, key);
                true
            }
            None => false,
        }
    }

    /// Frees the oldest entry at retirement.
    ///
    /// # Panics
    ///
    /// Panics if the head is not the load of `rob` — retirement is
    /// in-order.
    pub fn retire_head(&mut self, rob: RobIdx) {
        assert!(self.len > 0, "retiring from empty LQ");
        assert_eq!(self.rob[self.head], rob, "LQ retirement out of order");
        self.free_slot(self.head);
        self.head = self.wrap(self.head + 1);
        self.len -= 1;
    }

    /// Clears the bitset/counter state of a slot leaving the queue.
    fn free_slot(&mut self, slot: usize) {
        self.performed[slot / 64] &= !(1u64 << (slot % 64));
        self.blocked[slot / 64] &= !(1u64 << (slot % 64));
        if self.slf_key[slot].take().is_some() {
            self.slf_live -= 1;
        }
    }

    /// `true` when any zero bit exists in `bits` over physical slots
    /// `[start, end)` (one contiguous, non-wrapping range).
    fn range_has_zero(bits: &[u64], start: usize, end: usize) -> bool {
        if start >= end {
            return false;
        }
        let (ws, we) = (start / 64, (end - 1) / 64);
        let lo = !0u64 << (start % 64);
        let hi = !0u64 >> (63 - (end - 1) % 64);
        if ws == we {
            let m = lo & hi;
            return bits[ws] & m != m;
        }
        if bits[ws] & lo != lo {
            return true;
        }
        if bits[ws + 1..we].iter().any(|&w| w != !0u64) {
            return true;
        }
        bits[we] & hi != hi
    }

    /// `true` when any load in queue positions `[0, pos)` has not
    /// performed — a word-scanned prefix query on the performed bitset.
    pub(crate) fn any_unperformed_before(&self, pos: usize) -> bool {
        let end = self.head + pos;
        if end <= self.capacity {
            Self::range_has_zero(&self.performed, self.head, end)
        } else {
            Self::range_has_zero(&self.performed, self.head, self.capacity)
                || Self::range_has_zero(&self.performed, 0, end - self.capacity)
        }
    }

    /// `true` when any load older than the live entry `idx` has not
    /// performed.
    pub fn any_older_unperformed(&self, idx: LqIdx) -> bool {
        let pos = self.pos_of(idx).expect("stale LQ handle");
        self.any_unperformed_before(pos)
    }

    /// `true` when any load in queue positions `[0, pos)` is an SLF load
    /// whose forwarding store is still pending according to
    /// `store_pending` — the SA-speculation shadow test (§IV-A).
    pub(crate) fn older_slf_pending_before(
        &self,
        pos: usize,
        store_pending: impl Fn(Key) -> bool,
    ) -> bool {
        if self.slf_live == 0 {
            return false;
        }
        (0..pos).any(|p| self.slf_key[self.phys(p)].is_some_and(&store_pending))
    }

    /// `true` when any load older than the live entry `idx` is an SLF
    /// load whose forwarding store is still pending.
    pub fn older_slf_pending(&self, idx: LqIdx, store_pending: impl Fn(Key) -> bool) -> bool {
        let pos = self.pos_of(idx).expect("stale LQ handle");
        self.older_slf_pending_before(pos, store_pending)
    }

    /// First queue position whose load is `from` or younger (the squash
    /// cut point); `len` when every load is older.
    pub fn cut_pos(&self, from: RobIdx) -> usize {
        // Positions are age-ordered by ROB seq: binary-search the first
        // entry at or past `from`.
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

    /// Drops every entry at queue position `new_len` and beyond (the
    /// squash suffix). The caller walks the suffix first to release any
    /// in-flight bookkeeping.
    pub fn truncate(&mut self, new_len: usize) {
        debug_assert!(new_len <= self.len);
        for pos in new_len..self.len {
            let slot = self.phys(pos);
            self.free_slot(slot);
        }
        self.len = new_len;
    }

    /// Iterates live handles oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = LqIdx> + '_ {
        (0..self.len).map(|pos| self.idx_at(pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(seq: u64) -> RobIdx {
        RobIdx { seq, slot: 0 }
    }

    fn lq() -> LoadQueue {
        LoadQueue::new(4)
    }

    #[test]
    fn alloc_and_lookup() {
        let mut q = lq();
        let a = q.alloc(rid(3), 0x400, 0x100, 8);
        let b = q.alloc(rid(7), 0x404, 0x108, 8);
        assert_eq!(q.len(), 2);
        assert_eq!(q.entry[a.slot as usize].addr, 0x100);
        assert_eq!(q.line[b.slot as usize], Line::containing(0x108));
        assert!(q.contains(a));
        assert_eq!(q.pos_of(b), Some(1));
    }

    #[test]
    fn older_unperformed_detection() {
        let mut q = lq();
        let a = q.alloc(rid(1), 0, 0x100, 8);
        let b = q.alloc(rid(2), 0, 0x108, 8);
        assert!(q.any_older_unperformed(b));
        q.set_state(a, LoadState::Performed);
        assert!(!q.any_older_unperformed(b));
        assert!(!q.any_older_unperformed(a));
    }

    #[test]
    fn slf_shadow_detection() {
        let mut q = lq();
        let key = Key {
            slot: 3,
            sorting: false,
        };
        let a = q.alloc(rid(1), 0, 0x100, 8);
        q.set_slf_key(a, key);
        let b = q.alloc(rid(2), 0, 0x108, 8);
        // Store still pending -> shadow over the younger load.
        assert!(q.older_slf_pending(b, |k| k == key));
        // Store left the SB -> shadow lifted.
        assert!(!q.older_slf_pending(b, |_| false));
        // The SLF load itself is not shadowed by itself.
        assert!(!q.older_slf_pending(a, |k| k == key));
    }

    #[test]
    fn squash_suffix() {
        let mut q = lq();
        let a = q.alloc(rid(1), 0, 0x100, 8);
        let b = q.alloc(rid(5), 0, 0x108, 8);
        let c = q.alloc(rid(9), 0, 0x110, 8);
        let cut = q.cut_pos(rid(5));
        assert_eq!(cut, 1);
        q.truncate(cut);
        assert_eq!(q.len(), 1);
        assert!(q.contains(a));
        assert!(!q.contains(b), "squashed handle is stale");
        assert!(!q.contains(c));
    }

    #[test]
    fn retire_head_in_order() {
        let mut q = lq();
        let a = q.alloc(rid(1), 0, 0x100, 8);
        q.retire_head(rid(1));
        assert!(q.is_empty());
        assert!(!q.contains(a), "retired handle is stale");
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn retire_out_of_order_panics() {
        let mut q = lq();
        q.alloc(rid(1), 0, 0x100, 8);
        q.alloc(rid(2), 0, 0x108, 8);
        q.retire_head(rid(2));
    }

    #[test]
    #[should_panic(expected = "LQ overflow")]
    fn overflow_panics() {
        let mut q = LoadQueue::new(1);
        q.alloc(rid(1), 0, 0x100, 8);
        q.alloc(rid(2), 0, 0x108, 8);
    }

    #[test]
    fn performed_bitset_tracks_ring_wraparound() {
        // Capacity 4: exercise head movement so prefix queries span
        // slot ranges that are not `[0, len)`.
        let mut q = LoadQueue::new(4);
        for i in 0..100u64 {
            let h = q.alloc(rid(i), 0, 0x100 + i * 8, 8);
            if i % 3 == 0 {
                q.set_state(h, LoadState::Performed);
            }
            if q.len() == 4 {
                // Reference check against a naive scan.
                for pos in 0..q.len() {
                    let idx = q.idx_at(pos);
                    let naive = (0..pos).any(|p| q.state_at(q.phys(p)) != LoadState::Performed);
                    assert_eq!(q.any_older_unperformed(idx), naive, "i={i} pos={pos}");
                }
                q.set_state_at(q.head, LoadState::Performed);
                q.retire_head(q.rob[q.head]);
            }
        }
    }
}
