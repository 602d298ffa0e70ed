//! Deterministic discrete-event queue, implemented as a bucketed time
//! wheel over one entry arena.
//!
//! The memory system schedules almost every event within a few hundred
//! cycles of "now" (network hops, cache latencies, DRAM), so a wheel of
//! power-of-two slots indexed by delivery cycle turns `schedule` and the
//! common `pop_until` miss into array operations with no heap sift. The
//! rare event beyond the horizon parks in a `BTreeMap` overflow keyed by
//! cycle. Entries carry their absolute cycle, so a slot shared by
//! several cycles (after the cursor moved back for a past-relative
//! schedule) is disambiguated by tag, not by lap arithmetic.
//!
//! ## Storage
//!
//! Wheel entries live in one arena (`Vec` of nodes). Each slot is an
//! unordered singly linked list through the arena, reached from a
//! per-slot head index; a popped node goes on a free list and is reused
//! by the next schedule, so the arena only grows to the most events
//! ever pending at once. A 1024-bit occupancy bitmap marks non-empty
//! slots, and the cursor scans in `pop_until` and `next_cycle` jump from
//! one set bit to the next a word at a time instead of stepping slot by
//! slot. A new queue therefore costs one 4 KB head array and no
//! per-slot buffers.
//!
//! ## Canonical ordering
//!
//! Events pop in `(cycle, origin, seq)` order. `origin` is the linear
//! index of the node that *emitted* the event (cores first, then
//! directory banks — the same placement [`crate::Topology`] uses) and
//! `seq` is a per-queue monotone counter. Because a node's emissions are
//! themselves deterministic, this key is reproducible no matter how the
//! nodes are partitioned across threads: the parallel engine's shards
//! stamp events with the same `(cycle, origin, seq)` keys the serial
//! engine would, and [`EventQueue::inject`] lets a shard enqueue a
//! remote shard's event under its original key. Same-key collisions are
//! impossible — one origin's events always come from one counter.

use std::collections::BTreeMap;

use sa_isa::Cycle;

/// Slots in the wheel; must be a power of two. Covers every latency in
/// the default memory configuration (max is DRAM at 160 cycles plus
/// network hops) with generous slack.
const WHEEL_SLOTS: usize = 1024;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const WORDS: usize = WHEEL_SLOTS / 64;
/// End of a slot list or of the free list.
const NIL: u32 = u32::MAX;

/// One arena node: a pending wheel entry, or (payload taken) a free
/// node.
#[derive(Debug)]
struct Node<E> {
    cycle: Cycle,
    origin: u32,
    /// Next node in this node's slot list, or in the free list.
    next: u32,
    seq: u64,
    payload: Option<E>,
}

/// A time-ordered event queue with deterministic `(origin, seq)`
/// tie-breaking for events scheduled at the same cycle.
///
/// ```
/// use sa_coherence::event::EventQueue;
/// let mut q = EventQueue::new();
/// q.schedule(5, "b");
/// q.schedule(3, "a");
/// q.schedule(5, "c");
/// assert_eq!(q.pop_until(10), Some((3, "a")));
/// assert_eq!(q.pop_until(10), Some((5, "b")));
/// assert_eq!(q.pop_until(4), None); // "c" is at cycle 5
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Wheel entries and free nodes.
    nodes: Vec<Node<E>>,
    /// Head of the free list in `nodes`.
    free: u32,
    /// Head of each slot's list in `nodes`.
    heads: Vec<u32>,
    /// Bit `s` is set iff slot `s`'s list is non-empty.
    occupied: [u64; WORDS],
    /// No wheel entry lives at a cycle below this; `pop_until` scans
    /// forward from here and `schedule` moves it back for a cycle in the
    /// past relative to it.
    cursor: Cycle,
    wheel_len: usize,
    /// Events scheduled at or beyond `cursor + WHEEL_SLOTS`.
    overflow: BTreeMap<Cycle, Vec<(u32, u64, E)>>,
    overflow_len: usize,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            heads: vec![NIL; WHEEL_SLOTS],
            occupied: [0; WORDS],
            cursor: 0,
            wheel_len: 0,
            overflow: BTreeMap::new(),
            overflow_len: 0,
            seq: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue::default()
    }

    /// Schedules `payload` at `cycle` from origin 0. Events at equal
    /// cycles and origins pop in schedule order.
    pub fn schedule(&mut self, cycle: Cycle, payload: E) {
        self.schedule_from(cycle, 0, payload);
    }

    /// Schedules `payload` at `cycle`, stamped with the emitting node's
    /// linear index so same-cycle events pop in `(origin, seq)` order.
    pub fn schedule_from(&mut self, cycle: Cycle, origin: u32, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        self.insert(cycle, origin, seq, payload);
    }

    /// Enqueues an event under an explicit `(origin, seq)` key minted by
    /// another queue — the parallel engine's cross-shard delivery path.
    /// The local counter is bumped past `seq` so later local emissions
    /// never sort before an already-injected event of the same origin.
    pub fn inject(&mut self, cycle: Cycle, origin: u32, seq: u64, payload: E) {
        self.seq = self.seq.max(seq + 1);
        self.insert(cycle, origin, seq, payload);
    }

    /// The key the next locally-scheduled event would get; paired with
    /// [`EventQueue::inject`] to relay an event queue-to-queue.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Consumes and returns the next local seq without enqueuing
    /// anything — used when an emission is diverted to another queue (a
    /// cross-shard outbox) but must keep its place in this origin's
    /// emission order.
    pub fn alloc_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    fn insert(&mut self, cycle: Cycle, origin: u32, seq: u64, payload: E) {
        if cycle < self.cursor {
            // Scheduling "in the past" relative to the scan cursor (a
            // controller reacting at the cycle currently being drained):
            // move the cursor back so the scan revisits this cycle.
            self.cursor = cycle;
        }
        if cycle - self.cursor < WHEEL_SLOTS as u64 {
            let slot = (cycle & WHEEL_MASK) as usize;
            let node = Node {
                cycle,
                origin,
                next: self.heads[slot],
                seq,
                payload: Some(payload),
            };
            let n = if self.free == NIL {
                self.nodes.push(node);
                u32::try_from(self.nodes.len() - 1).expect("pending events fit u32")
            } else {
                let n = self.free;
                self.free = std::mem::replace(&mut self.nodes[n as usize], node).next;
                n
            };
            self.heads[slot] = n;
            self.occupied[slot / 64] |= 1 << (slot % 64);
            self.wheel_len += 1;
        } else {
            self.overflow
                .entry(cycle)
                .or_default()
                .push((origin, seq, payload));
            self.overflow_len += 1;
        }
    }

    /// The `(origin, seq)`-minimal entry for exactly `cycle` in its
    /// slot, as `(predecessor in the slot list or NIL, node)`.
    fn slot_front(&self, cycle: Cycle) -> Option<(u32, u32)> {
        let mut best: Option<(u32, u32)> = None;
        let (mut prev, mut n) = (NIL, self.heads[(cycle & WHEEL_MASK) as usize]);
        while n != NIL {
            let e = &self.nodes[n as usize];
            if e.cycle == cycle
                && best.is_none_or(|(_, b)| {
                    let b = &self.nodes[b as usize];
                    (e.origin, e.seq) < (b.origin, b.seq)
                })
            {
                best = Some((prev, n));
            }
            (prev, n) = (n, e.next);
        }
        best
    }

    /// Distance from `from` to the first cycle at or after it whose slot
    /// is occupied (less than one lap), or `None` for an empty wheel.
    fn next_occupied(&self, from: Cycle) -> Option<u64> {
        let s = (from & WHEEL_MASK) as usize;
        let (w, b) = (s / 64, s % 64);
        let here = self.occupied[w] & (!0u64 << b);
        if here != 0 {
            return Some(u64::from(here.trailing_zeros()) - b as u64);
        }
        for k in 1..=WORDS {
            let wi = (w + k) % WORDS;
            let mut bits = self.occupied[wi];
            if k == WORDS {
                bits &= !(!0u64 << b);
            }
            if bits != 0 {
                let slot = wi * 64 + bits.trailing_zeros() as usize;
                return Some(((slot + WHEEL_SLOTS - s) % WHEEL_SLOTS) as u64);
            }
        }
        None
    }

    /// Position of the `(origin, seq)`-minimal entry in an overflow
    /// bucket.
    fn bucket_front(bucket: &[(u32, u64, E)]) -> usize {
        let mut best = 0;
        for (i, e) in bucket.iter().enumerate().skip(1) {
            let (bo, bs, _) = &bucket[best];
            if (e.0, e.1) < (*bo, *bs) {
                best = i;
            }
        }
        best
    }

    /// Advances `cursor` to the first cycle `<= until` holding a wheel
    /// entry and returns it, or parks the cursor at `until + 1`.
    fn scan_wheel(&mut self, until: Cycle) -> Option<Cycle> {
        if self.wheel_len == 0 {
            // Safe to fast-forward: nothing behind can exist.
            self.cursor = self.cursor.max(until.saturating_add(1));
            return None;
        }
        while self.cursor <= until {
            let c = self.cursor + self.next_occupied(self.cursor).expect("wheel not empty");
            if c > until {
                self.cursor = until + 1;
                break;
            }
            self.cursor = c;
            if self.slot_front(c).is_some() {
                return Some(c);
            }
            // The slot holds only later laps' entries.
            self.cursor += 1;
        }
        None
    }

    /// Pops the earliest event whose cycle is `<= until`, if any.
    pub fn pop_until(&mut self, until: Cycle) -> Option<(Cycle, E)> {
        self.pop_until_keyed(until).map(|(c, _, _, e)| (c, e))
    }

    /// [`EventQueue::pop_until`] exposing the popped event's full
    /// canonical key `(cycle, origin, seq)`.
    pub fn pop_until_keyed(&mut self, until: Cycle) -> Option<(Cycle, u32, u64, E)> {
        let wheel = self.scan_wheel(until);
        let of = self.overflow.keys().next().copied().filter(|&c| c <= until);
        match (wheel, of) {
            (None, None) => None,
            (Some(w), None) => Some(self.pop_wheel(w)),
            (None, Some(o)) => Some(self.pop_overflow(o)),
            (Some(w), Some(o)) => {
                if w < o {
                    Some(self.pop_wheel(w))
                } else if o < w {
                    Some(self.pop_overflow(o))
                } else {
                    // Same cycle in both stores (possible after a cursor
                    // move-back): the canonical key decides.
                    let (_, n) = self.slot_front(w).expect("scanned entry");
                    let e = &self.nodes[n as usize];
                    let bucket = &self.overflow[&o];
                    let b = &bucket[Self::bucket_front(bucket)];
                    if (e.origin, e.seq) < (b.0, b.1) {
                        Some(self.pop_wheel(w))
                    } else {
                        Some(self.pop_overflow(o))
                    }
                }
            }
        }
    }

    fn pop_wheel(&mut self, cycle: Cycle) -> (Cycle, u32, u64, E) {
        let (prev, n) = self.slot_front(cycle).expect("entry present");
        let slot = (cycle & WHEEL_MASK) as usize;
        let e = &mut self.nodes[n as usize];
        let next = std::mem::replace(&mut e.next, self.free);
        let payload = e.payload.take().expect("live node");
        let (origin, seq) = (e.origin, e.seq);
        self.free = n;
        if prev == NIL {
            self.heads[slot] = next;
            if next == NIL {
                self.occupied[slot / 64] &= !(1 << (slot % 64));
            }
        } else {
            self.nodes[prev as usize].next = next;
        }
        self.wheel_len -= 1;
        (cycle, origin, seq, payload)
    }

    fn pop_overflow(&mut self, cycle: Cycle) -> (Cycle, u32, u64, E) {
        let bucket = self.overflow.get_mut(&cycle).expect("bucket present");
        let i = Self::bucket_front(bucket);
        let (origin, seq, payload) = bucket.remove(i);
        if bucket.is_empty() {
            self.overflow.remove(&cycle);
        }
        self.overflow_len -= 1;
        (cycle, origin, seq, payload)
    }

    /// The earliest wheel cycle: the first occupied slot, within one lap
    /// of the cursor, holding an entry for that very cycle. Entries more
    /// than a lap ahead (left there by cursor move-backs) are found by a
    /// walk over every occupied slot.
    fn wheel_min(&self) -> Option<Cycle> {
        if self.wheel_len == 0 {
            return None;
        }
        let mut d = 0;
        while d < WHEEL_SLOTS as u64 {
            let c = self.cursor + d;
            d += self.next_occupied(c).expect("wheel not empty");
            if d >= WHEEL_SLOTS as u64 {
                break;
            }
            if self.slot_front(self.cursor + d).is_some() {
                return Some(self.cursor + d);
            }
            d += 1;
        }
        (0..WHEEL_SLOTS)
            .filter(|&s| self.occupied[s / 64] & (1 << (s % 64)) != 0)
            .flat_map(|s| {
                std::iter::successors(Some(self.heads[s]), |&n| {
                    Some(self.nodes[n as usize].next).filter(|&n| n != NIL)
                })
            })
            .map(|n| self.nodes[n as usize].cycle)
            .min()
    }

    /// The cycle of the earliest pending event.
    pub fn next_cycle(&self) -> Option<Cycle> {
        let of = self.overflow.keys().next().copied();
        match (self.wheel_min(), of) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (w, o) => w.or(o),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow_len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_cycle_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule(10, 1);
        q.schedule(10, 2);
        q.schedule(2, 3);
        q.schedule(10, 4);
        let mut out = Vec::new();
        while let Some((_, p)) = q.pop_until(u64::MAX) {
            out.push(p);
        }
        assert_eq!(out, vec![3, 1, 2, 4]);
    }

    #[test]
    fn same_cycle_orders_by_origin_before_seq() {
        let mut q = EventQueue::new();
        q.schedule_from(10, 3, "late-origin, early seq");
        q.schedule_from(10, 1, "mid");
        q.schedule_from(10, 0, "first");
        q.schedule_from(10, 1, "mid-second");
        let mut out = Vec::new();
        while let Some((_, p)) = q.pop_until(u64::MAX) {
            out.push(p);
        }
        assert_eq!(
            out,
            vec!["first", "mid", "mid-second", "late-origin, early seq"]
        );
    }

    #[test]
    fn inject_preserves_remote_keys() {
        // Shard A emits (origin 2, seq 5) at cycle 10; shard B holds a
        // local (origin 7, seq 0) at the same cycle. After injection the
        // pop order is the canonical serial order, and B's counter jumps
        // past the injected seq.
        let mut q = EventQueue::new();
        q.schedule_from(10, 7, "local");
        q.inject(10, 2, 5, "remote");
        assert!(q.next_seq() >= 6);
        assert_eq!(q.pop_until(u64::MAX), Some((10, "remote")));
        assert_eq!(q.pop_until(u64::MAX), Some((10, "local")));
    }

    #[test]
    fn pop_until_respects_bound() {
        let mut q = EventQueue::new();
        q.schedule(7, "x");
        assert!(q.pop_until(6).is_none());
        assert_eq!(q.next_cycle(), Some(7));
        assert_eq!(q.pop_until(7), Some((7, "x")));
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_schedule_and_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.schedule(1, ());
        q.schedule(2, ());
        assert_eq!(q.len(), 2);
        let _ = q.pop_until(5);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = EventQueue::new();
        q.schedule(5, "near");
        q.schedule(5 + 10 * WHEEL_SLOTS as u64, "far");
        assert_eq!(q.len(), 2);
        assert_eq!(q.next_cycle(), Some(5));
        assert_eq!(q.pop_until(u64::MAX), Some((5, "near")));
        assert_eq!(q.next_cycle(), Some(5 + 10 * WHEEL_SLOTS as u64));
        assert_eq!(
            q.pop_until(u64::MAX),
            Some((5 + 10 * WHEEL_SLOTS as u64, "far"))
        );
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_behind_cursor_is_found() {
        let mut q = EventQueue::new();
        q.schedule(100, "later");
        // Drain up to 50: cursor parks past 50.
        assert!(q.pop_until(50).is_none());
        // A controller schedules at a cycle the scan already passed.
        q.schedule(20, "revisit");
        assert_eq!(q.pop_until(50), Some((20, "revisit")));
        assert_eq!(q.pop_until(200), Some((100, "later")));
    }

    #[test]
    fn slot_sharing_across_laps_pops_in_cycle_order() {
        // Two wheel entries a full lap apart sharing one slot after a
        // cursor move-back: the cycle tag, not the slot index, decides.
        let mut q: EventQueue<&str> = EventQueue::new();
        assert!(q.pop_until(1500).is_none()); // park the cursor forward
        let (near, far) = (WHEEL_SLOTS as u64 + 8, 2 * WHEEL_SLOTS as u64 + 8);
        q.schedule(far, "b"); // within the parked cursor's horizon
        q.schedule(near, "a"); // cursor moves back; same slot as `far`
        assert_eq!(q.pop_until(u64::MAX), Some((near, "a")));
        assert_eq!(q.pop_until(u64::MAX), Some((far, "b")));
    }

    #[test]
    fn next_cycle_finds_an_entry_more_than_a_lap_ahead() {
        // After a move-back, the only wheel entry can sit more than a lap
        // past the cursor, where the first-lap bitmap walk cannot see it.
        let mut q = EventQueue::new();
        assert!(q.pop_until(100).is_none()); // cursor parks at 101
        let far = 101 + WHEEL_SLOTS as u64 - 1; // last slot of the horizon
        q.schedule(far, "far");
        q.schedule(60, "back"); // cursor back to 60: `far` is past a lap
        assert_eq!(q.next_cycle(), Some(60));
        assert_eq!(q.pop_until(60), Some((60, "back")));
        assert_eq!(q.next_cycle(), Some(far));
        assert_eq!(q.pop_until(u64::MAX), Some((far, "far")));
        assert_eq!(q.next_cycle(), None);
    }

    #[test]
    fn canonical_order_preserved_between_wheel_and_overflow() {
        let mut q = EventQueue::new();
        let c = 2 * WHEEL_SLOTS as u64;
        q.schedule_from(c, 1, "origin1"); // beyond horizon: overflow
        assert!(q.pop_until(c - 1).is_none()); // cursor reaches c
        q.schedule_from(c, 0, "origin0"); // now within horizon: wheel
        q.schedule_from(c, 2, "origin2"); // wheel, later origin
        assert_eq!(q.pop_until(c), Some((c, "origin0")));
        assert_eq!(q.pop_until(c), Some((c, "origin1")));
        assert_eq!(q.pop_until(c), Some((c, "origin2")));
    }

    #[test]
    fn randomized_matches_sorted_reference() {
        // Deterministic pseudo-random schedule/inject/pop interleaving
        // compared against a sorted reference of the canonical
        // (cycle, origin, seq) order; after every step the pending count
        // and the earliest cycle must agree too. Schedules land near the
        // cursor, at the edge of the wheel, beyond it (overflow), and
        // behind the scan cursor (a move-back, which can leave wheel
        // entries more than a lap ahead of the cursor). Injections carry
        // keys minted by another queue.
        let mut q = EventQueue::new();
        let mut reference: Vec<(Cycle, u32, u64, u64)> = Vec::new(); // (cycle, origin, seq, tag)
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let lap = WHEEL_SLOTS as u64;
        let (mut now, mut remote_seq) = (0u64, 1u64 << 40);
        let (mut move_backs, mut injected, mut beyond_lap) = (0, 0, 0);
        for i in 0..6000u64 {
            let r = rand();
            match r % 8 {
                0..=2 => {
                    let cycle = match (r >> 8) % 20 {
                        0 | 1 => now + lap + (r >> 16) % (3 * lap),
                        2 | 3 => now + (r >> 16) % lap,
                        // The last slots of the horizon: a later
                        // move-back leaves these more than a lap ahead.
                        4 => now + lap - 1 - (r >> 16) % 48,
                        5..=7 => now.saturating_sub((r >> 16) % 40),
                        _ => now + (r >> 16) % 300,
                    };
                    if cycle < q.cursor {
                        move_backs += 1;
                    }
                    let origin = (r >> 32) as u32 % 9;
                    reference.push((cycle, origin, q.next_seq(), i));
                    q.schedule_from(cycle, origin, i);
                }
                3 => {
                    let cycle = now.saturating_sub(20) + (r >> 16) % 600;
                    let origin = 9 + (r >> 32) as u32 % 4;
                    remote_seq += 1 + (r >> 40) % 3;
                    q.inject(cycle, origin, remote_seq, i);
                    reference.push((cycle, origin, remote_seq, i));
                    injected += 1;
                }
                _ => {
                    now += r % 50;
                    loop {
                        let got = q.pop_until_keyed(now);
                        reference.sort();
                        let want = reference.first().filter(|&&(c, _, _, _)| c <= now).copied();
                        match (got, want) {
                            (None, None) => break,
                            (Some(g), Some(w)) => {
                                assert_eq!(g, w);
                                reference.remove(0);
                            }
                            (g, w) => panic!("mismatch: got {g:?}, want {w:?}"),
                        }
                    }
                }
            }
            reference.sort();
            assert_eq!(q.len(), reference.len(), "step {i}");
            assert_eq!(q.next_cycle(), reference.first().map(|e| e.0), "step {i}");
            if q.nodes
                .iter()
                .any(|n| n.payload.is_some() && n.cycle >= q.cursor + lap)
            {
                beyond_lap += 1;
            }
        }
        assert!(move_backs > 100, "{move_backs} move-backs");
        assert!(injected > 100, "{injected} injections");
        assert!(
            beyond_lap > 10,
            "{beyond_lap} steps with wheel entries past a lap"
        );
    }
}
