//! The reorder buffer, stored struct-of-arrays.
//!
//! Entries live in parallel columns over one circular slot array sized
//! exactly to the architectural capacity; the scheduler's wake-up scan
//! reads the dense `state` column and flag bitsets instead of striding
//! over fat entry structs. What one entry's visit reads (kind, operands,
//! timing, value) sits together in one `RobEntry` column, and wake lists
//! share one node arena, so a new ROB is a handful of allocations.
//!
//! Entities are named by generation-tagged handles ([`RobIdx`]): the
//! `seq` half is the monotonic, never-reused dynamic-instruction id (so
//! handles order by age and a stale in-flight memory response can never
//! be mistaken for a replayed instruction's), and the `slot` half
//! locates the entry's physical slot in O(1) — a handle is live iff the
//! slot is occupied and its `seq` column still matches.

use sa_isa::{AluEval, Cycle, ExecUnit, Reg, Value};

use crate::lq::LqIdx;
use crate::sq::SqIdx;

/// Generation-tagged handle to a ROB entry. `seq` is the unique,
/// monotonically increasing dynamic-instruction id (never reused, even
/// across squashes); `slot` is the physical column index. Ordering is by
/// `seq` (program order), exactly as the plain id it replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RobIdx {
    /// Unique dynamic-instruction id (age order).
    pub seq: u64,
    /// Physical slot in the SoA columns.
    pub slot: u32,
}

/// Execution state of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RobState {
    /// Waiting for operands (or, for loads, for the LQ state machine).
    Waiting,
    /// Issued to an execution unit / the memory pipeline.
    Executing,
    /// Result available; eligible for in-order retirement.
    Done,
}

/// What kind of micro-op a ROB entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RobKind {
    /// ALU op with its unit and value function.
    Alu {
        /// Execution unit class.
        unit: ExecUnit,
        /// Value function.
        eval: AluEval,
    },
    /// A load; details live in the load queue entry `lq`.
    Load {
        /// The LQ entry (O(1) ROB→LQ link).
        lq: LqIdx,
    },
    /// A store; details live in the SQ/SB entry `sq`.
    Store {
        /// The SQ/SB entry.
        sq: SqIdx,
    },
    /// A conditional branch.
    Branch {
        /// Architectural outcome.
        taken: bool,
        /// Whether the predictor missed it at dispatch.
        mispredicted: bool,
    },
    /// A full fence.
    Fence,
    /// A no-op.
    Nop,
}

/// Dispatch-time payload of one ROB entry ([`Rob::push`] assigns the
/// handle).
#[derive(Debug, Clone)]
pub struct RobUop {
    /// Position in the core's trace (for replay after squash).
    pub trace_idx: usize,
    /// Micro-op class.
    pub kind: RobKind,
    /// Destination register.
    pub dst: Option<Reg>,
    /// Producer handles for up to two register sources
    /// (`[data0/data, data1/addr]`).
    pub deps: [Option<RobIdx>; 2],
    /// Source registers matching `deps` (read at issue).
    pub src_regs: [Option<Reg>; 2],
    /// Execution state.
    pub state: RobState,
    /// Cycle the result becomes available.
    pub done_at: Cycle,
}

/// The per-entry fields a scheduler visit, completion or retirement
/// reads together: one column of these instead of one column each.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RobEntry {
    pub(crate) kind: RobKind,
    /// Producer handles for up to two register sources.
    pub(crate) deps: [Option<RobIdx>; 2],
    pub(crate) done_at: Cycle,
    pub(crate) result: Value,
    pub(crate) trace_idx: usize,
    pub(crate) dst: Option<Reg>,
    pub(crate) src_regs: [Option<Reg>; 2],
}

/// End of a wake list or of the wake-node free list.
const NIL: u32 = u32::MAX;

/// One armed wake: a consumer to mark ready, chained to the next wake of
/// the same producer (or, when free, to the next free node).
#[derive(Debug, Clone, Copy)]
struct WakeNode {
    consumer_slot: u32,
    next: u32,
    consumer_seq: u64,
}

/// The scheduler's flag bits for 64 consecutive physical slots, bit
/// `i` standing for slot `64 * word + i`.
#[derive(Debug, Clone, Copy, Default)]
struct FlagWord {
    /// Bit per physical slot: entry is `Waiting` (a scheduler wake-up
    /// candidate). Maintained by [`Rob::set_state_at`]; bits of slots
    /// outside the live window are stale and never read (every scan is
    /// masked to the window).
    waiting: u64,
    /// Bit per physical slot: entry is not `Done` — what the scheduler's
    /// window-depth counter (`rs_seen`) counts.
    not_done: u64,
    /// Bit per physical slot: a visit to this `Waiting` entry could make
    /// progress right now (its gating operands are satisfied, or for a
    /// store at least one of its two jobs is actionable). Seeded at
    /// dispatch, raised by producer-completion wakes, and cleared by the
    /// scheduler when a visit proves the entry dep-stalled. The invariant
    /// is one-sided: a set bit may be spurious (the visit is a no-op),
    /// but every entry the age-ordered scan would advance MUST have its
    /// bit set — port- or width-starved entries therefore keep theirs.
    ready: u64,
    /// `not_done` frozen at [`Rob::sched_pass`]: window-depth counts stay
    /// relative to the cycle's initial state even when a store completes
    /// mid-pass (the linear reference scan counted it as in-flight for
    /// every younger entry it reached afterwards).
    nd_snap: u64,
}

/// The reorder buffer: a bounded circular window over struct-of-arrays
/// columns, with O(1) handle lookup and suffix squash.
#[derive(Debug)]
pub struct Rob {
    /// Physical slot of the oldest entry.
    head: usize,
    /// Occupied entries.
    len: usize,
    /// Capacity, which is also the ring's slot count.
    capacity: usize,
    next_seq: u64,
    // --- parallel columns, indexed by physical slot ---
    pub(crate) seq: Vec<u64>,
    pub(crate) state: Vec<RobState>,
    pub(crate) entry: Vec<RobEntry>,
    /// The scheduler's per-slot flag bits, one [`FlagWord`] per 64
    /// slots.
    flags: Vec<FlagWord>,
    /// Per-producer-slot wake lists: the head in `wake_nodes` of the
    /// `(consumer_slot, consumer_seq)` pairs armed at the consumer's
    /// dispatch for each then-unsatisfied operand. Fired (and drained)
    /// when the producer's state is set to `Done`; stale pairs are
    /// filtered by the seq check, and a reused producer slot clears its
    /// list in [`Rob::push`].
    wake: Vec<u32>,
    /// Arena of wake-list nodes; drained nodes chain from `wake_free`.
    wake_nodes: Vec<WakeNode>,
    wake_free: u32,
}

/// Resumable position of a scheduler pass (see [`Rob::sched_pass`]):
/// the ring window split into at most two linear segments, a strictly
/// advancing bit floor, and the window-depth budget consumed so far.
#[derive(Debug)]
pub(crate) struct SchedCursor {
    segs: [(usize, usize); 2],
    seg: u8,
    floor: usize,
    nd: u32,
    window: u32,
}

impl SchedCursor {
    fn done() -> SchedCursor {
        SchedCursor {
            segs: [(0, 0); 2],
            seg: 2,
            floor: 0,
            nd: 0,
            window: 0,
        }
    }
}

#[inline]
fn word_mask(lo: usize, hi: usize, base: usize) -> u64 {
    let mut m = !0u64;
    if lo > base {
        m &= !0u64 << (lo - base);
    }
    if hi < base + 64 {
        m &= !0u64 >> (base + 64 - hi);
    }
    m
}

impl Rob {
    /// An empty ROB of `capacity` entries.
    pub fn new(capacity: usize) -> Rob {
        Rob {
            head: 0,
            len: 0,
            capacity,
            next_seq: 0,
            seq: vec![0; capacity],
            state: vec![RobState::Waiting; capacity],
            entry: vec![
                RobEntry {
                    kind: RobKind::Nop,
                    deps: [None, None],
                    done_at: 0,
                    result: 0,
                    trace_idx: 0,
                    dst: None,
                    src_regs: [None, None],
                };
                capacity
            ],
            flags: vec![FlagWord::default(); capacity.div_ceil(64)],
            wake: vec![NIL; capacity],
            wake_nodes: Vec::new(),
            wake_free: NIL,
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

    /// Window position of physical slot `slot` (`>= len` when the slot
    /// is outside the live window).
    #[inline]
    fn pos_at(&self, slot: usize) -> usize {
        if slot >= self.head {
            slot - self.head
        } else {
            slot + self.capacity - self.head
        }
    }

    /// Writes an entry's state, keeping the scheduler flag bitsets in
    /// sync. Every state transition must go through here.
    #[inline]
    pub(crate) fn set_state_at(&mut self, slot: usize, s: RobState) {
        self.state[slot] = s;
        let (w, b) = (slot / 64, 1u64 << (slot % 64));
        self.flags[w].ready &= !b;
        if s == RobState::Waiting {
            self.flags[w].waiting |= b;
        } else {
            self.flags[w].waiting &= !b;
        }
        if s == RobState::Done {
            self.flags[w].not_done &= !b;
            if self.wake[slot] != NIL {
                self.drain_wakes(slot, true);
            }
        } else {
            self.flags[w].not_done |= b;
        }
    }

    /// Drains `slot`'s wake list into the free list, marking each
    /// still-live consumer ready when `fire` is set. A consumer that has
    /// since been squashed (or whose slot was reused) fails the seq check
    /// and is skipped; one that has left `Waiting` gets a stale ready bit
    /// that every scan masks out.
    fn drain_wakes(&mut self, slot: usize, fire: bool) {
        let mut n = std::mem::replace(&mut self.wake[slot], NIL);
        while n != NIL {
            let w = self.wake_nodes[n as usize];
            let cs = w.consumer_slot as usize;
            if fire && self.seq[cs] == w.consumer_seq {
                self.flags[cs / 64].ready |= 1u64 << (cs % 64);
            }
            self.wake_nodes[n as usize].next = self.wake_free;
            self.wake_free = n;
            n = w.next;
        }
    }

    /// Marks a `Waiting` entry as a live scheduler candidate.
    #[inline]
    pub(crate) fn mark_ready(&mut self, slot: usize) {
        self.flags[slot / 64].ready |= 1u64 << (slot % 64);
    }

    /// Clears an entry's candidate bit after a visit proved it
    /// dep-stalled (an armed wake will raise it again).
    #[inline]
    pub(crate) fn clear_ready(&mut self, slot: usize) {
        self.flags[slot / 64].ready &= !(1u64 << (slot % 64));
    }

    /// Arms a completion wake on `producer` for the entry in
    /// `consumer_slot`. The producer must be live and not `Done` (the
    /// caller just observed its dep unsatisfied).
    pub(crate) fn arm_wake(&mut self, producer: RobIdx, consumer_slot: usize) {
        let ps = producer.slot as usize;
        debug_assert_eq!(self.seq[ps], producer.seq, "arming a stale producer");
        debug_assert_ne!(self.state[ps], RobState::Done, "arming a done producer");
        let node = WakeNode {
            consumer_slot: consumer_slot as u32,
            next: self.wake[ps],
            consumer_seq: self.seq[consumer_slot],
        };
        let n = if self.wake_free == NIL {
            self.wake_nodes.push(node);
            (self.wake_nodes.len() - 1) as u32
        } else {
            let n = self.wake_free;
            self.wake_free = self.wake_nodes[n as usize].next;
            self.wake_nodes[n as usize] = node;
            n
        };
        self.wake[ps] = n;
    }

    /// First window position at or after `from` whose entry is not
    /// `Done` (`len` when that whole suffix is done) — the point the
    /// scheduler scan can skip to. Word-scans the `not_done` bitset.
    pub(crate) fn first_not_done(&self, from: usize) -> usize {
        let len = self.len;
        if from >= len {
            return len;
        }
        let phys = self.capacity;
        let lo = self.wrap(self.head + from);
        let count = len - from;
        let seg1 = (lo, (lo + count).min(phys));
        let seg2 = (0, (lo + count).saturating_sub(phys));
        for (lo, hi) in [seg1, seg2] {
            let mut w = lo / 64;
            while w * 64 < hi {
                let base = w * 64;
                let m = self.flags[w].not_done & word_mask(lo, hi, base);
                if m != 0 {
                    let slot = base + m.trailing_zeros() as usize;
                    return self.pos_at(slot);
                }
                w += 1;
            }
        }
        len
    }

    /// Starts a scheduler pass over window positions `[start, len)`:
    /// freezes the window-depth snapshot and returns a cursor for
    /// [`Rob::sched_next`]. The cursor yields `Waiting & ready` entries
    /// in strict age order while re-reading the live bitsets, so a store
    /// that completes mid-pass and wakes younger consumers exposes them
    /// to this same pass exactly where the linear reference scan would
    /// have reached them — wakes only ever target younger (later)
    /// positions, which the monotone cursor has not passed yet.
    pub(crate) fn sched_pass(&mut self, start: usize, window: usize) -> SchedCursor {
        for f in &mut self.flags {
            f.nd_snap = f.not_done;
        }
        let phys = self.capacity;
        if start >= self.len {
            return SchedCursor::done();
        }
        let lo = self.wrap(self.head + start);
        let count = self.len - start;
        let seg1 = (lo, (lo + count).min(phys));
        let seg2 = (0, (lo + count).saturating_sub(phys));
        SchedCursor {
            segs: [seg1, seg2],
            seg: 0,
            floor: lo,
            nd: 0,
            window: window as u32,
        }
    }

    /// Advances the cursor to the next candidate: the oldest `Waiting`
    /// entry with its ready bit set at or past the cursor position,
    /// paired with the number of snapshot-non-`Done` entries strictly
    /// older than it — exactly the `rs_seen` value the linear scan would
    /// have accumulated. Returns `None` once the window-depth budget is
    /// spent or the live range is exhausted.
    pub(crate) fn sched_next(&self, cur: &mut SchedCursor) -> Option<(u32, u32)> {
        while cur.seg < 2 {
            let (lo, hi) = cur.segs[cur.seg as usize];
            let mut w = cur.floor / 64;
            while w * 64 < hi {
                let base = w * 64;
                let mut m = word_mask(lo, hi, base);
                if cur.floor > base {
                    m &= !0u64 << (cur.floor - base);
                }
                let ndw = self.flags[w].nd_snap & m;
                let ww = self.flags[w].waiting & self.flags[w].ready & m;
                if ww != 0 {
                    let b = ww.trailing_zeros();
                    let below = (1u64 << b) - 1;
                    let before = cur.nd + (ndw & below).count_ones();
                    if before >= cur.window {
                        cur.seg = 2;
                        return None;
                    }
                    // Consume through the candidate (its own snapshot
                    // bit counts toward every younger entry's depth).
                    cur.nd += (ndw & (below | (1u64 << b))).count_ones();
                    cur.floor = base + b as usize + 1;
                    return Some(((base + b as usize) as u32, before));
                }
                cur.nd += ndw.count_ones();
                if cur.nd >= cur.window {
                    cur.seg = 2;
                    return None;
                }
                w += 1;
                cur.floor = w * 64;
            }
            cur.seg += 1;
            if cur.seg < 2 {
                cur.floor = cur.segs[1].0;
            }
        }
        None
    }

    /// `true` while physical `slot` is inside the live window (the
    /// occupancy half of the liveness check, for revalidating a slot
    /// captured earlier in the same cycle — no dispatch can have reused
    /// it in between).
    #[inline]
    pub(crate) fn slot_live(&self, slot: usize) -> bool {
        self.pos_at(slot) < self.len
    }

    /// `true` when no more entries can dispatch.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// `true` when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Physical slot of window position `pos` (0 = oldest). The caller
    /// must keep `pos < len`.
    #[inline]
    pub(crate) fn phys(&self, pos: usize) -> usize {
        self.wrap(self.head + pos)
    }

    /// Window position of a live handle, `None` when stale (retired or
    /// squashed — the generation check).
    #[inline]
    pub fn pos_of(&self, idx: RobIdx) -> Option<usize> {
        let slot = idx.slot as usize;
        let pos = self.pos_at(slot);
        (pos < self.len && self.seq[slot] == idx.seq).then_some(pos)
    }

    /// Physical slot of a live handle, `None` when stale.
    #[inline]
    pub(crate) fn live_slot(&self, idx: RobIdx) -> Option<usize> {
        self.pos_of(idx).map(|_| idx.slot as usize)
    }

    /// `true` while the handle names a live (un-retired, un-squashed)
    /// entry.
    pub fn contains(&self, idx: RobIdx) -> bool {
        self.pos_of(idx).is_some()
    }

    /// Allocates an entry at the tail, assigning its handle.
    ///
    /// # Panics
    ///
    /// Panics when full — the dispatcher must check [`Rob::is_full`].
    pub fn push(&mut self, uop: RobUop) -> RobIdx {
        assert!(!self.is_full(), "ROB overflow");
        let slot = self.wrap(self.head + self.len);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.seq[slot] = seq;
        // A reused slot must not fire the previous occupant's wakes (the
        // seq check would filter them, but a `Done`-at-dispatch uop would
        // walk the stale list) nor inherit its ready bit; the stale
        // list's nodes go back to the free list.
        if self.wake[slot] != NIL {
            self.drain_wakes(slot, false);
        }
        self.set_state_at(slot, uop.state);
        self.entry[slot] = RobEntry {
            kind: uop.kind,
            deps: uop.deps,
            done_at: uop.done_at,
            result: 0,
            trace_idx: uop.trace_idx,
            dst: uop.dst,
            src_regs: uop.src_regs,
        };
        RobIdx {
            seq,
            slot: slot as u32,
        }
    }

    /// Handle of the oldest entry.
    pub fn front(&self) -> Option<RobIdx> {
        (self.len > 0).then(|| RobIdx {
            seq: self.seq[self.head],
            slot: self.head as u32,
        })
    }

    /// Physical slot of the oldest entry.
    #[inline]
    pub(crate) fn head_slot(&self) -> Option<usize> {
        (self.len > 0).then_some(self.head)
    }

    /// Retires (removes) the oldest entry. The caller reads any fields
    /// it needs from the head columns first.
    pub fn pop_front(&mut self) {
        debug_assert!(self.len > 0, "retiring from an empty ROB");
        self.head = self.wrap(self.head + 1);
        self.len -= 1;
    }

    /// Execution state of a live entry.
    pub fn state_of(&self, idx: RobIdx) -> Option<RobState> {
        self.live_slot(idx).map(|s| self.state[s])
    }

    /// `true` when the producer `idx` has either retired or produced its
    /// result. Handles never reference squashed entries (the rename map
    /// is rebuilt from survivors on every squash), so a dead handle
    /// means the producer retired.
    #[inline]
    pub fn dep_satisfied(&self, idx: RobIdx) -> bool {
        let slot = idx.slot as usize;
        let pos = self.pos_at(slot);
        if pos < self.len && self.seq[slot] == idx.seq {
            self.state[slot] == RobState::Done
        } else {
            true // retired
        }
    }

    /// Removes `from` and everything younger; returns how many entries
    /// were removed (0 when the handle is stale). Freed slots keep their
    /// old `seq` until reused, so handles into the removed suffix go
    /// stale immediately (the occupancy half of the liveness check
    /// fails) and can never be revived — replays allocate fresh, larger
    /// seqs.
    pub fn squash_from(&mut self, from: RobIdx) -> u64 {
        let Some(pos) = self.pos_of(from) else {
            return 0;
        };
        let removed = self.len - pos;
        self.len = pos;
        removed as u64
    }

    /// Iterates the live window oldest → youngest as handles.
    pub fn iter(&self) -> impl Iterator<Item = RobIdx> + '_ {
        (0..self.len).map(|pos| {
            let slot = self.phys(pos);
            RobIdx {
                seq: self.seq[slot],
                slot: slot as u32,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uop(trace_idx: usize) -> RobUop {
        RobUop {
            trace_idx,
            kind: RobKind::Nop,
            dst: None,
            deps: [None, None],
            src_regs: [None, None],
            state: RobState::Waiting,
            done_at: 0,
        }
    }

    #[test]
    fn push_assigns_monotonic_handles() {
        let mut rob = Rob::new(4);
        let a = rob.push(uop(0));
        let b = rob.push(uop(1));
        assert!(a < b);
        assert_eq!(rob.len(), 2);
        assert_eq!(rob.front().unwrap(), a);
    }

    #[test]
    #[should_panic(expected = "ROB overflow")]
    fn overflow_panics() {
        let mut rob = Rob::new(1);
        rob.push(uop(0));
        rob.push(uop(1));
    }

    #[test]
    fn lookup_by_handle_survives_retirement() {
        let mut rob = Rob::new(4);
        let a = rob.push(uop(0));
        let b = rob.push(uop(1));
        rob.pop_front();
        assert!(!rob.contains(a), "retired handle is stale");
        assert!(rob.contains(b));
    }

    #[test]
    fn dep_satisfied_for_retired_and_done() {
        let mut rob = Rob::new(4);
        let a = rob.push(uop(0));
        let b = rob.push(uop(1));
        assert!(!rob.dep_satisfied(a));
        rob.set_state_at(a.slot as usize, RobState::Done);
        assert!(rob.dep_satisfied(a));
        assert!(!rob.dep_satisfied(b));
        rob.pop_front();
        assert!(rob.dep_satisfied(a), "retired producers are satisfied");
    }

    #[test]
    fn squash_removes_suffix_and_seqs_stay_unique() {
        let mut rob = Rob::new(8);
        let _a = rob.push(uop(0));
        let b = rob.push(uop(1));
        let _c = rob.push(uop(2));
        assert_eq!(rob.squash_from(b), 2);
        assert_eq!(rob.len(), 1);
        // New pushes get fresh seqs strictly greater than any removed.
        let d = rob.push(uop(1));
        assert!(d.seq > b.seq);
        assert!(!rob.contains(b), "squashed handle must not resolve");
    }

    #[test]
    fn squash_of_stale_handle_is_noop() {
        let mut rob = Rob::new(4);
        rob.push(uop(0));
        let bogus = RobIdx { seq: 99, slot: 0 };
        assert_eq!(rob.squash_from(bogus), 0);
        assert_eq!(rob.len(), 1);
    }

    #[test]
    fn stale_handle_rejected_after_slot_reuse() {
        let mut rob = Rob::new(8);
        let a = rob.push(uop(0));
        let b = rob.push(uop(1));
        rob.squash_from(b);
        let c = rob.push(uop(1)); // reuses b's physical slot
        assert_eq!(c.slot, b.slot);
        assert!(rob.contains(a));
        assert!(!rob.contains(b), "old generation in a reused slot");
        assert!(rob.contains(c));
        assert_eq!(rob.pos_of(b), None);
    }

    #[test]
    fn ring_wraps_past_physical_capacity() {
        let mut rob = Rob::new(4);
        let mut last = None;
        for i in 0..20 {
            let h = rob.push(uop(i));
            assert_eq!(rob.front().map(|f| f.seq), Some(i as u64));
            rob.pop_front();
            if let Some(prev) = last {
                assert!(h > prev);
                assert!(!rob.contains(prev));
            }
            last = Some(h);
        }
    }
}
