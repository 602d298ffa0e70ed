//! The out-of-order core pipeline.
//!
//! One [`Core`] executes one trace. Each call to [`Core::tick`] simulates
//! one cycle in six phases:
//!
//! 1. **Memory notices** — load completions perform loads (reading the
//!    global value image at the perform instant), ownership grants wake
//!    draining stores, and invalidations/evictions snoop the load queue
//!    (possibly squashing speculative loads — the paper's §IV mechanism).
//! 2. **Store-buffer drain** — the SB head commits to the L1 once owned;
//!    commits publish values, free SQ/SB entries and reopen the retire
//!    gate (by key under `370-SLFSoS-key`, on SB-empty under
//!    `370-SLFSoS`). Younger retired stores prefetch ownership (RFO).
//! 3. **Completions** — executing micro-ops whose latency elapsed become
//!    retirable; mispredicted branches redirect fetch.
//! 4. **Retire** — in-order, up to `width`; loads additionally subject to
//!    the per-model store-atomicity rules.
//! 5. **Schedule/execute** — ready micro-ops issue; loads run the
//!    forwarding search / memory issue state machine; store addresses
//!    resolve and trigger memory-order violation checks.
//! 6. **Dispatch** — up to `width` trace instructions enter the window;
//!    stall cycles are attributed to the first full resource
//!    (ROB/LQ/SQ-SB — Figure 9's metric).
//!
//! All hot loops walk the struct-of-arrays columns of [`Rob`],
//! [`LoadQueue`] and [`StoreQueue`] by physical slot; entities are named
//! by generation-tagged handles (`RobIdx`/`LqIdx`/`SqIdx`), resolved to
//! a slot once per use. Every scan preserves the visit order and
//! side-effect order of the entry-struct implementation it replaced, so
//! simulated cycle counts are bit-exact.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use sa_coherence::{MemReqId, Notice, NoticeKind};
use sa_isa::{
    ConsistencyModel, CoreId, Cycle, FastMap, Line, Op, Reg, StoreOperand, Trace, Value,
    ValueImage, NUM_REGS,
};
use sa_metrics::{CoreMetrics, CpiCategory};
use sa_profile::{NullProfiler, Profiler};
use sa_trace::{EventKind, GateOpenReason, TraceEvent, Tracer, UopKind};

use crate::branch::Tage;
use crate::config::{CoreConfig, InjectedBug};
use crate::gate::{Key, RetireGate};
use crate::lq::{BlockReason, LoadQueue, LoadState, LqIdx};
use crate::port::LoadStorePort;
use crate::rob::{Rob, RobIdx, RobKind, RobState, RobUop};
use crate::sq::{extract_forwarded, SearchHit, SqIdx, StoreQueue};
use crate::stats::{CoreStats, SquashCause};
use crate::storeset::StoreSet;

/// The `sa-trace` mirror of a gate/store key.
fn tkey(k: Key) -> sa_trace::GateKey {
    sa_trace::GateKey {
        slot: k.slot,
        sorting: k.sorting,
    }
}

/// The `sa-trace` mirror of a squash cause.
fn tcause(c: SquashCause) -> sa_trace::SquashKind {
    match c {
        SquashCause::MemOrder => sa_trace::SquashKind::MemOrder,
        SquashCause::LoadLoad => sa_trace::SquashKind::LoadLoad,
        SquashCause::StoreAtomicity => sa_trace::SquashKind::StoreAtomicity,
    }
}

/// Micro-op class of a window entry, for trace labeling.
fn tuop(kind: &RobKind) -> UopKind {
    match kind {
        RobKind::Load { .. } => UopKind::Load,
        RobKind::Store { .. } => UopKind::Store,
        RobKind::Branch { .. } => UopKind::Branch,
        RobKind::Alu { .. } => UopKind::Alu,
        RobKind::Fence => UopKind::Fence,
        RobKind::Nop => UopKind::Nop,
    }
}

/// Which resource blocked dispatch on a zero-dispatch cycle (Figure 9's
/// attribution, remembered for idle replay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DispatchStall {
    Rob,
    Lq,
    Sq,
}

/// What one [`Core::tick`] did, reported to the simulation engine.
#[derive(Debug, Clone, Copy)]
pub struct TickResult {
    /// Whether any pipeline state changed beyond per-cycle bookkeeping.
    /// A `false` tick is a stall: re-running it with no new memory
    /// notice, no timed wakeup due ([`Core::next_timed_wakeup`]) and the
    /// port's reject stamp unchanged only re-accrues the same per-cycle
    /// counters and re-books the same [`rejects`](Self::rejects), so the
    /// engine may replay it in bulk via [`Core::apply_idle_cycles`].
    pub progress: bool,
    /// Instructions retired this tick.
    pub retired: u64,
    /// MSHR rejections this tick booked from the reject memo
    /// ([`LoadStorePort::note_rejected_issues`]) instead of issuing.
    /// They are not progress: while the stamp stands, every further
    /// cycle of the stall books exactly as many.
    pub rejects: u64,
}

/// One simulated out-of-order core.
#[derive(Debug)]
pub struct Core {
    id: CoreId,
    cfg: CoreConfig,
    model: ConsistencyModel,
    trace: Trace,
    fetch_idx: usize,
    fetch_resume: Cycle,
    fetch_blocked_on: Option<RobIdx>,
    rob: Rob,
    lq: LoadQueue,
    sq: StoreQueue,
    gate: RetireGate,
    bp: Tage,
    ss: StoreSet,
    arch_regs: [Value; NUM_REGS],
    reg_producer: [Option<RobIdx>; NUM_REGS],
    pending_loads: FastMap<MemReqId, LqIdx>,
    pending_owns: FastMap<MemReqId, SqIdx>,
    completion_q: BinaryHeap<Reverse<(Cycle, RobIdx)>>,
    fences: BTreeSet<RobIdx>,
    gate_stall_cur: Option<RobIdx>,
    /// Loads currently in a Blocked state (gates the retry pass).
    blocked_loads: usize,
    /// Bumped whenever state a blocked load's retry reads changes (store
    /// address resolution, SB commit, fence retire, squash, StoreSet
    /// training). While unchanged, a blocked load re-blocks identically,
    /// so its retry is skipped (see the LQ's `attempt_epoch` column).
    lsq_epoch: u64,
    /// Positions below this in the ROB are all `Done` — the scheduler
    /// scan starts here. A lower bound: refreshed lazily each tick,
    /// shifted on retire, clamped on squash.
    sched_start: usize,
    /// `true` when the pending `fetch_resume` came from a squash replay
    /// rather than a branch redirect (CPI-stack attribution of the
    /// empty-window refill).
    resume_was_squash: bool,
    /// Set by any phase that changes pipeline state this tick; a tick
    /// that ends with it clear is a stall the engine may replay.
    progress: bool,
    /// Memoized MSHR rejections booked this tick (`TickResult::rejects`).
    memo_rejects: u64,
    /// The stall category a no-progress tick charged its retire slots to
    /// (replayed verbatim by [`Core::apply_idle_cycles`]).
    idle_stall: Option<CpiCategory>,
    /// This tick accrued a gate-stall cycle (head load behind a closed
    /// gate).
    idle_gate_stall: bool,
    /// This tick accrued an SLFSpec SB-wait cycle.
    idle_slfspec_stall: bool,
    /// Which resource blocked dispatch this tick, if any.
    idle_dispatch: Option<DispatchStall>,
    /// Reused scratch for the retry pass's blocked-slot snapshot.
    blocked_scratch: Vec<u32>,
    /// Per-SQ-slot memo: `has_ownership` returned true for this store's
    /// line and no ownership-losing notice (invalidation, eviction,
    /// downgrade) has arrived since. Every loss path raises a notice at
    /// the cycle the state changes (the event engine's idle-skip already
    /// depends on that), so a set bit lets the RFO prefetch scan skip
    /// the cache probe — a skipped probe has no side effects.
    rfo_owned: Vec<bool>,
    /// Per-SQ-slot memo: the port's [`reject_epoch`] stamp captured when
    /// `has_ownership` last returned false for this store's line. While
    /// the stamp is unchanged, ownership cannot have been acquired (every
    /// acquisition path is a stamped controller mutation), so the probe
    /// is skipped. `u64::MAX` = no probe recorded.
    ///
    /// [`reject_epoch`]: LoadStorePort::reject_epoch
    sq_unowned_stamp: Vec<u64>,
    /// Per-SQ-slot memo: the stamp captured when an `issue_ownership` for
    /// this store was MSHR-rejected. An unchanged stamp means a retry
    /// would be rejected identically, so its side effects are booked via
    /// `note_rejected_issues` without the issue path. `u64::MAX` = no
    /// rejection recorded.
    sq_own_reject_stamp: Vec<u64>,
    /// Store-queue state changed since the last full [`drain_stores`]
    /// run (alloc, address resolution, data capture, retirement, squash,
    /// or any memory notice). Cleared by the drain itself; while clear,
    /// a quiescent drain's inputs can only change through a stamped
    /// memory-side mutation or the passage of commit time.
    ///
    /// [`drain_stores`]: Core::drain_stores
    sq_dirty: bool,
    /// The last full drain was inert: no commit finished or started and
    /// no issue attempt was made (real or memoized). Together with a
    /// clean [`sq_dirty`](Core::sq_dirty), an unchanged memory stamp,
    /// and `now` short of [`drain_wake`](Core::drain_wake), the next
    /// drain is provably identical and is skipped outright.
    drain_sleep: bool,
    /// The port's `reject_epoch` stamp at the end of the last full drain
    /// (`has_ownership` outcomes are pinned while it is unchanged).
    drain_mem_stamp: u64,
    /// Earliest cycle at which the head commit completes (`Cycle::MAX`
    /// when no commit is in flight): the only time-dependent drain input.
    drain_wake: Cycle,
    stats: CoreStats,
    metrics: CoreMetrics,
}

impl Core {
    /// Creates a core executing `trace` under `model`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CoreConfig::validate`].
    pub fn new(id: CoreId, cfg: CoreConfig, model: ConsistencyModel, trace: Trace) -> Core {
        cfg.validate();
        Core {
            id,
            rob: Rob::new(cfg.rob_entries),
            lq: LoadQueue::new(cfg.lq_entries),
            sq: StoreQueue::new(cfg.sq_sb_entries),
            gate: RetireGate::with_capacity(cfg.gate_keys),
            bp: Tage::new(),
            ss: StoreSet::new(cfg.storeset),
            arch_regs: [0; NUM_REGS],
            reg_producer: [None; NUM_REGS],
            pending_loads: FastMap::default(),
            pending_owns: FastMap::default(),
            completion_q: BinaryHeap::new(),
            fences: BTreeSet::new(),
            gate_stall_cur: None,
            blocked_loads: 0,
            lsq_epoch: 0,
            sched_start: 0,
            resume_was_squash: false,
            progress: false,
            memo_rejects: 0,
            idle_stall: None,
            idle_gate_stall: false,
            idle_slfspec_stall: false,
            idle_dispatch: None,
            blocked_scratch: Vec::new(),
            rfo_owned: vec![false; cfg.sq_sb_entries],
            sq_unowned_stamp: vec![u64::MAX; cfg.sq_sb_entries],
            sq_own_reject_stamp: vec![u64::MAX; cfg.sq_sb_entries],
            sq_dirty: true,
            drain_sleep: false,
            drain_mem_stamp: 0,
            drain_wake: 0,
            stats: CoreStats::default(),
            metrics: CoreMetrics::with_capacities(
                cfg.rob_entries,
                cfg.lq_entries,
                cfg.sq_sb_entries,
            ),
            fetch_idx: 0,
            fetch_resume: 0,
            fetch_blocked_on: None,
            cfg,
            model,
            trace,
        }
    }

    /// This core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// The consistency model this core enforces.
    pub fn model(&self) -> ConsistencyModel {
        self.model
    }

    /// `true` once the whole trace has retired and all stores committed.
    pub fn finished(&self) -> bool {
        self.fetch_idx >= self.trace.len() && self.rob.is_empty() && self.sq.is_empty()
    }

    /// Statistics counters.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Always-on aggregate metrics: the retire-slot CPI stack and the
    /// window-occupancy histograms.
    pub fn metrics(&self) -> &CoreMetrics {
        &self.metrics
    }

    /// Retired stores still draining from the store buffer.
    pub fn sb_depth(&self) -> usize {
        self.sq.sb_depth()
    }

    /// Architectural value of `r` (final state for litmus outcomes).
    pub fn arch_reg(&self, r: Reg) -> Value {
        self.arch_regs[r.index()]
    }

    /// Branch predictor accuracy observer.
    pub fn branch_mispredict_rate(&self) -> f64 {
        self.bp.mispredict_rate()
    }

    /// Simulates one cycle, emitting structured events into `tracer`.
    ///
    /// This is the single run API: pass
    /// [`&mut NullTracer`](sa_trace::NullTracer) for an untraced tick —
    /// `Tracer::ENABLED` is a compile-time constant, so every emission
    /// site — including the closure building the event — monomorphizes
    /// to dead code and the pipeline is exactly the untraced one.
    pub fn tick<M: LoadStorePort, V: ValueImage, T: Tracer>(
        &mut self,
        now: Cycle,
        mem: &mut M,
        valmem: &mut V,
        notices: &[Notice],
        tracer: &mut T,
    ) -> TickResult {
        self.tick_profiled::<M, V, T, NullProfiler>(now, mem, valmem, notices, tracer)
    }

    /// [`Core::tick`] with host-side phase profiling: each pipeline phase
    /// runs under a `sa-profile` span, so an enabled [`Profiler`] builds
    /// the per-phase wall-time tree the ROADMAP's hot-loop rebuild needs.
    /// With the default [`NullProfiler`] every span compiles away and
    /// this *is* `tick` — same monomorphization discipline as the
    /// [`Tracer`].
    pub fn tick_profiled<M: LoadStorePort, V: ValueImage, T: Tracer, P: Profiler>(
        &mut self,
        now: Cycle,
        mem: &mut M,
        valmem: &mut V,
        notices: &[Notice],
        tracer: &mut T,
    ) -> TickResult {
        self.progress = false;
        self.memo_rejects = 0;
        self.idle_stall = None;
        self.idle_gate_stall = false;
        self.idle_slfspec_stall = false;
        self.idle_dispatch = None;
        let retired_before = self.stats.retired_instrs;
        self.stats.cycles += 1;
        {
            let _p = P::span("notices");
            self.process_notices(now, valmem, notices, tracer);
        }
        {
            let _p = P::span("sb_drain");
            self.drain_stores(now, mem, valmem, tracer);
        }
        {
            let _p = P::span("complete");
            self.process_completions(now, tracer);
        }
        {
            let _p = P::span("retire");
            self.retire(now, tracer);
        }
        self.schedule::<M, T, P>(now, mem, tracer);
        {
            let _p = P::span("frontend");
            self.dispatch(now, tracer);
        }
        if self.gate.is_closed() {
            self.stats.gate_closed_cycles += 1;
        }
        self.metrics
            .occ
            .record(self.rob.len(), self.lq.len(), self.sq.len());
        tracer.emit(|| TraceEvent {
            cycle: now,
            core: self.id,
            kind: EventKind::Occupancy {
                rob: self.rob.len() as u16,
                lq: self.lq.len() as u16,
                sq: self.sq.len() as u16,
            },
        });
        TickResult {
            progress: self.progress,
            retired: self.stats.retired_instrs - retired_before,
            rejects: self.memo_rejects,
        }
    }

    /// Replays `n` cycles of stall bookkeeping, exactly as `n` further
    /// ticks of the current state would have accrued it on this core.
    /// Only valid after a tick that reported no progress, for cycles
    /// before any new memory notice, timed wakeup or reject-stamp move
    /// (the engine's contract — see `Multicore::run`). The engine may
    /// apply a whole sleep in one call, once it ends; the memoized MSHR
    /// rejections those ticks would have booked
    /// ([`TickResult::rejects`] per cycle) are the engine's to book.
    pub fn apply_idle_cycles(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.stats.cycles += n;
        if self.gate.is_closed() {
            self.stats.gate_closed_cycles += n;
        }
        if self.idle_gate_stall {
            self.stats.gate_stall_cycles += n;
        }
        if self.idle_slfspec_stall {
            self.stats.slfspec_stall_cycles += n;
        }
        match self.idle_dispatch {
            Some(DispatchStall::Rob) => self.stats.rob_stall_cycles += n,
            Some(DispatchStall::Lq) => self.stats.lq_stall_cycles += n,
            Some(DispatchStall::Sq) => self.stats.sq_stall_cycles += n,
            None => {}
        }
        let cat = self.idle_stall.expect("an idle core has a stall category");
        self.metrics.cpi.add(cat, self.cfg.width as u64 * n);
        self.metrics
            .occ
            .record_n(self.rob.len(), self.lq.len(), self.sq.len(), n);
    }

    /// The earliest cycle after `now` at which this core could make
    /// progress without an external memory notice, given its post-tick
    /// state: the next internal completion, the SB head's commit
    /// deadline, the fetch-redirect resume point, or the head's `done_at`
    /// becoming retirable. `None` means only a notice can wake it.
    pub fn next_timed_wakeup(&self, now: Cycle) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        let mut merge = |c: Cycle| {
            if c > now && next.is_none_or(|n| c < n) {
                next = Some(c);
            }
        };
        if let Some(&Reverse((t, _))) = self.completion_q.peek() {
            merge(t);
        }
        if let Some(h) = self.sq.head_slot() {
            if let Some(t) = self.sq.entry[h].committing_done {
                merge(t);
            }
        }
        if self.fetch_idx < self.trace.len() && now < self.fetch_resume {
            merge(self.fetch_resume);
        }
        if let Some(h) = self.rob.head_slot() {
            if self.rob.state[h] == RobState::Done {
                merge(self.rob.entry[h].done_at);
            }
        }
        next
    }

    // ------------------------------------------------------------------
    // Phase 1: memory notices
    // ------------------------------------------------------------------

    fn process_notices<V: ValueImage, T: Tracer>(
        &mut self,
        now: Cycle,
        valmem: &V,
        notices: &[Notice],
        tracer: &mut T,
    ) {
        let cid = self.id;
        if !notices.is_empty() {
            // Notices can clear `own_req`/`rfo_owned` or squash stores
            // without a memory-stamp bump visible to this core's drain.
            self.sq_dirty = true;
        }
        for n in notices {
            match n.kind {
                NoticeKind::LoadDone { id } => {
                    tracer.emit(|| TraceEvent {
                        cycle: now,
                        core: cid,
                        kind: EventKind::MemResp {
                            req: id.0,
                            rfo: false,
                        },
                    });
                    let Some(lqi) = self.pending_loads.remove(&id) else {
                        continue; // stale response for a squashed load
                    };
                    self.perform_from_memory(lqi, now, valmem, tracer);
                }
                NoticeKind::OwnershipDone { id } => {
                    tracer.emit(|| TraceEvent {
                        cycle: now,
                        core: cid,
                        kind: EventKind::MemResp {
                            req: id.0,
                            rfo: true,
                        },
                    });
                    if let Some(sqi) = self.pending_owns.remove(&id) {
                        self.progress = true;
                        if let Some(slot) = self.sq.live_slot(sqi) {
                            self.sq.entry[slot].own_req = None; // drain re-checks has_ownership
                        }
                    }
                }
                NoticeKind::Invalidated { line, by } => {
                    tracer.emit(|| TraceEvent {
                        cycle: now,
                        core: cid,
                        kind: EventKind::Invalidation { line: line.base() },
                    });
                    self.rfo_owned.fill(false);
                    self.snoop_lq(line, Some(by), now, tracer);
                }
                NoticeKind::Evicted { line } => {
                    tracer.emit(|| TraceEvent {
                        cycle: now,
                        core: cid,
                        kind: EventKind::Eviction { line: line.base() },
                    });
                    self.rfo_owned.fill(false);
                    // Capacity eviction: a local cause, no remote core to
                    // blame.
                    self.snoop_lq(line, None, now, tracer);
                }
                // Losing write permission needs no core-side action: the
                // store-drain path re-checks `has_ownership` every attempt.
                // The notice only wakes an idle core so the event engine
                // retries the drain at the same cycle lockstep would.
                NoticeKind::Downgraded { .. } => {
                    self.rfo_owned.fill(false);
                }
            }
        }
    }

    fn perform_from_memory<V: ValueImage, T: Tracer>(
        &mut self,
        lqi: LqIdx,
        now: Cycle,
        valmem: &V,
        tracer: &mut T,
    ) {
        self.progress = true;
        let Some(pos) = self.lq.pos_of(lqi) else {
            debug_assert!(false, "completion for a load not in the LQ");
            return;
        };
        let slot = lqi.slot as usize;
        let m_spec = self.lq.any_unperformed_before(pos);
        debug_assert!(matches!(self.lq.state_at(slot), LoadState::Issued(_)));
        self.lq.set_state_at(slot, LoadState::Performed);
        self.lq.entry[slot].performed_at = now;
        let addr = self.lq.entry[slot].addr;
        let value = valmem.read(addr, self.lq.entry[slot].size);
        self.lq.entry[slot].value = value;
        self.lq.entry[slot].m_spec = m_spec;
        let rid = self.lq.rob[slot];
        let rslot = self.rob.live_slot(rid).expect("load still in ROB");
        self.rob.set_state_at(rslot, RobState::Done);
        self.rob.entry[rslot].done_at = now;
        self.rob.entry[rslot].result = value;
        let cid = self.id;
        tracer.emit(|| TraceEvent {
            cycle: now,
            core: cid,
            kind: EventKind::Perform {
                rob: rid.seq,
                addr,
                forwarded: false,
            },
        });
        tracer.emit(|| TraceEvent {
            cycle: now,
            core: cid,
            kind: EventKind::Complete { rob: rid.seq },
        });
    }

    /// Invalidation/eviction snoop of the load queue — the detection
    /// mechanism of §IV. Finds the oldest *speculative* performed load on
    /// `line` and squashes from it.
    fn snoop_lq<T: Tracer>(&mut self, line: Line, by: Option<CoreId>, now: Cycle, tracer: &mut T) {
        let mut victim: Option<(RobIdx, SquashCause)> = None;
        for pos in 0..self.lq.len() {
            let slot = self.lq.phys(pos);
            if self.lq.line[slot] != line || self.lq.state_at(slot) != LoadState::Performed {
                continue;
            }
            let rid = self.lq.rob[slot];
            // Classic in-window speculation (present in all five
            // configurations, including x86): the load is squashable iff
            // *right now* an older load is still unperformed (M-spec) or
            // an older store address is still unresolved (D-spec). Once
            // every older access is bound, the load's early perform is
            // no longer observable and a snoop cannot catch it.
            let classic = self.lq.any_unperformed_before(pos) || self.sq.any_older_unresolved(rid);
            let sa = match self.model {
                ConsistencyModel::X86 | ConsistencyModel::Ibm370NoSpec => false,
                ConsistencyModel::Ibm370SlfSpec => {
                    // SC-like: the SLF load itself is speculative while
                    // older stores linger, and so is anything younger
                    // than a speculative SLF load.
                    let self_spec =
                        self.lq.entry[slot].fwd_from.is_some() && self.sq.any_older(rid);
                    self_spec
                        || (0..pos).any(|p| {
                            let os = self.lq.phys(p);
                            self.lq.entry[os].fwd_from.is_some()
                                && self.sq.any_older(self.lq.rob[os])
                        })
                }
                ConsistencyModel::Ibm370SlfSos | ConsistencyModel::Ibm370SlfSosKey => {
                    // SoS: SLF loads are *sources* of speculation; a load
                    // is SA-speculative iff an older SLF load's
                    // forwarding store is still in the SQ/SB — whether
                    // that SLF load is still in the window or already
                    // retired (then the closed gate remembers it).
                    self.gate.is_closed()
                        || self
                            .lq
                            .older_slf_pending_before(pos, |k| self.sq.contains_key(k))
                }
            };
            if classic || sa {
                let cause = if classic {
                    SquashCause::LoadLoad
                } else {
                    SquashCause::StoreAtomicity
                };
                victim = Some((rid, cause));
                break;
            }
        }
        if let Some((rid, cause)) = victim {
            self.squash_from(rid, cause, by, Some(line), now, tracer);
        }
        // A load whose memory access is still in flight on this line
        // would complete as a stale hit: the line left the cache after
        // the hit/miss decision was made. Drop the pending response and
        // re-execute the load — the replay misses and refetches through
        // the directory, which re-serializes it against the writer
        // (whose eventual commit-time ownership grab then snoops us
        // again). Without this, an early RFO that invalidates before the
        // in-flight load performs lets the later silent commit slip past
        // the §IV detection window entirely.
        for pos in 0..self.lq.len() {
            let slot = self.lq.phys(pos);
            if self.lq.line[slot] != line {
                continue;
            }
            if let LoadState::Issued(req) = self.lq.state_at(slot) {
                self.pending_loads.remove(&req);
                self.progress = true;
                self.blocked_loads += 1;
                self.lq
                    .set_state_at(slot, LoadState::Blocked(BlockReason::Replay));
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 2: store-buffer drain
    // ------------------------------------------------------------------

    fn drain_stores<M: LoadStorePort, V: ValueImage, T: Tracer>(
        &mut self,
        now: Cycle,
        mem: &mut M,
        valmem: &mut V,
        tracer: &mut T,
    ) {
        if self.sq.is_empty() {
            return;
        }
        // Quiescence memo: the last full drain did nothing, the SQ is
        // untouched since, ownership state is pinned by the unchanged
        // memory stamp, and no in-flight commit has come due — so this
        // drain would scan and do nothing too. Skip it.
        if self.drain_sleep
            && !self.sq_dirty
            && now < self.drain_wake
            && mem.reject_epoch() == Some(self.drain_mem_stamp)
        {
            return;
        }
        // Anything that finishes, starts, or issues below clears
        // quiescence (a rejected issue, memoized or not, mutates the
        // memory system every cycle, so it must replay — only a pure
        // scan may sleep).
        let mut active = false;
        let cid = self.id;
        // Finish completed commits, strictly in program order (commits
        // start in order with a uniform latency, so done-times are
        // monotonic — TSO's store order to memory).
        while let Some(h) = self.sq.head_slot() {
            if self.sq.entry[h].committing_done.is_none_or(|t| t > now) {
                break;
            }
            let addr = self.sq.addr[h];
            let size = self.sq.size[h];
            let value = self.sq.entry[h].value.expect("committed store has data");
            let key = self.sq.key_at(h);
            self.sq.pop_head();
            self.lsq_epoch += 1;
            self.progress = true;
            active = true;
            valmem.write(addr, size, value);
            self.stats.sb_commits += 1;
            tracer.emit(|| TraceEvent {
                cycle: now,
                core: cid,
                kind: EventKind::SbCommit {
                    key: tkey(key),
                    addr,
                },
            });
            match self.model {
                // Injected bug (fuzzer self-test): drop the key match —
                // *any* SB commit reopens the gate, so a forwarded load
                // whose store sits behind older SB entries escapes the
                // window of vulnerability early.
                ConsistencyModel::Ibm370SlfSosKey
                    if self.cfg.injected_bug == Some(InjectedBug::GateKeyMatch) =>
                {
                    if self.gate.is_closed() {
                        tracer.emit(|| TraceEvent {
                            cycle: now,
                            core: cid,
                            kind: EventKind::GateOpen {
                                reason: GateOpenReason::SbEmpty,
                            },
                        });
                    }
                    self.gate.force_open();
                }
                ConsistencyModel::Ibm370SlfSosKey if self.gate.try_unlock(key) => {
                    tracer.emit(|| TraceEvent {
                        cycle: now,
                        core: cid,
                        kind: EventKind::GateOpen {
                            reason: GateOpenReason::KeyMatch(tkey(key)),
                        },
                    });
                }
                ConsistencyModel::Ibm370SlfSos if !self.sq.sb_nonempty() => {
                    if self.gate.is_closed() {
                        tracer.emit(|| TraceEvent {
                            cycle: now,
                            core: cid,
                            kind: EventKind::GateOpen {
                                reason: GateOpenReason::SbEmpty,
                            },
                        });
                    }
                    self.gate.force_open();
                }
                _ => {}
            }
        }
        // Start the next commit. With `commit_pipelined` the L1 write
        // port starts one store per cycle (commits still complete in
        // order); otherwise commits serialize at the L1 write latency —
        // the conservative baseline matching the paper's drain behavior.
        let l1 = mem.l1_latency().max(self.cfg.sb_commit_cycles);
        // Commits start strictly in order and only retired stores
        // commit, so the candidate sits at queue position
        // `n_committing` — inside the retired prefix (`sb_depth`) or
        // nowhere. With serialized commits an in-flight one blocks any
        // start; with pipelined commits the previous store's done-time
        // orders this one.
        let nc = self.sq.n_committing();
        let mut start: Option<(usize, Line, bool)> = None;
        let mut prev_done: Cycle = 0;
        if nc < self.sq.sb_depth() && (self.cfg.commit_pipelined || nc == 0) {
            let s = self.sq.phys(nc);
            debug_assert!(self.sq.retired_at(s) && self.sq.entry[s].committing_done.is_none());
            debug_assert!(
                self.sq.executed_at(s),
                "retired store missing address or data"
            );
            if nc > 0 {
                prev_done = self.sq.entry[self.sq.phys(nc - 1)]
                    .committing_done
                    .expect("committing prefix is dense");
            }
            start = Some((s, self.sq.line[s], self.sq.entry[s].own_req.is_none()));
        }
        if let Some((slot, line, no_req)) = start {
            let stamp = mem.reject_epoch();
            let known_unowned = stamp.is_some() && stamp == Some(self.sq_unowned_stamp[slot]);
            if !known_unowned && mem.has_ownership(line) {
                self.progress = true;
                active = true;
                mem.mark_dirty(line);
                let done = (now + l1).max(prev_done + 1);
                self.sq.start_commit_at(slot, done);
                self.sq.entry[slot].own_req = None;
            } else {
                if let Some(e) = stamp {
                    self.sq_unowned_stamp[slot] = e;
                }
                if no_req {
                    // An issue attempt that reaches the memory system is
                    // progress, accepted or rejected: a real rejection
                    // re-arms the memo below. A memoized re-rejection is
                    // only booked (request id, MSHR-reject counter); the
                    // engine re-books it for each cycle the core sleeps.
                    active = true;
                    if stamp.is_some() && stamp == Some(self.sq_own_reject_stamp[slot]) {
                        self.book_memo_rejects(mem, 1);
                    } else {
                        self.progress = true;
                        if let Some(req) = mem.issue_ownership(line, now) {
                            self.sq.entry[slot].own_req = Some(req);
                            self.pending_owns.insert(req, self.sq.idx_at_slot(slot));
                            tracer.emit(|| TraceEvent {
                                cycle: now,
                                core: cid,
                                kind: EventKind::MemReq {
                                    req: req.0,
                                    line: line.base(),
                                    rfo: true,
                                },
                            });
                        } else if let Some(e) = stamp {
                            self.sq_own_reject_stamp[slot] = e;
                        }
                    }
                }
            }
        }
        // RFO prefetch: as soon as a store's address is known — even
        // before it retires — acquire ownership of its line so the
        // eventual in-order L1 commit is a hit (stores prefetch
        // ownership from the SQ in real cores; this is what hides store
        // miss latency behind the window).
        let mut rfos = 0;
        for pos in 0..self.cfg.rfo_depth {
            if rfos >= 2 {
                break; // RFO issue bandwidth per cycle
            }
            if pos >= self.sq.len() {
                break;
            }
            let s = self.sq.phys(pos);
            if !(self.sq.addr_resolved_at(s)
                && self.sq.entry[s].own_req.is_none()
                && self.sq.entry[s].committing_done.is_none())
            {
                continue;
            }
            if self.rfo_owned[s] {
                continue;
            }
            let line = self.sq.line[s];
            // Re-read per slot: an accepted issue below bumps the stamp.
            let stamp = mem.reject_epoch();
            if stamp.is_some() && stamp == Some(self.sq_unowned_stamp[s]) {
                // Pinned-unowned: the probe would return false again.
            } else if mem.has_ownership(line) {
                self.rfo_owned[s] = true;
                continue;
            } else if let Some(e) = stamp {
                self.sq_unowned_stamp[s] = e;
            }
            active = true;
            if stamp.is_some() && stamp == Some(self.sq_own_reject_stamp[s]) {
                self.book_memo_rejects(mem, 1); // not progress (see above)
                continue;
            }
            self.progress = true; // a real issue attempt
            if let Some(req) = mem.issue_ownership(line, now) {
                self.sq.entry[s].own_req = Some(req);
                self.pending_owns.insert(req, self.sq.idx_at_slot(s));
                rfos += 1;
                tracer.emit(|| TraceEvent {
                    cycle: now,
                    core: cid,
                    kind: EventKind::MemReq {
                        req: req.0,
                        line: line.base(),
                        rfo: true,
                    },
                });
            } else if let Some(e) = stamp {
                self.sq_own_reject_stamp[s] = e;
            }
        }
        // Record quiescence for the memo at the top: this drain's scan
        // outcome stays valid until the SQ changes, the memory stamp
        // moves, or the in-flight head commit comes due.
        self.sq_dirty = false;
        self.drain_sleep = !active;
        self.drain_mem_stamp = mem.reject_epoch().unwrap_or(0);
        self.drain_wake = self
            .sq
            .head_slot()
            .and_then(|h| self.sq.entry[h].committing_done)
            .unwrap_or(Cycle::MAX);
    }

    // ------------------------------------------------------------------
    // Phase 3: completions
    // ------------------------------------------------------------------

    fn process_completions<T: Tracer>(&mut self, now: Cycle, tracer: &mut T) {
        let cid = self.id;
        while let Some(&Reverse((t, id))) = self.completion_q.peek() {
            if t > now {
                break;
            }
            self.completion_q.pop();
            let Some(slot) = self.rob.live_slot(id) else {
                continue; // squashed while executing
            };
            if self.rob.state[slot] != RobState::Executing {
                continue;
            }
            self.progress = true;
            self.rob.set_state_at(slot, RobState::Done);
            self.rob.entry[slot].done_at = t;
            tracer.emit(|| TraceEvent {
                cycle: now,
                core: cid,
                kind: EventKind::Complete { rob: id.seq },
            });
            if let RobKind::Branch {
                mispredicted: true, ..
            } = self.rob.entry[slot].kind
            {
                self.fetch_resume = now + self.cfg.redirect_penalty;
                self.resume_was_squash = false;
                if self.fetch_blocked_on == Some(id) {
                    self.fetch_blocked_on = None;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 4: retire
    // ------------------------------------------------------------------

    fn retire<T: Tracer>(&mut self, now: Cycle, tracer: &mut T) {
        let cid = self.id;
        let mut retired: u64 = 0;
        let mut stall: Option<CpiCategory> = None;
        for _ in 0..self.cfg.width {
            let Some(hs) = self.rob.head_slot() else {
                stall = Some(self.empty_window_category(now));
                break;
            };
            let id = RobIdx {
                seq: self.rob.seq[hs],
                slot: hs as u32,
            };
            let kind = self.rob.entry[hs].kind;
            if self.rob.state[hs] != RobState::Done || self.rob.entry[hs].done_at > now {
                stall = Some(self.head_wait_category(kind));
                break;
            }
            match kind {
                RobKind::Load { lq } => {
                    if let Some(cat) = self.try_retire_load(id, lq, now, tracer) {
                        stall = Some(cat);
                        break;
                    }
                    retired += 1;
                }
                RobKind::Store { sq } => {
                    let slot = self.sq.live_slot(sq).expect("retiring store in SQ");
                    self.sq.mark_retired_at(slot);
                    self.sq_dirty = true;
                    let key = self.sq.key_at(slot);
                    let addr = self.sq.addr[slot];
                    self.stats.retired_stores += 1;
                    tracer.emit(|| TraceEvent {
                        cycle: now,
                        core: cid,
                        kind: EventKind::SbEnter {
                            rob: id.seq,
                            key: tkey(key),
                            addr,
                        },
                    });
                    self.pop_retired(now, tracer);
                    retired += 1;
                }
                RobKind::Fence => {
                    if self.sq.sb_nonempty() {
                        // MFENCE waits for the SB to drain.
                        stall = Some(CpiCategory::OtherBackend);
                        break;
                    }
                    self.fences.remove(&id);
                    self.lsq_epoch += 1;
                    self.stats.retired_fences += 1;
                    self.pop_retired(now, tracer);
                    retired += 1;
                }
                RobKind::Branch { .. } => {
                    self.stats.retired_branches += 1;
                    self.pop_retired(now, tracer);
                    retired += 1;
                }
                RobKind::Alu { .. } | RobKind::Nop => {
                    self.pop_retired(now, tracer);
                    retired += 1;
                }
            }
        }
        // CPI-stack account for this cycle: `retired` slots retired an
        // instruction; the remainder are all charged to the single reason
        // the head could not retire. Exactly `width` slots per cycle.
        if retired > 0 {
            self.progress = true;
        }
        self.idle_stall = stall;
        self.metrics.cpi.add(CpiCategory::Retiring, retired);
        let leftover = self.cfg.width as u64 - retired;
        if leftover > 0 {
            let cat = stall.expect("a partial retire cycle names its stall");
            self.metrics.cpi.add(cat, leftover);
        }
    }

    /// Why the Done-but-unretirable or still-executing head is holding
    /// the retire stage.
    fn head_wait_category(&self, kind: RobKind) -> CpiCategory {
        match kind {
            RobKind::Load { lq } => match self.lq.state_of(lq) {
                Some(LoadState::Blocked(BlockReason::StoreCommit(_))) => CpiCategory::NoSpecBlock,
                Some(LoadState::Issued(_))
                | Some(LoadState::Blocked(BlockReason::MshrFull))
                | Some(LoadState::Blocked(BlockReason::Replay)) => CpiCategory::MemMiss,
                _ => CpiCategory::OtherBackend,
            },
            _ => CpiCategory::OtherBackend,
        }
    }

    /// Why the window is empty: squash-replay refill, branch redirect, or
    /// a frontend with nothing in flight (including a drained trace).
    fn empty_window_category(&self, now: Cycle) -> CpiCategory {
        if self.fetch_idx >= self.trace.len() {
            CpiCategory::Frontend
        } else if now < self.fetch_resume {
            if self.resume_was_squash {
                CpiCategory::SquashRefill
            } else {
                CpiCategory::BranchRedirect
            }
        } else if self.fetch_blocked_on.is_some() {
            CpiCategory::BranchRedirect
        } else {
            CpiCategory::Frontend
        }
    }

    /// Returns the stall category when the load must hold the head,
    /// `None` once it retires.
    fn try_retire_load<T: Tracer>(
        &mut self,
        id: RobIdx,
        lqi: LqIdx,
        _now: Cycle,
        tracer: &mut T,
    ) -> Option<CpiCategory> {
        let cid = self.id;
        let slot = self.lq.live_slot(lqi).expect("load in LQ");
        // Retire gate (370-SLFSoS / 370-SLFSoS-key).
        if self.model.uses_retire_gate() && self.gate.is_closed() {
            // Multi-key extension: an SLF load (not speculative itself)
            // may pass a closed gate by depositing its own key, if a key
            // register is free. With the paper's capacity of 1 a closed
            // gate never has space, so this reduces to a plain stall.
            let can_pass = self.model.uses_key()
                && self.gate.has_space()
                && self
                    .lq
                    .slf_key_at(slot)
                    .is_some_and(|k| self.sq.contains_key(k));
            if !can_pass {
                if self.gate_stall_cur != Some(id) {
                    self.gate_stall_cur = Some(id);
                    self.stats.gate_stall_events += 1;
                    tracer.emit(|| TraceEvent {
                        cycle: _now,
                        core: cid,
                        kind: EventKind::GateStall { rob: id.seq },
                    });
                }
                self.stats.gate_stall_cycles += 1;
                self.idle_gate_stall = true;
                return Some(CpiCategory::GateStall);
            }
        }
        // 370-SLFSpec: an SLF load is speculative and may not retire
        // until the store buffer empties.
        if self.model == ConsistencyModel::Ibm370SlfSpec {
            let fwd = self.lq.entry[slot].fwd_from.is_some();
            if fwd && self.sq.sb_nonempty() {
                self.stats.slfspec_stall_cycles += 1;
                self.idle_slfspec_stall = true;
                return Some(CpiCategory::SlfSbWait);
            }
        }
        self.gate_stall_cur = None;
        let fwd_from = self.lq.entry[slot].fwd_from;
        let slf_key = self.lq.slf_key_at(slot);
        self.lq.retire_head(id);
        if fwd_from.is_some() {
            self.stats.forwarded_loads += 1;
        }
        // SoS configurations: a retiring SLF load whose forwarding store
        // is still in the SQ/SB closes the gate behind itself, locked
        // with the store's key (§IV-B2). If the store already left, the
        // window of vulnerability is over and the gate stays open.
        if self.model.uses_retire_gate() && self.cfg.injected_bug != Some(InjectedBug::GateNoClose)
        {
            if let Some(k) = slf_key {
                if self.sq.contains_key(k) {
                    self.gate.close(k);
                    self.stats.gate_closures += 1;
                    tracer.emit(|| TraceEvent {
                        cycle: _now,
                        core: cid,
                        kind: EventKind::GateClose {
                            rob: id.seq,
                            key: tkey(k),
                        },
                    });
                }
            }
        }
        self.stats.retired_loads += 1;
        self.pop_retired(_now, tracer);
        None
    }

    fn pop_retired<T: Tracer>(&mut self, _now: Cycle, tracer: &mut T) {
        let hs = self.rob.head_slot().expect("retiring head");
        let id = RobIdx {
            seq: self.rob.seq[hs],
            slot: hs as u32,
        };
        let dst = self.rob.entry[hs].dst;
        let result = self.rob.entry[hs].result;
        let kind = self.rob.entry[hs].kind;
        self.rob.pop_front();
        self.sched_start = self.sched_start.saturating_sub(1);
        if let Some(dst) = dst {
            self.arch_regs[dst.index()] = result;
            if self.reg_producer[dst.index()] == Some(id) {
                self.reg_producer[dst.index()] = None;
            }
        }
        self.stats.retired_instrs += 1;
        let cid = self.id;
        tracer.emit(|| TraceEvent {
            cycle: _now,
            core: cid,
            kind: EventKind::Retire {
                rob: id.seq,
                uop: tuop(&kind),
            },
        });
    }

    // ------------------------------------------------------------------
    // Phase 5: schedule / execute
    // ------------------------------------------------------------------

    /// Source operand `i` of the micro-op in ROB `slot`, read at issue.
    fn read_src(&self, slot: usize, i: usize) -> Value {
        let Some(r) = self.rob.entry[slot].src_regs[i] else {
            return 0;
        };
        match self.rob.entry[slot].deps[i] {
            Some(pid) => match self.rob.live_slot(pid) {
                Some(ps) => self.rob.entry[ps].result,
                None => self.arch_regs[r.index()], // producer retired
            },
            None => self.arch_regs[r.index()],
        }
    }

    fn deps_ready(&self, slot: usize) -> [bool; 2] {
        let deps = self.rob.entry[slot].deps;
        [
            deps[0].is_none_or(|d| self.rob.dep_satisfied(d)),
            deps[1].is_none_or(|d| self.rob.dep_satisfied(d)),
        ]
    }

    fn schedule<M: LoadStorePort, T: Tracer, P: Profiler>(
        &mut self,
        now: Cycle,
        mem: &mut M,
        tracer: &mut T,
    ) {
        let sched_span = P::span("sched_scan");
        let cid = self.id;
        let mut issued = 0usize;
        let mut load_ports = self.cfg.load_ports;
        let mut store_ports = self.cfg.store_ports;

        // Pass 1: wake waiting ROB entries, oldest first. Candidates are
        // cursor-walked out of the ROB's `waiting & ready` bitsets with
        // the scheduling-window depth (`rs_seen`) computed by popcount
        // over the frozen `not_done` snapshot — identical visit order
        // and window cut-off to the entry-by-entry scan, without
        // touching dep-stalled entries (their ready bits are down until
        // a producer-completion wake). The cursor re-reads the live
        // bitsets each step, so a store completing mid-pass exposes the
        // consumers it wakes to this same pass at their age positions,
        // and a squash (which only removes a strictly-younger suffix)
        // is handled by the per-candidate revalidation below.
        self.sched_start = self.rob.first_not_done(self.sched_start);
        let mut cur = self.rob.sched_pass(self.sched_start, self.cfg.sched_window);
        while issued < self.cfg.width {
            let Some((slot, _)) = self.rob.sched_next(&mut cur) else {
                break;
            };
            let slot = slot as usize;
            if !self.rob.slot_live(slot) || self.rob.state[slot] != RobState::Waiting {
                continue; // squashed by an earlier candidate this cycle
            }
            let id = RobIdx {
                seq: self.rob.seq[slot],
                slot: slot as u32,
            };
            let ready = self.deps_ready(slot);
            match self.rob.entry[slot].kind {
                RobKind::Alu { unit, eval } => {
                    if ready[0] && ready[1] {
                        let vals = [self.read_src(slot, 0), self.read_src(slot, 1)];
                        let n_srcs = self.rob.entry[slot].src_regs.iter().flatten().count();
                        let result = eval.eval(&vals[..n_srcs]);
                        self.rob.set_state_at(slot, RobState::Executing);
                        self.rob.entry[slot].result = result;
                        self.completion_q
                            .push(Reverse((now + u64::from(unit.latency()), id)));
                        issued += 1;
                        self.progress = true;
                        tracer.emit(|| TraceEvent {
                            cycle: now,
                            core: cid,
                            kind: EventKind::Issue { rob: id.seq },
                        });
                    } else {
                        // Dep-stalled: the missing operand's armed wake
                        // re-raises the bit when its producer completes.
                        self.rob.clear_ready(slot);
                    }
                }
                RobKind::Branch { .. } => {
                    if ready[0] {
                        self.rob.set_state_at(slot, RobState::Executing);
                        self.completion_q.push(Reverse((now + 1, id)));
                        issued += 1;
                        self.progress = true;
                        tracer.emit(|| TraceEvent {
                            cycle: now,
                            core: cid,
                            kind: EventKind::Issue { rob: id.seq },
                        });
                    } else {
                        self.rob.clear_ready(slot);
                    }
                }
                RobKind::Load { lq } => {
                    // Address operand gates execution. A port-starved
                    // ready load keeps its bit for next cycle's pass.
                    if !ready[0] {
                        self.rob.clear_ready(slot);
                    } else if load_ports > 0 {
                        self.rob.set_state_at(slot, RobState::Executing);
                        // The Waiting→Executing transition is progress
                        // even when the load immediately blocks.
                        self.progress = true;
                        if self.try_execute_load::<M, T, P>(lq, now, mem, tracer) {
                            load_ports -= 1;
                            issued += 1;
                            tracer.emit(|| TraceEvent {
                                cycle: now,
                                core: cid,
                                kind: EventKind::Issue { rob: id.seq },
                            });
                        }
                    }
                }
                RobKind::Store { sq } => {
                    let ss = self.sq.live_slot(sq).expect("store in SQ");
                    let mut progressed = false;
                    // Address resolution (store AGU port).
                    if !self.sq.addr_resolved_at(ss) && ready[1] && store_ports > 0 {
                        store_ports -= 1;
                        progressed = true;
                        self.resolve_store_addr(sq, now, tracer);
                    }
                    // Data capture (register read, no port). A squash
                    // triggered by the address resolution only removes
                    // entries younger than this store, so `slot`/`ss`
                    // stay valid.
                    if self.sq.entry[ss].value.is_none() && ready[0] {
                        let v = self.read_src(slot, 0);
                        self.sq.entry[ss].value = Some(v);
                        self.sq_dirty = true;
                        progressed = true;
                    }
                    if self.sq.executed_at(ss) {
                        self.rob.set_state_at(slot, RobState::Done);
                        self.rob.entry[slot].done_at = now + 1;
                        self.progress = true;
                        tracer.emit(|| TraceEvent {
                            cycle: now,
                            core: cid,
                            kind: EventKind::Complete { rob: id.seq },
                        });
                    }
                    if progressed {
                        issued += 1;
                        self.progress = true;
                        tracer.emit(|| TraceEvent {
                            cycle: now,
                            core: cid,
                            kind: EventKind::Issue { rob: id.seq },
                        });
                    }
                    if self.rob.state[slot] == RobState::Waiting {
                        // Keep the candidate bit only while an actionable
                        // job remains (a port-starved address
                        // resolution); a captured-but-incomplete store
                        // waits for its other operand's armed wake.
                        let can = (ready[1] && !self.sq.addr_resolved_at(ss))
                            || (ready[0] && self.sq.entry[ss].value.is_none());
                        if !can {
                            self.rob.clear_ready(slot);
                        }
                    }
                }
                RobKind::Fence | RobKind::Nop => {
                    // Completed at dispatch; unreachable in Waiting.
                }
            }
        }

        // Pass 2: retry blocked loads (their wake conditions are events
        // in the SQ/SB or the memory system). Gated on a counter so the
        // common no-blocked-loads case costs nothing. A load whose retry
        // provably re-blocks identically — LSQ epoch unchanged since it
        // blocked, no forwarding data that just arrived, and for an
        // `MshrFull` load also the reject stamp unchanged — is not
        // retried: a skipped retry has no side effects, and a memoized
        // rejection books exactly the side effects of a real one.
        drop(sched_span);
        if self.blocked_loads > 0 {
            let _p = P::span("lsq_retry");
            let mut blocked = std::mem::take(&mut self.blocked_scratch);
            self.lq.blocked_slots(&mut blocked);
            let epoch = self.lsq_epoch;
            // Filter and execute in one pass: a retry never changes the
            // take-decision inputs of a *different* blocked entry (the
            // LSQ epoch and SQ data columns are untouched here), so
            // deciding each entry just before running it matches the
            // two-pass filter-then-run order exactly. Memoized MSHR
            // re-rejections are booked in batches: their ids are
            // order-insensitive among themselves, so deferring a run of
            // them until the next real issue (or the end of the pass)
            // books the same ids at the same sequence positions.
            let mut pending_rejects: u64 = 0;
            for &slot in &blocked {
                let s = slot as usize;
                let take = match self.lq.state_at(s) {
                    // A rejected issue mutates the memory system
                    // (request id, reject counter) every cycle; under an
                    // unchanged stamp it is booked from the memo, which
                    // is not progress and uses no port.
                    LoadState::Blocked(BlockReason::MshrFull) => {
                        if load_ports == 0 {
                            break;
                        }
                        if self.lq.entry[s].attempt_epoch == epoch
                            && mem.reject_epoch() == Some(self.lq.entry[s].reject_stamp)
                        {
                            pending_rejects += 1;
                            continue;
                        }
                        true
                    }
                    // A snoop-killed in-flight load re-executes
                    // unconditionally too — its wake event (the
                    // invalidation) already happened.
                    LoadState::Blocked(BlockReason::Replay) => true,
                    LoadState::Blocked(BlockReason::ForwardData(st)) => {
                        self.lq.entry[s].attempt_epoch != epoch
                            || self
                                .sq
                                .live_slot(st)
                                .is_some_and(|x| self.sq.entry[x].value.is_some())
                    }
                    LoadState::Blocked(_) => self.lq.entry[s].attempt_epoch != epoch,
                    _ => unreachable!("blocked bitset holds only Blocked entries"),
                };
                if !take {
                    continue;
                }
                if load_ports == 0 {
                    break;
                }
                if pending_rejects > 0 {
                    self.book_memo_rejects(mem, pending_rejects);
                    pending_rejects = 0;
                }
                let lqi = LqIdx {
                    seq: self.lq.seq[s],
                    slot,
                };
                let rid = self.lq.rob[s];
                if self.try_execute_load::<M, T, P>(lqi, now, mem, tracer) {
                    load_ports -= 1;
                    tracer.emit(|| TraceEvent {
                        cycle: now,
                        core: cid,
                        kind: EventKind::Issue { rob: rid.seq },
                    });
                }
            }
            if pending_rejects > 0 {
                self.book_memo_rejects(mem, pending_rejects);
            }
            self.blocked_scratch = blocked;
        }
    }

    fn resolve_store_addr<T: Tracer>(&mut self, sq: SqIdx, now: Cycle, tracer: &mut T) {
        self.lsq_epoch += 1;
        self.sq_dirty = true;
        let sslot = self.sq.live_slot(sq).expect("resolving store");
        self.sq.resolve_addr_at(sslot);
        let store_rob = self.sq.rob[sslot];
        let store_pc = self.sq.entry[sslot].pc;
        let addr = self.sq.addr[sslot];
        let size = self.sq.size[sslot];
        self.ss.store_resolved(store_pc);
        // Memory-order violation check: a younger load that already read
        // (or is reading) this location must be squashed and replayed.
        let mut victim: Option<(RobIdx, u64)> = None;
        for pos in 0..self.lq.len() {
            let s = self.lq.phys(pos);
            let rid = self.lq.rob[s];
            if rid <= store_rob {
                continue;
            }
            let performed_or_issued = matches!(
                self.lq.state_at(s),
                LoadState::Performed | LoadState::Issued(_)
            );
            if !performed_or_issued {
                continue;
            }
            if !sa_isa::addr::overlaps(addr, size, self.lq.entry[s].addr, self.lq.entry[s].size) {
                continue;
            }
            // A load correctly forwarded from this store or a younger one
            // is fine; anything else read stale data.
            let ok = self.lq.entry[s].fwd_from.is_some_and(|f| f >= sq);
            if !ok {
                victim = Some((rid, self.lq.entry[s].pc));
                break;
            }
        }
        if let Some((rid, load_pc)) = victim {
            self.ss.train_violation(store_pc, load_pc);
            self.squash_from(rid, SquashCause::MemOrder, None, None, now, tracer);
        }
    }

    /// Runs the load state machine; returns `true` when a port was
    /// consumed (a forward happened or a request was issued).
    fn try_execute_load<M: LoadStorePort, T: Tracer, P: Profiler>(
        &mut self,
        lqi: LqIdx,
        now: Cycle,
        mem: &mut M,
        tracer: &mut T,
    ) -> bool {
        let slot = self.lq.live_slot(lqi).expect("load in LQ");
        let prev_state = self.lq.state_at(slot);
        let attempt_epoch = self.lq.entry[slot].attempt_epoch;
        let id = self.lq.rob[slot];
        let pc = self.lq.entry[slot].pc;
        let addr = self.lq.entry[slot].addr;
        let size = self.lq.entry[slot].size;
        let line = self.lq.line[slot];
        let miss_passed_unresolved = self.lq.entry[slot].miss_passed_unresolved;
        let was_blocked = matches!(prev_state, LoadState::Blocked(_));
        let set_blocked = move |core: &mut Core, reason: BlockReason| {
            if !was_blocked {
                core.blocked_loads += 1;
            }
            // Re-blocking for the same reason leaves the load (and the
            // memory system) untouched — not progress, so a core spinning
            // on such retries can be idled by the event-driven engine.
            if prev_state != LoadState::Blocked(reason) {
                core.progress = true;
            }
            core.lq.set_state_at(slot, LoadState::Blocked(reason));
            core.lq.entry[slot].attempt_epoch = core.lsq_epoch;
        };

        // Fast path: an `MshrFull` retry under an unchanged LSQ epoch
        // would reproduce the same fence/StoreSet/forwarding-search miss,
        // so only the memory issue is re-run. (Under an unchanged reject
        // stamp too, the retry pass books the rejection from the memo and
        // never gets here.)
        if prev_state == LoadState::Blocked(BlockReason::MshrFull)
            && attempt_epoch == self.lsq_epoch
        {
            return match mem.issue_load(line, pc, addr, now) {
                Some(req) => {
                    self.finish_load_issue(lqi, req, miss_passed_unresolved, true, now, tracer);
                    true
                }
                None => {
                    // Same rejection: request id and reject counter
                    // moved again; re-arm the memo at the new stamp.
                    if let Some(e) = mem.reject_epoch() {
                        self.lq.entry[slot].reject_stamp = e;
                    }
                    self.progress = true;
                    false
                }
            };
        }

        // An older fence blocks load issue.
        if self.fences.iter().next().is_some_and(|&f| f < id) {
            set_blocked(self, BlockReason::Fence);
            return false;
        }
        // StoreSet: wait when an older same-set store's address is
        // unresolved.
        if self.cfg.storeset {
            if let Some(set) = self.ss.set_of(pc) {
                let conflict = self.sq.has_unresolved() && {
                    let mut found = false;
                    for p in 0..self.sq.len() {
                        let s = self.sq.phys(p);
                        if self.sq.rob[s] >= id {
                            break;
                        }
                        if !self.sq.addr_resolved_at(s)
                            && self.ss.set_of(self.sq.entry[s].pc) == Some(set)
                        {
                            found = true;
                            break;
                        }
                    }
                    found
                };
                if conflict {
                    set_blocked(self, BlockReason::StoreSet);
                    return false;
                }
            }
        }

        let hit = {
            let _p = P::span("sq_search");
            self.sq.search(id, addr, size)
        };
        match hit {
            SearchHit::Forward {
                store,
                passed_unresolved,
            } => {
                if self.model == ConsistencyModel::Ibm370NoSpec {
                    // Blanket store atomicity: no forwarding from
                    // in-limbo stores; wait for the L1 write.
                    if prev_state != LoadState::Blocked(BlockReason::StoreCommit(store)) {
                        self.stats.nospec_block_events += 1;
                    }
                    set_blocked(self, BlockReason::StoreCommit(store));
                    return false;
                }
                let sslot = self.sq.live_slot(store).expect("matched store");
                let Some(sval) = self.sq.entry[sslot].value else {
                    set_blocked(self, BlockReason::ForwardData(store));
                    return false;
                };
                let value =
                    extract_forwarded(self.sq.addr[sslot], self.sq.size[sslot], sval, addr, size);
                let key = self.sq.key_at(sslot);
                self.progress = true;
                if was_blocked {
                    self.blocked_loads -= 1;
                }
                let pos = self.lq.pos_of(lqi).expect("live load");
                let m_spec = self.lq.any_unperformed_before(pos);
                self.lq.set_state_at(slot, LoadState::Performed);
                self.lq.entry[slot].performed_at = now + 1;
                self.lq.entry[slot].value = value;
                self.lq.entry[slot].fwd_from = Some(store);
                self.lq.set_slf_key_at(slot, key);
                self.lq.entry[slot].d_spec = passed_unresolved;
                self.lq.entry[slot].m_spec = m_spec;
                let rslot = self.rob.live_slot(id).expect("load in ROB");
                self.rob.set_state_at(rslot, RobState::Executing);
                self.rob.entry[rslot].result = value;
                self.completion_q.push(Reverse((now + 1, id)));
                let cid = self.id;
                tracer.emit(|| TraceEvent {
                    cycle: now,
                    core: cid,
                    kind: EventKind::Perform {
                        rob: id.seq,
                        addr,
                        forwarded: true,
                    },
                });
                true
            }
            SearchHit::Partial { store } => {
                // No partial forwarding: wait for the store's L1 write.
                set_blocked(self, BlockReason::StoreCommit(store));
                false
            }
            SearchHit::Miss { passed_unresolved } => match mem.issue_load(line, pc, addr, now) {
                Some(req) => {
                    self.finish_load_issue(lqi, req, passed_unresolved, was_blocked, now, tracer);
                    true
                }
                None => {
                    // A real rejection is progress: the probe ran and the
                    // stamp captured below arms the memo. Later retries
                    // under that stamp are booked without the issue path
                    // (and without progress) by the retry pass.
                    self.progress = true;
                    set_blocked(self, BlockReason::MshrFull);
                    self.lq.entry[slot].miss_passed_unresolved = passed_unresolved;
                    if let Some(e) = mem.reject_epoch() {
                        self.lq.entry[slot].reject_stamp = e;
                    }
                    false
                }
            },
        }
    }

    /// Books an accepted memory issue for the load `lqi`: LQ/stat updates
    /// and the trace event. Shared between the forwarding-search miss
    /// path and the `MshrFull` retry fast path.
    fn finish_load_issue<T: Tracer>(
        &mut self,
        lqi: LqIdx,
        req: MemReqId,
        passed_unresolved: bool,
        was_blocked: bool,
        now: Cycle,
        tracer: &mut T,
    ) {
        self.progress = true;
        if was_blocked {
            self.blocked_loads -= 1;
        }
        self.pending_loads.insert(req, lqi);
        self.stats.loads_to_memory += 1;
        let slot = lqi.slot as usize;
        self.lq.set_state_at(slot, LoadState::Issued(req));
        self.lq.entry[slot].d_spec = passed_unresolved;
        let line = self.lq.line[slot];
        let cid = self.id;
        tracer.emit(|| TraceEvent {
            cycle: now,
            core: cid,
            kind: EventKind::MemReq {
                req: req.0,
                line: line.base(),
                rfo: false,
            },
        });
    }

    /// Books `n` issues the reject memo knows to be MSHR-rejected (see
    /// [`LoadStorePort::note_rejected_issues`]). Not progress: while the
    /// stamp stands, each further cycle books the same count, which the
    /// engine replays for a sleeping core ([`TickResult::rejects`]).
    fn book_memo_rejects<M: LoadStorePort>(&mut self, mem: &mut M, n: u64) {
        mem.note_rejected_issues(n);
        self.memo_rejects += n;
    }

    // ------------------------------------------------------------------
    // Phase 6: dispatch
    // ------------------------------------------------------------------

    fn dispatch<T: Tracer>(&mut self, now: Cycle, tracer: &mut T) {
        let mut dispatched = 0usize;
        let mut stall = None;
        while dispatched < self.cfg.width {
            if self.fetch_blocked_on.is_some() || now < self.fetch_resume {
                break;
            }
            let Some(instr) = self.trace.get(self.fetch_idx) else {
                break;
            };
            if self.rob.is_full() {
                stall = Some(DispatchStall::Rob);
                break;
            }
            if instr.op.is_load() && self.lq.is_full() {
                stall = Some(DispatchStall::Lq);
                break;
            }
            if instr.op.is_store() && self.sq.is_full() {
                stall = Some(DispatchStall::Sq);
                break;
            }
            let instr = instr.clone();
            let mispredicted = self.dispatch_one(&instr, now, tracer);
            self.fetch_idx += 1;
            dispatched += 1;
            if mispredicted {
                break;
            }
        }
        if dispatched == 0 {
            self.idle_dispatch = stall;
            match stall {
                Some(DispatchStall::Rob) => self.stats.rob_stall_cycles += 1,
                Some(DispatchStall::Lq) => self.stats.lq_stall_cycles += 1,
                Some(DispatchStall::Sq) => self.stats.sq_stall_cycles += 1,
                None => {}
            }
        } else {
            self.progress = true;
        }
    }

    /// Allocates one instruction into the window; returns `true` for a
    /// mispredicted branch (fetch must stall behind it).
    fn dispatch_one<T: Tracer>(
        &mut self,
        instr: &sa_isa::Instr,
        now: Cycle,
        tracer: &mut T,
    ) -> bool {
        let pc = instr.pc;
        let mut uop = RobUop {
            trace_idx: self.fetch_idx,
            kind: RobKind::Nop,
            dst: instr.op.dst(),
            deps: [None, None],
            src_regs: [None, None],
            state: RobState::Waiting,
            done_at: 0,
        };
        let mut mispredicted = false;
        match &instr.op {
            Op::Alu {
                unit, srcs, eval, ..
            } => {
                uop.kind = RobKind::Alu {
                    unit: *unit,
                    eval: *eval,
                };
                uop.src_regs = *srcs;
                uop.deps = [
                    srcs[0].and_then(|r| self.reg_producer[r.index()]),
                    srcs[1].and_then(|r| self.reg_producer[r.index()]),
                ];
            }
            Op::Load { addr_src, .. } => {
                // LQ allocation happens after push (needs the ROB
                // handle); the kind's LQ handle is patched then.
                uop.kind = RobKind::Load {
                    lq: LqIdx {
                        seq: u64::MAX,
                        slot: 0,
                    },
                };
                uop.src_regs = [*addr_src, None];
                uop.deps = [addr_src.and_then(|r| self.reg_producer[r.index()]), None];
            }
            Op::Store { src, addr_src, .. } => {
                let data_reg = match src {
                    StoreOperand::Reg(r) => Some(*r),
                    StoreOperand::Imm(_) => None,
                };
                uop.src_regs = [data_reg, *addr_src];
                uop.deps = [
                    data_reg.and_then(|r| self.reg_producer[r.index()]),
                    addr_src.and_then(|r| self.reg_producer[r.index()]),
                ];
                // SQ handle assigned below once the ROB handle exists.
                uop.kind = RobKind::Store {
                    sq: SqIdx {
                        seq: u64::MAX,
                        slot: 0,
                    },
                };
            }
            Op::Branch { taken, src } => {
                let correct = self.bp.update(pc.0, *taken);
                if !correct {
                    self.stats.branch_mispredicts += 1;
                    mispredicted = true;
                }
                uop.kind = RobKind::Branch {
                    taken: *taken,
                    mispredicted: !correct,
                };
                uop.src_regs = [*src, None];
                uop.deps = [src.and_then(|r| self.reg_producer[r.index()]), None];
            }
            Op::Fence => {
                uop.kind = RobKind::Fence;
                uop.state = RobState::Done;
                uop.done_at = now;
            }
            Op::Nop => {
                uop.state = RobState::Done;
                uop.done_at = now;
            }
        }

        let id = self.rob.push(uop);
        let cid = self.id;
        let trace_idx = self.fetch_idx;
        tracer.emit(|| {
            let uop = match &instr.op {
                Op::Load { .. } => UopKind::Load,
                Op::Store { .. } => UopKind::Store,
                Op::Branch { .. } => UopKind::Branch,
                Op::Alu { .. } => UopKind::Alu,
                Op::Fence => UopKind::Fence,
                Op::Nop => UopKind::Nop,
            };
            TraceEvent {
                cycle: now,
                core: cid,
                kind: EventKind::Dispatch {
                    rob: id.seq,
                    trace_idx,
                    pc: pc.0,
                    uop,
                },
            }
        });

        let rslot = id.slot as usize;
        match &instr.op {
            Op::Load {
                dst, addr, size, ..
            } => {
                let lqi = self.lq.alloc(id, pc.0, *addr, *size);
                self.rob.entry[rslot].kind = RobKind::Load { lq: lqi };
                let _ = dst;
            }
            Op::Store {
                src,
                addr,
                size,
                addr_src,
            } => {
                let value = match src {
                    StoreOperand::Imm(v) => Some(*v),
                    StoreOperand::Reg(_) => None,
                };
                let addr_resolved = addr_src.is_none();
                let sqi = self.sq.alloc(id, pc.0, *addr, *size, addr_resolved, value);
                self.rfo_owned[sqi.slot as usize] = false;
                self.sq_unowned_stamp[sqi.slot as usize] = u64::MAX;
                self.sq_own_reject_stamp[sqi.slot as usize] = u64::MAX;
                self.sq_dirty = true;
                self.rob.entry[rslot].kind = RobKind::Store { sq: sqi };
                if addr_resolved && value.is_some() {
                    self.rob.set_state_at(rslot, RobState::Done);
                    self.rob.entry[rslot].done_at = now;
                }
            }
            Op::Fence => {
                self.fences.insert(id);
            }
            _ => {}
        }

        // Seed the scheduler's wake state: a `Waiting` entry is marked
        // ready iff a visit could make progress right now (mirroring the
        // per-kind issue conditions exactly); otherwise each unsatisfied
        // operand arms a completion wake on its producer, which re-raises
        // the ready bit. Satisfied deps stay satisfied (producers only
        // retire after `Done`), so a non-ready entry always has at least
        // one armed wake and can never be stranded.
        if self.rob.state[rslot] == RobState::Waiting {
            let rd = self.deps_ready(rslot);
            let deps = self.rob.entry[rslot].deps;
            let (ready, arm0, arm1) = match self.rob.entry[rslot].kind {
                RobKind::Alu { .. } => (rd[0] && rd[1], !rd[0], !rd[1]),
                RobKind::Branch { .. } | RobKind::Load { .. } => (rd[0], !rd[0], false),
                RobKind::Store { sq } => {
                    let ss = self.sq.live_slot(sq).expect("store just allocated");
                    let can = (rd[1] && !self.sq.addr_resolved_at(ss))
                        || (rd[0] && self.sq.entry[ss].value.is_none());
                    (can, !rd[0], !rd[1])
                }
                RobKind::Fence | RobKind::Nop => (false, false, false),
            };
            if ready {
                self.rob.mark_ready(rslot);
            }
            if arm0 {
                if let Some(d) = deps[0] {
                    self.rob.arm_wake(d, rslot);
                }
            }
            if arm1 {
                if let Some(d) = deps[1] {
                    self.rob.arm_wake(d, rslot);
                }
            }
        }

        if let Some(dst) = instr.op.dst() {
            self.reg_producer[dst.index()] = Some(id);
        }
        if mispredicted {
            self.fetch_blocked_on = Some(id);
        }
        mispredicted
    }

    // ------------------------------------------------------------------
    // Squash & replay
    // ------------------------------------------------------------------

    fn squash_from<T: Tracer>(
        &mut self,
        from: RobIdx,
        cause: SquashCause,
        by: Option<CoreId>,
        line: Option<Line>,
        now: Cycle,
        tracer: &mut T,
    ) {
        if !self.rob.contains(from) {
            return;
        }
        let replay_trace_idx = self.rob.entry[from.slot as usize].trace_idx;
        let n_removed = self.rob.squash_from(from);
        debug_assert!(n_removed > 0);
        self.sched_start = self.sched_start.min(self.rob.len());
        self.lsq_epoch += 1;
        self.sq_dirty = true;
        self.progress = true;
        self.stats.record_squash(cause, n_removed);
        let cid = self.id;
        tracer.emit(|| TraceEvent {
            cycle: now,
            core: cid,
            kind: EventKind::Squash {
                from_rob: from.seq,
                uops: n_removed,
                cause: tcause(cause),
                by: by.map(|c| c.0),
                line: line.map(|l| l.base()),
            },
        });
        self.fetch_idx = replay_trace_idx;
        self.fetch_resume = now + self.cfg.squash_penalty;
        self.resume_was_squash = true;
        if self.fetch_blocked_on.is_some_and(|b| b >= from) {
            self.fetch_blocked_on = None;
        }
        if self.gate_stall_cur.is_some_and(|g| g >= from) {
            self.gate_stall_cur = None;
        }
        // Live fences at or past the squash point are exactly the ones
        // being removed (the set holds only live fences, age-ordered).
        let _removed_fences = self.fences.split_off(&from);
        // Release in-flight bookkeeping of the LQ suffix, then drop it.
        let lcut = self.lq.cut_pos(from);
        for pos in lcut..self.lq.len() {
            let s = self.lq.phys(pos);
            match self.lq.state_at(s) {
                LoadState::Issued(req) => {
                    self.pending_loads.remove(&req);
                }
                LoadState::Blocked(_) => {
                    self.blocked_loads -= 1;
                }
                _ => {}
            }
        }
        self.lq.truncate(lcut);
        // Same for the SQ suffix (rewinds the circular tail pointer).
        let scut = self.sq.cut_pos(from);
        for pos in scut..self.sq.len() {
            let s = self.sq.phys(pos);
            if let Some(req) = self.sq.entry[s].own_req {
                self.pending_owns.remove(&req);
            }
        }
        self.sq.truncate(scut);
        // Rebuild the register rename map from the surviving window.
        self.reg_producer = [None; NUM_REGS];
        for pos in 0..self.rob.len() {
            let s = self.rob.phys(pos);
            if let Some(dst) = self.rob.entry[s].dst {
                self.reg_producer[dst.index()] = Some(RobIdx {
                    seq: self.rob.seq[s],
                    slot: s as u32,
                });
            }
        }
    }

    /// Test/diagnostic hook: the retire gate state.
    pub fn gate(&self) -> &RetireGate {
        &self.gate
    }

    /// Test/diagnostic hook: occupancy of the three window resources.
    pub fn occupancy(&self) -> (usize, usize, usize) {
        (self.rob.len(), self.lq.len(), self.sq.len())
    }
}
