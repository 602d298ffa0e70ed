//! The assembled memory system: private controllers, directory banks, the
//! network, and the event queue behind one core-facing facade.

use sa_isa::{Addr, CoreId, Cycle, Line};
use sa_profile::{NullProfiler, Profiler};
use sa_trace::{EventKind, TraceEvent, TraceNode, Tracer};

use crate::config::MemConfig;
use crate::dir::DirBank;
use crate::event::EventQueue;
use crate::msg::{Msg, NodeId};
use crate::network::{Network, Topology};
use crate::private::PrivateCtrl;
use crate::stats::MemStats;

/// Identifies an outstanding load or ownership request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemReqId(pub u64);

impl MemReqId {
    /// Engine-independent id: the issuing core in the high bits, that
    /// core's issue ordinal in the low 40. Every engine (lockstep,
    /// event-driven, parallel shards) assigns the same id to the same
    /// architectural request.
    pub fn new(core: CoreId, seq: u64) -> MemReqId {
        debug_assert!(seq < 1 << 40, "per-core request ordinal overflow");
        MemReqId(((core.index() as u64) << 40) | seq)
    }
}

/// What the memory system tells a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoticeKind {
    /// A demand load completed (the load *performs* now).
    LoadDone {
        /// The request this completes.
        id: MemReqId,
    },
    /// An ownership (RFO/upgrade) request completed; the line is writable.
    OwnershipDone {
        /// The request this completes.
        id: MemReqId,
    },
    /// A remote store invalidated `line`; the load queue must snoop this.
    Invalidated {
        /// The invalidated line.
        line: Line,
        /// The core whose ownership request caused the invalidation
        /// (squash-blame provenance for forensics).
        by: CoreId,
    },
    /// `line` left the private hierarchy for capacity reasons. The paper
    /// treats evictions like invalidations for speculative loads because
    /// an eviction would filter out a future invalidation.
    Evicted {
        /// The evicted line.
        line: Line,
    },
    /// A remote read downgraded `line` from exclusive to shared; the core
    /// keeps the data but loses write permission. Loads are unaffected —
    /// the notice exists so a sleeping core learns that a store which
    /// previously held ownership must re-request it.
    Downgraded {
        /// The downgraded line.
        line: Line,
    },
}

/// A timestamped [`NoticeKind`] delivered to a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notice {
    /// Cycle at which the notice takes effect.
    pub at: Cycle,
    /// The payload.
    pub kind: NoticeKind,
}

/// An action emitted by a controller, applied by the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Inject `msg` into the network at cycle `at`.
    Send {
        /// Sending node (network channel source).
        from: NodeId,
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: Msg,
        /// Injection cycle (may be later than "now" to model lookup
        /// latency before the miss is discovered).
        at: Cycle,
    },
    /// Deliver a notice to `core` at cycle `at`.
    Notice {
        /// Destination core.
        core: CoreId,
        /// Delivery cycle.
        at: Cycle,
        /// The payload.
        kind: NoticeKind,
    },
}

#[derive(Debug)]
enum Ev {
    Deliver { from: NodeId, to: NodeId, msg: Msg },
    Notice { core: CoreId, kind: NoticeKind },
}

/// A protocol message crossing a shard boundary: the delivery the
/// sending shard computed (its network owns the source-side channel)
/// plus the canonical `(origin, seq)` key it would have carried in the
/// serial engine. The receiving shard enqueues it with
/// [`MemorySystem::inject_remote`], which restores exactly the key the
/// serial queue would have used — cross-shard routing is therefore
/// invisible to the event order.
#[derive(Debug, Clone, Copy)]
pub struct RemoteEvent {
    /// Delivery cycle (network transit already accounted).
    pub deliver: Cycle,
    /// Linear index of the emitting node.
    pub origin: u32,
    /// Emission counter of the sending shard.
    pub seq: u64,
    /// Sending node.
    pub from: NodeId,
    /// Destination node (owned by the receiving shard).
    pub to: NodeId,
    /// The message.
    pub msg: Msg,
}

/// Which shard owns core `i` when `n_cores` cores are split across
/// `shards` workers: contiguous blocks, remainder spread evenly. A pure
/// function of its arguments so every shard (and the merge step) agrees
/// without communication.
pub fn core_shard(i: usize, n_cores: usize, shards: usize) -> usize {
    debug_assert!(i < n_cores && shards > 0);
    i * shards / n_cores
}

/// Which shard owns directory bank `b`.
///
/// On the fully-connected fabric every placement is equidistant, so
/// banks split into the same contiguous blocks as [`core_shard`]. On a
/// mesh each bank goes to the shard of its nearest core (lowest core
/// index on ties): the endpoints of a bank's tightest channels then
/// share its shard, which stretches the shortest *cross*-shard channel
/// — and with it the epoch length the parallel engine may use, see
/// [`shard_lookahead`] — as far as the placement allows. A pure
/// function of its arguments so every shard (and the merge step)
/// agrees without communication.
pub fn bank_shard(b: usize, cfg: &MemConfig, shards: usize) -> usize {
    debug_assert!(b < cfg.l3_banks && shards > 0);
    match cfg.topology {
        Topology::FullyConnected => b * shards / cfg.l3_banks,
        Topology::Mesh2D { .. } => {
            let bank = NodeId::Bank(b as u16);
            let nearest = (0..cfg.n_cores)
                .min_by_key(|&c| {
                    cfg.topology
                        .hops(NodeId::Core(CoreId::from_index(c)), bank, cfg.n_cores)
                })
                .expect("a validated config has at least one core");
            core_shard(nearest, cfg.n_cores, shards)
        }
    }
}

/// The conservative lookahead for a `shards`-way parallel run: the
/// minimum virtual-time delivery delay of any cross-shard message.
///
/// Every protocol message travels core → home bank or bank → core
/// (cores never message cores, banks never message banks), so the exact
/// bound is the minimum over cross-shard (core, bank) pairs of
/// `min_flits + hops × hop_latency`. [`Network::send`] can only add to
/// that — channel backpressure and sender-side latency both push the
/// delivery later — so an event emitted during one epoch of this length
/// is never due before the next. On the fully-connected fabric this
/// equals `hop_latency + min_flits` (every pair is one hop); on a mesh
/// with the core-affine bank placement of [`bank_shard`] it is several
/// hops more, and the epochs grow accordingly.
pub fn shard_lookahead(cfg: &MemConfig, shards: usize) -> u64 {
    let min_flits = cfg.ctrl_flits.min(cfg.data_flits);
    let mut min = u64::MAX;
    for b in 0..cfg.l3_banks {
        let owner = bank_shard(b, cfg, shards);
        let bank = NodeId::Bank(b as u16);
        for c in 0..cfg.n_cores {
            if core_shard(c, cfg.n_cores, shards) == owner {
                continue;
            }
            let hops = cfg
                .topology
                .hops(NodeId::Core(CoreId::from_index(c)), bank, cfg.n_cores);
            min = min.min(min_flits + hops * cfg.hop_latency);
        }
    }
    if min == u64::MAX {
        // No cross-shard channels (e.g. a single shard): any epoch
        // length is safe; return the one-hop floor.
        cfg.hop_latency + min_flits
    } else {
        min
    }
}

/// The `sa-trace` mirror of a network node.
fn tnode(n: NodeId) -> TraceNode {
    match n {
        NodeId::Core(c) => TraceNode::Core(c.0),
        NodeId::Bank(b) => TraceNode::Bank(b),
    }
}

/// The core-side endpoint a coherence event is stamped with.
fn core_endpoint(from: NodeId, to: NodeId) -> CoreId {
    match (from, to) {
        (_, NodeId::Core(c)) | (NodeId::Core(c), _) => c,
        _ => CoreId(0),
    }
}

/// Stable protocol-level label of a message, for trace viewers.
fn msg_label(msg: &Msg) -> &'static str {
    match msg {
        Msg::GetS { .. } => "GetS",
        Msg::GetM { .. } => "GetM",
        Msg::PutM { .. } => "PutM",
        Msg::DataS { .. } => "DataS",
        Msg::DataE { .. } => "DataE",
        Msg::GrantM { .. } => "GrantM",
        Msg::PutMAck { .. } => "PutMAck",
        Msg::Inv { .. } => "Inv",
        Msg::FetchS { .. } => "FetchS",
        Msg::FetchInv { .. } => "FetchInv",
        Msg::InvAck { .. } => "InvAck",
        Msg::AckData { .. } => "AckData",
    }
}

/// The full memory system below the cores.
///
/// Drive it with [`MemorySystem::advance`] once per core cycle, then drain
/// each core's notices with [`MemorySystem::drain_notices`].
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MemConfig,
    q: EventQueue<Ev>,
    net: Network,
    /// One slot per core; `None` for cores another shard owns. The
    /// serial engine owns every slot.
    ctrls: Vec<Option<PrivateCtrl>>,
    /// One slot per bank; `None` for banks another shard owns.
    banks: Vec<Option<DirBank>>,
    notices: Vec<Vec<Notice>>,
    /// Events emitted locally but destined for a node another shard
    /// owns; drained at epoch barriers. Always empty in the serial
    /// engine.
    outbox: Vec<RemoteEvent>,
    /// Per-core request-id sequence counters. Ids are a pure function
    /// of (core, per-core issue count) — see [`MemorySystem::fresh_req`]
    /// — so a sharded build numbers requests identically to the serial
    /// engine regardless of cross-shard interleaving.
    next_req: Vec<u64>,
    /// Per-core version stamps over controller state: bumped whenever a
    /// core's private controller is mutated in a way that could change
    /// the outcome of a subsequent issue attempt (accepted issues,
    /// protocol message delivery, commit writes). A rejected issue does
    /// NOT bump its core's stamp — its only side effects (request id,
    /// reject counter) cannot flip a later attempt's outcome — which is
    /// exactly what lets the core memoize `MshrFull` rejections, and the
    /// engine sleep a core whose ticks only book them until the stamp
    /// moves. Only [`advance`](Self::advance) (a delivery to the core's
    /// controller) and the core's own accepted issues and commits bump
    /// it, so no other core's tick can.
    reject_epochs: Vec<u64>,
}

impl MemorySystem {
    /// Builds the memory system described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`MemConfig::validate`].
    pub fn new(cfg: MemConfig) -> MemorySystem {
        Self::build(cfg, None)
    }

    /// Builds shard `shard` of `n_shards`: the controllers of cores in
    /// [`core_shard`]'s block and the directory banks in
    /// [`bank_shard`]'s block, with every other slot `None`. Events
    /// emitted here for a remote node land in the
    /// [outbox](Self::take_outbox) instead of the local queue.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`MemConfig::validate`] or `n_shards == 0`.
    pub fn new_shard(cfg: MemConfig, shard: usize, n_shards: usize) -> MemorySystem {
        assert!(n_shards > 0 && shard < n_shards, "bad shard index");
        Self::build(cfg, Some((shard, n_shards)))
    }

    fn build(cfg: MemConfig, shard: Option<(usize, usize)>) -> MemorySystem {
        cfg.validate();
        let owns_core = |i: usize| shard.is_none_or(|(s, n)| core_shard(i, cfg.n_cores, n) == s);
        let owns_bank = |b: usize| shard.is_none_or(|(s, n)| bank_shard(b, &cfg, n) == s);
        let ctrls = (0..cfg.n_cores)
            .map(|i| owns_core(i).then(|| PrivateCtrl::new(CoreId::from_index(i), &cfg)))
            .collect();
        let banks = (0..cfg.l3_banks)
            .map(|i| {
                owns_bank(i).then(|| {
                    DirBank::new(
                        i as u16,
                        cfg.l3_bytes_per_bank,
                        cfg.l3_assoc,
                        cfg.l3_latency,
                        cfg.mem_latency,
                    )
                })
            })
            .collect();
        MemorySystem {
            net: Network::with_topology(
                cfg.hop_latency,
                cfg.data_flits,
                cfg.ctrl_flits,
                cfg.topology,
                cfg.n_cores,
            ),
            q: EventQueue::new(),
            ctrls,
            banks,
            notices: vec![Vec::new(); cfg.n_cores],
            outbox: Vec::new(),
            next_req: vec![0; cfg.n_cores],
            reject_epochs: vec![0; cfg.n_cores],
            cfg,
        }
    }

    /// `true` when this instance hosts `node`'s controller.
    pub fn owns(&self, node: NodeId) -> bool {
        match node {
            NodeId::Core(c) => self.ctrls[c.index()].is_some(),
            NodeId::Bank(b) => self.banks[b as usize].is_some(),
        }
    }

    /// Canonical linear index of a node (cores first, then banks) — the
    /// `origin` every event emitted by that node is stamped with.
    fn origin_of(&self, node: NodeId) -> u32 {
        match node {
            NodeId::Core(c) => c.index() as u32,
            NodeId::Bank(b) => (self.cfg.n_cores + b as usize) as u32,
        }
    }

    fn ctrl(&self, core: CoreId) -> &PrivateCtrl {
        self.ctrls[core.index()]
            .as_ref()
            .expect("core owned by this shard")
    }

    fn ctrl_mut(&mut self, core: CoreId) -> &mut PrivateCtrl {
        self.ctrls[core.index()]
            .as_mut()
            .expect("core owned by this shard")
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// L1 hit latency, for the core's store-commit fast path.
    pub fn l1_latency(&self) -> u64 {
        self.cfg.l1_latency
    }

    fn fresh_req(&mut self, core: CoreId) -> MemReqId {
        let seq = &mut self.next_req[core.index()];
        let id = MemReqId::new(core, *seq);
        *seq += 1;
        id
    }

    /// Issues a demand load for `core`. Returns `None` when the
    /// controller's MSHRs are exhausted; the core retries, and while its
    /// [`reject_epoch`](Self::reject_epoch) stands it books each retry
    /// with [`note_rejected_issues`](Self::note_rejected_issues) instead.
    pub fn issue_load(
        &mut self,
        core: CoreId,
        line: Line,
        pc: u64,
        addr: Addr,
        now: Cycle,
    ) -> Option<MemReqId> {
        let id = self.fresh_req(core);
        let actions = self.ctrl_mut(core).load(id, line, pc, addr, now)?;
        self.reject_epochs[core.index()] += 1;
        self.apply(actions);
        Some(id)
    }

    /// This core's [reject-memo](Self::issue_load) version stamp.
    pub fn reject_epoch(&self, core: CoreId) -> u64 {
        self.reject_epochs[core.index()]
    }

    /// Applies the side effects of `n` load or ownership issues known
    /// (via an unchanged [`reject_epoch`](Self::reject_epoch)) to be
    /// MSHR-rejected: the request ids and the controller's reject
    /// counter advance exactly as in `n` real rejected
    /// [`issue_load`](Self::issue_load)s or
    /// [`issue_ownership`](Self::issue_ownership)s — the two reject
    /// paths have identical side effects — without the cache and MSHR
    /// probes.
    pub fn note_rejected_issues(&mut self, core: CoreId, n: u64) {
        self.next_req[core.index()] += n;
        self.ctrl_mut(core).note_mshr_rejects(n);
    }

    /// Issues an ownership request (store RFO/upgrade) for `core`.
    /// Returns `None` when the controller's MSHRs are exhausted.
    pub fn issue_ownership(&mut self, core: CoreId, line: Line, now: Cycle) -> Option<MemReqId> {
        let id = self.fresh_req(core);
        let actions = self.ctrl_mut(core).ownership(id, line, now)?;
        self.reject_epochs[core.index()] += 1;
        self.apply(actions);
        Some(id)
    }

    /// `true` when `core`'s private hierarchy owns `line` (M/E).
    pub fn has_ownership(&self, core: CoreId, line: Line) -> bool {
        self.ctrl(core).has_ownership(line)
    }

    /// Records the store-commit L1 write into an owned line.
    pub fn mark_dirty(&mut self, core: CoreId, line: Line) {
        self.reject_epochs[core.index()] += 1;
        self.ctrl_mut(core).mark_dirty(line);
    }

    fn apply(&mut self, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::Send { from, to, msg, at } => {
                    // The source node is local, so its source-side
                    // channel state is local too: delivery time is exact
                    // even when the destination lives on another shard.
                    let deliver = self.net.send(from, to, at, msg.carries_data());
                    let origin = self.origin_of(from);
                    if self.owns(to) {
                        self.q
                            .schedule_from(deliver, origin, Ev::Deliver { from, to, msg });
                    } else {
                        let seq = self.q.alloc_seq();
                        self.outbox.push(RemoteEvent {
                            deliver,
                            origin,
                            seq,
                            from,
                            to,
                            msg,
                        });
                    }
                }
                Action::Notice { core, at, kind } => {
                    // Notices are emitted by a core's own controller for
                    // that same core, so they never cross shards.
                    let origin = self.origin_of(NodeId::Core(core));
                    self.q.schedule_from(at, origin, Ev::Notice { core, kind });
                }
            }
        }
    }

    /// Drains the events emitted here for nodes other shards own.
    pub fn take_outbox(&mut self) -> Vec<RemoteEvent> {
        std::mem::take(&mut self.outbox)
    }

    /// Enqueues an event another shard emitted for a node this shard
    /// owns, under its original canonical key.
    pub fn inject_remote(&mut self, ev: RemoteEvent) {
        debug_assert!(self.owns(ev.to), "injected event for unowned node");
        self.q.inject(
            ev.deliver,
            ev.origin,
            ev.seq,
            Ev::Deliver {
                from: ev.from,
                to: ev.to,
                msg: ev.msg,
            },
        );
    }

    /// Processes all protocol events up to and including cycle `to`,
    /// accumulating notices for the cores and emitting one
    /// [`EventKind::CohMsg`] per delivered protocol message (stamped with
    /// the core-side endpoint). This is the single run API: with
    /// [`&mut NullTracer`](sa_trace::NullTracer) every emission site monomorphizes
    /// to dead code, leaving exactly the untraced event pump.
    pub fn advance<T: Tracer>(&mut self, to: Cycle, tracer: &mut T) {
        self.advance_profiled::<T, NullProfiler>(to, tracer);
    }

    /// [`MemorySystem::advance`] with host-side profiling: message
    /// handling is split by destination into `directory` (shared bank +
    /// network send) and `private` (per-core L1 controller) spans so an
    /// enabled [`Profiler`] attributes the protocol pump's wall time.
    /// With the default [`NullProfiler`] every span compiles away and
    /// this *is* `advance`.
    pub fn advance_profiled<T: Tracer, P: Profiler>(&mut self, to: Cycle, tracer: &mut T) {
        while let Some((cycle, origin, seq, ev)) = self.q.pop_until_keyed(to) {
            match ev {
                Ev::Deliver {
                    from,
                    to: node,
                    msg,
                } => {
                    tracer.emit_keyed((origin, seq), || TraceEvent {
                        cycle,
                        core: core_endpoint(from, node),
                        kind: EventKind::CohMsg {
                            from: tnode(from),
                            to: tnode(node),
                            line: msg.line().base(),
                            msg: msg_label(&msg),
                        },
                    });
                    let actions = match node {
                        NodeId::Bank(b) => {
                            let _p = P::span("directory");
                            self.banks[b as usize]
                                .as_mut()
                                .expect("bank owned by this shard")
                                .handle(msg, cycle)
                        }
                        NodeId::Core(c) => {
                            let _p = P::span("private");
                            self.reject_epochs[c.index()] += 1;
                            self.ctrl_mut(c).handle(msg, cycle)
                        }
                    };
                    self.apply(actions);
                }
                Ev::Notice { core, kind } => {
                    self.notices[core.index()].push(Notice { at: cycle, kind });
                }
            }
        }
    }

    /// Takes the notices accumulated for `core` since the last drain.
    pub fn drain_notices(&mut self, core: CoreId) -> Vec<Notice> {
        std::mem::take(&mut self.notices[core.index()])
    }

    /// `true` when notices are pending for `core` — the cheap probe the
    /// engine uses before committing to a buffer swap (or a tick at all).
    pub fn has_notices(&self, core: CoreId) -> bool {
        !self.notices[core.index()].is_empty()
    }

    /// Moves `core`'s pending notices into `buf` (cleared first) without
    /// allocating: the buffers swap, so a caller reusing one scratch
    /// vector keeps both sides' capacities warm across cycles.
    pub fn take_notices_into(&mut self, core: CoreId, buf: &mut Vec<Notice>) {
        buf.clear();
        std::mem::swap(&mut self.notices[core.index()], buf);
    }

    /// `true` when no protocol events are pending anywhere — including
    /// events parked in a shard's outbox awaiting a barrier exchange.
    pub fn quiescent(&self) -> bool {
        self.q.is_empty() && self.outbox.is_empty()
    }

    /// Outstanding misses (allocated MSHRs) at one core's private
    /// controller, at this instant.
    pub fn outstanding_misses_at(&self, core: CoreId) -> usize {
        self.ctrl(core).mshrs_in_use()
    }

    /// Outstanding misses (allocated MSHRs) across the private
    /// controllers this instance owns — the interval sampler's
    /// memory-pressure probe; on a shard this is the additive partial.
    pub fn outstanding_misses(&self) -> usize {
        self.ctrls.iter().flatten().map(|c| c.mshrs_in_use()).sum()
    }

    /// Cycle of the next pending protocol event, if any.
    pub fn next_event_cycle(&self) -> Option<Cycle> {
        self.q.next_cycle()
    }

    /// Aggregated statistics snapshot. On a shard, slots for nodes other
    /// shards own are zeroed; network counters cover locally-injected
    /// traffic only. [`MemStats` merging](Self::merge_stats) rebuilds
    /// the global snapshot from the per-shard partials.
    pub fn stats(&self) -> MemStats {
        MemStats {
            per_core: self
                .ctrls
                .iter()
                .map(|c| c.as_ref().map(|c| c.stats).unwrap_or_default())
                .collect(),
            per_bank: self
                .banks
                .iter()
                .map(|b| b.as_ref().map(|b| b.stats).unwrap_or_default())
                .collect(),
            flits_sent: self.net.flits_sent(),
            msgs_sent: self.net.msgs_sent(),
        }
    }

    /// The scalescope NoC snapshot: link matrix and latency histogram
    /// from the network, occupancy/reject counters and storm records
    /// from the directory banks this instance owns. On a shard this is
    /// a partial exactly like [`Self::stats`]; partials combine with
    /// [`crate::NocStats::merge`] into the snapshot the serial engine
    /// would have produced (links and banks are shard-disjoint and the
    /// storm ranking order is total).
    pub fn noc_stats(&self) -> crate::NocStats {
        let mut storms = Vec::new();
        let mut storms_dropped = 0;
        let banks = self
            .banks
            .iter()
            .map(|b| match b {
                Some(b) => {
                    let (s, d) = b.scope.storm_snapshot();
                    storms.extend(s);
                    storms_dropped += d;
                    b.scope.counters()
                }
                None => crate::BankNoc::default(),
            })
            .collect();
        let mut out = crate::NocStats {
            n_cores: self.cfg.n_cores,
            links: self.net.links(),
            latency: self.net.latency_hist().clone(),
            banks,
            storms,
            storms_dropped,
        };
        out.rank_storms();
        out
    }

    /// Assembles the global statistics snapshot from per-shard partials
    /// (in shard order): every node slot is taken from the shard that
    /// owns it — `cfg` pins the same ownership map the shards were built
    /// with — network counters sum. With one shard this is the identity.
    pub fn merge_stats(cfg: &MemConfig, partials: &[MemStats]) -> MemStats {
        let shards = partials.len();
        assert!(shards > 0, "need at least one partial");
        let n_cores = partials[0].per_core.len();
        let n_banks = partials[0].per_bank.len();
        MemStats {
            per_core: (0..n_cores)
                .map(|i| partials[core_shard(i, n_cores, shards)].per_core[i])
                .collect(),
            per_bank: (0..n_banks)
                .map(|b| partials[bank_shard(b, cfg, shards)].per_bank[b])
                .collect(),
            flits_sent: partials.iter().map(|p| p.flits_sent).sum(),
            msgs_sent: partials.iter().map(|p| p.msgs_sent).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_trace::NullTracer;

    fn sys(n: usize) -> MemorySystem {
        MemorySystem::new(MemConfig {
            prefetch: false,
            ..MemConfig::with_cores(n)
        })
    }

    fn line(i: u64) -> Line {
        Line::from_raw(i)
    }

    fn run_until_load_done(
        m: &mut MemorySystem,
        core: CoreId,
        id: MemReqId,
        limit: Cycle,
    ) -> Cycle {
        for t in 0..limit {
            m.advance(t, &mut NullTracer);
            for n in m.drain_notices(core) {
                if n.kind == (NoticeKind::LoadDone { id }) {
                    return n.at;
                }
            }
        }
        panic!("load never completed");
    }

    fn run_until_own_done(m: &mut MemorySystem, core: CoreId, id: MemReqId, limit: Cycle) -> Cycle {
        for t in 0..limit {
            m.advance(t, &mut NullTracer);
            for n in m.drain_notices(core) {
                if n.kind == (NoticeKind::OwnershipDone { id }) {
                    return n.at;
                }
            }
        }
        panic!("ownership never completed");
    }

    #[test]
    fn cold_load_latency_includes_memory() {
        let mut m = sys(2);
        let id = m.issue_load(CoreId(0), line(1), 0, 64, 0).unwrap();
        let done = run_until_load_done(&mut m, CoreId(0), id, 2000);
        // l2 lookup 12 + net 7 + l3 35 + mem 160 + net 11 = 225
        assert_eq!(done, 225);
    }

    #[test]
    fn warm_load_is_l1_hit() {
        let mut m = sys(2);
        let id = m.issue_load(CoreId(0), line(1), 0, 64, 0).unwrap();
        let t0 = run_until_load_done(&mut m, CoreId(0), id, 2000);
        let id2 = m.issue_load(CoreId(0), line(1), 0, 64, t0 + 1).unwrap();
        let t1 = run_until_load_done(&mut m, CoreId(0), id2, t0 + 100);
        assert_eq!(t1, t0 + 1 + 4, "L1 hit at +4");
    }

    #[test]
    fn remote_store_invalidates_sharer() {
        let mut m = sys(2);
        // Core 0 reads the line.
        let id = m.issue_load(CoreId(0), line(1), 0, 64, 0).unwrap();
        let t0 = run_until_load_done(&mut m, CoreId(0), id, 2000);
        // Core 1 wants ownership: core 0 must observe an invalidation
        // strictly before the grant (write atomicity).
        let own = m.issue_ownership(CoreId(1), line(1), t0 + 1).unwrap();
        let granted = run_until_own_done(&mut m, CoreId(1), own, t0 + 2000);
        m.advance(granted + 200, &mut NullTracer);
        let inv_notices: Vec<Notice> = m
            .drain_notices(CoreId(0))
            .into_iter()
            .filter(|n| matches!(n.kind, NoticeKind::Invalidated { .. }))
            .collect();
        // Core0 got E then was FetchInv'd (owner), so it sees exactly one
        // invalidation, before the grant.
        assert_eq!(inv_notices.len(), 1);
        assert!(inv_notices[0].at < granted, "invalidation precedes grant");
        assert!(m.has_ownership(CoreId(1), line(1)));
        assert!(!m.has_ownership(CoreId(0), line(1)));
    }

    #[test]
    fn two_sharers_both_invalidated_before_grant() {
        let mut m = sys(4);
        let a = m.issue_load(CoreId(0), line(9), 0, 9 * 64, 0).unwrap();
        let t0 = run_until_load_done(&mut m, CoreId(0), a, 2000);
        let b = m.issue_load(CoreId(1), line(9), 0, 9 * 64, t0 + 1).unwrap();
        let t1 = run_until_load_done(&mut m, CoreId(1), b, t0 + 2000);
        // Third core stores.
        let own = m.issue_ownership(CoreId(2), line(9), t1 + 1).unwrap();
        let granted = run_until_own_done(&mut m, CoreId(2), own, t1 + 2000);
        m.advance(granted + 100, &mut NullTracer);
        for c in [CoreId(0), CoreId(1)] {
            let invs: Vec<Notice> = m
                .drain_notices(c)
                .into_iter()
                .filter(|n| matches!(n.kind, NoticeKind::Invalidated { .. }))
                .collect();
            assert_eq!(invs.len(), 1, "{c} must be invalidated exactly once");
            assert!(invs[0].at <= granted);
        }
    }

    #[test]
    fn store_commit_fast_path() {
        let mut m = sys(2);
        let own = m.issue_ownership(CoreId(0), line(3), 0).unwrap();
        let granted = run_until_own_done(&mut m, CoreId(0), own, 2000);
        assert!(m.has_ownership(CoreId(0), line(3)));
        m.mark_dirty(CoreId(0), line(3));
        // A second ownership request on the same line is the fast path.
        let own2 = m.issue_ownership(CoreId(0), line(3), granted + 1).unwrap();
        let t = run_until_own_done(&mut m, CoreId(0), own2, granted + 50);
        assert_eq!(t, granted + 2);
    }

    #[test]
    fn read_after_remote_dirty_write_downgrades() {
        let mut m = sys(2);
        let own = m.issue_ownership(CoreId(0), line(3), 0).unwrap();
        let granted = run_until_own_done(&mut m, CoreId(0), own, 2000);
        m.mark_dirty(CoreId(0), line(3));
        let id = m
            .issue_load(CoreId(1), line(3), 0, 3 * 64, granted + 1)
            .unwrap();
        let done = run_until_load_done(&mut m, CoreId(1), id, granted + 2000);
        assert!(done > granted);
        // Owner keeps a shared copy; no invalidation notice for a FetchS.
        let invs = m
            .drain_notices(CoreId(0))
            .into_iter()
            .filter(|n| matches!(n.kind, NoticeKind::Invalidated { .. }))
            .count();
        assert_eq!(invs, 0);
        assert!(!m.has_ownership(CoreId(0), line(3)));
        assert!(m.stats().per_bank.iter().map(|b| b.gets).sum::<u64>() >= 1);
    }

    #[test]
    fn quiescent_after_all_events_drain() {
        let mut m = sys(2);
        let _ = m.issue_load(CoreId(0), line(1), 0, 64, 0).unwrap();
        assert!(!m.quiescent());
        m.advance(10_000, &mut NullTracer);
        assert!(m.quiescent());
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut m = sys(4);
            let mut events = Vec::new();
            for t in 0..400u64 {
                m.advance(t, &mut NullTracer);
                for c in 0..4u16 {
                    for n in m.drain_notices(CoreId(c)) {
                        events.push((c, n.at, format!("{:?}", n.kind)));
                    }
                    if t % 7 == u64::from(c) {
                        let ln = line(u64::from(c) % 3 + 1);
                        let _ = m.issue_load(CoreId(c), ln, t, ln.base(), t);
                    }
                }
            }
            events
        };
        assert_eq!(run(), run());
    }

    /// Directory banking is a pure function of the line address: the
    /// same line always hashes to the same bank — across calls, across
    /// independently built machines, and regardless of how the banks
    /// are sharded — and the shard ownership of banks is a partition.
    /// This is what lets a shard route a request home without asking
    /// anyone: no state, no directory lookup, just the address.
    #[test]
    fn bank_selection_is_pure_function_of_line_address() {
        let cfg = MemConfig::with_cores(8);
        let n_banks = cfg.l3_banks;
        for i in 0..4096u64 {
            let l = line(i.wrapping_mul(0x9E37_79B9));
            let b = l.bank(n_banks);
            // Purity: recomputing from a fresh `Line` of the same
            // address gives the same bank.
            assert_eq!(Line::from_raw(l.raw()).bank(n_banks), b);
            assert!(b < n_banks, "bank in range");
        }
        // Sharded builds host exactly the banks `bank_shard` assigns
        // them, and the assignment is a partition: every bank has
        // exactly one owner no matter the shard count.
        for shards in [1usize, 2, 3, 4] {
            for b in 0..n_banks {
                let owner = bank_shard(b, &cfg, shards);
                assert!(owner < shards);
                for s in 0..shards {
                    let m = MemorySystem::new_shard(cfg.clone(), s, shards);
                    assert_eq!(
                        m.banks[b].is_some(),
                        s == owner,
                        "bank {b} must live on shard {owner} of {shards}"
                    );
                }
            }
        }
    }

    /// On a mesh, banks are owned by the shard of their nearest core,
    /// and the lookahead is the exact shortest cross-shard channel —
    /// several hops on a mesh, the one-hop floor on the fully-connected
    /// fabric.
    #[test]
    fn mesh_bank_ownership_is_core_affine_and_stretches_lookahead() {
        // 16 cores on a 4-wide mesh: cores fill rows 0-3, the 8 banks
        // fill rows 4-5. With 2 shards the core rows split 0-1 / 2-3,
        // every bank's nearest core is in row 3, so shard 1 owns all
        // banks and the shortest cross-shard channel is a row-1 core to
        // a row-4 bank in the same column: 3 hops.
        let cfg = MemConfig {
            topology: Topology::Mesh2D { width: 4 },
            ..MemConfig::with_cores(16)
        };
        for b in 0..cfg.l3_banks {
            assert_eq!(bank_shard(b, &cfg, 2), 1, "bank {b} is core-affine");
        }
        let min_flits = cfg.ctrl_flits.min(cfg.data_flits);
        assert_eq!(shard_lookahead(&cfg, 2), min_flits + 3 * cfg.hop_latency);

        // Fully connected: every pair is one hop, ownership stays the
        // contiguous split, the lookahead is the floor.
        let fc = MemConfig::with_cores(16);
        let owners: Vec<usize> = (0..fc.l3_banks).map(|b| bank_shard(b, &fc, 2)).collect();
        assert_eq!(owners, [0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(shard_lookahead(&fc, 2), min_flits + fc.hop_latency);
    }
}
