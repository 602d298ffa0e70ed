//! The assembled multicore: N out-of-order cores over one coherent memory
//! system and one global value image.

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use sa_coherence::msg::NodeId;
use sa_coherence::{
    bank_shard, core_shard, shard_lookahead, MemReqId, MemStats, MemorySystem, NocStats, Notice,
    RemoteEvent,
};
use sa_isa::{
    Addr, CoreId, Cycle, Line, StripedValueMemory, Trace, Value, ValueImage, ValueMemory,
};
use sa_metrics::{SampleInput, Sampler};
use sa_ooo::{Core, LoadStorePort};
use sa_profile::{NullProfiler, Profiler};
use sa_trace::{NullTracer, TraceEvent, Tracer};

use crate::config::{EngineMode, SimConfig};
use crate::report::Report;
use crate::scalescope::{EpochSlice, ParallelScope, ShardScope};

/// Cycles without a single retired instruction machine-wide before a run
/// is declared wedged.
const WATCHDOG: Cycle = 1_000_000;

/// One core's view of the shared memory system.
struct PortView<'a> {
    mem: &'a mut MemorySystem,
    core: CoreId,
}

impl LoadStorePort for PortView<'_> {
    fn issue_load(&mut self, line: Line, pc: u64, addr: Addr, now: Cycle) -> Option<MemReqId> {
        self.mem.issue_load(self.core, line, pc, addr, now)
    }

    fn issue_ownership(&mut self, line: Line, now: Cycle) -> Option<MemReqId> {
        self.mem.issue_ownership(self.core, line, now)
    }

    fn has_ownership(&self, line: Line) -> bool {
        self.mem.has_ownership(self.core, line)
    }

    fn mark_dirty(&mut self, line: Line) {
        self.mem.mark_dirty(self.core, line);
    }

    fn l1_latency(&self) -> u64 {
        self.mem.l1_latency()
    }

    fn reject_epoch(&self) -> Option<u64> {
        Some(self.mem.reject_epoch(self.core))
    }

    fn note_rejected_issues(&mut self, n: u64) {
        self.mem.note_rejected_issues(self.core, n);
    }
}

/// Why a run did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The cycle budget elapsed before every core finished.
    CycleLimit {
        /// The budget that was exhausted.
        limit: Cycle,
    },
    /// No core retired an instruction for a long time — a deadlock in
    /// the model (this is a simulator bug, surfaced loudly).
    NoProgress {
        /// Cycle at which progress stopped being observed.
        since: Cycle,
    },
    /// A sharded run stopped early and `run` was called again; only a
    /// serial run can be resumed.
    NotResumable,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::CycleLimit { limit } => {
                write!(f, "cycle budget of {limit} exhausted before completion")
            }
            RunError::NoProgress { since } => {
                write!(
                    f,
                    "no instruction retired since cycle {since} (model deadlock)"
                )
            }
            RunError::NotResumable => {
                write!(f, "a sharded run that stopped early cannot be resumed")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// The simulated machine, generic over the attached [`Tracer`] and
/// host-side [`Profiler`].
///
/// The default instantiation carries a [`NullTracer`] and a
/// [`NullProfiler`], which monomorphize every emission and span site to
/// nothing — `Multicore::new` builds that bare machine. Attach a real
/// sink (ring buffer, counters, `Vec`) with [`Multicore::with_tracer`]
/// and take it back with [`Multicore::into_tracer`] after the run;
/// attach a profiler (e.g. `sa_profile::WallProfiler`) with
/// [`Multicore::with_tracer_profiler`] to record the per-phase host
/// wall-time tree into the running thread's `sa-profile` collector.
#[derive(Debug)]
pub struct Multicore<T: Tracer = NullTracer, P: Profiler = NullProfiler> {
    cfg: SimConfig,
    cores: Vec<Core>,
    mem: MemorySystem,
    valmem: ValueMemory,
    cycle: Cycle,
    sampler: Sampler,
    tracer: T,
    /// Reusable buffer [`Multicore::step`] drains notices into, so it
    /// never allocates.
    notice_scratch: Vec<Notice>,
    /// Global memory-system statistics assembled from shard partials by
    /// a parallel run; `None` until one completes. `self.mem` is not
    /// advanced by the parallel engine, so [`Multicore::report`] prefers
    /// this snapshot when present.
    parallel_mem_stats: Option<MemStats>,
    /// Epoch/barrier telemetry of the last parallel run (sa-scalescope).
    /// Stored outside [`Report`] — the engine-equivalence assertions
    /// compare reports, and host-time telemetry must never enter them.
    /// `None` after serial runs: the telemetry is not allocated at all
    /// when the parallel engine is off.
    parallel_scope: Option<ParallelScope>,
    /// NoC snapshot merged from shard partials by a parallel run, for
    /// the same reason [`Multicore::noc_stats`] prefers it when present.
    parallel_noc: Option<NocStats>,
    /// The profiler is stateless (spans land in thread-local storage);
    /// only its type travels with the machine.
    _profiler: PhantomData<P>,
}

impl Multicore {
    /// Builds an untraced machine running `traces[i]` on core `i`.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len()` differs from the configured core count or
    /// the configuration is invalid.
    pub fn new(cfg: SimConfig, traces: Vec<Trace>) -> Multicore {
        Multicore::with_tracer(cfg, traces, NullTracer)
    }
}

impl<T: Tracer> Multicore<T> {
    /// Builds a machine running `traces[i]` on core `i`, recording every
    /// pipeline/gate/SB/coherence event into `tracer`.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len()` differs from the configured core count or
    /// the configuration is invalid.
    pub fn with_tracer(cfg: SimConfig, traces: Vec<Trace>, tracer: T) -> Multicore<T> {
        Multicore::with_tracer_profiler(cfg, traces, tracer)
    }
}

impl<T: Tracer, P: Profiler> Multicore<T, P> {
    /// Builds a machine with both a tracer and a host-side profiler
    /// type. Name `P` explicitly at the call site
    /// (`Multicore::<NullTracer, WallProfiler>::with_tracer_profiler(…)`);
    /// the profiler has no state to pass.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len()` differs from the configured core count or
    /// the configuration is invalid.
    pub fn with_tracer_profiler(cfg: SimConfig, traces: Vec<Trace>, tracer: T) -> Multicore<T, P> {
        cfg.validate();
        assert_eq!(
            traces.len(),
            cfg.n_cores(),
            "need exactly one trace per core"
        );
        let cores = traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| Core::new(CoreId::from_index(i), cfg.core.clone(), cfg.model, t))
            .collect();
        Multicore {
            mem: MemorySystem::new(cfg.mem.clone()),
            valmem: ValueMemory::new(),
            cores,
            cycle: 0,
            sampler: Sampler::new(cfg.sample_interval, cfg.sample_capacity),
            cfg,
            tracer,
            notice_scratch: Vec::new(),
            parallel_mem_stats: None,
            parallel_scope: None,
            parallel_noc: None,
            _profiler: PhantomData,
        }
    }

    /// The attached tracer.
    pub fn tracer(&self) -> &T {
        &self.tracer
    }

    /// Mutable access to the attached tracer (e.g. to drain mid-run).
    pub fn tracer_mut(&mut self) -> &mut T {
        &mut self.tracer
    }

    /// Consumes the machine and returns the tracer with everything it
    /// recorded.
    pub fn into_tracer(self) -> T {
        self.tracer
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Immutable view of one core (registers, stats, gate).
    pub fn core(&self, id: CoreId) -> &Core {
        &self.cores[id.index()]
    }

    /// The global value image (final memory state for litmus outcomes).
    pub fn memory(&self) -> &ValueMemory {
        &self.valmem
    }

    /// Pre-initializes a memory word before the run starts.
    pub fn poke(&mut self, addr: Addr, size: u8, value: Value) {
        self.valmem.write(addr, size, value);
    }

    /// `true` once every core finished its trace.
    pub fn finished(&self) -> bool {
        self.cores.iter().all(Core::finished)
    }

    /// Simulates one global cycle, returning how many instructions
    /// retired machine-wide during it.
    pub fn step(&mut self) -> u64 {
        {
            let _p = P::span("memsys");
            self.mem
                .advance_profiled::<T, P>(self.cycle, &mut self.tracer);
        }
        let mut retired = 0;
        for i in 0..self.cores.len() {
            let id = CoreId::from_index(i);
            self.notice_scratch.clear();
            if self.mem.has_notices(id) {
                self.mem.take_notices_into(id, &mut self.notice_scratch);
            }
            if self.cores[i].finished() && self.notice_scratch.is_empty() {
                continue;
            }
            let mut port = PortView {
                mem: &mut self.mem,
                core: id,
            };
            let _p = P::span("tick");
            let r = self.cores[i].tick_profiled::<_, _, T, P>(
                self.cycle,
                &mut port,
                &mut self.valmem,
                &self.notice_scratch,
                &mut self.tracer,
            );
            retired += r.retired;
        }
        self.cycle += 1;
        if self.cfg.sample_interval != 0 && self.sampler.due(self.cycle) {
            self.sample();
        }
        retired
    }

    /// Gathers one instantaneous machine snapshot into the sampler.
    fn sample(&mut self) {
        self.sampler
            .record(self.cycle, partial_input(&self.cores, &self.mem));
    }

    /// Runs until every core finishes or `max_cycles` elapse.
    ///
    /// Dispatches on [`SimConfig::engine`]. Every engine advances time
    /// with the same per-cycle loop, `run_span`. `Parallel` with two or
    /// more threads partitions the machine into shards, each running
    /// that loop between epoch barriers; every other run is one slice
    /// over the whole machine with no barriers. `Lockstep` and traced
    /// runs tick every unfinished core every cycle (tracers want the
    /// per-cycle event stream); the others let stalled cores sleep and
    /// jump over cycles in which nothing can happen. A traced sharded
    /// run collects per-shard keyed streams and merges them back into
    /// exactly the serial emission order. All engines are cycle-exact
    /// with one another and with the [`Multicore::step`] reference:
    /// identical final cycle counts, statistics and memory images
    /// (enforced by `tests/engine_equivalence` and
    /// `tests/parallel_equivalence`).
    ///
    /// A serial run that stopped early can be resumed by calling `run`
    /// again; a sharded one cannot.
    ///
    /// # Errors
    ///
    /// [`RunError::CycleLimit`] when the budget runs out;
    /// [`RunError::NoProgress`] when the machine wedges (a model bug);
    /// [`RunError::NotResumable`] when a previous sharded run stopped
    /// early.
    pub fn run(&mut self, max_cycles: Cycle) -> Result<Report, RunError> {
        if let EngineMode::Parallel { threads } = self.cfg.engine {
            // The shards advanced their own memory-system partitions, so
            // after an early stop `self.mem` lags behind the cores.
            if self.parallel_scope.is_some() && !self.finished() {
                return Err(RunError::NotResumable);
            }
            let threads = threads.clamp(1, self.cores.len().max(1));
            let lookahead = shard_lookahead(&self.cfg.mem, threads);
            if threads >= 2
                && lookahead >= 1
                && self.cycle == 0
                && max_cycles > 0
                && !self.finished()
            {
                return if T::ENABLED {
                    self.run_parallel::<KeyedCollector>(threads, max_cycles, lookahead)
                } else {
                    self.run_parallel::<NullTracer>(threads, max_cycles, lookahead)
                };
            }
        }
        self.run_serial(max_cycles)
    }

    /// Runs the whole machine as one slice of `run_span`, in chunks that
    /// end at the cycle budget or the watchdog deadline, whichever comes
    /// first. The checks between chunks fire at exactly the cycle where
    /// a per-cycle check would.
    fn run_serial(&mut self, max_cycles: Cycle) -> Result<Report, RunError> {
        let lockstep = T::ENABLED || self.cfg.engine == EngineMode::Lockstep;
        let _engine = P::span(if lockstep { "lockstep" } else { "event" });
        let mut st = SpanState::new(
            self.cores.len(),
            self.cycle,
            lockstep,
            self.cfg.sample_interval,
        );
        let outcome = loop {
            if self.finished() {
                break Ok(());
            }
            if st.cur >= max_cycles {
                break Err(RunError::CycleLimit { limit: max_cycles });
            }
            let deadline = st.last_retire + WATCHDOG;
            run_span::<T, P, _>(
                &mut st,
                &mut self.cores,
                &mut self.mem,
                &mut self.tracer,
                &mut self.valmem,
                deadline.min(max_cycles - 1),
                true,
            );
            for (c, input) in st.samples.drain(..) {
                self.sampler.record(c, input);
            }
            if st.cur - st.last_retire > WATCHDOG {
                break Err(RunError::NoProgress {
                    since: st.last_retire,
                });
            }
        };
        self.cycle = st.cur;
        outcome.map(|()| self.report())
    }

    /// The parallel engine: conservative-lookahead PDES.
    ///
    /// Cores and their private cache controllers — plus the directory
    /// banks they co-own — are partitioned across `threads` worker
    /// shards ([`sa_coherence::core_shard`] / [`sa_coherence::bank_shard`]).
    /// Each shard advances its slice of the machine independently inside
    /// *epochs* of `L` cycles, where `L` is the exact minimum cross-shard
    /// delivery delay ([`sa_coherence::shard_lookahead`]): every
    /// cross-shard message takes at least `L` cycles of virtual time, so
    /// an event sent during epoch `k` can only be due in epoch `k + 1`
    /// or later, and exchanging cross-shard deliveries at the epoch
    /// barrier is always in time. On the fully-connected fabric `L` is
    /// the one-hop floor `hop_latency + min(ctrl_flits, data_flits)`; on
    /// a mesh the core-affine bank ownership of
    /// [`sa_coherence::bank_shard`] pushes the shortest cross-shard
    /// channel several hops out, so the epochs — and the stretch of
    /// cache-hot, barrier-free simulation per shard — grow with it.
    /// Within an epoch each shard runs `run_span`, the loop a serial run
    /// uses, over its local cores, so the interleaving every core
    /// observes is *identical* to the serial engines' — the parallel run
    /// is bit-exact, not approximately equal.
    ///
    /// Termination: each shard publishes its local finish cycle at the
    /// barrier; once every shard has finished, the global finish cycle is
    /// the maximum vote, and one final catch-up pass (bounded by that
    /// cycle) drains the remaining notice ticks — any message sent during
    /// it would be due strictly after the finish cycle and is dropped, so
    /// no further epoch is needed.
    ///
    /// The body is monomorphized over the shard-local collector `C`:
    /// [`NullTracer`] for untraced runs (shards let stalled cores sleep),
    /// [`KeyedCollector`] when a real tracer is attached (shards run
    /// lockstep and record keyed events for the deterministic merge).
    /// [`Multicore::run`] sends degenerate configurations (`threads < 2`,
    /// a zero lookahead, or a machine that has already been stepped) to
    /// the serial loop, which is bit-exact by the same invariant.
    fn run_parallel<C: ShardCollector>(
        &mut self,
        threads: usize,
        max_cycles: Cycle,
        lookahead: Cycle,
    ) -> Result<Report, RunError> {
        let _engine = P::span("parallel");
        let n_cores = self.cores.len();
        let n_banks = self.cfg.mem.l3_banks;
        let interval = self.cfg.sample_interval;

        // The bank ownership map, computed once and shared read-only:
        // shard workers route outbox events with it, and it is the same
        // map `MemorySystem::new_shard` builds each shard from.
        let bank_owner: Vec<usize> = (0..n_banks)
            .map(|b| bank_shard(b, &self.cfg.mem, threads))
            .collect();

        // Partition the cores across shards.
        let mut pool: Vec<Option<Core>> = std::mem::take(&mut self.cores)
            .into_iter()
            .map(Some)
            .collect();
        let shards: Vec<EngineShard<C>> = (0..threads)
            .map(|s| {
                let cores: Vec<Core> = (0..n_cores)
                    .filter(|&i| core_shard(i, n_cores, threads) == s)
                    .map(|i| pool[i].take().expect("each core owned by one shard"))
                    .collect();
                EngineShard {
                    id: s,
                    span: SpanState::new(cores.len(), 0, C::ENABLED, interval),
                    cores,
                    mem: MemorySystem::new_shard(self.cfg.mem.clone(), s, threads),
                    collector: C::default(),
                    limit_hit: false,
                    error: None,
                    scope: ShardScope {
                        shard: s,
                        ..ShardScope::default()
                    },
                }
            })
            .collect();

        // The shared value image: striped mutexes make it Sync, and the
        // lookahead bound makes the ordering exact — two conflicting
        // accesses from different shards are separated by at least one
        // protocol round-trip (>= 2L virtual cycles), hence by at least
        // one epoch barrier in real time.
        let striped = StripedValueMemory::from_value_memory(std::mem::replace(
            &mut self.valmem,
            ValueMemory::new(),
        ));
        let sync = ShardSync {
            barrier: Barrier::new(threads),
            finished: (0..threads).map(|_| AtomicU64::new(u64::MAX)).collect(),
            retire: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            limit: AtomicBool::new(false),
            inboxes: (0..threads).map(|_| Mutex::new(Vec::new())).collect(),
            arrivals_a: AtomicUsize::new(0),
            arrivals_b: AtomicUsize::new(0),
        };

        let region_start = Instant::now();
        let results: Vec<EngineShard<C>> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|st| {
                    let sync = &sync;
                    let striped = &striped;
                    let bank_owner = &bank_owner;
                    scope.spawn(move || {
                        shard_worker::<C, P>(
                            st,
                            sync,
                            striped,
                            max_cycles,
                            lookahead,
                            (n_cores, threads),
                            bank_owner,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });

        let wall_ns = region_start.elapsed().as_nanos() as u64;

        // Reassemble the machine: cores back in index order, the value
        // image back to its plain form, the clock to the global finish.
        let mut back: Vec<Option<Core>> = (0..n_cores).map(|_| None).collect();
        let mut partials: Vec<MemStats> = Vec::with_capacity(threads);
        let mut entries: Vec<TraceEntry> = Vec::new();
        let mut sample_acc: BTreeMap<Cycle, SampleInput> = BTreeMap::new();
        let mut error = None;
        let mut final_cycle = 0;
        let mut scope = ParallelScope {
            threads,
            lookahead,
            topology: self.cfg.mem.topology.to_string(),
            wall_ns,
            epochs: 0,
            per_shard: Vec::with_capacity(threads),
        };
        let mut noc = NocStats::default();
        for st in results {
            for core in st.cores {
                let i = core.id().index();
                back[i] = Some(core);
            }
            final_cycle = final_cycle.max(st.span.cur);
            if st.error.is_some() {
                error = st.error;
            }
            partials.push(st.mem.stats());
            noc.merge(&st.mem.noc_stats());
            for (c, input) in st.span.samples {
                add_sample(sample_acc.entry(c).or_default(), &input);
            }
            entries.extend(st.collector.into_entries());
            scope.epochs = scope.epochs.max(st.scope.epochs);
            scope.per_shard.push(st.scope);
        }
        // Publish the phase totals as sa-profile span-tree children of
        // the open "parallel" span (no-ops under the null profiler).
        P::sample_ns("shard-work", scope.work_ns());
        P::sample_ns("barrier-wait", scope.wait_ns());
        P::sample_ns("exchange", scope.exchange_ns());
        self.parallel_scope = Some(scope);
        self.parallel_noc = Some(noc);
        self.cores = back
            .into_iter()
            .map(|c| c.expect("every core returned by its shard"))
            .collect();
        self.valmem = striped.into_value_memory();
        self.cycle = final_cycle;
        if let Some(e) = error {
            return Err(e);
        }

        self.parallel_mem_stats = Some(MemorySystem::merge_stats(&self.cfg.mem, &partials));
        for (c, input) in sample_acc {
            self.sampler.record(c, input);
        }
        // Replay the merged event stream in canonical order — exactly the
        // sequence the serial lockstep engine would have emitted.
        entries.sort_by_key(|e| (e.cycle, e.phase, e.origin, e.seq));
        for e in entries {
            self.tracer.record(e.ev);
        }
        Ok(self.report())
    }

    /// Epoch/barrier telemetry of the last parallel run, or `None` when
    /// no parallel run completed (the zero-cost-when-off guarantee:
    /// serial engines never construct it).
    pub fn scalescope(&self) -> Option<&ParallelScope> {
        self.parallel_scope.as_ref()
    }

    /// The NoC snapshot: link-utilization matrix, message-latency
    /// histogram, per-bank occupancy and invalidation storms. After a
    /// parallel run this is the shard-merged snapshot; otherwise it is
    /// read straight off the serial memory system. The two agree —
    /// every field is a pure function of the bit-exact simulation.
    pub fn noc_stats(&self) -> NocStats {
        self.parallel_noc
            .clone()
            .unwrap_or_else(|| self.mem.noc_stats())
    }

    /// Snapshot of all statistics.
    pub fn report(&self) -> Report {
        Report {
            model: self.cfg.model,
            cycles: self.cycle,
            width: self.cfg.core.width,
            per_core: self.cores.iter().map(|c| *c.stats()).collect(),
            metrics: self.cores.iter().map(|c| c.metrics().clone()).collect(),
            samples: self.sampler.to_vec(),
            sample_interval: self.sampler.interval(),
            mem: self
                .parallel_mem_stats
                .clone()
                .unwrap_or_else(|| self.mem.stats()),
            forensics: None,
        }
    }
}

// ---------------------------------------------------------------------
// The per-cycle loop
// ---------------------------------------------------------------------

/// The state [`run_span`] keeps across calls over one slice of the
/// machine: the whole machine for a serial run, one shard's cores for a
/// sharded run.
struct SpanState {
    /// The slice's virtual clock (next cycle to simulate).
    cur: Cycle,
    /// Tick every unfinished core every cycle and never jump.
    lockstep: bool,
    /// Sampler interval in cycles (0 = off).
    interval: u64,
    /// One entry per local core, in slice order.
    slots: Vec<CoreSlot>,
    scratch: Vec<Notice>,
    /// `Some(f)` once every local core has finished; `f` is one past the
    /// cycle of the finishing tick — a shard's vote for the global
    /// finish cycle.
    finished_at: Option<Cycle>,
    /// The slice's sampler inputs at each interval boundary, not yet
    /// recorded.
    samples: Vec<(Cycle, SampleInput)>,
    /// Cycle just after the last local retirement (watchdog input).
    last_retire: Cycle,
}

/// [`run_span`]'s state for one local core between its ticks.
#[derive(Clone, Copy)]
struct CoreSlot {
    /// The core's last tick made progress, so it ticks again next cycle.
    active: bool,
    /// Earliest self-scheduled wakeup of the sleeping core (`None` =
    /// only a notice or a reject-stamp move can wake it).
    wake: Option<Cycle>,
    /// Memoized MSHR rejections the core's last tick booked; each cycle
    /// it sleeps books as many again.
    rejects: u64,
    /// The core's reject stamp after that tick; the core wakes when it
    /// moves (only meaningful while `rejects > 0`).
    stamp: u64,
    /// First cycle whose idle bookkeeping the core has not been given.
    idle_from: Cycle,
}

impl SpanState {
    /// Fresh state for `n` cores starting at cycle `cur`, every core
    /// due to tick.
    fn new(n: usize, cur: Cycle, lockstep: bool, interval: u64) -> SpanState {
        let slot = CoreSlot {
            active: true,
            wake: None,
            rejects: 0,
            stamp: 0,
            idle_from: cur,
        };
        SpanState {
            cur,
            lockstep,
            interval,
            slots: vec![slot; n],
            scratch: Vec::new(),
            finished_at: None,
            samples: Vec::new(),
            last_retire: cur,
        }
    }
}

/// Advances `cores` (and the memory system `mem` they share) from
/// `st.cur` through `bound` inclusive — the one per-cycle loop every
/// engine runs.
///
/// Each cycle pumps the memory system, then ticks each core that is due.
/// A core whose tick made no progress is put to sleep: its stall is a
/// replay (the same CPI category, the same occupancies, the same
/// memoized MSHR rejections) until a notice arrives from the memory
/// system, its own next timed wakeup ([`Core::next_timed_wakeup`]) comes
/// due, or, if the tick booked memoized rejections, its reject stamp
/// ([`MemorySystem::reject_epoch`]) moves. Only a delivery to the core's
/// controller or the core's own issue or commit moves its stamp, so no
/// other core's tick can, and the wake lands on the cycle where a
/// per-cycle tick would first see the change. The slept cycles are not
/// simulated: [`catch_up`] applies them in one call when the core next
/// ticks, at each sampler boundary (samples read cumulative counters)
/// and when this function returns. When every core is asleep the loop
/// jumps straight to the earliest cycle anything can happen: the memory
/// system's next queued event, the earliest core wakeup, the next
/// sampler boundary (samples must land exactly where a per-cycle loop
/// puts them), or `bound + 1`. With `st.lockstep` no core sleeps, as in
/// [`Multicore::step`].
///
/// With `early_stop`, returns as soon as the last core finishes,
/// recording `st.finished_at`.
fn run_span<T: Tracer, P: Profiler, V: ValueImage>(
    st: &mut SpanState,
    cores: &mut [Core],
    mem: &mut MemorySystem,
    tracer: &mut T,
    valmem: &mut V,
    bound: Cycle,
    early_stop: bool,
) {
    let SpanState {
        cur,
        lockstep,
        interval,
        slots,
        scratch,
        finished_at,
        samples,
        last_retire,
    } = st;
    let (lockstep, interval) = (*lockstep, *interval);
    while *cur <= bound {
        {
            let _p = P::span("memsys");
            mem.advance_profiled::<T, P>(*cur, tracer);
        }
        let mut retired = 0u64;
        let mut any_active = false;
        for (core, slot) in cores.iter_mut().zip(slots.iter_mut()) {
            let id = core.id();
            scratch.clear();
            if mem.has_notices(id) {
                mem.take_notices_into(id, scratch);
            }
            let due = lockstep
                || slot.active
                || !scratch.is_empty()
                || slot.wake.is_some_and(|w| w <= *cur)
                || (slot.rejects > 0 && mem.reject_epoch(id) != slot.stamp);
            if !due {
                continue;
            }
            if core.finished() && scratch.is_empty() {
                slot.active = false;
                slot.wake = None;
                slot.rejects = 0;
                continue;
            }
            catch_up(core, slot, mem, *cur);
            let mut port = PortView {
                mem: &mut *mem,
                core: id,
            };
            let r = {
                let _p = P::span("tick");
                core.tick_profiled::<_, _, T, P>(*cur, &mut port, valmem, scratch, tracer)
            };
            retired += r.retired;
            slot.idle_from = *cur + 1;
            if !lockstep {
                slot.active = r.progress;
                if r.progress {
                    any_active = true;
                } else {
                    slot.wake = core.next_timed_wakeup(*cur);
                    slot.rejects = r.rejects;
                    slot.stamp = mem.reject_epoch(id);
                }
            }
        }
        *cur += 1;
        if interval != 0 && cur.is_multiple_of(interval) {
            catch_up_all(cores, slots, mem, *cur);
            samples.push((*cur, partial_input(cores, mem)));
        }
        if retired > 0 {
            *last_retire = *cur;
        }
        if early_stop && cores.iter().all(Core::finished) {
            *finished_at = Some(*cur);
            break;
        }
        if lockstep || any_active {
            continue;
        }
        // Everything is asleep: jump to the next interesting cycle.
        let _p = P::span("jump");
        let mut next = Cycle::MAX;
        if let Some(c) = mem.next_event_cycle() {
            next = next.min(c);
        }
        for w in slots.iter().filter_map(|s| s.wake) {
            next = next.min(w);
        }
        next = next.min(bound + 1);
        if let Some(intervals_done) = cur.checked_div(interval) {
            next = next.min((intervals_done + 1) * interval);
        }
        if next <= *cur {
            continue;
        }
        *cur = next;
        if interval != 0 && cur.is_multiple_of(interval) {
            catch_up_all(cores, slots, mem, *cur);
            samples.push((*cur, partial_input(cores, mem)));
        }
    }
    // Settle every sleeping core's counters before the caller reads
    // them (`report()`, an epoch barrier, the next chunk).
    catch_up_all(cores, slots, mem, *cur);
}

/// Gives `core` the bookkeeping of the cycles it slept through,
/// `slot.idle_from` up to `cur`, in one call: its stall counters
/// ([`Core::apply_idle_cycles`]) and the memoized MSHR rejections its
/// last tick booked, once more per slept cycle. A core finishes only in
/// its own tick, so a finished core owes nothing.
fn catch_up(core: &mut Core, slot: &mut CoreSlot, mem: &mut MemorySystem, cur: Cycle) {
    let n = cur - slot.idle_from;
    slot.idle_from = cur;
    if n == 0 || core.finished() {
        return;
    }
    core.apply_idle_cycles(n);
    if slot.rejects > 0 {
        mem.note_rejected_issues(core.id(), slot.rejects * n);
    }
}

/// [`catch_up`] for every core of the slice.
fn catch_up_all(cores: &mut [Core], slots: &mut [CoreSlot], mem: &mut MemorySystem, cur: Cycle) {
    for (core, slot) in cores.iter_mut().zip(slots.iter_mut()) {
        catch_up(core, slot, mem, cur);
    }
}

/// Sums the instantaneous snapshot of `cores` and `mem` into a
/// [`SampleInput`]. Every field is additive across shards, so summing
/// the shards' partial inputs at one boundary reproduces the serial
/// global sample.
fn partial_input(cores: &[Core], mem: &MemorySystem) -> SampleInput {
    let mut input = SampleInput {
        n_cores: cores.len() as u64,
        outstanding_misses: mem.outstanding_misses() as u64,
        ..SampleInput::default()
    };
    for c in cores {
        let (rob, lq, sq) = c.occupancy();
        input.rob += rob as u64;
        input.lq += lq as u64;
        input.sq += sq as u64;
        input.sb += c.sb_depth() as u64;
        let s = c.stats();
        input.retired += s.retired_instrs;
        input.gate_closed_cycles += s.gate_closed_cycles;
        input.squashes += s.squashes.iter().sum::<u64>();
    }
    input
}

// ---------------------------------------------------------------------
// Parallel-engine machinery
// ---------------------------------------------------------------------

/// One trace event captured by a shard together with its canonical merge
/// key. `phase` orders same-cycle protocol deliveries (0) before core
/// ticks (1), matching the serial engines' within-cycle order: the memory
/// system is always pumped before any core ticks.
struct TraceEntry {
    cycle: Cycle,
    phase: u8,
    origin: u32,
    seq: u64,
    ev: TraceEvent,
}

/// A tracer a shard worker can own: collects the shard's events with
/// their canonical keys so the main thread can merge the per-shard
/// streams back into exactly the serial emission order.
trait ShardCollector: Tracer + Send + Default {
    fn into_entries(self) -> Vec<TraceEntry>;
}

impl ShardCollector for NullTracer {
    fn into_entries(self) -> Vec<TraceEntry> {
        Vec::new()
    }
}

/// The collector used when a real tracer is attached: protocol events
/// keep the memory system's `(origin, seq)` pop key ([`Tracer::emit_keyed`]);
/// tick-side events are keyed by the emitting core and a per-shard
/// sequence number — cores belong to exactly one shard, so within-core
/// emission order is total, and distinct cores never tie (distinct
/// origins).
#[derive(Default)]
struct KeyedCollector {
    entries: Vec<TraceEntry>,
    tick_seq: u64,
}

impl Tracer for KeyedCollector {
    const ENABLED: bool = true;

    fn record(&mut self, ev: TraceEvent) {
        let key = (ev.cycle, ev.core.index() as u32, self.tick_seq);
        self.tick_seq += 1;
        self.entries.push(TraceEntry {
            cycle: key.0,
            phase: 1,
            origin: key.1,
            seq: key.2,
            ev,
        });
    }

    fn emit_keyed(&mut self, key: (u32, u64), f: impl FnOnce() -> TraceEvent) {
        let ev = f();
        self.entries.push(TraceEntry {
            cycle: ev.cycle,
            phase: 0,
            origin: key.0,
            seq: key.1,
            ev,
        });
    }
}

impl ShardCollector for KeyedCollector {
    fn into_entries(self) -> Vec<TraceEntry> {
        self.entries
    }
}

/// One worker's slice of the machine: the cores it owns, the
/// memory-system shard hosting their private controllers and this
/// shard's directory banks, and the loop state over them.
struct EngineShard<C> {
    id: usize,
    cores: Vec<Core>,
    mem: MemorySystem,
    collector: C,
    span: SpanState,
    limit_hit: bool,
    error: Option<RunError>,
    /// sa-scalescope telemetry accumulated by the worker loop.
    scope: ShardScope,
}

/// Shared epoch-barrier state. Shards publish their flags *before* the
/// barrier and read everyone's *after* it, so all shards compute the
/// same global decision (finish / cycle-limit / watchdog) from the same
/// data every epoch.
struct ShardSync {
    barrier: Barrier,
    /// Per-shard local finish vote (`u64::MAX` = still running).
    finished: Vec<AtomicU64>,
    /// Per-shard last-retirement cycle (global watchdog input).
    retire: Vec<AtomicU64>,
    limit: AtomicBool,
    /// Per-destination-shard cross-shard event deliveries.
    inboxes: Vec<Mutex<Vec<RemoteEvent>>>,
    /// Monotonic arrival counters for last-arriver attribution, one per
    /// barrier (A = publish/decide, B = delivery).
    arrivals_a: AtomicUsize,
    arrivals_b: AtomicUsize,
}

/// Ticks an arrival counter just before a barrier wait and reports
/// whether this thread completed the crossing (arrived last). Safe
/// because a thread cannot increment for crossing `k + 1` until every
/// thread has passed crossing `k`, so per crossing the counter runs
/// from `k * threads` to `(k + 1) * threads - 1` — the thread that
/// draws the final value is the one everyone else was waiting for.
fn arrive_last(counter: &AtomicUsize, threads: usize) -> bool {
    counter.fetch_add(1, Ordering::SeqCst) % threads == threads - 1
}

fn add_sample(acc: &mut SampleInput, p: &SampleInput) {
    acc.n_cores += p.n_cores;
    acc.outstanding_misses += p.outstanding_misses;
    acc.rob += p.rob;
    acc.lq += p.lq;
    acc.sq += p.sq;
    acc.sb += p.sb;
    acc.retired += p.retired;
    acc.gate_closed_cycles += p.gate_closed_cycles;
    acc.squashes += p.squashes;
}

/// One worker's epoch loop. Every epoch: advance the local slice to the
/// epoch boundary (phase 1, stopping early on local finish), synchronize
/// and decide globally (barrier A), catch up locally-finished shards
/// (phase 2), then trade cross-shard deliveries (barrier B). All control
/// decisions are computed by every shard from identically-published
/// flags, so the shards always take the same branch — no coordinator.
fn shard_worker<C: ShardCollector, P: Profiler>(
    mut st: EngineShard<C>,
    sync: &ShardSync,
    mut valmem: &StripedValueMemory,
    max_cycles: Cycle,
    lookahead: Cycle,
    geometry: (usize, usize),
    bank_owner: &[usize],
) -> EngineShard<C> {
    let _span = P::span("shard");
    let (n_cores, n_shards) = geometry;
    let mut epoch_start: Cycle = 0;
    loop {
        let epoch_end = epoch_start + lookahead - 1;
        let epoch_cur0 = st.span.cur;
        let mut slice = EpochSlice::default();
        // Phase 1: simulate this epoch locally (cross-shard sends pile up
        // in the outbox; nothing sent this epoch is due before the next).
        let t_work = Instant::now();
        if st.span.finished_at.is_none() {
            run_span::<C, P, _>(
                &mut st.span,
                &mut st.cores,
                &mut st.mem,
                &mut st.collector,
                &mut valmem,
                epoch_end.min(max_cycles - 1),
                true,
            );
            if st.span.finished_at.is_none() && st.span.cur >= max_cycles {
                st.limit_hit = true;
            }
        }
        slice.work_ns = t_work.elapsed().as_nanos() as u64;
        // Barrier A: publish flags, then read everyone's and decide.
        sync.finished[st.id].store(st.span.finished_at.unwrap_or(u64::MAX), Ordering::SeqCst);
        sync.retire[st.id].store(st.span.last_retire, Ordering::SeqCst);
        if st.limit_hit {
            sync.limit.store(true, Ordering::SeqCst);
        }
        let t_wait = Instant::now();
        if arrive_last(&sync.arrivals_a, n_shards) {
            st.scope.last_arriver_a += 1;
        }
        sync.barrier.wait();
        slice.wait_a_ns = t_wait.elapsed().as_nanos() as u64;
        st.scope.epochs += 1;
        if sync.limit.load(Ordering::SeqCst) {
            st.error = Some(RunError::CycleLimit { limit: max_cycles });
            finish_epoch(&mut st, slice, epoch_cur0);
            return st;
        }
        let mut all_finished = true;
        let mut finish = 0u64;
        for f in &sync.finished {
            let v = f.load(Ordering::SeqCst);
            all_finished &= v != u64::MAX;
            if v != u64::MAX {
                finish = finish.max(v);
            }
        }
        if all_finished {
            // Drain remaining notice ticks up to the global finish; any
            // message sent here would be due strictly after it.
            let t_drain = Instant::now();
            if finish > 0 {
                run_span::<C, P, _>(
                    &mut st.span,
                    &mut st.cores,
                    &mut st.mem,
                    &mut st.collector,
                    &mut valmem,
                    finish - 1,
                    false,
                );
            }
            st.span.cur = finish;
            slice.work_ns += t_drain.elapsed().as_nanos() as u64;
            finish_epoch(&mut st, slice, epoch_cur0);
            return st;
        }
        let global_retire = sync
            .retire
            .iter()
            .map(|r| r.load(Ordering::SeqCst))
            .max()
            .unwrap_or(0);
        if (epoch_end + 1).saturating_sub(global_retire) > WATCHDOG {
            st.error = Some(RunError::NoProgress {
                since: global_retire,
            });
            finish_epoch(&mut st, slice, epoch_cur0);
            return st;
        }
        // Phase 2: a shard that finished mid-epoch still owes the rest of
        // the epoch to its queue (notice ticks on finished cores).
        let t_phase2 = Instant::now();
        run_span::<C, P, _>(
            &mut st.span,
            &mut st.cores,
            &mut st.mem,
            &mut st.collector,
            &mut valmem,
            epoch_end,
            false,
        );
        slice.work_ns += t_phase2.elapsed().as_nanos() as u64;
        // Barrier B: trade cross-shard deliveries for the next epoch.
        let t_route = Instant::now();
        let outbox = st.mem.take_outbox();
        st.scope.events_out += outbox.len() as u64;
        st.scope.exchange_events.observe(outbox.len() as u64);
        for ev in outbox {
            let dest = match ev.to {
                NodeId::Core(c) => core_shard(c.index(), n_cores, n_shards),
                NodeId::Bank(b) => bank_owner[b as usize],
            };
            sync.inboxes[dest].lock().expect("inbox lock").push(ev);
        }
        slice.exchange_ns = t_route.elapsed().as_nanos() as u64;
        let t_wait_b = Instant::now();
        if arrive_last(&sync.arrivals_b, n_shards) {
            st.scope.last_arriver_b += 1;
        }
        sync.barrier.wait();
        slice.wait_b_ns = t_wait_b.elapsed().as_nanos() as u64;
        st.scope.epochs_exchanged += 1;
        let t_inject = Instant::now();
        let incoming: Vec<RemoteEvent> =
            std::mem::take(&mut *sync.inboxes[st.id].lock().expect("inbox lock"));
        st.scope.events_in += incoming.len() as u64;
        for ev in incoming {
            st.mem.inject_remote(ev);
        }
        slice.exchange_ns += t_inject.elapsed().as_nanos() as u64;
        finish_epoch(&mut st, slice, epoch_cur0);
        epoch_start += lookahead;
    }
}

/// Books one epoch into the shard's telemetry: the virtual cycles this
/// epoch advanced plus its host-ns phase slice. Also called on the
/// early-return paths (limit, watchdog, global finish) so the partial
/// epoch's time is still accounted.
fn finish_epoch<C>(st: &mut EngineShard<C>, slice: EpochSlice, epoch_cur0: Cycle) {
    let cycles = st.span.cur - epoch_cur0;
    st.scope.sim_cycles += cycles;
    st.scope.record_epoch(slice, cycles);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_isa::{ConsistencyModel, Reg, TraceBuilder};

    fn two_core_cfg(model: ConsistencyModel) -> SimConfig {
        SimConfig::default().with_model(model).with_cores(2)
    }

    #[test]
    fn single_core_store_load_roundtrip() {
        let mut b = TraceBuilder::new();
        b.store_imm(0x1000, 42);
        b.load(Reg::new(0), 0x1000);
        let cfg = SimConfig::default().with_cores(1);
        let mut sim = Multicore::new(cfg, vec![b.build()]);
        let report = sim.run(1_000_000).unwrap();
        assert_eq!(sim.core(CoreId(0)).arch_reg(Reg::new(0)), 42);
        assert_eq!(sim.memory().read(0x1000, 8), 42);
        assert_eq!(report.total().retired_instrs, 2);
    }

    #[test]
    fn producer_consumer_communicates_through_coherence() {
        // Core 0 stores a flag+data; core 1 spins... traces are static,
        // so instead core 1 simply loads late (after enough padding).
        let mut p = TraceBuilder::new();
        p.store_imm(0x4000, 123);
        let mut c = TraceBuilder::new();
        for _ in 0..400 {
            c.nop();
        }
        c.load(Reg::new(1), 0x4000);
        let cfg = two_core_cfg(ConsistencyModel::X86);
        let mut sim = Multicore::new(cfg, vec![p.build(), c.build()]);
        sim.run(1_000_000).unwrap();
        assert_eq!(sim.core(CoreId(1)).arch_reg(Reg::new(1)), 123);
    }

    #[test]
    fn poke_preinitializes_memory() {
        let mut b = TraceBuilder::new();
        b.load(Reg::new(0), 0x8000);
        let cfg = SimConfig::default().with_cores(1);
        let mut sim = Multicore::new(cfg, vec![b.build()]);
        sim.poke(0x8000, 8, 77);
        sim.run(1_000_000).unwrap();
        assert_eq!(sim.core(CoreId(0)).arch_reg(Reg::new(0)), 77);
    }

    /// Every engine stops at the budget on the same cycle; a serial run
    /// then resumes to the one-shot report, a sharded one refuses.
    #[test]
    fn cycle_limit_reported() {
        let w = sa_workloads::by_name("dedup").expect("dedup exists");
        let traces = w.generate(8, 400, 99);
        let cfg = SimConfig::default().with_cores(8);
        let one_shot = Multicore::new(cfg.clone(), traces.clone())
            .run(u64::MAX)
            .expect("completes");
        let limit = one_shot.cycles / 2;
        for engine in [
            EngineMode::Lockstep,
            EngineMode::EventDriven,
            EngineMode::Parallel { threads: 2 },
        ] {
            let mut sim = Multicore::new(cfg.clone().with_engine(engine), traces.clone());
            assert_eq!(
                sim.run(limit),
                Err(RunError::CycleLimit { limit }),
                "{engine}"
            );
            assert_eq!(sim.cycle(), limit, "{engine}");
            let resumed = sim.run(u64::MAX);
            if let EngineMode::Parallel { .. } = engine {
                assert_eq!(resumed, Err(RunError::NotResumable));
            } else {
                assert_eq!(resumed.as_ref(), Ok(&one_shot), "{engine}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one trace per core")]
    fn trace_count_mismatch_panics() {
        let cfg = SimConfig::default().with_cores(2);
        let _ = Multicore::new(cfg, vec![Trace::empty()]);
    }

    #[test]
    fn contended_line_ping_pong_invalidates() {
        // Both cores repeatedly store to the same line: heavy
        // invalidation traffic, and both finish.
        let build = |val: u64| {
            let mut b = TraceBuilder::new();
            for i in 0..50 {
                b.store_imm(0x9000, val + i);
                b.load(Reg::new(0), 0x9040); // a second shared line
            }
            b.build()
        };
        let cfg = two_core_cfg(ConsistencyModel::Ibm370SlfSosKey);
        let mut sim = Multicore::new(cfg, vec![build(100), build(200)]);
        let report = sim.run(5_000_000).unwrap();
        assert!(report.mem.invalidations() > 10, "line must ping-pong");
        let final_val = sim.memory().read(0x9000, 8);
        assert!(
            final_val == 149 || final_val == 249,
            "last store wins: {final_val}"
        );
    }

    /// Cycle-level single-core execution matches the architectural
    /// reference interpreter exactly, for every configuration.
    #[test]
    fn single_core_matches_reference_interpreter() {
        let mut b = TraceBuilder::new();
        b.mov_imm(Reg::new(1), 11);
        b.store_reg(0x1000, Reg::new(1));
        b.load(Reg::new(2), 0x1000);
        b.add(Reg::new(3), Reg::new(2), Reg::new(2));
        b.store_reg(0x1040, Reg::new(3));
        b.load(Reg::new(4), 0x1040);
        let trace = b.build();
        let reference = sa_isa::interpret(&trace, sa_isa::ValueMemory::new());
        for model in ConsistencyModel::ALL {
            let cfg = SimConfig::default().with_model(model).with_cores(1);
            let mut sim = Multicore::new(cfg, vec![trace.clone()]);
            sim.run(1_000_000).unwrap();
            for r in 0..8u8 {
                assert_eq!(
                    sim.core(CoreId(0)).arch_reg(Reg::new(r)),
                    reference.reg(Reg::new(r)),
                    "{model} r{r}"
                );
            }
            assert_eq!(
                sim.memory().read(0x1040, 8),
                reference.memory.read(0x1040, 8)
            );
        }
    }

    #[test]
    fn all_models_complete_same_parallel_workload() {
        for model in ConsistencyModel::ALL {
            let build = |seed: u64| {
                let mut b = TraceBuilder::new();
                for i in 0..120u64 {
                    let a = 0xA000 + ((seed + i * 7) % 16) * 64;
                    if i % 3 == 0 {
                        b.store_imm(a, i);
                    } else {
                        b.load(Reg::new((i % 8) as u8), a);
                    }
                }
                b.build()
            };
            let cfg = two_core_cfg(model);
            let mut sim = Multicore::new(cfg, vec![build(1), build(5)]);
            let report = sim.run(10_000_000).unwrap_or_else(|e| {
                panic!("{model} wedged: {e:?}");
            });
            assert_eq!(report.total().retired_instrs, 240, "{model}");
        }
    }
}
