//! # sa-trace — cycle-accurate observability for the simulator
//!
//! The paper's whole argument lives in microarchitectural timelines: the
//! window of vulnerability of Figures 6–7 is a *sequence* — an SLF load
//! retires, the gate closes under the forwarding store's key, an
//! invalidation lands, speculative loads squash, the store commits, the
//! gate reopens. Aggregate counters cannot show that sequence; this crate
//! records it as a structured, cycle-stamped event stream.
//!
//! ## Architecture
//!
//! * [`event::TraceEvent`] / [`event::EventKind`] — the event model:
//!   per-µop pipeline stages (dispatch/issue/perform/complete/retire),
//!   squashes with cause, retire-gate episodes with the locking key,
//!   SQ→SB movement and SB drain commits, memory requests, and coherence
//!   messages / invalidations / evictions.
//! * [`Tracer`] — the generic emission trait. Emission sites throughout
//!   `sa-ooo`, `sa-coherence` and `sa-sim` call
//!   [`Tracer::emit`] with a *closure*; because the trait carries a
//!   compile-time [`Tracer::ENABLED`] flag, the [`NullTracer`]
//!   monomorphizes every hook to nothing — the disabled path does not
//!   even construct the event.
//! * Sinks: [`sink::VecTracer`] (unbounded recorder),
//!   [`sink::RingTracer`] (bounded, drops oldest),
//!   [`sink::CountersTracer`] (event counts + per-structure occupancy
//!   histograms — the cross-check for Figure 9's stall attribution).
//! * Exporters: [`chrome::export_chrome_trace`] writes Chrome
//!   trace-event JSON loadable in Perfetto (`ui.perfetto.dev`) or
//!   `chrome://tracing`; [`pipeview::render_pipeview`] prints a
//!   Konata-style per-instruction pipeline text view.
//!
//! ## Example
//!
//! ```
//! use sa_trace::{NullTracer, Tracer, TraceEvent, EventKind};
//! use sa_trace::sink::VecTracer;
//! use sa_isa::CoreId;
//!
//! let mut sink = VecTracer::new();
//! sink.emit(|| TraceEvent {
//!     cycle: 3,
//!     core: CoreId(0),
//!     kind: EventKind::Issue { rob: 17 },
//! });
//! assert_eq!(sink.events().len(), 1);
//!
//! // The null tracer never runs the closure at all.
//! let mut null = NullTracer;
//! null.emit(|| unreachable!("disabled hooks are never evaluated"));
//! ```

pub mod chrome;
pub mod event;
pub mod pipeview;
pub mod sink;

pub use chrome::{export_chrome_host_spans, export_chrome_trace, HostSpan};
pub use event::{
    EventKind, GateKey, GateOpenReason, SquashKind, TraceEvent, TraceNode, UopKind, EVENT_KINDS,
};
pub use pipeview::render_pipeview;
pub use sink::{CountersTracer, RingTracer, VecTracer};

/// The emission interface the simulator is instrumented against.
///
/// Implementations are *monomorphized into* the core and memory-system
/// loops, so a sink with `ENABLED = false` (the [`NullTracer`]) erases
/// every hook at compile time: [`Tracer::emit`] takes the event as a
/// closure and never evaluates it when disabled.
pub trait Tracer {
    /// Compile-time enable flag. When `false`, every [`Tracer::emit`]
    /// call site is dead code.
    const ENABLED: bool;

    /// Records one event. Only called when [`Tracer::ENABLED`] is true.
    fn record(&mut self, ev: TraceEvent);

    /// Emission hook: evaluates `f` and records the event — unless this
    /// tracer is disabled, in which case the closure is never run.
    #[inline(always)]
    fn emit(&mut self, f: impl FnOnce() -> TraceEvent) {
        if Self::ENABLED {
            self.record(f());
        }
    }

    /// Emission hook carrying the memory system's canonical event key
    /// `(origin, seq)` — the total order same-cycle protocol deliveries
    /// pop in. Ordinary sinks ignore the key (the default forwards to
    /// [`Tracer::emit`]); the parallel engine's shard collectors keep it
    /// so independently-recorded shard streams can be merged back into
    /// exactly the serial emission order.
    #[inline(always)]
    fn emit_keyed(&mut self, key: (u32, u64), f: impl FnOnce() -> TraceEvent) {
        let _ = key;
        self.emit(f);
    }
}

/// The disabled tracer: a zero-sized sink whose hooks compile away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullTracer;

impl Tracer for NullTracer {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _ev: TraceEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_isa::CoreId;

    /// A deliberately *disabled* sink that would count if it were ever
    /// called — proves the `ENABLED = false` path never reaches
    /// `record`, i.e. the hooks compile away.
    struct DisabledCounter {
        records: u64,
    }

    impl Tracer for DisabledCounter {
        const ENABLED: bool = false;

        fn record(&mut self, _ev: TraceEvent) {
            self.records += 1;
        }
    }

    #[test]
    fn disabled_tracer_never_records_nor_evaluates() {
        let mut t = DisabledCounter { records: 0 };
        let mut evaluated = false;
        for _ in 0..100 {
            t.emit(|| {
                evaluated = true;
                TraceEvent {
                    cycle: 0,
                    core: CoreId(0),
                    kind: EventKind::Issue { rob: 0 },
                }
            });
        }
        assert_eq!(t.records, 0, "disabled sink must record zero events");
        assert!(!evaluated, "disabled hooks must not construct events");
    }

    #[test]
    fn null_tracer_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NullTracer>(), 0);
    }
}
