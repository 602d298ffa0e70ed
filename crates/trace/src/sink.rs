//! Event sinks: unbounded recorder, bounded ring, and counters-only.

use std::collections::VecDeque;

use crate::event::{EventKind, TraceEvent, EVENT_KINDS};
use crate::Tracer;

/// An unbounded recorder — the right sink for litmus-scale runs and for
/// feeding the exporters.
#[derive(Debug, Clone, Default)]
pub struct VecTracer {
    events: Vec<TraceEvent>,
}

impl VecTracer {
    /// An empty recorder.
    pub fn new() -> VecTracer {
        VecTracer::default()
    }

    /// The recorded events, in emission order (which is nondecreasing in
    /// cycle per core).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the sink, returning the events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl Tracer for VecTracer {
    const ENABLED: bool = true;

    fn record(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

/// A bounded ring buffer: keeps the most recent `capacity` events and
/// counts what it dropped — the flight-recorder sink for long workload
/// runs where only the tail matters.
#[derive(Debug, Clone)]
pub struct RingTracer {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingTracer {
    /// A ring holding up to `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> RingTracer {
        assert!(capacity > 0, "ring tracer needs capacity");
        RingTracer {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// The retained events as a vector, oldest first.
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        self.buf.iter().copied().collect()
    }

    /// How many events were evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl Tracer for RingTracer {
    const ENABLED: bool = true;

    fn record(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }
}

/// Counters-only sink: per-kind event counts plus per-structure occupancy
/// histograms, with no per-event storage — cheap enough to leave on for
/// full workload runs.
///
/// The occupancy histograms are the raw series behind Figure 9's stall
/// attribution: a workload whose dispatch stalls are charged to the
/// SQ/SB must also show the SQ/SB occupancy histogram pinned at
/// capacity, and vice versa — a cross-check of `results/fig9.txt`.
#[derive(Debug, Clone, Default)]
pub struct CountersTracer {
    counts: [u64; EVENT_KINDS],
    rob_hist: Vec<u64>,
    lq_hist: Vec<u64>,
    sq_hist: Vec<u64>,
    squashed_uops: u64,
}

impl CountersTracer {
    /// A zeroed counter sink.
    pub fn new() -> CountersTracer {
        CountersTracer::default()
    }

    /// Events recorded for `kind` (any payload).
    pub fn count_of(&self, kind: &EventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Count of events whose [`EventKind::label`] equals `label`, or 0.
    pub fn count_by_label(&self, label: &str) -> u64 {
        crate::event::label_index(label).map_or(0, |i| self.counts[i])
    }

    /// Total µops removed by squashes.
    pub fn squashed_uops(&self) -> u64 {
        self.squashed_uops
    }

    /// Occupancy histogram of the ROB: `hist[n]` = cycles observed with
    /// exactly `n` entries in use (summed over cores).
    pub fn rob_histogram(&self) -> &[u64] {
        &self.rob_hist
    }

    /// Occupancy histogram of the LQ.
    pub fn lq_histogram(&self) -> &[u64] {
        &self.lq_hist
    }

    /// Occupancy histogram of the SQ/SB.
    pub fn sq_histogram(&self) -> &[u64] {
        &self.sq_hist
    }

    /// Fraction of sampled cycles a structure spent at or above
    /// occupancy `n` (0.0 when nothing was sampled).
    pub fn fraction_at_or_above(hist: &[u64], n: usize) -> f64 {
        sa_metrics::OccupancyHists::fraction_at_or_above(hist, n)
    }

    /// Bridges this sink's histograms into the shared `sa-metrics`
    /// representation, so trace-derived occupancy feeds the same registry
    /// and exporters as the always-on per-core histograms.
    pub fn occupancy_hists(&self) -> sa_metrics::OccupancyHists {
        sa_metrics::OccupancyHists::from_slices(&self.rob_hist, &self.lq_hist, &self.sq_hist)
    }
}

fn bump(hist: &mut Vec<u64>, value: usize) {
    if hist.len() <= value {
        hist.resize(value + 1, 0);
    }
    hist[value] += 1;
}

impl Tracer for CountersTracer {
    const ENABLED: bool = true;

    fn record(&mut self, ev: TraceEvent) {
        self.counts[ev.kind.index()] += 1;
        match ev.kind {
            EventKind::Occupancy { rob, lq, sq } => {
                bump(&mut self.rob_hist, rob as usize);
                bump(&mut self.lq_hist, lq as usize);
                bump(&mut self.sq_hist, sq as usize);
            }
            EventKind::Squash { uops, .. } => self.squashed_uops += uops,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SquashKind;
    use sa_isa::CoreId;

    fn ev(cycle: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            cycle,
            core: CoreId(0),
            kind,
        }
    }

    #[test]
    fn vec_tracer_records_in_order() {
        let mut t = VecTracer::new();
        for i in 0..10 {
            t.emit(|| ev(i, EventKind::Issue { rob: i }));
        }
        assert_eq!(t.events().len(), 10);
        assert!(t.events().windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut t = RingTracer::new(4);
        for i in 0..10u64 {
            t.record(ev(i, EventKind::Issue { rob: i }));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        let cycles: Vec<u64> = t.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
    }

    #[test]
    fn counters_build_occupancy_histograms() {
        let mut t = CountersTracer::new();
        t.record(ev(
            0,
            EventKind::Occupancy {
                rob: 2,
                lq: 0,
                sq: 1,
            },
        ));
        t.record(ev(
            1,
            EventKind::Occupancy {
                rob: 2,
                lq: 1,
                sq: 1,
            },
        ));
        t.record(ev(
            2,
            EventKind::Occupancy {
                rob: 5,
                lq: 0,
                sq: 0,
            },
        ));
        t.record(ev(
            2,
            EventKind::Squash {
                from_rob: 3,
                uops: 7,
                cause: SquashKind::MemOrder,
                by: None,
                line: None,
            },
        ));
        assert_eq!(t.rob_histogram()[2], 2);
        assert_eq!(t.rob_histogram()[5], 1);
        assert_eq!(t.lq_histogram()[0], 2);
        assert_eq!(t.squashed_uops(), 7);
        assert_eq!(t.count_by_label("occupancy"), 3);
        assert_eq!(t.count_by_label("squash"), 1);
        assert_eq!(t.count_by_label("no-such-event"), 0);
        let f = CountersTracer::fraction_at_or_above(t.rob_histogram(), 3);
        assert!((f - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(CountersTracer::fraction_at_or_above(&[], 3), 0.0);
        let occ = t.occupancy_hists();
        assert_eq!(occ.rob, t.rob_histogram());
        assert_eq!(occ.cycles_sampled(), 3);
    }
}
