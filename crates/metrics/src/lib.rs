//! # sa-metrics — always-on aggregate observability
//!
//! `sa-trace` answers *what happened at cycle N* with a per-event stream;
//! it is the right tool for litmus-scale forensics and far too heavy for
//! full workload sweeps. This crate answers the complementary questions
//! the paper's evaluation actually argues over — *where did every cycle
//! go* (Table IV, Figures 9–10) and *when inside the run did the gate or
//! SB pressure happen* — with near-zero-cost aggregate structures that
//! stay on for every run:
//!
//! * [`cpi::CpiStack`] — a top-down retire-slot account: every
//!   `width × cycles` slot of a core is attributed to exactly one
//!   [`cpi::CpiCategory`] (retiring, gate-stall, SLFSpec-SB-wait,
//!   NoSpec-block, memory-miss, squash refill, branch redirect,
//!   frontend/empty, other-backend), with the hard invariant that the
//!   categories sum to the total slot count. This generalizes Figure 9's
//!   three dispatch-stall bars into a full CPI stack and decomposes the
//!   Figure 10 deltas between the five configurations.
//! * [`sample::Sampler`] — a bounded interval time-series: every N cycles
//!   a [`sample::Sample`] snapshots IPC, window occupancy, SB depth, gate
//!   open/closed fraction, outstanding misses and squash counts, so a
//!   run's *trajectory* (x264's contention bursts, mcf's eviction storms)
//!   is visible instead of one end-of-run average.
//! * [`occupancy::OccupancyHists`] — per-structure occupancy histograms,
//!   recorded always-on by the core (previously only available through
//!   `sa-trace`'s counters sink; that sink now bridges into the same
//!   representation).
//! * [`registry::Registry`] + exporters — a flat metrics registry with
//!   hand-written, fully offline Prometheus text-format and CSV/JSON
//!   exporters (same style as `sa-trace::chrome`).
//!
//! The crate depends only on `sa-isa`; the simulator layers (`sa-ooo`,
//! `sa-sim`) feed it, and the `sa-bench` binaries and sa-serve export
//! it (`results/`, `/metrics`).

pub mod cpi;
pub mod hist;
pub mod json;
pub mod jsonval;
pub mod occupancy;
pub mod registry;
pub mod sample;

pub use cpi::{CpiCategory, CpiStack, CPI_CATEGORIES};
pub use hist::{log2_bucket, log2_bucket_bound, Log2Hist, LOG2_BUCKETS};
pub use json::JsonWriter;
pub use jsonval::JsonValue;
pub use occupancy::OccupancyHists;
pub use registry::Registry;
pub use sample::{samples_csv, Sample, SampleInput, Sampler};

/// Percentage `100 * num / den`, 0.0 when the denominator is zero.
///
/// The single shared definition of the zero-denominator-safe percentage
/// previously duplicated across `sa_ooo::stats` and `sa_sim::report`.
pub fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// Plain ratio `num / den`, 0.0 when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-core metrics the simulator accumulates alongside `CoreStats`: the
/// retire-slot CPI stack and the window-occupancy histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreMetrics {
    /// Retire-slot attribution (sums to `width × cycles`).
    pub cpi: CpiStack,
    /// ROB/LQ/SQ-SB occupancy histograms, one bump per structure per
    /// cycle.
    pub occ: OccupancyHists,
}

impl CoreMetrics {
    /// Pre-sizes the occupancy histograms so the per-cycle bump never
    /// reallocates.
    pub fn with_capacities(rob: usize, lq: usize, sq: usize) -> CoreMetrics {
        CoreMetrics {
            cpi: CpiStack::default(),
            occ: OccupancyHists::with_capacities(rob, lq, sq),
        }
    }

    /// Merges another core's metrics into this one.
    pub fn merge(&mut self, o: &CoreMetrics) {
        self.cpi.merge(&o.cpi);
        self.occ.merge(&o.occ);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_and_ratio_handle_zero_denominators() {
        assert_eq!(pct(5, 0), 0.0);
        assert!((pct(24, 100) - 24.0).abs() < 1e-12);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert!((ratio(3.0, 2.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn core_metrics_merge_combines_both_halves() {
        let mut a = CoreMetrics::with_capacities(4, 2, 2);
        a.cpi.add(CpiCategory::Retiring, 10);
        a.occ.record(1, 0, 0);
        let mut b = CoreMetrics::default();
        b.cpi.add(CpiCategory::GateStall, 3);
        b.occ.record(1, 1, 1);
        a.merge(&b);
        assert_eq!(a.cpi.total(), 13);
        assert_eq!(a.occ.rob[1], 2);
    }
}
