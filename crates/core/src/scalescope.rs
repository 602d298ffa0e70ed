//! sa-scalescope epoch/barrier telemetry for the parallel engine.
//!
//! The conservative-lookahead engine's wall time decomposes per shard
//! into exactly four phases each epoch: local **work** (the two
//! `run_span` passes), **barrier-A wait** (the publish/decide
//! rendezvous), **exchange** (routing the outbox and injecting the
//! inbox), and **barrier-B wait** (the delivery rendezvous). This
//! module sums that anatomy per shard, so a slow parallel run can be
//! attributed instead of guessed at.
//!
//! Two kinds of fields coexist and must not be confused:
//!
//! * **Sim-side** fields (`epochs`, `sim_cycles`, `events_out/in`, the
//!   epoch-cycle and exchange-size histograms, `lookahead`) are pure
//!   functions of the bit-exact simulation and are deterministic for a
//!   given `(config, trace, threads)` triple.
//! * **Host-side** fields (`*_ns`, `last_arriver_*`) measure real time
//!   and OS scheduling; they vary run to run and are excluded from the
//!   determinism assertions in `tests/scalescope.rs`.
//!
//! Neither kind feeds back into simulated time — telemetry is written
//! around the phases the engine already executes, so the bit-exactness
//! contract (`tests/parallel_equivalence.rs`, `tests/pinned_stats.rs`)
//! holds with telemetry enabled. When the parallel engine is not used
//! the telemetry is not merely zeroed, it is never allocated:
//! `Multicore::scalescope()` returns `None` after serial runs.
//!
//! Reconciliation invariants (enforced by `tests/scalescope.rs`):
//!
//! * every shard's `sim_cycles` equals the report's total cycle count —
//!   each shard walks the same virtual clock from 0 to the finish;
//! * per barrier, the shards' `last_arriver_*` counts sum to the total
//!   number of crossings — exactly one shard arrives last each time;
//! * `work + wait + exchange` covers ≥ 90% of `threads × wall_ns` for
//!   any non-trivial run — the epoch loop has no other phase to hide
//!   time in.

use sa_metrics::{JsonWriter, Log2Hist, Registry};

/// One epoch of one shard, in host nanoseconds. Phase order within the
/// epoch loop: work (phase 1 + phase 2 spans), barrier-A wait, exchange
/// (outbox routing + inbox injection, which straddle barrier B),
/// barrier-B wait.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochSlice {
    /// Local simulation time (both `run_span` passes).
    pub work_ns: u64,
    /// Blocked at the publish/decide barrier.
    pub wait_a_ns: u64,
    /// Routing the outbox and injecting the inbox.
    pub exchange_ns: u64,
    /// Blocked at the delivery barrier.
    pub wait_b_ns: u64,
}

/// One shard's telemetry, accumulated inside the worker loop and
/// returned with the shard.
#[derive(Debug, Clone, Default)]
pub struct ShardScope {
    /// Shard index.
    pub shard: usize,
    /// Barrier-A crossings (== epochs entered, including the final one).
    pub epochs: u64,
    /// Barrier-B crossings (the final epoch returns before barrier B).
    pub epochs_exchanged: u64,
    /// Σ virtual cycles this shard's clock advanced (== total cycles).
    pub sim_cycles: u64,
    /// Host ns in local simulation.
    pub work_ns: u64,
    /// Host ns blocked at barrier A.
    pub wait_a_ns: u64,
    /// Host ns blocked at barrier B.
    pub wait_b_ns: u64,
    /// Host ns routing/injecting cross-shard events.
    pub exchange_ns: u64,
    /// Cross-shard events this shard sent.
    pub events_out: u64,
    /// Cross-shard events this shard received.
    pub events_in: u64,
    /// Crossings of barrier A where this shard arrived last (it made
    /// everyone else wait — the critical shard).
    pub last_arriver_a: u64,
    /// Crossings of barrier B where this shard arrived last.
    pub last_arriver_b: u64,
    /// Distribution of virtual cycles advanced per epoch.
    pub epoch_cycles: Log2Hist,
    /// Distribution of outbox sizes per exchange.
    pub exchange_events: Log2Hist,
}

impl ShardScope {
    /// Closes out one epoch: folds the slice into the aggregates.
    pub fn record_epoch(&mut self, slice: EpochSlice, cycles: u64) {
        self.work_ns += slice.work_ns;
        self.wait_a_ns += slice.wait_a_ns;
        self.wait_b_ns += slice.wait_b_ns;
        self.exchange_ns += slice.exchange_ns;
        self.epoch_cycles.observe(cycles);
    }

    /// Host ns accounted to one of the four phases.
    pub fn accounted_ns(&self) -> u64 {
        self.work_ns + self.wait_a_ns + self.wait_b_ns + self.exchange_ns
    }
}

/// The merged telemetry of one parallel run, stored on `Multicore`
/// beside `parallel_mem_stats` — outside `Report`, so the
/// engine-equivalence assertions never see it.
#[derive(Debug, Clone, Default)]
pub struct ParallelScope {
    /// Worker threads (shards).
    pub threads: usize,
    /// Conservative lookahead L in cycles (epoch length), as computed
    /// from the topology — the mesh's distance-aware bound.
    pub lookahead: u64,
    /// Topology spelling the lookahead was computed for (`fc`,
    /// `mesh:<w>`).
    pub topology: String,
    /// Host ns for the whole parallel region (spawn to join).
    pub wall_ns: u64,
    /// Barrier-A crossings (identical for every shard).
    pub epochs: u64,
    /// Per-shard telemetry, indexed by shard id.
    pub per_shard: Vec<ShardScope>,
}

impl ParallelScope {
    /// Σ work over shards.
    pub fn work_ns(&self) -> u64 {
        self.per_shard.iter().map(|s| s.work_ns).sum()
    }

    /// Σ barrier wait (A + B) over shards.
    pub fn wait_ns(&self) -> u64 {
        self.per_shard
            .iter()
            .map(|s| s.wait_a_ns + s.wait_b_ns)
            .sum()
    }

    /// Σ exchange over shards.
    pub fn exchange_ns(&self) -> u64 {
        self.per_shard.iter().map(|s| s.exchange_ns).sum()
    }

    /// Fraction of `threads × wall_ns` accounted to work/wait/exchange —
    /// the reconciliation ratio (≥ 0.9 for non-trivial runs).
    pub fn coverage(&self) -> f64 {
        let accounted: u64 = self.per_shard.iter().map(|s| s.accounted_ns()).sum();
        accounted as f64 / ((self.threads as u64 * self.wall_ns).max(1)) as f64
    }

    /// Work / wait / exchange as fractions of total accounted time.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let total = (self.work_ns() + self.wait_ns() + self.exchange_ns()).max(1) as f64;
        (
            self.work_ns() as f64 / total,
            self.wait_ns() as f64 / total,
            self.exchange_ns() as f64 / total,
        )
    }

    /// Total cross-shard events exchanged (each counted once, at the
    /// sender).
    pub fn events_exchanged(&self) -> u64 {
        self.per_shard.iter().map(|s| s.events_out).sum()
    }

    /// Registers the `sa_parallel_*` Prometheus families.
    pub fn register(&self, reg: &mut Registry) {
        reg.gauge(
            "sa_parallel_threads",
            "shard worker threads of the last parallel run",
            &[],
            self.threads as f64,
        );
        reg.gauge(
            "sa_parallel_lookahead_cycles",
            "conservative lookahead L (epoch length)",
            &[("topology", &self.topology)],
            self.lookahead as f64,
        );
        reg.counter(
            "sa_parallel_epochs_total",
            "epoch-barrier rounds executed",
            &[],
            self.epochs,
        );
        reg.counter(
            "sa_parallel_wall_ns",
            "host ns for the parallel region",
            &[],
            self.wall_ns,
        );
        reg.gauge(
            "sa_parallel_coverage",
            "fraction of threads*wall accounted to work/wait/exchange",
            &[],
            self.coverage(),
        );
        let mut epoch_cycles = Log2Hist::new();
        let mut exchange_events = Log2Hist::new();
        for s in &self.per_shard {
            let shard = s.shard.to_string();
            reg.counter(
                "sa_parallel_work_ns_total",
                "host ns in local simulation per shard",
                &[("shard", &shard)],
                s.work_ns,
            );
            reg.counter(
                "sa_parallel_barrier_wait_ns_total",
                "host ns blocked at the epoch barriers per shard",
                &[("shard", &shard), ("barrier", "a")],
                s.wait_a_ns,
            );
            reg.counter(
                "sa_parallel_barrier_wait_ns_total",
                "host ns blocked at the epoch barriers per shard",
                &[("shard", &shard), ("barrier", "b")],
                s.wait_b_ns,
            );
            reg.counter(
                "sa_parallel_exchange_ns_total",
                "host ns routing/injecting cross-shard events per shard",
                &[("shard", &shard)],
                s.exchange_ns,
            );
            reg.counter(
                "sa_parallel_last_arriver_total",
                "barrier crossings where the shard arrived last",
                &[("shard", &shard), ("barrier", "a")],
                s.last_arriver_a,
            );
            reg.counter(
                "sa_parallel_last_arriver_total",
                "barrier crossings where the shard arrived last",
                &[("shard", &shard), ("barrier", "b")],
                s.last_arriver_b,
            );
            reg.counter(
                "sa_parallel_events_out_total",
                "cross-shard events sent per shard",
                &[("shard", &shard)],
                s.events_out,
            );
            epoch_cycles.merge(&s.epoch_cycles);
            exchange_events.merge(&s.exchange_events);
        }
        reg.log2_histogram(
            "sa_parallel_epoch_cycles",
            "virtual cycles advanced per shard-epoch",
            &[],
            &epoch_cycles,
        );
        reg.log2_histogram(
            "sa_parallel_exchange_size_events",
            "outbox size per barrier-B exchange",
            &[],
            &exchange_events,
        );
    }

    /// Writes the telemetry as a JSON object value (caller supplies the
    /// surrounding key) — the `parallel` section of the
    /// `sa-bench-scalescope-v1` schema.
    pub fn write_json(&self, j: &mut JsonWriter) {
        let (work, wait, exchange) = self.fractions();
        j.begin_object()
            .field_uint("threads", self.threads as u64)
            .field_uint("lookahead", self.lookahead)
            .field_str("topology", &self.topology)
            .field_uint("wall_ns", self.wall_ns)
            .field_uint("epochs", self.epochs)
            .field_float("coverage", self.coverage())
            .field_float("work_frac", work)
            .field_float("wait_frac", wait)
            .field_float("exchange_frac", exchange)
            .field_uint("events_exchanged", self.events_exchanged())
            .key("shards")
            .begin_array();
        for s in &self.per_shard {
            j.begin_object()
                .field_uint("shard", s.shard as u64)
                .field_uint("sim_cycles", s.sim_cycles)
                .field_uint("work_ns", s.work_ns)
                .field_uint("wait_a_ns", s.wait_a_ns)
                .field_uint("wait_b_ns", s.wait_b_ns)
                .field_uint("exchange_ns", s.exchange_ns)
                .field_uint("events_out", s.events_out)
                .field_uint("events_in", s.events_in)
                .field_uint("last_arriver_a", s.last_arriver_a)
                .field_uint("last_arriver_b", s.last_arriver_b)
                .end_object();
        }
        j.end_array().end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope_with(shards: usize) -> ParallelScope {
        let mut p = ParallelScope {
            threads: shards,
            lookahead: 7,
            topology: "fc".to_string(),
            wall_ns: 1_000,
            epochs: 2,
            ..ParallelScope::default()
        };
        for i in 0..shards {
            let mut s = ShardScope {
                shard: i,
                epochs: 2,
                ..ShardScope::default()
            };
            s.record_epoch(
                EpochSlice {
                    work_ns: 400,
                    wait_a_ns: 300,
                    exchange_ns: 100,
                    wait_b_ns: 150,
                },
                7,
            );
            s.record_epoch(
                EpochSlice {
                    work_ns: 30,
                    ..EpochSlice::default()
                },
                7,
            );
            p.per_shard.push(s);
        }
        p
    }

    #[test]
    fn coverage_and_fractions_reconcile() {
        let p = scope_with(2);
        // Each shard accounts 980 ns of the 1000 ns wall.
        assert!((p.coverage() - 0.98).abs() < 1e-9);
        let (w, wait, x) = p.fractions();
        assert!((w + wait + x - 1.0).abs() < 1e-9);
        // Per shard: 430 work, 450 wait (300 A + 150 B), 100 exchange.
        assert!(wait > w && w > x);
    }

    #[test]
    fn registry_families_export() {
        let p = scope_with(2);
        let mut reg = Registry::new();
        p.register(&mut reg);
        let text = reg.prometheus_text();
        assert!(text.contains("sa_parallel_epochs_total"));
        assert!(text.contains("sa_parallel_barrier_wait_ns_total"));
        assert!(text.contains("shard=\"1\""));
        assert!(text.contains("sa_parallel_epoch_cycles"));
    }
}
