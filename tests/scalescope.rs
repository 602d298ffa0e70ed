//! sa-scalescope's reconciliation contract: the epoch/barrier/NoC
//! telemetry must *explain* the parallel run, not merely decorate it.
//!
//! * Sim-side invariants — every shard's virtual clock covers the whole
//!   run, last-arriver attributions sum to the barrier crossings, the
//!   link matrix reconciles with the network's own flit counters — hold
//!   exactly, every run.
//! * Sim-side fields are deterministic across shard counts: the NoC
//!   picture a 4-thread run paints is the same one the serial engine
//!   paints (host-side `*_ns` fields are explicitly excluded — they
//!   measure OS scheduling).
//! * And the telemetry is zero-cost when the parallel engine is off:
//!   serial runs never allocate a scope at all.

use sa_isa::{ConsistencyModel, Reg, Trace, TraceBuilder};
use sa_sim::{EngineMode, Multicore, NocStats, ParallelScope, SimConfig, Topology};

/// An 8-core radix run big enough that every shard crosses many epoch
/// barriers and the spawn/join overhead is noise.
fn radix_cfg(topo: Topology, engine: EngineMode) -> (SimConfig, Vec<Trace>) {
    let w = sa_workloads::by_name("radix").expect("radix exists");
    let traces = w.generate(8, 300, 42);
    let cfg = SimConfig::default()
        .with_model(ConsistencyModel::Ibm370SlfSosKey)
        .with_cores(8)
        .with_topology(topo)
        .with_engine(engine);
    (cfg, traces)
}

fn run_parallel(topo: Topology, threads: usize) -> (Multicore, u64) {
    let (cfg, traces) = radix_cfg(topo, EngineMode::Parallel { threads });
    let mut sim = Multicore::new(cfg, traces);
    let report = sim.run(u64::MAX).expect("parallel run completes");
    (sim, report.cycles)
}

/// Every shard's `sim_cycles` must equal the final cycle count (each
/// shard walks the same virtual clock 0..end), exactly one shard
/// arrives last at each barrier crossing, the epoch-cycle histogram
/// holds one observation per epoch, and work+wait+exchange covers
/// ≥ 90% of `threads × wall` — the loop has nowhere else to hide time.
#[test]
fn epoch_and_arrival_invariants_reconcile() {
    let threads = 4;
    let (sim, cycles) = run_parallel(Topology::FullyConnected, threads);
    let scope: &ParallelScope = sim.scalescope().expect("parallel run records a scope");

    assert_eq!(scope.threads, threads);
    assert!(scope.lookahead >= 1, "epochs need a positive lookahead");
    assert_eq!(scope.topology, "fc");
    assert_eq!(scope.per_shard.len(), threads);
    assert!(scope.epochs > 4, "a real run crosses many barriers");

    for s in &scope.per_shard {
        assert_eq!(
            s.sim_cycles, cycles,
            "shard {}: virtual clock must cover the whole run",
            s.shard
        );
        assert_eq!(
            s.epochs, scope.epochs,
            "shard {}: barrier A is a full rendezvous",
            s.shard
        );
        assert_eq!(
            s.epoch_cycles.count(),
            s.epochs,
            "shard {}: one epoch-length observation per epoch",
            s.shard
        );
        // The final epoch returns before barrier B.
        assert!(s.epochs_exchanged < s.epochs);
    }

    let a_crossings: u64 = scope.per_shard.iter().map(|s| s.last_arriver_a).sum();
    let b_crossings: u64 = scope.per_shard.iter().map(|s| s.last_arriver_b).sum();
    assert_eq!(
        a_crossings, scope.epochs,
        "exactly one shard arrives last per barrier-A crossing"
    );
    assert_eq!(
        b_crossings, scope.per_shard[0].epochs_exchanged,
        "exactly one shard arrives last per barrier-B crossing"
    );

    // Cross-shard events are counted once at the sender and once at the
    // receiver; the two tallies must agree.
    let sent: u64 = scope.per_shard.iter().map(|s| s.events_out).sum();
    let received: u64 = scope.per_shard.iter().map(|s| s.events_in).sum();
    assert_eq!(sent, received, "every routed event is injected");

    let cov = scope.coverage();
    assert!(
        cov >= 0.9,
        "work+wait+exchange must cover >= 90% of threads*wall, got {cov:.3}"
    );
    assert!(cov <= 1.02, "coverage cannot exceed the wall, got {cov:.3}");

    let (w, wait, x) = scope.fractions();
    assert!((w + wait + x - 1.0).abs() < 1e-9);
}

/// The link matrix and latency histogram are views of the same network
/// the `Report` already counts: totals must reconcile exactly, and the
/// per-bank occupancy counters must match the directory's own deferral
/// statistics.
#[test]
fn noc_totals_reconcile_with_report_counters() {
    let (cfg, traces) = radix_cfg(
        Topology::FullyConnected,
        EngineMode::Parallel { threads: 4 },
    );
    let mut sim = Multicore::new(cfg, traces);
    let report = sim.run(u64::MAX).expect("parallel run completes");
    let noc = sim.noc_stats();
    let mem = report.mem;
    assert_eq!(
        noc.total_flits(),
        mem.flits_sent,
        "link matrix vs flit counter"
    );
    assert_eq!(
        noc.total_msgs(),
        mem.msgs_sent,
        "link matrix vs msg counter"
    );
    assert_eq!(
        noc.latency.count(),
        mem.msgs_sent,
        "one latency sample per msg"
    );

    let scope_rejects: u64 = noc.banks.iter().map(|b| b.rejects).sum();
    let dir_deferred: u64 = mem.per_bank.iter().map(|b| b.deferred).sum();
    assert_eq!(scope_rejects, dir_deferred, "bank rejects vs deferrals");
}

/// Sim-side NoC telemetry is a pure function of the bit-exact
/// simulation: serial (threads=1 falls back), 2-shard and 4-shard runs
/// must produce identical link matrices, latency histograms, bank
/// counters and storm rankings.
#[test]
fn noc_telemetry_is_engine_invariant() {
    for topo in [Topology::FullyConnected, Topology::Mesh2D { width: 4 }] {
        let snapshots: Vec<NocStats> = [1usize, 2, 4]
            .into_iter()
            .map(|threads| run_parallel(topo, threads).0.noc_stats())
            .collect();
        assert!(snapshots[0].total_msgs() > 0, "workload exercises the NoC");
        assert_eq!(snapshots[0], snapshots[1], "{topo:?}: serial vs 2 shards");
        assert_eq!(snapshots[0], snapshots[2], "{topo:?}: serial vs 4 shards");
    }
}

/// Serial engines never pay for the scope — not zeroed, not allocated.
#[test]
fn serial_runs_allocate_no_scope() {
    for engine in [EngineMode::EventDriven, EngineMode::Lockstep] {
        let (cfg, traces) = radix_cfg(Topology::FullyConnected, engine);
        let mut sim = Multicore::new(cfg, traces);
        sim.run(u64::MAX).expect("serial run completes");
        assert!(
            sim.scalescope().is_none(),
            "{engine}: serial runs must not allocate telemetry"
        );
    }
}

/// A deliberate invalidation storm — seven sharers, then a writer — is
/// detected, attributed to the right line, and ranked by fan-out.
#[test]
fn invalidation_storm_is_detected_and_ranked() {
    let hot = 0x4000u64;
    let cold = 0x9000u64;
    let mut traces = Vec::new();
    for core in 0..8usize {
        let mut b = TraceBuilder::new();
        if core == 0 {
            // Give the sharers time to complete their GetS first.
            for _ in 0..600 {
                b.nop();
            }
            b.store_imm(hot, 1); // GetM: invalidates every sharer
            b.store_imm(cold + 64 * core as u64, 2);
        } else {
            b.load(Reg::new(0), hot);
            b.store_imm(cold + 64 * core as u64, 2);
        }
        traces.push(b.build());
    }
    let cfg = SimConfig::default()
        .with_model(ConsistencyModel::Ibm370SlfSosKey)
        .with_cores(8);
    let mut sim = Multicore::new(cfg, traces);
    sim.run(u64::MAX).expect("storm run completes");

    let noc = sim.noc_stats();
    assert!(
        !noc.storms.is_empty(),
        "a 7-sharer invalidation burst must register as a storm"
    );
    let top = &noc.storms[0];
    assert!(
        top.fanout >= 4,
        "top storm fan-out must clear the threshold, got {}",
        top.fanout
    );
    assert_eq!(
        noc.max_storm_fanout(),
        top.fanout,
        "ranking is fan-out desc"
    );
    for pair in noc.storms.windows(2) {
        assert!(pair[0].fanout >= pair[1].fanout, "storms ranked by fan-out");
    }
}
