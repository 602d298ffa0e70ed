//! The parallel engine's contract: sharding the machine across worker
//! threads is an execution strategy, not a semantic change. For every
//! workload, consistency configuration, topology and shard count, the
//! epoch-barrier engine must produce a [`Report`] bit-identical to the
//! serial reference — same final cycle count, same per-core statistics
//! and CPI stacks, same time-series samples, same memory-system
//! counters — identical architectural outcomes (registers and memory),
//! and, when traced, the *exact* serial event stream (pinned here
//! through the forensics analyzer's blame matrices).

use sa_forensics::{Forensics, Summary};
use sa_isa::{ConsistencyModel, CoreId, Reg, Trace};
use sa_litmus::ast::ClassifiedTest;
use sa_litmus::{suite, LitmusTest};
use sa_sim::{EngineMode, Multicore, Report, SimConfig, Topology};

/// Shard counts every cell sweeps. 1 exercises the serial fallback; 2
/// and 4 exercise real barriers (4 > the 2-core litmus tests' core
/// count, pinning the thread clamp too).
const THREADS: [usize; 3] = [1, 2, 4];

/// Both first-class topologies for `n` cores: the fully-connected
/// default and the widest rectangular mesh.
fn topologies(n: usize) -> Vec<Topology> {
    let width = (1..=n)
        .rev()
        .find(|w| n.is_multiple_of(*w) && w * w <= n * 2);
    vec![
        Topology::FullyConnected,
        Topology::Mesh2D {
            width: width.expect("every core count has a rectangular mesh"),
        },
    ]
}

/// Runs the same machine serially and sharded and asserts the reports
/// are identical; returns both simulators for outcome comparison.
fn run_both(
    cfg: SimConfig,
    traces: Vec<Trace>,
    threads: usize,
    label: &str,
) -> (Multicore, Multicore) {
    let mut ser = Multicore::new(cfg.clone(), traces.clone());
    let mut par = Multicore::new(cfg.with_engine(EngineMode::Parallel { threads }), traces);
    let rs: Report = ser.run(u64::MAX).expect("serial engine completes");
    let rp: Report = par.run(u64::MAX).expect("parallel engine completes");
    assert_eq!(rs.cycles, rp.cycles, "{label}: final cycle counts differ");
    assert_eq!(rs, rp, "{label}: reports differ");
    (ser, par)
}

/// Litmus programs across all five configurations, both topologies and
/// all shard counts: identical reports and identical architectural
/// outcomes (every observer register, every shared variable).
#[test]
fn litmus_outcomes_and_reports_match() {
    let cells: [fn() -> ClassifiedTest; 4] = [suite::n6, suite::mp, suite::sb, suite::iriw];
    for ct in cells.map(|f| f()) {
        let n = ct.test.threads.len();
        for model in ConsistencyModel::ALL {
            for topo in topologies(n) {
                for threads in THREADS {
                    let traces = ct.test.to_traces();
                    let cfg = SimConfig::default()
                        .with_model(model)
                        .with_cores(n)
                        .with_topology(topo);
                    let label = format!("{} under {model} {topo:?} x{threads}", ct.test.name);
                    let (ser, par) = run_both(cfg, traces, threads, &label);
                    for t in 0..n {
                        for slot in 0..ct.test.loads_in(t) {
                            let r = Reg::new(slot as u8);
                            assert_eq!(
                                ser.core(CoreId::from_index(t)).arch_reg(r),
                                par.core(CoreId::from_index(t)).arch_reg(r),
                                "{label}: thread {t} r{slot}"
                            );
                        }
                    }
                    for v in ct.test.vars() {
                        let a = LitmusTest::var_addr(v);
                        assert_eq!(
                            ser.memory().read(a, 8),
                            par.memory().read(a, 8),
                            "{label}: var {v:?}"
                        );
                    }
                }
            }
        }
    }
}

/// Two 8-core workloads with a fine sampling interval, across the full
/// configuration × topology × shard-count matrix: the sharded engine
/// must land every sample the serial engine does, with identical
/// contents, and identical memory-system counters.
#[test]
fn workload_reports_and_samples_match() {
    for name in ["dedup", "barnes"] {
        let w = sa_workloads::by_name(name).expect("pinned workload exists");
        for model in ConsistencyModel::ALL {
            for topo in topologies(8) {
                for threads in THREADS {
                    let traces = w.generate(8, 800, 99);
                    let cfg = SimConfig::default()
                        .with_model(model)
                        .with_cores(8)
                        .with_topology(topo)
                        .with_sample_interval(64);
                    let label = format!("{name} under {model} {topo:?} x{threads}");
                    let (ser, par) = run_both(cfg, traces, threads, &label);
                    assert_eq!(
                        ser.memory(),
                        par.memory(),
                        "{label}: final memory images differ"
                    );
                }
            }
        }
    }
}

/// Traced parallel runs reproduce the serial event stream exactly: the
/// forensics analyzer — which consumes every event in order and links
/// episodes across cores — must build the same summary, down to the
/// cross-core blame matrix, from both engines.
#[test]
fn forensics_blame_matrices_match() {
    let run = |cfg: SimConfig, traces: Vec<Trace>, n: usize| -> Summary {
        let mut sim = Multicore::with_tracer(cfg, traces, Forensics::new(n));
        let report = sim.run(u64::MAX).expect("run completes");
        sim.into_tracer().finish(report.cycles)
    };
    for model in ConsistencyModel::ALL {
        // n6 is the paper's §III blame walkthrough; x264 is contended.
        let ct = suite::n6();
        let n = ct.test.threads.len();
        for threads in [2usize, 4] {
            let cfg = SimConfig::default().with_model(model).with_cores(n);
            let ser = run(cfg.clone(), ct.test.to_traces(), n);
            let par = run(
                cfg.with_engine(EngineMode::Parallel { threads }),
                ct.test.to_traces(),
                n,
            );
            assert_eq!(ser.blame, par.blame, "n6/{model} x{threads}: blame");
            assert_eq!(ser, par, "n6/{model} x{threads}: full summary");
        }
        let w = sa_workloads::by_name("x264").expect("x264 exists");
        let cfg = SimConfig::default().with_model(model).with_cores(8);
        let ser = run(cfg.clone(), w.generate(8, 300, 42), 8);
        let par = run(
            cfg.with_engine(EngineMode::Parallel { threads: 4 }),
            w.generate(8, 300, 42),
            8,
        );
        assert_eq!(ser.blame, par.blame, "x264/{model}: blame matrices");
        assert_eq!(ser, par, "x264/{model}: full summaries");
    }
}

/// Many-core cells complete and stay bit-exact when sharded — the
/// scale the parallel engine exists for (radix, whose invalidation
/// storms stress the directory, on small traces so the suite stays
/// quick): 8 to 256 cores on both topologies under 4 shards, and the
/// 64-core mesh under every configuration on 2 shards.
#[test]
fn many_core_mesh_matches() {
    let w = sa_workloads::by_name("radix").expect("radix exists");
    let cfg = |n: usize, topo: Topology| SimConfig::default().with_cores(n).with_topology(topo);
    let mesh16 = Topology::Mesh2D { width: 16 };
    run_both(
        cfg(256, mesh16),
        w.generate(256, 60, 7),
        4,
        "radix x256 mesh:16",
    );
    for n in [8, 64, 128, 256] {
        for topo in topologies(n) {
            let label = format!("radix x{n} {topo} scale 100");
            run_both(cfg(n, topo), w.generate(n, 100, 42), 4, &label);
        }
    }
    let mesh8 = Topology::Mesh2D { width: 8 };
    let traces = w.generate(64, 500, 42);
    for model in ConsistencyModel::ALL {
        let label = format!("radix x64 mesh:8 scale 500 under {model}");
        run_both(cfg(64, mesh8).with_model(model), traces.clone(), 2, &label);
    }
}
