//! Experiment runner shared by the table/figure binaries and the
//! micro-benches.
//!
//! Every binary regenerates one artifact of the paper:
//!
//! | binary        | artifact |
//! |---------------|----------|
//! | `table1`      | Table I (atomicity taxonomy) |
//! | `table2`      | Table II (fig5 outcomes under x86 vs 370) |
//! | `table3`      | Table III (system configuration) |
//! | `table4`      | Table IV (per-benchmark characterization under 370-SLFSoS-key) |
//! | `fig9`        | Figure 9 (stall breakdown, 5 configs) |
//! | `fig10`       | Figure 10 (execution time normalized to x86) |
//! | `litmus_figs` | Figures 1/2/3/5 (allowed/forbidden classifications) |
//! | `ablation`    | design-choice ablations beyond the paper |
//!
//! Run with `--scale N` to control instructions per core (default 30000;
//! the paper simulates ~1 B instructions per benchmark — scale up as your
//! patience allows; shapes stabilize well before 100k).

pub mod cli;
pub mod client;
pub mod fuzz;
pub mod harness;
pub mod serve;

pub use cli::{Opts, SuiteSel};

use sa_isa::ConsistencyModel;
use sa_sim::report::geomean;
use sa_sim::{EngineMode, Multicore, Report, SimConfig};
use sa_workloads::{Suite, WorkloadSpec};

/// Runs one workload under one consistency model to completion.
///
/// # Panics
///
/// Panics if the simulation wedges or exceeds its (very generous) cycle
/// budget — both indicate a simulator bug.
pub fn run_workload(w: &WorkloadSpec, model: ConsistencyModel, scale: usize, seed: u64) -> Report {
    let n_cores = match w.suite {
        Suite::Parallel => 8,
        Suite::Spec => 1,
    };
    let cfg = SimConfig::default().with_model(model).with_cores(n_cores);
    let traces = w.generate_cached(n_cores, scale, seed);
    let mut sim = Multicore::new(cfg, traces);
    let budget = (scale as u64).saturating_mul(2_000).max(10_000_000);
    sim.run(budget)
        .unwrap_or_else(|e| panic!("{} under {model}: {e}", w.name))
}

/// Like [`run_workload`], but honoring the shared CLI overrides: the
/// `--cores` core count (suite default when absent) and the
/// `--topology` / `--engine` axes via [`Opts::apply_to`]. The sweep
/// binaries route through this so a 256-core mesh cell on the parallel
/// engine is one flag set away from any figure.
pub fn run_workload_opts(w: &WorkloadSpec, model: ConsistencyModel, opts: &Opts) -> Report {
    let n_cores = opts.cores.unwrap_or(match w.suite {
        Suite::Parallel => 8,
        Suite::Spec => 1,
    });
    let cfg = opts.apply_to(SimConfig::default().with_model(model).with_cores(n_cores));
    let traces = w.generate_cached(n_cores, opts.scale, opts.seed);
    let mut sim = Multicore::new(cfg, traces);
    let budget = (opts.scale as u64).saturating_mul(2_000).max(10_000_000);
    sim.run(budget)
        .unwrap_or_else(|e| panic!("{} under {model}: {e}", w.name))
}

/// Like [`run_workload`], but on [`EngineMode::Lockstep`], which ticks
/// every core every cycle. Same deterministic cycles by the engine
/// equivalence invariant; CI diffs a lockstep sweep against the default
/// event-driven one on every push to pin that invariant on the litmus
/// cells.
pub fn run_workload_lockstep(
    w: &WorkloadSpec,
    model: ConsistencyModel,
    scale: usize,
    seed: u64,
) -> Report {
    let n_cores = match w.suite {
        Suite::Parallel => 8,
        Suite::Spec => 1,
    };
    let cfg = SimConfig::default()
        .with_model(model)
        .with_cores(n_cores)
        .with_engine(EngineMode::Lockstep);
    let traces = w.generate_cached(n_cores, scale, seed);
    let mut sim = Multicore::new(cfg, traces);
    let budget = (scale as u64).saturating_mul(2_000).max(10_000_000);
    sim.run(budget)
        .unwrap_or_else(|e| panic!("{} under {model}: {e}", w.name))
}

/// Like [`run_workload`], but with an attached [`sa_trace::Tracer`];
/// returns the tracer alongside the report so stream analyzers (e.g.
/// `sa_forensics::Forensics`) can be finalized by the caller. The tracer
/// is built by `tracer(n_cores)` once the core count is known. An
/// enabled tracer forces the cycle-exact lockstep engine.
pub fn run_workload_traced<T: sa_trace::Tracer>(
    w: &WorkloadSpec,
    model: ConsistencyModel,
    scale: usize,
    seed: u64,
    tracer: impl FnOnce(usize) -> T,
) -> (Report, T) {
    let n_cores = match w.suite {
        Suite::Parallel => 8,
        Suite::Spec => 1,
    };
    let cfg = SimConfig::default().with_model(model).with_cores(n_cores);
    let traces = w.generate_cached(n_cores, scale, seed);
    let mut sim = Multicore::with_tracer(cfg, traces, tracer(n_cores));
    let budget = (scale as u64).saturating_mul(2_000).max(10_000_000);
    let report = sim
        .run(budget)
        .unwrap_or_else(|e| panic!("{} under {model}: {e}", w.name));
    (report, sim.into_tracer())
}

/// Like [`run_workload`], but with host-side span profiling enabled:
/// the engine runs under [`sa_profile::WallProfiler`], so the calling
/// thread's local span tree fills with the generation phase plus the
/// engine phases (`lockstep`/`event` → `memsys`/`tick`/`jump` → …).
/// Collect the tree with [`sa_profile::capture`] around this call.
pub fn run_workload_profiled(
    w: &WorkloadSpec,
    model: ConsistencyModel,
    scale: usize,
    seed: u64,
) -> Report {
    use sa_profile::{Profiler, WallProfiler};
    let n_cores = match w.suite {
        Suite::Parallel => 8,
        Suite::Spec => 1,
    };
    let cfg = SimConfig::default().with_model(model).with_cores(n_cores);
    let traces = {
        let _p = WallProfiler::span("generate");
        w.generate_cached(n_cores, scale, seed)
    };
    let mut sim = {
        let _p = WallProfiler::span("setup");
        Multicore::<sa_trace::NullTracer, WallProfiler>::with_tracer_profiler(
            cfg,
            traces,
            sa_trace::NullTracer,
        )
    };
    let budget = (scale as u64).saturating_mul(2_000).max(10_000_000);
    let report = sim
        .run(budget)
        .unwrap_or_else(|e| panic!("{} under {model}: {e}", w.name));
    let _p = WallProfiler::span("teardown");
    drop(sim);
    report
}

/// Runs one workload under every model, returning reports in
/// [`ConsistencyModel::ALL`] order. Honors the shared `--cores` /
/// `--topology` / `--engine` overrides in `opts`.
pub fn run_all_models(w: &WorkloadSpec, opts: &Opts) -> Vec<Report> {
    ConsistencyModel::ALL
        .iter()
        .map(|m| run_workload_opts(w, *m, opts))
        .collect()
}

/// One Figure-10 row: execution time of the four store-atomic configs
/// normalized to x86.
pub fn normalized_times(reports: &[Report]) -> Vec<f64> {
    let x86 = &reports[0];
    reports[1..]
        .iter()
        .map(|r| r.normalized_time(x86))
        .collect()
}

/// Geomean over rows of per-model normalized times.
pub fn geomean_rows(rows: &[Vec<f64>]) -> Vec<f64> {
    if rows.is_empty() {
        return Vec::new();
    }
    (0..rows[0].len())
        .map(|i| geomean(&rows.iter().map(|r| r[i]).collect::<Vec<f64>>()))
        .collect()
}

/// Maps `f` over `items` on up to `jobs` worker threads, preserving
/// order. Simulations are independent and deterministic, so this is a
/// pure throughput win for the sweep binaries.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    let jobs = jobs.max(1).min(items.len().max(1));
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let slots: Vec<std::sync::Mutex<&mut Option<R>>> =
        out.iter_mut().map(std::sync::Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                **slots[i].lock().expect("slot lock") = Some(r);
            });
        }
    });
    drop(slots);
    out.into_iter()
        .map(|r| r.expect("worker filled slot"))
        .collect()
}

/// Convenience: a tiny deterministic smoke workload for the benches.
pub fn smoke_sim(model: ConsistencyModel, instrs: usize) -> Report {
    let w = sa_workloads::by_name("barnes").expect("barnes exists");
    let cfg = SimConfig::default().with_model(model).with_cores(2);
    let traces = w.generate(2, instrs, 7);
    let mut sim = Multicore::new(cfg, traces);
    sim.run(100_000_000).expect("smoke run completes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_workload_completes_quickly_at_tiny_scale() {
        let w = sa_workloads::by_name("blackscholes").unwrap();
        let r = run_workload(&w, ConsistencyModel::X86, 300, 1);
        assert!(r.total().retired_instrs as usize >= 8 * 300);
        assert!(r.cycles > 0);
    }

    #[test]
    fn sequential_workload_uses_one_core() {
        let w = sa_workloads::by_name("557.xz_2").unwrap();
        let r = run_workload(&w, ConsistencyModel::Ibm370SlfSosKey, 300, 1);
        assert_eq!(r.per_core.len(), 1);
    }

    #[test]
    fn profiled_run_matches_unprofiled_and_fills_the_tree() {
        let w = sa_workloads::by_name("radix").unwrap();
        let base = run_workload(&w, ConsistencyModel::X86, 300, 1);
        let (r, tree) =
            sa_profile::capture(|| run_workload_profiled(&w, ConsistencyModel::X86, 300, 1));
        assert_eq!(r.cycles, base.cycles, "profiling must not perturb the sim");
        assert!(tree.find(&["generate"]).is_some(), "{}", tree.to_json());
        let engine = tree
            .find(&["event"])
            .or_else(|| tree.find(&["lockstep"]))
            .expect("engine root span");
        assert!(engine.total_ns > 0);
    }

    #[test]
    fn normalized_times_shape() {
        let w = sa_workloads::by_name("557.xz_2").unwrap();
        let opts = Opts {
            scale: 300,
            seed: 1,
            ..Opts::default()
        };
        let reports = run_all_models(&w, &opts);
        assert_eq!(reports.len(), 5);
        let norm = normalized_times(&reports);
        assert_eq!(norm.len(), 4);
        for n in &norm {
            assert!(*n > 0.2 && *n < 10.0, "normalized time sane: {n}");
        }
    }

    #[test]
    fn geomean_rows_aggregates_per_column() {
        let rows = vec![vec![1.0, 2.0], vec![4.0, 8.0]];
        let g = geomean_rows(&rows);
        assert!((g[0] - 2.0).abs() < 1e-12);
        assert!((g[1] - 4.0).abs() < 1e-12);
        assert!(geomean_rows(&[]).is_empty());
    }
}
