//! Experiment runner shared by the `sa-bench` binaries. `reproduce`
//! regenerates every table and figure of the paper's evaluation into
//! `results/` from one deduplicated cell matrix (see [`reproduce`]) at
//! `--scale N` instructions per core (default 30000; the paper simulates
//! ~1 B instructions per benchmark — scale up as your patience allows;
//! shapes stabilize well before 100k).

pub mod cli;
pub mod client;
pub mod fuzz;
pub mod reproduce;
pub mod serve;

pub use cli::{Opts, SuiteSel};

use sa_isa::ConsistencyModel;
use sa_sim::report::geomean;
use sa_sim::{Multicore, Report, SimConfig};
use sa_workloads::{Suite, WorkloadSpec};

/// The pinned suite's litmus tests (`sa_litmus::suite` names), each run
/// on one core per thread.
pub const PINNED_LITMUS: [&str; 2] = ["n6", "mp"];

/// The pinned suite's workloads (`sa_workloads` names), each run on its
/// suite's core count ([`suite_cores`]).
pub const PINNED_WORKLOADS: [&str; 5] = ["barnes", "radix", "x264", "505.mcf", "557.xz_2"];

/// The pinned suite in output order, litmus tests first: the cells
/// `perf` profiles, `forensics` analyses and `tests/pinned_stats.rs`
/// pins, each under all five configurations.
pub fn pinned_suite() -> impl Iterator<Item = &'static str> {
    PINNED_LITMUS.into_iter().chain(PINNED_WORKLOADS)
}

/// The core count a workload runs on: 8 for the parallel suite, 1 for
/// SPEC.
pub fn suite_cores(w: &WorkloadSpec) -> usize {
    match w.suite {
        Suite::Parallel => 8,
        Suite::Spec => 1,
    }
}

/// Cycle budget for `scale` instructions per core: far beyond any
/// healthy run, so only a wedged simulation reaches it.
fn budget(scale: usize) -> u64 {
    (scale as u64).saturating_mul(2_000).max(10_000_000)
}

/// Runs `w` on `cfg` (core count included) to completion.
///
/// # Panics
///
/// Panics if the simulation wedges or exceeds its (very generous) cycle
/// budget — both indicate a simulator bug.
pub(crate) fn run_config(w: &WorkloadSpec, cfg: SimConfig, scale: usize, seed: u64) -> Report {
    let model = cfg.model;
    let traces = w.generate_cached(cfg.mem.n_cores, scale, seed);
    let mut sim = Multicore::new(cfg, traces);
    sim.run(budget(scale))
        .unwrap_or_else(|e| panic!("{} under {model}: {e}", w.name))
}

/// Runs one workload under one consistency model to completion, on the
/// paper's machine at the suite's core count.
///
/// # Panics
///
/// Panics if the simulation wedges — a simulator bug.
pub fn run_workload(w: &WorkloadSpec, model: ConsistencyModel, scale: usize, seed: u64) -> Report {
    let cfg = SimConfig::default()
        .with_model(model)
        .with_cores(suite_cores(w));
    run_config(w, cfg, scale, seed)
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
    let n_cores = suite_cores(w);
    let cfg = SimConfig::default().with_model(model).with_cores(n_cores);
    let traces = w.generate_cached(n_cores, scale, seed);
    let mut sim = Multicore::with_tracer(cfg, traces, tracer(n_cores));
    let report = sim
        .run(budget(scale))
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
    let n_cores = suite_cores(w);
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
    let report = sim
        .run(budget(scale))
        .unwrap_or_else(|e| panic!("{} under {model}: {e}", w.name));
    let _p = WallProfiler::span("teardown");
    drop(sim);
    report
}

/// One Figure-10 row: execution time of the four store-atomic configs
/// normalized to x86.
pub fn normalized_times(reports: &[&Report]) -> Vec<f64> {
    let x86 = reports[0];
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
/// pure throughput win for the sweeps.
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
        let reports = ConsistencyModel::ALL.map(|m| run_workload(&w, m, 300, 1));
        let reports: Vec<&Report> = reports.iter().collect();
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
