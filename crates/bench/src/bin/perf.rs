//! Host-time profile of the pinned suite: two litmus tests, three
//! parallel workloads and two SPEC workloads, each under all five
//! consistency configurations, every cell run under the sa-profile span
//! profiler. The cells' simulated statistics are pinned exactly by
//! `tests/pinned_stats.rs`; this binary shows where their host time
//! goes.
//!
//! Each cell's phase breakdown (engine, memory system, scheduler
//! passes, …) is printed to stderr, and the span tree, merged over the
//! cells in suite order, is written to `<out>.json` and `<out>.folded`
//! (`flamegraph.pl`-compatible). The run fails if any cell's span tree
//! reconciles less than 90% of that cell's measured wall time — a tree
//! that cannot account for the time it claims to measure is not a
//! profile.
//!
//! Every (workload × config) cell is an independent deterministic
//! simulation, so the sweep fans out across `--jobs` worker threads.
//!
//! Usage: `perf [--scale N] [--seed N] [--jobs N] [--out PREFIX]
//! [--only NAME,NAME] [--serve-metrics PORT]` (default scale 2000,
//! default output `perf_profile.json` and `perf_profile.folded`). The
//! one line on stdout names the worst-reconciled cell.

use std::process::exit;
use std::sync::Mutex;
use std::time::Instant;

use sa_bench::cli::{self, Arity, Common, Flag, Spec};
use sa_bench::serve::MetricsServer;
use sa_bench::{parallel_map, pinned_suite, run_workload_profiled, PINNED_LITMUS};
use sa_isa::ConsistencyModel;
use sa_profile::{ProfileTree, Profiler, WallProfiler};
use sa_sim::{Multicore, Report, SimConfig};
use sa_trace::NullTracer;

const SPEC: Spec = Spec {
    default_scale: Some(2_000),
    default_out: Some("perf_profile"),
    extras: &[Flag {
        name: "--serve-metrics",
        arity: Arity::Port,
        help: "serve the latest completed cell's /metrics and /profile on this localhost port",
    }],
    ..Spec::new(
        "perf",
        "host-time span profile of the pinned suite, reconciled with wall time",
        &[
            Common::Scale,
            Common::Seed,
            Common::Only,
            Common::Jobs,
            Common::Out,
        ],
    )
};

fn run_litmus(name: &str, model: ConsistencyModel) -> Report {
    // Litmus cells finish in microseconds, so the 90% reconciliation
    // gate only holds if *everything* is inside a span: program fetch,
    // trace conversion, engine construction, the run, the report, and
    // the teardown (deallocation).
    let (traces, cfg) = {
        let _p = WallProfiler::span("generate");
        let ct = match name {
            "n6" => sa_litmus::suite::n6(),
            "mp" => sa_litmus::suite::mp(),
            other => panic!("unpinned litmus test {other}"),
        };
        let traces = ct.test.to_traces();
        let cfg = SimConfig::default()
            .with_model(model)
            .with_cores(traces.len());
        (traces, cfg)
    };
    let mut sim = {
        let _p = WallProfiler::span("setup");
        Multicore::<NullTracer, WallProfiler>::with_tracer_profiler(cfg, traces, NullTracer)
    };
    sim.run(5_000_000)
        .unwrap_or_else(|e| panic!("{name} under {model}: {e}"));
    let report = {
        let _p = WallProfiler::span("report");
        sim.report()
    };
    let _p = WallProfiler::span("teardown");
    drop(sim);
    report
}

/// One profiled cell: its span tree and the wall time measured around
/// the same run.
struct Cell {
    label: String,
    host_seconds: f64,
    tree: ProfileTree,
}

fn main() {
    let args = cli::parse(&SPEC);
    let opts = &args.opts;
    let out = opts.out.as_deref().expect("spec supplies a default --out");
    // The common `--only` takes one value; perf accepts a
    // comma-separated list so a smoke run can pick one litmus + one
    // workload cell (e.g. `--only n6,radix`).
    let only: Vec<&str> = opts
        .only
        .as_deref()
        .map(|s| s.split(',').map(str::trim).collect())
        .unwrap_or_default();
    if let Some(o) = only.iter().find(|&&o| !pinned_suite().any(|n| n == o)) {
        cli::usage_error(&SPEC, &format!("--only {o:?} is not in the pinned suite"));
    }
    let server = args.port("--serve-metrics").map(|port| {
        let srv = MetricsServer::start(port).unwrap_or_else(|e| {
            eprintln!("perf: binding port {port}: {e}");
            exit(2);
        });
        eprintln!("serving live metrics on http://127.0.0.1:{}/", srv.port());
        srv
    });

    let cells: Vec<(&str, ConsistencyModel)> = pinned_suite()
        .filter(|n| only.is_empty() || only.contains(n))
        .flat_map(|n| ConsistencyModel::ALL.map(|m| (n, m)))
        .collect();
    // Live /profile snapshot, rebuilt as cells complete (completion
    // order — the written tree below is merged in suite order).
    let live = Mutex::new(ProfileTree::new());
    let results: Vec<Cell> = parallel_map(&cells, opts.jobs, |&(name, model)| {
        let label = format!("{name}/{}", model.label());
        let ((report, host_seconds), tree) = sa_profile::capture(|| {
            let start = Instant::now();
            let report = if PINNED_LITMUS.contains(&name) {
                run_litmus(name, model)
            } else {
                let w = sa_workloads::by_name(name).expect("pinned workload exists");
                run_workload_profiled(&w, model, opts.scale, opts.seed)
            };
            (report, start.elapsed().as_secs_f64())
        });
        if let Some(srv) = &server {
            let mut live = live.lock().expect("live profile");
            live.merge_under(&label, &tree);
            srv.set_profile(live.to_json());
            srv.set_prometheus(report.registry().prometheus_text());
        }
        Cell {
            label,
            host_seconds,
            tree,
        }
    });

    // The merged tree plus the per-cell reconciliation gate: each
    // cell's span tree must account for ≥90% of the wall time measured
    // around the same run.
    let mut master = ProfileTree::new();
    let mut worst = (f64::INFINITY, "");
    for cell in &results {
        let wall_ns = (cell.host_seconds * 1e9).max(1.0);
        let pct = 100.0 * cell.tree.total_ns() as f64 / wall_ns;
        if pct < worst.0 {
            worst = (pct, &cell.label);
        }
        let phases: Vec<String> = cell
            .tree
            .roots()
            .iter()
            .map(|&idx| {
                let n = cell.tree.node(idx);
                format!("{} {:.1}%", n.name, 100.0 * n.total_ns as f64 / wall_ns)
            })
            .collect();
        eprintln!(
            "profile {:<28} {pct:5.1}% of {:.4}s wall ({})",
            cell.label,
            cell.host_seconds,
            phases.join(", ")
        );
        master.merge_under(&cell.label, &cell.tree);
    }
    let json = format!("{out}.json");
    let folded = format!("{out}.folded");
    std::fs::write(&json, format!("{}\n", master.to_json()))
        .unwrap_or_else(|e| panic!("writing {json}: {e}"));
    std::fs::write(&folded, master.folded()).unwrap_or_else(|e| panic!("writing {folded}: {e}"));
    eprintln!("wrote {json} and {folded}");
    if worst.0 < 90.0 {
        eprintln!(
            "perf: profile for {} reconciles only {:.1}% of its wall time (>= 90% required)",
            worst.1, worst.0
        );
        exit(1);
    }
    println!(
        "profile reconciliation: worst cell {} at {:.1}% (>= 90% required)",
        worst.1, worst.0
    );
}
