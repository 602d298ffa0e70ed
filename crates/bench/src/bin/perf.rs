//! Performance-regression harness: runs a pinned suite (two litmus
//! tests, three parallel workloads, two SPEC workloads — every one under
//! all five consistency configurations), recording both sim-side metrics
//! (cycles, IPC, CPI-stack shares, gate/squash counters) and host-side
//! throughput (simulated cycles per wall-second), and writes the result
//! as JSON.
//!
//! The committed `BENCH_pr8.json` at the repository root is the baseline;
//! regenerate it with `cargo run --release --bin perf` after intentional
//! performance changes. CI runs this binary at reduced scale to validate
//! the schema and the CPI-stack accounting offline, and compares the
//! throughput geomean against the previous baseline.
//!
//! Every (workload × config) cell is an independent deterministic
//! simulation, so the sweep fans out across `--jobs` worker threads;
//! results are reassembled in suite order, keeping the sim-side JSON
//! fields byte-identical to a sequential run (host timing aside).
//!
//! With `--profile`, every cell runs under the sa-profile span profiler:
//! the per-cell phase breakdown (engine, memory system, scheduler
//! passes, …) is printed to stderr, the aggregated tree is written next
//! to `--out` as `<out>.profile.json` + `<out>.profile.folded`, and the
//! run fails if any cell's span tree reconciles less than 90% of that
//! cell's measured wall time — a tree that cannot account for the time
//! it claims to measure is not a profile.
//!
//! Host throughput on a shared machine is one-sided noise — preemption
//! and CPU steal only ever *add* wall time — so `--repeat N` runs each
//! cell N times and records the fastest (the simulation itself is
//! deterministic; only the timing varies). Use `--repeat 5` when
//! regenerating a committed baseline.
//!
//! `--engine` runs every cell, litmus cells included, on another engine
//! (`lockstep`, `parallel:<t>`; not with `--profile`); its cycles must
//! equal the default event-driven run's, which `bench-diff` checks.
//!
//! Usage: `perf [--scale N] [--seed N] [--jobs N] [--out PATH]
//! [--only NAME,NAME] [--repeat N] [--profile] [--engine MODE]
//! [--serve-metrics PORT]`
//! (default scale 2000, default output `BENCH_pr8.json`). The one line
//! on stdout is the host-throughput geomean over all cells, for shell
//! pipelines and CI logs; everything else goes to stderr or the JSON.

use std::process::exit;
use std::sync::{Arc, Mutex};

use sa_bench::cli::{self, Arity, Flag, Spec};
use sa_bench::serve::MetricsServer;
use sa_bench::{harness, parallel_map, run_workload_opts, run_workload_profiled};
use sa_isa::ConsistencyModel;
use sa_metrics::{CpiCategory, JsonWriter};
use sa_profile::{ProfileTree, Profiler, WallProfiler};
use sa_sim::report::geomean;
use sa_sim::{EngineMode, Multicore, Report, SimConfig};
use sa_trace::NullTracer;

/// The pinned suite. Names must stay stable across PRs so baselines
/// remain comparable.
const LITMUS: [&str; 2] = ["n6", "mp"];
const PARALLEL: [&str; 3] = ["barnes", "radix", "x264"];
const SPEC: [&str; 2] = ["505.mcf", "557.xz_2"];

fn run_litmus(name: &str, model: ConsistencyModel, profile: bool, engine: EngineMode) -> Report {
    // Litmus cells finish in microseconds, so the 90% reconciliation
    // gate only holds if *everything* is inside a span: program fetch,
    // trace conversion, engine construction, the run, the report, and
    // the teardown (deallocation).
    let (traces, cfg) = {
        let _p = if profile {
            WallProfiler::span("generate")
        } else {
            None
        };
        let ct = match name {
            "n6" => sa_litmus::suite::n6(),
            "mp" => sa_litmus::suite::mp(),
            other => panic!("unpinned litmus test {other}"),
        };
        let traces = ct.test.to_traces();
        let cfg = SimConfig::default()
            .with_model(model)
            .with_cores(traces.len())
            .with_engine(engine);
        (traces, cfg)
    };
    if profile {
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
    } else {
        let mut sim = Multicore::new(cfg, traces);
        sim.run(5_000_000)
            .unwrap_or_else(|e| panic!("{name} under {model}: {e}"));
        sim.report()
    }
}

struct ConfigResult {
    report: Report,
    host_seconds: f64,
    /// Captured span tree (with `--profile`) for this cell.
    profile: Option<ProfileTree>,
}

fn emit_config(j: &mut JsonWriter, r: &ConfigResult, baseline_cycles: u64) {
    let rep = &r.report;
    // The harness's own gate: a report whose CPI stack does not balance
    // is a simulator bug, not a data point.
    assert!(
        rep.cpi_invariant_holds(),
        "{}: CPI stack out of balance",
        rep.model
    );
    let total = rep.total();
    j.begin_object()
        .field_str("config", rep.model.label())
        .field_uint("cycles", rep.cycles)
        .field_uint("instructions", total.retired_instrs)
        .field_float("ipc", rep.ipc())
        .field_float(
            "normalized_time",
            rep.cycles as f64 / baseline_cycles.max(1) as f64,
        )
        .field_float("host_seconds", r.host_seconds)
        .field_float(
            "sim_cycles_per_host_sec",
            if r.host_seconds > 0.0 {
                rep.cycles as f64 / r.host_seconds
            } else {
                0.0
            },
        )
        .field_uint("gate_closed_cycles", total.gate_closed_cycles)
        .field_uint("gate_stall_events", total.gate_stall_events)
        .field_uint("squashes", total.squashes.iter().sum())
        .field_uint("sb_commits", total.sb_commits)
        .field_float("energy_proxy", rep.energy_proxy())
        .field_uint("samples", rep.samples.len() as u64);
    j.key("cpi_stack").begin_object();
    let stack = rep.cpi_total();
    for cat in CpiCategory::ALL {
        j.field_float(cat.label(), stack.share_pct(cat));
    }
    j.end_object().end_object();
}

fn main() {
    // The regression suite is pinned and small; default well below the
    // exploration binaries' 30k so a full 5-config sweep stays quick.
    const EXTRAS: &[Flag] = &[
        Flag {
            name: "--serve-metrics",
            arity: Arity::One,
            help:
                "serve the latest completed cell's /metrics (and /profile) on this localhost port",
        },
        Flag {
            name: "--profile",
            arity: Arity::Switch,
            help: "capture host span profiles per cell; writes <out>.profile.{json,folded}",
        },
        Flag {
            name: "--repeat",
            arity: Arity::One,
            help: "time each cell N times, keep the fastest (default 1)",
        },
    ];
    let args = cli::parse(&Spec {
        default_scale: Some(2_000),
        default_out: Some("BENCH_pr8.json"),
        extras: EXTRAS,
        ..Spec::new(
            "perf",
            "performance-regression harness over the pinned suite",
        )
    });
    let opts = args.opts.clone();
    let out_path = opts.out.clone().expect("spec supplies a default --out");
    let profile_on = args.switch("--profile");
    if profile_on && opts.engine.is_some() {
        eprintln!("perf: --profile runs the event-driven engine; drop --engine");
        exit(2);
    }
    let engine = opts.engine.unwrap_or(EngineMode::EventDriven);
    let repeat: usize = args
        .value("--repeat")
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("perf: --repeat takes a number, got {v:?}");
                exit(2);
            })
        })
        .unwrap_or(1)
        .max(1);
    // The common `--only` takes one value; perf accepts a
    // comma-separated list so a smoke run can pick one litmus + one
    // workload cell (e.g. `--only n6,radix`).
    let only: Vec<String> = opts
        .only
        .as_deref()
        .map(|s| s.split(',').map(|x| x.trim().to_string()).collect())
        .unwrap_or_default();
    let server = args.value("--serve-metrics").map(|p| {
        let port: u16 = p.parse().unwrap_or_else(|_| {
            eprintln!("perf: --serve-metrics takes a port number, got {p:?}");
            exit(2);
        });
        let srv = MetricsServer::start(port).unwrap_or_else(|e| {
            eprintln!("perf: binding port {port}: {e}");
            exit(2);
        });
        eprintln!("serving live metrics on http://127.0.0.1:{}/", srv.port());
        Arc::new(srv)
    });

    struct Entry {
        name: &'static str,
        kind: &'static str,
    }
    let mut entries: Vec<Entry> = Vec::new();
    for n in LITMUS {
        entries.push(Entry {
            name: n,
            kind: "litmus",
        });
    }
    for n in PARALLEL {
        entries.push(Entry {
            name: n,
            kind: "parallel",
        });
    }
    for n in SPEC {
        entries.push(Entry {
            name: n,
            kind: "spec",
        });
    }
    if !only.is_empty() {
        for o in &only {
            if !entries.iter().any(|e| e.name == o) {
                eprintln!("perf: --only {o:?} is not in the pinned suite");
                exit(2);
            }
        }
        entries.retain(|e| only.iter().any(|o| o == e.name));
    }

    let mut j = JsonWriter::new();
    cli::schema_header(&mut j, "sa-bench-perf-v1", &opts)
        .key("workloads")
        .begin_array();

    // Normalized-time rows (4 store-atomic configs vs x86) for the
    // closing geomean.
    let mut norm_rows: Vec<Vec<f64>> = Vec::new();

    // Every (entry × config) cell is independent: flatten, fan out, and
    // reassemble in order so the emitted JSON is deterministic.
    let n_models = ConsistencyModel::ALL.len();
    let cells: Vec<(&Entry, ConsistencyModel)> = entries
        .iter()
        .flat_map(|e| ConsistencyModel::ALL.iter().map(move |&m| (e, m)))
        .collect();
    // Live /profile snapshot, rebuilt as cells complete (completion
    // order — the committed artifacts below are rebuilt in suite order).
    let live_profile: Mutex<ProfileTree> = Mutex::new(ProfileTree::new());
    let all_results: Vec<ConfigResult> = parallel_map(&cells, opts.jobs, |&(e, model)| {
        let run_cell = || {
            if e.kind == "litmus" {
                harness::time(|| run_litmus(e.name, model, profile_on, engine))
            } else {
                let w = sa_workloads::by_name(e.name)
                    .unwrap_or_else(|| panic!("unpinned workload {}", e.name));
                if profile_on {
                    harness::time(|| run_workload_profiled(&w, model, opts.scale, opts.seed))
                } else {
                    harness::time(|| run_workload_opts(&w, model, &opts))
                }
            }
        };
        // Best-of-N: keep the run with the lowest wall time (and, when
        // profiling, the span tree captured around that same run, so the
        // reconciliation gate compares a tree against its own timing).
        let mut best: Option<((Report, f64), Option<ProfileTree>)> = None;
        for _ in 0..repeat {
            let sample = if profile_on {
                let (timed, tree) = sa_profile::capture(run_cell);
                (timed, Some(tree))
            } else {
                (run_cell(), None)
            };
            if best.as_ref().is_none_or(|b| sample.0 .1 < b.0 .1) {
                best = Some(sample);
            }
        }
        let ((report, host_seconds), profile) = best.expect("repeat >= 1");
        let r = ConfigResult {
            report,
            host_seconds,
            profile,
        };
        if let Some(tree) = &r.profile {
            let mut live = live_profile.lock().expect("live profile");
            live.merge_under(&format!("{}/{}", e.name, model.label()), tree);
            if let Some(srv) = &server {
                srv.set_profile(live.to_json());
            }
        }
        if let Some(srv) = &server {
            srv.set_prometheus(r.report.registry().prometheus_text());
        }
        r
    });

    if profile_on {
        // Deterministic master tree (suite order, unlike the live
        // completion-order snapshot) plus the per-cell reconciliation
        // gate: each cell's span tree must account for ≥90% of the wall
        // time `harness::time` measured around the same cell.
        let mut master = ProfileTree::new();
        let mut worst = (f64::INFINITY, String::new());
        for (i, &(e, model)) in cells.iter().enumerate() {
            let r = &all_results[i];
            let tree = r.profile.as_ref().expect("profiled run has a tree");
            let label = format!("{}/{}", e.name, model.label());
            let wall_ns = (r.host_seconds * 1e9).max(1.0);
            let pct = 100.0 * tree.total_ns() as f64 / wall_ns;
            if pct < worst.0 {
                worst = (pct, label.clone());
            }
            let phases: Vec<String> = tree
                .roots()
                .iter()
                .map(|&idx| {
                    let n = tree.node(idx);
                    format!("{} {:.1}%", n.name, 100.0 * n.total_ns as f64 / wall_ns)
                })
                .collect();
            eprintln!(
                "profile {label:<28} {pct:5.1}% of {:.4}s wall ({})",
                r.host_seconds,
                phases.join(", ")
            );
            master.merge_under(&label, tree);
        }
        let profile_json = format!("{out_path}.profile.json");
        let profile_folded = format!("{out_path}.profile.folded");
        std::fs::write(&profile_json, format!("{}\n", master.to_json()))
            .unwrap_or_else(|e| panic!("writing {profile_json}: {e}"));
        std::fs::write(&profile_folded, master.folded())
            .unwrap_or_else(|e| panic!("writing {profile_folded}: {e}"));
        eprintln!("wrote {profile_json} and {profile_folded}");
        if worst.0 < 90.0 {
            eprintln!(
                "perf: profile for {} reconciles only {:.1}% of its wall time (>= 90% required)",
                worst.1, worst.0
            );
            exit(1);
        }
        eprintln!(
            "profile reconciliation: worst cell {} at {:.1}% (>= 90% required)",
            worst.1, worst.0
        );
    }

    for (ei, e) in entries.iter().enumerate() {
        let results = &all_results[ei * n_models..(ei + 1) * n_models];
        let baseline = results[0].report.cycles;
        norm_rows.push(
            results[1..]
                .iter()
                .map(|r| r.report.cycles as f64 / baseline.max(1) as f64)
                .collect(),
        );
        j.begin_object()
            .field_str("name", e.name)
            .field_str("kind", e.kind)
            .field_uint("cores", results[0].report.per_core.len() as u64)
            .key("configs")
            .begin_array();
        for r in results {
            emit_config(&mut j, r, baseline);
        }
        j.end_array().end_object();
        eprintln!(
            "{:<10} done ({} configs, x86 cycles {})",
            e.name,
            results.len(),
            baseline
        );
    }
    j.end_array();

    let labels = ["nospec", "slfspec", "slfsos", "slfsos_key"];
    j.key("geomean_normalized_time").begin_object();
    for (i, label) in labels.iter().enumerate() {
        let col: Vec<f64> = norm_rows.iter().map(|r| r[i]).collect();
        j.field_float(label, geomean(&col));
    }
    j.end_object().end_object();

    let body = j.finish();
    std::fs::write(&out_path, format!("{body}\n"))
        .unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    eprintln!("wrote {out_path}");

    // The single stdout line: host-throughput geomean over every cell,
    // the headline number regression comparisons are made against.
    let rates: Vec<f64> = all_results
        .iter()
        .filter(|r| r.host_seconds > 0.0)
        .map(|r| r.report.cycles as f64 / r.host_seconds)
        .collect();
    println!(
        "geomean sim-cycles/s over {} cells: {:.0}",
        rates.len(),
        geomean(&rates)
    );
}
