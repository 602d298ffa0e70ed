//! Many-core scaling *forensics*: where does the paper's mechanism go
//! as the machine grows? The study instruments the simulated machine
//! across {8, 64, 128, 256} cores × {fully-connected, 2D mesh} × all
//! five consistency configurations on the radix workload (whose
//! invalidation storms are the many-core stressor), and writes
//! `results/scalescope_study.json` (schema `sa-bench-scalescope-v1`)
//! with three curves per configuration:
//!
//! * **gate-stall CPI fraction** — Σ per-core retire-gate-closed cycles
//!   over `cycles × cores`: how much of the machine's time the SLF/SoS
//!   gate eats as sharing fans out;
//! * **blame-matrix density and row concentration** — from a
//!   forensics-traced run: what fraction of (victim, cause) pairs ever
//!   fire, and how concentrated the victim rows are (the max row's
//!   share of all blamed cycles) — dense + flat means diffuse pain,
//!   sparse + concentrated means a few victim cores eat the storms;
//! * **invalidation-storm fan-out** — the NoC scope's maximum per-line
//!   interval fan-out, the topology-sensitive signal (a mesh spreads
//!   the same storm over more hops but not fewer invalidations).
//!
//! Each (cores, topology) point also carries one parallel-engine run's
//! sa-scalescope epoch/barrier telemetry (baseline configuration), so
//! the study links *simulated* scaling behaviour to *simulator* scaling
//! behaviour in one artifact.
//!
//! Usage: `scalestudy [--scale N] [--seed N] [--model LABEL]
//! [--threads N] [--quick] [--out PATH]` (default scale 800 — long
//! enough for radix's scatter phase to drive real invalidation storms
//! at 128+ cores; default output `results/scalescope_study.json`).
//! `--quick` runs the single 8-core fully-connected baseline cell (the
//! CI smoke); `--model` restricts to one consistency configuration.

use sa_bench::cli::{self, Arity, Common, Flag, Spec};
use sa_forensics::{Forensics, Summary};
use sa_isa::ConsistencyModel;
use sa_metrics::JsonWriter;
use sa_sim::{EngineMode, Multicore, NocStats, ParallelScope, Report, SimConfig, Topology};

/// The pinned workload: radix's scatter phase is the invalidation-storm
/// generator the many-core study exists to watch.
const WORKLOAD: &str = "radix";

/// Core counts swept; 8 anchors against the paper's configuration.
const CORES: [usize; 4] = [8, 64, 128, 256];

/// The widest rectangular mesh for `n` cores: the widest width
/// dividing `n` with an aspect ratio no flatter than 2:1.
fn mesh_width(n: usize) -> usize {
    (1..=n)
        .rev()
        .find(|w| n.is_multiple_of(*w) && w * w <= n * 2)
        .expect("every pinned core count has a rectangular mesh")
}

/// One traced cell's distilled measurements.
struct Cell {
    model: ConsistencyModel,
    cores: usize,
    topology: String,
    cycles: u64,
    gate_stall_fraction: f64,
    gate_cycles: u64,
    squashes: u64,
    blame_cycles: u64,
    blame_density: f64,
    blame_row_concentration: f64,
    storm_max_fanout: u64,
    storm_count: usize,
    noc: NocStats,
}

/// Fraction of blame-matrix cells (n victims × n+1 causes) that ever
/// fired, and the largest victim row's share of all blamed cycles.
fn blame_shape(s: &Summary) -> (f64, f64, u64) {
    let n = s.blame.n_cores();
    let mut nonzero = 0usize;
    let mut total = 0u64;
    let mut max_row = 0u64;
    for victim in 0..n {
        for by in (0..n).map(Some).chain([None]) {
            if s.blame.counts(victim, by) > 0 || s.blame.cycles(victim, by) > 0 {
                nonzero += 1;
            }
        }
        let row = s.blame.row_cycles(victim);
        total += row;
        max_row = max_row.max(row);
    }
    (
        nonzero as f64 / (n * (n + 1)) as f64,
        max_row as f64 / total.max(1) as f64,
        total,
    )
}

const SPEC: Spec = Spec {
    default_scale: Some(800),
    default_out: Some("results/scalescope_study.json"),
    extras: &[
        Flag {
            name: "--model",
            arity: Arity::One,
            help: "restrict to one config by label (e.g. 370-SLFSoS-key)",
        },
        Flag {
            name: "--threads",
            arity: Arity::Number,
            help: "shard threads for the parallel telemetry runs (default 4)",
        },
        Flag {
            name: "--quick",
            arity: Arity::Switch,
            help: "single 8-core fc baseline cell (CI smoke)",
        },
    ],
    ..Spec::new(
        "scalestudy",
        "many-core scaling forensics: gate stalls, blame shape, storms",
        &[Common::Scale, Common::Seed, Common::Out],
    )
};

fn main() {
    let args = cli::parse(&SPEC);
    let opts = args.opts.clone();
    let out_path = opts.out.clone().expect("spec supplies a default --out");
    let threads = args.number("--threads").unwrap_or(4).max(2);
    let quick = args.switch("--quick");

    let models: Vec<ConsistencyModel> = match args.value("--model") {
        None if quick => vec![ConsistencyModel::Ibm370SlfSosKey],
        None => ConsistencyModel::ALL.to_vec(),
        Some(label) => vec![cli::model(&SPEC, label)],
    };
    let core_counts: &[usize] = if quick { &CORES[..1] } else { &CORES };

    let w = sa_workloads::by_name(WORKLOAD).expect("radix is pinned");
    let budget = (opts.scale as u64).saturating_mul(2_000).max(10_000_000);

    let mut cells: Vec<Cell> = Vec::new();
    let mut parallel_runs: Vec<(usize, String, ParallelScope)> = Vec::new();

    for &n_cores in core_counts {
        let traces = w.generate_cached(n_cores, opts.scale, opts.seed);
        let topos: Vec<Topology> = if quick {
            vec![Topology::FullyConnected]
        } else {
            vec![
                Topology::FullyConnected,
                Topology::Mesh2D {
                    width: mesh_width(n_cores),
                },
            ]
        };
        for topo in topos {
            // One parallel-engine run per (cores, topology) point at the
            // baseline configuration: the simulator-side scaling story.
            {
                let cfg = SimConfig::default()
                    .with_model(ConsistencyModel::Ibm370SlfSosKey)
                    .with_cores(n_cores)
                    .with_topology(topo)
                    .with_engine(EngineMode::Parallel { threads });
                let mut sim = Multicore::new(cfg, traces.clone());
                sim.run(budget)
                    .unwrap_or_else(|e| panic!("parallel x{n_cores} {topo}: {e}"));
                let scope = sim
                    .scalescope()
                    .cloned()
                    .expect("parallel runs record a scope");
                parallel_runs.push((n_cores, topo.to_string(), scope));
            }
            for &model in &models {
                let cfg = SimConfig::default()
                    .with_model(model)
                    .with_cores(n_cores)
                    .with_topology(topo);
                // The traced run feeds the forensics analyzer (blame
                // matrix) and leaves the NoC scope on the memory system.
                let mut sim = Multicore::with_tracer(cfg, traces.clone(), Forensics::new(n_cores));
                let report: Report = sim
                    .run(budget)
                    .unwrap_or_else(|e| panic!("{model} x{n_cores} {topo}: {e}"));
                let noc = sim.noc_stats();
                let summary = sim.into_tracer().finish(report.cycles);

                let gate_cycles: u64 = report.per_core.iter().map(|c| c.gate_closed_cycles).sum();
                let gate_stall_fraction =
                    gate_cycles as f64 / (report.cycles * n_cores as u64).max(1) as f64;
                let (blame_density, blame_row_concentration, blame_cycles) = blame_shape(&summary);
                let cell = Cell {
                    model,
                    cores: n_cores,
                    topology: topo.to_string(),
                    cycles: report.cycles,
                    gate_stall_fraction,
                    gate_cycles,
                    squashes: summary.squashes(),
                    blame_cycles,
                    blame_density,
                    blame_row_concentration,
                    storm_max_fanout: noc.max_storm_fanout(),
                    storm_count: noc.storms.len(),
                    noc,
                };
                eprintln!(
                    "{model:>15} x{cores:<3} {topo:<8} {cycles:>6} cyc  gate {gate:>6.2}%  \
                     blame density {den:.3} conc {conc:.2}  storms {st} (max fan-out {fo})",
                    cores = cell.cores,
                    topo = cell.topology,
                    cycles = cell.cycles,
                    gate = cell.gate_stall_fraction * 100.0,
                    den = cell.blame_density,
                    conc = cell.blame_row_concentration,
                    st = cell.storm_count,
                    fo = cell.storm_max_fanout,
                );
                cells.push(cell);
            }
        }
    }

    let mut j = JsonWriter::new();
    cli::schema_header(&mut j, "sa-bench-scalescope-v1", &opts)
        .field_str("workload", WORKLOAD)
        .field_uint("threads", threads as u64)
        .field_bool("quick", quick)
        .key("cells")
        .begin_array();
    for c in &cells {
        j.begin_object()
            .field_str("model", &c.model.to_string())
            .field_uint("cores", c.cores as u64)
            .field_str("topology", &c.topology)
            .field_uint("cycles", c.cycles)
            .field_float("gate_stall_fraction", c.gate_stall_fraction)
            .field_uint("gate_cycles", c.gate_cycles)
            .field_uint("squashes", c.squashes)
            .field_uint("blame_cycles", c.blame_cycles)
            .field_float("blame_density", c.blame_density)
            .field_float("blame_row_concentration", c.blame_row_concentration)
            .field_uint("storm_max_fanout", c.storm_max_fanout)
            .field_uint("storm_count", c.storm_count as u64)
            .key("noc");
        c.noc.write_json(&mut j);
        j.end_object();
    }
    j.end_array();

    // The curves the write-up plots: one series per (model, topology),
    // points ordered by core count.
    j.key("curves").begin_object();
    for (key, f) in [
        (
            "gate_stall_fraction",
            (|c: &Cell| c.gate_stall_fraction) as fn(&Cell) -> f64,
        ),
        ("blame_density", |c: &Cell| c.blame_density),
        ("blame_row_concentration", |c: &Cell| {
            c.blame_row_concentration
        }),
        ("storm_max_fanout", |c: &Cell| c.storm_max_fanout as f64),
    ] {
        j.key(key).begin_array();
        for &model in &models {
            for topo in ["fc", "mesh"] {
                let series: Vec<&Cell> = cells
                    .iter()
                    .filter(|c| c.model == model && c.topology.starts_with(topo))
                    .collect();
                if series.is_empty() {
                    continue;
                }
                j.begin_object()
                    .field_str("model", &model.to_string())
                    .field_str("topology", topo)
                    .key("points")
                    .begin_array();
                for c in &series {
                    j.begin_object()
                        .field_uint("cores", c.cores as u64)
                        .field_float("value", f(c))
                        .end_object();
                }
                j.end_array().end_object();
            }
        }
        j.end_array();
    }
    j.end_object();

    j.key("parallel").begin_array();
    for (cores, topo, scope) in &parallel_runs {
        j.begin_object()
            .field_uint("cores", *cores as u64)
            .field_str("topology", topo)
            .key("scalescope");
        scope.write_json(&mut j);
        j.end_object();
    }
    j.end_array().end_object();

    let body = j.finish();
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {dir:?}: {e}"));
        }
    }
    std::fs::write(&out_path, format!("{body}\n"))
        .unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    eprintln!("wrote {out_path}");

    // The one stdout line: the baseline gate-stall trend, smallest to
    // largest machine — the study's headline curve.
    let base: Vec<&Cell> = cells
        .iter()
        .filter(|c| c.model == ConsistencyModel::Ibm370SlfSosKey && c.topology == "fc")
        .collect();
    let trend: Vec<String> = base
        .iter()
        .map(|c| format!("x{}:{:.2}%", c.cores, c.gate_stall_fraction * 100.0))
        .collect();
    println!(
        "gate-stall fraction (370-SLFSoS-key, fc): {}",
        trend.join(" -> ")
    );
}
