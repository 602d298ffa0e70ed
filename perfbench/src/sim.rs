//! The simulator workloads: `paper-sweep` and `mesh-256`.
//!
//! A *cell* is one benchmark under one configuration. A *pass* runs
//! every cell once — build (`Multicore::new`), run, teardown — and the
//! run repeats passes until `--seconds` have elapsed. Traces are made
//! in set-up, so a pass times the simulator only.
//!
//! The traces are fixed: trace seed 42, the seed the figure binaries
//! regenerate the paper with. A cell's simulated statistics are then
//! exact and committed in `expected/`, and a cell's host time is the
//! same work in every run, so percentiles over cells never jump between
//! cells of different sizes. `--seed` draws the order cells run in,
//! afresh for every pass.

use std::collections::HashMap;
use std::time::Instant;

use sa_isa::rng::Xoshiro256;
use sa_isa::{ConsistencyModel, Trace};
use sa_metrics::JsonWriter;
use sa_profile::{ProfileTree, WallProfiler};
use sa_sim::{EngineMode, Multicore, NocStats, Report, SimConfig, Topology};
use sa_trace::NullTracer;
use sa_workloads::WorkloadSpec;

use crate::spans::{Recorder, Spans, HARNESS};
use crate::stats::{geomean, max, median, quantile};
use crate::{Args, Run};

const SIM: &str = "sa-sim";
const WORKLOADS_LAYER: &str = "sa-workloads";

const TRACE_SEED: u64 = 42;

/// Set-up is repeated this many times per run and reported as the
/// median, so one slow page-fault burst does not read as a regression.
const SETUP_REPS: usize = 5;

/// Instructions per core: 8-core cells run 12 000 per core; 1-core SPEC
/// cells run 4× as many, so none is too short to time.
const PARALLEL_INSTRS: usize = 12_000;
const SPEC_INSTRS: usize = 48_000;

/// mesh-256: 256 cores on a 16-wide mesh, 1 000 instructions per core.
const MESH_CORES: usize = 256;
const MESH_WIDTH: usize = 16;
const MESH_INSTRS: usize = 1_000;
/// mesh-256 is timed on the sharded engine with one shard: with two
/// shards on a two-CPU host, every tick of steal time on either CPU
/// stalls both shards at the next barrier, and ten runs spread by up to
/// the 0.25 bound. The traced run also times two shards, and records
/// their epoch/barrier/exchange split.
const MESH_SHARDS: usize = 1;
const MESH_TRACED_SHARDS: usize = 2;

/// One benchmark under one configuration.
#[derive(Clone)]
struct Cell {
    id: String,
    bench: usize,
    model: ConsistencyModel,
}

/// One benchmark's inputs.
struct Bench {
    spec: WorkloadSpec,
    cores: usize,
    instrs: usize,
}

/// A sim workload: its benchmarks, cells, engine and the committed
/// statistics its cells are checked against.
struct Plan {
    benches: Vec<Bench>,
    cells: Vec<Cell>,
    mesh: bool,
    engine: EngineMode,
    expected: HashMap<String, Pinned>,
}

fn spec(name: &str) -> WorkloadSpec {
    sa_workloads::by_name(name).unwrap_or_else(|| panic!("sa-workloads has {name}"))
}

fn plan(workload: &str) -> Plan {
    if workload == "mesh-256" {
        let benches = ["radix", "x264"]
            .iter()
            .map(|n| Bench {
                spec: spec(n),
                cores: MESH_CORES,
                instrs: MESH_INSTRS,
            })
            .collect::<Vec<_>>();
        let model = ConsistencyModel::Ibm370SlfSosKey;
        let cells = benches
            .iter()
            .enumerate()
            .map(|(bench, b)| Cell {
                id: format!("{}-256.{}", b.spec.name, model.label()),
                bench,
                model,
            })
            .collect();
        return Plan {
            benches,
            cells,
            mesh: true,
            engine: EngineMode::Parallel {
                threads: MESH_SHARDS,
            },
            expected: expected_table(include_str!("../expected/mesh-256.tsv")),
        };
    }
    let benches: Vec<Bench> = [
        ("barnes", 8, PARALLEL_INSTRS),
        ("radix", 8, PARALLEL_INSTRS),
        ("x264", 8, PARALLEL_INSTRS),
        ("505.mcf", 1, SPEC_INSTRS),
        ("557.xz_2", 1, SPEC_INSTRS),
    ]
    .iter()
    .map(|&(n, cores, instrs)| Bench {
        spec: spec(n),
        cores,
        instrs,
    })
    .collect();
    let mut cells = Vec::new();
    for (bench, b) in benches.iter().enumerate() {
        for model in ConsistencyModel::ALL {
            cells.push(Cell {
                id: format!("{}.{}", b.spec.name, model.label()),
                bench,
                model,
            });
        }
    }
    Plan {
        benches,
        cells,
        mesh: false,
        engine: EngineMode::EventDriven,
        expected: expected_table(include_str!("../expected/paper-sweep.tsv")),
    }
}

impl Plan {
    fn config(&self, cell: &Cell, engine: EngineMode) -> SimConfig {
        let cfg = SimConfig::default()
            .with_model(cell.model)
            .with_cores(self.benches[cell.bench].cores)
            .with_engine(engine);
        if self.mesh {
            cfg.with_topology(Topology::Mesh2D { width: MESH_WIDTH })
        } else {
            cfg
        }
    }

    fn budget(&self, cell: &Cell) -> u64 {
        (self.benches[cell.bench].instrs as u64 * 2_000).max(10_000_000)
    }

    fn core_count(&self, cell: &Cell) -> u64 {
        self.benches[cell.bench].cores as u64
    }

    /// Generates every benchmark's traces; returns them with the seconds
    /// spent in `WorkloadSpec::generate`.
    fn generate(&self, rec: &mut Recorder) -> (Vec<Vec<Trace>>, f64) {
        let t = Instant::now();
        let traces = self
            .benches
            .iter()
            .map(|b| {
                rec.span("workloads.generate", WORKLOADS_LAYER, None, |_| {
                    b.spec.generate(b.cores, b.instrs, TRACE_SEED)
                })
            })
            .collect();
        (traces, t.elapsed().as_secs_f64())
    }
}

/// The statistics committed per cell: they pin the simulated behaviour,
/// so a change that moves a cycle fails the run's output check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pinned {
    cycles: u64,
    retired: u64,
    squashes: u64,
    gate_closed: u64,
    sb_commits: u64,
}

impl Pinned {
    fn of(r: &Report) -> Pinned {
        let t = r.total();
        Pinned {
            cycles: r.cycles,
            retired: t.retired_instrs,
            squashes: t.squashes.iter().sum(),
            gate_closed: t.gate_closed_cycles,
            sb_commits: t.sb_commits,
        }
    }

    fn row(&self, id: &str) -> String {
        format!(
            "{id}\t{}\t{}\t{}\t{}\t{}",
            self.cycles, self.retired, self.squashes, self.gate_closed, self.sb_commits
        )
    }
}

fn expected_table(text: &str) -> HashMap<String, Pinned> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let n = |i: usize| {
                f[i].parse::<u64>()
                    .expect("committed statistic is an integer")
            };
            (
                f[0].to_string(),
                Pinned {
                    cycles: n(1),
                    retired: n(2),
                    squashes: n(3),
                    gate_closed: n(4),
                    sb_commits: n(5),
                },
            )
        })
        .collect()
}

/// Parallel-engine telemetry of one cell, from `Multicore::scalescope`.
#[derive(Debug, Clone, Copy, Default)]
struct Scope {
    work: f64,
    wait: f64,
    exchange: f64,
    epochs: u64,
    lookahead: u64,
    events: u64,
    critical_share: f64,
}

/// One timed cell execution.
struct CellRun {
    wall_s: f64,
    build_s: f64,
    run_s: f64,
    teardown_s: f64,
    report: Option<Report>,
    scope: Option<Scope>,
    noc: Option<NocStats>,
}

/// Runs one cell; checks its report and books it into `run`.
fn run_cell(
    plan: &Plan,
    cell: &Cell,
    traces: &[Vec<Trace>],
    engine: EngineMode,
    rec: &mut Recorder,
    telemetry: bool,
    run: &mut Run,
) -> CellRun {
    let cfg = plan.config(cell, engine);
    let input = traces[cell.bench].clone();
    let budget = plan.budget(cell);
    rec.span("cell", HARNESS, None, |rec| {
        let t0 = Instant::now();
        let mut sim = rec.span("sim.new", SIM, None, |_| Multicore::new(cfg, input));
        let t1 = Instant::now();
        let result = rec.span("sim.run", SIM, None, |_| sim.run(budget));
        let t2 = Instant::now();
        let (scope, noc) = if telemetry {
            rec.span("sim.telemetry", SIM, None, |_| {
                (sim.scalescope().map(summarize_scope), Some(sim.noc_stats()))
            })
        } else {
            (None, None)
        };
        let t3 = Instant::now();
        rec.span("sim.drop", SIM, None, |_| drop(sim));
        let t4 = Instant::now();
        let mut problems = Vec::new();
        let report = match result {
            Ok(r) => {
                if !r.cpi_invariant_holds() {
                    problems.push(format!(
                        "{} ({engine}): CPI stack invariant broken",
                        cell.id
                    ));
                }
                let got = Pinned::of(&r);
                match plan.expected.get(&cell.id) {
                    None => problems.push(format!("{}: no committed statistics", cell.id)),
                    Some(want) if *want != got => problems.push(format!(
                        "{} ({engine}): simulated {got:?}, committed {want:?}",
                        cell.id
                    )),
                    Some(_) => {}
                }
                Some(r)
            }
            Err(e) => {
                problems.push(format!("{} ({engine}): {e}", cell.id));
                None
            }
        };
        run.book(problems);
        CellRun {
            wall_s: ((t1 - t0) + (t2 - t1) + (t4 - t3)).as_secs_f64(),
            build_s: (t1 - t0).as_secs_f64(),
            run_s: (t2 - t1).as_secs_f64(),
            teardown_s: (t4 - t3).as_secs_f64(),
            report,
            scope,
            noc,
        }
    })
}

fn summarize_scope(s: &sa_sim::ParallelScope) -> Scope {
    let (work, wait, exchange) = s.fractions();
    let arrivals: u64 = s.per_shard.iter().map(|p| p.last_arriver_a).sum();
    let worst = s
        .per_shard
        .iter()
        .map(|p| p.last_arriver_a)
        .max()
        .unwrap_or(0);
    Scope {
        work,
        wait,
        exchange,
        epochs: s.epochs,
        lookahead: s.lookahead,
        events: s.events_exchanged(),
        critical_share: worst as f64 / arrivals.max(1) as f64,
    }
}

/// Runs every cell once, in an order drawn from `rng`; returns the runs
/// in plan order.
fn pass(
    plan: &Plan,
    traces: &[Vec<Trace>],
    engine: EngineMode,
    rng: &mut Xoshiro256,
    rec: &mut Recorder,
    telemetry: bool,
    run: &mut Run,
) -> (Vec<CellRun>, f64) {
    let mut order: Vec<usize> = (0..plan.cells.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range_usize(0, i + 1));
    }
    let t = Instant::now();
    let mut runs: Vec<(usize, CellRun)> = rec.span("pass", HARNESS, None, |rec| {
        order
            .iter()
            .map(|&i| {
                let c = &plan.cells[i];
                (i, run_cell(plan, c, traces, engine, rec, telemetry, run))
            })
            .collect()
    });
    runs.sort_by_key(|(i, _)| *i);
    (
        runs.into_iter().map(|(_, r)| r).collect(),
        t.elapsed().as_secs_f64(),
    )
}

/// Runs a sim workload: set-up, then the measured passes or, traced,
/// the traced run.
pub fn run(args: &Args, workload: &str) -> Run {
    let plan = plan(workload);
    let mut rng = Xoshiro256::seed_from_u64(args.seed);
    let epoch = Instant::now();
    let mut run = Run::default();
    let mut setup_rec = Recorder::new(epoch, args.trace, 0);
    let mut setup = Vec::new();
    let mut gen = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..SETUP_REPS {
        // Free the previous repetition's traces first, so every
        // repetition after the first reuses the same memory.
        drop(std::mem::take(&mut traces));
        let t = Instant::now();
        let (tr, gen_s) = setup_rec.span("setup", HARNESS, None, |rec| plan.generate(rec));
        setup.push(t.elapsed().as_secs_f64());
        gen.push(gen_s);
        traces = tr;
    }
    if args.trace {
        run.set("workloads.generate_s", median(&gen), "s");
        traced(&plan, &traces, &mut rng, epoch, setup_rec, &mut run);
        return run;
    }
    run.set("setup_s", median(&setup), "s");

    let mut off = Recorder::new(epoch, false, 0);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut passes = Vec::new();
    loop {
        passes.push(
            pass(
                &plan,
                &traces,
                plan.engine,
                &mut rng,
                &mut off,
                false,
                &mut run,
            )
            .0,
        );
        if passes.len() == 1 {
            run.set("peak_rss_mb", crate::host::peak_rss_mb(), "MiB");
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    // Per cell, the median over passes; a pass is their sum.
    let n = plan.cells.len();
    let per_cell = |f: &dyn Fn(&CellRun) -> f64| -> Vec<f64> {
        (0..n)
            .map(|i| median(&passes.iter().map(|p| f(&p[i])).collect::<Vec<_>>()))
            .collect()
    };
    let wall = per_cell(&|c| c.wall_s);
    let run_s = per_cell(&|c| c.run_s);
    let sweep_s: f64 = wall.iter().sum();
    let cell_ms: Vec<f64> = wall.iter().map(|w| w * 1e3).collect();
    run.set("sweep_s", sweep_s, "s");
    run.set("jobs_per_s", n as f64 / sweep_s, "1/s");
    run.set("job_p50_ms", median(&cell_ms), "ms");
    run.set("job_p95_ms", quantile(&cell_ms, 0.95), "ms");
    run.set("samples", cell_ms.len() as f64, "count");
    run.set("passes", passes.len() as f64, "count");
    let ccps: Vec<f64> = plan
        .cells
        .iter()
        .enumerate()
        .filter_map(|(i, c)| {
            let r = passes[0][i].report.as_ref()?;
            Some(r.cycles as f64 * plan.core_count(c) as f64 / run_s[i])
        })
        .collect();
    run.set("core_cycles_per_s", geomean(&ccps), "core-cycles/s");
    run.detail.push((
        "cells".to_string(),
        cells_json(&plan, &passes[0], &wall, &run_s),
    ));
    run
}

fn cells_json(plan: &Plan, first: &[CellRun], wall: &[f64], run_s: &[f64]) -> String {
    let mut j = JsonWriter::new();
    j.begin_array();
    for (i, c) in plan.cells.iter().enumerate() {
        j.begin_object()
            .field_str("cell", &c.id)
            .field_uint("cores", plan.core_count(c))
            .field_float("median_wall_s", wall[i])
            .field_float("median_run_s", run_s[i]);
        if let Some(r) = &first[i].report {
            j.field_uint("cycles", r.cycles)
                .field_uint("retired_instrs", r.total().retired_instrs);
        }
        j.end_object();
    }
    j.end_array();
    j.finish()
}

/// The traced run: a warm-up pass, one untraced pass, one traced pass
/// (the per-layer numbers), the engine comparison and, on paper-sweep,
/// the profiled pass.
fn traced(
    plan: &Plan,
    traces: &[Vec<Trace>],
    rng: &mut Xoshiro256,
    epoch: Instant,
    setup_rec: Recorder,
    run: &mut Run,
) {
    // A discarded warm-up pass first: the first pass of a process pays
    // for page faults and allocator growth, which would read as negative
    // tracing overhead.
    let mut off = Recorder::new(epoch, false, 0);
    pass(plan, traces, plan.engine, rng, &mut off, false, run);
    let (plain, plain_wall) = pass(plan, traces, plan.engine, rng, &mut off, false, run);
    let mut rec = Recorder::new(epoch, true, 0);
    let (cells, traced_wall) = pass(plan, traces, plan.engine, rng, &mut rec, true, run);
    run.set(
        "trace.overhead_frac",
        traced_wall / plain_wall - 1.0,
        "fraction",
    );

    // sa-sim: host time per layer call, and throughput per cell.
    let sum = |f: &dyn Fn(&CellRun) -> f64| cells.iter().map(f).sum::<f64>();
    run.set("sim.build_ms", sum(&|c| c.build_s) * 1e3, "ms");
    run.set("sim.teardown_ms", sum(&|c| c.teardown_s) * 1e3, "ms");
    run.set("sim.run_s", sum(&|c| c.run_s), "s");
    let mut ccps = Vec::new();
    for (cell, c) in plan.cells.iter().zip(&cells) {
        let Some(r) = &c.report else { continue };
        let core_cycles = r.cycles as f64 * plan.core_count(cell) as f64;
        ccps.push(core_cycles / c.run_s);
        run.set(
            format!("sim.ns_per_core_cycle.{}", cell.id),
            c.run_s * 1e9 / core_cycles,
            "ns",
        );
    }
    run.set("sim.core_cycles_per_s", geomean(&ccps), "core-cycles/s");
    model_metrics(plan, &cells, run);

    // Engine comparison: every engine must simulate the same cycles;
    // the ratios are host run time against the event-driven engine.
    let others: Vec<EngineMode> = if plan.mesh {
        vec![
            EngineMode::EventDriven,
            EngineMode::Parallel {
                threads: MESH_TRACED_SHARDS,
            },
        ]
    } else {
        vec![EngineMode::Lockstep, EngineMode::Parallel { threads: 1 }]
    };
    let mut host = vec![(plan.engine, sum(&|c| c.run_s))];
    for engine in others {
        let telemetry = matches!(engine, EngineMode::Parallel { threads } if threads > 1);
        let (other, _) = pass(plan, traces, engine, rng, &mut rec, telemetry, run);
        for (cell, (a, b)) in plan.cells.iter().zip(cells.iter().zip(&other)) {
            let (Some(ra), Some(rb)) = (&a.report, &b.report) else {
                continue;
            };
            if ra.cycles != rb.cycles {
                run.problems.push(format!(
                    "{}: {} ran {} cycles, {engine} ran {}",
                    cell.id, plan.engine, ra.cycles, rb.cycles
                ));
            }
        }
        if telemetry {
            scope_metrics(plan, &other, run);
        }
        host.push((engine, other.iter().map(|c| c.run_s).sum()));
    }
    let event = host
        .iter()
        .find(|(e, _)| *e == EngineMode::EventDriven)
        .map_or(0.0, |(_, t)| *t);
    let mut engines = JsonWriter::new();
    engines.begin_array();
    for (engine, run_s) in &host {
        engines
            .begin_object()
            .field_str("engine", &engine.to_string())
            .field_float("run_s", *run_s)
            .end_object();
        let name = match engine {
            EngineMode::Lockstep => "lockstep".to_string(),
            EngineMode::EventDriven => continue,
            EngineMode::Parallel { threads } => format!("parallel{threads}"),
        };
        run.set(format!("engine.{name}_vs_event"), run_s / event, "ratio");
    }
    engines.end_array();
    run.detail.push(("engines".to_string(), engines.finish()));

    if !plan.mesh {
        profiled_pass(plan, traces, &plain, run);
    }
    let mut spans = Spans::default();
    spans.absorb(setup_rec);
    spans.absorb(rec);
    run.spans = Some(spans);
}

/// The parallel engine's epoch anatomy per cell, from a multi-shard pass.
fn scope_metrics(plan: &Plan, cells: &[CellRun], run: &mut Run) {
    for (cell, c) in plan.cells.iter().zip(cells) {
        let Some(s) = c.scope else { continue };
        let bench = plan.benches[cell.bench].spec.name;
        let p = |m: &str| format!("sim.parallel.{bench}.{m}");
        run.set(p("work_frac"), s.work, "fraction");
        run.set(p("wait_frac"), s.wait, "fraction");
        run.set(p("exchange_frac"), s.exchange, "fraction");
        run.set(p("epochs"), s.epochs as f64, "count");
        run.set(p("lookahead"), s.lookahead as f64, "cycles");
        run.set(p("events_exchanged"), s.events as f64, "count");
        run.set(p("critical_shard_share"), s.critical_share, "fraction");
    }
}

/// sa-ooo and sa-coherence model statistics over a pass, the
/// configuration comparison of Figure 10 and the Table IV error.
fn model_metrics(plan: &Plan, cells: &[CellRun], run: &mut Run) {
    let reports: Vec<&Report> = cells.iter().filter_map(|c| c.report.as_ref()).collect();
    let total = |f: &dyn Fn(&Report) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let retired = total(&|r| r.total().retired_instrs);
    let core_cycles = total(&|r| r.per_core.iter().map(|c| c.cycles).sum());
    run.set(
        "ooo.reexec_frac",
        total(&|r| r.total().reexec_instrs.iter().sum()) / retired,
        "fraction",
    );
    run.set(
        "ooo.gate_closed_frac",
        total(&|r| r.total().gate_closed_cycles) / core_cycles,
        "fraction",
    );
    run.set(
        "ooo.forwarded_frac",
        total(&|r| r.total().forwarded_loads) / retired,
        "fraction",
    );
    run.set(
        "ooo.squashes",
        total(&|r| r.total().squashes.iter().sum()),
        "count",
    );
    let loads = total(&|r| r.mem.demand_loads());
    run.set(
        "coherence.l1_hit_rate",
        total(&|r| r.mem.l1_hits()) / loads,
        "fraction",
    );
    run.set("coherence.misses", total(&|r| r.mem.misses()), "count");
    run.set(
        "coherence.invalidations",
        total(&|r| r.mem.invalidations()),
        "count",
    );
    run.set("coherence.flits", total(&|r| r.mem.flits_sent), "count");
    run.set(
        "coherence.bank_rejects",
        total(&|r| r.mem.per_bank.iter().map(|b| b.deferred).sum()),
        "count",
    );
    let fanout = cells
        .iter()
        .filter_map(|c| c.noc.as_ref())
        .map(|n| n.max_storm_fanout())
        .max()
        .unwrap_or(0);
    run.set("coherence.max_storm_fanout", fanout as f64, "count");

    if plan.mesh {
        return;
    }
    // Figure 10: execution time normalized to x86, geomean over benches.
    let cycles = |bench: usize, model: ConsistencyModel| -> Option<f64> {
        plan.cells
            .iter()
            .zip(cells)
            .find(|(c, _)| c.bench == bench && c.model == model)
            .and_then(|(_, r)| r.report.as_ref())
            .map(|r| r.cycles as f64)
    };
    for model in ConsistencyModel::ALL {
        let ratios: Vec<f64> = (0..plan.benches.len())
            .filter_map(|b| Some(cycles(b, model)? / cycles(b, ConsistencyModel::X86)?))
            .collect();
        run.set(
            format!("model.{}_norm_time", model.label()),
            geomean(&ratios),
            "ratio",
        );
    }
    // Table IV under 370-SLFSoS-key: distance from the paper's numbers.
    for (cell, c) in plan.cells.iter().zip(cells) {
        if cell.model != ConsistencyModel::Ibm370SlfSosKey {
            continue;
        }
        let Some(r) = &c.report else { continue };
        let b = &plan.benches[cell.bench].spec;
        let t = r.total();
        let p = |m: &str| format!("model.tableiv.{}.{m}", b.name);
        run.set(
            p("gate_stall_pct_err"),
            (t.gate_stall_pct() - b.paper.gate_stall_pct).abs(),
            "pct-points",
        );
        run.set(
            p("avg_stall_cycles_err"),
            (t.avg_gate_stall_cycles() - b.paper.avg_stall_cycles).abs(),
            "cycles",
        );
        run.set(
            p("reexec_pct_err"),
            (t.sa_reexec_pct() - b.paper.reexec_pct).abs(),
            "pct-points",
        );
    }
}

/// Every paper-sweep cell again under the existing `WallProfiler`, kept
/// out of the span timings: its cost is itself a measured number.
fn profiled_pass(plan: &Plan, traces: &[Vec<Trace>], plain: &[CellRun], run: &mut Run) {
    let mut merged = ProfileTree::new();
    let mut ratios = Vec::new();
    let mut plain_run = 0.0;
    let mut profiled_run = 0.0;
    for (cell, p) in plan.cells.iter().zip(plain) {
        let cfg = plan.config(cell, plan.engine);
        let input = traces[cell.bench].clone();
        let budget = plan.budget(cell);
        let ((result, secs), tree) = sa_profile::capture(|| {
            let mut sim =
                Multicore::<NullTracer, WallProfiler>::with_tracer_profiler(cfg, input, NullTracer);
            let t = Instant::now();
            let r = sim.run(budget);
            (r, t.elapsed().as_secs_f64())
        });
        if let Err(e) = result {
            run.problems.push(format!("{} (profiled): {e}", cell.id));
            continue;
        }
        ratios.push(secs / p.run_s);
        run.set(
            format!("profile.wall_ratio.{}", cell.id),
            secs / p.run_s,
            "ratio",
        );
        plain_run += p.run_s;
        profiled_run += secs;
        merged.merge(&tree);
    }
    let by_name = |name: &str| -> f64 {
        (0..merged.node_count())
            .map(|i| merged.node(i))
            .filter(|n| n.name == name)
            .map(|n| n.total_ns as f64 / 1e9)
            .sum()
    };
    let share = |name: &str| by_name(name) / profiled_run;
    run.set("ooo.tick_share", share("tick"), "fraction");
    for phase in ["lsq_retry", "sched_scan", "sb_drain", "frontend", "retire"] {
        run.set(format!("ooo.{phase}_share"), share(phase), "fraction");
    }
    run.set("coherence.memsys_share", share("memsys"), "fraction");
    run.set("coherence.directory_share", share("directory"), "fraction");
    run.set("coherence.private_share", share("private"), "fraction");
    run.set("profile.wall_ratio_median", median(&ratios), "ratio");
    run.set("profile.wall_ratio_max", max(&ratios), "ratio");
    run.set(
        "profile.reconciled_share",
        (by_name("memsys") + by_name("tick")) / plain_run,
        "fraction",
    );
}

/// Regenerates `expected/<workload>.tsv` with the serial event-driven
/// engine.
pub fn bless(args: &Args) -> Result<(), String> {
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => vec!["paper-sweep", "mesh-256"],
        "paper-sweep" | "mesh-256" => vec![args.workload.as_str()],
        w => return Err(format!("{w} has no committed statistics")),
    };
    for workload in workloads {
        let plan = plan(workload);
        let (traces, _) = plan.generate(&mut Recorder::new(Instant::now(), false, 0));
        let mut text = format!(
            "# {workload}: simulated statistics per cell, trace seed {TRACE_SEED}, serial event-driven engine\n\
             # cell\tcycles\tretired\tsquashes\tgate_closed_cycles\tsb_commits\n"
        );
        for cell in &plan.cells {
            let cfg = plan.config(cell, EngineMode::EventDriven);
            let mut sim = Multicore::new(cfg, traces[cell.bench].clone());
            let r = sim
                .run(plan.budget(cell))
                .map_err(|e| format!("{}: {e}", cell.id))?;
            if !r.cpi_invariant_holds() {
                return Err(format!("{}: CPI stack invariant broken", cell.id));
            }
            text.push_str(&Pinned::of(&r).row(&cell.id));
            text.push('\n');
        }
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("expected")
            .join(format!("{workload}.tsv"));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
