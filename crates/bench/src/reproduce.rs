//! Every table and figure of the paper's evaluation from one cell
//! matrix — the library behind `reproduce`.
//!
//! Each [`Artifact`] lists the simulations it reads (its [`Cell`]s) and
//! renders its `results/<name>.txt` from their reports. [`Matrix::simulate`]
//! runs the union of those lists with every distinct cell simulated once:
//! Figures 9 and 10 read the same five-configuration cells, Table IV reads
//! their `370-SLFSoS-key` column, and the energy table and the ablation's
//! default-configuration rows read theirs from the same reports. Scale and
//! seed are the run's, shared by every cell.

use std::fmt::{self, Write};

use sa_isa::ConsistencyModel;
use sa_litmus::{compare, explore, explore_pc, suite, ForwardPolicy};
use sa_sim::{EngineMode, Multicore, Report, SimConfig, StallBreakdown, Topology};
use sa_workloads::{Suite, WorkloadSpec};

use crate::{geomean_rows, normalized_times, parallel_map, run_config, suite_cores, Opts};

const KEY: ConsistencyModel = ConsistencyModel::Ibm370SlfSosKey;

/// The §VI-B energy table's benchmarks.
const ENERGY: [&str; 5] = [
    "barnes",
    "dedup",
    "water_spatial",
    "502.gcc_1",
    "511.povray",
];

/// What one run covers: the workloads `--suite`/`--only` select (Table IV,
/// Figures 9–10) and the energy table's, at one scale and seed, on one
/// engine.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Instructions per core of every cell.
    pub scale: usize,
    /// Trace-generation seed of every cell.
    pub seed: u64,
    /// Table IV's and Figures 9–10's benchmarks, in suite order.
    workloads: Vec<WorkloadSpec>,
    /// The energy table's benchmarks: the five of §VI-B, or `--only`'s.
    energy: Vec<WorkloadSpec>,
    /// `--engine`: every engine must render the same bytes.
    engine: Option<EngineMode>,
}

impl Scope {
    /// The scope `opts` selects. `Err` names an unknown `--only`.
    pub fn new(opts: &Opts) -> Result<Scope, String> {
        let workloads = opts.workloads()?;
        let energy = match opts.only {
            Some(_) => workloads.clone(),
            None => ENERGY.map(workload).to_vec(),
        };
        Ok(Scope {
            scale: opts.scale,
            seed: opts.seed,
            workloads,
            energy,
            engine: opts.engine,
        })
    }

    /// Every artifact's cells, in artifact order, duplicates included.
    pub fn cells(&self) -> Vec<Cell> {
        ARTIFACTS.iter().flat_map(|a| (a.cells)(self)).collect()
    }

    /// Runs `cell` to completion at this scope's scale and seed.
    ///
    /// # Panics
    ///
    /// Panics if the simulation wedges — a simulator bug.
    pub fn simulate(&self, cell: &Cell) -> Report {
        let mut cfg = cell.cfg.clone();
        if let Some(engine) = self.engine {
            cfg = cfg.with_engine(engine);
        }
        match &cell.program {
            Program::Workload(w) => run_config(w, cfg, self.scale, self.seed),
            Program::PointerChase => {
                let mut sim = Multicore::new(cfg, vec![pointer_chase(self.scale / 4)]);
                sim.run(u64::MAX).expect("pointer chase completes")
            }
        }
    }
}

/// The program a cell runs.
#[derive(Debug, Clone, PartialEq)]
enum Program {
    /// A synthetic benchmark: `scale` instructions on each core.
    Workload(WorkloadSpec),
    /// Ablation 4's dependent load stream: `scale / 4` loads on one core.
    PointerChase,
}

/// One simulation: a program on a machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    program: Program,
    /// The machine, core count included.
    cfg: SimConfig,
}

impl Cell {
    /// `w` on `cfg` at its suite's core count.
    fn workload(w: &WorkloadSpec, cfg: SimConfig) -> Cell {
        Cell {
            cfg: cfg.with_cores(suite_cores(w)),
            program: Program::Workload(w.clone()),
        }
    }

    /// `w` under `model` on the paper's machine (Table III).
    fn model(w: &WorkloadSpec, model: ConsistencyModel) -> Cell {
        Cell::workload(w, SimConfig::default().with_model(model))
    }
}

/// Distinct cells and their reports.
#[derive(Debug)]
pub struct Matrix {
    cells: Vec<Cell>,
    reports: Vec<Report>,
}

impl Matrix {
    /// Runs `run` once per distinct cell of `cells`, on up to `jobs`
    /// threads.
    pub fn simulate(cells: Vec<Cell>, jobs: usize, run: impl Fn(&Cell) -> Report + Sync) -> Matrix {
        let mut distinct: Vec<Cell> = Vec::new();
        for c in cells {
            if !distinct.contains(&c) {
                distinct.push(c);
            }
        }
        let reports = parallel_map(&distinct, jobs, run);
        Matrix {
            cells: distinct,
            reports,
        }
    }

    /// The distinct cells, in the order they were first listed.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The report of `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` was not simulated: a renderer read a cell its
    /// artifact does not list.
    pub fn report(&self, cell: &Cell) -> &Report {
        let i = self
            .cells
            .iter()
            .position(|c| c == cell)
            .unwrap_or_else(|| panic!("cell not in the matrix: {cell:?}"));
        &self.reports[i]
    }
}

type Render = fn(&Scope, &Matrix, &mut String) -> fmt::Result;

/// One file of `results/`: its name, the cells it reads and its renderer.
pub struct Artifact {
    /// File stem: the artifact is `<name>.txt`.
    pub name: &'static str,
    cells: fn(&Scope) -> Vec<Cell>,
    write: Render,
}

impl Artifact {
    const fn new(name: &'static str, cells: fn(&Scope) -> Vec<Cell>, write: Render) -> Artifact {
        Artifact { name, cells, write }
    }

    /// The artifact's text, from a matrix holding its cells.
    pub fn render(&self, scope: &Scope, matrix: &Matrix) -> String {
        let mut s = String::new();
        (self.write)(scope, matrix, &mut s).expect("writing to a String");
        s
    }
}

/// The nine artifacts, in the order `reproduce` writes them.
pub const ARTIFACTS: [Artifact; 9] = [
    Artifact::new("table1", no_cells, table1),
    Artifact::new("table2", no_cells, table2),
    Artifact::new("table3", no_cells, table3),
    Artifact::new("table4", table4_cells, table4),
    Artifact::new("litmus_figs", no_cells, litmus_figs),
    Artifact::new("fig9", all_models, fig9),
    Artifact::new("fig10", all_models, fig10),
    Artifact::new("energy", energy_cells, energy),
    Artifact::new("ablation", ablation_cells, ablation),
];

fn workload(name: &str) -> WorkloadSpec {
    sa_workloads::by_name(name).unwrap_or_else(|| panic!("no workload named {name}"))
}

fn no_cells(_: &Scope) -> Vec<Cell> {
    Vec::new()
}

fn five_models(ws: &[WorkloadSpec]) -> Vec<Cell> {
    ws.iter()
        .flat_map(|w| ConsistencyModel::ALL.map(|m| Cell::model(w, m)))
        .collect()
}

fn all_models(scope: &Scope) -> Vec<Cell> {
    five_models(&scope.workloads)
}

fn reports<'m>(m: &'m Matrix, w: &WorkloadSpec) -> Vec<&'m Report> {
    ConsistencyModel::ALL
        .iter()
        .map(|&model| m.report(&Cell::model(w, model)))
        .collect()
}

/// A sweep artifact's first line: what it shows, at which scale and seed.
fn title(s: &mut String, scope: &Scope, what: &str) -> fmt::Result {
    let (scale, seed) = (scope.scale, scope.seed);
    writeln!(s, "{what} (scale {scale} instrs/core, seed {seed})")
}

/// The selected workloads per suite under the section titles a workload
/// table prints; a suite with none selected has no section.
fn sections<'a>(scope: &'a Scope, titles: [&'a str; 2]) -> Vec<(&'a str, Vec<&'a WorkloadSpec>)> {
    let suite = |s: Suite| scope.workloads.iter().filter(|w| w.suite == s).collect();
    [
        (titles[0], suite(Suite::Parallel)),
        (titles[1], suite(Suite::Spec)),
    ]
    .into_iter()
    .filter(|(_, ws): &(_, Vec<_>)| !ws.is_empty())
    .collect()
}

/// Table I: the atomicity taxonomy and the simulator's mapping onto it.
fn table1(_: &Scope, _: &Matrix, s: &mut String) -> fmt::Result {
    writeln!(s, "{}", sa_litmus::taxonomy::render_table1())?;
    writeln!(s, "Simulator mapping:")?;
    for m in ConsistencyModel::ALL {
        let gate = match (m.uses_retire_gate(), m.uses_key()) {
            (false, _) => "none",
            (true, true) => "key-unlocked",
            (true, false) => "SB-drain-unlocked",
        };
        let (label, sa, fwd) = (m.label(), m.is_store_atomic(), m.allows_forwarding());
        writeln!(
            s,
            "  {label:<16} store-atomic: {sa:<5} forwarding: {fwd:<5} retire gate: {gate}"
        )?;
    }
    Ok(())
}

/// Table II: every outcome of the Figure 5 code (two cores each doing
/// `st v,1; ld v; ld other`) under x86 and 370.
fn table2(_: &Scope, _: &Matrix, s: &mut String) -> fmt::Result {
    // Both tuples are ([x],[y]) as observed by that core. A core "sees an
    // order" when it observes one location new and the other old. (The
    // paper's Table II prints Core2's case-3 pair in its own read order,
    // i.e. ([y],[x]); we print ([x],[y]) uniformly.)
    fn case_label(c1: (u64, u64), c2: (u64, u64)) -> &'static str {
        match (c1, c2) {
            ((1, 0), (0, 1)) => "Disagreement in order  (x86 ONLY)",
            ((1, 0), (1, 1)) => "Core2 cannot see order",
            ((1, 1), (0, 1)) => "Core1 cannot see order",
            ((1, 1), (1, 1)) => "None can see any order",
            _ => "unexpected",
        }
    }
    let ct = suite::fig5();
    writeln!(
        s,
        "Table II: all possible outcomes for the code in Figure 5\n\
         (Core1: st x,1; ld x; ld y   Core2: st y,1; ld y; ld x)\n"
    )?;
    for (policy, label) in [
        (ForwardPolicy::StoreAtomic370, "370 (store-atomic)"),
        (ForwardPolicy::X86, "x86 (non-store-atomic)"),
    ] {
        // Project onto ([x],[y]) as seen by each core: Core1 sees x via
        // its own store (r0) and y via r1; Core2 symmetric.
        let mut cases: Vec<((u64, u64), (u64, u64))> = explore(&ct.test, policy)
            .iter()
            .map(|o| ((o.regs[0][0], o.regs[0][1]), (o.regs[1][1], o.regs[1][0])))
            .collect();
        cases.sort();
        cases.dedup();
        writeln!(
            s,
            "{label}: {} distinct observations\n  Case  Core1 [x],[y]   Core2 [x],[y]   Comment",
            cases.len()
        )?;
        for (i, &((x1, y1), (x2, y2))) in cases.iter().enumerate() {
            let case = case_label((x1, y1), (x2, y2));
            let i = i + 1;
            writeln!(
                s,
                "  {i:<5} {x1},{y1} (x,y)       {x2},{y2} (x,y)       {case}"
            )?;
        }
        writeln!(s)?;
    }
    writeln!(
        s,
        "Paper: the store-atomic implementation has exactly 3 outcomes;\n\
         the non-store-atomic one adds the disagreement outcome (case 1)."
    )
}

/// Table III: the simulated system configuration.
fn table3(_: &Scope, _: &Matrix, s: &mut String) -> fmt::Result {
    let cfg = SimConfig::default();
    let bits = cfg.core.sa_storage_bits();
    write!(s, "{}", cfg.render_table3())?;
    writeln!(
        s,
        "\nSA-speculation storage overhead (Section IV-D): {bits} bits ({} bytes)",
        bits / 8
    )
}

fn table4_cells(scope: &Scope) -> Vec<Cell> {
    scope
        .workloads
        .iter()
        .map(|w| Cell::model(w, KEY))
        .collect()
}

/// Table IV: per-benchmark characterization under `370-SLFSoS-key`,
/// each measured column next to the paper's.
fn table4(scope: &Scope, m: &Matrix, s: &mut String) -> fmt::Result {
    fn row(s: &mut String, name: &str, instrs: u64, c: &[f64; 8]) -> fmt::Result {
        writeln!(
            s,
            "{:<18} {:>12} {:>8.3} {:>8.3} {:>8.3}|{:>6.3} {:>9.2}|{:>7.2} {:>8.3}|{:>7.3}",
            name, instrs, c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]
        )
    }
    title(s, scope, "Table IV: characterization under 370-SLFSoS-key")?;
    for (title, ws) in sections(
        scope,
        [
            "Parallel applications (SPLASH-3 / PARSEC, 8 cores)",
            "Sequential applications (SPECrate CPU 2017)",
        ],
    ) {
        writeln!(
            s,
            "\n=== {title} ===\n\
             (each measured column is followed by the paper's Table IV value)\n\
             {:<18} {:>12} {:>8} {:>8} {:>8}|{:>6} {:>9}|{:>7} {:>8}|{:>7}",
            "Benchmark",
            "Instructions",
            "Loads%",
            "Fwd%",
            "Gate%",
            "paper",
            "AvgStall",
            "paper",
            "Re-ex%",
            "paper"
        )?;
        let rows: Vec<(u64, [f64; 8])> = ws
            .iter()
            .map(|w| {
                let (t, p) = (m.report(&Cell::model(w, KEY)).total(), w.paper);
                let cols = [
                    t.loads_pct(),
                    t.forwarded_pct(),
                    t.gate_stall_pct(),
                    p.gate_stall_pct,
                    t.avg_gate_stall_cycles(),
                    p.avg_stall_cycles,
                    t.sa_reexec_pct(),
                    p.reexec_pct,
                ];
                (t.retired_instrs, cols)
            })
            .collect();
        for (w, (instrs, cols)) in ws.iter().zip(&rows) {
            row(s, w.name, *instrs, cols)?;
        }
        let n = rows.len() as f64;
        let instrs = rows.iter().map(|r| r.0).sum::<u64>() as f64 / n;
        let means = std::array::from_fn(|i| rows.iter().map(|r| r.1[i]).sum::<f64>() / n);
        row(s, "Average", instrs as u64, &means)?;
    }
    writeln!(
        s,
        "\nPaper reference averages: parallel 24.285% loads / 3.688% fwd / 1.115% gate\n\
         stalls / 18.4 avg cycles / 0.492% re-exec; sequential 24.143% / 4.550% /\n\
         1.480% / 11.5 / 0.565%. Outliers: x264 (contended condvar) and 505.mcf\n\
         (evictions) dominate the re-execution column."
    )
}

/// Figures 1/2/3/5: litmus classifications by exhaustive exploration,
/// plus the ConsistencyChecker-style model diff of each program.
fn litmus_figs(_: &Scope, _: &Matrix, s: &mut String) -> fmt::Result {
    let verdict = |allowed: bool| if allowed { "ALLOWED" } else { "forbidden" };
    writeln!(
        s,
        "Litmus-test classifications (exhaustive exploration)\n\n\
         {:<14} {:>14} {:>14} {:>10} {:>10}",
        "Test", "x86 outcomes", "370 outcomes", "x86", "370"
    )?;
    for ct in suite::all() {
        let x86 = explore(&ct.test, ForwardPolicy::X86);
        let ibm = explore(&ct.test, ForwardPolicy::StoreAtomic370);
        let ox = x86.contains_matching(&ct.condition);
        let oi = ibm.contains_matching(&ct.condition);
        let name = ct.test.name;
        assert_eq!(ox, ct.allowed_x86, "{name}: x86 classification drifted");
        assert_eq!(oi, ct.allowed_370, "{name}: 370 classification drifted");
        let (nx, ni, vx, vi) = (x86.len(), ibm.len(), verdict(ox), verdict(oi));
        writeln!(s, "{name:<14} {nx:>14} {ni:>14} {vx:>10} {vi:>10}")?;
    }
    writeln!(
        s,
        "\nConsistencyChecker-style diff (non-store-atomic behaviors):\n"
    )?;
    for ct in suite::all() {
        write!(s, "{}", compare(&ct.test).render())?;
    }
    writeln!(
        s,
        "Paper mapping: Fig.1 = mp (forbidden in both), Fig.2 = n6 (x86 only),\n\
         Fig.3 = iriw (forbidden in both, write-atomic coherence), Fig.5 = fig5\n\
         (the Table II disagreement outcome, x86 only).\n"
    )?;
    // Table I's third row, demonstrated: Processor Consistency (non-
    // write-atomic) admits the iriw disagreement that both write-atomic
    // models forbid.
    let iriw = suite::iriw();
    let pc = verdict(explore_pc(&iriw.test).contains_matching(&iriw.condition));
    writeln!(
        s,
        "Table I demo - iriw disagreement: x86 forbidden  370 forbidden  PC {pc}"
    )
}

/// Figure 9: percentage of cycles the processor cannot make progress
/// because the ROB, LQ or SQ/SB is full, for all five configurations.
fn fig9(scope: &Scope, m: &Matrix, s: &mut String) -> fmt::Result {
    // One configuration's row: `sum` over `n` benchmarks, each share
    // and the total divided once (n = 1 for a benchmark's own row).
    fn row(s: &mut String, name: &str, i: usize, sum: &StallBreakdown, n: f64) -> fmt::Result {
        let (name, model) = (
            if i == 0 { name } else { "" },
            ConsistencyModel::ALL[i].label(),
        );
        let (rob, lq, sq, total) = (
            sum.rob_pct / n,
            sum.lq_pct / n,
            sum.sq_pct / n,
            sum.total_pct() / n,
        );
        writeln!(
            s,
            "{name:<18} {model:>16} {rob:>8.2} {lq:>8.2} {sq:>8.2} {total:>8.2}"
        )
    }
    title(
        s,
        scope,
        "Figure 9: processor stall cycles by full resource",
    )?;
    for (title, ws) in sections(scope, ["Parallel applications", "Sequential applications"]) {
        writeln!(
            s,
            "\n=== {title} ===\n{:<18} {:>16} {:>8} {:>8} {:>8} {:>8}",
            "Benchmark", "Config", "ROB(%)", "LQ(%)", "SQ/SB(%)", "Total(%)"
        )?;
        let mut sums = [StallBreakdown::default(); 5];
        for w in &ws {
            for (i, r) in reports(m, w).iter().enumerate() {
                let st = r.stalls();
                sums[i].rob_pct += st.rob_pct;
                sums[i].lq_pct += st.lq_pct;
                sums[i].sq_pct += st.sq_pct;
                row(s, w.name, i, &st, 1.0)?;
            }
        }
        let n = ws.len() as f64;
        writeln!(s, "---")?;
        for (i, st) in sums.iter().enumerate() {
            row(s, "Average", i, st, n)?;
        }
    }
    writeln!(
        s,
        "\nExpected shape (paper): 370-NoSpec stalls most; 370-SLFSpec reduces\n\
         stalls; 370-SLFSoS and especially 370-SLFSoS-key approach x86.\n\
         radix is dominated by SQ/SB stalls in every configuration."
    )
}

/// Figure 10: execution time of the four store-atomic configurations
/// normalized to x86, with geometric means.
fn fig10(scope: &Scope, m: &Matrix, s: &mut String) -> fmt::Result {
    fn row(s: &mut String, name: &str, n: &[f64]) -> fmt::Result {
        writeln!(
            s,
            "{:<18} {:>10.3} {:>12.3} {:>12.3} {:>12.3} {:>14.3}",
            name, 1.0, n[0], n[1], n[2], n[3]
        )
    }
    title(s, scope, "Figure 10: execution time normalized to x86")?;
    for (title, ws) in sections(scope, ["Parallel applications", "Sequential applications"]) {
        writeln!(
            s,
            "\n=== {title} ===\n{:<18} {:>10} {:>12} {:>12} {:>12} {:>14}",
            "Benchmark", "x86", "370-NoSpec", "370-SLFSpec", "370-SLFSoS", "370-SLFSoS-key"
        )?;
        let mut rows = Vec::new();
        for w in &ws {
            let norm = normalized_times(&reports(m, w));
            row(s, w.name, &norm)?;
            rows.push(norm);
        }
        row(s, "Geomean", &geomean_rows(&rows))?;
    }
    writeln!(
        s,
        "\nPaper reference (geomean): parallel 1.27 / 1.07 / 1.05 / 1.025;\n\
         sequential 1.23 / 1.14 / 1.12 / 1.027 (NoSpec / SLFSpec / SLFSoS /\n\
         SLFSoS-key). Expected shape: NoSpec >> SLFSpec >= SLFSoS >= SLFSoS-key ~ 1."
    )
}

fn energy_cells(scope: &Scope) -> Vec<Cell> {
    five_models(&scope.energy)
}

/// §VI-B: the proposal "does not significantly alter dynamic energy
/// consumption in the structures involved" — it adds no snoops, so the
/// five configurations' dynamic-event counts differ only by squash
/// replays.
fn energy(scope: &Scope, m: &Matrix, s: &mut String) -> fmt::Result {
    title(s, scope, "Dynamic-energy proxy normalized to x86")?;
    writeln!(
        s,
        "\n{:<16} {:>8} {:>12} {:>12} {:>12} {:>14}",
        "Benchmark", "x86", "370-NoSpec", "370-SLFSpec", "370-SLFSoS", "370-SLFSoS-key"
    )?;
    for w in &scope.energy {
        let reports = reports(m, w);
        let base = reports[0].energy_proxy();
        let n: Vec<f64> = reports.iter().map(|r| r.energy_proxy() / base).collect();
        writeln!(
            s,
            "{:<16} {:>8.3} {:>12.3} {:>12.3} {:>12.3} {:>14.3}",
            w.name, n[0], n[1], n[2], n[3], n[4]
        )?;
    }
    writeln!(
        s,
        "\nPaper (§VI-B): dynamic energy in the touched structures is not\n\
         significantly altered (no extra snoops); overall energy follows\n\
         execution time. Expected shape: all columns within a few percent\n\
         of 1.0, with deltas dominated by squash replays."
    )
}

// The ablation's sweeps. Each row is one cell; rows at the paper's
// default (RFO depth 32, one key, serialized drain, fully connected)
// are Figure 10's cells.
const FWD_PCTS: [f64; 4] = [2.0, 8.0, 14.0, 18.0];
const GATE_MODELS: [ConsistencyModel; 3] =
    [ConsistencyModel::X86, ConsistencyModel::Ibm370SlfSos, KEY];
const RFO_DEPTHS: [usize; 4] = [1, 4, 16, 32];
const GATE_KEYS: [usize; 4] = [1, 2, 4, 8];
const TOPOLOGIES: [(Topology, &str); 2] = [
    (Topology::FullyConnected, "fully connected"),
    (Topology::Mesh2D { width: 4 }, "4-wide 2D mesh"),
];

fn fwd_cell(fwd: f64, model: ConsistencyModel) -> Cell {
    Cell::model(&WorkloadSpec::base("sweep", Suite::Spec, 28.0, fwd), model)
}

fn rfo_cell(depth: usize) -> Cell {
    let mut cfg = SimConfig::default().with_model(KEY);
    cfg.core.rfo_depth = depth;
    Cell::workload(&workload("radix"), cfg)
}

fn storeset_cell(on: bool) -> Cell {
    let w = WorkloadSpec {
        late_store_addr: 0.5,
        ..WorkloadSpec::base("latestore", Suite::Spec, 28.0, 6.0)
    };
    let mut cfg = SimConfig::default().with_model(ConsistencyModel::X86);
    cfg.core.storeset = on;
    Cell::workload(&w, cfg)
}

fn prefetch_cell(on: bool) -> Cell {
    let mut cfg = SimConfig::default()
        .with_model(ConsistencyModel::X86)
        .with_cores(1);
    cfg.mem.prefetch = on;
    cfg.mem.prefetch_degree = 4;
    Cell {
        program: Program::PointerChase,
        cfg,
    }
}

fn drain_cell(pipelined: bool, model: ConsistencyModel) -> Cell {
    let mut cfg = SimConfig::default().with_model(model);
    cfg.core.commit_pipelined = pipelined;
    Cell::workload(&workload("502.gcc_1"), cfg)
}

fn keys_cell(keys: usize) -> Cell {
    let mut cfg = SimConfig::default().with_model(KEY);
    cfg.core.gate_keys = keys;
    Cell::workload(&workload("barnes"), cfg)
}

fn topology_cell(topology: Topology) -> Cell {
    let mut cfg = SimConfig::default().with_model(KEY);
    cfg.mem.topology = topology;
    Cell::workload(&workload("dedup"), cfg)
}

fn ablation_cells(_: &Scope) -> Vec<Cell> {
    let mut cells = Vec::new();
    for fwd in FWD_PCTS {
        cells.extend(GATE_MODELS.map(|m| fwd_cell(fwd, m)));
    }
    cells.extend(RFO_DEPTHS.map(rfo_cell));
    cells.extend([true, false].map(storeset_cell));
    cells.extend([true, false].map(prefetch_cell));
    for pipelined in [false, true] {
        cells.extend(ConsistencyModel::ALL.map(|m| drain_cell(pipelined, m)));
    }
    cells.extend(GATE_KEYS.map(keys_cell));
    cells.extend(TOPOLOGIES.map(|(t, _)| topology_cell(t)));
    cells
}

/// A dependent load stream: each load's address comes from the previous
/// load, so the out-of-order window cannot overlap the misses and the
/// prefetcher is the only latency hider.
fn pointer_chase(n: usize) -> sa_isa::Trace {
    use sa_isa::{Pc, Reg, TraceBuilder};
    let mut b = TraceBuilder::new();
    b.mov_imm(Reg::new(1), 0);
    for i in 0..n as u64 {
        b.pin_pc(Pc(0x900));
        b.push(sa_isa::Op::Load {
            dst: Reg::new(1),
            addr: 0x4000_0000 + i * 64,
            size: 8,
            addr_src: Some(Reg::new(1)),
        });
        b.unpin_pc();
    }
    b.build()
}

/// Ablations of the design choices DESIGN.md calls out, beyond the
/// paper's own evaluation.
fn ablation(_: &Scope, m: &Matrix, s: &mut String) -> fmt::Result {
    writeln!(
        s,
        "== Ablation 1: gate-reopen policy vs forwarding intensity ==\n\
         {:<10} {:>12} {:>12} {:>12} {:>14}",
        "fwd(%)", "x86", "370-SLFSoS", "SLFSoS-key", "key benefit(%)"
    )?;
    for fwd in FWD_PCTS {
        let [x86, sos, key] = GATE_MODELS.map(|model| m.report(&fwd_cell(fwd, model)).cycles);
        let benefit = 100.0 * (sos as f64 - key as f64) / sos as f64;
        writeln!(s, "{fwd:<10} {x86:>12} {sos:>12} {key:>12} {benefit:>14.2}")?;
    }

    writeln!(
        s,
        "\n== Ablation 2: RFO prefetch depth (radix store streams) ==\n\
         {:<10} {:>12} {:>14}",
        "depth", "cycles(key)", "SQ/SB stall(%)"
    )?;
    for depth in RFO_DEPTHS {
        let r = m.report(&rfo_cell(depth));
        let (cycles, sq) = (r.cycles, r.stalls().sq_pct);
        writeln!(s, "{depth:<10} {cycles:>12} {sq:>14.2}")?;
    }

    writeln!(
        s,
        "\n== Ablation 3: StoreSet predictor (late store addresses) =="
    )?;
    for (on, label) in [(true, "StoreSet on"), (false, "StoreSet off")] {
        let r = m.report(&storeset_cell(on));
        let t = r.total();
        writeln!(
            s,
            "{label:<14} cycles={:>8}  memory-order squashes={:<6} re-executed={}",
            r.cycles,
            t.squashes_for(sa_sim::ooo::SquashCause::MemOrder),
            t.reexec_for(sa_sim::ooo::SquashCause::MemOrder)
        )?;
    }

    writeln!(
        s,
        "\n== Ablation 4: L1 stride prefetcher (dependent streaming loads) =="
    )?;
    for (on, label) in [(true, "prefetch on"), (false, "prefetch off")] {
        let r = m.report(&prefetch_cell(on));
        let (cycles, prefetches) = (r.cycles, r.mem.per_core[0].prefetches);
        writeln!(s, "{label:<14} cycles={cycles:>8}  prefetches={prefetches}")?;
    }

    writeln!(
        s,
        "\n== Ablation 5: SB commit pipelining ==\n{:<12} {:>10} {:>10} {:>10} {:>10}",
        "drain", "NoSpec", "SLFSpec", "SLFSoS", "SLFSoS-key"
    )?;
    for (pipelined, label) in [(false, "serialized"), (true, "pipelined")] {
        let cycles =
            ConsistencyModel::ALL.map(|model| m.report(&drain_cell(pipelined, model)).cycles);
        let n = cycles.map(|c| c as f64 / cycles[0] as f64);
        writeln!(
            s,
            "{label:<12} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            n[1], n[2], n[3], n[4]
        )?;
    }
    writeln!(
        s,
        "\n(The store-atomic configurations converge toward x86 as the drain\n\
         gets faster — the cost of store atomicity is at heart a drain-latency\n\
         exposure, which is the paper's core observation.)"
    )?;

    // With >1 key registers, a second SLF load can retire through a
    // closed gate by depositing its key — relaxing the paper's
    // single-register invariant at a few extra bits.
    writeln!(
        s,
        "\n== Ablation 6: multi-key retire gate (extension beyond the paper) ==\n\
         {:<10} {:>12} {:>14} {:>16}",
        "keys", "cycles(key)", "gate stalls(%)", "avg stall cycles"
    )?;
    for keys in GATE_KEYS {
        let r = m.report(&keys_cell(keys));
        let t = r.total();
        let (cycles, gate, stall) = (r.cycles, t.gate_stall_pct(), t.avg_gate_stall_cycles());
        writeln!(s, "{keys:<10} {cycles:>12} {gate:>14.3} {stall:>16.2}")?;
    }

    // The paper's Table III uses a fully-connected fabric; GARNET's
    // common configuration is a mesh. Coherence-intensive sharing pays
    // for the extra hops.
    writeln!(
        s,
        "\n== Ablation 7: interconnect topology (fully connected vs 2D mesh) =="
    )?;
    for (topology, label) in TOPOLOGIES {
        let r = m.report(&topology_cell(topology));
        let (cycles, invalidations) = (r.cycles, r.mem.invalidations());
        writeln!(
            s,
            "{label:<16} cycles={cycles:>9}  invalidations={invalidations}"
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn each_distinct_cell_is_simulated_once_and_all_nine_render() {
        let scope = Scope::new(&Opts {
            scale: 100,
            ..Opts::default()
        })
        .unwrap();
        let listed = scope.cells();
        let runs = Mutex::new(Vec::new());
        let m = Matrix::simulate(listed.clone(), 2, |c| {
            runs.lock().unwrap().push(c.clone());
            scope.simulate(c)
        });
        let runs = runs.into_inner().unwrap();

        // 61 Table IV cells, 305 each for Figures 9 and 10, 25 energy
        // cells and 36 ablation rows, of which 333 are distinct.
        assert_eq!(listed.len(), 61 + 305 + 305 + 25 + 36);
        assert_eq!(m.cells().len(), 333);
        assert_eq!(runs.len(), 333, "one simulation per distinct cell");
        for (i, c) in runs.iter().enumerate() {
            assert!(!runs[..i].contains(c), "simulated twice: {c:?}");
        }

        // The shared rows are the very same report.
        let same = |a: &Cell, b: &Cell| std::ptr::eq(m.report(a), m.report(b));
        let fig = all_models(&scope);
        assert_eq!(
            fig,
            (ARTIFACTS[6].cells)(&scope),
            "fig9 and fig10 share cells"
        );
        for c in table4_cells(&scope).iter().chain(&energy_cells(&scope)) {
            assert!(fig.contains(c), "{c:?}");
        }
        let radix = workload("radix");
        assert!(same(&rfo_cell(32), &Cell::model(&radix, KEY)));
        assert!(same(&keys_cell(1), &Cell::model(&workload("barnes"), KEY)));
        let dedup = workload("dedup");
        assert!(same(
            &topology_cell(Topology::FullyConnected),
            &Cell::model(&dedup, KEY)
        ));
        for model in ConsistencyModel::ALL {
            let gcc = workload("502.gcc_1");
            assert!(same(&drain_cell(false, model), &Cell::model(&gcc, model)));
        }

        for (a, title) in ARTIFACTS.iter().zip([
            "Table I",
            "Table II",
            "Table III",
            "Table IV",
            "Litmus-test classifications",
            "Figure 9",
            "Figure 10",
            "Dynamic-energy proxy",
            "== Ablation 1",
        ]) {
            let text = a.render(&scope, &m);
            assert!(text.contains(title), "{}: {text}", a.name);
        }
    }

    #[test]
    fn only_narrows_energy_too_and_every_engine_renders_the_same_bytes() {
        let opts = Opts {
            scale: 100,
            only: Some("557.xz_2".into()),
            ..Opts::default()
        };
        let event = Scope::new(&opts).unwrap();
        assert_eq!(event.workloads.len(), 1);
        assert_eq!(event.energy, event.workloads);
        let lockstep = Scope::new(&Opts {
            engine: Some(EngineMode::Lockstep),
            ..opts.clone()
        })
        .unwrap();
        let render = |scope: &Scope| {
            let m = Matrix::simulate(scope.cells(), 2, |c| scope.simulate(c));
            ARTIFACTS.map(|a| a.render(scope, &m))
        };
        assert_eq!(render(&event), render(&lockstep));
    }
}
