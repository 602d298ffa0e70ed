//! Records an annotated cycle-level run as a structured event trace:
//! Chrome trace-event JSON (open at `ui.perfetto.dev` or
//! `chrome://tracing`) plus a Konata-style per-instruction pipeline
//! text view, written into `results/`.
//!
//! ```text
//! cargo run -p sa-bench --bin trace -- --litmus n6
//! cargo run -p sa-bench --bin trace -- --litmus mp --model 370-SLFSoS
//! cargo run -p sa-bench --bin trace -- --workload barnes --scale 3000
//! cargo run -p sa-bench --bin trace -- --workload 505.mcf --model x86
//! cargo run -p sa-bench --bin trace                 # mp + n6 + barnes slice
//! ```
//!
//! The litmus traces are where the paper's §III story is visible as a
//! timeline: on `n6` under `370-SLFSoS-key`, the forwarded `ld x`
//! retires, the gate closes under the forwarding store's key, and the
//! gate reopens on the matching SB commit — the window of vulnerability
//! of Figures 6–7, now an inspectable span on the "retire gate" track.

use std::fs;
use std::path::{Path, PathBuf};

use sa_bench::cli::{self, Arity, Common, Flag, Spec};
use sa_isa::ConsistencyModel;
use sa_litmus::ast::ClassifiedTest;
use sa_litmus::suite;
use sa_sim::{Multicore, SimConfig};
use sa_trace::{
    export_chrome_trace, render_pipeview, EventKind, GateOpenReason, RingTracer, TraceEvent,
    VecTracer,
};
use sa_workloads::{Suite, WorkloadSpec};

/// Retained tail for workload runs (litmus runs are recorded unbounded).
const RING_CAPACITY: usize = 250_000;

const EXTRAS: &[Flag] = &[
    Flag {
        name: "--litmus",
        arity: Arity::Many,
        help: "record a litmus test (mp, n6, iriw, ...); repeatable",
    },
    Flag {
        name: "--workload",
        arity: Arity::One,
        help: "record a synthetic workload slice (barnes, 505.mcf, ...)",
    },
    Flag {
        name: "--model",
        arity: Arity::One,
        help: "consistency model label (default 370-SLFSoS-key)",
    },
];

const SPEC: Spec = Spec {
    bin: "trace",
    about: "structured cycle-level event traces (Chrome JSON + pipeview); \
            with no selection, records mp + n6 + a barnes slice",
    common: &[Common::Scale, Common::Seed, Common::Out],
    default_scale: Some(800),
    default_out: Some("results"),
    extras: EXTRAS,
};

/// Event counts by label, for the run summary.
fn summarize(events: &[TraceEvent]) -> String {
    let mut rows: Vec<(&'static str, u64)> = Vec::new();
    for ev in events {
        let label = ev.kind.label();
        match rows.iter_mut().find(|(l, _)| *l == label) {
            Some((_, n)) => *n += 1,
            None => rows.push((label, 1)),
        }
    }
    rows.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    rows.iter()
        .map(|(l, n)| format!("    {l:<16} {n}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The §III signature: the first gate-close whose key reappears on a
/// later key-match gate-open on the same core.
fn gate_episode(events: &[TraceEvent]) -> Option<(u64, u64, String)> {
    for (i, ev) in events.iter().enumerate() {
        if let EventKind::GateClose { key, .. } = ev.kind {
            for later in &events[i + 1..] {
                if later.core != ev.core {
                    continue;
                }
                if let EventKind::GateOpen {
                    reason: GateOpenReason::KeyMatch(k),
                } = later.kind
                {
                    if k == key {
                        return Some((ev.cycle, later.cycle, key.to_string()));
                    }
                }
            }
        }
    }
    None
}

fn write_outputs(out_dir: &Path, name: &str, events: &[TraceEvent], cycles: u64) {
    fs::create_dir_all(out_dir).expect("create output directory");
    let json_path = out_dir.join(format!("trace_{name}.json"));
    let pipe_path = out_dir.join(format!("trace_{name}.pipeview.txt"));
    fs::write(&json_path, export_chrome_trace(events)).expect("write chrome trace");
    fs::write(&pipe_path, render_pipeview(events)).expect("write pipeview");
    println!("{name}: {} events over {cycles} cycles", events.len());
    println!("{}", summarize(events));
    match gate_episode(events) {
        Some((close, open, key)) => println!(
            "    gate episode: closed @{close} under key {key}, reopened @{open} \
             on matching SB commit ({} cycle window)",
            open - close
        ),
        None => println!("    gate episode: none (gate never closed on a forwarded load)"),
    }
    println!("    -> {}", json_path.display());
    println!("    -> {}", pipe_path.display());
}

/// The suite's litmus test `name`, or a usage error listing the names.
fn litmus_test(name: &str) -> ClassifiedTest {
    suite::all()
        .into_iter()
        .find(|ct| ct.test.name == name)
        .unwrap_or_else(|| {
            let known: Vec<&str> = suite::all().iter().map(|ct| ct.test.name).collect();
            cli::usage_error(
                &SPEC,
                &format!("unknown litmus test {name:?}; have: {}", known.join(", ")),
            )
        })
}

fn run_litmus(ct: &ClassifiedTest, model: ConsistencyModel, out_dir: &Path) {
    let name = ct.test.name;
    let traces = ct.test.to_traces();
    let cfg = SimConfig::default()
        .with_model(model)
        .with_cores(traces.len());
    let mut sim = Multicore::with_tracer(cfg, traces, VecTracer::new());
    sim.run(5_000_000)
        .unwrap_or_else(|e| panic!("{name} under {model}: {e}"));
    let cycles = sim.cycle();
    let events = sim.into_tracer().into_events();
    write_outputs(
        out_dir,
        &format!("{name}_{}", model.label()),
        &events,
        cycles,
    );
}

fn run_workload(
    w: &WorkloadSpec,
    scale: usize,
    seed: u64,
    model: ConsistencyModel,
    out_dir: &Path,
) {
    let name = &w.name;
    let n = if w.suite == Suite::Parallel { 8 } else { 1 };
    let cfg = SimConfig::default().with_model(model).with_cores(n);
    let mut sim = Multicore::with_tracer(
        cfg,
        w.generate(n, scale, seed),
        RingTracer::new(RING_CAPACITY),
    );
    sim.run(u64::MAX)
        .unwrap_or_else(|e| panic!("{name} under {model}: {e}"));
    let cycles = sim.cycle();
    let ring = sim.into_tracer();
    if ring.dropped() > 0 {
        println!(
            "{name}: ring retained the last {} events ({} older events dropped)",
            ring.len(),
            ring.dropped()
        );
    }
    let events = ring.to_vec();
    let safe = name.replace('.', "_");
    write_outputs(
        out_dir,
        &format!("{safe}_{}", model.label()),
        &events,
        cycles,
    );
}

fn main() {
    let args = cli::parse(&SPEC);
    let mut litmus = args.values("--litmus");
    let mut workload = args.value("--workload");
    if litmus.is_empty() && workload.is_none() {
        litmus = vec!["mp", "n6"];
        workload = Some("barnes");
    }
    // Every name is resolved before the first run, so a usage error
    // writes nothing.
    let litmus: Vec<ClassifiedTest> = litmus.into_iter().map(litmus_test).collect();
    let workload = workload.map(|name| {
        sa_workloads::by_name(name)
            .unwrap_or_else(|| cli::usage_error(&SPEC, &format!("unknown workload {name:?}")))
    });
    let model = args
        .value("--model")
        .map(|label| cli::model(&SPEC, label))
        .unwrap_or(ConsistencyModel::Ibm370SlfSosKey);
    let out_dir = PathBuf::from(
        args.opts
            .out
            .as_deref()
            .expect("spec supplies a default --out"),
    );

    println!("model: {}", model.label());
    for ct in &litmus {
        run_litmus(ct, model, &out_dir);
    }
    if let Some(w) = workload {
        run_workload(&w, args.opts.scale, args.opts.seed, model, &out_dir);
    }
}
