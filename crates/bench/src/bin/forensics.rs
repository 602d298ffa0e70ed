//! Speculation-forensics sweep: runs the pinned suite
//! (`sa_bench::pinned_suite`, the cells `--bin perf` profiles) under
//! every consistency configuration with the `sa_forensics::Forensics`
//! stream analyzer attached, and writes per workload:
//!
//! * `results/forensics_<name>.json` — full machine-readable summary
//!   (blame matrix, hotspot table, episode ring, distributions) per
//!   config, schema `sa-bench-forensics-v1`;
//! * `results/forensics_<name>.folded` — folded-stack squash flamegraph
//!   for the 370-SLFSoS-key config (`flamegraph.pl`-compatible);
//! * a human-readable blame report, concatenated across the sweep into
//!   `results/forensics_report.txt` and echoed to stdout for the
//!   headline config.
//!
//! An attached tracer forces the cycle-exact lockstep engine, so this
//! binary is slower than `perf` at equal scale — that is the price of
//! per-event causality, and exactly why forensics is a separate opt-in
//! binary rather than part of every run.
//!
//! Usage: `forensics [--scale N] [--seed N] [--jobs N] [--out DIR]
//! [--litmus NAME]... [--only NAME] [--model LABEL]
//! [--serve-metrics PORT]`. `--litmus n6` runs the paper's §III
//! walkthrough and prints its single-episode blame report.

use sa_bench::cli::{self, Arity, Common, Flag, Spec};
use sa_bench::serve::MetricsServer;
use sa_bench::{parallel_map, run_workload_traced, PINNED_LITMUS, PINNED_WORKLOADS};
use sa_forensics::{Forensics, Summary};
use sa_isa::ConsistencyModel;
use sa_metrics::JsonWriter;
use sa_sim::{Multicore, Report, SimConfig};

const EXTRAS: &[Flag] = &[
    Flag {
        name: "--litmus",
        arity: Arity::Many,
        help: "run only these pinned litmus tests (n6, mp); repeatable",
    },
    Flag {
        name: "--model",
        arity: Arity::One,
        help: "restrict to one config by label (e.g. 370-SLFSoS-key)",
    },
    Flag {
        name: "--serve-metrics",
        arity: Arity::Port,
        help: "serve live /metrics and /forensics on this localhost port",
    },
];

const SPEC_CLI: Spec = Spec {
    default_scale: Some(2_000),
    default_out: Some("results"),
    extras: EXTRAS,
    ..Spec::new(
        "forensics",
        "causal gate-episode analysis with cross-core blame attribution",
        &[
            Common::Scale,
            Common::Seed,
            Common::Only,
            Common::Jobs,
            Common::Out,
        ],
    )
};

fn run_litmus_traced(name: &str, model: ConsistencyModel) -> (Report, Forensics) {
    let ct = match name {
        "n6" => sa_litmus::suite::n6(),
        "mp" => sa_litmus::suite::mp(),
        other => panic!("unpinned litmus test {other}"),
    };
    let traces = ct.test.to_traces();
    let cfg = SimConfig::default()
        .with_model(model)
        .with_cores(traces.len());
    let n = traces.len();
    let mut sim = Multicore::with_tracer(cfg, traces, Forensics::new(n));
    let report = sim
        .run(5_000_000)
        .unwrap_or_else(|e| panic!("{name} under {model}: {e}"));
    (report, sim.into_tracer())
}

struct Cell {
    report: Report,
    summary: Summary,
}

/// Cross-checks that stream-derived forensics totals reconcile with the
/// simulator's own aggregate counters (warn, don't abort: a sweep that
/// produced data is worth keeping even when it exposes a skew bug).
fn reconcile(name: &str, cell: &Cell) {
    let total = cell.report.total();
    let squashes: u64 = total.squashes.iter().sum();
    if cell.summary.squashes() != squashes {
        eprintln!(
            "warning: {name}/{}: forensics saw {} squashes, counters say {squashes}",
            cell.report.model.label(),
            cell.summary.squashes(),
        );
    }
    if cell.summary.gate_cycles() != total.gate_closed_cycles {
        eprintln!(
            "warning: {name}/{}: forensics episode cycles {} != gate_closed_cycles {}",
            cell.report.model.label(),
            cell.summary.gate_cycles(),
            total.gate_closed_cycles,
        );
    }
}

fn emit_cell(j: &mut JsonWriter, cell: &Cell) {
    let rep = &cell.report;
    let total = rep.total();
    j.begin_object()
        .field_str("config", rep.model.label())
        .field_uint("cycles", rep.cycles)
        .field_uint("instructions", total.retired_instrs)
        .field_uint("gate_closed_cycles", total.gate_closed_cycles)
        .field_uint("squashes", total.squashes.iter().sum())
        .field_uint("sb_commits", total.sb_commits)
        .key("forensics");
    cell.summary.write_json(j);
    j.end_object();
}

fn main() {
    let args = cli::parse(&SPEC_CLI);
    let opts = &args.opts;
    let out_dir = opts.out.clone().expect("spec supplies a default --out");

    let server = args.port("--serve-metrics").map(|port| {
        let srv = MetricsServer::start(port)
            .unwrap_or_else(|e| cli::usage_error(&SPEC_CLI, &format!("binding port {port}: {e}")));
        eprintln!("serving live metrics on http://127.0.0.1:{}/", srv.port());
        srv
    });

    let models: Vec<ConsistencyModel> = match args.value("--model") {
        Some(label) => vec![cli::model(&SPEC_CLI, label)],
        None => ConsistencyModel::ALL.to_vec(),
    };

    // Entry selection: an explicit `--litmus`/`--only` narrows the sweep
    // to exactly the named entries; default is the full pinned suite.
    struct Entry {
        name: String,
        kind: &'static str,
    }
    let litmus = |n: &str| Entry {
        name: n.to_string(),
        kind: "litmus",
    };
    let workload = |n: &str| Entry {
        name: n.to_string(),
        kind: match sa_workloads::by_name(n).expect("pinned workload").suite {
            sa_workloads::Suite::Parallel => "parallel",
            sa_workloads::Suite::Spec => "spec",
        },
    };
    let litmus_sel = args.values("--litmus");
    let mut entries: Vec<Entry> = Vec::new();
    if litmus_sel.is_empty() && opts.only.is_none() {
        entries.extend(PINNED_LITMUS.map(litmus));
        entries.extend(PINNED_WORKLOADS.map(workload));
    } else {
        for n in &litmus_sel {
            if !PINNED_LITMUS.contains(n) {
                cli::usage_error(
                    &SPEC_CLI,
                    &format!(
                        "unpinned litmus test {n:?}; have: {}",
                        PINNED_LITMUS.join(", ")
                    ),
                );
            }
            entries.push(litmus(n));
        }
        if let Some(only) = &opts.only {
            if !PINNED_WORKLOADS.contains(&only.as_str()) {
                cli::usage_error(
                    &SPEC_CLI,
                    &format!(
                        "unpinned workload {only:?}; have: {}",
                        PINNED_WORKLOADS.join(", ")
                    ),
                );
            }
            entries.push(workload(only));
        }
    }

    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| panic!("creating {out_dir}: {e}"));

    let cells: Vec<(&Entry, ConsistencyModel)> = entries
        .iter()
        .flat_map(|e| models.iter().map(move |&m| (e, m)))
        .collect();
    let results: Vec<Cell> = parallel_map(&cells, opts.jobs, |&(e, model)| {
        let (report, forensics) = if e.kind == "litmus" {
            run_litmus_traced(&e.name, model)
        } else {
            let w = sa_workloads::by_name(&e.name)
                .unwrap_or_else(|| panic!("unpinned workload {}", e.name));
            run_workload_traced(&w, model, opts.scale, opts.seed, Forensics::new)
        };
        let summary = forensics.finish(report.cycles);
        let cell = Cell { report, summary };
        reconcile(&e.name, &cell);
        if let Some(srv) = &server {
            srv.set_forensics(cell.summary.json());
            let report = cell.report.clone().with_forensics(cell.summary.clone());
            srv.set_prometheus(report.registry().prometheus_text());
        }
        cell
    });

    // The headline config whose blame report is echoed to stdout and
    // whose folded stacks become the flamegraph file.
    let headline = models
        .iter()
        .position(|m| *m == ConsistencyModel::Ibm370SlfSosKey)
        .unwrap_or(models.len() - 1);

    let mut full_report = String::new();
    for (ei, e) in entries.iter().enumerate() {
        let row = &results[ei * models.len()..(ei + 1) * models.len()];

        let mut j = JsonWriter::new();
        cli::schema_header(&mut j, "sa-bench-forensics-v1", opts)
            .field_str("name", &e.name)
            .field_str("kind", e.kind)
            .field_uint("cores", row[0].summary.per_core.len() as u64)
            .key("configs")
            .begin_array();
        for cell in row {
            emit_cell(&mut j, cell);
        }
        j.end_array().end_object();
        let json_path = format!("{out_dir}/forensics_{}.json", e.name);
        std::fs::write(&json_path, format!("{}\n", j.finish()))
            .unwrap_or_else(|er| panic!("writing {json_path}: {er}"));

        let folded = row[headline].summary.flamegraph();
        let folded_path = format!("{out_dir}/forensics_{}.folded", e.name);
        std::fs::write(&folded_path, folded)
            .unwrap_or_else(|er| panic!("writing {folded_path}: {er}"));

        for cell in row {
            let title = format!("{} / {}", e.name, cell.report.model.label());
            full_report.push_str(&cell.summary.blame_report(&title));
            full_report.push('\n');
        }
        println!(
            "{}",
            row[headline].summary.blame_report(&format!(
                "{} / {}",
                e.name,
                row[headline].report.model.label()
            ))
        );
        eprintln!(
            "{:<10} done ({} configs, {} episodes under {})",
            e.name,
            row.len(),
            row[headline].summary.episodes(),
            row[headline].report.model.label(),
        );
    }

    let report_path = format!("{out_dir}/forensics_report.txt");
    std::fs::write(&report_path, &full_report)
        .unwrap_or_else(|e| panic!("writing {report_path}: {e}"));
    eprintln!("wrote {report_path}");
}
