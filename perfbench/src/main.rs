//! The repository's benchmark: one harness for the simulator and the
//! sa-serve service, end to end (untraced) and per layer (traced).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-sweep|mesh-256|serve-litmus|all> --seed N --seconds S --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and the metrics `BENCHMARK.json` declares:
//! the end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. `README.md` beside this file explains the workloads and
//! how each metric maps to a layer.

mod host;
mod serve;
mod sim;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use sa_metrics::{JsonValue, JsonWriter};

use crate::host::Host;
use crate::spans::Spans;

/// The metric catalogue. Tools that compare runs read the same file, so
/// the harness can never print a metric set that disagrees with it.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Workloads in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["paper-sweep", "mesh-256", "serve-litmus"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Regenerate the committed statistics instead of measuring.
    pub bless: bool,
    /// Seed of the serve-litmus program corpus.
    pub corpus_seed: u64,
}

const USAGE: &str = "usage: sa-perfbench --workload <paper-sweep|mesh-256|serve-litmus|all> \
--seed N --seconds S --trace <0|1> [--corpus-seed N] [--bless]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        bless: false,
        corpus_seed: serve::DEFAULT_CORPUS_SEED,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--corpus-seed" => {
                args.corpus_seed = value.parse().map_err(|_| bad("expected an integer"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// What one workload run produced.
#[derive(Default)]
pub struct Run {
    /// Operations (sim cells or serve jobs) attempted.
    pub attempted: u64,
    /// Operations that failed an output check, errored or were refused.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Measured values by metric name. Those `BENCHMARK.json` declares
    /// for this mode go into the result line; the rest are printed.
    pub metrics: BTreeMap<String, f64>,
    /// Units as the harness records them; `BENCHMARK.json`'s unit is
    /// printed for the metrics it declares.
    pub units: BTreeMap<String, &'static str>,
    /// Extra sections for the result file, as `(key, JSON value)`.
    pub detail: Vec<(String, String)>,
    /// Traced runs only.
    pub spans: Option<Spans>,
}

impl Run {
    /// Records a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.units.insert(name.clone(), unit);
        self.metrics.insert(name, value);
    }

    /// Books one operation: failed when `problems` is non-empty.
    pub fn book(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }
}

/// One declared metric.
struct Declared {
    name: String,
    unit: String,
}

fn catalogue(section: &str) -> Vec<Declared> {
    let doc = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get(section)
        .and_then(|s| s.as_arr())
        .expect("BENCHMARK.json lists its metrics")
        .iter()
        .map(|m| Declared {
            name: m
                .get("name")
                .and_then(|n| n.as_str())
                .expect("metric name")
                .to_string(),
            unit: m
                .get("unit")
                .and_then(|u| u.as_str())
                .expect("metric unit")
                .to_string(),
        })
        .collect()
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Prints the human-readable report and writes the result files;
/// returns the result line.
fn report(args: &Args, workload: &str, host: &Host, run: &mut Run) -> String {
    let declared = catalogue(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    });
    if args.trace {
        run.set(
            "host.steal_jiffies",
            host.steal_since_start() as f64,
            "count",
        );
    }
    for d in &declared {
        if !args.trace && !run.metrics.contains_key(&d.name) {
            run.problems
                .push(format!("end-to-end metric {} was not measured", d.name));
        }
    }
    let seeds = [("seed", args.seed), ("corpus_seed", args.corpus_seed)];
    println!(
        "# {workload}: seed {} corpus-seed {} seconds {} trace {}",
        args.seed, args.corpus_seed, args.seconds, args.trace as u8
    );
    println!(
        "# host: nproc {} | cpu {} | {} | steal jiffies {}",
        host.nproc,
        host.cpu_model,
        host.rustc,
        host.steal_since_start()
    );
    println!(
        "# operations: {} attempted, {} failed",
        run.attempted, run.failed
    );
    for p in run.problems.iter().take(20) {
        println!("# FAILED: {p}");
    }
    let unit_of = |name: &str| -> String {
        declared
            .iter()
            .find(|d| d.name == name)
            .map(|d| d.unit.clone())
            .or_else(|| run.units.get(name).map(|u| u.to_string()))
            .unwrap_or_default()
    };
    for (name, value) in &run.metrics {
        let mark = if declared.iter().any(|d| &d.name == name) {
            ' '
        } else {
            '+'
        };
        println!("{mark} {name:<52} {value:>16.6} {}", unit_of(name));
    }
    println!("# ('+' = printed for reference, not part of this mode's result line)");

    let correct = run.failed == 0 && run.problems.is_empty();
    let mut line = JsonWriter::new();
    line.begin_object()
        .field_bool("correct", correct)
        .field_uint("attempted", run.attempted)
        .field_uint("failed", run.failed);
    line.key("metrics").begin_object();
    for d in &declared {
        line.key(&d.name)
            .begin_object()
            .field_float("value", run.metrics.get(&d.name).copied().unwrap_or(0.0))
            .field_str("unit", &d.unit)
            .end_object();
    }
    line.end_object().end_object();
    let line = line.finish();

    let mut file = JsonWriter::new();
    file.begin_object()
        .field_str("schema", "sa-perfbench-result-v1")
        .field_str("workload", workload)
        .field_float("seconds", args.seconds)
        .field_bool("traced", args.trace);
    file.key("host").begin_object();
    host.write_json(&mut file, &seeds);
    file.end_object();
    file.field_bool("correct", correct)
        .field_uint("attempted", run.attempted)
        .field_uint("failed", run.failed);
    file.key("problems").begin_array();
    for p in &run.problems {
        file.string(p);
    }
    file.end_array().key("metrics").begin_object();
    for (name, value) in &run.metrics {
        file.key(name)
            .begin_object()
            .field_float("value", *value)
            .field_str("unit", &unit_of(name))
            .end_object();
    }
    file.end_object();
    if let Some(spans) = &run.spans {
        file.key("self_s_by_layer").begin_object();
        for (layer, s) in spans.self_time_by_layer() {
            file.field_float(layer, s);
        }
        file.end_object();
    }
    file.end_object();
    let file = with_sections(file.finish(), &run.detail);
    let stem = format!("{workload}-seed{}-trace{}", args.seed, args.trace as u8);
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(dir.join(format!("{stem}.json")), file + "\n")?;
        if let Some(spans) = &run.spans {
            std::fs::write(
                dir.join(format!("{stem}-spans.json")),
                spans.to_json() + "\n",
            )?;
        }
        Ok(())
    });
    match written {
        Ok(()) => println!(
            "# result file: {}",
            dir.join(format!("{stem}.json")).display()
        ),
        Err(e) => println!("# result file not written: {e}"),
    }
    if let Some(spans) = &run.spans {
        for (layer, s) in spans.self_time_by_layer() {
            println!("# self time {layer:<14} {s:>10.4} s");
        }
    }
    line
}

/// Appends `"key": value` members to a finished JSON object.
fn with_sections(object: String, sections: &[(String, String)]) -> String {
    let mut out = object;
    let close = out.pop();
    debug_assert_eq!(close, Some('}'));
    for (key, json) in sections {
        let mut k = JsonWriter::new();
        k.string(key);
        out.push_str(&format!(",{}:{json}", k.finish()));
    }
    out.push('}');
    out
}

fn run_workload(args: &Args, workload: &str) -> Run {
    match workload {
        "paper-sweep" | "mesh-256" => sim::run(args, workload),
        "serve-litmus" => serve::run(args),
        _ => unreachable!("workload validated by parse_args"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sa-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        return match sim::bless(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("sa-perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut lines = Vec::new();
    for w in &workloads {
        let host = Host::probe();
        let mut run = run_workload(&args, w);
        lines.push((w.to_string(), report(&args, w, &host, &mut run)));
    }
    if let [(_, line)] = lines.as_slice() {
        println!("{line}");
    } else {
        // `all`: one line per workload, then a combined line whose
        // metrics are keyed `<workload>/<metric>`.
        let mut correct = true;
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut j = JsonWriter::new();
        j.begin_object();
        let mut metrics = Vec::new();
        for (w, line) in &lines {
            println!("{line}");
            let v = JsonValue::parse(line).expect("result line is JSON");
            correct &= v.get("correct").and_then(|c| c.as_bool()) == Some(true);
            attempted += v.get("attempted").and_then(|a| a.as_u64()).unwrap_or(0);
            failed += v.get("failed").and_then(|f| f.as_u64()).unwrap_or(0);
            if let Some(JsonValue::Obj(m)) = v.get("metrics") {
                for (name, mv) in m {
                    metrics.push((
                        format!("{w}/{name}"),
                        mv.get("value").and_then(|x| x.as_f64()).unwrap_or(0.0),
                        mv.get("unit")
                            .and_then(|u| u.as_str())
                            .unwrap_or("")
                            .to_string(),
                    ));
                }
            }
        }
        j.field_bool("correct", correct)
            .field_uint("attempted", attempted)
            .field_uint("failed", failed);
        j.key("metrics").begin_object();
        for (name, value, unit) in &metrics {
            j.key(name)
                .begin_object()
                .field_float("value", *value)
                .field_str("unit", unit)
                .end_object();
        }
        j.end_object().end_object();
        println!("{}", j.finish());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload mesh-256 --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(a.workload, "mesh-256");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 20.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload all --trace 2")).is_err());
        assert!(parse_args(&argv("--workload all --seconds -1")).is_err());
        assert!(parse_args(&argv("--workload all --seed")).is_err());
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for section in ["end_to_end", "per_layer"] {
            for d in catalogue(section) {
                assert!(seen.insert(d.name.clone()), "duplicate {}", d.name);
                assert!(d.name.len() <= 64, "{}", d.name);
                assert!(d
                    .name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            }
        }
        assert!(catalogue("end_to_end").iter().any(|d| d.name == "setup_s"));
    }
}
