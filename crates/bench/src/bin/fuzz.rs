//! Differential litmus fuzzer: random programs × five configurations ×
//! core skews, every cycle-level outcome checked against the axiomatic
//! oracle ([`sa_litmus::Oracle`]). Violations are minimized before
//! being reported.
//!
//! ```text
//! cargo run --release -p sa-bench --bin fuzz -- --seed 4 --programs 1000
//! cargo run --release -p sa-bench --bin fuzz -- --seed 4 --programs 200 --mutate gate-key
//! ```
//!
//! Exit status: 0 when the run matches expectations — a clean machine
//! with no violations, or a mutated machine whose planted bug WAS
//! caught. 1 otherwise (real containment failure, or a mutation the
//! sweep failed to detect).

use std::process::exit;

use sa_bench::cli::{self, Arity, Common, Flag, Spec};
use sa_bench::fuzz::{run_fuzz, FuzzConfig, FuzzReport};
use sa_metrics::JsonWriter;
use sa_ooo::InjectedBug;

const EXTRAS: &[Flag] = &[
    Flag {
        name: "--programs",
        arity: Arity::Number,
        help: "randomly generated programs on top of the fixed corpus (default 200)",
    },
    Flag {
        name: "--mutate",
        arity: Arity::One,
        help: "plant a retire-gate bug (gate-key | gate-no-close); the run must detect it",
    },
    Flag {
        name: "--serve-metrics",
        arity: Arity::Port,
        help: "serve run-status /metrics on this localhost port",
    },
];

const SPEC: Spec = Spec {
    bin: "fuzz",
    about: "differential litmus fuzzing against the axiomatic memory-model oracle",
    common: &[Common::Seed, Common::Jobs, Common::Json, Common::Out],
    default_scale: None,
    default_out: None,
    extras: EXTRAS,
};

fn render_json(r: &FuzzReport, cfg: &FuzzConfig, opts: &cli::Opts) -> String {
    let mut j = JsonWriter::new();
    cli::schema_header(&mut j, "sa-bench-fuzz-v1", opts)
        .field_uint("programs", cfg.programs as u64)
        .field_str("mutate", cfg.mutate.map(|b| b.label()).unwrap_or("none"))
        .field_uint("corpus", r.corpus as u64)
        .field_uint("runs", r.runs as u64)
        .key("violations")
        .begin_array();
    for v in &r.violations {
        j.begin_object()
            .field_str("name", v.name)
            .field_str("model", v.model.label())
            .field_str("program", &v.program)
            .field_str("outcome", &v.outcome)
            .field_str("minimized", &v.minimized)
            .field_str("minimized_outcome", &v.minimized_outcome);
        j.key("pads").begin_array();
        for p in &v.pads {
            j.uint(*p as u64);
        }
        j.end_array().end_object();
    }
    j.end_array().end_object();
    j.finish()
}

/// Run-status exposition for `--serve-metrics`: phase plus final counts.
fn fuzz_metrics(cfg: &FuzzConfig, done: Option<&FuzzReport>) -> String {
    let mut reg = sa_metrics::Registry::new();
    reg.gauge(
        "sa_fuzz_running",
        "1 while the sweep is in progress, 0 once finished",
        &[],
        f64::from(u8::from(done.is_none())),
    );
    reg.counter(
        "sa_fuzz_programs_requested",
        "randomly generated programs requested",
        &[],
        cfg.programs as u64,
    );
    if let Some(r) = done {
        reg.counter(
            "sa_fuzz_corpus_programs",
            "programs fuzzed",
            &[],
            r.corpus as u64,
        );
        reg.counter(
            "sa_fuzz_runs_total",
            "simulations executed",
            &[],
            r.runs as u64,
        );
        reg.counter(
            "sa_fuzz_violations_total",
            "containment violations observed",
            &[],
            r.violations.len() as u64,
        );
    }
    reg.prometheus_text()
}

fn main() {
    let args = cli::parse(&SPEC);
    let cfg = FuzzConfig {
        programs: args.number("--programs").unwrap_or(200),
        seed: args.opts.seed,
        jobs: args.opts.jobs,
        mutate: args.value("--mutate").map(|s| {
            InjectedBug::parse(s).unwrap_or_else(|| {
                cli::usage_error(
                    &SPEC,
                    &format!("unknown mutation {s:?} (gate-key | gate-no-close)"),
                )
            })
        }),
    };

    let server = args.port("--serve-metrics").map(|port| {
        let srv = sa_bench::serve::MetricsServer::start(port).unwrap_or_else(|e| {
            eprintln!("fuzz: binding port {port}: {e}");
            exit(2);
        });
        eprintln!("serving live metrics on http://127.0.0.1:{}/", srv.port());
        srv.set_prometheus(fuzz_metrics(&cfg, None));
        srv
    });

    let r = run_fuzz(&cfg);
    if let Some(srv) = &server {
        srv.set_prometheus(fuzz_metrics(&cfg, Some(&r)));
    }

    if args.opts.json {
        let body = render_json(&r, &cfg, &args.opts);
        match &args.opts.out {
            Some(path) => {
                std::fs::write(path, format!("{body}\n")).expect("write fuzz report");
                eprintln!("wrote {path}");
            }
            None => println!("{body}"),
        }
    } else {
        println!(
            "fuzz: {} programs ({} generated), {} simulations, mutate: {}",
            r.corpus,
            cfg.programs,
            r.runs,
            cfg.mutate.map(|b| b.label()).unwrap_or("none"),
        );
        for v in &r.violations {
            println!("\nVIOLATION under {} (pads {:?}):", v.model.label(), v.pads);
            println!("  program [{}]:", v.name);
            for line in v.program.lines() {
                println!("    {line}");
            }
            println!("  forbidden outcome: {}", v.outcome);
            println!("  minimized:");
            for line in v.minimized.lines() {
                println!("    {line}");
            }
            println!("  minimized outcome: {}", v.minimized_outcome);
        }
    }

    // Status goes to stderr in --json mode so stdout stays one parseable
    // document.
    let ok = |msg: String| {
        if args.opts.json {
            eprintln!("{msg}");
        } else {
            println!("{msg}");
        }
    };
    match (cfg.mutate, r.violations.is_empty()) {
        // Clean machine, clean sweep: the containment claim held.
        (None, true) => {
            ok("ok: every outcome was model-allowed".to_string());
        }
        // Clean machine but a real containment failure: simulator bug.
        (None, false) => {
            eprintln!("FAIL: {} containment violation(s)", r.violations.len());
            exit(1);
        }
        // Planted bug found: the harness has teeth.
        (Some(bug), false) => {
            ok(format!(
                "ok: planted {} bug detected ({} counterexample(s), minimized)",
                bug.label(),
                r.violations.len()
            ));
        }
        // Planted bug missed: the harness is blind — fail loudly.
        (Some(bug), true) => {
            eprintln!("FAIL: planted {} bug was NOT detected", bug.label());
            exit(1);
        }
    }
}
