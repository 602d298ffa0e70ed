//! `serve` — the persistent simulation service.
//!
//! Boots [`sa_serve::Server`] on 127.0.0.1 and blocks until a
//! `POST /shutdown` (or SIGKILL). See `README.md` § "Running the
//! service" for the wire format and curl examples.

use sa_bench::cli::{self, Arity, Common, Flag, Spec};
use sa_ooo::InjectedBug;
use sa_serve::{ServeConfig, Server};

const SPEC: Spec = Spec {
    bin: "serve",
    about: "persistent simulation-as-a-service with a memoized oracle and a fuzzing farm",
    common: &[Common::Seed, Common::Out],
    default_scale: None,
    default_out: Some("results"),
    extras: &[
        Flag {
            name: "--port",
            arity: Arity::Port,
            help: "port on 127.0.0.1 (default 0: pick a free one)",
        },
        Flag {
            name: "--workers",
            arity: Arity::Number,
            help: "worker pool size (default 4)",
        },
        Flag {
            name: "--queue-cap",
            arity: Arity::Number,
            help: "bounded queue capacity; overflow gets 429 (default 64)",
        },
        Flag {
            name: "--farm",
            arity: Arity::Number,
            help: "start a fuzzing farm of N programs at boot",
        },
        Flag {
            name: "--mutate",
            arity: Arity::One,
            help: "plant a bug in every simulation (gate-key | gate-no-close)",
        },
        Flag {
            name: "--checkpoint-every",
            arity: Arity::Number,
            help: "flush a coverage checkpoint every N completed jobs (default 64)",
        },
    ],
};

fn main() {
    let args = cli::parse(&SPEC);
    let mutate = args.value("--mutate").map(|label| {
        InjectedBug::parse(label).unwrap_or_else(|| {
            cli::usage_error(
                &SPEC,
                &format!("unknown --mutate {label:?} (gate-key | gate-no-close)"),
            )
        })
    });
    let cfg = ServeConfig {
        port: args.port("--port").unwrap_or(0),
        workers: args.number("--workers").unwrap_or(4),
        queue_cap: args.number("--queue-cap").unwrap_or(64),
        results_dir: args.opts.out.clone().map(Into::into),
        seed: args.opts.seed,
        mutate,
        checkpoint_every: args.number("--checkpoint-every").map_or(64, |n| n as u64),
        farm: args.number("--farm").map(|n| n as u64),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap_or_else(|e| {
        eprintln!("serve: cannot bind: {e}");
        std::process::exit(1);
    });
    println!("sa-serve listening on 127.0.0.1:{}", server.port());
    let report = server.join();
    println!(
        "sa-serve drained: {} done, {} failed, {} rejected; cache {} hits / {} misses / {} programs; {} violations across {} coverage cells",
        report.completed,
        report.failed,
        report.rejected,
        report.cache.0,
        report.cache.1,
        report.cache.2,
        report.violations,
        report.coverage_cells,
    );
    if let Some(p) = report.checkpoint {
        println!("coverage checkpoint: {}", p.display());
    }
}
