//! The shared command-line surface of every `sa-bench` binary.
//!
//! All binaries accept one common flag set — `--scale`, `--seed`,
//! `--suite`, `--only`, `--jobs`, `--csv`, `--json`, `--out`, `--help` —
//! parsed here into [`Opts`]; a binary declares its extra flags (and
//! default overrides) in a [`Spec`] and reads them from the returned
//! [`Args`]. JSON-emitting binaries open their document with
//! [`schema_header`], so every artifact carries the same
//! `schema`/`scale`/`seed` result-schema header.
//!
//! [`parse`] is the `main()` entry (prints usage and exits on `--help`
//! or bad input, and makes a closed standard output a clean exit);
//! [`parse_from`] is the pure, testable core.

use sa_metrics::JsonWriter;
use sa_sim::{parse_topology, EngineMode, SimConfig, Topology};
use sa_workloads::WorkloadSpec;

/// Command-line options shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Instructions per core per run.
    pub scale: usize,
    /// RNG seed for trace generation.
    pub seed: u64,
    /// Which suite(s) to run.
    pub suite: SuiteSel,
    /// Restrict to one benchmark by name.
    pub only: Option<String>,
    /// Worker threads for independent simulations.
    pub jobs: usize,
    /// Emit machine-readable CSV instead of aligned tables.
    pub csv: bool,
    /// Emit machine-readable JSON instead of aligned tables.
    pub json: bool,
    /// Output path for binaries that write a file.
    pub out: Option<String>,
    /// Interconnect topology override (`--topology fc|mesh:<w>`);
    /// `None` keeps each binary's default.
    pub topology: Option<Topology>,
    /// Engine override (`--engine lockstep|event|parallel:<t>`);
    /// `None` keeps each binary's default.
    pub engine: Option<EngineMode>,
    /// Core-count override for workload cells (`--cores N`); `None`
    /// keeps each suite's default (8 parallel / 1 spec).
    pub cores: Option<usize>,
}

/// Suite selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteSel {
    /// SPLASH-3/PARSEC only.
    Parallel,
    /// SPEC CPU2017 only.
    Spec,
    /// Both suites.
    All,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            scale: 30_000,
            seed: 42,
            suite: SuiteSel::All,
            only: None,
            jobs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            csv: false,
            json: false,
            out: None,
            topology: None,
            engine: None,
            cores: None,
        }
    }
}

impl Opts {
    /// The selected workloads.
    pub fn workloads(&self) -> Vec<WorkloadSpec> {
        let mut ws = match self.suite {
            SuiteSel::Parallel => sa_workloads::parallel_suite(),
            SuiteSel::Spec => sa_workloads::spec_suite(),
            SuiteSel::All => {
                let mut v = sa_workloads::parallel_suite();
                v.extend(sa_workloads::spec_suite());
                v
            }
        };
        if let Some(only) = &self.only {
            ws.retain(|w| w.name == only.as_str());
            assert!(!ws.is_empty(), "no workload named {only}");
        }
        ws
    }

    /// Applies the `--topology` / `--engine` overrides to a config (a
    /// no-op for whichever was not given).
    pub fn apply_to(&self, mut cfg: SimConfig) -> SimConfig {
        if let Some(t) = self.topology {
            cfg = cfg.with_topology(t);
        }
        if let Some(e) = self.engine {
            cfg = cfg.with_engine(e);
        }
        cfg
    }
}

/// How many values an extra flag takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// A bare switch (present or absent).
    Switch,
    /// One value; a repeat overwrites.
    One,
    /// One value per occurrence; repeats accumulate.
    Many,
}

/// An extra flag a binary accepts beyond the common set.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// Spelling including the dashes, e.g. `"--mutate"`.
    pub name: &'static str,
    /// Value arity.
    pub arity: Arity,
    /// One-line help text (shown by `--help`).
    pub help: &'static str,
}

/// A binary's command-line contract.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Binary name, for the usage line.
    pub bin: &'static str,
    /// One-line description, for `--help`.
    pub about: &'static str,
    /// Overrides [`Opts::default`]'s scale when set (e.g. the pinned
    /// perf suite runs at 2000 by default).
    pub default_scale: Option<usize>,
    /// Default for `--out` when the binary writes a file.
    pub default_out: Option<&'static str>,
    /// Extra flags beyond the common set.
    pub extras: &'static [Flag],
}

impl Spec {
    /// A spec with no extras and no overrides.
    pub const fn new(bin: &'static str, about: &'static str) -> Spec {
        Spec {
            bin,
            about,
            default_scale: None,
            default_out: None,
            extras: &[],
        }
    }
}

/// Parsed command line: the common [`Opts`] plus any extra-flag values.
#[derive(Debug, Clone)]
pub struct Args {
    /// The common options.
    pub opts: Opts,
    extras: Vec<(&'static str, Vec<String>)>,
}

impl Args {
    /// `true` when the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.extras.iter().any(|(n, _)| *n == name)
    }

    /// Last value of flag `name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.extras
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .and_then(|(_, vs)| vs.last())
            .map(String::as_str)
    }

    /// All values of a [`Arity::Many`] flag, in order.
    pub fn values(&self, name: &str) -> Vec<&str> {
        self.extras
            .iter()
            .filter(|(n, _)| *n == name)
            .flat_map(|(_, vs)| vs.iter().map(String::as_str))
            .collect()
    }

    /// Last value of flag `name` parsed as `T`.
    ///
    /// # Panics
    ///
    /// Panics (with the flag name) when the value does not parse — by
    /// then the arguments came from [`parse`], which already validated
    /// the shape, so a bad value is the user's typo and the message says
    /// which flag to fix.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{name}: cannot parse {v:?}"))
        })
    }
}

/// The usage text for `spec`.
pub fn usage(spec: &Spec) -> String {
    let mut s = format!("{} — {}\n\n", spec.bin, spec.about);
    s.push_str(&format!(
        "usage: {} [options]\n\ncommon options:\n",
        spec.bin
    ));
    let scale = spec.default_scale.unwrap_or_else(|| Opts::default().scale);
    s.push_str(&format!(
        "  --scale N            instructions per core (default {scale})\n"
    ));
    s.push_str("  --seed N             RNG seed for trace generation (default 42)\n");
    s.push_str("  --suite parallel|spec|all\n");
    s.push_str("  --only NAME          restrict to one benchmark\n");
    s.push_str("  --jobs N             worker threads (default: all cores)\n");
    s.push_str("  --topology fc|mesh:W interconnect topology override\n");
    s.push_str("  --engine MODE        lockstep|event|parallel:<threads>\n");
    s.push_str("  --cores N            workload core-count override (default: suite's)\n");
    s.push_str("  --csv                machine-readable CSV output\n");
    s.push_str("  --json               machine-readable JSON output\n");
    match spec.default_out {
        Some(d) => s.push_str(&format!(
            "  --out PATH           output path (default {d})\n"
        )),
        None => s.push_str("  --out PATH           output path\n"),
    }
    s.push_str("  --help               this text\n");
    if !spec.extras.is_empty() {
        s.push_str(&format!("\n{} options:\n", spec.bin));
        for f in spec.extras {
            let val = match f.arity {
                Arity::Switch => String::new(),
                Arity::One => " VAL".into(),
                Arity::Many => " VAL (repeatable)".into(),
            };
            s.push_str(&format!(
                "  {:<20} {}\n",
                format!("{}{val}", f.name),
                f.help
            ));
        }
    }
    s
}

/// Parses `args` (without the program name) against `spec` — the pure
/// core of [`parse`]. `Err` carries the message to print before the
/// usage text.
pub fn parse_from(spec: &Spec, args: &[String]) -> Result<Args, String> {
    let mut opts = Opts::default();
    if let Some(s) = spec.default_scale {
        opts.scale = s;
    }
    let mut extras: Vec<(&'static str, Vec<String>)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let mut need = || -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg {
            "--scale" => {
                opts.scale = need()?
                    .parse()
                    .map_err(|_| "--scale takes a number".to_string())?;
            }
            "--seed" => {
                opts.seed = need()?
                    .parse()
                    .map_err(|_| "--seed takes a number".to_string())?;
            }
            "--suite" => {
                opts.suite = match need()?.as_str() {
                    "parallel" => SuiteSel::Parallel,
                    "spec" => SuiteSel::Spec,
                    "all" => SuiteSel::All,
                    other => return Err(format!("unknown suite {other:?}")),
                };
            }
            "--only" => opts.only = Some(need()?),
            "--jobs" => {
                opts.jobs = need()?
                    .parse()
                    .map_err(|_| "--jobs takes a number".to_string())?;
            }
            "--topology" => opts.topology = Some(parse_topology(&need()?)?),
            "--engine" => opts.engine = Some(EngineMode::parse(&need()?)?),
            "--cores" => {
                let n: usize = need()?
                    .parse()
                    .map_err(|_| "--cores takes a number".to_string())?;
                if n == 0 || n > sa_isa::MAX_CORES {
                    return Err(format!("--cores must be 1..={}", sa_isa::MAX_CORES));
                }
                opts.cores = Some(n);
            }
            "--csv" => opts.csv = true,
            "--json" => opts.json = true,
            "--out" => opts.out = Some(need()?),
            other => match spec.extras.iter().find(|f| f.name == other) {
                Some(f) => {
                    let vs = match f.arity {
                        Arity::Switch => Vec::new(),
                        Arity::One | Arity::Many => vec![need()?],
                    };
                    extras.push((f.name, vs));
                }
                None => return Err(format!("unknown option {other}")),
            },
        }
        i += 1;
    }
    if opts.out.is_none() {
        opts.out = spec.default_out.map(String::from);
    }
    Ok(Args { opts, extras })
}

/// Parses the process arguments against `spec`. Prints usage and exits 0
/// on `--help`, prints the error and usage and exits 2 on bad input.
/// From here on, a write to a closed standard output (the binary piped
/// into `head` or `diff -q`) ends the process with status 0.
pub fn parse(spec: &Spec) -> Args {
    exit_on_broken_stdout();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage(spec));
        std::process::exit(0);
    }
    parse_from(spec, &args).unwrap_or_else(|e| {
        eprintln!("{}: {e}\n", spec.bin);
        eprint!("{}", usage(spec));
        std::process::exit(2);
    })
}

/// Installs a panic hook that turns `print!`'s panic on a broken pipe
/// (`failed printing to stdout: … (os error 32)`, EPIPE) into
/// `exit(0)`: the reader has everything it asked for. Every other
/// panic still goes to the default hook.
fn exit_on_broken_stdout() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if msg.starts_with("failed printing to stdout") && msg.ends_with("(os error 32)") {
            std::process::exit(0);
        }
        default(info);
    }));
}

/// Opens a JSON result document with the shared result-schema header:
/// `begin_object` + `schema`/`scale`/`seed` fields. Callers add their
/// payload and close the object.
pub fn schema_header<'a>(j: &'a mut JsonWriter, schema: &str, opts: &Opts) -> &'a mut JsonWriter {
    j.begin_object()
        .field_str("schema", schema)
        .field_uint("scale", opts.scale as u64)
        .field_uint("seed", opts.seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    const EXTRAS: &[Flag] = &[
        Flag {
            name: "--mutate",
            arity: Arity::One,
            help: "inject a bug",
        },
        Flag {
            name: "--litmus",
            arity: Arity::Many,
            help: "litmus test",
        },
        Flag {
            name: "--verbose",
            arity: Arity::Switch,
            help: "chatter",
        },
    ];

    fn spec() -> Spec {
        Spec {
            bin: "fuzz",
            about: "differential fuzzer",
            default_scale: Some(2_000),
            default_out: Some("results"),
            extras: EXTRAS,
        }
    }

    #[test]
    fn common_flags_parse() {
        let a = parse_from(
            &spec(),
            &to_args(&[
                "--scale", "500", "--seed", "9", "--suite", "spec", "--jobs", "3", "--json",
                "--only", "radix",
            ]),
        )
        .unwrap();
        assert_eq!(a.opts.scale, 500);
        assert_eq!(a.opts.seed, 9);
        assert_eq!(a.opts.suite, SuiteSel::Spec);
        assert_eq!(a.opts.jobs, 3);
        assert!(a.opts.json && !a.opts.csv);
        assert_eq!(a.opts.only.as_deref(), Some("radix"));
    }

    #[test]
    fn spec_defaults_apply() {
        let a = parse_from(&spec(), &[]).unwrap();
        assert_eq!(a.opts.scale, 2_000, "default_scale override");
        assert_eq!(a.opts.out.as_deref(), Some("results"), "default_out");
        let b = parse_from(&spec(), &to_args(&["--scale", "7", "--out", "x.json"])).unwrap();
        assert_eq!(b.opts.scale, 7);
        assert_eq!(b.opts.out.as_deref(), Some("x.json"));
    }

    #[test]
    fn extra_flags_by_arity() {
        let a = parse_from(
            &spec(),
            &to_args(&[
                "--mutate",
                "gate-key",
                "--litmus",
                "n6",
                "--litmus",
                "mp",
                "--verbose",
            ]),
        )
        .unwrap();
        assert_eq!(a.value("--mutate"), Some("gate-key"));
        assert_eq!(a.values("--litmus"), vec!["n6", "mp"]);
        assert!(a.switch("--verbose"));
        assert!(!a.switch("--quiet"));
        assert_eq!(a.value("--absent"), None);
        assert_eq!(a.parsed::<u64>("--absent"), None);
    }

    #[test]
    fn topology_and_engine_flags_parse() {
        let a = parse_from(
            &spec(),
            &to_args(&["--topology", "mesh:4", "--engine", "parallel:8"]),
        )
        .unwrap();
        assert_eq!(a.opts.topology, Some(Topology::Mesh2D { width: 4 }));
        assert_eq!(a.opts.engine, Some(EngineMode::Parallel { threads: 8 }));
        let cfg = a.opts.apply_to(SimConfig::default().with_cores(8));
        assert_eq!(cfg.mem.topology, Topology::Mesh2D { width: 4 });
        assert_eq!(cfg.engine, EngineMode::Parallel { threads: 8 });

        let b = parse_from(
            &spec(),
            &to_args(&["--topology", "fc", "--engine", "event"]),
        )
        .unwrap();
        assert_eq!(b.opts.topology, Some(Topology::FullyConnected));
        assert_eq!(b.opts.engine, Some(EngineMode::EventDriven));

        let none = parse_from(&spec(), &[]).unwrap();
        assert_eq!(none.opts.topology, None);
        assert_eq!(none.opts.engine, None);
        let cfg = none.opts.apply_to(SimConfig::default());
        assert_eq!(cfg.mem.topology, Topology::FullyConnected, "no-op default");

        assert!(parse_from(&spec(), &to_args(&["--topology", "ring"]))
            .unwrap_err()
            .contains("unknown topology"));
        assert!(parse_from(&spec(), &to_args(&["--engine", "warp"]))
            .unwrap_err()
            .contains("unknown engine"));
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let s = spec();
        assert!(parse_from(&s, &to_args(&["--frobnicate"]))
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse_from(&s, &to_args(&["--scale"]))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse_from(&s, &to_args(&["--scale", "x"]))
            .unwrap_err()
            .contains("number"));
        assert!(parse_from(&s, &to_args(&["--suite", "bogus"]))
            .unwrap_err()
            .contains("unknown suite"));
    }

    #[test]
    fn usage_mentions_everything() {
        let u = usage(&spec());
        for needle in [
            "--scale",
            "--seed",
            "--suite",
            "--only",
            "--jobs",
            "--csv",
            "--json",
            "--out",
            "--mutate",
            "--litmus",
            "--verbose",
            "default 2000",
            "default results",
        ] {
            assert!(u.contains(needle), "usage missing {needle}: {u}");
        }
    }

    #[test]
    fn schema_header_shape() {
        let mut j = JsonWriter::new();
        let opts = Opts {
            scale: 123,
            seed: 4,
            ..Opts::default()
        };
        schema_header(&mut j, "sa-bench-test-v1", &opts).end_object();
        let s = j.finish();
        assert!(s.contains("\"schema\":\"sa-bench-test-v1\""));
        assert!(s.contains("\"scale\":123"));
        assert!(s.contains("\"seed\":4"));
    }

    #[test]
    fn opts_workload_selection() {
        let o = Opts {
            suite: SuiteSel::Parallel,
            ..Opts::default()
        };
        assert_eq!(o.workloads().len(), 25);
        let o = Opts {
            suite: SuiteSel::Spec,
            ..Opts::default()
        };
        assert_eq!(o.workloads().len(), 36);
        let o = Opts {
            suite: SuiteSel::All,
            only: Some("radix".into()),
            ..Opts::default()
        };
        assert_eq!(o.workloads().len(), 1);
    }
}
