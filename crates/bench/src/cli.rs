//! The shared command-line surface of every `sa-bench` binary.
//!
//! The common flags — `--scale`, `--seed`, `--suite`, `--only`,
//! `--jobs`, `--engine`, `--json`, `--out` — parse here into [`Opts`].
//! A binary's [`Spec`] names the common flags it reads ([`Common`]) and
//! declares its extra flags (and default overrides); `--help` lists
//! exactly those, any other flag is a usage error, and a numeric value
//! that does not parse is one too. Extra-flag values come back in the
//! returned [`Args`]. JSON-emitting binaries open their document with
//! [`schema_header`], so every artifact carries the same
//! `schema`/`scale`/`seed` result-schema header.
//!
//! [`parse`] is the `main()` entry (prints usage and exits on `--help`
//! or bad input, and makes a closed standard output a clean exit);
//! [`parse_from`] is the pure, testable core, and [`usage_error`] ends a
//! command line that parsed but asks for something that does not exist.

use sa_isa::ConsistencyModel;
use sa_metrics::JsonWriter;
use sa_sim::EngineMode;
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
    /// Emit machine-readable JSON instead of aligned tables.
    pub json: bool,
    /// Output path for binaries that write a file.
    pub out: Option<String>,
    /// Engine override (`--engine lockstep|event|parallel:<t>`);
    /// `None` keeps each binary's default.
    pub engine: Option<EngineMode>,
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
            json: false,
            out: None,
            engine: None,
        }
    }
}

impl Opts {
    /// The selected workloads; `Err` when `--only` names none of them.
    pub fn workloads(&self) -> Result<Vec<WorkloadSpec>, String> {
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
            if ws.is_empty() {
                return Err(format!("no workload named {only:?} in the selected suite"));
            }
        }
        Ok(ws)
    }
}

/// A common flag, parsed into [`Opts`]; a binary accepts the ones its
/// [`Spec::common`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Common {
    /// `--scale N`.
    Scale,
    /// `--seed N`.
    Seed,
    /// `--suite parallel|spec|all`.
    Suite,
    /// `--only NAME`.
    Only,
    /// `--jobs N`.
    Jobs,
    /// `--engine MODE`.
    Engine,
    /// `--json`.
    Json,
    /// `--out PATH`.
    Out,
}

impl Common {
    /// Spelling including the dashes.
    fn name(self) -> &'static str {
        match self {
            Common::Scale => "--scale",
            Common::Seed => "--seed",
            Common::Suite => "--suite",
            Common::Only => "--only",
            Common::Jobs => "--jobs",
            Common::Engine => "--engine",
            Common::Json => "--json",
            Common::Out => "--out",
        }
    }

    /// The `--help` line for `spec`.
    fn usage(self, spec: &Spec) -> String {
        match self {
            Common::Scale => {
                let scale = spec.default_scale.unwrap_or_else(|| Opts::default().scale);
                format!("  --scale N            instructions per core (default {scale})\n")
            }
            Common::Seed => {
                "  --seed N             RNG seed for trace generation (default 42)\n".into()
            }
            Common::Suite => "  --suite parallel|spec|all\n".into(),
            Common::Only => "  --only NAME          restrict to one benchmark\n".into(),
            Common::Jobs => "  --jobs N             worker threads (default: all cores)\n".into(),
            Common::Engine => "  --engine MODE        lockstep|event|parallel:<threads>\n".into(),
            Common::Json => "  --json               machine-readable JSON output\n".into(),
            Common::Out => match spec.default_out {
                Some(d) => format!("  --out PATH           output path (default {d})\n"),
                None => "  --out PATH           output path\n".into(),
            },
        }
    }
}

/// How many values an extra flag takes, and of what kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// A bare switch (present or absent).
    Switch,
    /// One value; a repeat overwrites.
    One,
    /// One value per occurrence; repeats accumulate.
    Many,
    /// One unsigned integer, read with [`Args::number`].
    Number,
    /// One TCP port number, read with [`Args::port`].
    Port,
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
    /// The common flags the binary reads; the others are unknown
    /// options.
    pub common: &'static [Common],
    /// Overrides [`Opts::default`]'s scale when set (e.g. the pinned
    /// perf suite runs at 2000 by default).
    pub default_scale: Option<usize>,
    /// Default for `--out` when the binary writes a file.
    pub default_out: Option<&'static str>,
    /// Extra flags beyond the common set.
    pub extras: &'static [Flag],
}

impl Spec {
    /// A spec reading `common`, with no extras and no overrides.
    pub const fn new(bin: &'static str, about: &'static str, common: &'static [Common]) -> Spec {
        Spec {
            bin,
            about,
            common,
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

    /// Value of the [`Arity::Number`] flag `name`, if given.
    pub fn number(&self, name: &str) -> Option<usize> {
        self.value(name)
            .map(|v| v.parse().expect("parse_from checked the number"))
    }

    /// Value of the [`Arity::Port`] flag `name`, if given.
    pub fn port(&self, name: &str) -> Option<u16> {
        self.value(name)
            .map(|v| v.parse().expect("parse_from checked the port"))
    }
}

/// The usage text for `spec`.
pub fn usage(spec: &Spec) -> String {
    let mut s = format!("{} — {}\n\n", spec.bin, spec.about);
    s.push_str(&format!(
        "usage: {} [options]\n\ncommon options:\n",
        spec.bin
    ));
    for c in spec.common {
        s.push_str(&c.usage(spec));
    }
    s.push_str("  --help               this text\n");
    if !spec.extras.is_empty() {
        s.push_str(&format!("\n{} options:\n", spec.bin));
        for f in spec.extras {
            let val = match f.arity {
                Arity::Switch => String::new(),
                Arity::One => " VAL".into(),
                Arity::Many => " VAL (repeatable)".into(),
                Arity::Number => " N".into(),
                Arity::Port => " PORT".into(),
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

/// `value` as a `T`, or the usage message naming `flag`.
fn number<T: std::str::FromStr>(flag: &str, value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes {what}, got {value:?}"))
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
        if let Some(&c) = spec.common.iter().find(|c| c.name() == arg) {
            match c {
                Common::Scale => opts.scale = number(arg, &need()?, "a number")?,
                Common::Seed => opts.seed = number(arg, &need()?, "a number")?,
                Common::Suite => {
                    opts.suite = match need()?.as_str() {
                        "parallel" => SuiteSel::Parallel,
                        "spec" => SuiteSel::Spec,
                        "all" => SuiteSel::All,
                        other => return Err(format!("unknown suite {other:?}")),
                    };
                }
                Common::Only => opts.only = Some(need()?),
                Common::Jobs => opts.jobs = number(arg, &need()?, "a number")?,
                Common::Engine => opts.engine = Some(EngineMode::parse(&need()?)?),
                Common::Json => opts.json = true,
                Common::Out => opts.out = Some(need()?),
            }
        } else if let Some(f) = spec.extras.iter().find(|f| f.name == arg) {
            let vs = match f.arity {
                Arity::Switch => Vec::new(),
                Arity::One | Arity::Many => vec![need()?],
                Arity::Number => {
                    let v = need()?;
                    number::<usize>(arg, &v, "a number")?;
                    vec![v]
                }
                Arity::Port => {
                    let v = need()?;
                    number::<u16>(arg, &v, "a port number")?;
                    vec![v]
                }
            };
            extras.push((f.name, vs));
        } else {
            return Err(format!("unknown option {arg}"));
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
    parse_from(spec, &args).unwrap_or_else(|e| usage_error(spec, &e))
}

/// The consistency model labelled `label` (a `--model` value), or a
/// usage error listing the labels.
pub fn model(spec: &Spec, label: &str) -> ConsistencyModel {
    ConsistencyModel::from_label(label).unwrap_or_else(|| {
        let known: Vec<&str> = ConsistencyModel::ALL.iter().map(|m| m.label()).collect();
        usage_error(
            spec,
            &format!("unknown model {label:?}; have: {}", known.join(", ")),
        )
    })
}

/// Prints `msg` and the usage text to stderr and exits 2, the status of
/// every bad command line.
pub fn usage_error(spec: &Spec, msg: &str) -> ! {
    eprintln!("{}: {msg}\n", spec.bin);
    eprint!("{}", usage(spec));
    std::process::exit(2);
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
        Flag {
            name: "--programs",
            arity: Arity::Number,
            help: "how many",
        },
        Flag {
            name: "--serve-metrics",
            arity: Arity::Port,
            help: "where",
        },
    ];

    const ALL: &[Common] = &[
        Common::Scale,
        Common::Seed,
        Common::Suite,
        Common::Only,
        Common::Jobs,
        Common::Engine,
        Common::Json,
        Common::Out,
    ];

    fn spec() -> Spec {
        Spec {
            bin: "fuzz",
            about: "differential fuzzer",
            common: ALL,
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
        assert!(a.opts.json);
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
                "--programs",
                "12",
                "--serve-metrics",
                "8080",
            ]),
        )
        .unwrap();
        assert_eq!(a.value("--mutate"), Some("gate-key"));
        assert_eq!(a.values("--litmus"), vec!["n6", "mp"]);
        assert!(a.switch("--verbose"));
        assert!(!a.switch("--quiet"));
        assert_eq!(a.value("--absent"), None);
        assert_eq!(a.number("--programs"), Some(12));
        assert_eq!(a.port("--serve-metrics"), Some(8080));
        assert_eq!(a.number("--absent"), None);
    }

    #[test]
    fn engine_flag_parses() {
        let a = parse_from(&spec(), &to_args(&["--engine", "parallel:8"])).unwrap();
        assert_eq!(a.opts.engine, Some(EngineMode::Parallel { threads: 8 }));
        let b = parse_from(&spec(), &to_args(&["--engine", "event"])).unwrap();
        assert_eq!(b.opts.engine, Some(EngineMode::EventDriven));
        assert_eq!(parse_from(&spec(), &[]).unwrap().opts.engine, None);
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
        for (flag, value) in [("--programs", "x"), ("--serve-metrics", "70000")] {
            let e = parse_from(&s, &to_args(&[flag, value])).unwrap_err();
            assert!(e.contains(flag) && e.contains(value), "{e}");
        }
    }

    #[test]
    fn only_the_common_flags_a_binary_reads_parse() {
        let narrow = Spec {
            common: &[Common::Seed, Common::Out],
            ..spec()
        };
        assert!(parse_from(&narrow, &to_args(&["--seed", "3", "--out", "x"])).is_ok());
        for args in [
            &["--scale", "5"][..],
            &["--json"],
            &["--engine", "event"],
            &["--topology", "fc"],
            &["--cores", "4"],
        ] {
            let e = parse_from(&narrow, &to_args(args)).unwrap_err();
            assert_eq!(e, format!("unknown option {}", args[0]));
        }
        let u = usage(&narrow);
        assert!(u.contains("--seed") && u.contains("--out"), "{u}");
        for absent in [
            "--scale", "--suite", "--only", "--jobs", "--engine", "--json",
        ] {
            assert!(!u.contains(absent), "usage lists unread {absent}: {u}");
        }
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
            "--engine",
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
        assert_eq!(o.workloads().unwrap().len(), 25);
        let o = Opts {
            suite: SuiteSel::Spec,
            ..Opts::default()
        };
        assert_eq!(o.workloads().unwrap().len(), 36);
        let o = Opts {
            suite: SuiteSel::All,
            only: Some("radix".into()),
            ..Opts::default()
        };
        assert_eq!(o.workloads().unwrap().len(), 1);
        let o = Opts {
            only: Some("nosuch".into()),
            ..Opts::default()
        };
        assert!(o.workloads().unwrap_err().contains("nosuch"));
    }
}
