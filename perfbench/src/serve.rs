//! The service workload: `serve-litmus`.
//!
//! sa-serve runs in-process on an ephemeral port with two workers. Two
//! client threads form a closed loop over HTTP: each submits a litmus job
//! with the default check (all five configurations over the standard pad
//! sweep), follows it to a terminal status, then takes the next job.
//!
//! The job list is fixed per corpus seed: the first [`ORIGINALS`]
//! canonically distinct programs of the farm's own generator
//! (`CorpusStream`, `GenConfig::default()`), in stream order. Exploration
//! cost is heavy-tailed in the program — one program can cost more than
//! a hundred others together — so drawing a new corpus per run
//! would make throughput a property of the draw, not of the code.
//! `--seed` draws what varies from run to run: which completed programs
//! are resubmitted renamed, the renamings, and the service's pad-sweep
//! seed. A resubmission targets a program at least [`MARGIN`] positions
//! earlier and waits for it to complete, so each one is a cache hit and
//! each original a miss in every run.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use sa_bench::client::ServeClient;
use sa_isa::rng::Xoshiro256;
use sa_isa::ConsistencyModel;
use sa_litmus::{
    canonicalize, explore, parse_threads, render_allowed_doc, CorpusStream, ForwardPolicy,
    GenConfig, LOp, LitmusTest, OutcomeSet, Var,
};
use sa_metrics::{JsonValue, JsonWriter};
use sa_serve::{pad_patterns, JobSpec, ServeConfig, Server};
use sa_sim::{Multicore, SimConfig};

use crate::spans::{Recorder, Spans, HARNESS};
use crate::stats::{max, median, quantile};
use crate::{Args, Run};

/// The farm's boot seed (`ServeConfig::default().seed`): the corpus the
/// service's own fuzzing farm draws first.
pub const DEFAULT_CORPUS_SEED: u64 = 4;

const ORIGINALS: usize = 150;
const RESUBMITS: usize = 50;
/// Resubmissions start after this many originals.
const FIRST_RESUBMIT: usize = 20;
/// A resubmission renames a program at least this many originals back.
const MARGIN: usize = 8;
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const QUEUE_CAP: usize = 64;
/// A job not terminal after this long counts as failed; its latency is
/// booked at this value.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
const SETUP_REPS: usize = 15;
/// Farm-starvation probe: burst size and the interactive trickle.
const FARM_PROGRAMS: u64 = 200;
const TRICKLE: usize = 40;
const TRICKLE_GAP: Duration = Duration::from_millis(50);

const SERVE: &str = "sa-serve";
const LITMUS: &str = "sa-litmus";
const SIM: &str = "sa-sim";

/// One job of the plan.
struct Job {
    name: String,
    threads: Vec<String>,
    body: String,
    /// Index among the originals, for originals.
    original: Option<usize>,
    /// The original a resubmission renames.
    renames: Option<usize>,
}

fn thread_text(ops: &[LOp]) -> String {
    ops.iter()
        .map(|o| o.to_string())
        .collect::<Vec<_>>()
        .join("; ")
}

fn job(name: String, test: &LitmusTest, original: Option<usize>, renames: Option<usize>) -> Job {
    let threads: Vec<String> = test.threads.iter().map(|t| thread_text(t)).collect();
    let mut j = JsonWriter::new();
    j.begin_object()
        .field_str("kind", "litmus")
        .field_str("name", &name)
        .key("threads")
        .begin_array();
    for t in &threads {
        j.string(t);
    }
    j.end_array().end_object();
    Job {
        name,
        threads,
        body: j.finish(),
        original,
        renames,
    }
}

/// A variable permutation plus a value relabeling: the same program up
/// to isomorphism, so the oracle cache must answer it.
fn rename(test: &LitmusTest, rng: &mut Xoshiro256) -> LitmusTest {
    let vars = usize::from(GenConfig::default().vars);
    let mut perm: Vec<u8> = (0..vars as u8).collect();
    for i in (1..vars).rev() {
        perm.swap(i, rng.gen_range_usize(0, i + 1));
    }
    let v = |x: Var| Var(perm[usize::from(x.0)]);
    let threads = test
        .threads
        .iter()
        .map(|ops| {
            ops.iter()
                .map(|op| match *op {
                    LOp::St(x, val) => LOp::St(v(x), val + 2),
                    LOp::Ld(x) => LOp::Ld(v(x)),
                    LOp::Fence => LOp::Fence,
                    LOp::Rmw(x, val) => LOp::Rmw(v(x), val + 2),
                })
                .collect()
        })
        .collect();
    LitmusTest::new("renamed", threads)
}

/// The job list for `(corpus_seed, seed)`.
fn plan(corpus_seed: u64, seed: u64, rec: &mut Recorder) -> Vec<Job> {
    let originals: Vec<LitmusTest> = rec.span("litmus.corpus", LITMUS, None, |_| {
        let mut seen = std::collections::HashSet::new();
        CorpusStream::new(corpus_seed, GenConfig::default())
            .filter(|t| seen.insert(canonicalize(t).key))
            .take(ORIGINALS)
            .collect()
    });
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut jobs = Vec::with_capacity(ORIGINALS + RESUBMITS);
    let mut k = 0;
    for (i, t) in originals.iter().enumerate() {
        jobs.push(job(format!("p{i}"), t, Some(i), None));
        while k < RESUBMITS && i >= FIRST_RESUBMIT + k * (ORIGINALS - FIRST_RESUBMIT) / RESUBMITS {
            let target = rng.gen_range_usize(0, i + 1 - MARGIN);
            let renamed = rename(&originals[target], &mut rng);
            jobs.push(job(format!("r{k}-p{target}"), &renamed, None, Some(target)));
            k += 1;
        }
    }
    jobs
}

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        port: 0,
        workers: WORKERS,
        queue_cap: QUEUE_CAP,
        seed,
        checkpoint_every: 0,
        ..ServeConfig::default()
    }
}

/// What the client saw for one job.
struct Seen {
    job: usize,
    latency_ms: f64,
    submit_ms: f64,
    allowed: Option<String>,
    problems: Vec<String>,
}

fn check_reply(job: &Job, v: &JsonValue, problems: &mut Vec<String>) -> Option<String> {
    if v.get("status").and_then(|s| s.as_str()) != Some("done") {
        problems.push(format!("{}: ended {}", job.name, render(v)));
        return None;
    }
    let result = v.get("result");
    let violations: u64 = result
        .and_then(|r| r.get("models"))
        .and_then(|m| m.as_arr())
        .map_or(0, |rows| {
            rows.iter()
                .map(|r| r.get("violations").and_then(|x| x.as_u64()).unwrap_or(1))
                .sum()
        });
    let models = result
        .and_then(|r| r.get("models"))
        .and_then(|m| m.as_arr())
        .map_or(0, |m| m.len());
    if violations > 0 || models != ConsistencyModel::ALL.len() {
        problems.push(format!(
            "{}: {violations} containment violations over {models} configurations",
            job.name
        ));
    }
    let cached = v.get("cached").and_then(|c| c.as_bool()).unwrap_or(false);
    if cached != job.renames.is_some() {
        problems.push(format!("{}: cached {cached}", job.name));
    }
    result
        .and_then(|r| r.get("allowed"))
        .and_then(|a| a.as_str())
        .map(String::from)
}

fn render(v: &JsonValue) -> String {
    let status = v.get("status").and_then(|s| s.as_str()).unwrap_or("?");
    let error = v.get("error").and_then(|s| s.as_str()).unwrap_or("");
    format!("{status} {error}")
}

/// Submits one job and follows it to a terminal status.
fn one_job(client: &ServeClient, i: usize, job: &Job, rec: &mut Recorder) -> Seen {
    rec.span("job", HARNESS, None, |rec| {
        let t0 = Instant::now();
        let mut problems = Vec::new();
        let submitted = rec.span("serve.submit", SERVE, None, |_| client.submit(&job.body));
        let submit_ms = t0.elapsed().as_secs_f64() * 1e3;
        let allowed = match submitted {
            Ok(Ok(id)) => {
                rec.tag_job(id);
                match rec.span("serve.wait", SERVE, Some(id), |_| {
                    client.wait(id, JOB_TIMEOUT)
                }) {
                    Ok(v) => check_reply(job, &v, &mut problems),
                    Err(e) => {
                        problems.push(format!("{}: {e}", job.name));
                        None
                    }
                }
            }
            Ok(Err((status, body))) => {
                problems.push(format!("{}: HTTP {status}: {body}", job.name));
                None
            }
            Err(e) => {
                problems.push(format!("{}: submit: {e}", job.name));
                None
            }
        };
        let latency_ms = if problems.is_empty() {
            t0.elapsed().as_secs_f64() * 1e3
        } else {
            JOB_TIMEOUT.as_secs_f64() * 1e3
        };
        Seen {
            job: i,
            latency_ms,
            submit_ms,
            allowed,
            problems,
        }
    })
}

/// One pass: a fresh service, every job of the plan through the closed
/// loop, then drain and shut down.
struct Pass {
    seen: Vec<Seen>,
    wall_s: f64,
    recorders: Vec<Recorder>,
    /// `/metrics` and `/profile` scraped before shutdown.
    metrics_text: String,
    profile_json: String,
}

fn pass(
    jobs: &[Job],
    server_seed: u64,
    traced: bool,
    epoch: Instant,
    problems: &mut Vec<String>,
) -> Pass {
    let server = match Server::start(serve_config(server_seed)) {
        Ok(s) => s,
        Err(e) => {
            problems.push(format!("server start: {e}"));
            return Pass {
                seen: Vec::new(),
                wall_s: 0.0,
                recorders: Vec::new(),
                metrics_text: String::new(),
                profile_json: String::new(),
            };
        }
    };
    let client = ServeClient::new(server.port());
    let next = AtomicUsize::new(0);
    let done: Vec<AtomicBool> = (0..jobs.len()).map(|_| AtomicBool::new(false)).collect();
    let signal = (Mutex::new(()), Condvar::new());
    let seen = Mutex::new(Vec::with_capacity(jobs.len()));
    let t0 = Instant::now();
    let recorders = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (next, done, signal, seen) = (&next, &done, &signal, &seen);
                s.spawn(move || {
                    let mut rec = Recorder::new(epoch, traced, c as u32 + 1);
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(job) = jobs.get(i) else { break };
                        if let Some(target) = job.renames {
                            let pos = jobs
                                .iter()
                                .position(|j| j.original == Some(target))
                                .expect("every target is an original");
                            let mut g = signal.0.lock().expect("completion lock");
                            while !done[pos].load(Ordering::SeqCst) {
                                g = signal.1.wait(g).expect("completion lock");
                            }
                        }
                        let r = one_job(&client, i, job, &mut rec);
                        done[i].store(true, Ordering::SeqCst);
                        drop(signal.0.lock().expect("completion lock"));
                        signal.1.notify_all();
                        seen.lock().expect("results").push(r);
                    }
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let scrape = |path: &str| client.get(path).map(|(_, b)| b).unwrap_or_default();
    let (metrics_text, profile_json) = if traced {
        (scrape("/metrics"), scrape("/profile"))
    } else {
        (String::new(), String::new())
    };
    server.shutdown();
    let report = server.join();
    if report.failed > 0 || report.violations > 0 {
        problems.push(format!(
            "service reported {} failed jobs, {} violations",
            report.failed, report.violations
        ));
    }
    let mut seen = seen.into_inner().expect("results");
    seen.sort_by_key(|s| s.job);
    Pass {
        seen,
        wall_s,
        recorders,
        metrics_text,
        profile_json,
    }
}

/// The allowed sets of a program, explored directly (no canonical
/// form, no cache): the reference every reply is checked against.
type Sets = (OutcomeSet, OutcomeSet);

fn parsed(job: &Job) -> LitmusTest {
    let texts: Vec<&str> = job.threads.iter().map(String::as_str).collect();
    LitmusTest::new(
        "submitted",
        parse_threads(&texts).expect("the plan renders parseable programs"),
    )
}

fn explore_both(test: &LitmusTest) -> Sets {
    (
        explore(test, ForwardPolicy::X86),
        explore(test, ForwardPolicy::StoreAtomic370),
    )
}

/// Explores every job's program on two threads.
fn reference_sets(jobs: &[Job]) -> Vec<Sets> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Sets>>> = Mutex::new((0..jobs.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(job) = jobs.get(i) else { break };
                let sets = explore_both(&parsed(job));
                out.lock().expect("reference sets")[i] = Some(sets);
            });
        }
    });
    out.into_inner()
        .expect("reference sets")
        .into_iter()
        .map(|s| s.expect("every job explored"))
        .collect()
}

/// Checks every reply's allowed sets against the reference and books
/// each job.
fn verify(jobs: &[Job], passes: &[Pass], sets: &[Sets], run: &mut Run) {
    let docs: Vec<String> = jobs
        .iter()
        .zip(sets)
        .map(|(j, (x86, atomic))| render_allowed_doc(&j.name, &parsed(j), x86, atomic))
        .collect();
    for p in passes {
        for s in &p.seen {
            let mut problems = s.problems.clone();
            if s.problems.is_empty() && s.allowed.as_deref() != Some(docs[s.job].as_str()) {
                problems.push(format!(
                    "{}: allowed sets differ from a direct exploration",
                    jobs[s.job].name
                ));
            }
            run.book(problems);
        }
        for _ in p.seen.len()..jobs.len() {
            run.book(vec!["job never ran".to_string()]);
        }
    }
}

/// Latency percentiles per pass, reported as the median over passes so
/// one disturbed pass does not move them.
fn latency_metrics(jobs: &[Job], passes: &[&Pass], run: &mut Run, prefix: &str) {
    let per_pass = |pick: &dyn Fn(&Seen) -> bool, q: f64| -> f64 {
        let qs: Vec<f64> = passes
            .iter()
            .map(|p| {
                let xs: Vec<f64> = p
                    .seen
                    .iter()
                    .filter(|s| pick(s))
                    .map(|s| s.latency_ms)
                    .collect();
                quantile(&xs, q)
            })
            .collect();
        median(&qs)
    };
    let cached = |s: &Seen| jobs[s.job].renames.is_some();
    if prefix.is_empty() {
        let n = passes.first().map_or(0, |p| p.seen.len());
        run.set("job_p50_ms", per_pass(&|_| true, 0.5), "ms");
        run.set("job_p95_ms", per_pass(&|_| true, 0.95), "ms");
        run.set("samples_per_pass", n as f64, "count");
        run.set("samples_beyond_p95", (n as f64 * 0.05).floor(), "count");
        run.set("cached_job_p50_ms", per_pass(&cached, 0.5), "ms");
        run.set("cached_samples_per_pass", RESUBMITS as f64, "count");
    } else {
        run.set(
            format!("{prefix}cached_job_p50_ms"),
            per_pass(&cached, 0.5),
            "ms",
        );
    }
}

/// A counter from the Prometheus exposition.
fn prom(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// `(total_ns, count)` of `job/litmus;queue_wait` in a `/profile` tree.
fn queue_wait(profile_json: &str) -> (f64, f64) {
    let Ok(v) = JsonValue::parse(profile_json) else {
        return (0.0, 0.0);
    };
    let node = v
        .get("roots")
        .and_then(|r| r.as_arr())
        .and_then(|roots| {
            roots
                .iter()
                .find(|n| n.get("name").and_then(|x| x.as_str()) == Some("job/litmus"))
        })
        .and_then(|job| job.get("children"))
        .and_then(|c| c.as_arr())
        .and_then(|c| {
            c.iter()
                .find(|n| n.get("name").and_then(|x| x.as_str()) == Some("queue_wait"))
        });
    let f = |k: &str| {
        node.and_then(|n| n.get(k))
            .and_then(|x| x.as_f64())
            .unwrap_or(0.0)
    };
    (f("total_ns"), f("count"))
}

pub fn run(args: &Args) -> Run {
    let epoch = Instant::now();
    let mut run = Run::default();
    let mut setup_rec = Recorder::new(epoch, args.trace, 0);
    let mut setup = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPS {
        // Free the previous repetition's plan first, so every
        // repetition after the first reuses the same memory.
        drop(std::mem::take(&mut jobs));
        let t = Instant::now();
        let (plan, server) = setup_rec.span("setup", HARNESS, None, |rec| {
            let plan = plan(args.corpus_seed, args.seed, rec);
            let server = rec.span("serve.start", SERVE, None, |_| {
                Server::start(serve_config(args.seed))
            });
            (plan, server)
        });
        setup.push(t.elapsed().as_secs_f64());
        if let Ok(server) = server {
            server.shutdown();
            server.join();
        }
        jobs = plan;
    }
    let mut problems = Vec::new();
    if args.trace {
        traced(args, &jobs, epoch, setup_rec, &mut run);
        return run;
    }
    run.set("setup_s", median(&setup), "s");
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut passes = Vec::new();
    loop {
        passes.push(pass(&jobs, args.seed, false, epoch, &mut problems));
        if passes.len() == 1 {
            // Later passes inherit the allocator's state from earlier
            // ones, so only the first pass's high-water mark is a
            // property of the workload.
            run.set("peak_rss_mb", crate::host::peak_rss_mb(), "MiB");
        }
        if Instant::now() >= deadline || !problems.is_empty() {
            break;
        }
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    run.set("sweep_s", median(&walls), "s");
    run.set("jobs_per_s", jobs.len() as f64 / median(&walls), "1/s");
    run.set("passes", passes.len() as f64, "count");
    latency_metrics(&jobs, &passes.iter().collect::<Vec<_>>(), &mut run, "");
    let sets = reference_sets(&jobs);
    verify(&jobs, &passes, &sets, &mut run);
    run.problems.extend(problems);
    run
}

/// The traced run: a warm-up pass, an untraced pass, a traced pass, a
/// replay of every job through the layers it crosses, and the
/// farm-starvation probe.
fn traced(args: &Args, jobs: &[Job], epoch: Instant, setup_rec: Recorder, run: &mut Run) {
    let mut problems = Vec::new();
    // A discarded warm-up pass first: the first pass of a process pays
    // for page faults and allocator growth, which would read as negative
    // tracing overhead.
    let warm_up = pass(jobs, args.seed, false, epoch, &mut problems);
    let plain = pass(jobs, args.seed, false, epoch, &mut problems);
    let (wait0_ns, wait0_n) = queue_wait(&sa_profile::harvest().to_json());
    let traced_pass = pass(jobs, args.seed, true, epoch, &mut problems);
    run.set(
        "trace.overhead_frac",
        traced_pass.wall_s / plain.wall_s - 1.0,
        "fraction",
    );
    latency_metrics(jobs, &[&traced_pass], run, "serve.");
    let submits: Vec<f64> = traced_pass.seen.iter().map(|s| s.submit_ms).collect();
    run.set("serve.submit_ms_p50", median(&submits), "ms");
    let hits = prom(&traced_pass.metrics_text, "sa_oracle_cache_hits_total");
    let misses = prom(&traced_pass.metrics_text, "sa_oracle_cache_misses_total");
    run.set(
        "serve.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "fraction",
    );
    let (wait1_ns, wait1_n) = queue_wait(&traced_pass.profile_json);
    run.set(
        "serve.queue_wait_ms",
        (wait1_ns - wait0_ns) / 1e6 / (wait1_n - wait0_n).max(1.0),
        "ms",
    );

    // Replay every job through the layers the service calls for it.
    let mut rec = Recorder::new(epoch, true, 0);
    let mut rng = Xoshiro256::seed_from_u64(args.seed ^ 0x5eed);
    let (mut parse_us, mut canon_us, mut explore_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut build_us, mut run_us, mut drop_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut outcomes = 0usize;
    let mut layer_ms = vec![0.0; jobs.len()];
    let mut sets = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        rec.span("replay", HARNESS, None, |rec| {
            let t = Instant::now();
            let spec = rec.span("serve.parse", SERVE, None, |_| JobSpec::parse(&job.body));
            parse_us.push(t.elapsed().as_secs_f64() * 1e6);
            if let Err(e) = spec {
                problems.push(format!("{}: JobSpec::parse: {e}", job.name));
            }
            let test = parsed(job);
            let t = Instant::now();
            rec.span("litmus.canonicalize", LITMUS, None, |_| canonicalize(&test));
            let canon = t.elapsed().as_secs_f64();
            canon_us.push(canon * 1e6);
            let t = Instant::now();
            let s = rec.span("litmus.explore", LITMUS, None, |_| explore_both(&test));
            let explored = t.elapsed().as_secs_f64();
            let mut layer = canon;
            if job.original.is_some() {
                explore_ms.push(explored * 1e3);
                outcomes += s.0.len() + s.1.len();
                layer += explored;
            }
            sets.push(s);
            for model in ConsistencyModel::ALL {
                for pads in pad_patterns(&test, false, &mut rng) {
                    let t0 = Instant::now();
                    let mut sim = rec.span("sim.litmus_build", SIM, None, |_| {
                        let traces = test.to_traces_padded(&pads);
                        let cfg = SimConfig::builder()
                            .model(model)
                            .cores(traces.len())
                            .build()
                            .expect("litmus sim config is valid");
                        Multicore::new(cfg, traces)
                    });
                    let t1 = Instant::now();
                    let r = rec.span("sim.litmus_run", SIM, None, |_| sim.run(5_000_000));
                    let t2 = Instant::now();
                    rec.span("sim.litmus_teardown", SIM, None, |_| drop(sim));
                    let t3 = Instant::now();
                    if let Err(e) = r {
                        problems.push(format!("{} under {model}: {e}", job.name));
                    }
                    build_us.push((t1 - t0).as_secs_f64() * 1e6);
                    run_us.push((t2 - t1).as_secs_f64() * 1e6);
                    drop_us.push((t3 - t2).as_secs_f64() * 1e6);
                    layer += (t3 - t0).as_secs_f64();
                }
            }
            layer_ms[i] = layer * 1e3;
        });
    }
    run.set("serve.parse_us", median(&parse_us), "us");
    run.set("litmus.canon_us", median(&canon_us), "us");
    run.set("litmus.explore_ms_p50", median(&explore_ms), "ms");
    run.set("litmus.explore_ms_p95", quantile(&explore_ms, 0.95), "ms");
    run.set("litmus.explore_ms_max", max(&explore_ms), "ms");
    run.set(
        "litmus.explore_s",
        explore_ms.iter().sum::<f64>() / 1e3,
        "s",
    );
    run.set("litmus.outcomes", outcomes as f64, "count");
    run.set("sim.litmus_build_us", median(&build_us), "us");
    run.set("sim.litmus_run_us", median(&run_us), "us");
    run.set("sim.litmus_teardown_us", median(&drop_us), "us");
    let overhead: Vec<f64> = traced_pass
        .seen
        .iter()
        .filter(|s| s.problems.is_empty())
        .map(|s| s.latency_ms - layer_ms[s.job])
        .collect();
    run.set("serve.http_overhead_ms", median(&overhead), "ms");

    let (refused, farm_rate) = farm_probe(args, &mut rec);
    run.set("serve.refused_under_farm", refused, "fraction");
    run.set("serve.farm_programs_per_s", farm_rate, "1/s");

    let passes = [warm_up, plain, traced_pass];
    verify(jobs, &passes, &sets, run);
    run.problems.extend(problems);
    let mut spans = Spans::default();
    spans.absorb(setup_rec);
    let [_, _, traced_pass] = passes;
    for r in traced_pass.recorders {
        spans.absorb(r);
    }
    spans.absorb(rec);
    run.spans = Some(spans);
}

/// Starts a farm burst on a fresh service, then submits a trickle of
/// interactive jobs while it runs. Returns the share of interactive
/// submits refused and the jobs the service completed per second over
/// the trickle.
fn farm_probe(args: &Args, rec: &mut Recorder) -> (f64, f64) {
    rec.span("farm_probe", HARNESS, None, |rec| {
        let Ok(server) = Server::start(serve_config(args.seed)) else {
            return (0.0, 0.0);
        };
        let client = ServeClient::new(server.port());
        let completed = |c: &ServeClient| {
            c.get("/metrics")
                .map_or(0.0, |(_, m)| prom(&m, "sa_serve_jobs_completed_total"))
        };
        let burst = format!(
            "{{\"programs\":{FARM_PROGRAMS},\"seed\":{}}}",
            args.corpus_seed
        );
        let _ = rec.span("serve.farm", SERVE, None, |_| client.post("/farm", &burst));
        let t0 = Instant::now();
        let before = completed(&client);
        let (mut refused, mut accepted) = (0usize, 0usize);
        for _ in 0..TRICKLE {
            match rec.span("serve.submit", SERVE, None, |_| {
                client.submit(r#"{"kind":"litmus","suite":"n6"}"#)
            }) {
                Ok(Ok(_)) => accepted += 1,
                _ => refused += 1,
            }
            std::thread::sleep(TRICKLE_GAP);
        }
        let window = t0.elapsed().as_secs_f64();
        let farm_done = (completed(&client) - before - accepted as f64).max(0.0);
        server.shutdown();
        server.join();
        (refused as f64 / TRICKLE as f64, farm_done / window)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_interleaves_resubmissions_after_their_targets() {
        let mut off = Recorder::new(Instant::now(), false, 0);
        let jobs = plan(DEFAULT_CORPUS_SEED, 3, &mut off);
        assert_eq!(jobs.len(), ORIGINALS + RESUBMITS);
        for (pos, j) in jobs.iter().enumerate() {
            if let Some(t) = j.renames {
                let target = jobs.iter().position(|o| o.original == Some(t)).unwrap();
                let originals_between = jobs[target..pos]
                    .iter()
                    .filter(|o| o.original.is_some())
                    .count();
                assert!(originals_between >= MARGIN, "{} too close", j.name);
            }
        }
    }

    #[test]
    fn renamed_programs_share_the_canonical_form() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        for t in CorpusStream::new(1, GenConfig::default()).take(50) {
            let r = rename(&t, &mut rng);
            assert_eq!(canonicalize(&t).key, canonicalize(&r).key);
        }
    }

    #[test]
    fn bodies_parse_as_job_specs() {
        let mut off = Recorder::new(Instant::now(), false, 0);
        for j in plan(DEFAULT_CORPUS_SEED, 1, &mut off).iter().take(40) {
            assert!(JobSpec::parse(&j.body).is_ok(), "{}", j.body);
            assert_eq!(parsed(j).threads.len(), j.threads.len());
        }
    }
}
