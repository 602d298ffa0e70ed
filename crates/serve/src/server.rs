//! The long-running job service: acceptor threads, a bounded worker
//! pool, the memoized oracle in front of the simulators, the fuzzing
//! farm, and graceful shutdown.
//!
//! ## Routes
//!
//! | method | path          | body / reply |
//! |--------|---------------|--------------|
//! | POST   | `/jobs`       | job spec JSON → 202 `{id}`, 429 when the queue is full |
//! | GET    | `/jobs/<id>`  | job status/result JSON (404 once evicted) |
//! | GET    | `/jobs/<id>/events` | chunked ndjson lifecycle stream, closes at terminal status |
//! | GET    | `/jobs`       | queue/status summary |
//! | POST   | `/farm`       | `{programs, seed}` → starts a generator burst |
//! | GET    | `/coverage`   | cumulative config × shape × outcome matrix |
//! | GET    | `/metrics`    | Prometheus exposition (counters + latency histograms) |
//! | GET    | `/profile`    | aggregated host wall-time tree (`/folded`, `/chrome` variants) |
//! | GET    | `/forensics`  | latest violation-triage summary JSON |
//! | POST   | `/shutdown`   | loopback-only: stop accepting, drain, flush |
//!
//! ## Job lifecycle
//!
//! `POST /jobs` parses the spec, registers a `queued` record and
//! enqueues the id — all under the job-store lock, so a worker can never
//! pop an id whose record does not exist. A full queue rejects with 429
//! *before* a record is created: rejected work leaves no trace and no
//! memory. Workers claim ids, execute outside all locks, and settle the
//! record (`done`/`failed`); terminal records are retained in a bounded
//! ring. On `/shutdown` the queue closes: everything already accepted
//! drains to a terminal status, then workers, farm and acceptors exit
//! and the final coverage checkpoint is flushed.

use std::collections::HashSet;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sa_isa::rng::Xoshiro256;
use sa_isa::ConsistencyModel;
use sa_litmus::ast::LOp;
use sa_litmus::{
    canonicalize, explore, policy_for, render_allowed_doc, shape_label, suite, CorpusStream,
    ForwardPolicy, GenConfig, OutcomeSet,
};
use sa_metrics::{JsonWriter, Log2Hist, Registry};
use sa_ooo::InjectedBug;
use sa_profile::{Profiler, WallProfiler};
use sa_workloads::Suite as WorkloadSuite;

use crate::cache::{CachedSets, OracleCache};
use crate::http::{read_request, respond, Request};
use crate::job::{JobSpec, Jobs, LitmusJob, WorkloadJob};
use crate::queue::{BoundedQueue, PushError};
use crate::sim::{pad_patterns, run_on_sim};
use crate::triage::triage_violation;

/// Canonical forms remembered for farm dedup before the set stops
/// growing (beyond it, duplicates are no longer detected — bounded
/// memory beats perfect dedup on an unbounded run).
const CORPUS_CAP: usize = 100_000;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1 (0 picks a free one).
    pub port: u16,
    /// Worker pool size.
    pub workers: usize,
    /// Acceptor threads (each handles one connection at a time).
    pub acceptors: usize,
    /// Bounded queue capacity — the backpressure point.
    pub queue_cap: usize,
    /// Terminal job records retained for polling before eviction.
    pub retain: usize,
    /// Directory for triage reports and coverage checkpoints
    /// (`None` disables persistence).
    pub results_dir: Option<PathBuf>,
    /// Master seed for pad sweeps and the boot farm.
    pub seed: u64,
    /// Bug planted in every simulation — lets a farm run prove it can
    /// catch what it is hunting.
    pub mutate: Option<InjectedBug>,
    /// Flush a coverage checkpoint every this many completed jobs.
    pub checkpoint_every: u64,
    /// Start a farm of this many programs at boot.
    pub farm: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            port: 0,
            workers: 4,
            acceptors: 2,
            queue_cap: 64,
            retain: 1024,
            results_dir: None,
            seed: 4,
            mutate: None,
            checkpoint_every: 64,
            farm: None,
        }
    }
}

/// Monotonic service counters (exported at `/metrics`).
#[derive(Debug, Default)]
pub struct Counters {
    /// `POST /jobs` requests that parsed.
    pub submitted: AtomicU64,
    /// Jobs accepted into the queue.
    pub accepted: AtomicU64,
    /// Submissions rejected with 429 (queue full).
    pub rejected: AtomicU64,
    /// Jobs settled `done`.
    pub completed: AtomicU64,
    /// Jobs settled `failed`.
    pub failed: AtomicU64,
    /// Cycle-level simulations executed.
    pub sims: AtomicU64,
    /// Programs drawn by farm generators.
    pub farm_generated: AtomicU64,
    /// Farm draws dropped as canonical duplicates.
    pub farm_deduped: AtomicU64,
    /// Containment violations observed.
    pub violations: AtomicU64,
    /// Violations triaged through the forensics pipeline.
    pub triaged: AtomicU64,
    /// Coverage checkpoints flushed.
    pub checkpoints: AtomicU64,
}

fn inc(c: &AtomicU64) -> u64 {
    c.fetch_add(1, Ordering::Relaxed) + 1
}

fn get(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// Everything the acceptor, worker and farm threads share.
struct Shared {
    cfg: ServeConfig,
    queue: BoundedQueue<u64>,
    jobs: Mutex<Jobs>,
    /// Paired with `jobs`: notified after every job-store mutation so
    /// `GET /jobs/<id>/events` streams wake promptly instead of polling.
    jobs_cv: Condvar,
    /// Per-endpoint request-handling latency histograms (nanoseconds).
    http_hists: Mutex<Vec<(&'static str, Log2Hist)>>,
    cache: Mutex<OracleCache>,
    coverage: Mutex<crate::coverage::Coverage>,
    corpus: Mutex<HashSet<Vec<Vec<LOp>>>>,
    counters: Counters,
    /// sa-scalescope telemetry of the most recent parallel-engine
    /// workload job, surfaced as `sa_parallel_*` on `/metrics`.
    parallel_scope: Mutex<Option<sa_sim::ParallelScope>>,
    latest_triage: Mutex<String>,
    farm_threads: Mutex<Vec<JoinHandle<()>>>,
    shutdown: AtomicBool,
    accept_done: AtomicBool,
    shutdown_signal: (Mutex<bool>, Condvar),
}

/// What a drained server reports back.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Jobs settled `done`.
    pub completed: u64,
    /// Jobs settled `failed`.
    pub failed: u64,
    /// Submissions rejected with 429.
    pub rejected: u64,
    /// Oracle memo-cache hits / misses / size at exit.
    pub cache: (u64, u64, u64),
    /// Containment violations observed.
    pub violations: u64,
    /// Populated coverage cells.
    pub coverage_cells: u64,
    /// Final checkpoint path, when persistence was on.
    pub checkpoint: Option<PathBuf>,
}

/// A running service instance.
pub struct Server {
    shared: Arc<Shared>,
    port: u16,
    acceptors: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns acceptors + workers (+ the boot farm, if
    /// configured) and returns immediately.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let port = listener.local_addr()?.port();
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_cap),
            jobs: Mutex::new(Jobs::new(cfg.retain)),
            jobs_cv: Condvar::new(),
            http_hists: Mutex::new(Vec::new()),
            cache: Mutex::new(OracleCache::new()),
            coverage: Mutex::new(crate::coverage::Coverage::new()),
            corpus: Mutex::new(HashSet::new()),
            counters: Counters::default(),
            parallel_scope: Mutex::new(None),
            latest_triage: Mutex::new(String::new()),
            farm_threads: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            accept_done: AtomicBool::new(false),
            shutdown_signal: (Mutex::new(false), Condvar::new()),
            cfg,
        });
        let mut acceptors = Vec::new();
        for _ in 0..shared.cfg.acceptors.max(1) {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            acceptors.push(std::thread::spawn(move || accept_loop(listener, shared)));
        }
        let mut workers = Vec::new();
        for _ in 0..shared.cfg.workers.max(1) {
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        if let Some(programs) = shared.cfg.farm {
            let seed = shared.cfg.seed;
            spawn_farm(&shared, programs, seed);
        }
        Ok(Server {
            shared,
            port,
            acceptors,
            workers,
        })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Initiates shutdown programmatically (same effect as
    /// `POST /shutdown`).
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared);
    }

    /// Blocks until shutdown is initiated, then drains everything:
    /// farm generators, the worker pool (every accepted job reaches a
    /// terminal status), the final coverage checkpoint, and the
    /// acceptors. Returns the exit report.
    pub fn join(mut self) -> ShutdownReport {
        let (lock, cv) = &self.shared.shutdown_signal;
        let mut down = lock.lock().expect("shutdown signal");
        while !*down {
            down = cv.wait(down).expect("shutdown signal");
        }
        drop(down);
        let farms: Vec<JoinHandle<()>> = self
            .shared
            .farm_threads
            .lock()
            .expect("farm threads")
            .drain(..)
            .collect();
        for f in farms {
            let _ = f.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let checkpoint = write_checkpoint(&self.shared);
        // Wake each acceptor blocked in accept() with a throwaway
        // connection, then collect them.
        self.shared.accept_done.store(true, Ordering::SeqCst);
        for _ in 0..self.acceptors.len() {
            let _ = TcpStream::connect(("127.0.0.1", self.port));
        }
        for a in self.acceptors.drain(..) {
            let _ = a.join();
        }
        let c = &self.shared.counters;
        let cache = self.shared.cache.lock().expect("cache");
        ShutdownReport {
            completed: get(&c.completed),
            failed: get(&c.failed),
            rejected: get(&c.rejected),
            cache: (cache.hits(), cache.misses(), cache.len() as u64),
            violations: get(&c.violations),
            coverage_cells: self.shared.coverage.lock().expect("coverage").cells() as u64,
            checkpoint,
        }
    }
}

fn initiate_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.queue.close();
    let (lock, cv) = &shared.shutdown_signal;
    *lock.lock().expect("shutdown signal") = true;
    cv.notify_all();
}

// ---------------------------------------------------------------- HTTP

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let Ok((stream, peer)) = listener.accept() else {
            continue;
        };
        if shared.accept_done.load(Ordering::SeqCst) {
            break;
        }
        let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(5)));
        let _ = stream.set_write_timeout(Some(std::time::Duration::from_secs(5)));
        let _ = handle_conn(stream, peer, &shared);
    }
}

/// A top-level JSON string literal (quoted, escaped).
fn json_str(s: &str) -> String {
    let mut j = JsonWriter::new();
    j.string(s);
    j.finish()
}

fn err_json(msg: &str) -> String {
    format!("{{\"error\":{}}}", json_str(msg))
}

fn handle_conn(
    mut stream: TcpStream,
    peer: SocketAddr,
    shared: &Arc<Shared>,
) -> std::io::Result<()> {
    let req = match read_request(&mut stream)? {
        Ok(r) => r,
        Err(bad) => {
            return respond(
                &mut stream,
                bad.status(),
                "application/json",
                &err_json("bad request"),
            )
        }
    };
    let start = Instant::now();
    // `GET /jobs/<id>/events` holds the connection open for the job's
    // lifetime; hand it to a detached thread so this acceptor stays free.
    if req.method == "GET" {
        if let Some(id_str) = req
            .path
            .strip_prefix("/jobs/")
            .and_then(|rest| rest.strip_suffix("/events"))
        {
            let reply = start_event_stream(stream, id_str, shared);
            observe_http(shared, endpoint_family(&req.method, &req.path), start);
            let (mut stream, status, body) = match reply {
                None => return Ok(()),
                Some(r) => r,
            };
            return respond(&mut stream, status, "application/json", &body);
        }
    }
    let (status, ctype, body) = route(&req, peer, shared);
    observe_http(shared, endpoint_family(&req.method, &req.path), start);
    respond(&mut stream, status, ctype, &body)
}

/// The latency-histogram label for a request: one stable name per route
/// family so ids and typos cannot explode the label space.
fn endpoint_family(method: &str, path: &str) -> &'static str {
    match (method, path) {
        ("GET", "/") => "index",
        ("POST", "/jobs") => "submit",
        ("GET", "/jobs") => "jobs_summary",
        ("GET", p) if p.starts_with("/jobs/") && p.ends_with("/events") => "job_events",
        ("GET", p) if p.starts_with("/jobs/") => "job_status",
        ("POST", "/farm") => "farm",
        ("GET", "/coverage") => "coverage",
        ("GET", "/metrics") => "metrics",
        ("GET", p) if p == "/profile" || p.starts_with("/profile/") => "profile",
        ("GET", "/forensics") => "forensics",
        ("POST", "/shutdown") => "shutdown",
        _ => "other",
    }
}

/// Books one request's handling time into its endpoint's histogram.
fn observe_http(shared: &Shared, endpoint: &'static str, start: Instant) {
    let ns = start.elapsed().as_nanos() as u64;
    let mut hists = shared.http_hists.lock().expect("http hists");
    match hists.iter_mut().find(|(e, _)| *e == endpoint) {
        Some((_, h)) => h.observe(ns),
        None => {
            let mut h = Log2Hist::new();
            h.observe(ns);
            hists.push((endpoint, h));
        }
    }
}

fn route(
    req: &Request,
    peer: SocketAddr,
    shared: &Arc<Shared>,
) -> (&'static str, &'static str, String) {
    const JSON: &str = "application/json";
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/") => ("200 OK", "text/plain", INDEX.to_string()),
        ("POST", "/jobs") => submit(req, shared),
        ("GET", "/jobs") => ("200 OK", JSON, jobs_summary(shared)),
        ("GET", path) if path.starts_with("/jobs/") => job_status(&path[6..], shared),
        ("POST", "/farm") => start_farm(req, shared),
        ("GET", "/coverage") => (
            "200 OK",
            JSON,
            shared.coverage.lock().expect("coverage").json(),
        ),
        ("GET", "/metrics") => ("200 OK", "text/plain; version=0.0.4", metrics_text(shared)),
        ("GET", "/profile") => ("200 OK", JSON, sa_profile::harvest().to_json()),
        ("GET", "/profile/folded") => ("200 OK", "text/plain", sa_profile::harvest().folded()),
        ("GET", "/profile/chrome") => ("200 OK", JSON, sa_profile::harvest().to_chrome()),
        ("GET", "/forensics") => {
            let t = shared.latest_triage.lock().expect("triage").clone();
            if t.is_empty() {
                ("200 OK", JSON, "{\"status\":\"no triage yet\"}".to_string())
            } else {
                ("200 OK", JSON, t)
            }
        }
        ("POST", "/shutdown") => {
            // Loopback-only: the socket is bound to 127.0.0.1, but check
            // the peer anyway so a port-forwarded deployment cannot be
            // shut down remotely.
            if !peer.ip().is_loopback() {
                return ("403 Forbidden", JSON, err_json("loopback only"));
            }
            let queued = shared.queue.len();
            initiate_shutdown(shared);
            (
                "200 OK",
                JSON,
                format!("{{\"status\":\"shutting down\",\"draining\":{queued}}}"),
            )
        }
        _ => ("404 Not Found", JSON, err_json("no such route")),
    }
}

const INDEX: &str = "sa-serve: simulation as a service\n\
  POST /jobs       submit a litmus or workload job (JSON)\n\
  GET  /jobs       queue summary\n\
  GET  /jobs/<id>  poll a job\n\
  GET  /jobs/<id>/events  live ndjson lifecycle stream (chunked)\n\
  POST /farm       start a fuzzing-farm burst {\"programs\":N,\"seed\":S}\n\
  GET  /coverage   config x shape x outcome matrix\n\
  GET  /metrics    Prometheus exposition\n\
  GET  /profile    host wall-time tree (/profile/folded, /profile/chrome)\n\
  GET  /forensics  latest violation triage\n\
  POST /shutdown   drain and exit (loopback only)\n";

fn submit(req: &Request, shared: &Shared) -> (&'static str, &'static str, String) {
    const JSON: &str = "application/json";
    inc(&shared.counters.submitted);
    let body = String::from_utf8_lossy(&req.body);
    let spec = match JobSpec::parse(&body) {
        Ok(s) => s,
        Err(e) => return ("400 Bad Request", JSON, err_json(&e)),
    };
    if shared.shutdown.load(Ordering::SeqCst) {
        return ("503 Service Unavailable", JSON, err_json("shutting down"));
    }
    // Record + enqueue under one lock: a worker that pops the id always
    // finds the record; a 429 leaves neither.
    let mut jobs = shared.jobs.lock().expect("jobs");
    let id = jobs.create(spec);
    match shared.queue.try_push(id) {
        Ok(()) => {
            inc(&shared.counters.accepted);
            shared.jobs_cv.notify_all();
            (
                "202 Accepted",
                JSON,
                format!("{{\"id\":{id},\"status\":\"queued\",\"poll\":\"/jobs/{id}\"}}"),
            )
        }
        Err(PushError::Full) => {
            jobs.abort(id);
            inc(&shared.counters.rejected);
            (
                "429 Too Many Requests",
                JSON,
                err_json("queue full, retry later"),
            )
        }
        Err(PushError::Closed) => {
            jobs.abort(id);
            ("503 Service Unavailable", JSON, err_json("shutting down"))
        }
    }
}

fn job_status(id_str: &str, shared: &Shared) -> (&'static str, &'static str, String) {
    const JSON: &str = "application/json";
    let Ok(id) = id_str.parse::<u64>() else {
        return ("400 Bad Request", JSON, err_json("job ids are integers"));
    };
    let jobs = shared.jobs.lock().expect("jobs");
    let Some(r) = jobs.get(id) else {
        return ("404 Not Found", JSON, err_json("unknown or evicted job"));
    };
    let result = r.result.clone().unwrap_or_else(|| "null".to_string());
    let error = r
        .error
        .as_deref()
        .map(json_str)
        .unwrap_or_else(|| "null".to_string());
    let body = format!(
        "{{\"id\":{},\"name\":{},\"status\":\"{}\",\"cached\":{},\"result\":{},\"error\":{}}}",
        r.id,
        json_str(&r.name),
        r.status.label(),
        r.cached,
        result,
        error
    );
    ("200 OK", JSON, body)
}

/// Validates a `GET /jobs/<id>/events` request. On success the stream
/// is moved to a detached thread and `None` is returned; on error the
/// stream comes back with a status + body for a normal JSON response.
fn start_event_stream(
    stream: TcpStream,
    id_str: &str,
    shared: &Arc<Shared>,
) -> Option<(TcpStream, &'static str, String)> {
    let Ok(id) = id_str.parse::<u64>() else {
        return Some((stream, "400 Bad Request", err_json("job ids are integers")));
    };
    if shared.jobs.lock().expect("jobs").get(id).is_none() {
        return Some((stream, "404 Not Found", err_json("unknown or evicted job")));
    }
    let shared = Arc::clone(shared);
    std::thread::spawn(move || stream_events(stream, id, &shared));
    None
}

/// Writes one chunked-transfer-encoded ndjson line.
fn write_chunk(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    write!(stream, "{:x}\r\n{line}\n\r\n", line.len() + 1)
}

/// The body of one live event stream: drain the job's event log by
/// cursor, sleep on the jobs condvar between batches, close after the
/// terminal event (or when the record is evicted / the client hangs up).
fn stream_events(mut stream: TcpStream, id: u64, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let head = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    let mut cursor = 0usize;
    loop {
        let (batch, terminal) = {
            let mut jobs = shared.jobs.lock().expect("jobs");
            loop {
                let Some(r) = jobs.get(id) else {
                    // Evicted mid-stream: nothing more will ever arrive.
                    let _ = stream.write_all(b"0\r\n\r\n");
                    return;
                };
                let terminal = r.status.is_terminal();
                if cursor < r.events.len() || terminal {
                    break (r.events[cursor.min(r.events.len())..].to_vec(), terminal);
                }
                // Bounded wait: the condvar wakes us on any job-store
                // mutation; the timeout covers lost wakeups + shutdown.
                jobs = shared
                    .jobs_cv
                    .wait_timeout(jobs, Duration::from_millis(250))
                    .expect("jobs cv")
                    .0;
            }
        };
        cursor += batch.len();
        for line in &batch {
            if write_chunk(&mut stream, line).is_err() {
                return;
            }
        }
        if terminal {
            break;
        }
    }
    let _ = stream.write_all(b"0\r\n\r\n");
}

fn jobs_summary(shared: &Shared) -> String {
    let (queued, running, done, failed) = shared.jobs.lock().expect("jobs").counts();
    let c = &shared.counters;
    format!(
        "{{\"queued\":{queued},\"running\":{running},\"done\":{done},\"failed\":{failed},\
         \"queue_depth\":{},\"accepted\":{},\"rejected\":{}}}",
        shared.queue.len(),
        get(&c.accepted),
        get(&c.rejected)
    )
}

fn start_farm(req: &Request, shared: &Arc<Shared>) -> (&'static str, &'static str, String) {
    const JSON: &str = "application/json";
    if shared.shutdown.load(Ordering::SeqCst) {
        return ("503 Service Unavailable", JSON, err_json("shutting down"));
    }
    let body = String::from_utf8_lossy(&req.body);
    let v = if body.trim().is_empty() {
        sa_metrics::JsonValue::parse("{}").expect("empty object")
    } else {
        match sa_metrics::JsonValue::parse(&body) {
            Ok(v) => v,
            Err(e) => {
                return (
                    "400 Bad Request",
                    JSON,
                    err_json(&format!("invalid JSON: {e}")),
                )
            }
        }
    };
    let programs = v.get("programs").and_then(|p| p.as_u64()).unwrap_or(100);
    let seed = v
        .get("seed")
        .and_then(|s| s.as_u64())
        .unwrap_or(shared.cfg.seed);
    if programs == 0 {
        return (
            "400 Bad Request",
            JSON,
            err_json("\"programs\" must be ≥ 1"),
        );
    }
    spawn_farm(shared, programs, seed);
    (
        "202 Accepted",
        JSON,
        format!("{{\"farm\":\"started\",\"programs\":{programs},\"seed\":{seed}}}"),
    )
}

// --------------------------------------------------------------- workers

/// Appends a mid-run phase marker to a job's event stream and wakes any
/// attached `GET /jobs/<id>/events` connections.
fn progress(shared: &Shared, id: u64, phase: &str) {
    shared.jobs.lock().expect("jobs").progress(id, phase);
    shared.jobs_cv.notify_all();
}

fn worker_loop(shared: &Shared) {
    while let Some(id) = shared.queue.pop() {
        let claimed = shared.jobs.lock().expect("jobs").claim(id);
        shared.jobs_cv.notify_all();
        let Some((spec, wait_ns)) = claimed else {
            continue;
        };
        // Run the job under a thread-local span capture: queue wait plus
        // the lifecycle spans inside run_litmus/run_workload land in one
        // per-job tree, merged into the global profile under the job
        // kind so GET /profile shows where service wall time goes.
        let (outcome, profile) = sa_profile::capture(|| {
            sa_profile::record_ns("queue_wait", wait_ns);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(shared, id, &spec)))
        });
        let kind = match &spec {
            JobSpec::Litmus(_) => "job/litmus",
            JobSpec::Workload(_) => "job/workload",
        };
        sa_profile::merge_into_global(kind, &profile);
        match outcome {
            Ok((result, cached)) => {
                shared.jobs.lock().expect("jobs").finish(id, result, cached);
                shared.jobs_cv.notify_all();
                let done = inc(&shared.counters.completed);
                if shared.cfg.checkpoint_every > 0
                    && done.is_multiple_of(shared.cfg.checkpoint_every)
                {
                    write_checkpoint(shared);
                }
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "job panicked".to_string());
                shared.jobs.lock().expect("jobs").fail(id, msg);
                shared.jobs_cv.notify_all();
                inc(&shared.counters.failed);
            }
        }
    }
}

/// Executes one job; returns `(result JSON, served_from_cache)`.
fn run_job(shared: &Shared, id: u64, spec: &JobSpec) -> (String, bool) {
    match spec {
        JobSpec::Litmus(l) => run_litmus(shared, id, l),
        JobSpec::Workload(w) => (run_workload(shared, id, w), false),
    }
}

fn run_litmus(shared: &Shared, id: u64, l: &LitmusJob) -> (String, bool) {
    // Allowed sets: memo cache first, explore (outside the lock) on miss.
    let canon = {
        let _p = WallProfiler::span("canon");
        canonicalize(&l.test)
    };
    let looked_up = shared.cache.lock().expect("cache").lookup(&canon.key);
    let (entry, cached) = match looked_up {
        Some(e) => (e, true),
        None => {
            progress(shared, id, "explore");
            let _p = WallProfiler::span("explore");
            let canon_test = canon.test();
            let sets = CachedSets {
                x86: explore(&canon_test, ForwardPolicy::X86),
                atomic: explore(&canon_test, ForwardPolicy::StoreAtomic370),
            };
            (
                shared
                    .cache
                    .lock()
                    .expect("cache")
                    .insert(canon.key.clone(), sets),
                false,
            )
        }
    };
    let x86 = canon.restore_set(&entry.x86);
    let atomic = canon.restore_set(&entry.atomic);
    let allowed_doc = render_allowed_doc(&l.name, &l.test, &x86, &atomic);
    let shape = shape_label(&l.test);
    {
        let mut cov = shared.coverage.lock().expect("coverage");
        cov.record(
            "axiomatic-x86",
            &shape,
            0,
            x86.iter().map(|o| o.to_string()),
            0,
        );
        cov.record(
            "axiomatic-370",
            &shape,
            0,
            atomic.iter().map(|o| o.to_string()),
            0,
        );
    }

    struct ModelRow {
        model: ConsistencyModel,
        sims: u64,
        violations: u64,
    }
    struct ViolationRow {
        model: ConsistencyModel,
        pads: Vec<usize>,
        outcome: String,
        minimized: Option<String>,
        triage_paths: Vec<String>,
    }
    let mut rows: Vec<ModelRow> = Vec::new();
    let mut violations: Vec<ViolationRow> = Vec::new();
    if l.check {
        progress(shared, id, "simulate");
        let _sim_span = WallProfiler::span("simulate");
        let pats = l.pads.clone().unwrap_or_else(|| {
            let mut rng = Xoshiro256::seed_from_u64(shared.cfg.seed ^ id.rotate_left(17));
            pad_patterns(&l.test, l.probe, &mut rng)
        });
        for &model in &l.models {
            let allowed: &OutcomeSet = if policy_for(model) == ForwardPolicy::X86 {
                &x86
            } else {
                &atomic
            };
            let mut observed: Vec<String> = Vec::new();
            let mut row = ModelRow {
                model,
                sims: 0,
                violations: 0,
            };
            for pads in &pats {
                inc(&shared.counters.sims);
                row.sims += 1;
                let o = run_on_sim(&l.test, model, pads, shared.cfg.mutate);
                observed.push(o.to_string());
                if allowed.contains(&o) {
                    continue;
                }
                // First forbidden outcome per model: record it, triage
                // the first one of the job, move to the next model
                // (further pads re-prove the same root cause).
                row.violations += 1;
                inc(&shared.counters.violations);
                let mut vrow = ViolationRow {
                    model,
                    pads: pads.clone(),
                    outcome: o.to_string(),
                    minimized: None,
                    triage_paths: Vec::new(),
                };
                if violations.is_empty() {
                    progress(shared, id, "shrink_triage");
                    let _p = WallProfiler::span("shrink_triage");
                    let tr = triage_violation(
                        &l.test,
                        model,
                        pads,
                        shared.cfg.mutate,
                        &o,
                        shared.cfg.results_dir.as_deref(),
                        id,
                    );
                    inc(&shared.counters.triaged);
                    *shared.latest_triage.lock().expect("triage") = tr.summary_json.clone();
                    vrow.minimized = Some(tr.minimized.clone());
                    vrow.triage_paths = tr.paths.iter().map(|p| p.display().to_string()).collect();
                }
                violations.push(vrow);
                break;
            }
            shared.coverage.lock().expect("coverage").record(
                model.label(),
                &shape,
                row.sims,
                observed.iter(),
                row.violations,
            );
            rows.push(row);
        }
    }

    let mut j = JsonWriter::new();
    j.begin_object()
        .field_str("kind", "litmus")
        .field_str("name", &l.name)
        .field_str("shape", &shape)
        .key("cached")
        .boolean(cached);
    j.field_str("allowed", &allowed_doc)
        .key("checked")
        .boolean(l.check);
    j.key("models").begin_array();
    for row in &rows {
        j.begin_object()
            .field_str("model", row.model.label())
            .field_uint("sims", row.sims)
            .field_uint("violations", row.violations)
            .end_object();
    }
    j.end_array().key("violations").begin_array();
    for v in &violations {
        j.begin_object()
            .field_str("model", v.model.label())
            .key("pads")
            .begin_array();
        for p in &v.pads {
            j.uint(*p as u64);
        }
        j.end_array().field_str("outcome", &v.outcome);
        if let Some(min) = &v.minimized {
            j.field_str("minimized", min);
        }
        j.key("triage").begin_array();
        for p in &v.triage_paths {
            j.string(p);
        }
        j.end_array().end_object();
    }
    j.end_array().end_object();
    (j.finish(), cached)
}

fn run_workload(shared: &Shared, id: u64, w: &WorkloadJob) -> String {
    let spec = sa_workloads::by_name(&w.workload).expect("workload validated at parse");
    let n_cores = w.cores.unwrap_or(match spec.suite {
        WorkloadSuite::Parallel => 8,
        WorkloadSuite::Spec => 1,
    });
    let mut cfg = sa_sim::SimConfig::default()
        .with_model(w.model)
        .with_cores(n_cores);
    if let Some(t) = w.topology {
        cfg = cfg.with_topology(t);
    }
    if let Some(e) = w.engine {
        cfg = cfg.with_engine(e);
    }
    let topology_str = cfg.mem.topology.to_string();
    let engine_str = cfg.engine.to_string();
    progress(shared, id, "generate");
    let traces = {
        let _p = WallProfiler::span("generate");
        spec.generate_cached(n_cores, w.scale, w.seed)
    };
    // Engine spans stay off here (`Multicore::new` = NullProfiler): the
    // service profiles its lifecycle phases, not every simulated cycle.
    let mut sim = sa_sim::Multicore::new(cfg, traces);
    let budget = (w.scale as u64).saturating_mul(2_000).max(10_000_000);
    inc(&shared.counters.sims);
    progress(shared, id, "simulate");
    let _sim_span = WallProfiler::span("simulate");
    let report = sim
        .run(budget)
        .unwrap_or_else(|e| panic!("{} under {}: {e}", w.workload, w.model));
    let mut j = JsonWriter::new();
    j.begin_object()
        .field_str("kind", "workload")
        .field_str("workload", &w.workload)
        .field_str("model", w.model.label())
        .field_uint("scale", w.scale as u64)
        .field_uint("seed", w.seed)
        .field_uint("cores", n_cores as u64)
        .field_str("topology", &topology_str)
        .field_str("engine", &engine_str)
        .field_uint("cycles", report.cycles)
        .field_uint("retired_instrs", report.total().retired_instrs)
        .field_float("ipc", report.ipc());
    if let Some(scope) = sim.scalescope() {
        // Parallel-engine jobs carry their epoch/barrier breakdown in
        // the result and refresh the `/metrics` sa_parallel_* families.
        let (work, wait, exchange) = scope.fractions();
        j.field_uint("parallel_epochs", scope.epochs)
            .field_uint("parallel_lookahead", scope.lookahead)
            .field_float("parallel_work_frac", work)
            .field_float("parallel_wait_frac", wait)
            .field_float("parallel_exchange_frac", exchange);
        *shared.parallel_scope.lock().expect("parallel scope") = Some(scope.clone());
    }
    j.end_object();
    j.finish()
}

// ----------------------------------------------------------------- farm

fn spawn_farm(shared: &Arc<Shared>, programs: u64, seed: u64) {
    let worker = Arc::clone(shared);
    let handle = std::thread::spawn(move || run_farm(&worker, programs, seed));
    shared
        .farm_threads
        .lock()
        .expect("farm threads")
        .push(handle);
}

/// The resident generator: seed programs (probes + the named suite)
/// first — so the farm's corpus always covers the
/// store-atomicity-discriminating shapes — then the endless seeded
/// stream, deduped by canonical form, pushed with *blocking* sends so
/// the farm is throttled to the worker pool's pace.
fn run_farm(shared: &Shared, programs: u64, seed: u64) {
    let mut stream = CorpusStream::new(seed, GenConfig::default());
    let seeds: Vec<(String, sa_litmus::LitmusTest)> = suite::probes()
        .into_iter()
        .map(|t| (t.name.to_string(), t))
        .chain(
            suite::all()
                .into_iter()
                .map(|ct| (ct.test.name.to_string(), ct.test)),
        )
        .collect();
    let mut submitted = 0u64;
    let mut i = 0usize;
    while submitted < programs {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let (name, test) = if i < seeds.len() {
            seeds[i].clone()
        } else {
            let t = stream.next().expect("stream is infinite");
            ("farm".to_string(), t)
        };
        i += 1;
        inc(&shared.counters.farm_generated);
        let key = canonicalize(&test).key;
        let fresh = {
            let mut corpus = shared.corpus.lock().expect("corpus");
            if corpus.contains(&key) {
                false
            } else {
                if corpus.len() < CORPUS_CAP {
                    corpus.insert(key);
                }
                true
            }
        };
        if !fresh {
            inc(&shared.counters.farm_deduped);
            continue;
        }
        let probe = name.starts_with("probe");
        let spec = JobSpec::Litmus(LitmusJob {
            name,
            test,
            probe,
            models: ConsistencyModel::ALL.to_vec(),
            check: true,
            pads: None,
        });
        let id = shared.jobs.lock().expect("jobs").create(spec);
        shared.jobs_cv.notify_all();
        if !shared.queue.push_blocking(id) {
            shared
                .jobs
                .lock()
                .expect("jobs")
                .fail(id, "shutdown before execution".to_string());
            shared.jobs_cv.notify_all();
            break;
        }
        submitted += 1;
    }
}

// ------------------------------------------------------------- exports

fn metrics_text(shared: &Shared) -> String {
    let c = &shared.counters;
    let mut reg = Registry::new();
    reg.counter(
        "sa_serve_jobs_submitted_total",
        "POST /jobs requests received",
        &[],
        get(&c.submitted),
    );
    reg.counter(
        "sa_serve_jobs_accepted_total",
        "jobs accepted into the queue",
        &[],
        get(&c.accepted),
    );
    reg.counter(
        "sa_serve_jobs_rejected_total",
        "submissions rejected with 429 (queue full)",
        &[],
        get(&c.rejected),
    );
    reg.counter(
        "sa_serve_jobs_completed_total",
        "jobs settled done",
        &[],
        get(&c.completed),
    );
    reg.counter(
        "sa_serve_jobs_failed_total",
        "jobs settled failed",
        &[],
        get(&c.failed),
    );
    reg.gauge(
        "sa_serve_queue_depth",
        "jobs waiting in the bounded queue",
        &[],
        shared.queue.len() as f64,
    );
    reg.gauge(
        "sa_serve_queue_capacity",
        "bounded queue capacity",
        &[],
        shared.cfg.queue_cap as f64,
    );
    {
        let cache = shared.cache.lock().expect("cache");
        reg.counter(
            "sa_oracle_cache_hits_total",
            "oracle memo-cache lookups answered without exploration",
            &[],
            cache.hits(),
        );
        reg.counter(
            "sa_oracle_cache_misses_total",
            "oracle memo-cache lookups that ran the explorer",
            &[],
            cache.misses(),
        );
        reg.gauge(
            "sa_oracle_cache_size",
            "distinct canonical programs cached",
            &[],
            cache.len() as f64,
        );
    }
    reg.counter(
        "sa_serve_sims_total",
        "cycle-level simulations executed",
        &[],
        get(&c.sims),
    );
    reg.counter(
        "sa_serve_farm_generated_total",
        "programs drawn by farm generators",
        &[],
        get(&c.farm_generated),
    );
    reg.counter(
        "sa_serve_farm_deduped_total",
        "farm draws dropped as canonical duplicates",
        &[],
        get(&c.farm_deduped),
    );
    reg.counter(
        "sa_serve_violations_total",
        "containment violations observed",
        &[],
        get(&c.violations),
    );
    reg.counter(
        "sa_serve_triaged_total",
        "violations triaged through forensics",
        &[],
        get(&c.triaged),
    );
    reg.gauge(
        "sa_serve_coverage_cells",
        "populated coverage matrix cells",
        &[],
        shared.coverage.lock().expect("coverage").cells() as f64,
    );
    {
        let hists = shared.http_hists.lock().expect("http hists");
        for (endpoint, h) in hists.iter() {
            reg.log2_histogram(
                "sa_serve_http_request_duration_ns",
                "request handling latency by endpoint family",
                &[("endpoint", endpoint)],
                h,
            );
        }
    }
    if let Some(scope) = shared
        .parallel_scope
        .lock()
        .expect("parallel scope")
        .as_ref()
    {
        scope.register(&mut reg);
    }
    let profile = sa_profile::harvest();
    let mut stack: Vec<(usize, String)> = profile
        .roots()
        .iter()
        .rev()
        .map(|&r| (r, profile.node(r).name.clone()))
        .collect();
    while let Some((idx, path)) = stack.pop() {
        let n = profile.node(idx);
        reg.counter(
            "sa_profile_span_total_ns",
            "cumulative wall time per host span path",
            &[("path", &path)],
            n.total_ns,
        );
        reg.counter(
            "sa_profile_span_count",
            "times each host span path was entered",
            &[("path", &path)],
            n.count,
        );
        for &c in profile.children(idx).iter().rev() {
            stack.push((c, format!("{path};{}", profile.node(c).name)));
        }
    }
    reg.prometheus_text()
}

/// Flushes the coverage + counter checkpoint under `results_dir`;
/// returns the path written.
fn write_checkpoint(shared: &Shared) -> Option<PathBuf> {
    let dir = shared.cfg.results_dir.as_ref()?;
    let c = &shared.counters;
    let mut j = JsonWriter::new();
    j.begin_object()
        .field_str("schema", "sa-serve-checkpoint-v1")
        .field_uint("jobs_completed", get(&c.completed))
        .field_uint("jobs_failed", get(&c.failed))
        .field_uint("jobs_rejected", get(&c.rejected))
        .field_uint("sims", get(&c.sims))
        .field_uint("farm_generated", get(&c.farm_generated))
        .field_uint("farm_deduped", get(&c.farm_deduped))
        .field_uint("violations", get(&c.violations));
    {
        let cache = shared.cache.lock().expect("cache");
        j.key("cache")
            .begin_object()
            .field_uint("hits", cache.hits())
            .field_uint("misses", cache.misses())
            .field_uint("size", cache.len() as u64)
            .end_object();
    }
    shared.coverage.lock().expect("coverage").write_json(&mut j);
    j.end_object();
    let doc = j.finish();
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join("serve_coverage.json");
    match std::fs::write(&path, format!("{doc}\n")) {
        Ok(()) => {
            inc(&c.checkpoints);
            Some(path)
        }
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

    fn http(port: u16, method: &str, path: &str, body: &str) -> (String, String) {
        let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        write!(
            s,
            "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send");
        let mut resp = String::new();
        s.read_to_string(&mut resp).expect("recv");
        let (head, body) = resp.split_once("\r\n\r\n").expect("header split");
        let status = head.lines().next().unwrap_or("").to_string();
        (status, body.to_string())
    }

    /// Boot, submit an oracle-only n6, poll it to done, scrape metrics,
    /// shut down, join — the whole lifecycle in-process.
    #[test]
    fn lifecycle_smoke() {
        let server = Server::start(ServeConfig {
            workers: 2,
            acceptors: 1,
            ..ServeConfig::default()
        })
        .expect("start");
        let port = server.port();

        let (status, body) = http(port, "GET", "/", "");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("sa-serve"));

        let (status, body) = http(port, "POST", "/jobs", r#"{"suite":"n6","check":false}"#);
        assert!(status.contains("202"), "{status}: {body}");
        let v = sa_metrics::JsonValue::parse(&body).expect("submit reply json");
        let id = v.get("id").and_then(|i| i.as_u64()).expect("id");

        let mut last = String::new();
        for _ in 0..200 {
            let (_, body) = http(port, "GET", &format!("/jobs/{id}"), "");
            last = body;
            let v = sa_metrics::JsonValue::parse(&last).expect("status json");
            match v.get("status").and_then(|s| s.as_str()) {
                Some("done") => break,
                Some("failed") => panic!("job failed: {last}"),
                _ => std::thread::sleep(std::time::Duration::from_millis(20)),
            }
        }
        let v = sa_metrics::JsonValue::parse(&last).expect("status json");
        assert_eq!(
            v.get("status").and_then(|s| s.as_str()),
            Some("done"),
            "{last}"
        );
        let allowed = v
            .get("result")
            .and_then(|r| r.get("allowed"))
            .and_then(|a| a.as_str())
            .expect("allowed doc");
        assert!(allowed.contains("[X86]"), "{allowed}");
        assert!(allowed.contains("[StoreAtomic370]"));

        let (_, metrics) = http(port, "GET", "/metrics", "");
        assert!(
            metrics.contains("sa_oracle_cache_misses_total 1"),
            "{metrics}"
        );
        assert!(metrics.contains("sa_serve_jobs_completed_total 1"));

        // A program past the size cap is refused at submission.
        let too_big = vec!["ld x"; 65].join("; ");
        let (status, body) = http(
            port,
            "POST",
            "/jobs",
            &format!(r#"{{"threads":["{too_big}"]}}"#),
        );
        assert!(status.contains("400"), "{status}: {body}");
        assert!(body.contains("at most 64 operations"), "{body}");

        // Nesting past the JSON reader's depth bound, inside the body
        // cap, is refused and the server keeps serving.
        let deep = "[".repeat(60 * 1024);
        let (status, body) = http(port, "POST", "/jobs", &deep);
        assert!(status.contains("400"), "{status}: {body}");
        assert!(body.contains("nesting"), "{body}");

        // A workload job past the cores × scale cap is refused.
        let (status, body) = http(
            port,
            "POST",
            "/jobs",
            r#"{"kind":"workload","workload":"radix","scale":1000000,"cores":1024,"engine":"parallel:1024"}"#,
        );
        assert!(status.contains("400"), "{status}: {body}");
        assert!(body.contains("per-job cap"), "{body}");

        let (_, unknown) = http(port, "GET", "/jobs/999999", "");
        assert!(unknown.contains("unknown"));
        let (status, _) = http(port, "GET", "/no/such", "");
        assert!(status.contains("404"));

        let (status, body) = http(port, "POST", "/shutdown", "");
        assert!(status.contains("200"), "{status}: {body}");
        let report = server.join();
        assert_eq!(report.completed, 1);
        assert_eq!(report.failed, 0);
        assert_eq!(report.cache, (0, 1, 1));
    }

    /// The backpressure path: a tiny queue with slow submissions must
    /// 429 the overflow and still complete everything accepted.
    #[test]
    fn overflow_rejects_and_drains() {
        let server = Server::start(ServeConfig {
            workers: 1,
            acceptors: 1,
            queue_cap: 2,
            ..ServeConfig::default()
        })
        .expect("start");
        let port = server.port();
        // Fill the pool + queue with checked jobs (slow enough to pile
        // up), then keep submitting until a 429 arrives.
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for _ in 0..40 {
            let (status, _) = http(
                port,
                "POST",
                "/jobs",
                r#"{"suite":"sb","models":["x86"],"pads":[[0,0]]}"#,
            );
            if status.contains("202") {
                accepted += 1;
            } else {
                assert!(status.contains("429"), "{status}");
                rejected += 1;
                if rejected >= 3 {
                    break;
                }
            }
        }
        assert!(rejected >= 1, "queue of 2 must overflow");
        server.shutdown();
        let report = server.join();
        assert_eq!(
            report.completed + report.failed,
            accepted,
            "every accepted job reaches a terminal status"
        );
        assert_eq!(report.rejected, rejected);
    }
}
