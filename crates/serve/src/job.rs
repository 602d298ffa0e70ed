//! Job specifications (the POST wire format), job records, and the
//! bounded in-memory job store.
//!
//! A job is either a **litmus** differential check — allowed sets from
//! the memoized oracle, optionally cross-checked against the cycle-level
//! simulator under a set of configurations — or a **workload** run (one
//! sa-workloads benchmark under one configuration). Specs arrive as
//! JSON; unknown kinds, unknown models and malformed programs are
//! rejected with a message the handler returns as 400.
//!
//! The store keeps every live job plus the most recent
//! [`Jobs::retain`]-many terminal ones — older results are evicted so a
//! farm that runs for days cannot grow the map without bound (a poll for
//! an evicted id gets 404, same as an unknown id).

use std::collections::{HashMap, VecDeque};

use sa_isa::ConsistencyModel;
use sa_litmus::{parse_threads, suite, LitmusTest};
use sa_metrics::JsonValue;
use sa_sim::{parse_topology, EngineMode, Topology};

/// Largest submitted litmus program, in operations after RMW expansion.
/// The simulator gives each of a thread's loads its own register, so
/// this keeps every thread within [`sa_isa::NUM_REGS`]; it is also far
/// inside the explorer's one-byte key cells.
const MAX_PROGRAM_OPS: usize = sa_isa::NUM_REGS;

/// Largest workload job, in instructions summed over its cores
/// (`cores × scale`). Every job on its suite's default core count (8
/// for the parallel suite, 1 for SPEC) fits at the largest scale,
/// 1,000,000; more cores must come with a smaller scale.
pub const MAX_WORKLOAD_INSTRUCTIONS: u64 = 8_000_000;

/// Parsed litmus-job parameters.
#[derive(Debug, Clone)]
pub struct LitmusJob {
    /// Caller-visible label (suite name, `"name"` field, or a default).
    pub name: String,
    /// The program to judge.
    pub test: LitmusTest,
    /// Sweep the §III-A probe window (set for `probe_*` names).
    pub probe: bool,
    /// Configurations to simulate when `check` is set.
    pub models: Vec<ConsistencyModel>,
    /// Run the differential simulator check (not just the oracle).
    pub check: bool,
    /// Explicit per-thread pad patterns; `None` uses the standard sweep.
    pub pads: Option<Vec<Vec<usize>>>,
}

/// Parsed workload-job parameters.
#[derive(Debug, Clone)]
pub struct WorkloadJob {
    /// sa-workloads benchmark name.
    pub workload: String,
    /// Configuration to run under.
    pub model: ConsistencyModel,
    /// Instructions per core.
    pub scale: usize,
    /// Workload generation seed.
    pub seed: u64,
    /// Core-count override; `None` uses the suite default (8 parallel /
    /// 1 SPEC).
    pub cores: Option<usize>,
    /// Interconnect override (`"fc"` / `"mesh:<w>"`); `None` keeps the
    /// config default.
    pub topology: Option<Topology>,
    /// Engine override (`"lockstep"` / `"event"` / `"parallel:<t>"`);
    /// `None` keeps the config default.
    pub engine: Option<EngineMode>,
}

/// One unit of queued work.
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// Differential litmus check.
    Litmus(LitmusJob),
    /// Benchmark run.
    Workload(WorkloadJob),
}

impl JobSpec {
    /// The caller-visible job label.
    pub fn name(&self) -> &str {
        match self {
            JobSpec::Litmus(l) => &l.name,
            JobSpec::Workload(w) => &w.workload,
        }
    }

    /// Parses a POST body. The format is a flat JSON object:
    ///
    /// ```json
    /// {"kind":"litmus","threads":["st x,1; ld x; ld y","st y,2; st x,2"],
    ///  "name":"mine","models":["x86"],"check":true,"pads":[[0,0]]}
    /// {"kind":"litmus","suite":"n6"}
    /// {"kind":"workload","workload":"barnes","model":"x86","scale":300,"seed":1,
    ///  "cores":64,"topology":"mesh:8","engine":"parallel:4"}
    /// ```
    pub fn parse(body: &str) -> Result<JobSpec, String> {
        let v = JsonValue::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
        let kind = v.get("kind").and_then(|k| k.as_str()).unwrap_or("litmus");
        match kind {
            "litmus" => JobSpec::parse_litmus(&v),
            "workload" => JobSpec::parse_workload(&v),
            other => Err(format!("unknown job kind {other:?}")),
        }
    }

    fn parse_litmus(v: &JsonValue) -> Result<JobSpec, String> {
        let (name, test) = if let Some(suite_name) = v.get("suite").and_then(|s| s.as_str()) {
            let ct = suite::by_name(suite_name)
                .ok_or_else(|| format!("unknown suite test {suite_name:?}"))?;
            (suite_name.to_string(), ct.test)
        } else {
            let threads_v = v
                .get("threads")
                .and_then(|t| t.as_arr())
                .ok_or("litmus job needs \"threads\" (array of strings) or \"suite\"")?;
            let texts: Vec<&str> = threads_v
                .iter()
                .map(|t| t.as_str().ok_or("\"threads\" entries must be strings"))
                .collect::<Result<_, _>>()?;
            let threads = parse_threads(&texts)?;
            if threads.len() > 8 {
                return Err(format!("at most 8 threads, got {}", threads.len()));
            }
            let test = LitmusTest::new("submitted", threads);
            let ops = test.desugared().total_ops();
            if ops > MAX_PROGRAM_OPS {
                return Err(format!(
                    "at most {MAX_PROGRAM_OPS} operations after RMW expansion, got {ops}"
                ));
            }
            let name = v
                .get("name")
                .and_then(|n| n.as_str())
                .unwrap_or("submitted")
                .to_string();
            (name, test)
        };
        let models = match v.get("models").and_then(|m| m.as_arr()) {
            None => ConsistencyModel::ALL.to_vec(),
            Some(arr) => arr
                .iter()
                .map(|m| {
                    let label = m.as_str().ok_or("\"models\" entries must be strings")?;
                    ConsistencyModel::from_label(label)
                        .ok_or_else(|| format!("unknown model {label:?}"))
                })
                .collect::<Result<_, String>>()?,
        };
        let check = match v.get("check") {
            None => true,
            Some(JsonValue::Bool(b)) => *b,
            Some(_) => return Err("\"check\" must be a boolean".to_string()),
        };
        let pads = match v.get("pads").and_then(|p| p.as_arr()) {
            None => None,
            Some(arr) => {
                let n = test.threads.len();
                let pats: Vec<Vec<usize>> = arr
                    .iter()
                    .map(|pat| {
                        let row = pat.as_arr().ok_or("\"pads\" must be an array of arrays")?;
                        if row.len() != n {
                            return Err(format!("each pad pattern needs {n} entries"));
                        }
                        row.iter()
                            .map(|x| {
                                x.as_u64()
                                    .filter(|&p| p <= 10_000)
                                    .map(|p| p as usize)
                                    .ok_or_else(|| "pads must be integers ≤ 10000".to_string())
                            })
                            .collect()
                    })
                    .collect::<Result<_, String>>()?;
                Some(pats)
            }
        };
        let probe = name.starts_with("probe");
        Ok(JobSpec::Litmus(LitmusJob {
            name,
            test,
            probe,
            models,
            check,
            pads,
        }))
    }

    fn parse_workload(v: &JsonValue) -> Result<JobSpec, String> {
        let workload = v
            .get("workload")
            .and_then(|w| w.as_str())
            .ok_or("workload job needs \"workload\"")?;
        if sa_workloads::by_name(workload).is_none() {
            return Err(format!("unknown workload {workload:?}"));
        }
        let model = match v.get("model").and_then(|m| m.as_str()) {
            None => ConsistencyModel::Ibm370SlfSosKey,
            Some(label) => ConsistencyModel::from_label(label)
                .ok_or_else(|| format!("unknown model {label:?}"))?,
        };
        let scale = v
            .get("scale")
            .map(|s| s.as_u64().ok_or("\"scale\" must be an integer"))
            .transpose()?
            .unwrap_or(300);
        if scale == 0 || scale > 1_000_000 {
            return Err("\"scale\" must be in 1..=1000000".to_string());
        }
        let seed = v
            .get("seed")
            .map(|s| s.as_u64().ok_or("\"seed\" must be an integer"))
            .transpose()?
            .unwrap_or(1);
        let cores = v
            .get("cores")
            .map(|c| c.as_u64().ok_or("\"cores\" must be an integer"))
            .transpose()?
            .map(|c| c as usize);
        if let Some(c) = cores {
            if c == 0 || c > sa_isa::MAX_CORES {
                return Err(format!("\"cores\" must be in 1..={}", sa_isa::MAX_CORES));
            }
        }
        let topology = v
            .get("topology")
            .map(|t| {
                t.as_str()
                    .ok_or("\"topology\" must be a string".to_string())
                    .and_then(parse_topology)
            })
            .transpose()?;
        let engine = v
            .get("engine")
            .map(|e| {
                e.as_str()
                    .ok_or("\"engine\" must be a string".to_string())
                    .and_then(EngineMode::parse)
            })
            .transpose()?;
        // A mesh must tile the effective core count; reject bad grids
        // here so submitters get a 400 instead of a failed job.
        let spec = sa_workloads::by_name(workload).expect("validated above");
        let effective = cores.unwrap_or(match spec.suite {
            sa_workloads::Suite::Parallel => 8,
            sa_workloads::Suite::Spec => 1,
        });
        if let Some(Topology::Mesh2D { width }) = topology {
            if width == 0 || effective % width != 0 {
                return Err(format!(
                    "mesh width {width} does not tile {effective} cores"
                ));
            }
        }
        if let Some(EngineMode::Parallel { threads: 0 }) = engine {
            return Err("\"engine\" parallel needs at least one thread".to_string());
        }
        let work = effective as u64 * scale;
        if work > MAX_WORKLOAD_INSTRUCTIONS {
            return Err(format!(
                "cores × scale = {effective} × {scale} = {work} instructions, \
                 over the {MAX_WORKLOAD_INSTRUCTIONS} per-job cap"
            ));
        }
        Ok(JobSpec::Workload(WorkloadJob {
            workload: workload.to_string(),
            model,
            scale: scale as usize,
            seed,
            cores,
            topology,
            engine,
        }))
    }
}

/// Job lifecycle. `Queued → Running → Done | Failed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is on it.
    Running,
    /// Finished; result available.
    Done,
    /// Execution panicked or was cut off by shutdown.
    Failed,
}

impl JobStatus {
    /// Wire label.
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }

    /// `true` once the job can no longer change.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Failed)
    }
}

/// Most lifecycle events a single job retains. Streams past the cap see
/// a final `truncated` marker instead of the dropped middle.
pub const MAX_JOB_EVENTS: usize = 256;

/// One job's externally visible state.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Server-assigned id.
    pub id: u64,
    /// Caller-visible label.
    pub name: String,
    /// Lifecycle state.
    pub status: JobStatus,
    /// `true` when the allowed sets came from the memo cache.
    pub cached: bool,
    /// Rendered result JSON object (terminal `Done` only).
    pub result: Option<String>,
    /// Failure message (terminal `Failed` only).
    pub error: Option<String>,
    /// Pre-rendered ndjson lifecycle events, in order, for
    /// `GET /jobs/<id>/events`. Bounded by [`MAX_JOB_EVENTS`].
    pub events: Vec<String>,
    /// When the job was accepted — queue wait is measured from here.
    pub submitted: std::time::Instant,
    /// Queue wait in nanoseconds, set when a worker claims the job.
    pub queue_wait_ns: Option<u64>,
}

/// The in-memory job store: live jobs plus a bounded tail of terminal
/// results. Wrap in a `Mutex`.
pub struct Jobs {
    records: HashMap<u64, JobRecord>,
    /// Specs of not-yet-executed jobs, removed when a worker claims one.
    specs: HashMap<u64, JobSpec>,
    /// Terminal ids in completion order, for eviction.
    terminal: VecDeque<u64>,
    /// Terminal records kept before eviction.
    retain: usize,
    next_id: u64,
}

impl Jobs {
    /// A store retaining at most `retain` terminal results.
    pub fn new(retain: usize) -> Jobs {
        Jobs {
            records: HashMap::new(),
            specs: HashMap::new(),
            terminal: VecDeque::new(),
            retain: retain.max(1),
            next_id: 1,
        }
    }

    /// Registers a new queued job and returns its id.
    pub fn create(&mut self, spec: JobSpec) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.records.insert(
            id,
            JobRecord {
                id,
                name: spec.name().to_string(),
                status: JobStatus::Queued,
                cached: false,
                result: None,
                error: None,
                events: Vec::new(),
                submitted: std::time::Instant::now(),
                queue_wait_ns: None,
            },
        );
        self.specs.insert(id, spec);
        self.push_event(id, "{\"status\":\"queued\"}");
        id
    }

    /// Appends a pre-rendered event `fields` (a JSON object body without
    /// the id/seq envelope) to a job's event log. No-op past eviction;
    /// past [`MAX_JOB_EVENTS`] a single `truncated` marker is kept.
    fn push_event(&mut self, id: u64, fields: &str) {
        let Some(r) = self.records.get_mut(&id) else {
            return;
        };
        if r.events.len() >= MAX_JOB_EVENTS {
            if r.events.len() == MAX_JOB_EVENTS {
                let seq = r.events.len();
                r.events
                    .push(format!("{{\"id\":{id},\"seq\":{seq},\"truncated\":true}}"));
            }
            return;
        }
        let seq = r.events.len();
        let body = fields.strip_prefix('{').unwrap_or(fields);
        r.events.push(format!("{{\"id\":{id},\"seq\":{seq},{body}"));
    }

    /// Records a mid-run progress marker (e.g. the phase a worker just
    /// entered) on a running job's event stream.
    pub fn progress(&mut self, id: u64, phase: &str) {
        let esc: String = phase
            .chars()
            .filter(|c| *c != '"' && *c != '\\' && !c.is_control())
            .collect();
        self.push_event(
            id,
            &format!("{{\"status\":\"running\",\"phase\":\"{esc}\"}}"),
        );
    }

    /// Claims a queued job for execution: marks it running and hands the
    /// spec to the worker along with the job's queue wait in nanoseconds.
    pub fn claim(&mut self, id: u64) -> Option<(JobSpec, u64)> {
        let spec = self.specs.remove(&id)?;
        let mut wait_ns = 0;
        if let Some(r) = self.records.get_mut(&id) {
            r.status = JobStatus::Running;
            wait_ns = r.submitted.elapsed().as_nanos() as u64;
            r.queue_wait_ns = Some(wait_ns);
        }
        self.push_event(
            id,
            &format!("{{\"status\":\"running\",\"queue_wait_ns\":{wait_ns}}}"),
        );
        Some((spec, wait_ns))
    }

    /// Removes a just-created job that could not be enqueued (429/503).
    /// Only valid before any worker could have seen the id.
    pub fn abort(&mut self, id: u64) {
        self.specs.remove(&id);
        self.records.remove(&id);
    }

    fn settle(&mut self, id: u64, status: JobStatus) {
        self.terminal.push_back(id);
        if let Some(r) = self.records.get_mut(&id) {
            r.status = status;
        }
        while self.terminal.len() > self.retain {
            let old = self.terminal.pop_front().expect("non-empty");
            self.records.remove(&old);
        }
    }

    /// Records a successful result.
    pub fn finish(&mut self, id: u64, result: String, cached: bool) {
        if let Some(r) = self.records.get_mut(&id) {
            r.result = Some(result);
            r.cached = cached;
        }
        self.settle(id, JobStatus::Done);
        self.push_event(id, &format!("{{\"status\":\"done\",\"cached\":{cached}}}"));
    }

    /// Records a failure.
    pub fn fail(&mut self, id: u64, error: String) {
        self.specs.remove(&id);
        if let Some(r) = self.records.get_mut(&id) {
            r.error = Some(error);
        }
        self.settle(id, JobStatus::Failed);
        self.push_event(id, "{\"status\":\"failed\"}");
    }

    /// Looks a job up (evicted ids are gone).
    pub fn get(&self, id: u64) -> Option<&JobRecord> {
        self.records.get(&id)
    }

    /// `(queued, running, done, failed)` among retained records.
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        let mut c = (0, 0, 0, 0);
        for r in self.records.values() {
            match r.status {
                JobStatus::Queued => c.0 += 1,
                JobStatus::Running => c.1 += 1,
                JobStatus::Done => c.2 += 1,
                JobStatus::Failed => c.3 += 1,
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_litmus_spec() {
        let spec = JobSpec::parse(
            r#"{"kind":"litmus","name":"mine","threads":["st x,1; ld x; ld y","st y,2; st x,2"],
                "models":["x86","370-SLFSoS-key"],"check":true,"pads":[[0,0],[60,0]]}"#,
        )
        .unwrap();
        let JobSpec::Litmus(l) = spec else {
            panic!("wrong kind")
        };
        assert_eq!(l.name, "mine");
        assert_eq!(l.test.threads, suite::n6().test.threads);
        assert_eq!(
            l.models,
            vec![ConsistencyModel::X86, ConsistencyModel::Ibm370SlfSosKey]
        );
        assert!(l.check);
        assert_eq!(l.pads, Some(vec![vec![0, 0], vec![60, 0]]));
    }

    #[test]
    fn suite_reference_resolves() {
        let spec = JobSpec::parse(r#"{"suite":"n6"}"#).unwrap();
        let JobSpec::Litmus(l) = spec else {
            panic!("wrong kind")
        };
        assert_eq!(l.name, "n6");
        assert_eq!(l.test.threads, suite::n6().test.threads);
        assert_eq!(l.models.len(), 5, "defaults to all models");
        assert!(l.check, "defaults to checking");
        assert!(l.pads.is_none());
    }

    #[test]
    fn parses_a_workload_spec() {
        let spec =
            JobSpec::parse(r#"{"kind":"workload","workload":"barnes","model":"x86","scale":200}"#)
                .unwrap();
        let JobSpec::Workload(w) = spec else {
            panic!("wrong kind")
        };
        assert_eq!(w.workload, "barnes");
        assert_eq!(w.model, ConsistencyModel::X86);
        assert_eq!(w.scale, 200);
        assert_eq!(w.cores, None, "suite default when unset");
        assert_eq!(w.topology, None);
        assert_eq!(w.engine, None);
    }

    #[test]
    fn parses_workload_scale_out_fields() {
        let spec = JobSpec::parse(
            r#"{"kind":"workload","workload":"radix","cores":64,
                "topology":"mesh:8","engine":"parallel:4"}"#,
        )
        .unwrap();
        let JobSpec::Workload(w) = spec else {
            panic!("wrong kind")
        };
        assert_eq!(w.cores, Some(64));
        assert_eq!(w.topology, Some(Topology::Mesh2D { width: 8 }));
        assert_eq!(w.engine, Some(EngineMode::Parallel { threads: 4 }));
    }

    #[test]
    fn rejects_bad_scale_out_specs() {
        for (body, needle) in [
            (
                r#"{"kind":"workload","workload":"barnes","cores":0}"#,
                "cores",
            ),
            (
                r#"{"kind":"workload","workload":"barnes","cores":2000}"#,
                "cores",
            ),
            (
                r#"{"kind":"workload","workload":"barnes","topology":"ring"}"#,
                "topology",
            ),
            (
                // barnes defaults to 8 cores; a 3-wide mesh cannot tile it.
                r#"{"kind":"workload","workload":"barnes","topology":"mesh:3"}"#,
                "does not tile",
            ),
            (
                r#"{"kind":"workload","workload":"barnes","cores":16,"topology":"mesh:5"}"#,
                "does not tile",
            ),
            (
                r#"{"kind":"workload","workload":"barnes","engine":"warp"}"#,
                "engine",
            ),
            (
                r#"{"kind":"workload","workload":"barnes","engine":"parallel:0"}"#,
                "at least one thread",
            ),
        ] {
            let err = JobSpec::parse(body).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn bounds_workload_work() {
        // 10^9 instructions on 1024 shard threads.
        let err = JobSpec::parse(
            r#"{"kind":"workload","workload":"radix","scale":1000000,"cores":1024,
                "engine":"parallel:1024"}"#,
        )
        .unwrap_err();
        assert!(err.contains("per-job cap"), "{err}");
        let err =
            JobSpec::parse(r#"{"kind":"workload","workload":"radix","scale":1000000,"cores":9}"#)
                .unwrap_err();
        assert!(err.contains("9 × 1000000"), "{err}");
        // Default core counts fit at the largest scale; more cores fit
        // at a proportionally smaller one.
        for ok in [
            r#"{"kind":"workload","workload":"radix","scale":1000000}"#,
            r#"{"kind":"workload","workload":"505.mcf","scale":1000000}"#,
            r#"{"kind":"workload","workload":"radix","scale":1000000,"cores":8}"#,
            r#"{"kind":"workload","workload":"radix","scale":7812,"cores":1024}"#,
        ] {
            assert!(JobSpec::parse(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn rejects_bad_specs() {
        for (body, needle) in [
            ("{", "invalid JSON"),
            (r#"{"kind":"nope"}"#, "unknown job kind"),
            (r#"{"kind":"litmus"}"#, "\"threads\""),
            (r#"{"suite":"no_such"}"#, "unknown suite test"),
            (r#"{"threads":["mov x,1"]}"#, "unknown mnemonic"),
            (
                r#"{"threads":["st x,1"],"models":["486"]}"#,
                "unknown model",
            ),
            (r#"{"threads":["st x,1","ld x"],"pads":[[1]]}"#, "2 entries"),
            (
                r#"{"kind":"workload","workload":"no_such"}"#,
                "unknown workload",
            ),
            (
                r#"{"kind":"workload","workload":"barnes","scale":0}"#,
                "scale",
            ),
        ] {
            let err = JobSpec::parse(body).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn bounds_program_size_after_rmw_expansion() {
        let spec = |threads: &[String]| {
            let quoted: Vec<String> = threads.iter().map(|t| format!("{t:?}")).collect();
            JobSpec::parse(&format!(r#"{{"threads":[{}]}}"#, quoted.join(",")))
        };
        let ops = |op: &str, n: usize| vec![op; n].join("; ");
        // 64 ops across two threads pass; one more load is refused before
        // it could reach the simulator's 64-register lowering.
        assert!(spec(&[ops("ld x", 32), ops("ld y", 32)]).is_ok());
        let err = spec(&[ops("ld x", 65)]).unwrap_err();
        assert!(err.contains("at most 64 operations"), "{err}");
        // 16 RMWs expand to 64 ops; 17 expand to 68.
        assert!(spec(&[ops("rmw x,1", 16)]).is_ok());
        let err = spec(&[ops("rmw x,1", 17)]).unwrap_err();
        assert!(err.contains("got 68"), "{err}");
    }

    #[test]
    fn store_lifecycle_and_eviction() {
        let mut jobs = Jobs::new(2);
        let ids: Vec<u64> = (0..4)
            .map(|_| jobs.create(JobSpec::parse(r#"{"suite":"sb"}"#).unwrap()))
            .collect();
        assert_eq!(jobs.counts(), (4, 0, 0, 0));
        for &id in &ids[..3] {
            assert!(jobs.claim(id).is_some());
            jobs.finish(id, "{}".to_string(), false);
        }
        assert!(jobs.claim(ids[0]).is_none(), "claim is one-shot");
        // Retention 2: the first finished job has been evicted.
        assert!(jobs.get(ids[0]).is_none());
        assert!(jobs.get(ids[1]).is_some());
        assert_eq!(jobs.get(ids[2]).unwrap().status, JobStatus::Done);
        assert_eq!(jobs.get(ids[3]).unwrap().status, JobStatus::Queued);
        jobs.fail(ids[3], "cut off".to_string());
        assert_eq!(jobs.get(ids[3]).unwrap().status, JobStatus::Failed);
        assert!(JobStatus::Failed.is_terminal());
    }

    #[test]
    fn lifecycle_events_are_sequenced_ndjson() {
        let mut jobs = Jobs::new(4);
        let id = jobs.create(JobSpec::parse(r#"{"suite":"sb"}"#).unwrap());
        let (_, wait) = jobs.claim(id).unwrap();
        jobs.progress(id, "explore");
        jobs.finish(id, "{}".to_string(), true);
        let r = jobs.get(id).unwrap();
        assert_eq!(r.queue_wait_ns, Some(wait));
        let evs = &r.events;
        assert_eq!(evs.len(), 4);
        for (i, ev) in evs.iter().enumerate() {
            assert!(ev.contains(&format!("\"seq\":{i},")), "{ev}");
            assert!(sa_metrics::JsonValue::parse(ev).is_ok(), "{ev}");
        }
        assert!(evs[0].contains("\"status\":\"queued\""));
        assert!(evs[1].contains("\"queue_wait_ns\""));
        assert!(evs[2].contains("\"phase\":\"explore\""));
        assert!(evs[3].contains("\"status\":\"done\",\"cached\":true"));
    }

    #[test]
    fn event_log_is_bounded_with_truncation_marker() {
        let mut jobs = Jobs::new(4);
        let id = jobs.create(JobSpec::parse(r#"{"suite":"sb"}"#).unwrap());
        for i in 0..2 * MAX_JOB_EVENTS {
            jobs.progress(id, &format!("phase{i}"));
        }
        let evs = &jobs.get(id).unwrap().events;
        assert_eq!(evs.len(), MAX_JOB_EVENTS + 1);
        assert!(evs.last().unwrap().contains("\"truncated\":true"));
    }
}
