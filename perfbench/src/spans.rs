//! The traced run's span recorder.
//!
//! A span wraps one call the harness makes into a layer: its name, the
//! layer (crate) it enters, start and end on a clock shared by every
//! thread of the run, the span that caused it, and the serve job it
//! belongs to. Spans stay in memory until the run ends; untraced runs
//! create disabled recorders, which record nothing and never read the
//! clock.

use std::collections::BTreeMap;
use std::time::Instant;

use sa_metrics::JsonWriter;

/// The harness itself (passes, cells, jobs) — parent spans, not a layer
/// of the program.
pub const HARNESS: &str = "harness";

/// One recorded span. `id` and `parent` are local to the recording
/// thread until [`Spans::absorb`] renumbers them.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub job: Option<u64>,
    pub thread: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread recorder.
pub struct Recorder {
    epoch: Instant,
    on: bool,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    /// A recorder timing against `epoch`; records nothing unless `on`.
    pub fn new(epoch: Instant, on: bool, thread: u32) -> Recorder {
        Recorder {
            epoch,
            on,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span. Spans `f` opens on this recorder nest
    /// under it.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        job: Option<u64>,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            job,
            thread: self.thread,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        r
    }

    /// Sets the job id of the innermost open span (the id is known only
    /// once the submit reply arrives).
    pub fn tag_job(&mut self, job: u64) {
        if let Some(&open) = self.stack.last() {
            self.spans[open as usize].job = Some(job);
        }
    }

    /// Spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Every thread's spans of one run.
#[derive(Default)]
pub struct Spans {
    all: Vec<Span>,
}

impl Spans {
    /// Moves a finished recorder's spans in, renumbering ids to stay
    /// unique across threads.
    pub fn absorb(&mut self, rec: Recorder) {
        let base = self.all.len() as u32;
        self.all.extend(rec.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn all(&self) -> &[Span] {
        &self.all
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// part its child spans cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.all.len()];
        for s in &self.all {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, c) in self.all.iter().zip(&child_ns) {
            *by_layer.entry(s.layer).or_insert(0.0) += s.dur_ns().saturating_sub(*c) as f64 / 1e9;
        }
        by_layer
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut j = JsonWriter::new();
        j.begin_array();
        for s in &self.all {
            j.begin_object()
                .field_uint("id", u64::from(s.id))
                .field_str("name", s.name)
                .field_str("layer", s.layer)
                .field_uint("start_ns", s.start_ns)
                .field_uint("end_ns", s.end_ns)
                .field_uint("thread", u64::from(s.thread));
            if let Some(p) = s.parent {
                j.field_uint("parent", u64::from(p));
            }
            if let Some(job) = s.job {
                j.field_uint("job", job);
            }
            j.end_object();
        }
        j.end_array();
        j.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new(Instant::now(), true, 0);
        rec.span("outer", HARNESS, None, |rec| {
            rec.span("inner", "sa-sim", Some(7), |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let mut spans = Spans::default();
        spans.absorb(rec);
        let by_layer = spans.self_time_by_layer();
        assert!(by_layer["sa-sim"] >= 0.002);
        assert!(by_layer[HARNESS] < by_layer["sa-sim"]);
        assert_eq!(spans.all()[1].parent, Some(0));
        assert_eq!(spans.all()[1].job, Some(7));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(Instant::now(), false, 0);
        assert_eq!(rec.span("x", HARNESS, None, |_| 3), 3);
        assert!(rec.spans().is_empty());
    }
}
