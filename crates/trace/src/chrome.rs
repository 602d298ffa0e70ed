//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! Produces the classic JSON trace-event format: one process per core,
//! with named threads for the pipeline, retire gate, store buffer,
//! memory requests and coherence traffic. Open the output at
//! `ui.perfetto.dev` (drag & drop) or `chrome://tracing`.
//!
//! Mapping:
//!
//! * Each µop is a complete (`"X"`) slice on the *pipeline* track from
//!   dispatch to retire (or squash), with its stage timestamps in
//!   `args`. Squashed µops carry `"squashed": true`.
//! * Each gate episode is an `"X"` slice on the *gate* track from close
//!   to open; the close and open are additionally instant events whose
//!   `args.key` carry the locking/unlocking key — the §III window of
//!   vulnerability is the span between them.
//! * SB residency (retire → L1 commit) is an `"X"` slice per store on
//!   the *store-buffer* track; commits are instants with the key.
//! * Memory requests are `"X"` slices on the *memory* track; coherence
//!   messages, invalidations and evictions are instants.
//! * Occupancy samples become counter (`"C"`) events, which Perfetto
//!   renders as per-core area charts.
//!
//! Timestamps are cycles written as microseconds (1 cycle = 1 µs), the
//! conventional trick for unitless cycle-level traces.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sa_isa::CoreId;

use crate::event::{EventKind, GateOpenReason, TraceEvent};

const TID_PIPE: u32 = 1;
const TID_GATE: u32 = 2;
const TID_SB: u32 = 3;
const TID_MEM: u32 = 4;
const TID_COH: u32 = 5;

fn esc(s: &str) -> String {
    // The strings we emit are mnemonics and hex numbers; escape anyway.
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

struct Json {
    out: String,
    first: bool,
}

impl Json {
    fn new() -> Json {
        Json {
            out: String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"),
            first: true,
        }
    }

    fn push(&mut self, obj: String) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push_str(&obj);
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

fn meta_thread(json: &mut Json, pid: u16, tid: u32, name: &str) {
    json.push(format!(
        "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{\"name\":\"{}\"}}}}",
        esc(name)
    ));
}

#[derive(Debug, Clone)]
struct OpenUop {
    dispatch: u64,
    name: String,
    trace_idx: usize,
    pc: u64,
    issue: Option<u64>,
    perform: Option<(u64, bool)>,
    complete: Option<u64>,
}

fn close_uop(json: &mut Json, core: CoreId, rob: u64, u: &OpenUop, end: u64, squashed: bool) {
    let mut args = format!(
        "\"rob\":{rob},\"idx\":{},\"pc\":\"0x{:x}\"",
        u.trace_idx, u.pc
    );
    if let Some(i) = u.issue {
        let _ = write!(args, ",\"issue\":{i}");
    }
    if let Some((p, fwd)) = u.perform {
        let _ = write!(args, ",\"perform\":{p},\"forwarded\":{fwd}");
    }
    if let Some(c) = u.complete {
        let _ = write!(args, ",\"complete\":{c}");
    }
    if squashed {
        args.push_str(",\"squashed\":true");
    }
    // Zero-duration slices are dropped by some viewers; clamp to 1.
    let dur = (end - u.dispatch).max(1);
    json.push(format!(
        "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"uop\",\"pid\":{},\"tid\":{TID_PIPE},\
         \"ts\":{},\"dur\":{dur},\"args\":{{{args}}}}}",
        esc(&u.name),
        core.0,
        u.dispatch,
    ));
}

/// A host-side wall-time span for [`export_chrome_host_spans`].
///
/// Unlike [`TraceEvent`]s, which are stamped in simulated cycles, these
/// carry real nanoseconds — `sa-profile` lays its aggregated phase tree
/// out as a sequence of these and reuses this crate's Chrome writer so
/// host profiles load in Perfetto exactly like guest traces do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostSpan {
    /// Phase name (one path component, not the full `;`-joined path —
    /// nesting is conveyed by slice containment).
    pub name: String,
    /// Start offset in nanoseconds.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// How many times the phase was entered.
    pub count: u64,
}

/// Renders host wall-time spans as Chrome trace-event JSON.
///
/// All spans land on one `host / wall time` track; a span whose
/// `[ts, ts+dur]` interval is contained in another's nests under it,
/// which is how trace viewers reconstruct the call tree. Timestamps are
/// nanoseconds written as fractional microseconds (the trace-event
/// `ts` unit).
pub fn export_chrome_host_spans(spans: &[HostSpan]) -> String {
    let mut json = Json::new();
    json.push(
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\
         \"args\":{\"name\":\"host\"}}"
            .to_string(),
    );
    meta_thread(&mut json, 0, 1, "wall time");
    for s in spans {
        json.push(format!(
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"host\",\"pid\":0,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"count\":{}}}}}",
            esc(&s.name),
            s.ts_ns as f64 / 1000.0,
            (s.dur_ns.max(1)) as f64 / 1000.0,
            s.count,
        ));
    }
    json.finish()
}

/// Renders `events` as Chrome trace-event JSON.
///
/// Events must be in per-core nondecreasing cycle order — what every
/// sink in this crate records naturally.
pub fn export_chrome_trace(events: &[TraceEvent]) -> String {
    let mut json = Json::new();
    let mut named: Vec<u16> = Vec::new();
    let mut open_uops: BTreeMap<(u16, u64), OpenUop> = BTreeMap::new();
    let mut open_gate: BTreeMap<u16, (u64, Option<String>)> = BTreeMap::new();
    let mut open_sb: BTreeMap<(u16, String), (u64, u64)> = BTreeMap::new();
    let mut open_mem: BTreeMap<(u16, u64), (u64, bool, u64)> = BTreeMap::new();

    for ev in events {
        let pid = ev.core.0;
        if !named.contains(&pid) {
            named.push(pid);
            json.push(format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\
                 \"args\":{{\"name\":\"core {pid}\"}}}}"
            ));
            meta_thread(&mut json, pid, TID_PIPE, "pipeline");
            meta_thread(&mut json, pid, TID_GATE, "retire gate");
            meta_thread(&mut json, pid, TID_SB, "store buffer");
            meta_thread(&mut json, pid, TID_MEM, "memory");
            meta_thread(&mut json, pid, TID_COH, "coherence");
        }
        let ts = ev.cycle;
        match ev.kind {
            EventKind::Dispatch {
                rob,
                trace_idx,
                pc,
                uop,
            } => {
                open_uops.insert(
                    (pid, rob),
                    OpenUop {
                        dispatch: ts,
                        name: format!("{} 0x{:x}", uop.mnemonic(), pc),
                        trace_idx,
                        pc,
                        issue: None,
                        perform: None,
                        complete: None,
                    },
                );
            }
            EventKind::Issue { rob } => {
                if let Some(u) = open_uops.get_mut(&(pid, rob)) {
                    u.issue = Some(ts);
                }
            }
            EventKind::Perform { rob, forwarded, .. } => {
                if let Some(u) = open_uops.get_mut(&(pid, rob)) {
                    u.perform = Some((ts, forwarded));
                }
            }
            EventKind::Complete { rob } => {
                if let Some(u) = open_uops.get_mut(&(pid, rob)) {
                    u.complete = Some(ts);
                }
            }
            EventKind::Retire { rob, .. } => {
                if let Some(u) = open_uops.remove(&(pid, rob)) {
                    close_uop(&mut json, ev.core, rob, &u, ts, false);
                }
            }
            EventKind::Squash {
                from_rob,
                uops,
                cause,
                by,
                line,
            } => {
                let blame = match (by, line) {
                    (Some(c), Some(l)) => format!(",\"by\":\"core{c}\",\"line\":{l}"),
                    (None, Some(l)) => format!(",\"by\":\"local\",\"line\":{l}"),
                    _ => String::new(),
                };
                json.push(format!(
                    "{{\"ph\":\"i\",\"name\":\"squash {}\",\"cat\":\"squash\",\"s\":\"t\",\
                     \"pid\":{pid},\"tid\":{TID_PIPE},\"ts\":{ts},\
                     \"args\":{{\"from_rob\":{from_rob},\"uops\":{uops}{blame}}}}}",
                    cause.label()
                ));
                let squashed: Vec<(u16, u64)> = open_uops
                    .range((pid, from_rob)..(pid, u64::MAX))
                    .map(|(k, _)| *k)
                    .collect();
                for k in squashed {
                    let u = open_uops.remove(&k).expect("key from range");
                    close_uop(&mut json, ev.core, k.1, &u, ts, true);
                }
            }
            EventKind::GateStall { rob } => {
                json.push(format!(
                    "{{\"ph\":\"i\",\"name\":\"gate stall\",\"cat\":\"gate\",\"s\":\"t\",\
                     \"pid\":{pid},\"tid\":{TID_GATE},\"ts\":{ts},\"args\":{{\"rob\":{rob}}}}}"
                ));
            }
            EventKind::GateClose { rob, key } => {
                json.push(format!(
                    "{{\"ph\":\"i\",\"name\":\"gate close\",\"cat\":\"gate\",\"s\":\"t\",\
                     \"pid\":{pid},\"tid\":{TID_GATE},\"ts\":{ts},\
                     \"args\":{{\"key\":\"{key}\",\"rob\":{rob}}}}}"
                ));
                open_gate.entry(pid).or_insert((ts, Some(key.to_string())));
            }
            EventKind::GateOpen { reason } => {
                let (reason_s, key_s) = match reason {
                    GateOpenReason::KeyMatch(k) => ("key-match", Some(k.to_string())),
                    GateOpenReason::SbEmpty => ("sb-empty", None),
                    GateOpenReason::Squash => ("squash", None),
                };
                let key_arg = key_s.map_or(String::new(), |k| format!(",\"key\":\"{k}\""));
                json.push(format!(
                    "{{\"ph\":\"i\",\"name\":\"gate open\",\"cat\":\"gate\",\"s\":\"t\",\
                     \"pid\":{pid},\"tid\":{TID_GATE},\"ts\":{ts},\
                     \"args\":{{\"reason\":\"{reason_s}\"{key_arg}}}}}"
                ));
                if let Some((start, lock_key)) = open_gate.remove(&pid) {
                    let lock = lock_key.unwrap_or_default();
                    json.push(format!(
                        "{{\"ph\":\"X\",\"name\":\"gate closed [{lock}]\",\"cat\":\"gate\",\
                         \"pid\":{pid},\"tid\":{TID_GATE},\"ts\":{start},\"dur\":{},\
                         \"args\":{{\"opened_by\":\"{reason_s}\"}}}}",
                        (ts - start).max(1)
                    ));
                }
            }
            EventKind::SbEnter { rob, key, addr } => {
                open_sb.insert((pid, key.to_string()), (ts, addr));
                let _ = rob;
            }
            EventKind::SbCommit { key, addr } => {
                json.push(format!(
                    "{{\"ph\":\"i\",\"name\":\"sb commit\",\"cat\":\"sb\",\"s\":\"t\",\
                     \"pid\":{pid},\"tid\":{TID_SB},\"ts\":{ts},\
                     \"args\":{{\"key\":\"{key}\",\"addr\":\"0x{addr:x}\"}}}}"
                ));
                if let Some((start, a)) = open_sb.remove(&(pid, key.to_string())) {
                    json.push(format!(
                        "{{\"ph\":\"X\",\"name\":\"SB 0x{a:x} [{key}]\",\"cat\":\"sb\",\
                         \"pid\":{pid},\"tid\":{TID_SB},\"ts\":{start},\"dur\":{}}}",
                        (ts - start).max(1)
                    ));
                }
            }
            EventKind::MemReq { req, line, rfo } => {
                open_mem.insert((pid, req), (ts, rfo, line));
            }
            EventKind::MemResp { req, rfo } => {
                if let Some((start, _, line)) = open_mem.remove(&(pid, req)) {
                    let name = if rfo { "rfo" } else { "load" };
                    json.push(format!(
                        "{{\"ph\":\"X\",\"name\":\"{name} 0x{line:x}\",\"cat\":\"mem\",\
                         \"pid\":{pid},\"tid\":{TID_MEM},\"ts\":{start},\"dur\":{},\
                         \"args\":{{\"req\":{req}}}}}",
                        (ts - start).max(1)
                    ));
                }
            }
            EventKind::Invalidation { line } => {
                json.push(format!(
                    "{{\"ph\":\"i\",\"name\":\"invalidation\",\"cat\":\"coh\",\"s\":\"t\",\
                     \"pid\":{pid},\"tid\":{TID_COH},\"ts\":{ts},\
                     \"args\":{{\"line\":\"0x{line:x}\"}}}}"
                ));
            }
            EventKind::Eviction { line } => {
                json.push(format!(
                    "{{\"ph\":\"i\",\"name\":\"eviction\",\"cat\":\"coh\",\"s\":\"t\",\
                     \"pid\":{pid},\"tid\":{TID_COH},\"ts\":{ts},\
                     \"args\":{{\"line\":\"0x{line:x}\"}}}}"
                ));
            }
            EventKind::CohMsg {
                from,
                to,
                line,
                msg,
            } => {
                json.push(format!(
                    "{{\"ph\":\"i\",\"name\":\"{msg} {from}>{to}\",\"cat\":\"coh\",\"s\":\"t\",\
                     \"pid\":{pid},\"tid\":{TID_COH},\"ts\":{ts},\
                     \"args\":{{\"line\":\"0x{line:x}\"}}}}"
                ));
            }
            EventKind::Occupancy { rob, lq, sq } => {
                json.push(format!(
                    "{{\"ph\":\"C\",\"name\":\"occupancy\",\"pid\":{pid},\"ts\":{ts},\
                     \"args\":{{\"rob\":{rob},\"lq\":{lq},\"sq\":{sq}}}}}"
                ));
            }
        }
    }

    // Close whatever is still in flight at the last stamped cycle.
    let end = events.last().map_or(0, |e| e.cycle) + 1;
    let leftover: Vec<(u16, u64)> = open_uops.keys().copied().collect();
    for k in leftover {
        let u = open_uops.remove(&k).expect("listed key");
        close_uop(&mut json, CoreId(k.0), k.1, &u, end, false);
    }
    json.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{GateKey, SquashKind, UopKind};

    fn ev(core: u16, cycle: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            cycle,
            core: CoreId(core),
            kind,
        }
    }

    #[test]
    fn export_pairs_dispatch_with_retire() {
        let events = vec![
            ev(
                0,
                5,
                EventKind::Dispatch {
                    rob: 1,
                    trace_idx: 0,
                    pc: 0x100,
                    uop: UopKind::Load,
                },
            ),
            ev(0, 7, EventKind::Issue { rob: 1 }),
            ev(
                0,
                9,
                EventKind::Perform {
                    rob: 1,
                    addr: 0x1000,
                    forwarded: true,
                },
            ),
            ev(0, 10, EventKind::Complete { rob: 1 }),
            ev(
                0,
                12,
                EventKind::Retire {
                    rob: 1,
                    uop: UopKind::Load,
                },
            ),
        ];
        let out = export_chrome_trace(&events);
        assert!(out.contains("\"name\":\"ld 0x100\""));
        assert!(out.contains("\"ts\":5,\"dur\":7"));
        assert!(out.contains("\"forwarded\":true"));
        // Valid JSON shape (no trailing comma, balanced braces).
        assert!(out.starts_with('{') && out.trim_end().ends_with('}'));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }

    #[test]
    fn gate_episode_spans_close_to_open() {
        let key = GateKey {
            slot: 3,
            sorting: false,
        };
        let events = vec![
            ev(0, 20, EventKind::GateClose { rob: 9, key }),
            ev(
                0,
                95,
                EventKind::GateOpen {
                    reason: GateOpenReason::KeyMatch(key),
                },
            ),
        ];
        let out = export_chrome_trace(&events);
        assert!(out.contains("\"name\":\"gate close\""));
        assert!(out.contains("\"key\":\"k3.0\""));
        assert!(out.contains("gate closed [k3.0]"));
        assert!(out.contains("\"ts\":20,\"dur\":75"));
    }

    #[test]
    fn squash_closes_only_younger_uops() {
        let events = vec![
            ev(
                0,
                1,
                EventKind::Dispatch {
                    rob: 1,
                    trace_idx: 0,
                    pc: 0x10,
                    uop: UopKind::Alu,
                },
            ),
            ev(
                0,
                1,
                EventKind::Dispatch {
                    rob: 2,
                    trace_idx: 1,
                    pc: 0x18,
                    uop: UopKind::Load,
                },
            ),
            ev(
                0,
                9,
                EventKind::Squash {
                    from_rob: 2,
                    uops: 1,
                    cause: SquashKind::MemOrder,
                    by: None,
                    line: None,
                },
            ),
            ev(
                0,
                15,
                EventKind::Retire {
                    rob: 1,
                    uop: UopKind::Alu,
                },
            ),
        ];
        let out = export_chrome_trace(&events);
        assert!(out.contains("\"squashed\":true"));
        assert!(out.contains("squash mem-order"));
        // rob 1 retired normally (its slice has no squashed flag).
        let rob1 = out
            .lines()
            .find(|l| l.contains("\"rob\":1,"))
            .expect("rob 1 slice");
        assert!(!rob1.contains("squashed"));
    }
}
