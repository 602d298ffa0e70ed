//! sa-scalescope NoC observability: per-link traffic, message-latency
//! distribution, directory-bank occupancy and an invalidation-storm
//! detector.
//!
//! Everything in this module is *sim-side*: every counter is a pure
//! function of the bit-exact simulation (message order, cycle stamps),
//! never of host time or thread scheduling. That is what lets the
//! parallel engine merge per-shard [`NocStats`] partials into exactly
//! the snapshot the serial engine would have produced — each (src, dst)
//! channel is driven only by its source node, each bank is owned by
//! exactly one shard, and the per-shard local event orders match the
//! serial order (the PR 9 bit-exactness contract). `tests/scalescope.rs`
//! asserts this determinism across {1, 2, 4} threads.
//!
//! None of these counters feed back into timing: they are written on
//! paths the protocol already takes and read only at end of run, so the
//! 0.00-drift contract (`tests/pinned_stats.rs`) is preserved by
//! construction.

use sa_isa::{Cycle, FastMap, Line};
use sa_metrics::{JsonWriter, Log2Hist, Registry};

use crate::msg::NodeId;

/// Cycles per invalidation-storm accounting interval. Fan-out to the
/// same line within one interval accumulates into one storm record;
/// a new interval opens a fresh window.
pub const STORM_INTERVAL: Cycle = 256;

/// Minimum per-interval invalidation fan-out for a line to be recorded
/// as a storm at all (a single 2-sharer upgrade is normal traffic).
pub const STORM_MIN_FANOUT: u64 = 4;

/// Bound on retained storm records (per bank and globally after merge).
pub const STORM_TOP_N: usize = 32;

/// One entry of the heatmap-ready link-utilization matrix. `src`/`dst`
/// are linear node indices: cores first (`0..n_cores`), then directory
/// banks (`n_cores..n_cores + n_banks`) — the same placement the mesh
/// topology uses for hop counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkRecord {
    /// Linear index of the injecting node.
    pub src: u32,
    /// Linear index of the receiving node.
    pub dst: u32,
    /// Flits injected on this channel.
    pub flits: u64,
    /// Messages injected on this channel.
    pub msgs: u64,
}

/// Scalescope-side counters for one directory bank. These live beside
/// (not inside) [`crate::dir::BankStats`] so the per-run [`crate::MemStats`]
/// snapshot — and therefore `Report` equality in the equivalence tests —
/// is untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankNoc {
    /// Blocking transactions opened (lines made busy).
    pub txns: u64,
    /// Σ (close − open) cycles over completed transactions: the bank's
    /// busy-line occupancy integral.
    pub txn_cycles: u64,
    /// Requests deferred behind a busy line (the bank's reject/retry
    /// pressure; mirrors `BankStats::deferred`).
    pub rejects: u64,
    /// Multi-sharer invalidation broadcasts issued.
    pub inv_bursts: u64,
    /// Largest single-broadcast invalidation fan-out seen.
    pub max_fanout: u64,
}

/// One invalidation storm: a line that collected `fanout` invalidations
/// within one [`STORM_INTERVAL`]-cycle window at a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormRecord {
    /// Directory bank that issued the invalidations.
    pub bank: u16,
    /// The contended line.
    pub line: u64,
    /// Interval index (`cycle / STORM_INTERVAL`) of the window.
    pub interval: u64,
    /// Invalidations sent for the line within the window.
    pub fanout: u64,
}

/// Total order used everywhere a storm list is ranked or truncated:
/// hotter first, then (bank, line, interval) as a deterministic
/// tie-break. Keeping one order makes per-bank truncation, per-shard
/// truncation and the global merge agree on what the top-N is.
fn storm_order(a: &StormRecord, b: &StormRecord) -> std::cmp::Ordering {
    b.fanout
        .cmp(&a.fanout)
        .then(a.bank.cmp(&b.bank))
        .then(a.line.cmp(&b.line))
        .then(a.interval.cmp(&b.interval))
}

fn rank_and_truncate(storms: &mut Vec<StormRecord>, dropped: &mut u64) {
    storms.sort_by(storm_order);
    if storms.len() > STORM_TOP_N {
        *dropped += (storms.len() - STORM_TOP_N) as u64;
        storms.truncate(STORM_TOP_N);
    }
}

/// Per-bank scalescope instrument, owned by `DirBank`. Hooks are called
/// from the protocol paths (`txn_open`/`txn_close` around the `busy`
/// map, `reject` on deferral, `invalidation` on multi-sharer GetM) and
/// never alter the actions the bank returns.
#[derive(Debug, Clone, Default)]
pub struct BankScope {
    bank: u16,
    counters: BankNoc,
    open: FastMap<Line, Cycle>,
    window_interval: u64,
    window: FastMap<Line, u64>,
    storms: Vec<StormRecord>,
    storms_dropped: u64,
}

impl BankScope {
    /// A scope for bank `bank`.
    pub fn new(bank: u16) -> BankScope {
        BankScope {
            bank,
            ..BankScope::default()
        }
    }

    /// The line became busy at `now`.
    pub fn txn_open(&mut self, line: Line, now: Cycle) {
        self.counters.txns += 1;
        self.open.insert(line, now);
    }

    /// The line's transaction completed at `now`.
    pub fn txn_close(&mut self, line: Line, now: Cycle) {
        if let Some(start) = self.open.remove(&line) {
            self.counters.txn_cycles += now.saturating_sub(start);
        }
    }

    /// A request was deferred behind a busy line.
    pub fn reject(&mut self) {
        self.counters.rejects += 1;
    }

    /// The bank broadcast `fanout` invalidations for `line` at `now`.
    pub fn invalidation(&mut self, line: Line, fanout: u64, now: Cycle) {
        self.counters.inv_bursts += 1;
        self.counters.max_fanout = self.counters.max_fanout.max(fanout);
        let interval = now / STORM_INTERVAL;
        if interval != self.window_interval {
            self.roll_window();
            self.window_interval = interval;
        }
        *self.window.entry(line).or_insert(0) += fanout;
    }

    /// Flush the current interval window into the retained storm list.
    fn roll_window(&mut self) {
        if self.window.is_empty() {
            return;
        }
        let interval = self.window_interval;
        let bank = self.bank;
        self.storms.extend(
            self.window
                .drain()
                .filter(|(_, fanout)| *fanout >= STORM_MIN_FANOUT)
                .map(|(line, fanout)| StormRecord {
                    bank,
                    line: line.raw(),
                    interval,
                    fanout,
                }),
        );
        rank_and_truncate(&mut self.storms, &mut self.storms_dropped);
    }

    /// Aggregate counters so far.
    pub fn counters(&self) -> BankNoc {
        self.counters
    }

    /// Retained storms including the still-open interval window, ranked
    /// by [`storm_order`] and truncated to [`STORM_TOP_N`]. Read-only:
    /// callable mid-run without perturbing the detector.
    pub fn storm_snapshot(&self) -> (Vec<StormRecord>, u64) {
        let mut storms = self.storms.clone();
        let mut dropped = self.storms_dropped;
        storms.extend(
            self.window
                .iter()
                .filter(|(_, fanout)| **fanout >= STORM_MIN_FANOUT)
                .map(|(line, fanout)| StormRecord {
                    bank: self.bank,
                    line: line.raw(),
                    interval: self.window_interval,
                    fanout: *fanout,
                }),
        );
        rank_and_truncate(&mut storms, &mut dropped);
        (storms, dropped)
    }
}

/// End-of-run NoC snapshot: the link-utilization matrix, the
/// message-latency distribution, per-bank occupancy counters and the
/// top invalidation storms. Produced by `MemorySystem::noc_stats` (one
/// partial per shard under the parallel engine) and combined with
/// [`NocStats::merge`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NocStats {
    /// Cores in the node placement (banks follow at `n_cores..`).
    pub n_cores: usize,
    /// Link matrix entries, sorted by (src, dst); only used links appear.
    pub links: Vec<LinkRecord>,
    /// Injection-to-delivery latency in cycles, per message.
    pub latency: Log2Hist,
    /// Per-bank counters, indexed by bank id (zeros for banks another
    /// shard owns — each bank is owned by exactly one partial).
    pub banks: Vec<BankNoc>,
    /// Top invalidation storms, ranked hottest-first.
    pub storms: Vec<StormRecord>,
    /// Storm records beyond the retained top-N.
    pub storms_dropped: u64,
}

impl NocStats {
    /// Linear node index under the cores-then-banks placement.
    pub fn node_index(node: NodeId, n_cores: usize) -> u32 {
        (match node {
            NodeId::Core(c) => c.index(),
            NodeId::Bank(b) => n_cores + b as usize,
        }) as u32
    }

    /// Total flits over all links (must equal `MemStats::flits_sent`).
    pub fn total_flits(&self) -> u64 {
        self.links.iter().map(|l| l.flits).sum()
    }

    /// Total messages over all links (must equal `MemStats::msgs_sent`).
    pub fn total_msgs(&self) -> u64 {
        self.links.iter().map(|l| l.msgs).sum()
    }

    /// Fold another partial in. Links are disjoint across shards (a
    /// channel is driven only by its source node, which one shard owns),
    /// so concatenation plus a sort reproduces the serial matrix; bank
    /// slots are zero except at the owner, so element-wise addition
    /// takes the owned slot; histograms bucket-sum; storm lists re-rank
    /// under the same total order, so merging per-shard truncations
    /// equals truncating the serial list.
    pub fn merge(&mut self, other: &NocStats) {
        self.n_cores = self.n_cores.max(other.n_cores);
        self.links.extend_from_slice(&other.links);
        self.links.sort_by_key(|l| (l.src, l.dst));
        self.latency.merge(&other.latency);
        if self.banks.len() < other.banks.len() {
            self.banks.resize(other.banks.len(), BankNoc::default());
        }
        for (slot, o) in self.banks.iter_mut().zip(other.banks.iter()) {
            slot.txns += o.txns;
            slot.txn_cycles += o.txn_cycles;
            slot.rejects += o.rejects;
            slot.inv_bursts += o.inv_bursts;
            slot.max_fanout = slot.max_fanout.max(o.max_fanout);
        }
        self.storms.extend_from_slice(&other.storms);
        self.storms_dropped += other.storms_dropped;
        rank_and_truncate(&mut self.storms, &mut self.storms_dropped);
    }

    /// Re-ranks and truncates the storm list under the global bound —
    /// called after concatenating per-bank (or per-shard) storm lists.
    pub fn rank_storms(&mut self) {
        rank_and_truncate(&mut self.storms, &mut self.storms_dropped);
    }

    /// Registers the `sa_noc_*` Prometheus families. Per-link rows are
    /// capped to the hottest [`STORM_TOP_N`] links (the full matrix goes
    /// to JSON); totals and the latency histogram are exact.
    pub fn register(&self, reg: &mut Registry) {
        reg.counter(
            "sa_noc_flits_total",
            "total flits injected into the interconnect",
            &[],
            self.total_flits(),
        );
        reg.counter(
            "sa_noc_msgs_total",
            "total messages injected into the interconnect",
            &[],
            self.total_msgs(),
        );
        reg.counter(
            "sa_noc_links_used",
            "distinct (src,dst) channels that carried traffic",
            &[],
            self.links.len() as u64,
        );
        let mut hot: Vec<&LinkRecord> = self.links.iter().collect();
        hot.sort_by(|a, b| {
            b.flits
                .cmp(&a.flits)
                .then((a.src, a.dst).cmp(&(b.src, b.dst)))
        });
        for l in hot.into_iter().take(STORM_TOP_N) {
            reg.counter(
                "sa_noc_link_flits_total",
                "flits injected per (src,dst) channel (hottest links)",
                &[("src", &l.src.to_string()), ("dst", &l.dst.to_string())],
                l.flits,
            );
        }
        reg.log2_histogram(
            "sa_noc_msg_latency_cycles",
            "injection-to-delivery latency per message",
            &[],
            &self.latency,
        );
        for (i, b) in self.banks.iter().enumerate() {
            let bank = i.to_string();
            reg.counter(
                "sa_noc_bank_txn_cycles_total",
                "busy-line occupancy integral per directory bank",
                &[("bank", &bank)],
                b.txn_cycles,
            );
            reg.counter(
                "sa_noc_bank_rejects_total",
                "requests deferred behind a busy line per bank",
                &[("bank", &bank)],
                b.rejects,
            );
        }
        for s in &self.storms {
            reg.gauge(
                "sa_noc_storm_fanout",
                "per-interval invalidation fan-out of the hottest lines",
                &[
                    ("bank", &s.bank.to_string()),
                    ("line", &format!("{:#x}", s.line)),
                    ("interval", &s.interval.to_string()),
                ],
                s.fanout as f64,
            );
        }
    }

    /// Writes the snapshot as a JSON object value (caller supplies the
    /// surrounding key) — the `noc` section of the
    /// `sa-bench-scalescope-v1` schema.
    pub fn write_json(&self, j: &mut JsonWriter) {
        let (p50, p95, p99) = self.latency.p50_p95_p99();
        j.begin_object()
            .field_uint("n_cores", self.n_cores as u64)
            .field_uint("total_flits", self.total_flits())
            .field_uint("total_msgs", self.total_msgs())
            .field_uint("links_used", self.links.len() as u64)
            .field_float("latency_p50", p50)
            .field_float("latency_p95", p95)
            .field_float("latency_p99", p99)
            .key("links")
            .begin_array();
        for l in &self.links {
            j.begin_object()
                .field_uint("src", l.src as u64)
                .field_uint("dst", l.dst as u64)
                .field_uint("flits", l.flits)
                .field_uint("msgs", l.msgs)
                .end_object();
        }
        j.end_array().key("banks").begin_array();
        for b in &self.banks {
            j.begin_object()
                .field_uint("txns", b.txns)
                .field_uint("txn_cycles", b.txn_cycles)
                .field_uint("rejects", b.rejects)
                .field_uint("inv_bursts", b.inv_bursts)
                .field_uint("max_fanout", b.max_fanout)
                .end_object();
        }
        j.end_array().key("storms").begin_array();
        for s in &self.storms {
            j.begin_object()
                .field_uint("bank", s.bank as u64)
                .field_uint("line", s.line)
                .field_uint("interval", s.interval)
                .field_uint("fanout", s.fanout)
                .end_object();
        }
        j.end_array()
            .field_uint("storms_dropped", self.storms_dropped)
            .end_object();
    }

    /// Largest storm fan-out retained (0 when no storms fired).
    pub fn max_storm_fanout(&self) -> u64 {
        self.storms.first().map(|s| s.fanout).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ln(i: u64) -> Line {
        Line::from_raw(i)
    }

    #[test]
    fn bank_scope_occupancy_integral() {
        let mut s = BankScope::new(3);
        s.txn_open(ln(1), 100);
        s.txn_open(ln(2), 110);
        s.txn_close(ln(1), 150);
        s.txn_close(ln(2), 115);
        s.reject();
        let c = s.counters();
        assert_eq!(c.txns, 2);
        assert_eq!(c.txn_cycles, 50 + 5);
        assert_eq!(c.rejects, 1);
    }

    #[test]
    fn storm_detector_windows_and_ranks() {
        let mut s = BankScope::new(0);
        // Interval 0: line 7 collects fan-out 3 + 5 = 8; line 9 only 2
        // (below STORM_MIN_FANOUT).
        s.invalidation(ln(7), 3, 10);
        s.invalidation(ln(9), 2, 20);
        s.invalidation(ln(7), 5, 30);
        // Interval 1: line 7 again, smaller.
        s.invalidation(ln(7), 4, STORM_INTERVAL + 1);
        let (storms, dropped) = s.storm_snapshot();
        assert_eq!(dropped, 0);
        assert_eq!(
            storms,
            vec![
                StormRecord {
                    bank: 0,
                    line: 7,
                    interval: 0,
                    fanout: 8
                },
                StormRecord {
                    bank: 0,
                    line: 7,
                    interval: 1,
                    fanout: 4
                },
            ]
        );
        let c = s.counters();
        assert_eq!(c.inv_bursts, 4);
        assert_eq!(c.max_fanout, 5);
    }

    #[test]
    fn merge_is_disjoint_union() {
        let mut a = NocStats {
            n_cores: 4,
            links: vec![LinkRecord {
                src: 0,
                dst: 4,
                flits: 10,
                msgs: 2,
            }],
            banks: vec![
                BankNoc {
                    txns: 1,
                    txn_cycles: 5,
                    ..BankNoc::default()
                },
                BankNoc::default(),
            ],
            ..NocStats::default()
        };
        a.latency.observe(7);
        let mut b = NocStats {
            n_cores: 4,
            links: vec![LinkRecord {
                src: 1,
                dst: 4,
                flits: 3,
                msgs: 1,
            }],
            banks: vec![
                BankNoc::default(),
                BankNoc {
                    rejects: 9,
                    ..BankNoc::default()
                },
            ],
            ..NocStats::default()
        };
        b.latency.observe(11);
        a.merge(&b);
        assert_eq!(a.total_flits(), 13);
        assert_eq!(a.total_msgs(), 3);
        assert_eq!(a.links.len(), 2);
        assert_eq!(a.banks[0].txn_cycles, 5);
        assert_eq!(a.banks[1].rejects, 9);
        assert_eq!(a.latency.count(), 2);
    }

    #[test]
    fn storm_truncation_is_consistent_under_split_merge() {
        // Truncating two halves then merging equals truncating the whole:
        // the property the parallel merge relies on.
        let rec = |line, fanout| StormRecord {
            bank: 0,
            line,
            interval: 0,
            fanout,
        };
        let all: Vec<StormRecord> = (0..100).map(|i| rec(i, 1000 - i)).collect();
        let mut whole = NocStats {
            storms: all.clone(),
            ..NocStats::default()
        };
        let mut d = 0;
        rank_and_truncate(&mut whole.storms, &mut d);

        let mut left = NocStats {
            storms: all[..50].to_vec(),
            ..NocStats::default()
        };
        rank_and_truncate(&mut left.storms, &mut left.storms_dropped);
        let mut right = NocStats {
            storms: all[50..].to_vec(),
            ..NocStats::default()
        };
        rank_and_truncate(&mut right.storms, &mut right.storms_dropped);
        left.merge(&right);
        assert_eq!(left.storms, whole.storms);
    }
}
