//! The core-side memory interface and a scripted implementation for unit
//! tests.

use sa_coherence::{MemReqId, Notice, NoticeKind};
use sa_isa::{Addr, CoreId, Cycle, Line};

/// What one core sees of the memory hierarchy.
///
/// `sa-sim` implements this for the real coherence system; tests use
/// [`SimpleMem`].
pub trait LoadStorePort {
    /// Issues a demand load; `None` when the memory system is saturated
    /// (retry next cycle).
    fn issue_load(&mut self, line: Line, pc: u64, addr: Addr, now: Cycle) -> Option<MemReqId>;
    /// Issues an ownership (RFO/upgrade) request; `None` when saturated.
    fn issue_ownership(&mut self, line: Line, now: Cycle) -> Option<MemReqId>;
    /// `true` when this core's private hierarchy owns `line`.
    fn has_ownership(&self, line: Line) -> bool;
    /// Records the store-commit L1 write into an owned line.
    fn mark_dirty(&mut self, line: Line);
    /// L1 hit latency (the store-commit write latency).
    fn l1_latency(&self) -> u64;
    /// An opaque version stamp over this core's memory-side state: every
    /// change that could alter the outcome of an issue attempt bumps it.
    /// While the stamp is unchanged after a rejected [`issue_load`] or
    /// [`issue_ownership`], a retry is guaranteed to be rejected again,
    /// so the core may call [`note_rejected_issues`] instead of re-running
    /// the full issue path. An unchanged stamp likewise pins the result
    /// of [`has_ownership`] probes (ownership can only change through a
    /// stamped mutation). `None` means the port does not track one (the
    /// memos are disabled and every retry must issue for real).
    ///
    /// [`issue_load`]: LoadStorePort::issue_load
    /// [`issue_ownership`]: LoadStorePort::issue_ownership
    /// [`has_ownership`]: LoadStorePort::has_ownership
    /// [`note_rejected_issues`]: LoadStorePort::note_rejected_issues
    fn reject_epoch(&self) -> Option<u64> {
        None
    }
    /// Applies the side effects of `n` load or ownership issues that are
    /// known (via an unchanged [`reject_epoch`]) to be rejected — the
    /// request ids and the reject counter move exactly as `n` real
    /// rejected issues, without the cache/MSHR probes. Load and
    /// ownership rejections have identical side effects, so one memo
    /// serves both; consecutive rejections are order-insensitive among
    /// themselves, so a caller may batch them as long as the batch sits
    /// at the same sequence position the real issues would.
    ///
    /// [`reject_epoch`]: LoadStorePort::reject_epoch
    fn note_rejected_issues(&mut self, n: u64) {
        let _ = n;
        unreachable!("note_rejected_issues without a reject_epoch");
    }
}

/// A deterministic fixed-latency memory for tests: every load completes
/// after `load_latency`, every ownership request after `own_latency`, and
/// the test harness can inject invalidations/evictions.
#[derive(Debug)]
pub struct SimpleMem {
    /// Load completion latency.
    pub load_latency: u64,
    /// Ownership completion latency.
    pub own_latency: u64,
    owned: std::collections::HashSet<Line>,
    pending: Vec<Notice>,
    /// Ownership becomes effective only when its grant notice is taken.
    pending_grants: Vec<(Cycle, Line)>,
    next_id: u64,
}

impl SimpleMem {
    /// Creates a memory with the given latencies.
    pub fn new(load_latency: u64, own_latency: u64) -> SimpleMem {
        SimpleMem {
            load_latency,
            own_latency,
            owned: std::collections::HashSet::new(),
            pending: Vec::new(),
            pending_grants: Vec::new(),
            next_id: 0,
        }
    }

    /// Injects an invalidation notice at `at` (and revokes ownership).
    pub fn inject_invalidation(&mut self, line: Line, at: Cycle) {
        self.pending_grants.retain(|&(_, l)| l != line);
        self.owned.remove(&line);
        self.pending.push(Notice {
            at,
            kind: NoticeKind::Invalidated {
                line,
                // Test port: a single fixed remote writer stands in for
                // whichever core's GetM would have caused this.
                by: CoreId(1),
            },
        });
    }

    /// Injects an eviction notice at `at` (and revokes ownership).
    pub fn inject_eviction(&mut self, line: Line, at: Cycle) {
        self.pending_grants.retain(|&(_, l)| l != line);
        self.owned.remove(&line);
        self.pending.push(Notice {
            at,
            kind: NoticeKind::Evicted { line },
        });
    }

    /// Takes the notices due at or before `now`, in timestamp order, and
    /// makes due ownership grants effective.
    pub fn take_due(&mut self, now: Cycle) -> Vec<Notice> {
        for &(at, line) in &self.pending_grants {
            if at <= now {
                self.owned.insert(line);
            }
        }
        self.pending_grants.retain(|&(at, _)| at > now);
        let mut due: Vec<Notice> = self
            .pending
            .iter()
            .filter(|n| n.at <= now)
            .copied()
            .collect();
        self.pending.retain(|n| n.at > now);
        due.sort_by_key(|n| n.at);
        due
    }
}

impl LoadStorePort for SimpleMem {
    fn issue_load(&mut self, _line: Line, _pc: u64, _addr: Addr, now: Cycle) -> Option<MemReqId> {
        let id = MemReqId(self.next_id);
        self.next_id += 1;
        self.pending.push(Notice {
            at: now + self.load_latency,
            kind: NoticeKind::LoadDone { id },
        });
        Some(id)
    }

    fn issue_ownership(&mut self, line: Line, now: Cycle) -> Option<MemReqId> {
        let id = MemReqId(self.next_id);
        self.next_id += 1;
        let at = now + self.own_latency;
        self.pending_grants.push((at, line));
        self.pending.push(Notice {
            at,
            kind: NoticeKind::OwnershipDone { id },
        });
        Some(id)
    }

    fn has_ownership(&self, line: Line) -> bool {
        self.owned.contains(&line)
    }

    fn mark_dirty(&mut self, _line: Line) {}

    fn l1_latency(&self) -> u64 {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_complete_after_latency() {
        let mut m = SimpleMem::new(10, 20);
        let id = m.issue_load(Line::from_raw(1), 0, 64, 5).unwrap();
        assert!(m.take_due(14).is_empty());
        let due = m.take_due(15);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].kind, NoticeKind::LoadDone { id });
    }

    #[test]
    fn ownership_effective_only_at_grant_time() {
        let mut m = SimpleMem::new(10, 20);
        let l = Line::from_raw(2);
        m.issue_ownership(l, 0).unwrap();
        assert!(!m.has_ownership(l), "RFO in flight, not owned yet");
        let due = m.take_due(20);
        assert!(matches!(due[0].kind, NoticeKind::OwnershipDone { .. }));
        assert!(m.has_ownership(l), "owned once the grant arrives");
    }

    #[test]
    fn invalidation_revokes_ownership() {
        let mut m = SimpleMem::new(10, 20);
        let l = Line::from_raw(2);
        m.issue_ownership(l, 0).unwrap();
        let _ = m.take_due(20);
        assert!(m.has_ownership(l));
        m.inject_invalidation(l, 30);
        assert!(!m.has_ownership(l));
        let due = m.take_due(30);
        assert!(matches!(due[0].kind, NoticeKind::Invalidated { .. }));
    }
}
