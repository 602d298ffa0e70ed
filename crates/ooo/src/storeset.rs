//! StoreSet memory-dependence predictor (Chrysos & Emer, ISCA 1998),
//! listed in the paper's Table III.
//!
//! Two structures: the Store Set ID Table (SSIT), indexed by instruction
//! PC, and the Last Fetched Store Table (LFST), indexed by store-set ID.
//! A load whose PC maps to a store set must wait for older in-flight
//! stores of the same set to resolve; everything else may speculate past
//! unresolved store addresses. Violations train the tables by merging the
//! offending store and load into one set.
//!
//! Both tables are allocated by the first training. Until then every
//! PC maps to no set, exactly as in a freshly filled SSIT, so most
//! litmus-scale runs never allocate them.

const SSIT_SIZE: usize = 1024;
const LFST_SIZE: usize = 128;

/// A store-set identifier.
pub type Ssid = u16;

/// The predictor.
#[derive(Debug)]
pub struct StoreSet {
    /// Empty, like `lfst_inflight`, until the first training.
    ssit: Vec<Option<Ssid>>,
    /// LFST: per-set count of in-flight (unresolved) stores.
    lfst_inflight: Vec<u32>,
    next_ssid: Ssid,
    enabled: bool,
    violations: u64,
}

impl StoreSet {
    /// Creates a predictor; when `enabled` is false all loads speculate
    /// freely (no waiting) and training is a no-op.
    pub fn new(enabled: bool) -> StoreSet {
        StoreSet {
            ssit: Vec::new(),
            lfst_inflight: Vec::new(),
            next_ssid: 0,
            enabled,
            violations: 0,
        }
    }

    fn idx(pc: u64) -> usize {
        ((pc >> 2) as usize) & (SSIT_SIZE - 1)
    }

    /// Store set of the instruction at `pc`, if any.
    pub fn set_of(&self, pc: u64) -> Option<Ssid> {
        if self.enabled {
            self.ssit.get(Self::idx(pc)).copied().flatten()
        } else {
            None
        }
    }

    /// Called when a store with an assigned set dispatches with its
    /// address unresolved.
    pub fn store_dispatched(&mut self, pc: u64) {
        if let Some(s) = self.set_of(pc) {
            self.lfst_inflight[s as usize % LFST_SIZE] += 1;
        }
    }

    /// Called when that store's address resolves (or the store squashes).
    pub fn store_resolved(&mut self, pc: u64) {
        if let Some(s) = self.set_of(pc) {
            let c = &mut self.lfst_inflight[s as usize % LFST_SIZE];
            *c = c.saturating_sub(1);
        }
    }

    /// `true` when the load at `load_pc` must wait because a store of its
    /// set is in flight with an unresolved address.
    pub fn load_must_wait(&self, load_pc: u64) -> bool {
        match self.set_of(load_pc) {
            Some(s) => self.lfst_inflight[s as usize % LFST_SIZE] > 0,
            None => false,
        }
    }

    /// Trains on a memory-order violation between `store_pc` and
    /// `load_pc`: both instructions join one store set.
    pub fn train_violation(&mut self, store_pc: u64, load_pc: u64) {
        if !self.enabled {
            return;
        }
        self.violations += 1;
        if self.ssit.is_empty() {
            self.ssit = vec![None; SSIT_SIZE];
            self.lfst_inflight = vec![0; LFST_SIZE];
        }
        let si = Self::idx(store_pc);
        let li = Self::idx(load_pc);
        match (self.ssit[si], self.ssit[li]) {
            (Some(s), _) => self.ssit[li] = Some(s),
            (None, Some(l)) => self.ssit[si] = Some(l),
            (None, None) => {
                let id = self.next_ssid;
                self.next_ssid = self.next_ssid.wrapping_add(1);
                self.ssit[si] = Some(id);
                self.ssit[li] = Some(id);
            }
        }
    }

    /// Violations trained so far.
    pub fn violations(&self) -> u64 {
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_loads_speculate() {
        let s = StoreSet::new(true);
        assert!(!s.load_must_wait(0x100));
    }

    #[test]
    fn violation_creates_dependence() {
        let mut s = StoreSet::new(true);
        s.train_violation(0x200, 0x100);
        assert_eq!(s.set_of(0x200), s.set_of(0x100));
        assert!(s.set_of(0x100).is_some());
        // Store in flight -> load waits.
        s.store_dispatched(0x200);
        assert!(s.load_must_wait(0x100));
        s.store_resolved(0x200);
        assert!(!s.load_must_wait(0x100));
    }

    #[test]
    fn unrelated_load_unaffected() {
        let mut s = StoreSet::new(true);
        s.train_violation(0x200, 0x100);
        s.store_dispatched(0x200);
        assert!(!s.load_must_wait(0x3000));
    }

    #[test]
    fn merging_sets_via_shared_store() {
        let mut s = StoreSet::new(true);
        s.train_violation(0x200, 0x100);
        s.train_violation(0x200, 0x300);
        assert_eq!(s.set_of(0x100), s.set_of(0x300));
        assert_eq!(s.violations(), 2);
    }

    #[test]
    fn disabled_never_waits_or_trains() {
        let mut s = StoreSet::new(false);
        s.train_violation(0x200, 0x100);
        s.store_dispatched(0x200);
        assert!(!s.load_must_wait(0x100));
        assert_eq!(s.violations(), 0);
    }

    #[test]
    fn resolve_without_dispatch_is_safe() {
        let mut s = StoreSet::new(true);
        s.train_violation(0x200, 0x100);
        s.store_resolved(0x200); // saturating, no underflow
        assert!(!s.load_must_wait(0x100));
    }
}
