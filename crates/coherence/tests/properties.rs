//! Property-style tests of the coherence substrate: cache-array
//! invariants, event-queue ordering, and whole-protocol randomized
//! exercises (no panics, quiescence, single-writer). Randomness comes
//! from the in-tree seeded RNG, so every run is deterministic.

use sa_coherence::cache::CacheArray;
use sa_coherence::event::EventQueue;
use sa_coherence::{MemConfig, MemorySystem, NoticeKind};
use sa_isa::rng::Xoshiro256;
use sa_isa::{CoreId, Line};
use sa_trace::NullTracer;

const CASES: usize = 96;

/// The array never exceeds capacity, and an inserted line is present
/// unless a later insert to the same set evicted it.
#[test]
fn cache_array_capacity_and_presence() {
    let mut rng = Xoshiro256::seed_from_u64(0xC0DE_0001);
    for _ in 0..CASES {
        let n = rng.gen_range_usize(1, 200);
        let mut arr: CacheArray<u64> = CacheArray::new(8 * 64, 2); // 4 sets x 2
        for i in 0..n {
            let line = Line::from_raw(rng.gen_range_u64(0, 64));
            let victim = arr.insert(line, i as u64);
            assert!(arr.len() <= 8);
            assert!(arr.contains(line), "inserted line must be present");
            if let Some((v, _)) = victim {
                assert!(!arr.contains(v), "victim must be gone");
                assert_ne!(v, line, "never evict the line being inserted");
            }
        }
    }
}

/// After touching a line it survives the next insert into its set
/// (true LRU: the most recently used way is never the victim in a
/// 2-way set).
#[test]
fn lru_touch_protects() {
    let mut rng = Xoshiro256::seed_from_u64(0xC0DE_0002);
    let mut tried = 0;
    while tried < CASES {
        let seed = Line::from_raw(rng.gen_range_u64(0, 32) * 4); // all in set 0 (4 sets)
        let other = Line::from_raw(rng.gen_range_u64(0, 32) * 4 + 128);
        let incoming = Line::from_raw(rng.gen_range_u64(0, 32) * 4 + 256);
        if seed == other || other == incoming || seed == incoming {
            continue;
        }
        tried += 1;
        let mut arr: CacheArray<()> = CacheArray::new(8 * 64, 2);
        arr.insert(seed, ());
        arr.insert(other, ());
        arr.touch(seed);
        arr.insert(incoming, ());
        assert!(arr.contains(seed), "MRU line evicted");
    }
}

/// A naive true-LRU reference: every set materialised up front as a
/// list ordered most-recently-used first.
struct LruModel {
    sets: Vec<Vec<(Line, u64)>>,
    assoc: usize,
}

impl LruModel {
    fn new(bytes: usize, assoc: usize) -> LruModel {
        let n_sets = bytes / 64 / assoc;
        LruModel {
            sets: vec![Vec::new(); n_sets],
            assoc,
        }
    }

    fn set(&mut self, line: Line) -> &mut Vec<(Line, u64)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line.raw() % n) as usize]
    }

    fn find(&mut self, line: Line) -> Option<usize> {
        self.set(line).iter().position(|(l, _)| *l == line)
    }

    fn insert(&mut self, line: Line, v: u64) -> Option<(Line, u64)> {
        let assoc = self.assoc;
        let victim = match self.find(line) {
            Some(pos) => {
                self.set(line).remove(pos);
                None
            }
            None if self.set(line).len() == assoc => self.set(line).pop(),
            None => None,
        };
        self.set(line).insert(0, (line, v));
        victim
    }

    fn touch(&mut self, line: Line) -> bool {
        let Some(pos) = self.find(line) else {
            return false;
        };
        let e = self.set(line).remove(pos);
        self.set(line).insert(0, e);
        true
    }

    fn remove(&mut self, line: Line) -> Option<u64> {
        let pos = self.find(line)?;
        Some(self.set(line).remove(pos).1)
    }

    fn peek(&mut self, line: Line) -> Option<u64> {
        let pos = self.find(line)?;
        Some(self.set(line)[pos].1)
    }

    /// Ascending set number, most-recently-used first within a set.
    fn order(&self) -> Vec<(Line, u64)> {
        self.sets.iter().flatten().copied().collect()
    }
}

/// `CacheArray` against the naive true-LRU model on the L1, L2 and L3
/// geometries of the default configuration: every insert evicts the
/// same victim, and `contains`, `peek`, `peek_mut`, `touch`, `remove`,
/// `len` and the `iter` order agree after every step. Lines come from a
/// few hot sets (so sets fill and evict) plus a wide scatter (so many
/// sets are touched once).
#[test]
fn cache_array_matches_true_lru_model() {
    let mut rng = Xoshiro256::seed_from_u64(0xC0DE_0006);
    let cfg = MemConfig::default();
    for (bytes, assoc) in [
        (cfg.l1_bytes, cfg.l1_assoc),
        (cfg.l2_bytes, cfg.l2_assoc),
        (cfg.l3_bytes_per_bank, cfg.l3_assoc),
    ] {
        let mut arr: CacheArray<u64> = CacheArray::new(bytes, assoc);
        let mut model = LruModel::new(bytes, assoc);
        let n_sets = arr.n_sets() as u64;
        assert_eq!(n_sets, model.sets.len() as u64);
        let hot: Vec<u64> = (0..6).map(|_| rng.gen_range_u64(0, n_sets)).collect();
        for step in 0..6000u64 {
            let line = if rng.gen_range_u64(0, 4) == 0 {
                Line::from_raw(rng.gen_range_u64(0, 64 * n_sets))
            } else {
                let set = hot[rng.gen_range_usize(0, hot.len())];
                Line::from_raw(set + n_sets * rng.gen_range_u64(0, 2 * assoc as u64))
            };
            match rng.gen_range_u64(0, 10) {
                0..=4 => assert_eq!(arr.insert(line, step), model.insert(line, step)),
                5 => assert_eq!(arr.touch(line), model.touch(line)),
                6 => assert_eq!(arr.remove(line), model.remove(line)),
                7 => {
                    let want = model.peek(line);
                    assert_eq!(arr.peek_mut(line).map(|v| *v), want);
                    if let (Some(v), Some(pos)) = (arr.peek_mut(line), model.find(line)) {
                        *v = step;
                        model.set(line)[pos].1 = step;
                    }
                }
                _ => {
                    assert_eq!(arr.contains(line), model.find(line).is_some());
                    assert_eq!(arr.peek(line).copied(), model.peek(line));
                }
            }
            if step % 97 == 0 {
                let got: Vec<(Line, u64)> = arr.iter().map(|(l, v)| (l, *v)).collect();
                assert_eq!(got, model.order(), "iter order, {bytes} B, step {step}");
            }
            assert_eq!(arr.len(), model.order().len());
        }
        assert!(!arr.is_empty());
    }
}

/// Events pop in nondecreasing cycle order, FIFO within a cycle.
#[test]
fn event_queue_ordering() {
    let mut rng = Xoshiro256::seed_from_u64(0xC0DE_0003);
    for _ in 0..CASES {
        let n = rng.gen_range_usize(1, 100);
        let mut q = EventQueue::new();
        let mut scheduled = Vec::new();
        for _ in 0..n {
            let cycle = rng.gen_range_u64(0, 50);
            let tag = rng.gen_range_u64(0, 1000) as u32;
            q.schedule(cycle, (cycle, tag));
            scheduled.push((cycle, tag));
        }
        let mut last: Option<u64> = None;
        let mut popped = 0;
        while let Some((cycle, (ev_cycle, _))) = q.pop_until(u64::MAX) {
            assert_eq!(cycle, ev_cycle);
            if let Some(lc) = last {
                assert!(cycle >= lc, "cycle order violated");
            }
            last = Some(cycle);
            popped += 1;
        }
        assert_eq!(popped, scheduled.len());
    }
}

/// Randomized protocol exercise: arbitrary interleavings of loads and
/// ownership requests never panic, always quiesce, and end with at
/// most one owner per line.
#[test]
fn protocol_random_walk() {
    let mut rng = Xoshiro256::seed_from_u64(0xC0DE_0004);
    for _ in 0..CASES {
        let n = rng.gen_range_usize(1, 120);
        let mut m = MemorySystem::new(MemConfig {
            prefetch: false,
            ..MemConfig::with_cores(4)
        });
        let mut t = 0u64;
        for _ in 0..n {
            let core = CoreId(rng.gen_range_u64(0, 4) as u16);
            let line = Line::from_raw(rng.gen_range_u64(0, 6));
            let is_store = rng.gen_bool();
            m.advance(t, &mut NullTracer);
            let _ = m.drain_notices(core);
            if is_store {
                let _ = m.issue_ownership(core, line, t);
            } else {
                let _ = m.issue_load(core, line, 0, line.base(), t);
            }
            t += 3;
        }
        // Drain everything.
        m.advance(t + 100_000, &mut NullTracer);
        assert!(m.quiescent(), "protocol wedged");
        for l in 0..6u64 {
            let line = Line::from_raw(l);
            let owners = (0..4u16)
                .filter(|c| m.has_ownership(CoreId(*c), line))
                .count();
            assert!(owners <= 1, "line {l} has {owners} owners");
        }
    }
}

/// Every issued load eventually completes exactly once.
#[test]
fn loads_complete_exactly_once() {
    let mut rng = Xoshiro256::seed_from_u64(0xC0DE_0005);
    for _ in 0..CASES {
        let n = rng.gen_range_usize(1, 60);
        let mut m = MemorySystem::new(MemConfig {
            prefetch: false,
            ..MemConfig::with_cores(2)
        });
        let mut t = 0u64;
        let mut issued = Vec::new();
        for _ in 0..n {
            let core = rng.gen_range_u64(0, 2) as u16;
            let line = rng.gen_range_u64(0, 4);
            m.advance(t, &mut NullTracer);
            for c in 0..2u16 {
                let _ = m.drain_notices(CoreId(c));
            }
            if let Some(id) = m.issue_load(CoreId(core), Line::from_raw(line), 0, line * 64, t) {
                issued.push((core, id));
            }
            t += 2;
        }
        m.advance(t + 100_000, &mut NullTracer);
        let mut done = std::collections::HashSet::new();
        for c in 0..2u16 {
            for notice in m.drain_notices(CoreId(c)) {
                if let NoticeKind::LoadDone { id } = notice.kind {
                    assert!(done.insert((c, id)), "duplicate completion");
                }
            }
        }
        for (core, id) in issued {
            assert!(done.contains(&(core, id)), "lost completion for {id:?}");
        }
    }
}
