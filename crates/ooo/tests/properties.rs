//! Property-style tests of the core's window structures and of the whole
//! pipeline on randomized single-threaded programs (architectural
//! equivalence across all five consistency configurations), driven by
//! the in-tree seeded RNG.
//!
//! The SoA queues are checked against naive array-of-structs reference
//! models under alloc/free churn that wraps the physical rings, and the
//! generation-tagged handles are checked to reject stale lookups after
//! their slots are reused.

use sa_isa::rng::Xoshiro256;
use sa_isa::{ConsistencyModel, CoreId, Line, Reg, TraceBuilder, ValueMemory};
use sa_ooo::lq::{LoadQueue, LoadState, LqIdx};
use sa_ooo::port::SimpleMem;
use sa_ooo::rob::{Rob, RobIdx, RobKind, RobState, RobUop};
use sa_ooo::sq::{SearchHit, StoreQueue};
use sa_ooo::{Core, CoreConfig, Key};
use sa_trace::NullTracer;

fn rob_id(seq: u64) -> RobIdx {
    // The queues only order handles by `seq`; the slot field is the
    // ROB's physical slot and is irrelevant to LQ/SQ-internal logic.
    RobIdx {
        seq,
        slot: (seq % 64) as u32,
    }
}

/// Keys of live SQ/SB entries are always unique — the invariant the
/// retire gate relies on ("one and only one store matching the key").
#[test]
fn live_store_keys_are_unique() {
    let mut rng = Xoshiro256::seed_from_u64(0x5109_0001);
    for _ in 0..64 {
        let n = rng.gen_range_usize(1, 300);
        let mut q = StoreQueue::new(8);
        let mut seq = 0u64;
        for _ in 0..n {
            let push = rng.gen_bool();
            if push && !q.is_full() {
                seq += 1;
                q.alloc(rob_id(seq), 0, 0x100 + seq * 8 % 512, 8, true, Some(1));
            } else if !push && !q.is_empty() {
                q.pop_head();
            }
            let keys: Vec<_> = q.keys().collect();
            let mut dedup = keys.clone();
            dedup.sort_by_key(|k| (k.slot, k.sorting));
            dedup.dedup();
            assert_eq!(keys.len(), dedup.len(), "duplicate live key");
        }
    }
}

/// The forwarding search returns the youngest older fully-covering
/// store, verified against a naive reference model.
#[test]
fn search_matches_reference() {
    let mut rng = Xoshiro256::seed_from_u64(0x5109_0002);
    for _ in 0..512 {
        let n = rng.gen_range_usize(0, 8);
        let stores: Vec<(u64, bool)> = (0..n)
            .map(|_| (rng.gen_range_u64(0, 8), rng.gen_bool()))
            .collect();
        let load_slot = rng.gen_range_u64(0, 8);
        let mut q = StoreQueue::new(16);
        let mut ids = Vec::new();
        for (i, (slot, resolved)) in stores.iter().enumerate() {
            ids.push(q.alloc(
                rob_id(i as u64),
                0,
                0x100 + slot * 8,
                8,
                *resolved,
                Some(*slot),
            ));
        }
        let load_rob = rob_id(stores.len() as u64 + 1);
        let la = 0x100 + load_slot * 8;
        // Reference: youngest older resolved store covering the load,
        // unless a younger unresolved store makes the scan speculative.
        let expect = stores
            .iter()
            .enumerate()
            .rev()
            .find(|(_, (slot, resolved))| *resolved && *slot == load_slot)
            .map(|(i, _)| ids[i]);
        match q.search(load_rob, la, 8) {
            SearchHit::Forward { store, .. } => {
                assert_eq!(Some(store), expect);
            }
            SearchHit::Miss { .. } => assert_eq!(expect, None),
            SearchHit::Partial { .. } => panic!("no partials generated"),
        }
    }
}

/// SoA forwarding-age search against a naive array-of-structs model,
/// under alloc/pop churn that wraps the physical ring many times and
/// with partial overlaps and unresolved addresses in the mix.
#[test]
fn sq_search_matches_model_under_wraparound_churn() {
    #[derive(Clone)]
    struct ModelStore {
        id: sa_ooo::sq::SqIdx,
        rob: RobIdx,
        addr: u64,
        size: u8,
        resolved: bool,
    }
    let mut rng = Xoshiro256::seed_from_u64(0x5109_0005);
    for _ in 0..64 {
        let mut q = StoreQueue::new(8);
        let mut model: Vec<ModelStore> = Vec::new();
        let mut seq = 0u64;
        for _ in 0..400 {
            match rng.gen_range_u64(0, 4) {
                0 if !q.is_full() => {
                    seq += 1;
                    // Sizes 1/2/4/8 at byte granularity: exercises
                    // covers-vs-overlaps distinctions.
                    let size = 1u8 << rng.gen_range_u64(0, 4);
                    let addr = 0x200 + rng.gen_range_u64(0, 24);
                    let resolved = rng.gen_range_u64(0, 4) != 0;
                    let id = q.alloc(rob_id(seq), 0, addr, size, resolved, Some(seq));
                    model.push(ModelStore {
                        id,
                        rob: rob_id(seq),
                        addr,
                        size,
                        resolved,
                    });
                }
                1 if !q.is_empty() => {
                    q.pop_head();
                    model.remove(0);
                }
                2 => {
                    // Resolve a random still-unresolved store.
                    if let Some(m) = model.iter_mut().find(|m| !m.resolved) {
                        assert!(q.resolve_addr(m.id));
                        m.resolved = true;
                    }
                }
                _ => {}
            }
            // Probe with a load younger than everything live.
            let load_rob = rob_id(seq + 1);
            let la = 0x200 + rng.gen_range_u64(0, 24);
            let lsize = 1u8 << rng.gen_range_u64(0, 4);
            // Naive model: youngest-first over older stores, exactly the
            // documented search semantics.
            let mut passed = false;
            let mut expect = SearchHit::Miss {
                passed_unresolved: false,
            };
            for m in model.iter().rev() {
                if m.rob >= load_rob {
                    continue;
                }
                if !m.resolved {
                    passed = true;
                    continue;
                }
                if sa_isa::addr::covers(m.addr, m.size, la, lsize) {
                    expect = SearchHit::Forward {
                        store: m.id,
                        passed_unresolved: passed,
                    };
                    break;
                }
                if sa_isa::addr::overlaps(m.addr, m.size, la, lsize) {
                    expect = SearchHit::Partial { store: m.id };
                    break;
                }
            }
            if matches!(
                expect,
                SearchHit::Miss {
                    passed_unresolved: false
                }
            ) {
                expect = SearchHit::Miss {
                    passed_unresolved: passed,
                };
            }
            assert_eq!(q.search(load_rob, la, lsize), expect);
            // Secondary invariants against the same model.
            assert_eq!(
                q.has_unresolved(),
                model.iter().any(|m| !m.resolved),
                "unresolved counter drifted"
            );
            assert_eq!(
                q.any_older_unresolved(load_rob),
                model.iter().any(|m| m.rob < load_rob && !m.resolved)
            );
            let live: Vec<_> = q.iter().collect();
            let want: Vec<_> = model.iter().map(|m| m.id).collect();
            assert_eq!(live, want, "live handle order drifted");
        }
    }
}

/// SoA load queue (performed bitset, SLF-pending counter, age order)
/// against a naive model, under churn that wraps the physical ring —
/// the primitives the snoop probe and the retire gate are built from.
#[test]
fn lq_snoop_primitives_match_model_under_wraparound() {
    #[derive(Clone)]
    struct ModelLoad {
        id: LqIdx,
        rob: RobIdx,
        performed: bool,
        slf: Option<Key>,
    }
    let mut rng = Xoshiro256::seed_from_u64(0x5109_0006);
    for _ in 0..48 {
        let mut q = LoadQueue::new(24);
        let mut model: Vec<ModelLoad> = Vec::new();
        let mut seq = 0u64;
        let mut live_keys: Vec<Key> = Vec::new();
        for _ in 0..500 {
            match rng.gen_range_u64(0, 4) {
                0 if !q.is_full() => {
                    seq += 1;
                    let id = q.alloc(rob_id(seq), 0, 0x100 + seq % 32 * 8, 8);
                    model.push(ModelLoad {
                        id,
                        rob: rob_id(seq),
                        performed: false,
                        slf: None,
                    });
                }
                1 if !q.is_empty() => {
                    // In-order retirement frees the head slot.
                    let head = model.remove(0);
                    q.retire_head(head.rob);
                }
                2 => {
                    if let Some(m) = model.iter_mut().find(|m| !m.performed) {
                        assert!(q.set_state(m.id, LoadState::Performed));
                        m.performed = true;
                        if rng.gen_bool() {
                            let key = Key {
                                slot: rng.gen_range_u64(0, 8) as u16,
                                sorting: rng.gen_bool(),
                            };
                            assert!(q.set_slf_key(m.id, key));
                            m.slf = Some(key);
                            if rng.gen_bool() {
                                live_keys.push(key);
                            }
                        }
                    }
                }
                _ => {
                    if !live_keys.is_empty() {
                        live_keys.remove(0);
                    }
                }
            }
            let live: Vec<_> = q.iter().collect();
            let want: Vec<_> = model.iter().map(|m| m.id).collect();
            assert_eq!(live, want, "live handle order drifted");
            for (i, m) in model.iter().enumerate() {
                let state = q.state_of(m.id).expect("live entry");
                assert_eq!(
                    matches!(state, LoadState::Performed),
                    m.performed,
                    "state drifted"
                );
                assert_eq!(
                    q.any_older_unperformed(m.id),
                    model[..i].iter().any(|o| !o.performed),
                    "performed-prefix query drifted"
                );
                assert_eq!(
                    q.older_slf_pending(m.id, |k| live_keys.contains(&k)),
                    model[..i]
                        .iter()
                        .any(|o| o.slf.is_some_and(|k| live_keys.contains(&k))),
                    "SLF-pending query drifted"
                );
            }
        }
    }
}

/// Generation-tagged handles go stale exactly when their entry leaves
/// the queue, and stay stale after the physical slot is reused.
#[test]
fn stale_handles_are_rejected_after_slot_reuse() {
    let mut rng = Xoshiro256::seed_from_u64(0x5109_0007);

    // ROB: retire past several ring generations.
    let mut rob = Rob::new(8);
    let mut freed: Vec<RobIdx> = Vec::new();
    for i in 0..64u64 {
        let id = rob.push(RobUop {
            trace_idx: i as usize,
            kind: RobKind::Nop,
            dst: None,
            deps: [None, None],
            src_regs: [None, None],
            state: RobState::Done,
            done_at: 0,
        });
        if rob.is_full() {
            let f = rob.front().unwrap();
            rob.pop_front();
            freed.push(f);
        }
        assert!(rob.contains(id));
    }
    for f in &freed {
        assert!(!rob.contains(*f), "stale ROB handle accepted");
        assert_eq!(rob.state_of(*f), None);
        // A retired producer counts as satisfied, never as a live dep.
        assert!(rob.dep_satisfied(*f));
        assert_eq!(rob.squash_from(*f), 0, "stale squash must be a no-op");
    }

    // LQ: free via in-order retirement, wrap the ring.
    let mut lq = LoadQueue::new(8);
    let mut lfreed: Vec<LqIdx> = Vec::new();
    let mut live: Vec<(LqIdx, RobIdx)> = Vec::new();
    for i in 0..200u64 {
        if lq.is_full() || (!live.is_empty() && rng.gen_bool()) {
            let (id, r) = live.remove(0);
            lq.retire_head(r);
            lfreed.push(id);
        } else {
            let id = lq.alloc(rob_id(i), 0, i * 8, 8);
            live.push((id, rob_id(i)));
        }
    }
    for f in &lfreed {
        assert!(!lq.contains(*f), "stale LQ handle accepted");
        assert_eq!(lq.state_of(*f), None);
        assert!(!lq.set_state(*f, LoadState::Performed));
        assert!(!lq.set_slf_key(
            *f,
            Key {
                slot: 0,
                sorting: false
            }
        ));
    }
    for (id, _) in &live {
        assert!(lq.contains(*id), "live LQ handle rejected");
    }

    // SQ: free via head commit, wrap the exact-capacity ring (the
    // sorting bit flips each generation, so keys stay unique too).
    let mut sq = StoreQueue::new(8);
    let mut sfreed = Vec::new();
    let mut slive = Vec::new();
    for i in 0..200u64 {
        if sq.is_full() || (!slive.is_empty() && rng.gen_bool()) {
            let (id, key): (sa_ooo::sq::SqIdx, Key) = slive.remove(0);
            sq.pop_head();
            sfreed.push((id, key));
        } else {
            let id = sq.alloc(rob_id(i), 0, i * 8, 8, true, Some(i));
            slive.push((id, sq.key_of(id).unwrap()));
        }
    }
    for (f, key) in &sfreed {
        assert!(!sq.contains(*f), "stale SQ handle accepted");
        assert_eq!(sq.key_of(*f), None);
        assert!(!sq.resolve_addr(*f));
        assert!(!sq.mark_retired(*f));
        // The 1-bit sorting scheme only distinguishes *adjacent*
        // generations (all the hardware needs — a load can't outlive
        // two full SQ wraps): a dead key matches exactly when a live
        // store holds the same slot+sorting pair.
        assert_eq!(
            sq.contains_key(*key),
            slive.iter().any(|(_, k)| k == key),
            "contains_key disagrees with the live-key model"
        );
    }
    for (id, key) in &slive {
        assert!(sq.contains(*id));
        assert!(sq.contains_key(*key));
    }
}

/// Architectural results of a random single-threaded program are
/// identical across all five consistency configurations and match an
/// interpreter — timing may differ, architecture must not.
#[test]
fn models_match_reference_interpreter() {
    let mut rng = Xoshiro256::seed_from_u64(0x5109_0003);
    for _ in 0..48 {
        let n = rng.gen_range_usize(1, 60);
        let ops: Vec<(u8, u64, u64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range_u64(0, 4) as u8,
                    rng.gen_range_u64(0, 6),
                    rng.gen_range_u64(1, 100),
                )
            })
            .collect();
        // Reference interpreter.
        let mut ref_mem = std::collections::HashMap::<u64, u64>::new();
        let mut ref_regs = [0u64; 4];
        let mut b = TraceBuilder::new();
        for (kind, slot, val) in &ops {
            let addr = 0x1000 + slot * 8;
            match kind % 4 {
                0 => {
                    b.store_imm(addr, *val);
                    ref_mem.insert(addr, *val);
                }
                1 => {
                    let r = Reg::new((val % 4) as u8);
                    b.load(r, addr);
                    ref_regs[(val % 4) as usize] = ref_mem.get(&addr).copied().unwrap_or(0);
                }
                2 => {
                    let d = Reg::new((val % 4) as u8);
                    let s = Reg::new(((val + 1) % 4) as u8);
                    b.add(d, s, s);
                    ref_regs[(val % 4) as usize] =
                        ref_regs[((val + 1) % 4) as usize].wrapping_mul(2);
                }
                _ => {
                    b.branch(val % 2 == 0, None);
                }
            }
        }
        let trace = b.build();
        for model in ConsistencyModel::ALL {
            let mut core = Core::new(CoreId(0), CoreConfig::default(), model, trace.clone());
            let mut mem = SimpleMem::new(6, 12);
            let mut valmem = ValueMemory::new();
            let mut t = 0u64;
            while !core.finished() {
                assert!(t < 1_000_000, "{model} wedged");
                let notices = mem.take_due(t);
                core.tick(t, &mut mem, &mut valmem, &notices, &mut NullTracer);
                t += 1;
            }
            for r in 0..4u8 {
                assert_eq!(
                    core.arch_reg(Reg::new(r)),
                    ref_regs[r as usize],
                    "{model} register r{r}"
                );
            }
            for (addr, v) in &ref_mem {
                assert_eq!(valmem.read(*addr, 8), *v, "{model} [{addr:#x}]");
            }
        }
    }
}

/// Squash/replay transparency: random invalidations and evictions
/// never change the architectural result of a single-threaded
/// program (they only cost time).
#[test]
fn invalidations_are_architecturally_transparent() {
    let mut rng = Xoshiro256::seed_from_u64(0x5109_0004);
    for _ in 0..64 {
        let n = rng.gen_range_usize(1, 40);
        let ops: Vec<(u8, u64, u64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range_u64(0, 3) as u8,
                    rng.gen_range_u64(0, 4),
                    rng.gen_range_u64(1, 50),
                )
            })
            .collect();
        let n_inv = rng.gen_range_usize(0, 10);
        let invals: Vec<(u64, u64, bool)> = (0..n_inv)
            .map(|_| {
                (
                    rng.gen_range_u64(0, 500),
                    rng.gen_range_u64(0, 4),
                    rng.gen_bool(),
                )
            })
            .collect();
        let build = |ops: &[(u8, u64, u64)]| {
            let mut b = TraceBuilder::new();
            for (kind, slot, val) in ops {
                let addr = 0x1000 + slot * 8;
                match kind % 3 {
                    0 => {
                        b.store_imm(addr, *val);
                    }
                    1 => {
                        b.load(Reg::new((val % 4) as u8), addr);
                    }
                    _ => {
                        b.add(Reg::new(0), Reg::new(1), Reg::new(2));
                    }
                }
            }
            b.build()
        };
        let run = |with_invals: bool| {
            let mut core = Core::new(
                CoreId(0),
                CoreConfig::default(),
                ConsistencyModel::Ibm370SlfSosKey,
                build(&ops),
            );
            let mut mem = SimpleMem::new(6, 12);
            if with_invals {
                for (at, slot, evict) in &invals {
                    let line = Line::containing(0x1000 + slot * 8);
                    if *evict {
                        mem.inject_eviction(line, *at);
                    } else {
                        mem.inject_invalidation(line, *at);
                    }
                }
            }
            let mut valmem = ValueMemory::new();
            let mut t = 0u64;
            while !core.finished() {
                assert!(t < 2_000_000, "wedged");
                let notices = mem.take_due(t);
                core.tick(t, &mut mem, &mut valmem, &notices, &mut NullTracer);
                t += 1;
            }
            (0..4u8)
                .map(|r| core.arch_reg(Reg::new(r)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }
}
