//! The operational TSO machine and the exhaustive interleaving explorer.
//!
//! The machine has one shared memory and one FIFO store buffer per
//! thread. A *thread step* issues the thread's next op: a store enters
//! the thread's own buffer, a load reads the buffer or memory (see
//! [`ForwardPolicy`]), a fence waits for an empty buffer. A *drain step*
//! moves the oldest buffered store to memory; that is the store's single
//! global commit instant, so the machine is write-atomic by construction.
//! [`explore`] enumerates every interleaving of the two kinds of step.
//!
//! # State encoding
//!
//! The desugared program is compiled once into per-thread op tables:
//! variables become indices into the sorted variable list, stored values
//! become indices into a value table whose entry 0 is the initial 0, and
//! every pc carries the number of stores the thread issued before it. A
//! machine state is then one flat byte key for `T` threads over `V`
//! variables:
//!
//! ```text
//! [pc; T] [drained; T] [mem; V] [load slots]
//! ```
//!
//! * `pc[t]`: ops thread `t` has issued;
//! * `drained[t]`: stores of thread `t` that have reached memory;
//! * `mem[v]`: value index of variable `v`;
//! * load slots, thread-major: the value index each load read. A slot
//!   holds 0 until its load issues, so equal states have equal keys.
//!
//! The store buffer is implied by the key: thread `t`'s buffer holds its
//! stores with ordinal in `drained[t]..issued(t, pc[t])`, oldest first,
//! where `issued(t, pc)` counts the stores among its first `pc` ops. A
//! transition therefore copies one key and rewrites two of its bytes.
//!
//! # Reduction
//!
//! A store step only appends to its own thread's buffer, and a fence step
//! over an empty buffer only advances its own pc. When some thread has
//! such a *local* step enabled, the explorer expands only that step, for
//! the first such thread, instead of every enabled step. This reaches
//! exactly the final states full expansion reaches:
//!
//! * The local step commutes with every step that can run before it.
//!   Other threads' steps touch neither its pc nor its buffer; the
//!   thread's own drains pop the front of the buffer a store appends to,
//!   and under a fence the buffer is empty and stays so. No other step
//!   disables it, so it stays enabled until taken.
//! * Every path to a final state takes it, since a final state has
//!   issued every op. Commuting it to the front of such a path gives one
//!   that starts with it and ends in the same final state.
//! * The state graph is acyclic, since pcs and drain counts only grow, so
//!   every path is finite and the two points above apply by induction
//!   along it.
//! * Every non-final state has an enabled step, since a blocked load or
//!   fence always leaves its thread's drain enabled. So the final states
//!   are exactly the states without successors, which is what the
//!   argument preserves.

use std::collections::HashSet;
use std::ops::Range;

use crate::ast::{LOp, LitmusTest, Var};
use crate::outcome::{Outcome, OutcomeSet};

/// How a load interacts with the thread's own store buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForwardPolicy {
    /// x86-TSO: the load must read the youngest matching store in the
    /// local store buffer (store-to-load forwarding) — the
    /// non-store-atomic behavior.
    X86,
    /// IBM 370: the load blocks while any matching store is in the local
    /// store buffer; it reads memory only after the store drained
    /// (store-atomic TSO).
    StoreAtomic370,
}

/// One desugared op with its operands resolved against the key layout.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A store: the thread's next entry in [`Program::stores`].
    St,
    /// A load of variable index `var` into key cell `slot`.
    Ld { var: u8, slot: usize },
    /// A full fence.
    Fence,
}

/// A desugared program compiled for the packed key (see the module docs).
#[derive(Debug)]
struct Program {
    /// Per-thread op tables.
    ops: Vec<Vec<Op>>,
    /// `stores[t][k]`: variable index and value index of thread `t`'s
    /// `k`-th store.
    stores: Vec<Vec<(u8, u8)>>,
    /// `issued[t][pc]`: stores among thread `t`'s first `pc` ops.
    issued: Vec<Vec<u8>>,
    /// The variables, ascending; variable index `i` is `vars[i]`.
    vars: Vec<Var>,
    /// Value table; value index 0 is the initial 0.
    values: Vec<u64>,
    /// Key cells of each thread's load slots.
    slots: Vec<Range<usize>>,
    /// Key length in bytes.
    key_len: usize,
}

impl Program {
    fn compile(test: &LitmusTest) -> Program {
        assert!(
            test.total_ops() <= usize::from(u8::MAX),
            "explore: {} ops after RMW expansion; a packed key cell holds at most {}",
            test.total_ops(),
            u8::MAX
        );
        let vars = test.vars();
        let var_index = |v: Var| vars.binary_search(&v).expect("vars() lists every variable") as u8;
        let mut values = vec![0];
        let mut next_slot = 2 * test.threads.len() + vars.len();
        let (mut ops, mut stores, mut issued, mut slots) = (vec![], vec![], vec![], vec![]);
        for thread in &test.threads {
            let first_slot = next_slot;
            let mut table = Vec::with_capacity(thread.len());
            let mut own = Vec::new();
            let mut counts = vec![0];
            for op in thread {
                table.push(match *op {
                    LOp::St(v, val) => {
                        let idx = values.iter().position(|&x| x == val).unwrap_or_else(|| {
                            values.push(val);
                            values.len() - 1
                        });
                        own.push((var_index(v), idx as u8));
                        Op::St
                    }
                    LOp::Ld(v) => {
                        next_slot += 1;
                        Op::Ld {
                            var: var_index(v),
                            slot: next_slot - 1,
                        }
                    }
                    LOp::Fence => Op::Fence,
                    LOp::Rmw(..) => unreachable!("RMWs are desugared before exploration"),
                });
                counts.push(own.len() as u8);
            }
            ops.push(table);
            stores.push(own);
            issued.push(counts);
            slots.push(first_slot..next_slot);
        }
        Program {
            ops,
            stores,
            issued,
            vars,
            values,
            slots,
            key_len: next_slot,
        }
    }

    fn threads(&self) -> usize {
        self.ops.len()
    }

    /// Thread `t`'s pc, drain count and issued-store count in `key`.
    fn counters(&self, key: &[u8], t: usize) -> (usize, u8, u8) {
        let pc = usize::from(key[t]);
        (pc, key[self.threads() + t], self.issued[t][pc])
    }

    fn is_final(&self, key: &[u8]) -> bool {
        (0..self.threads()).all(|t| {
            let (pc, drained, issued) = self.counters(key, t);
            pc == self.ops[t].len() && drained == issued
        })
    }

    /// The first thread whose next step touches only its own state: a
    /// store, or a fence over an empty buffer.
    fn local_step(&self, key: &[u8]) -> Option<usize> {
        (0..self.threads()).find(|&t| {
            let (pc, drained, issued) = self.counters(key, t);
            match self.ops[t].get(pc) {
                Some(Op::St) => true,
                Some(Op::Fence) => drained == issued,
                _ => false,
            }
        })
    }

    /// Writes into `next` the state after thread `t` issues its next op
    /// from `key`; `false` when the thread is done or blocked.
    fn issue(&self, policy: ForwardPolicy, key: &[u8], t: usize, next: &mut [u8]) -> bool {
        let (pc, drained, issued) = self.counters(key, t);
        let Some(&op) = self.ops[t].get(pc) else {
            return false;
        };
        let read = match op {
            Op::St => None,
            Op::Fence if drained < issued => return false,
            Op::Fence => None,
            Op::Ld { var, slot } => {
                let buffered = &self.stores[t][usize::from(drained)..usize::from(issued)];
                let value = match (policy, buffered.iter().rev().find(|s| s.0 == var)) {
                    // Mandatory store-to-load forwarding.
                    (ForwardPolicy::X86, Some(&(_, val))) => val,
                    // Blocked until the matching store drains.
                    (ForwardPolicy::StoreAtomic370, Some(_)) => return false,
                    (_, None) => key[self.mem(var)],
                };
                Some((slot, value))
            }
        };
        next.copy_from_slice(key);
        if let Some((slot, value)) = read {
            next[slot] = value;
        }
        next[t] += 1;
        true
    }

    /// Writes into `next` the state after thread `t`'s oldest buffered
    /// store drains from `key`; `false` when its buffer is empty.
    fn drain(&self, key: &[u8], t: usize, next: &mut [u8]) -> bool {
        let (_, drained, issued) = self.counters(key, t);
        if drained == issued {
            return false;
        }
        let (var, value) = self.stores[t][usize::from(drained)];
        next.copy_from_slice(key);
        next[self.mem(var)] = value;
        next[self.threads() + t] += 1;
        true
    }

    /// Key cell of variable index `var`.
    fn mem(&self, var: u8) -> usize {
        2 * self.threads() + usize::from(var)
    }

    fn outcome(&self, key: &[u8]) -> Outcome {
        let value = |idx: &u8| self.values[usize::from(*idx)];
        Outcome {
            regs: self
                .slots
                .iter()
                .map(|r| key[r.clone()].iter().map(value).collect())
                .collect(),
            mem: self
                .vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, value(&key[self.mem(i as u8)])))
                .collect(),
        }
    }
}

/// Enumerates every final outcome of `test` under `policy` by exhaustive
/// depth-first search over the interleavings of thread steps and
/// store-buffer drains. RMWs are desugared to their fenced-exchange
/// sequence first — the same expansion the cycle-level lowering uses, so
/// both machines run the same program.
///
/// States are packed byte keys, memoized in a set that is checked before
/// a successor is stored. A state where some thread's next step is a
/// store, or a fence over an empty buffer, expands that step alone; the
/// module docs give the key layout and why this loses no final state.
///
/// # Panics
///
/// Panics if the program has more than 255 ops after RMW desugaring: a
/// key cell is one byte, and holds a pc, a drain count, or an index into
/// the at most (stores + 1) distinct values.
pub fn explore(test: &LitmusTest, policy: ForwardPolicy) -> OutcomeSet {
    let p = Program::compile(&test.desugared());
    let n = p.key_len;
    let mut outcomes = OutcomeSet::new();
    // The initial state is all zeros: nothing issued, every variable at
    // value index 0.
    let mut seen: HashSet<Box<[u8]>> = HashSet::from([vec![0; n].into_boxed_slice()]);
    // Keys waiting for expansion, `n` bytes each. Counted apart from the
    // byte length, which is 0 for a program with no threads.
    let mut stack = vec![0; n];
    let mut pending = 1usize;
    let (mut key, mut next) = (vec![0; n], vec![0; n]);
    while pending > 0 {
        pending -= 1;
        let top = stack.len() - n;
        key.copy_from_slice(&stack[top..]);
        stack.truncate(top);
        if p.is_final(&key) {
            outcomes.insert(p.outcome(&key));
            continue;
        }
        let mut visit = |next: &[u8]| {
            if !seen.contains(next) {
                seen.insert(next.into());
                stack.extend_from_slice(next);
                pending += 1;
            }
        };
        if let Some(t) = p.local_step(&key) {
            let issued = p.issue(policy, &key, t, &mut next);
            debug_assert!(issued, "a local step is always enabled");
            visit(&next);
            continue;
        }
        for t in 0..p.threads() {
            if p.issue(policy, &key, t, &mut next) {
                visit(&next);
            }
            if p.drain(&key, t, &mut next) {
                visit(&next);
            }
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{X, Y};

    fn single_thread_store_load() -> LitmusTest {
        LitmusTest::new("local", vec![vec![LOp::St(X, 1), LOp::Ld(X)]])
    }

    #[test]
    fn x86_forwards_own_store() {
        let t = single_thread_store_load();
        let set = explore(&t, ForwardPolicy::X86);
        // Only outcome: r0 = 1 (forwarding is mandatory), [x] = 1.
        assert_eq!(set.len(), 1);
        let o = set.iter().next().unwrap();
        assert_eq!(o.regs[0], vec![1]);
        assert_eq!(o.mem[&X], 1);
    }

    #[test]
    fn ibm370_also_reads_own_store_but_later() {
        // Sequential semantics are preserved either way — the difference
        // is only *when* the load may perform.
        let t = single_thread_store_load();
        let set = explore(&t, ForwardPolicy::StoreAtomic370);
        assert_eq!(set.len(), 1);
        assert_eq!(set.iter().next().unwrap().regs[0], vec![1]);
    }

    #[test]
    fn store_buffering_visible_in_both() {
        // Dekker/sb: both threads may read 0 under TSO.
        let t = LitmusTest::new(
            "sb",
            vec![
                vec![LOp::St(X, 1), LOp::Ld(Y)],
                vec![LOp::St(Y, 1), LOp::Ld(X)],
            ],
        );
        for policy in [ForwardPolicy::X86, ForwardPolicy::StoreAtomic370] {
            let set = explore(&t, policy);
            assert!(
                set.iter()
                    .any(|o| o.regs[0] == vec![0] && o.regs[1] == vec![0]),
                "{policy:?} must allow the (0,0) outcome"
            );
        }
    }

    #[test]
    fn fence_forbids_store_buffering() {
        let t = LitmusTest::new(
            "sb+fences",
            vec![
                vec![LOp::St(X, 1), LOp::Fence, LOp::Ld(Y)],
                vec![LOp::St(Y, 1), LOp::Fence, LOp::Ld(X)],
            ],
        );
        for policy in [ForwardPolicy::X86, ForwardPolicy::StoreAtomic370] {
            let set = explore(&t, policy);
            assert!(
                !set.iter()
                    .any(|o| o.regs[0] == vec![0] && o.regs[1] == vec![0]),
                "{policy:?} must forbid (0,0) with fences"
            );
        }
    }

    #[test]
    fn final_memory_is_last_drain() {
        let t = LitmusTest::new("ww", vec![vec![LOp::St(X, 1)], vec![LOp::St(X, 2)]]);
        let set = explore(&t, ForwardPolicy::X86);
        let finals: Vec<u64> = set.iter().map(|o| o.mem[&X]).collect();
        assert!(finals.contains(&1) && finals.contains(&2));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn rmw_is_a_fenced_exchange_not_a_locked_op() {
        // Two racing exchanges on x. The desugared `fence; ld; st; fence`
        // admits both threads reading 0 (a locked exchange would not) —
        // the honest semantics both the oracle and the simulator share.
        let t = LitmusTest::new("xchg", vec![vec![LOp::Rmw(X, 1)], vec![LOp::Rmw(X, 2)]]);
        for policy in [ForwardPolicy::X86, ForwardPolicy::StoreAtomic370] {
            let set = explore(&t, policy);
            assert!(
                set.iter()
                    .any(|o| o.regs[0] == vec![0] && o.regs[1] == vec![0]),
                "{policy:?}: both-read-0 must be allowed"
            );
            assert!(
                set.iter()
                    .any(|o| o.regs[0] == vec![0] && o.regs[1] == vec![1]),
                "{policy:?}: serialized order must be allowed"
            );
        }
        // The trailing fence still orders the exchange against later ops:
        // rmw x; ld y  |  rmw y; ld x  cannot both read 0 afterwards.
        let sb = LitmusTest::new(
            "xchg+sb",
            vec![
                vec![LOp::Rmw(X, 1), LOp::Ld(Y)],
                vec![LOp::Rmw(Y, 1), LOp::Ld(X)],
            ],
        );
        for policy in [ForwardPolicy::X86, ForwardPolicy::StoreAtomic370] {
            let set = explore(&sb, policy);
            assert!(
                !set.iter()
                    .any(|o| o.regs[0] == vec![0, 0] && o.regs[1] == vec![0, 0]),
                "{policy:?}: fenced exchanges forbid the sb (0,0) outcome"
            );
        }
    }

    #[test]
    #[should_panic(expected = "a packed key cell holds at most 255")]
    fn programs_past_one_byte_key_cells_are_refused() {
        let t = LitmusTest::new("huge", vec![vec![LOp::Fence; 256]]);
        explore(&t, ForwardPolicy::X86);
    }

    #[test]
    fn exploration_terminates_on_larger_tests() {
        // 3 threads x 3 ops: milliseconds, since packed states are
        // memoized and store/fence steps are not interleaved.
        let t = LitmusTest::new(
            "big",
            vec![
                vec![LOp::St(X, 1), LOp::Ld(Y), LOp::St(Y, 3)],
                vec![LOp::St(Y, 1), LOp::Ld(X), LOp::St(X, 3)],
                vec![LOp::Ld(X), LOp::Ld(Y), LOp::Fence],
            ],
        );
        let set = explore(&t, ForwardPolicy::X86);
        assert!(set.len() > 4);
    }
}
