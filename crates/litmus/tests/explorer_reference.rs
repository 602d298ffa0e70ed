//! The packed-state explorer against an independent reference.
//!
//! `reference` below is the explorer as it was before the packed-key
//! rewrite: a plain depth-first search over cloned `State`s (program
//! counters, register vectors, `VecDeque` store buffers, a memory map)
//! that expands every enabled step of every state. It shares no code with
//! [`sa_litmus::explore`] beyond the public program and outcome types, so
//! agreement checks both the key encoding and the store/fence reduction.
//!
//! The default tests cover the whole suite, the probes and a small
//! generated corpus (a debug build runs them in seconds). The `#[ignore]`d
//! sweep covers the service's benchmark corpus and several generator
//! variants; run it in release:
//!
//! ```sh
//! cargo test --release -p sa-litmus --test explorer_reference -- --ignored
//! ```

use std::collections::{BTreeMap, HashSet, VecDeque};

use sa_litmus::{
    canonicalize, explore, suite, CorpusStream, ForwardPolicy, GenConfig, LOp, LitmusTest, Outcome,
    OutcomeSet, Var,
};

const POLICIES: [ForwardPolicy; 2] = [ForwardPolicy::X86, ForwardPolicy::StoreAtomic370];

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    pcs: Vec<usize>,
    regs: Vec<Vec<u64>>,
    sbs: Vec<VecDeque<(Var, u64)>>,
    mem: BTreeMap<Var, u64>,
}

impl State {
    fn initial(test: &LitmusTest) -> State {
        State {
            pcs: vec![0; test.threads.len()],
            regs: test.threads.iter().map(|_| Vec::new()).collect(),
            sbs: test.threads.iter().map(|_| VecDeque::new()).collect(),
            mem: test.vars().into_iter().map(|v| (v, 0)).collect(),
        }
    }

    fn is_final(&self, test: &LitmusTest) -> bool {
        self.pcs
            .iter()
            .enumerate()
            .all(|(t, &pc)| pc == test.threads[t].len() && self.sbs[t].is_empty())
    }
}

/// Enumerates every final outcome of `test` under `policy` by exhaustive
/// depth-first search over all interleavings of thread steps and
/// store-buffer drains (with state memoization). RMWs are desugared to
/// their fenced-exchange sequence first — the same expansion the
/// cycle-level lowering uses, so both machines run the same program.
fn reference(test: &LitmusTest, policy: ForwardPolicy) -> OutcomeSet {
    let desugared = test.desugared();
    let test = &desugared;
    let mut outcomes = OutcomeSet::new();
    let mut seen: HashSet<State> = HashSet::new();
    let mut stack = vec![State::initial(test)];
    while let Some(s) = stack.pop() {
        if !seen.insert(s.clone()) {
            continue;
        }
        if s.is_final(test) {
            outcomes.insert(Outcome {
                regs: s.regs.clone(),
                mem: s.mem.clone(),
            });
            continue;
        }
        for t in 0..test.threads.len() {
            // Transition 1: thread t executes its next instruction.
            if s.pcs[t] < test.threads[t].len() {
                match test.threads[t][s.pcs[t]] {
                    LOp::St(v, val) => {
                        let mut n = s.clone();
                        n.sbs[t].push_back((v, val));
                        n.pcs[t] += 1;
                        stack.push(n);
                    }
                    LOp::Ld(v) => {
                        let local = s.sbs[t].iter().rev().find(|(sv, _)| *sv == v);
                        match (policy, local) {
                            (ForwardPolicy::X86, Some(&(_, val))) => {
                                // Mandatory store-to-load forwarding.
                                let mut n = s.clone();
                                n.regs[t].push(val);
                                n.pcs[t] += 1;
                                stack.push(n);
                            }
                            (ForwardPolicy::StoreAtomic370, Some(_)) => {
                                // Blocked until the matching store drains
                                // (the drain transition will unblock it).
                            }
                            (_, None) => {
                                let mut n = s.clone();
                                let val = *s.mem.get(&v).unwrap_or(&0);
                                n.regs[t].push(val);
                                n.pcs[t] += 1;
                                stack.push(n);
                            }
                        }
                    }
                    LOp::Fence => {
                        if s.sbs[t].is_empty() {
                            let mut n = s.clone();
                            n.pcs[t] += 1;
                            stack.push(n);
                        }
                    }
                    LOp::Rmw(..) => unreachable!("RMWs are desugared before exploration"),
                }
            }
            // Transition 2: thread t's store buffer drains one entry
            // (this is the store's single global commit instant —
            // write-atomic by construction).
            if !s.sbs[t].is_empty() {
                let mut n = s.clone();
                let (v, val) = n.sbs[t].pop_front().expect("non-empty SB");
                n.mem.insert(v, val);
                stack.push(n);
            }
        }
    }
    outcomes
}

/// Asserts `explore == reference` under both policies for every program;
/// returns the number of (program, policy) pairs checked.
fn assert_agree<'a>(label: &str, programs: impl IntoIterator<Item = &'a LitmusTest>) -> usize {
    let mut pairs = 0;
    for (i, test) in programs.into_iter().enumerate() {
        for policy in POLICIES {
            let want = reference(test, policy);
            let got = explore(test, policy);
            assert!(
                got == want,
                "{label} #{i} ({}) under {policy:?}: explore gave {} outcomes, reference {}\n\
                 program:\n{}\nonly in explore: {:?}\nonly in reference: {:?}",
                test.name,
                got.len(),
                want.len(),
                test.render(),
                got.difference(&want),
                want.difference(&got),
            );
            pairs += 1;
        }
    }
    pairs
}

#[test]
fn agrees_with_reference_on_suite_and_probes() {
    let suite: Vec<LitmusTest> = suite::all().into_iter().map(|ct| ct.test).collect();
    assert_agree("suite", &suite);
    assert_agree("probe", &suite::probes());
}

#[test]
fn agrees_with_reference_on_generated_programs() {
    // At most 3 threads: the default config's 7–8-thread tail takes the
    // reference minutes in a debug build (the release sweep below covers it).
    let cfg = GenConfig {
        max_threads: 3,
        ..GenConfig::default()
    };
    let corpus: Vec<LitmusTest> = CorpusStream::new(1, cfg).take(200).collect();
    assert_eq!(assert_agree("generated", &corpus), 400);
}

/// The explored corpus of the service benchmark (the first 150
/// canonically distinct programs of the farm's generator at seed 4), then
/// generator variants that move the state space: no RMWs, fewer and more
/// variables, a wider value range.
#[test]
#[ignore = "release-build sweep; about a minute"]
fn agrees_with_reference_on_wide_sweep() {
    let mut distinct = HashSet::new();
    let serve: Vec<LitmusTest> = CorpusStream::new(4, GenConfig::default())
        .filter(|t| distinct.insert(canonicalize(t).key))
        .take(150)
        .collect();
    let mut pairs = assert_agree("serve corpus", &serve);
    let base = GenConfig::default();
    let variants = [
        GenConfig {
            rmw: false,
            ..base.clone()
        },
        GenConfig {
            vars: 2,
            ..base.clone()
        },
        GenConfig {
            vars: 4,
            ..base.clone()
        },
        GenConfig {
            max_value: 3,
            ..base.clone()
        },
    ];
    for (seed, cfg) in (11..).zip(variants) {
        let label = format!("{cfg:?}");
        let corpus: Vec<LitmusTest> = CorpusStream::new(seed, cfg).take(250).collect();
        pairs += assert_agree(&label, &corpus);
    }
    assert_eq!(pairs, 2_300);
}
