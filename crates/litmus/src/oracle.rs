//! The axiomatic memory-model oracle for differential fuzzing.
//!
//! Wraps the exhaustive operational explorer ([`crate::machine::explore`])
//! with a memoization cache and the mapping from simulator configurations
//! ([`ConsistencyModel`]) to reference models ([`ForwardPolicy`]): x86
//! runs are judged against x86-TSO, every 370 variant against
//! store-atomic TSO. A cycle-level run is correct when its final state
//! is *contained* in the reference model's allowed set — the oracle never
//! requires the simulator to produce every allowed outcome (a pipeline
//! has fixed timing), only to never produce a forbidden one.

use sa_isa::{ConsistencyModel, FastMap};

use crate::ast::{LOp, LitmusTest};
use crate::machine::{explore, ForwardPolicy};
use crate::outcome::{Outcome, OutcomeSet};

/// Maps a simulator configuration to the axiomatic model it must satisfy.
/// x86 is judged against x86-TSO; every 370 variant — speculative or not
/// — claims external store atomicity, so all are judged against the
/// store-atomic model. This mapping *is* the paper's thesis: if any
/// SA-speculation config produces an outcome outside the store-atomic
/// set, the enforcement mechanism is broken.
pub fn policy_for(model: ConsistencyModel) -> ForwardPolicy {
    if model.is_store_atomic() {
        ForwardPolicy::StoreAtomic370
    } else {
        ForwardPolicy::X86
    }
}

/// A memoizing oracle: `allowed` explores each `(program, policy)` pair
/// at most once. The fuzzer replays one program on 5 configs and many
/// pad vectors, so the cache turns ~dozens of explorations per program
/// into two.
#[derive(Debug, Default)]
pub struct Oracle {
    cache: FastMap<(Vec<Vec<LOp>>, ForwardPolicy), OutcomeSet>,
    hits: u64,
    misses: u64,
}

impl Oracle {
    /// Fresh oracle with an empty cache.
    pub fn new() -> Oracle {
        Oracle::default()
    }

    /// All outcomes of `test` the axiomatic `policy` allows.
    pub fn allowed(&mut self, test: &LitmusTest, policy: ForwardPolicy) -> &OutcomeSet {
        let key = (test.threads.clone(), policy);
        if self.cache.contains_key(&key) {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.cache
            .entry(key)
            .or_insert_with(|| explore(test, policy))
    }

    /// All outcomes allowed for a run under simulator config `model`.
    pub fn allowed_for(&mut self, test: &LitmusTest, model: ConsistencyModel) -> &OutcomeSet {
        self.allowed(test, policy_for(model))
    }

    /// `true` when `outcome` is allowed for `model` — the containment
    /// check the differential fuzzer asserts for every run.
    pub fn permits(
        &mut self,
        test: &LitmusTest,
        model: ConsistencyModel,
        outcome: &Outcome,
    ) -> bool {
        self.allowed_for(test, model).contains(outcome)
    }

    /// Number of distinct `(program, policy)` pairs explored so far.
    pub fn explored(&self) -> usize {
        self.cache.len()
    }

    /// Queries answered from the memo cache without exploring.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Queries that had to run the explorer.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Renders both reference models' allowed sets for one program as the
/// repository's golden document format (`tests/golden/oracle_*.txt`):
/// a `# name` header, the rendered program as `#` comment lines, then
/// for each policy a `[{policy:?}] N outcomes` banner followed by one
/// outcome per line in sorted order. The sa-serve job service replies
/// with this exact document, so an HTTP answer for a suite test is
/// byte-comparable against its golden file.
pub fn render_allowed_doc(
    name: &str,
    test: &LitmusTest,
    x86: &OutcomeSet,
    atomic: &OutcomeSet,
) -> String {
    use std::fmt::Write as _;
    let mut doc = String::new();
    writeln!(doc, "# {name}").unwrap();
    for line in test.render().lines() {
        writeln!(doc, "# {line}").unwrap();
    }
    for (policy, set) in [
        (ForwardPolicy::X86, x86),
        (ForwardPolicy::StoreAtomic370, atomic),
    ] {
        writeln!(doc, "[{policy:?}] {} outcomes", set.len()).unwrap();
        for o in set.iter() {
            writeln!(doc, "{o}").unwrap();
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    #[test]
    fn policy_mapping_follows_store_atomicity() {
        for model in ConsistencyModel::ALL {
            let expect = if model == ConsistencyModel::X86 {
                ForwardPolicy::X86
            } else {
                ForwardPolicy::StoreAtomic370
            };
            assert_eq!(policy_for(model), expect, "{}", model.label());
        }
    }

    #[test]
    fn memoizes_repeated_queries() {
        let mut o = Oracle::new();
        let n6 = suite::n6().test;
        let first = o.allowed_for(&n6, ConsistencyModel::X86).len();
        assert_eq!(o.explored(), 1);
        for model in ConsistencyModel::ALL {
            o.allowed_for(&n6, model);
        }
        // x86 + one shared store-atomic entry.
        assert_eq!(o.explored(), 2);
        assert_eq!(o.allowed_for(&n6, ConsistencyModel::X86).len(), first);
        // 7 queries total: 2 explored, 5 served from the memo cache.
        assert_eq!(o.misses(), 2);
        assert_eq!(o.hits(), 5);
    }

    #[test]
    fn allowed_doc_matches_the_golden_shape() {
        let mut o = Oracle::new();
        let n6 = suite::n6().test;
        let x86 = o.allowed(&n6, ForwardPolicy::X86).clone();
        let ibm = o.allowed(&n6, ForwardPolicy::StoreAtomic370).clone();
        let doc = render_allowed_doc("n6", &n6, &x86, &ibm);
        assert!(doc.starts_with("# n6\n# T0: st x,1; ld x; ld y\n"));
        assert!(doc.contains(&format!("[X86] {} outcomes\n", x86.len())));
        assert!(doc.contains(&format!("[StoreAtomic370] {} outcomes\n", ibm.len())));
        assert!(doc.ends_with('\n'));
    }

    #[test]
    fn n6_containment_differs_between_models() {
        // The n6 signature outcome: r0=1, r1=0, x=1, y=2 — allowed on
        // x86, forbidden on every store-atomic config.
        let mut o = Oracle::new();
        let ct = suite::n6();
        let witness = o
            .allowed_for(&ct.test, ConsistencyModel::X86)
            .iter()
            .find(|out| out.matches(&ct.condition))
            .cloned()
            .expect("x86 allows the n6 outcome");
        assert!(o.permits(&ct.test, ConsistencyModel::X86, &witness));
        for model in ConsistencyModel::ALL {
            if model.is_store_atomic() {
                assert!(
                    !o.permits(&ct.test, model, &witness),
                    "{}: must forbid the n6 outcome",
                    model.label()
                );
            }
        }
    }

    #[test]
    fn every_store_atomic_outcome_is_x86_allowed() {
        // Containment sanity on the whole suite: the store-atomic set is
        // a subset of x86's, so a correct 370 run always passes the x86
        // oracle too (the converse is the interesting direction).
        let mut o = Oracle::new();
        for ct in suite::all() {
            let ibm = o.allowed(&ct.test, ForwardPolicy::StoreAtomic370).clone();
            let x86 = o.allowed(&ct.test, ForwardPolicy::X86);
            assert!(ibm.is_subset(x86), "{}", ct.test.name);
        }
    }
}
