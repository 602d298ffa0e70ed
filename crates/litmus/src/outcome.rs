//! Outcomes (final register and memory states) and outcome sets.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Cond, Var};

/// One final machine state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Outcome {
    /// `regs[t][i]`: value read by the `i`-th load of thread `t`.
    pub regs: Vec<Vec<u64>>,
    /// Final memory.
    pub mem: BTreeMap<Var, u64>,
}

impl Outcome {
    /// `true` when this outcome satisfies `cond`.
    pub fn matches(&self, cond: &Cond) -> bool {
        cond.regs
            .iter()
            .all(|&(t, slot, v)| self.regs.get(t).and_then(|r| r.get(slot)) == Some(&v))
            && cond
                .mem
                .iter()
                .all(|&(var, v)| self.mem.get(&var) == Some(&v))
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (t, regs) in self.regs.iter().enumerate() {
            for (i, v) in regs.iter().enumerate() {
                if !first {
                    write!(f, " ")?;
                }
                write!(f, "{t}:r{i}={v}")?;
                first = false;
            }
        }
        for (var, v) in &self.mem {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "[{var}]={v}")?;
            first = false;
        }
        Ok(())
    }
}

/// The set of all final outcomes of a test under one model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutcomeSet {
    set: BTreeSet<Outcome>,
}

impl OutcomeSet {
    /// An empty set.
    pub fn new() -> OutcomeSet {
        OutcomeSet::default()
    }

    /// Inserts an outcome; returns `true` if it was new.
    pub fn insert(&mut self, o: Outcome) -> bool {
        self.set.insert(o)
    }

    /// Number of distinct outcomes.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// `true` when `o` is in the set (an O(log n) lookup).
    pub fn contains(&self, o: &Outcome) -> bool {
        self.set.contains(o)
    }

    /// Iterates in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = &Outcome> {
        self.set.iter()
    }

    /// `true` when some outcome satisfies `cond` (the condition is
    /// *observable* / allowed).
    pub fn contains_matching(&self, cond: &Cond) -> bool {
        self.set.iter().any(|o| o.matches(cond))
    }

    /// Outcomes present here but not in `other`.
    pub fn difference(&self, other: &OutcomeSet) -> Vec<&Outcome> {
        self.set
            .iter()
            .filter(|o| !other.set.contains(*o))
            .collect()
    }

    /// `true` when `other` contains every outcome of this set.
    pub fn is_subset(&self, other: &OutcomeSet) -> bool {
        self.set.is_subset(&other.set)
    }
}

impl FromIterator<Outcome> for OutcomeSet {
    fn from_iter<T: IntoIterator<Item = Outcome>>(iter: T) -> OutcomeSet {
        OutcomeSet {
            set: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{X, Y};

    fn outcome(r00: u64, r01: u64) -> Outcome {
        Outcome {
            regs: vec![vec![r00, r01]],
            mem: [(X, 1), (Y, 2)].into_iter().collect(),
        }
    }

    #[test]
    fn matching_conditions() {
        let o = outcome(1, 0);
        assert!(o.matches(&Cond::new().reg(0, 0, 1).reg(0, 1, 0)));
        assert!(o.matches(&Cond::new().mem(X, 1).mem(Y, 2)));
        assert!(!o.matches(&Cond::new().reg(0, 0, 0)));
        assert!(!o.matches(&Cond::new().mem(X, 9)));
        assert!(
            !o.matches(&Cond::new().reg(3, 0, 1)),
            "missing thread never matches"
        );
        assert!(o.matches(&Cond::new()), "empty condition matches");
    }

    #[test]
    fn set_operations() {
        let mut a = OutcomeSet::new();
        assert!(a.insert(outcome(1, 0)));
        assert!(!a.insert(outcome(1, 0)), "duplicates collapse");
        a.insert(outcome(1, 1));
        let b: OutcomeSet = vec![outcome(1, 1)].into_iter().collect();
        assert!(b.contains(&outcome(1, 1)));
        assert!(!b.contains(&outcome(1, 0)));
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
        let diff = a.difference(&b);
        assert_eq!(diff.len(), 1);
        assert_eq!(diff[0].regs[0], vec![1, 0]);
        assert!(a.contains_matching(&Cond::new().reg(0, 1, 0)));
        assert!(!a.contains_matching(&Cond::new().reg(0, 0, 7)));
    }

    #[test]
    fn display_format() {
        let o = outcome(1, 0);
        let s = o.to_string();
        assert!(s.contains("0:r0=1"));
        assert!(s.contains("0:r1=0"));
        assert!(s.contains("[x]=1"));
        assert!(s.contains("[y]=2"));
    }
}
