//! The aggregated per-phase wall-time tree.
//!
//! A [`ProfileTree`] is an arena of [`ProfileNode`]s keyed by phase
//! name and position: the same `&'static str` entered under the same
//! parent always aggregates into the same node, so a million
//! `retire` spans cost one node with a count of a million — the tree's
//! size is bounded by the number of *distinct phase paths*, not by how
//! often they run. Each node keeps total nanoseconds, an entry count,
//! and a [`Log2Hist`] of per-entry durations for p50/p95/p99.
//!
//! Export comes in three shapes, matching the three consumers:
//!
//! * [`ProfileTree::to_json`] — nested tree with self/total/quantiles,
//!   served by `GET /profile` and written by `perf`;
//! * [`ProfileTree::folded`] — Brendan-Gregg folded-stack lines
//!   (`a;b;c <self_ns>`), one flamegraph collapse away from a picture;
//! * [`ProfileTree::to_chrome`] — sequential slice layout through
//!   `sa-trace`'s Chrome writer, loadable in Perfetto.

use sa_metrics::Log2Hist;
use sa_trace::HostSpan;

/// One aggregated phase: every entry of `name` under the same parent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileNode {
    /// Phase name (one path component).
    pub name: String,
    /// Sum of wall nanoseconds across all entries.
    pub total_ns: u64,
    /// Number of entries.
    pub count: u64,
    /// Per-entry duration distribution.
    pub hist: Log2Hist,
    children: Vec<usize>,
}

/// An arena-allocated tree of aggregated phases.
///
/// Child order is insertion order and is preserved by [`merge`]
/// (existing children keep their position, new ones append), so two
/// runs that enter phases in the same order produce identical trees —
/// the determinism the span-tree tests pin down.
///
/// [`merge`]: ProfileTree::merge
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileTree {
    nodes: Vec<ProfileNode>,
    roots: Vec<usize>,
}

impl ProfileTree {
    /// An empty tree.
    pub fn new() -> ProfileTree {
        ProfileTree::default()
    }

    /// `true` when no phase has ever been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of distinct phase-path nodes in the arena.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The root node indices, in first-entered order.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// The node at `idx`.
    pub fn node(&self, idx: usize) -> &ProfileNode {
        &self.nodes[idx]
    }

    /// The children of `idx`, in first-entered order.
    pub fn children(&self, idx: usize) -> &[usize] {
        &self.nodes[idx].children
    }

    /// Finds or creates the child of `parent` (`None` = root level)
    /// named `name`, returning its index.
    pub fn child(&mut self, parent: Option<usize>, name: &str) -> usize {
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&idx) = siblings.iter().find(|&&i| self.nodes[i].name == name) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(ProfileNode {
            name: name.to_string(),
            ..ProfileNode::default()
        });
        match parent {
            Some(p) => self.nodes[p].children.push(idx),
            None => self.roots.push(idx),
        }
        idx
    }

    /// Records one entry of `ns` nanoseconds against node `idx`.
    #[inline]
    pub fn record(&mut self, idx: usize, ns: u64) {
        let n = &mut self.nodes[idx];
        n.total_ns = n.total_ns.saturating_add(ns);
        n.count += 1;
        n.hist.observe(ns);
    }

    /// Total nanoseconds across all roots — the tree's account of the
    /// wall time it observed.
    pub fn total_ns(&self) -> u64 {
        self.roots
            .iter()
            .fold(0u64, |a, &r| a.saturating_add(self.nodes[r].total_ns))
    }

    /// Node `idx`'s *self* time: total minus its children's totals
    /// (clamped at zero — a child measured concurrently or recorded
    /// manually can nominally exceed its parent).
    pub fn self_ns(&self, idx: usize) -> u64 {
        let kids: u64 = self.nodes[idx]
            .children
            .iter()
            .fold(0u64, |a, &c| a.saturating_add(self.nodes[c].total_ns));
        self.nodes[idx].total_ns.saturating_sub(kids)
    }

    /// Looks a node up by path, e.g. `&["event", "memsys"]`.
    pub fn find(&self, path: &[&str]) -> Option<&ProfileNode> {
        let mut level: &[usize] = &self.roots;
        let mut found = None;
        for name in path {
            let &idx = level.iter().find(|&&i| self.nodes[i].name == *name)?;
            found = Some(idx);
            level = &self.nodes[idx].children;
        }
        found.map(|i| &self.nodes[i])
    }

    fn merge_node(&mut self, parent: Option<usize>, other: &ProfileTree, o_idx: usize) {
        let o = &other.nodes[o_idx];
        let idx = self.child(parent, &o.name);
        let n = &mut self.nodes[idx];
        n.total_ns = n.total_ns.saturating_add(o.total_ns);
        n.count += o.count;
        n.hist.merge(&o.hist);
        for &c in &other.nodes[o_idx].children {
            self.merge_node(Some(idx), other, c);
        }
    }

    /// Folds `other` into this tree, matching nodes by path.
    pub fn merge(&mut self, other: &ProfileTree) {
        for &r in &other.roots {
            self.merge_node(None, other, r);
        }
    }

    /// Folds `other` in as the subtree of a root named `label`,
    /// creating it if needed. The label node's total grows by `other`'s
    /// root total and its count by one — so merging each bench cell
    /// under its own label yields a per-cell breakdown whose roots sum
    /// to the whole sweep.
    pub fn merge_under(&mut self, label: &str, other: &ProfileTree) {
        let idx = self.child(None, label);
        let total = other.total_ns();
        let n = &mut self.nodes[idx];
        n.total_ns = n.total_ns.saturating_add(total);
        n.count += 1;
        n.hist.observe(total);
        for &r in &other.roots {
            self.merge_node(Some(idx), other, r);
        }
    }

    fn json_node(&self, idx: usize, out: &mut String) {
        let n = &self.nodes[idx];
        let (p50, p95, p99) = n.hist.p50_p95_p99();
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"total_ns\":{},\"self_ns\":{},\"count\":{},\
             \"p50_ns\":{:.0},\"p95_ns\":{:.0},\"p99_ns\":{:.0},\"children\":[",
            esc(&n.name),
            n.total_ns,
            self.self_ns(idx),
            n.count,
            p50,
            p95,
            p99,
        ));
        for (i, &c) in n.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            self.json_node(c, out);
        }
        out.push_str("]}");
    }

    /// Serializes the tree as JSON:
    /// `{"total_ns":N,"roots":[{name,total_ns,self_ns,count,p50_ns,p95_ns,p99_ns,children:[…]}…]}`.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"total_ns\":{},\"roots\":[", self.total_ns());
        for (i, &r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            self.json_node(r, &mut out);
        }
        out.push_str("]}");
        out
    }

    fn folded_node(&self, idx: usize, prefix: &str, out: &mut String) {
        let n = &self.nodes[idx];
        let path = if prefix.is_empty() {
            n.name.clone()
        } else {
            format!("{prefix};{}", n.name)
        };
        let self_ns = self.self_ns(idx);
        if self_ns > 0 || n.children.is_empty() {
            out.push_str(&format!("{path} {self_ns}\n"));
        }
        for &c in &n.children {
            self.folded_node(c, &path, out);
        }
    }

    /// Folded-stack lines (`a;b;c <self_ns>`), the input format of
    /// every flamegraph renderer. Nodes whose self time is zero are
    /// omitted unless they are leaves.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for &r in &self.roots {
            self.folded_node(r, "", &mut out);
        }
        out
    }

    fn layout_node(&self, idx: usize, ts: u64, out: &mut Vec<HostSpan>) {
        let n = &self.nodes[idx];
        out.push(HostSpan {
            name: n.name.clone(),
            ts_ns: ts,
            dur_ns: n.total_ns,
            count: n.count,
        });
        let mut off = ts;
        for &c in &n.children {
            self.layout_node(c, off, out);
            off = off.saturating_add(self.nodes[c].total_ns);
        }
    }

    /// Lays the tree out as sequential Chrome slices (children packed
    /// left-to-right inside their parent) and renders them through
    /// `sa-trace`'s writer — drag the result into `ui.perfetto.dev`.
    pub fn to_chrome(&self) -> String {
        let mut spans = Vec::new();
        let mut off = 0u64;
        for &r in &self.roots {
            self.layout_node(r, off, &mut spans);
            off = off.saturating_add(self.nodes[r].total_ns);
        }
        sa_trace::export_chrome_host_spans(&spans)
    }
}

fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfileTree {
        let mut t = ProfileTree::new();
        let run = t.child(None, "run");
        let retire = t.child(Some(run), "retire");
        let sched = t.child(Some(run), "schedule");
        t.record(run, 1000);
        t.record(retire, 300);
        t.record(retire, 100);
        t.record(sched, 200);
        t
    }

    #[test]
    fn aggregation_dedups_by_path() {
        let mut t = sample();
        // Re-entering the same name under the same parent reuses the node.
        let run = t.child(None, "run");
        let again = t.child(Some(run), "retire");
        t.record(again, 50);
        let retire = t.find(&["run", "retire"]).expect("path exists");
        assert_eq!(retire.count, 3);
        assert_eq!(retire.total_ns, 450);
        // Same name under a different parent is a different node.
        let other = t.child(None, "retire");
        t.record(other, 7);
        assert_eq!(t.find(&["retire"]).expect("root retire").total_ns, 7);
        assert_eq!(t.find(&["run", "retire"]).expect("nested").total_ns, 450);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = sample();
        let run = t.roots()[0];
        assert_eq!(t.node(run).total_ns, 1000);
        assert_eq!(t.self_ns(run), 1000 - 400 - 200);
        assert_eq!(t.total_ns(), 1000);
    }

    #[test]
    fn merge_is_additive_and_order_preserving() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.total_ns(), 2000);
        assert_eq!(a.find(&["run", "retire"]).expect("retire").count, 4);
        // Child order unchanged by the merge.
        let run = a.roots()[0];
        let names: Vec<&str> = a
            .children(run)
            .iter()
            .map(|&c| a.node(c).name.as_str())
            .collect();
        assert_eq!(names, ["retire", "schedule"]);
    }

    #[test]
    fn merge_is_deterministic() {
        let mut a = sample();
        a.merge(&sample());
        let mut b = sample();
        b.merge(&sample());
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.folded(), b.folded());
    }

    #[test]
    fn merge_under_labels_scopes() {
        let mut g = ProfileTree::new();
        g.merge_under("cell/mp", &sample());
        g.merge_under("cell/mp", &sample());
        g.merge_under("cell/n6", &sample());
        let mp = g.find(&["cell/mp"]).expect("label node");
        assert_eq!(mp.total_ns, 2000);
        assert_eq!(mp.count, 2, "one count per merged scope");
        assert_eq!(
            g.find(&["cell/mp", "run", "retire"]).expect("graft").count,
            4
        );
        assert_eq!(g.total_ns(), 3000);
    }

    #[test]
    fn json_has_quantiles_and_balances() {
        let j = sample().to_json();
        assert!(j.contains("\"total_ns\":1000"));
        assert!(j.contains("\"name\":\"run\""));
        assert!(j.contains("\"self_ns\":400"));
        assert!(j.contains("\"p95_ns\":"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn folded_stacks_use_self_time() {
        let f = sample().folded();
        let lines: Vec<&str> = f.lines().collect();
        assert!(lines.contains(&"run 400"));
        assert!(lines.contains(&"run;retire 400"));
        assert!(lines.contains(&"run;schedule 200"));
        // Every line is `path space integer`.
        for l in &lines {
            let (path, v) = l.rsplit_once(' ').expect("space separator");
            assert!(!path.is_empty());
            v.parse::<u64>().expect("numeric self time");
        }
    }

    #[test]
    fn chrome_layout_nests_children_inside_parent() {
        let c = sample().to_chrome();
        assert!(c.contains("\"name\":\"run\""));
        assert!(c.contains("\"name\":\"retire\""));
        // run spans [0, 1.000µs); retire packs first at ts 0 with 0.4µs.
        assert!(c.contains("\"ts\":0.000,\"dur\":1.000"));
        assert!(c.contains("\"ts\":0.000,\"dur\":0.400"));
        assert!(c.contains("\"ts\":0.400,\"dur\":0.200"));
    }
}
