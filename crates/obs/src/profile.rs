//! Hierarchical span profiler: wall-clock attribution of engine phases
//! and their nested sub-phases.
//!
//! The engine's slot loop has four core phases — traffic generation,
//! admission, scheduling (the switch's `run_slot`), and statistics, plus
//! persistence and observation when those are attached — and the `profile`
//! subcommand wants to know where the time goes *inside* them as well:
//! the schedule phase decomposes into VOQ scanning, request building,
//! grant arbitration and commit. [`PhaseProfiler`] keeps a span stack and
//! a span *tree*: every distinct `(parent, name)` pair is its own node
//! with true *inclusive* and *exclusive* nanoseconds, so a parent's
//! inclusive time always equals its exclusive time plus the inclusive
//! times of its children.
//!
//! Two recording paths feed the tree:
//!
//! * [`enter`](PhaseProfiler::enter) / [`exit`](PhaseProfiler::exit) —
//!   straight-line spans opened and closed around engine code;
//! * [`record_child`](PhaseProfiler::record_child) — pre-measured
//!   sub-spans reported by a switch (via `Switch::drain_spans`) after its
//!   enclosing span already closed. The child's time is re-attributed
//!   from the parent's exclusive total, keeping the tree sum-consistent.
//!
//! The profiler also keeps a log₂ histogram of per-slot wall times
//! ([`record_slot_ns`](PhaseProfiler::record_slot_ns)), surfacing tail
//! stalls (p99/p999/max) that per-phase means hide.
//!
//! Overhead: two `Instant::now()` calls per span plus a linear scan of
//! the parent's (few) children. To keep the measured run representative,
//! the engine samples — it profiles every k-th slot and scales counts,
//! rather than paying clock reads on every slot. The profiler itself is
//! single-threaded (`&mut self`); each profiled run owns one.

use crate::json::Json;
use fifoms_stats::Log2Histogram;
use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated timing for one named phase.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct PhaseStats {
    /// Number of spans recorded for this phase.
    pub calls: u64,
    /// Total wall time inside the phase, including nested phases (ns).
    pub inclusive_ns: u64,
    /// Total wall time inside the phase, excluding nested phases (ns).
    pub exclusive_ns: u64,
}

/// One node of the span tree: a distinct `(parent, name)` pair.
#[derive(Debug)]
struct SpanNode {
    name: &'static str,
    /// Children in first-seen order; linear scans are fine because real
    /// span trees have a handful of children per node.
    children: Vec<usize>,
    stats: PhaseStats,
}

#[derive(Debug)]
struct OpenSpan {
    node: usize,
    started: Instant,
    child_ns: u64,
}

/// A stack-based wall-clock profiler over a tree of named spans.
#[derive(Default, Debug)]
pub struct PhaseProfiler {
    /// Arena of span nodes; identity is the `(parent, name)` path, so
    /// the same name under two parents is two nodes. Queries by name
    /// ([`stats`](Self::stats), [`phases`](Self::phases)) aggregate.
    nodes: Vec<SpanNode>,
    /// Root nodes (spans opened at stack depth 0), in first-seen order.
    roots: Vec<usize>,
    stack: Vec<OpenSpan>,
    slot_times: Log2Histogram,
}

impl PhaseProfiler {
    /// A new profiler with no recorded spans.
    pub fn new() -> Self {
        Self::default()
    }

    /// Find or create the child of `parent` (`None` = root) named `name`.
    fn node_for(&mut self, parent: Option<usize>, name: &'static str) -> usize {
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&idx) = siblings.iter().find(|&&i| self.nodes[i].name == name) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(SpanNode {
            name,
            children: Vec::new(),
            stats: PhaseStats::default(),
        });
        match parent {
            Some(p) => self.nodes[p].children.push(idx),
            None => self.roots.push(idx),
        }
        idx
    }

    /// Open a span for `name`. Spans may nest; a child's time is charged
    /// to its own exclusive total and to every ancestor's inclusive total.
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.stack.last().map(|s| s.node);
        let node = self.node_for(parent, name);
        self.stack.push(OpenSpan {
            node,
            started: Instant::now(),
            child_ns: 0,
        });
    }

    /// Close the innermost span. `name` must match the matching
    /// [`enter`](Self::enter); a mismatch is a bug in the caller and
    /// panics (the profiler is only used from straight-line engine code).
    pub fn exit(&mut self, name: &'static str) {
        let span = self.stack.pop().expect("PhaseProfiler::exit with empty stack");
        let node_name = self.nodes[span.node].name;
        assert_eq!(
            node_name, name,
            "unbalanced profiler spans: exit({name}) closes enter({node_name})"
        );
        let elapsed = span.started.elapsed().as_nanos() as u64;
        let entry = &mut self.nodes[span.node].stats;
        entry.calls += 1;
        entry.inclusive_ns += elapsed;
        entry.exclusive_ns += elapsed.saturating_sub(span.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += elapsed;
        }
    }

    /// Time `f` as one span of `name` and return its result.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit(name);
        out
    }

    /// Current depth of open spans (0 when balanced).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Attach one pre-measured span of `ns` nanoseconds as a child of the
    /// (closed) span named `parent`, re-attributing the time from the
    /// parent's exclusive total.
    ///
    /// This is how externally measured sub-phases enter the tree: a
    /// switch times its scheduling sub-phases itself (it cannot borrow
    /// the profiler mid-`run_slot`) and reports them after the engine's
    /// `schedule` span has closed. If several nodes share `parent`'s
    /// name, the first-seen one receives the child. Creates the parent
    /// as a root if it was never entered (so reports are never lost).
    pub fn record_child(&mut self, parent: &'static str, child: &'static str, ns: u64) {
        let parent_idx = match self.find_by_name(parent) {
            Some(idx) => idx,
            None => self.node_for(None, parent),
        };
        let child_idx = self.node_for(Some(parent_idx), child);
        let stats = &mut self.nodes[child_idx].stats;
        stats.calls += 1;
        stats.inclusive_ns += ns;
        stats.exclusive_ns += ns;
        let parent_stats = &mut self.nodes[parent_idx].stats;
        parent_stats.exclusive_ns = parent_stats.exclusive_ns.saturating_sub(ns);
    }

    /// First node (in creation order) named `name`, if any.
    fn find_by_name(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Record one sampled slot's total wall time.
    pub fn record_slot_ns(&mut self, ns: u64) {
        self.slot_times.record(ns);
    }

    /// The per-slot wall-time distribution over the sampled slots.
    pub fn slot_times(&self) -> &Log2Histogram {
        &self.slot_times
    }

    /// Accumulated stats for `name`, aggregated over every tree node of
    /// that name, if any span of it has closed.
    pub fn stats(&self, name: &str) -> Option<PhaseStats> {
        let mut agg = PhaseStats::default();
        let mut found = false;
        for node in &self.nodes {
            if node.name == name && node.stats != PhaseStats::default() {
                found = true;
                agg.calls += node.stats.calls;
                agg.inclusive_ns += node.stats.inclusive_ns;
                agg.exclusive_ns += node.stats.exclusive_ns;
            }
        }
        found.then_some(agg)
    }

    /// All phase names, sorted, each aggregated over its tree nodes.
    pub fn phases(&self) -> impl Iterator<Item = (&'static str, PhaseStats)> + '_ {
        let mut agg: BTreeMap<&'static str, PhaseStats> = BTreeMap::new();
        for node in &self.nodes {
            if node.stats == PhaseStats::default() {
                continue;
            }
            let e = agg.entry(node.name).or_default();
            e.calls += node.stats.calls;
            e.inclusive_ns += node.stats.inclusive_ns;
            e.exclusive_ns += node.stats.exclusive_ns;
        }
        agg.into_iter()
    }

    /// Snapshot as a JSON array of per-span objects: depth-first over
    /// the tree, siblings sorted by name. Each object carries the flat
    /// v1 fields (`phase`, `calls`, `inclusive_ns`, `exclusive_ns`) plus
    /// the node's `path` (names joined with `/`) and `depth`, so nested
    /// spans are unambiguous while v1 consumers keep working.
    pub fn snapshot(&self) -> Json {
        let mut out = Vec::new();
        let mut roots: Vec<usize> = self.roots.clone();
        roots.sort_by_key(|&i| self.nodes[i].name);
        for root in roots {
            self.snapshot_node(root, "", 0, &mut out);
        }
        Json::Arr(out)
    }

    fn snapshot_node(&self, idx: usize, prefix: &str, depth: u64, out: &mut Vec<Json>) {
        let node = &self.nodes[idx];
        let path = if prefix.is_empty() {
            node.name.to_string()
        } else {
            format!("{prefix}/{}", node.name)
        };
        if node.stats != PhaseStats::default() {
            let mut obj = Json::object();
            obj.set("phase", node.name);
            obj.set("calls", node.stats.calls);
            obj.set("inclusive_ns", node.stats.inclusive_ns);
            obj.set("exclusive_ns", node.stats.exclusive_ns);
            obj.set("path", path.as_str());
            obj.set("depth", depth);
            out.push(obj);
        }
        let mut children = node.children.clone();
        children.sort_by_key(|&i| self.nodes[i].name);
        for child in children {
            self.snapshot_node(child, &path, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_split_exclusive_time() {
        let mut p = PhaseProfiler::new();
        p.enter("outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.exit("inner");
        p.exit("outer");
        assert_eq!(p.depth(), 0);

        let outer = p.stats("outer").unwrap();
        let inner = p.stats("inner").unwrap();
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        // inner is fully contained in outer
        assert!(outer.inclusive_ns >= inner.inclusive_ns);
        // outer's exclusive excludes inner's whole inclusive time
        assert!(outer.exclusive_ns <= outer.inclusive_ns - inner.inclusive_ns);
        // leaf spans: exclusive == inclusive
        assert_eq!(inner.exclusive_ns, inner.inclusive_ns);
    }

    #[test]
    fn repeated_spans_accumulate() {
        let mut p = PhaseProfiler::new();
        for _ in 0..3 {
            p.span("work", || std::hint::black_box(17 * 23));
        }
        let s = p.stats("work").unwrap();
        assert_eq!(s.calls, 3);
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn mismatched_exit_panics() {
        let mut p = PhaseProfiler::new();
        p.enter("a");
        p.exit("b");
    }

    #[test]
    fn snapshot_shape() {
        let mut p = PhaseProfiler::new();
        p.span("stats", || ());
        p.span("traffic", || ());
        let snap = p.snapshot();
        let arr = snap.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        // sorted by name
        assert_eq!(arr[0].get("phase").and_then(Json::as_str), Some("stats"));
        assert_eq!(arr[1].get("phase").and_then(Json::as_str), Some("traffic"));
        for phase in arr {
            assert!(phase.get("calls").and_then(Json::as_f64).unwrap() >= 1.0);
            assert!(phase.get("inclusive_ns").is_some());
            assert!(phase.get("exclusive_ns").is_some());
        }
    }

    #[test]
    fn same_name_under_two_parents_aggregates_by_name() {
        let mut p = PhaseProfiler::new();
        p.enter("a");
        p.span("shared", || ());
        p.exit("a");
        p.enter("b");
        p.span("shared", || ());
        p.span("shared", || ());
        p.exit("b");

        // stats() aggregates both tree nodes named "shared"...
        assert_eq!(p.stats("shared").unwrap().calls, 3);
        // ...while the snapshot keeps them distinct by path.
        let snap = p.snapshot();
        let paths: Vec<String> = snap
            .as_arr()
            .unwrap()
            .iter()
            .map(|o| o.get("path").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(paths, vec!["a", "a/shared", "b", "b/shared"]);
    }

    #[test]
    fn record_child_reattributes_exclusive_time() {
        let mut p = PhaseProfiler::new();
        p.enter("schedule");
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.exit("schedule");
        let before = p.stats("schedule").unwrap();
        assert_eq!(before.inclusive_ns, before.exclusive_ns);

        p.record_child("schedule", "grant", 1_000);
        p.record_child("schedule", "grant", 500);
        p.record_child("schedule", "request", 200);

        let after = p.stats("schedule").unwrap();
        assert_eq!(after.inclusive_ns, before.inclusive_ns, "inclusive untouched");
        assert_eq!(after.exclusive_ns, before.exclusive_ns - 1_700);
        let grant = p.stats("grant").unwrap();
        assert_eq!(grant.calls, 2);
        assert_eq!(grant.inclusive_ns, 1_500);
        assert_eq!(grant.exclusive_ns, 1_500);
        assert_eq!(p.stats("request").unwrap().calls, 1);

        // The tree invariant: parent inclusive == parent exclusive +
        // sum of children inclusive.
        assert_eq!(
            after.inclusive_ns,
            after.exclusive_ns + grant.inclusive_ns + p.stats("request").unwrap().inclusive_ns
        );
    }

    #[test]
    fn snapshot_carries_paths_and_depths() {
        let mut p = PhaseProfiler::new();
        p.enter("schedule");
        p.enter("grant");
        p.exit("grant");
        p.exit("schedule");
        p.span("traffic", || ());
        let snap = p.snapshot();
        let arr = snap.as_arr().unwrap();
        let paths: Vec<(&str, f64)> = arr
            .iter()
            .map(|o| {
                (
                    o.get("path").and_then(Json::as_str).unwrap(),
                    o.get("depth").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        assert_eq!(
            paths,
            vec![("schedule", 0.0), ("schedule/grant", 1.0), ("traffic", 0.0)]
        );
    }

    #[test]
    fn record_child_without_a_parent_creates_a_root() {
        let mut p = PhaseProfiler::new();
        p.record_child("orphan_parent", "child", 10);
        let snap = p.snapshot();
        let arr = snap.as_arr().unwrap();
        // The parent node exists in the tree but has no closed calls, so
        // only the child is reported.
        assert_eq!(arr.len(), 1);
        assert_eq!(
            arr[0].get("path").and_then(Json::as_str),
            Some("orphan_parent/child")
        );
    }

    #[test]
    fn slot_time_histogram_records_tails() {
        let mut p = PhaseProfiler::new();
        assert!(p.slot_times().is_empty());
        for ns in [100u64, 110, 120, 9_000] {
            p.record_slot_ns(ns);
        }
        assert_eq!(p.slot_times().count(), 4);
        assert_eq!(p.slot_times().max(), 9_000);
        assert!(p.slot_times().quantile(0.5) <= 120);
    }
}
