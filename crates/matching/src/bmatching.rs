//! The result type of every matching algorithm: a b-matching.

use crate::problem::Problem;
use crate::satisfaction::{total_satisfaction, total_satisfaction_modified};
use owp_graph::{EdgeId, Graph, NodeId};

/// A many-to-many matching: a subset of edges such that every node `i` is
/// covered at most `b_i` times. Construction validates the quota invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BMatching {
    selected: Vec<bool>,
    connections: Vec<Vec<NodeId>>,
    size: usize,
}

impl BMatching {
    /// The empty matching over `g`.
    pub fn empty(g: &Graph) -> Self {
        BMatching {
            selected: vec![false; g.edge_count()],
            connections: vec![Vec::new(); g.node_count()],
            size: 0,
        }
    }

    /// Builds a matching from selected edge ids, checking quota feasibility
    /// against `problem`.
    ///
    /// # Panics
    /// Panics if an edge is duplicated or some quota is exceeded.
    pub fn from_edges<I: IntoIterator<Item = EdgeId>>(problem: &Problem, edges: I) -> Self {
        let mut m = BMatching::empty(&problem.graph);
        for e in edges {
            m.insert(problem, e);
        }
        m
    }

    /// Adds edge `e`, enforcing quotas.
    pub fn insert(&mut self, problem: &Problem, e: EdgeId) {
        assert!(!self.selected[e.index()], "edge {e:?} selected twice");
        let (u, v) = problem.graph.endpoints(e);
        for x in [u, v] {
            assert!(
                self.connections[x.index()].len() < problem.quotas.get(x) as usize,
                "quota of {x:?} exceeded"
            );
        }
        self.selected[e.index()] = true;
        self.connections[u.index()].push(v);
        self.connections[v.index()].push(u);
        self.size += 1;
    }

    /// Adds edge `e` **without** a quota check — for the dynamic engine's
    /// incremental repair, where selections are revised in global rank order
    /// and a node may transiently hold more connections than its (just
    /// lowered) quota until the repair frontier reaches its lighter edges.
    /// The engine re-establishes the quota invariant before a batch returns;
    /// duplicate insertion still panics.
    pub fn insert_unchecked(&mut self, g: &Graph, e: EdgeId) {
        assert!(!self.selected[e.index()], "edge {e:?} selected twice");
        let (u, v) = g.endpoints(e);
        self.selected[e.index()] = true;
        self.connections[u.index()].push(v);
        self.connections[v.index()].push(u);
        self.size += 1;
    }

    /// Removes edge `e` (used by the churn / dynamics code).
    pub fn remove(&mut self, g: &Graph, e: EdgeId) {
        assert!(self.selected[e.index()], "edge {e:?} not selected");
        let (u, v) = g.endpoints(e);
        self.selected[e.index()] = false;
        self.connections[u.index()].retain(|&x| x != v);
        self.connections[v.index()].retain(|&x| x != u);
        self.size -= 1;
    }

    /// `true` iff edge `e` is in the matching.
    #[inline]
    pub fn contains(&self, e: EdgeId) -> bool {
        self.selected[e.index()]
    }

    /// Matched neighbours of node `i` (the connection list `C_i`, unordered).
    #[inline]
    pub fn connections(&self, i: NodeId) -> &[NodeId] {
        &self.connections[i.index()]
    }

    /// Number of matched connections of node `i` (`c_i`).
    #[inline]
    pub fn degree(&self, i: NodeId) -> usize {
        self.connections[i.index()].len()
    }

    /// Number of selected edges.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The selected edge ids, ascending.
    pub fn edge_ids(&self) -> Vec<EdgeId> {
        self.selected
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s)
            .map(|(i, _)| EdgeId(i as u32))
            .collect()
    }

    /// Total weight under the problem's eq. 9 weights, as `f64`.
    pub fn total_weight(&self, problem: &Problem) -> f64 {
        self.edge_ids()
            .into_iter()
            .map(|e| problem.weights.get_f64(e))
            .sum()
    }

    /// Total *true* satisfaction (eq. 1) this matching yields.
    pub fn total_satisfaction(&self, problem: &Problem) -> f64 {
        total_satisfaction(&problem.prefs, &problem.quotas, &self.connections)
    }

    /// Total *modified* satisfaction (eq. 6).
    pub fn total_satisfaction_modified(&self, problem: &Problem) -> f64 {
        total_satisfaction_modified(&problem.prefs, &problem.quotas, &self.connections)
    }

    /// `true` iff the two matchings select exactly the same edge set.
    pub fn same_edges(&self, other: &BMatching) -> bool {
        self.selected == other.selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owp_graph::generators::complete;

    fn problem() -> Problem {
        Problem::random_over(complete(6), 2, 3)
    }

    #[test]
    fn insert_remove_roundtrip() {
        let p = problem();
        let e = EdgeId(0);
        let mut m = BMatching::empty(&p.graph);
        m.insert(&p, e);
        assert!(m.contains(e));
        assert_eq!(m.size(), 1);
        let (u, v) = p.graph.endpoints(e);
        assert_eq!(m.connections(u), &[v]);
        assert_eq!(m.degree(v), 1);
        m.remove(&p.graph, e);
        assert!(!m.contains(e));
        assert_eq!(m.size(), 0);
        assert!(m.connections(u).is_empty());
    }

    #[test]
    #[should_panic(expected = "selected twice")]
    fn rejects_duplicate_edge() {
        let p = problem();
        BMatching::from_edges(&p, [EdgeId(0), EdgeId(0)]);
    }

    #[test]
    #[should_panic(expected = "quota")]
    fn rejects_quota_violation() {
        let g = complete(4);
        let p = Problem::random_over(g, 1, 1);
        // Node 0 is an endpoint of edges (0,1), (0,2): with b=1 the second
        // insert must panic.
        let e01 = p.graph.edge_between(NodeId(0), NodeId(1)).unwrap();
        let e02 = p.graph.edge_between(NodeId(0), NodeId(2)).unwrap();
        BMatching::from_edges(&p, [e01, e02]);
    }

    #[test]
    fn insert_unchecked_bypasses_quotas_but_not_duplicates() {
        let g = complete(4);
        let p = Problem::random_over(g, 1, 1);
        let e01 = p.graph.edge_between(NodeId(0), NodeId(1)).unwrap();
        let e02 = p.graph.edge_between(NodeId(0), NodeId(2)).unwrap();
        let mut m = BMatching::empty(&p.graph);
        m.insert_unchecked(&p.graph, e01);
        // Second incident edge would violate node 0's quota of 1; the
        // unchecked path admits it (the engine's transient state).
        m.insert_unchecked(&p.graph, e02);
        assert_eq!(m.degree(NodeId(0)), 2);
        assert_eq!(m.size(), 2);
        m.remove(&p.graph, e02);
        assert_eq!(m.degree(NodeId(0)), 1);
    }

    #[test]
    #[should_panic(expected = "selected twice")]
    fn insert_unchecked_rejects_duplicates() {
        let p = problem();
        let mut m = BMatching::empty(&p.graph);
        m.insert_unchecked(&p.graph, EdgeId(0));
        m.insert_unchecked(&p.graph, EdgeId(0));
    }

    #[test]
    fn weight_and_satisfaction_accumulate() {
        let p = problem();
        let mut m = BMatching::empty(&p.graph);
        assert_eq!(m.total_weight(&p), 0.0);
        assert_eq!(m.total_satisfaction(&p), 0.0);
        m.insert(&p, EdgeId(0));
        assert!(m.total_weight(&p) > 0.0);
        assert!(m.total_satisfaction(&p) > 0.0);
        assert!(m.total_satisfaction_modified(&p) > 0.0);
    }

    #[test]
    fn same_edges_compares_sets() {
        let p = problem();
        let m1 = BMatching::from_edges(&p, [EdgeId(0)]);
        let m2 = BMatching::from_edges(&p, [EdgeId(0)]);
        let m3 = BMatching::empty(&p.graph);
        assert!(m1.same_edges(&m2));
        assert!(!m1.same_edges(&m3));
    }
}
