//! Core undirected simple-graph storage.
//!
//! [`Graph`] is an immutable CSR (compressed sparse row) structure built once
//! via [`crate::GraphBuilder`] and then shared read-only by every algorithm.
//! Nodes are dense indices `0..n`; every undirected edge `{u, v}` has a single
//! [`EdgeId`] shared by both directions, which lets per-edge data (weights,
//! matching membership) live in flat arrays.

use std::fmt;

/// Identifier of a node (peer) in the overlay graph.
///
/// Node ids are dense: a graph with `n` nodes uses ids `0..n`. The id doubles
/// as the tie-breaking "node identity" the paper uses to make edge weights
/// unique.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize`, for indexing flat per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(u32::try_from(v).expect("node id exceeds u32"))
    }
}

/// Identifier of an undirected edge. Both directions of `{u, v}` share one id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The id as a `usize`, for indexing flat per-edge arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An immutable undirected simple graph in CSR form.
///
/// Construct with [`crate::GraphBuilder`]. Self-loops and parallel edges are
/// rejected at build time, so `G(V, E)` matches the paper's model exactly.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Graph {
    /// `offsets[i]..offsets[i+1]` indexes `adj` for node `i`.
    offsets: Vec<u32>,
    /// Flattened adjacency: `(neighbour, edge id)` pairs, sorted by neighbour.
    adj: Vec<(NodeId, EdgeId)>,
    /// Endpoints of each edge, canonicalized so `endpoints[e].0 < endpoints[e].1`.
    endpoints: Vec<(NodeId, NodeId)>,
}

impl Graph {
    pub(crate) fn from_parts(
        offsets: Vec<u32>,
        adj: Vec<(NodeId, EdgeId)>,
        endpoints: Vec<(NodeId, NodeId)>,
    ) -> Self {
        Graph {
            offsets,
            adj,
            endpoints,
        }
    }

    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m = |E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterator over all edge ids `0..m`.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edge_count() as u32).map(EdgeId)
    }

    /// The canonical endpoints `(u, v)` of edge `e`, with `u < v`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.endpoints[e.index()]
    }

    /// Given one endpoint of `e`, returns the other.
    ///
    /// # Panics
    /// Panics in debug builds if `v` is not an endpoint of `e`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        let (a, b) = self.endpoints[e.index()];
        debug_assert!(v == a || v == b, "{v:?} is not an endpoint of {e:?}");
        if v == a {
            b
        } else {
            a
        }
    }

    /// Degree `d_i` of node `i` (also `|Γ_i|`, the neighbourhood size).
    #[inline]
    pub fn degree(&self, i: NodeId) -> usize {
        (self.offsets[i.index() + 1] - self.offsets[i.index()]) as usize
    }

    /// Neighbours of `i` with the connecting edge ids, sorted by neighbour id.
    #[inline]
    pub fn neighbors(&self, i: NodeId) -> &[(NodeId, EdgeId)] {
        let lo = self.offsets[i.index()] as usize;
        let hi = self.offsets[i.index() + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Iterator over neighbour node ids of `i`.
    pub fn neighbor_ids(&self, i: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors(i).iter().map(|&(v, _)| v)
    }

    /// The CSR position of `v` in `u`'s adjacency: `offsets[u]` plus the
    /// rank of `v` among `u`'s sorted neighbours, or `None` if `u` and `v`
    /// are not adjacent. Positions are dense over `0..2m` and distinct per
    /// direction, so they address the graph's directed links.
    ///
    /// Binary search over `u`'s (sorted) adjacency — O(log d_u).
    #[inline]
    pub fn slot(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let lo = self.offsets[u.index()] as usize;
        let hi = self.offsets[u.index() + 1] as usize;
        self.adj[lo..hi]
            .binary_search_by_key(&v, |&(w, _)| w)
            .ok()
            .map(|pos| lo + pos)
    }

    /// The edge id connecting `u` and `v`, if such an edge exists
    /// (O(log d_u), via [`Graph::slot`]).
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.slot(u, v).map(|s| self.adj[s].1)
    }

    /// `true` iff `u` and `v` are adjacent in `G`.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|i| self.degree(i)).max().unwrap_or(0)
    }

    /// Average degree `2m / n` (0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.node_count() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(0), NodeId(2));
        b.build()
    }

    #[test]
    fn triangle_counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn endpoints_are_canonical() {
        let g = triangle();
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            assert!(u < v);
            assert_eq!(g.other_endpoint(e, u), v);
            assert_eq!(g.other_endpoint(e, v), u);
        }
    }

    #[test]
    fn edge_between_finds_all_edges() {
        let g = triangle();
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            assert_eq!(g.edge_between(u, v), Some(e));
            assert_eq!(g.edge_between(v, u), Some(e));
        }
        assert!(g.has_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    fn slots_are_dense_and_unique() {
        let g = crate::generators::complete(6);
        let mut seen = vec![false; 2 * g.edge_count()];
        for i in g.nodes() {
            for j in g.neighbor_ids(i) {
                let s = g.slot(i, j).expect("edge has a slot");
                assert_eq!(g.adj[s].0, j, "the slot holds the neighbour");
                assert!(!seen[s], "slot {s} assigned twice");
                seen[s] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn non_edges_have_no_slot() {
        let g = crate::generators::star(4); // hub 0, leaves 1..3: leaves are not adjacent
        assert!(g.slot(NodeId(1), NodeId(2)).is_none());
        assert!(g.slot(NodeId(0), NodeId(0)).is_none());
        assert!(g.slot(NodeId(0), NodeId(3)).is_some());
    }

    #[test]
    fn directions_get_distinct_slots() {
        let g = crate::generators::complete(3);
        for i in g.nodes() {
            for j in g.neighbor_ids(i) {
                assert_ne!(g.slot(i, j), g.slot(j, i));
            }
        }
    }

    #[test]
    fn neighbors_sorted() {
        let g = triangle();
        for i in g.nodes() {
            let nbrs = g.neighbors(i);
            assert!(nbrs.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn isolated_nodes() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.node_count(), 5);
        for i in g.nodes() {
            assert_eq!(g.degree(i), 0);
            assert!(g.neighbors(i).is_empty());
        }
    }

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(7).index(), 7);
        assert_eq!(format!("{}", NodeId(7)), "7");
        assert_eq!(format!("{:?}", NodeId(7)), "n7");
        assert_eq!(format!("{:?}", EdgeId(3)), "e3");
        assert_eq!(NodeId::from(4u32), NodeId(4));
        assert_eq!(NodeId::from(4usize), NodeId(4));
    }
}
