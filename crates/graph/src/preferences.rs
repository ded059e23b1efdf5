//! Private preference lists `L_i` and the rank function `R_i(j)`.
//!
//! Every node `i` ranks its whole neighbourhood `Γ_i`: `R_i(j) ∈
//! {0, …, |L_i|−1}` with 0 the most desirable neighbour (paper §2). The list
//! is conceptually *private* — the matching algorithms only ever read the
//! derived satisfaction increments, never the list itself; keeping the table
//! as a separate value from the [`Graph`] makes that boundary explicit.

use crate::graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;

/// A rank in a preference list; 0 is the most desirable neighbour.
pub type Rank = u32;

/// Errors raised when constructing a [`PreferenceTable`] from explicit lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreferenceError {
    /// The number of lists does not match the number of nodes.
    WrongNodeCount {
        /// Lists supplied.
        got: usize,
        /// Nodes in the graph.
        expected: usize,
    },
    /// A list is not a permutation of the node's neighbourhood.
    NotAPermutation {
        /// The offending node.
        node: NodeId,
    },
}

impl fmt::Display for PreferenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreferenceError::WrongNodeCount { got, expected } => {
                write!(f, "{got} preference lists supplied for {expected} nodes")
            }
            PreferenceError::NotAPermutation { node } => {
                write!(f, "preference list of {node:?} is not a permutation of its neighbourhood")
            }
        }
    }
}

impl std::error::Error for PreferenceError {}

/// Per-node preference lists over neighbourhoods, with O(log d) rank lookup.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PreferenceTable {
    /// `lists[i]` = `L_i`, best neighbour first.
    lists: Vec<Vec<NodeId>>,
    /// `ranks[i]` = `(neighbour, rank)` sorted by neighbour id.
    ranks: Vec<Vec<(NodeId, Rank)>>,
}

impl PreferenceTable {
    fn from_lists_unchecked(lists: Vec<Vec<NodeId>>) -> Self {
        let build = |list: &[NodeId]| {
            let mut r: Vec<(NodeId, Rank)> = list
                .iter()
                .enumerate()
                .map(|(rank, &j)| (j, rank as Rank))
                .collect();
            r.sort_unstable_by_key(|&(j, _)| j);
            r
        };
        let ranks = lists.iter().map(|list| build(list)).collect();
        PreferenceTable { lists, ranks }
    }

    /// Builds a table from explicit lists, validating that `lists[i]` is a
    /// permutation of `Γ_i` for every node.
    pub fn from_lists(g: &Graph, lists: Vec<Vec<NodeId>>) -> Result<Self, PreferenceError> {
        if lists.len() != g.node_count() {
            return Err(PreferenceError::WrongNodeCount {
                got: lists.len(),
                expected: g.node_count(),
            });
        }
        for (i, list) in lists.iter().enumerate() {
            let i = NodeId(i as u32);
            if list.len() != g.degree(i) {
                return Err(PreferenceError::NotAPermutation { node: i });
            }
            let mut sorted = list.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != list.len()
                || !sorted
                    .iter()
                    .zip(g.neighbor_ids(i))
                    .all(|(&a, b)| a == b)
            {
                return Err(PreferenceError::NotAPermutation { node: i });
            }
        }
        Ok(Self::from_lists_unchecked(lists))
    }

    /// Uniformly random preference lists: each node ranks its neighbourhood by
    /// an independent random permutation. The fully-heterogeneous case the
    /// paper argues about (arbitrary private metrics, possibly cyclic).
    pub fn random<R: Rng + ?Sized>(g: &Graph, rng: &mut R) -> Self {
        let lists = g
            .nodes()
            .map(|i| {
                let mut nbrs: Vec<NodeId> = g.neighbor_ids(i).collect();
                nbrs.shuffle(rng);
                nbrs
            })
            .collect();
        Self::from_lists_unchecked(lists)
    }

    /// Builds preference lists from a suitability score: node `i` ranks
    /// neighbour `j` above `k` iff `score(i, j) > score(i, k)` (higher score =
    /// more desirable). Ties broken by smaller node id, so the table is
    /// deterministic.
    pub fn by_score<F: FnMut(NodeId, NodeId) -> f64>(g: &Graph, mut score: F) -> Self {
        let lists = g
            .nodes()
            .map(|i| {
                let mut scored: Vec<(f64, NodeId)> =
                    g.neighbor_ids(i).map(|j| (score(i, j), j)).collect();
                scored.sort_by(|a, b| {
                    b.0.partial_cmp(&a.0)
                        .expect("suitability scores must not be NaN")
                        .then_with(|| a.1.cmp(&b.1))
                });
                scored.into_iter().map(|(_, j)| j).collect()
            })
            .collect();
        Self::from_lists_unchecked(lists)
    }

    /// Globally aligned preferences: every node ranks neighbours by node id
    /// ascending (an *acyclic* preference system in the sense of Gai et al.,
    /// used as the easy baseline case in the experiments).
    pub fn by_node_id(g: &Graph) -> Self {
        let lists = g.nodes().map(|i| g.neighbor_ids(i).collect()).collect();
        Self::from_lists_unchecked(lists)
    }

    /// Replaces `L_i` with a new permutation of `i`'s neighbourhood,
    /// rebuilding the rank lookup for that node only.
    ///
    /// This is the mutation entry point of the dynamic engine
    /// (`owp-engine`'s `PreferenceUpdate` event): a peer re-ranks its
    /// neighbourhood at runtime, e.g. after observing transaction history.
    /// The list must cover the **full** neighbourhood `Γ_i` of the
    /// underlying (universe) graph, exactly like [`PreferenceTable::from_lists`].
    pub fn set_list(
        &mut self,
        g: &Graph,
        i: NodeId,
        list: Vec<NodeId>,
    ) -> Result<(), PreferenceError> {
        if list.len() != g.degree(i) {
            return Err(PreferenceError::NotAPermutation { node: i });
        }
        let mut sorted = list.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != list.len()
            || !sorted.iter().zip(g.neighbor_ids(i)).all(|(&a, b)| a == b)
        {
            return Err(PreferenceError::NotAPermutation { node: i });
        }
        let mut ranks: Vec<(NodeId, Rank)> = list
            .iter()
            .enumerate()
            .map(|(rank, &j)| (j, rank as Rank))
            .collect();
        ranks.sort_unstable_by_key(|&(j, _)| j);
        self.lists[i.index()] = list;
        self.ranks[i.index()] = ranks;
        Ok(())
    }

    /// The rank `R_i(j)` of neighbour `j` in `i`'s list, or `None` if `j` is
    /// not a neighbour of `i`.
    #[inline]
    pub fn rank(&self, i: NodeId, j: NodeId) -> Option<Rank> {
        let ranks = &self.ranks[i.index()];
        ranks
            .binary_search_by_key(&j, |&(v, _)| v)
            .ok()
            .map(|pos| ranks[pos].1)
    }

    /// `i`'s `(neighbour, rank)` pairs sorted by neighbour id.
    ///
    /// Every list is a permutation of `Γ_i`, and [`Graph::neighbors`] is
    /// sorted by neighbour id too, so on the graph the table was built for
    /// slot `k` of this slice names the same neighbour as slot `k` of
    /// `g.neighbors(i)`. Zipping the two reads every `R_i(j)` of a node
    /// without a search.
    #[inline]
    pub fn ranks_by_id(&self, i: NodeId) -> &[(NodeId, Rank)] {
        &self.ranks[i.index()]
    }

    /// The full preference list `L_i`, best neighbour first.
    #[inline]
    pub fn list(&self, i: NodeId) -> &[NodeId] {
        &self.lists[i.index()]
    }

    /// The list length `|L_i|` (equals the degree `d_i`).
    #[inline]
    pub fn list_len(&self, i: NodeId) -> usize {
        self.lists[i.index()].len()
    }

    /// Number of nodes covered by the table.
    pub fn node_count(&self) -> usize {
        self.lists.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, star};
    use crate::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rank_is_inverse_of_list() {
        let g = complete(6);
        let mut rng = StdRng::seed_from_u64(20);
        let p = PreferenceTable::random(&g, &mut rng);
        for i in g.nodes() {
            for (rank, &j) in p.list(i).iter().enumerate() {
                assert_eq!(p.rank(i, j), Some(rank as Rank));
            }
            assert_eq!(p.rank(i, i), None);
            assert_eq!(p.list_len(i), g.degree(i));
        }
    }

    #[test]
    fn ranks_by_id_lines_up_with_neighbors() {
        let g = complete(7);
        let p = PreferenceTable::random(&g, &mut StdRng::seed_from_u64(21));
        for i in g.nodes() {
            let slots = p.ranks_by_id(i);
            assert_eq!(slots.len(), g.degree(i));
            for (&(j, r), &(k, _)) in slots.iter().zip(g.neighbors(i)) {
                assert_eq!(j, k);
                assert_eq!(p.rank(i, j), Some(r));
            }
        }
    }

    #[test]
    fn by_score_orders_descending() {
        let g = star(5);
        // Hub prefers higher ids (higher score).
        let p = PreferenceTable::by_score(&g, |_, j| j.0 as f64);
        assert_eq!(p.list(NodeId(0)), &[NodeId(4), NodeId(3), NodeId(2), NodeId(1)]);
        assert_eq!(p.rank(NodeId(0), NodeId(4)), Some(0));
        assert_eq!(p.rank(NodeId(0), NodeId(1)), Some(3));
    }

    #[test]
    fn by_score_breaks_ties_by_id() {
        let g = star(4);
        let p = PreferenceTable::by_score(&g, |_, _| 1.0);
        assert_eq!(p.list(NodeId(0)), &[NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn by_node_id_is_sorted() {
        let g = complete(5);
        let p = PreferenceTable::by_node_id(&g);
        for i in g.nodes() {
            let list = p.list(i);
            assert!(list.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn from_lists_validates() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(0), NodeId(2));
        let g = b.build();

        // Valid permutation.
        let ok = PreferenceTable::from_lists(
            &g,
            vec![vec![NodeId(2), NodeId(1)], vec![NodeId(0)], vec![NodeId(0)]],
        );
        assert!(ok.is_ok());
        let p = ok.unwrap();
        assert_eq!(p.rank(NodeId(0), NodeId(2)), Some(0));

        // Wrong count.
        assert_eq!(
            PreferenceTable::from_lists(&g, vec![vec![]]),
            Err(PreferenceError::WrongNodeCount { got: 1, expected: 3 })
        );

        // Not a permutation (duplicate).
        assert_eq!(
            PreferenceTable::from_lists(
                &g,
                vec![vec![NodeId(1), NodeId(1)], vec![NodeId(0)], vec![NodeId(0)]],
            ),
            Err(PreferenceError::NotAPermutation { node: NodeId(0) })
        );

        // Not a permutation (non-neighbour).
        assert_eq!(
            PreferenceTable::from_lists(
                &g,
                vec![vec![NodeId(2), NodeId(1)], vec![NodeId(2)], vec![NodeId(0)]],
            ),
            Err(PreferenceError::NotAPermutation { node: NodeId(1) })
        );
    }

    #[test]
    fn set_list_replaces_one_node_and_revalidates() {
        let g = complete(5);
        let mut p = PreferenceTable::by_node_id(&g);
        let before_other = p.list(NodeId(1)).to_vec();

        // Reverse node 0's list.
        let mut rev: Vec<NodeId> = p.list(NodeId(0)).to_vec();
        rev.reverse();
        p.set_list(&g, NodeId(0), rev.clone()).expect("valid permutation");
        assert_eq!(p.list(NodeId(0)), &rev[..]);
        assert_eq!(p.rank(NodeId(0), rev[0]), Some(0));
        assert_eq!(p.rank(NodeId(0), rev[3]), Some(3));
        // Other nodes untouched.
        assert_eq!(p.list(NodeId(1)), &before_other[..]);

        // Wrong length.
        assert_eq!(
            p.set_list(&g, NodeId(0), vec![NodeId(1)]),
            Err(PreferenceError::NotAPermutation { node: NodeId(0) })
        );
        // Duplicate entry.
        assert_eq!(
            p.set_list(
                &g,
                NodeId(0),
                vec![NodeId(1), NodeId(1), NodeId(2), NodeId(3)]
            ),
            Err(PreferenceError::NotAPermutation { node: NodeId(0) })
        );
        // Non-neighbour (itself).
        assert_eq!(
            p.set_list(
                &g,
                NodeId(0),
                vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
            ),
            Err(PreferenceError::NotAPermutation { node: NodeId(0) })
        );
        // Failed updates must not corrupt the table.
        assert_eq!(p.list(NodeId(0)), &rev[..]);
    }

    #[test]
    fn random_is_seed_deterministic() {
        let g = complete(7);
        let p1 = PreferenceTable::random(&g, &mut StdRng::seed_from_u64(5));
        let p2 = PreferenceTable::random(&g, &mut StdRng::seed_from_u64(5));
        for i in g.nodes() {
            assert_eq!(p1.list(i), p2.list(i));
        }
    }
}
