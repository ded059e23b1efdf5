//! [`EdgeOrder`] — the integer edge-rank kernel.
//!
//! Every algorithm in this crate only ever needs the *relative order* of
//! edges under the strict [`EdgeKey`] total order (exact rational weight,
//! identity tie-break), never the weights themselves. This module pays the
//! exact arithmetic exactly once: all edges are sorted by that order
//! (decorate–sort–undecorate, so each key is materialized once) and the
//! result is flattened into a dense `u32` rank per [`EdgeId`] with
//!
//! ```text
//! rank(a) < rank(b)  ⇔  key(a) > key(b)
//! ```
//!
//! i.e. rank 0 is the globally heaviest edge. After this single setup pass,
//! LIC's worklist, LID's per-node candidate lists and every "is `a` heavier
//! than `b`?" question run on plain integer compares — no `Rational`
//! arithmetic appears on any hot path (see `DESIGN.md` §3).
//!
//! The sort decorates each edge with a 32-byte compact key: the weight as
//! an `i64` numerator and denominator, the endpoint pair packed into one
//! `u64`, and the edge id; two weights compare by one widening `i64 × i64`
//! cross-multiply each. If any weight lies outside the `i64` range (only
//! explicit weights passed to [`crate::Problem::with_weights`] can), the
//! whole call sorts full [`EdgeKey`]s instead. Both orders are the same.

use crate::weights::{EdgeKey, EdgeWeights};
use owp_graph::{EdgeId, Graph};
use std::cmp::{Ordering, Reverse};

/// The rank of an edge in the global heaviest-first order; `0` = heaviest.
pub type EdgeRank = u32;

/// Dense integer ranks realizing the [`EdgeKey`] total order.
///
/// Immutable once computed; cloneable (two flat `u32` arrays).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeOrder {
    /// `rank[e] = r` ⇔ edge `e` is the `r`-th heaviest.
    rank: Vec<EdgeRank>,
    /// Inverse permutation: `by_rank[r]` is the `r`-th heaviest edge.
    by_rank: Vec<EdgeId>,
}

impl EdgeOrder {
    /// Sorts all edges of `g` by [`EdgeKey`] descending and assigns dense
    /// ranks. O(m log m) exact comparisons, on compact `i64` keys whenever
    /// every weight fits (see the module docs).
    pub fn compute(g: &Graph, weights: &EdgeWeights) -> Self {
        let by_rank: Vec<EdgeId> = match compact_keys(g, weights) {
            Some(mut keys) => {
                keys.sort_unstable_by(CompactKey::heavier_first);
                keys.into_iter().map(|k| k.edge).collect()
            }
            None => {
                let mut decorated: Vec<(EdgeKey, EdgeId)> =
                    g.edges().map(|e| (weights.key(g, e), e)).collect();
                decorated.sort_unstable_by_key(|&(key, _)| Reverse(key));
                decorated.into_iter().map(|(_, e)| e).collect()
            }
        };
        let mut rank = vec![0 as EdgeRank; by_rank.len()];
        for (r, &e) in by_rank.iter().enumerate() {
            rank[e.index()] = r as EdgeRank;
        }
        EdgeOrder { rank, by_rank }
    }

    /// Incrementally re-ranks after the weights of `changed` edges were
    /// mutated (everything else unchanged). Produces exactly the ranks
    /// [`EdgeOrder::compute`] would from scratch, but pays exact-key work
    /// proportional to the *change*, not the instance:
    ///
    /// * `O(|changed| log |changed|)` key comparisons to sort the moved
    ///   edges by their new keys;
    /// * `O(|changed| log m)` key comparisons to binary-search each moved
    ///   edge's insertion point among the unmoved (still-sorted) edges;
    /// * one `O(m)` **integer** pass to splice the two sorted sequences and
    ///   rebuild the dense rank array.
    ///
    /// No `Rational` comparison touches the `m − |changed|` unmoved edges
    /// beyond the binary-search probes. This is what keeps the dynamic
    /// engine's `PreferenceUpdate`/`QuotaChange` path off the full
    /// `O(m log m)` exact re-sort.
    pub fn update_keys(&mut self, g: &Graph, weights: &EdgeWeights, changed: &[EdgeId]) {
        if changed.is_empty() {
            return;
        }
        let mut is_changed = vec![false; self.rank.len()];
        let mut moved: Vec<(EdgeKey, EdgeId)> = Vec::with_capacity(changed.len());
        for &e in changed {
            if !is_changed[e.index()] {
                is_changed[e.index()] = true;
                moved.push((weights.key(g, e), e));
            }
        }
        // Heaviest first, like `by_rank`.
        moved.sort_unstable_by_key(|&(key, _)| std::cmp::Reverse(key));

        // The unmoved edges keep their relative order.
        let rest: Vec<EdgeId> = self
            .by_rank
            .iter()
            .copied()
            .filter(|e| !is_changed[e.index()])
            .collect();

        // Insertion index of each moved edge among `rest` (first position
        // whose key is lighter). Distinct edges never compare equal
        // (EdgeKey is a strict total order), so `partition_point` is exact.
        let targets: Vec<usize> = moved
            .iter()
            .map(|&(key, _)| rest.partition_point(|&r| weights.key(g, r) > key))
            .collect();

        // Splice: `moved` is sorted by key, so its target indices are
        // non-decreasing and equal targets are already in key order.
        let mut by_rank = Vec::with_capacity(self.by_rank.len());
        let mut mi = 0;
        for (ri, &r) in rest.iter().enumerate() {
            while mi < moved.len() && targets[mi] == ri {
                by_rank.push(moved[mi].1);
                mi += 1;
            }
            by_rank.push(r);
        }
        while mi < moved.len() {
            by_rank.push(moved[mi].1);
            mi += 1;
        }
        for (r, &e) in by_rank.iter().enumerate() {
            self.rank[e.index()] = r as EdgeRank;
        }
        self.by_rank = by_rank;
    }

    /// The rank of edge `e`; `0` is the globally heaviest edge.
    #[inline]
    pub fn rank(&self, e: EdgeId) -> EdgeRank {
        self.rank[e.index()]
    }

    /// The edge holding rank `r`.
    #[inline]
    pub fn edge_at(&self, r: EdgeRank) -> EdgeId {
        self.by_rank[r as usize]
    }

    /// All edges, heaviest first — the rank-order permutation.
    #[inline]
    pub fn heaviest_first(&self) -> &[EdgeId] {
        &self.by_rank
    }

    /// `true` iff `a` beats `b` in the strict total order — a single integer
    /// compare, equivalent to `key(a) > key(b)`.
    #[inline]
    pub fn heavier(&self, a: EdgeId, b: EdgeId) -> bool {
        self.rank[a.index()] < self.rank[b.index()]
    }

    /// Number of ranked edges.
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// `true` iff the graph had no edges.
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }
}

/// An [`EdgeKey`] whose weight fits in `i64`, with the endpoint pair
/// packed as `u << 32 | v` (which orders like the `(u, v)` tuple).
#[derive(Clone, Copy)]
struct CompactKey {
    num: i64,
    den: i64,
    tie: u64,
    edge: EdgeId,
}

impl CompactKey {
    /// Descending [`EdgeKey`] order: `a` sorts first iff `key(a) > key(b)`.
    #[inline]
    fn heavier_first(a: &CompactKey, b: &CompactKey) -> Ordering {
        // Denominators are positive, so cross-multiplying keeps the order.
        let lhs = b.num as i128 * a.den as i128;
        let rhs = a.num as i128 * b.den as i128;
        lhs.cmp(&rhs).then(b.tie.cmp(&a.tie))
    }
}

/// Every edge's compact key, or `None` if some weight is outside `i64`.
fn compact_keys(g: &Graph, weights: &EdgeWeights) -> Option<Vec<CompactKey>> {
    g.edges()
        .map(|e| {
            let (num, den) = weights.get(e).to_i64_parts()?;
            let (u, v) = g.endpoints(e);
            Some(CompactKey {
                num,
                den,
                tie: (u.0 as u64) << 32 | v.0 as u64,
                edge: e,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::compact_keys;
    use crate::weights::heavier;
    use crate::{EdgeWeights, Problem, Rational};
    use owp_graph::generators::complete;
    use owp_graph::{EdgeId, PreferenceTable, Quotas};

    /// The permutation a plain `EdgeKey` sort gives.
    fn key_sorted(p: &Problem) -> Vec<EdgeId> {
        let mut edges: Vec<EdgeId> = p.graph.edges().collect();
        edges.sort_unstable_by_key(|&e| std::cmp::Reverse(p.weights.key(&p.graph, e)));
        edges
    }

    #[test]
    fn compact_and_wide_paths_match_the_key_sort() {
        // Eq. 9 weights fit in i64: the compact path runs.
        let p = Problem::random_gnp(60, 0.2, 3, 17);
        assert!(compact_keys(&p.graph, &p.weights).is_some());
        assert_eq!(p.order.heaviest_first(), &key_sorted(&p)[..]);

        // One weight past i64 sends the whole call to the EdgeKey sort;
        // repeated weights leave part of the order to the tie-break.
        let g = complete(9);
        let raw: Vec<Rational> = g
            .edges()
            .map(|e| match e.0 % 3 {
                0 => Rational::new(i64::MAX as i128 + 1 + e.0 as i128, 3),
                1 => Rational::new(-5, 7),
                _ => Rational::new(e.0 as i128, 2),
            })
            .collect();
        let p = Problem::with_weights(
            g.clone(),
            PreferenceTable::by_node_id(&g),
            Quotas::uniform(&g, 2),
            EdgeWeights::from_raw(raw),
        );
        assert!(compact_keys(&p.graph, &p.weights).is_none());
        assert_eq!(p.order.heaviest_first(), &key_sorted(&p)[..]);
    }

    #[test]
    fn ranks_are_a_permutation() {
        let p = Problem::random_gnp(40, 0.3, 3, 5);
        let o = &p.order;
        assert_eq!(o.len(), p.edge_count());
        let mut seen = vec![false; o.len()];
        for e in p.graph.edges() {
            let r = o.rank(e);
            assert!(!seen[r as usize], "duplicate rank {r}");
            seen[r as usize] = true;
            assert_eq!(o.edge_at(r), e, "by_rank is the inverse of rank");
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn rank_order_matches_key_order() {
        let p = Problem::random_gnp(30, 0.4, 2, 9);
        let g = &p.graph;
        for a in g.edges() {
            for b in g.edges() {
                if a != b {
                    assert_eq!(
                        p.order.heavier(a, b),
                        heavier(&p.weights, g, a, b),
                        "rank and key orders disagree on ({a:?}, {b:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn heaviest_first_is_descending_under_keys() {
        let p = Problem::random_gnp(25, 0.5, 2, 11);
        let g = &p.graph;
        for w in p.order.heaviest_first().windows(2) {
            assert!(heavier(&p.weights, g, w[0], w[1]));
        }
    }

    #[test]
    fn update_keys_matches_recompute_from_scratch() {
        use owp_graph::NodeId;
        // Perturb one node's quota (which shifts the eq. 9 weights of all
        // its incident edges), patch the weights incrementally, and check
        // the spliced order is bit-identical to a fresh compute.
        for seed in 0..20u64 {
            let mut p = Problem::random_gnp(30, 0.3, 3, seed);
            let mut order = p.order.clone();
            let node = NodeId((seed % 30) as u32);
            let new_b = (seed % 4) as u32; // includes b = 0
            p.quotas.set(&p.graph, node, new_b);
            let changed =
                p.weights.recompute_incident(&p.graph, &p.prefs, &p.quotas, node);
            order.update_keys(&p.graph, &p.weights, &changed);
            let fresh = crate::EdgeOrder::compute(&p.graph, &p.weights);
            assert_eq!(order, fresh, "seed {seed}: incremental rank drifted");
        }
    }

    #[test]
    fn update_keys_with_duplicates_and_noops() {
        let p = Problem::random_gnp(20, 0.4, 2, 7);
        let mut order = p.order.clone();
        // Weights untouched: re-ranking any (duplicated) subset is a no-op.
        let some: Vec<_> = p.graph.edges().take(5).chain(p.graph.edges().take(5)).collect();
        order.update_keys(&p.graph, &p.weights, &some);
        assert_eq!(order, p.order);
        order.update_keys(&p.graph, &p.weights, &[]);
        assert_eq!(order, p.order);
    }

    #[test]
    fn empty_graph() {
        let p = Problem::random_gnp(0, 0.0, 1, 1);
        assert!(p.order.is_empty());
        assert_eq!(p.order.len(), 0);
        assert!(p.order.heaviest_first().is_empty());
    }
}
