//! Edge weights for the many-to-many weighted-matching reduction (eq. 9).
//!
//! For an edge `e = (i, j)`, `w(i,j) = ΔS̄_i^j + ΔS̄_j^i` — the *static*
//! satisfaction both endpoints would glean from the connection. Weights are
//! symmetric by construction (the property Lemma 5's termination proof
//! needs) and made *unique* by tie-breaking on the canonical endpoint pair
//! (the paper: "ties can be broken using node identities"); [`EdgeKey`]
//! realizes that total order.
//!
//! [`EdgeWeights::compute`] is one walk over each node's CSR adjacency,
//! zipped with the node's id-sorted rank slice
//! ([`PreferenceTable::ranks_by_id`]), so no rank is searched for. The walk
//! records each endpoint's side `(L−R, b·L)`; a per-edge pass then forms
//! `(L_i−R_i)·b_j L_j + (L_j−R_j)·b_i L_i` over `b_i L_i b_j L_j` and
//! reduces it once. The result equals `delta_static(i, j) +
//! delta_static(j, i)` exactly, which [`weight_matches_eq9`] re-derives.

use crate::numeric::Rational;
use crate::satisfaction::delta_static;
use owp_graph::{EdgeId, Graph, NodeId, PreferenceTable, Quotas, Rank};

/// One endpoint's side of eq. 9, `ΔS̄ = gain / scale`: `gain = L − R` and
/// `scale = b·L`. A node with `b = 0` or `L = 0` contributes `0 / 1`.
#[inline]
fn eq9_side(list_len: usize, quota: u32, rank: Rank) -> (u64, u64) {
    let l = list_len as u64;
    if quota == 0 || l == 0 {
        (0, 1)
    } else {
        (l - rank as u64, quota as u64 * l)
    }
}

/// Eq. 9 from the two sides `(g_i, s_i)` and `(g_j, s_j)`:
/// `(g_i·s_j + g_j·s_i) / (s_i·s_j)`, reduced once. Gains are below 2^32
/// and scales below 2^64, so the numerator cannot overflow; a denominator
/// past `i128` panics.
#[inline]
fn eq9((gi, si): (u64, u64), (gj, sj): (u64, u64)) -> Rational {
    let num = gi as u128 * sj as u128 + gj as u128 * si as u128;
    let den = i128::try_from(si as u128 * sj as u128).expect("eq. 9 denominator overflowed i128");
    Rational::new(num as i128, den)
}

/// `i`'s adjacency zipped slot for slot with its id-sorted ranks, as
/// `(j, e, R_i(j))`.
fn ranked_neighbors<'a>(
    g: &'a Graph,
    prefs: &'a PreferenceTable,
    i: NodeId,
) -> impl Iterator<Item = (NodeId, EdgeId, Rank)> + 'a {
    const MISMATCH: &str = "preference list does not cover the neighbourhood";
    let nbrs = g.neighbors(i);
    let ranks = prefs.ranks_by_id(i);
    assert_eq!(nbrs.len(), ranks.len(), "{MISMATCH} of {i:?}");
    nbrs.iter().zip(ranks).map(move |(&(j, e), &(k, r))| {
        assert_eq!(j, k, "{MISMATCH} of {i:?}");
        (j, e, r)
    })
}

/// Exact per-edge weights, indexed by [`EdgeId`].
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EdgeWeights {
    w: Vec<Rational>,
}

impl EdgeWeights {
    /// Computes eq. 9 for every edge of `g`.
    ///
    /// Edges incident to a node with `b_i = 0` receive that endpoint's
    /// contribution as 0 (such nodes cannot participate in any matching; the
    /// algorithms saturate them away immediately).
    ///
    /// # Panics
    /// Panics if some node's preference list does not cover exactly its
    /// neighbourhood in `g`, or if some edge's `b_i L_i b_j L_j` exceeds
    /// `i128`.
    pub fn compute(g: &Graph, prefs: &PreferenceTable, quotas: &Quotas) -> Self {
        // Per node: its scale b·L. Per edge: the gain L − R of its lower
        // (slot 0) and higher (slot 1) endpoint; gains fit in u32 because
        // degrees do.
        let mut scale = vec![1u64; g.node_count()];
        let mut gains = vec![[0u32; 2]; g.edge_count()];
        for i in g.nodes() {
            let (l, b) = (g.degree(i), quotas.get(i));
            scale[i.index()] = eq9_side(l, b, 0).1;
            for (j, e, r) in ranked_neighbors(g, prefs, i) {
                gains[e.index()][(i > j) as usize] = eq9_side(l, b, r).0 as u32;
            }
        }
        let per_edge = |e: EdgeId| {
            let (u, v) = g.endpoints(e);
            let [gu, gv] = gains[e.index()];
            eq9((gu as u64, scale[u.index()]), (gv as u64, scale[v.index()]))
        };
        let w = g.edges().map(per_edge).collect();
        EdgeWeights { w }
    }

    /// Ablation variant of eq. 9 **without** the quota normalization:
    /// `w'(i,j) = (1 − R_i(j)/L_i) + (1 − R_j(i)/L_j)`.
    ///
    /// With uniform quotas this induces the same edge order as eq. 9 (the
    /// `1/b` factor is a global scale), but with *heterogeneous* quotas it
    /// over-weights high-quota nodes' preferences — experiment E13
    /// quantifies the satisfaction this costs. Zero-quota endpoints still
    /// contribute 0 so the algorithms can exclude them.
    pub fn compute_unnormalized(g: &Graph, prefs: &PreferenceTable, quotas: &Quotas) -> Self {
        let side = |i: NodeId, j: NodeId| -> Rational {
            let l = prefs.list_len(i) as i128;
            if l == 0 || quotas.get(i) == 0 {
                return Rational::ZERO;
            }
            let r = prefs.rank(i, j).expect("neighbour") as i128;
            Rational::new(l - r, l)
        };
        let w = g
            .edges()
            .map(|e| {
                let (i, j) = g.endpoints(e);
                side(i, j) + side(j, i)
            })
            .collect();
        EdgeWeights { w }
    }

    /// Wraps explicit per-edge values (indexed by [`EdgeId`]). Used by the
    /// dynamic engine's snapshot, which *inherits* the maintained universe
    /// weights for the alive sub-instance instead of re-deriving eq. 9 —
    /// certification must compare against exactly the weights the engine
    /// ranks by.
    pub fn from_raw(w: Vec<Rational>) -> Self {
        EdgeWeights { w }
    }

    /// Recomputes eq. 9 for every edge incident to `i` (after `i`'s
    /// preference list or quota changed) and returns the edges touched.
    ///
    /// Both endpoint contributions are re-derived, so the call is also
    /// correct when several incident nodes changed in sequence. The
    /// returned list is exactly `i`'s incident edges — feed it to
    /// [`crate::EdgeOrder::update_keys`] to restore the rank kernel.
    pub fn recompute_incident(
        &mut self,
        g: &Graph,
        prefs: &PreferenceTable,
        quotas: &Quotas,
        i: NodeId,
    ) -> Vec<EdgeId> {
        let mut touched = Vec::with_capacity(g.degree(i));
        for (j, e, r) in ranked_neighbors(g, prefs, i) {
            let r_ji = prefs
                .rank(j, i)
                .unwrap_or_else(|| panic!("{i:?} is not in the preference list of {j:?}"));
            let own = eq9_side(g.degree(i), quotas.get(i), r);
            let other = eq9_side(g.degree(j), quotas.get(j), r_ji);
            self.w[e.index()] = eq9(own, other);
            touched.push(e);
        }
        touched
    }

    /// Exact weight of edge `e`.
    #[inline]
    pub fn get(&self, e: EdgeId) -> Rational {
        self.w[e.index()]
    }

    /// Weight of `e` as `f64` (for reporting and the float ablation).
    #[inline]
    pub fn get_f64(&self, e: EdgeId) -> f64 {
        self.w[e.index()].to_f64()
    }

    /// The unique total-order key of edge `e` (weight, then identity
    /// tie-break).
    #[inline]
    pub fn key(&self, g: &Graph, e: EdgeId) -> EdgeKey {
        let (u, v) = g.endpoints(e);
        EdgeKey {
            weight: self.w[e.index()],
            tie: (u.0, v.0),
        }
    }

    /// Number of edges covered.
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// `true` iff there are no edges.
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }
}

/// The strict total order on edges: weight first, canonical endpoint pair as
/// the tie-break. Two *distinct* edges never compare equal, which is the
/// uniqueness assumption every lemma in the paper leans on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EdgeKey {
    /// Exact symmetric weight.
    pub weight: Rational,
    /// Canonical `(min id, max id)` endpoint pair.
    pub tie: (u32, u32),
}

/// Convenience: `true` iff edge `a` beats edge `b` in the strict total order.
pub fn heavier(weights: &EdgeWeights, g: &Graph, a: EdgeId, b: EdgeId) -> bool {
    weights.key(g, a) > weights.key(g, b)
}

/// Returns the edges of `g` sorted heaviest-first under [`EdgeKey`].
pub fn edges_by_weight_desc(g: &Graph, weights: &EdgeWeights) -> Vec<EdgeId> {
    let mut edges: Vec<EdgeId> = g.edges().collect();
    edges.sort_by_key(|&e| std::cmp::Reverse(weights.key(g, e)));
    edges
}

/// Check that for each endpoint the weight is what eq. 9 says; used by
/// property tests and by `verify::check_weights`.
pub fn weight_matches_eq9(
    g: &Graph,
    prefs: &PreferenceTable,
    quotas: &Quotas,
    weights: &EdgeWeights,
    e: EdgeId,
) -> bool {
    let (i, j) = g.endpoints(e);
    let expect = delta_static(prefs, quotas, i, j) + delta_static(prefs, quotas, j, i);
    weights.get(e) == expect
}

#[cfg(test)]
mod tests {
    use super::*;
    use owp_graph::generators::{complete, star};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, b: u32, seed: u64) -> (Graph, PreferenceTable, Quotas, EdgeWeights) {
        let g = complete(n);
        let prefs = PreferenceTable::random(&g, &mut StdRng::seed_from_u64(seed));
        let quotas = Quotas::uniform(&g, b);
        let w = EdgeWeights::compute(&g, &prefs, &quotas);
        (g, prefs, quotas, w)
    }

    #[test]
    fn weights_match_eq9_and_are_positive() {
        let (g, prefs, quotas, w) = setup(8, 3, 1);
        for e in g.edges() {
            assert!(weight_matches_eq9(&g, &prefs, &quotas, &w, e));
            assert!(w.get(e).is_positive(), "eq. 9 weights are strictly positive");
            // Each endpoint contributes at most 1/b, so w ≤ 2/b... with b=3:
            assert!(w.get(e) <= Rational::new(2, 3));
        }
    }

    #[test]
    fn keys_are_all_distinct() {
        let (g, _prefs, _quotas, w) = setup(10, 2, 2);
        let mut keys: Vec<EdgeKey> = g.edges().map(|e| w.key(&g, e)).collect();
        keys.sort();
        assert!(keys.windows(2).all(|p| p[0] < p[1]), "strict total order");
    }

    #[test]
    fn symmetric_by_construction() {
        // w(i,j) computed from either side is the same value — trivially true
        // here because the structure stores one value per undirected edge;
        // the meaningful check is that eq. 9's two terms are each positive
        // and the total matches the per-endpoint recomputation.
        let (g, prefs, quotas, w) = setup(6, 2, 3);
        for e in g.edges() {
            let (i, j) = g.endpoints(e);
            let wij = delta_static(&prefs, &quotas, i, j) + delta_static(&prefs, &quotas, j, i);
            let wji = delta_static(&prefs, &quotas, j, i) + delta_static(&prefs, &quotas, i, j);
            assert_eq!(wij, wji);
            assert_eq!(w.get(e), wij);
        }
    }

    #[test]
    fn zero_quota_contributes_zero() {
        let g = star(4);
        let prefs = PreferenceTable::by_node_id(&g);
        let quotas = Quotas::from_vec(&g, vec![0, 1, 1, 1]);
        let w = EdgeWeights::compute(&g, &prefs, &quotas);
        for e in g.edges() {
            // Hub has b=0 → only the leaf side contributes; leaf: L=1, R=0,
            // b=1 → ΔS̄ = 1.
            assert_eq!(w.get(e), Rational::ONE);
        }
    }

    #[test]
    fn desc_sort_and_heavier_agree() {
        let (g, _p, _q, w) = setup(9, 3, 4);
        let sorted = edges_by_weight_desc(&g, &w);
        assert_eq!(sorted.len(), g.edge_count());
        for pair in sorted.windows(2) {
            assert!(heavier(&w, &g, pair[0], pair[1]));
        }
    }

    #[test]
    fn recompute_incident_matches_full_recompute() {
        let (g, prefs, mut quotas, mut w) = setup(9, 3, 5);
        let i = NodeId(4);
        quotas.set(&g, i, 1);
        let touched = w.recompute_incident(&g, &prefs, &quotas, i);
        assert_eq!(touched.len(), g.degree(i));
        let fresh = EdgeWeights::compute(&g, &prefs, &quotas);
        for e in g.edges() {
            assert_eq!(w.get(e), fresh.get(e), "edge {e:?} stale after patch");
        }
    }

    #[test]
    fn rank_zero_neighbour_gives_max_contribution() {
        // A node's top choice contributes exactly 1/b from that side.
        let g = star(5);
        let prefs = PreferenceTable::by_node_id(&g);
        let quotas = Quotas::uniform(&g, 2);
        let w = EdgeWeights::compute(&g, &prefs, &quotas);
        // Edge (0,1): hub rank of 1 is 0 → hub side = (4−0)/(2·4) = 1/2;
        // leaf side: L=1, R=0, b=1 → 1. Total 3/2.
        let e = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(w.get(e), Rational::new(3, 2));
    }
}
