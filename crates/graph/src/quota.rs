//! Connection quotas `b_i` — the "b" of the b-matching.
//!
//! Each node wants at most `b_i` connections and can never exceed that number
//! (paper §2). The paper assumes `b_i ≤ |L_i|` ("otherwise we can easily take
//! `b_i = |L_i|`"), so all constructors clamp to the degree.

use crate::graph::{Graph, NodeId};
use rand::Rng;

/// Per-node connection quotas, clamped to node degrees.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Quotas {
    b: Vec<u32>,
}

impl Quotas {
    /// Uniform quota `b` for every node, clamped per node to its degree.
    pub fn uniform(g: &Graph, b: u32) -> Self {
        Quotas {
            b: g.nodes().map(|i| b.min(g.degree(i) as u32)).collect(),
        }
    }

    /// Explicit per-node quotas, clamped per node to its degree.
    ///
    /// # Panics
    /// Panics if `b.len() != g.node_count()`.
    pub fn from_vec(g: &Graph, b: Vec<u32>) -> Self {
        assert_eq!(b.len(), g.node_count(), "quota vector length mismatch");
        Quotas {
            b: b.into_iter()
                .zip(g.nodes())
                .map(|(q, i)| q.min(g.degree(i) as u32))
                .collect(),
        }
    }

    /// Independent uniform quotas in `lo..=hi`, clamped to degrees.
    pub fn random_range<R: Rng + ?Sized>(g: &Graph, lo: u32, hi: u32, rng: &mut R) -> Self {
        assert!(lo <= hi, "empty quota range {lo}..={hi}");
        Quotas {
            b: g.nodes()
                .map(|i| rng.gen_range(lo..=hi).min(g.degree(i) as u32))
                .collect(),
        }
    }

    /// Sets `b_i`, clamped to `i`'s degree like every constructor — the
    /// mutation entry point of the dynamic engine (`owp-engine`'s
    /// `QuotaChange` event). Returns the value actually stored.
    pub fn set(&mut self, g: &Graph, i: NodeId, b: u32) -> u32 {
        let clamped = b.min(g.degree(i) as u32);
        self.b[i.index()] = clamped;
        clamped
    }

    /// Quota of node `i` (`b_i`).
    #[inline]
    pub fn get(&self, i: NodeId) -> u32 {
        self.b[i.index()]
    }

    /// Every quota, indexed by node id.
    pub fn as_slice(&self) -> &[u32] {
        &self.b
    }

    /// `b_max`, the maximum quota over all nodes (0 for the empty graph).
    /// This is the quantity in the paper's `¼(1 + 1/b_max)` bound.
    pub fn bmax(&self) -> u32 {
        self.b.iter().copied().max().unwrap_or(0)
    }

    /// Minimum quota over all nodes.
    pub fn bmin(&self) -> u32 {
        self.b.iter().copied().min().unwrap_or(0)
    }

    /// Sum of all quotas — an upper bound on `2 × |matching|`.
    pub fn total(&self) -> u64 {
        self.b.iter().map(|&q| q as u64).sum()
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.b.len()
    }

    /// Iterator over `(node, quota)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.b
            .iter()
            .enumerate()
            .map(|(i, &q)| (NodeId(i as u32), q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, star};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_clamps_to_degree() {
        let g = star(5); // hub degree 4, leaves degree 1
        let q = Quotas::uniform(&g, 3);
        assert_eq!(q.get(NodeId(0)), 3);
        for i in 1..5u32 {
            assert_eq!(q.get(NodeId(i)), 1);
        }
        assert_eq!(q.bmax(), 3);
        assert_eq!(q.bmin(), 1);
        assert_eq!(q.total(), 3 + 4);
    }

    #[test]
    fn from_vec_clamps() {
        let g = complete(4); // all degrees 3
        let q = Quotas::from_vec(&g, vec![10, 2, 0, 3]);
        assert_eq!(q.get(NodeId(0)), 3);
        assert_eq!(q.get(NodeId(1)), 2);
        assert_eq!(q.get(NodeId(2)), 0);
        assert_eq!(q.get(NodeId(3)), 3);
    }

    #[test]
    fn random_range_within_bounds() {
        let g = complete(10);
        let mut rng = StdRng::seed_from_u64(30);
        let q = Quotas::random_range(&g, 2, 5, &mut rng);
        for (_, b) in q.iter() {
            assert!((2..=5).contains(&b));
        }
    }

    #[test]
    fn set_clamps_and_reports() {
        let g = star(5); // hub degree 4, leaves degree 1
        let mut q = Quotas::uniform(&g, 2);
        assert_eq!(q.set(&g, NodeId(0), 10), 4, "clamped to hub degree");
        assert_eq!(q.get(NodeId(0)), 4);
        assert_eq!(q.set(&g, NodeId(1), 0), 0);
        assert_eq!(q.get(NodeId(1)), 0);
        assert_eq!(q.set(&g, NodeId(2), 1), 1);
        assert_eq!(q.bmax(), 4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_vec_rejects_wrong_length() {
        let g = complete(3);
        Quotas::from_vec(&g, vec![1, 1]);
    }
}
