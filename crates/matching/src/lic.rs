//! LIC — Local Information-based Centralized algorithm (paper Algorithm 2).
//!
//! LIC repeatedly selects a *locally heaviest* edge `(a, b)`: one heavier
//! than every other pool edge incident to `a` or `b` (eq. 3 over the dynamic
//! pool of eq. 13). Selecting it decrements both endpoint counters; a node
//! whose counter hits zero has all its remaining pool edges discarded
//! (Algorithm 2 lines 8–9).
//!
//! With unique weights ([`crate::weights::EdgeKey`]) the *set* of selected
//! edges is independent of which locally heaviest edge is picked first —
//! that confluence is what makes LIC a faithful stand-in for the distributed
//! LID (Lemmas 4 & 6) and it is property-tested here across selection
//! policies.
//!
//! Implementation: the classic dominant-edge worklist on the integer rank
//! kernel. The per-node incident lists live in one flat CSR array
//! (`offsets` + a contiguous `incident` buffer), each node's slice sorted by
//! global [`crate::EdgeOrder`] rank — built in O(n + m) by scattering the
//! edges in global rank order, with **zero** weight comparisons. An edge is
//! locally heaviest exactly when it is the current top edge of *both*
//! endpoints; cursor advancement and top-edge checks are integer compares,
//! so no `Rational` is touched after `Problem` construction.
//!
//! The original per-node key-sorted formulation (exact `EdgeKey`
//! comparisons throughout) lives on as the test oracle of
//! `tests/rank_equivalence.rs`, which asserts bit-identical matchings.

use crate::bmatching::BMatching;
use crate::problem::Problem;
use owp_graph::{EdgeId, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Which node the worklist examines next. All policies provably produce the
/// same matching (tested); they differ only in traversal order and cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// Process nodes in ascending id order (deterministic, cache-friendly).
    InOrder,
    /// Process nodes in descending id order.
    Reverse,
    /// Shuffle the initial worklist with the given seed — used by the
    /// confluence property tests to simulate arbitrary distributed timing.
    Random(u64),
}

struct State<'p> {
    problem: &'p Problem,
    /// CSR offsets: node `i`'s incident slice is `incident[offsets[i]..offsets[i+1]]`.
    offsets: Vec<u32>,
    /// Flat incident-edge buffer; each node's slice sorted by global rank
    /// ascending (heaviest first).
    incident: Vec<EdgeId>,
    /// Per node: absolute cursor into `incident` (everything in the node's
    /// slice before it is removed).
    cursor: Vec<u32>,
    /// Per edge: removed from the pool (selected or discarded).
    removed: Vec<bool>,
    /// Per node: remaining quota (Algorithm 2's `counter`).
    counter: Vec<u32>,
    matching: BMatching,
    /// Selection order, returned by [`lic_with_order`].
    order: Vec<EdgeId>,
}

impl<'p> State<'p> {
    fn new(problem: &'p Problem) -> Self {
        let g = &problem.graph;
        let n = g.node_count();

        // CSR offsets are exactly the graph's degree prefix sums.
        let mut offsets = vec![0u32; n + 1];
        for i in g.nodes() {
            offsets[i.index() + 1] = offsets[i.index()] + g.degree(i) as u32;
        }
        // Scatter edges in global rank order: each node's slice comes out
        // sorted heaviest-first without a single weight comparison.
        let mut incident = vec![EdgeId(0); 2 * g.edge_count()];
        let mut fill: Vec<u32> = offsets[..n].to_vec();
        for &e in problem.order.heaviest_first() {
            let (u, v) = g.endpoints(e);
            incident[fill[u.index()] as usize] = e;
            fill[u.index()] += 1;
            incident[fill[v.index()] as usize] = e;
            fill[v.index()] += 1;
        }

        let cursor = offsets[..n].to_vec();
        let counter: Vec<u32> = g.nodes().map(|i| problem.quotas.get(i)).collect();
        State {
            problem,
            offsets,
            incident,
            cursor,
            removed: vec![false; g.edge_count()],
            counter,
            matching: BMatching::empty(g),
            order: Vec::new(),
        }
    }

    /// Current heaviest pool edge of `i`, advancing the cursor lazily.
    fn top(&mut self, i: NodeId) -> Option<EdgeId> {
        let idx = i.index();
        let end = self.offsets[idx + 1];
        let mut c = self.cursor[idx];
        let mut found = None;
        while c < end {
            let e = self.incident[c as usize];
            if !self.removed[e.index()] {
                found = Some(e);
                break;
            }
            c += 1;
        }
        self.cursor[idx] = c;
        found
    }

    /// Discards all pool edges of a saturated node, re-queueing the nodes
    /// whose pool shrank (their top edge may have become locally heaviest).
    /// Scans from the cursor: everything before it is already removed.
    fn saturate(&mut self, i: NodeId, queue: &mut Vec<NodeId>) {
        let idx = i.index();
        for k in self.cursor[idx]..self.offsets[idx + 1] {
            let e = self.incident[k as usize];
            if !self.removed[e.index()] {
                self.removed[e.index()] = true;
                queue.push(self.problem.graph.other_endpoint(e, i));
            }
        }
        self.cursor[idx] = self.offsets[idx + 1];
    }

    /// Selects a locally heaviest edge (Algorithm 2 lines 5–9).
    fn select(&mut self, e: EdgeId, queue: &mut Vec<NodeId>) {
        debug_assert!(!self.removed[e.index()]);
        let (a, b) = self.problem.graph.endpoints(e);
        debug_assert!(self.counter[a.index()] > 0 && self.counter[b.index()] > 0);
        self.matching.insert(self.problem, e);
        self.order.push(e);
        self.removed[e.index()] = true;
        for x in [a, b] {
            self.counter[x.index()] -= 1;
            if self.counter[x.index()] == 0 {
                self.saturate(x, queue);
            }
        }
        queue.push(a);
        queue.push(b);
    }

    fn run(mut self, policy: SelectionPolicy) -> (BMatching, Vec<EdgeId>) {
        let n = self.problem.graph.node_count();
        let mut queue: Vec<NodeId> = match policy {
            SelectionPolicy::InOrder => (0..n as u32).map(NodeId).collect(),
            SelectionPolicy::Reverse => (0..n as u32).rev().map(NodeId).collect(),
            SelectionPolicy::Random(seed) => {
                let mut q: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
                q.shuffle(&mut StdRng::seed_from_u64(seed));
                q
            }
        };

        // Nodes that can never participate discard their edges upfront
        // (counter = 0 from a zero quota).
        let mut extra = Vec::new();
        for i in 0..n {
            if self.counter[i] == 0 {
                self.saturate(NodeId(i as u32), &mut extra);
            }
        }
        queue.extend(extra);

        while let Some(i) = queue.pop() {
            // If i's current top edge is also its other endpoint's top edge,
            // it is heavier than every other pool edge touching either — a
            // locally heaviest edge (eq. 13). select() re-queues i, so any
            // further selections at i happen on later worklist visits,
            // keeping the traversal policy-driven.
            if let Some(e) = self.top(i) {
                let j = self.problem.graph.other_endpoint(e, i);
                if self.top(j) == Some(e) {
                    self.select(e, &mut queue);
                }
            }
        }

        debug_assert!(
            self.removed.iter().all(|&r| r),
            "pool must be empty at termination"
        );
        (self.matching, self.order)
    }
}

/// Runs LIC and returns the matching.
pub fn lic(problem: &Problem, policy: SelectionPolicy) -> BMatching {
    State::new(problem).run(policy).0
}

/// Runs LIC and also returns the order in which edges were selected: each
/// prefix of it is a valid "locally heaviest so far" history, which
/// [`crate::verify::check_selection_order`] checks (Lemmas 3/4).
pub fn lic_with_order(problem: &Problem, policy: SelectionPolicy) -> (BMatching, Vec<EdgeId>) {
    State::new(problem).run(policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use owp_graph::generators::{complete, erdos_renyi, path, star};
    use owp_graph::{PreferenceTable, Quotas};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn respects_quotas_and_validity() {
        for seed in 0..20 {
            let p = Problem::random_gnp(30, 0.3, 2, seed);
            let m = lic(&p, SelectionPolicy::InOrder);
            verify::check_valid(&p, &m).expect("valid matching");
        }
    }

    #[test]
    fn confluence_across_policies() {
        for seed in 0..15 {
            let p = Problem::random_gnp(25, 0.4, 3, seed);
            let a = lic(&p, SelectionPolicy::InOrder);
            let b = lic(&p, SelectionPolicy::Reverse);
            assert!(a.same_edges(&b), "InOrder vs Reverse differ at seed {seed}");
            for shuffle_seed in 0..5 {
                let c = lic(&p, SelectionPolicy::Random(shuffle_seed));
                assert!(a.same_edges(&c), "random policy differs at seed {seed}");
            }
        }
    }

    #[test]
    fn b1_path_picks_heaviest_nonadjacent() {
        // Path 0—1—2 with b=1: LIC must take exactly the heavier edge.
        let g = path(3);
        let prefs = PreferenceTable::by_node_id(&g);
        let quotas = Quotas::uniform(&g, 1);
        let p = Problem::new(g, prefs, quotas);
        let m = lic(&p, SelectionPolicy::InOrder);
        assert_eq!(m.size(), 1);
        // Verify it took the heavier of the two edges.
        let e01 = p.graph.edge_between(NodeId(0), NodeId(1)).unwrap();
        let e12 = p.graph.edge_between(NodeId(1), NodeId(2)).unwrap();
        let heavier = if p.weights.key(&p.graph, e01) > p.weights.key(&p.graph, e12) {
            e01
        } else {
            e12
        };
        assert!(m.contains(heavier));
    }

    #[test]
    fn saturates_star_hub() {
        // Star hub with quota 2 keeps exactly its 2 heaviest edges.
        let g = star(6);
        let prefs = PreferenceTable::by_node_id(&g);
        let quotas = Quotas::from_vec(&g, vec![2, 1, 1, 1, 1, 1]);
        let p = Problem::new(g, prefs, quotas);
        let m = lic(&p, SelectionPolicy::InOrder);
        assert_eq!(m.size(), 2);
        assert_eq!(m.degree(NodeId(0)), 2);
        // The hub's two kept edges are heavier than all dropped ones.
        verify::check_greedy_certificate(&p, &m).expect("certificate");
    }

    #[test]
    fn zero_quota_node_gets_nothing() {
        let g = complete(5);
        let prefs = PreferenceTable::by_node_id(&g);
        let quotas = Quotas::from_vec(&g, vec![0, 2, 2, 2, 2]);
        let p = Problem::new(g, prefs, quotas);
        let m = lic(&p, SelectionPolicy::InOrder);
        assert_eq!(m.degree(NodeId(0)), 0);
        verify::check_valid(&p, &m).expect("valid");
    }

    #[test]
    fn selection_order_is_locally_heaviest_history() {
        for seed in 0..10 {
            let p = Problem::random_gnp(20, 0.35, 2, 100 + seed);
            let (m, order) = lic_with_order(&p, SelectionPolicy::Random(seed));
            assert_eq!(m.size(), order.len());
            verify::check_selection_order(&p, &order).expect("each selected edge was locally heaviest at its selection point");
        }
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let p = Problem::random_over(erdos_renyi(0, 0.5, &mut StdRng::seed_from_u64(1)), 2, 1);
        assert_eq!(lic(&p, SelectionPolicy::InOrder).size(), 0);

        let p = Problem::random_over(erdos_renyi(5, 0.0, &mut StdRng::seed_from_u64(1)), 2, 1);
        assert_eq!(lic(&p, SelectionPolicy::InOrder).size(), 0);
    }

    #[test]
    fn full_quota_complete_graph_saturates_everyone() {
        // K6 with b=5: every edge can be taken.
        let p = Problem::random_over(complete(6), 5, 9);
        let m = lic(&p, SelectionPolicy::InOrder);
        assert_eq!(m.size(), 15);
    }
}
