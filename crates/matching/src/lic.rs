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
use owp_telemetry::{NullRecorder, Recorder, TelemetryEvent};
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
    /// Selection order, for tests and traces.
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
    fn top<R: Recorder>(&mut self, i: NodeId, rec: &mut R) -> Option<EdgeId> {
        let idx = i.index();
        let end = self.offsets[idx + 1];
        let start = self.cursor[idx];
        let mut c = start;
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
        // With `NullRecorder` this whole block constant-folds away, leaving
        // the uninstrumented cursor walk.
        if rec.is_enabled() && c > start {
            rec.record(TelemetryEvent::LicCursorAdvanced {
                node: i,
                skipped: c - start,
            });
        }
        found
    }

    /// Discards all pool edges of a saturated node, re-queueing the nodes
    /// whose pool shrank (their top edge may have become locally heaviest).
    /// Scans from the cursor: everything before it is already removed.
    fn saturate<R: Recorder>(&mut self, i: NodeId, queue: &mut Vec<NodeId>, rec: &mut R) {
        let idx = i.index();
        let mut discarded = 0u32;
        for k in self.cursor[idx]..self.offsets[idx + 1] {
            let e = self.incident[k as usize];
            if !self.removed[e.index()] {
                self.removed[e.index()] = true;
                discarded += 1;
                queue.push(self.problem.graph.other_endpoint(e, i));
            }
        }
        self.cursor[idx] = self.offsets[idx + 1];
        if rec.is_enabled() {
            rec.record(TelemetryEvent::LicNodeSaturated {
                step: self.order.len() as u32,
                node: i,
                discarded,
            });
        }
    }

    /// Selects a locally heaviest edge (Algorithm 2 lines 5–9).
    fn select<R: Recorder>(&mut self, e: EdgeId, queue: &mut Vec<NodeId>, rec: &mut R) {
        debug_assert!(!self.removed[e.index()]);
        let (a, b) = self.problem.graph.endpoints(e);
        debug_assert!(self.counter[a.index()] > 0 && self.counter[b.index()] > 0);
        if rec.is_enabled() {
            rec.record(TelemetryEvent::LicEdgeSelected {
                step: self.order.len() as u32,
                edge: e,
                a,
                b,
            });
        }
        self.matching.insert(self.problem, e);
        self.order.push(e);
        self.removed[e.index()] = true;
        for x in [a, b] {
            self.counter[x.index()] -= 1;
            if self.counter[x.index()] == 0 {
                self.saturate(x, queue, rec);
            }
        }
        queue.push(a);
        queue.push(b);
    }

    fn run<R: Recorder>(mut self, policy: SelectionPolicy, rec: &mut R) -> (BMatching, Vec<EdgeId>) {
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
                self.saturate(NodeId(i as u32), &mut extra, rec);
            }
        }
        queue.extend(extra);

        while let Some(i) = queue.pop() {
            // If i's current top edge is also its other endpoint's top edge,
            // it is heavier than every other pool edge touching either — a
            // locally heaviest edge (eq. 13). select() re-queues i, so any
            // further selections at i happen on later worklist visits,
            // keeping the traversal policy-driven.
            if let Some(e) = self.top(i, rec) {
                let j = self.problem.graph.other_endpoint(e, i);
                if self.top(j, rec) == Some(e) {
                    self.select(e, &mut queue, rec);
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
    State::new(problem).run(policy, &mut NullRecorder).0
}

/// Runs LIC recording its decision trace into `rec`: one
/// [`TelemetryEvent::LicEdgeSelected`] per selection (in selection order),
/// [`TelemetryEvent::LicNodeSaturated`] for every counter-exhaustion sweep
/// and [`TelemetryEvent::LicCursorAdvanced`] for every lazy cursor skip.
///
/// Also returns the order in which edges were selected: each prefix of it
/// is a valid "locally heaviest so far" history (the Lemma 3/4
/// verification tests check it).
///
/// Generic over the [`Recorder`], so `lic_traced(p, policy, &mut
/// NullRecorder)` monomorphizes to the uninstrumented run — the
/// instrumentation is free when unused (no `dyn`, no allocation).
pub fn lic_traced<R: Recorder>(
    problem: &Problem,
    policy: SelectionPolicy,
    rec: &mut R,
) -> (BMatching, Vec<EdgeId>) {
    State::new(problem).run(policy, rec)
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
            let (m, order) = lic_traced(&p, SelectionPolicy::Random(seed), &mut NullRecorder);
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

    #[test]
    fn traced_run_matches_untraced_and_replays_the_selection_order() {
        use owp_telemetry::{EventLog, TelemetryEvent};
        for seed in 0..5 {
            let p = Problem::random_gnp(25, 0.35, 2, 300 + seed);
            let mut log = EventLog::enabled();
            let (m, order) = lic_traced(&p, SelectionPolicy::InOrder, &mut log);
            assert!(m.same_edges(&lic(&p, SelectionPolicy::InOrder)));

            // The LicEdgeSelected events ARE the selection order.
            let selected: Vec<_> = log
                .events()
                .iter()
                .filter_map(|e| match *e {
                    TelemetryEvent::LicEdgeSelected { step, edge, .. } => Some((step, edge)),
                    _ => None,
                })
                .collect();
            assert_eq!(selected.len(), order.len());
            for (k, (&(step, edge), &expect)) in selected.iter().zip(order.iter()).enumerate() {
                assert_eq!(step as usize, k);
                assert_eq!(edge, expect);
            }
        }
    }

    #[test]
    fn null_recorder_trace_is_free_and_identical() {
        let p = Problem::random_gnp(30, 0.3, 3, 77);
        let (m, order) = lic_traced(&p, SelectionPolicy::Reverse, &mut NullRecorder);
        let mut log = owp_telemetry::EventLog::enabled();
        let (m2, order2) = lic_traced(&p, SelectionPolicy::Reverse, &mut log);
        assert!(m.same_edges(&m2));
        assert_eq!(order, order2);
        assert!(m.same_edges(&lic(&p, SelectionPolicy::Reverse)));
    }
}
