//! [`DynamicProblem`] — a mutable membership overlay over one fixed
//! universe instance.
//!
//! The universe is an ordinary [`Problem`]: the graph of every connection
//! that could ever exist, preference lists over full universe
//! neighbourhoods, quotas, eq. 9 weights and the integer rank kernel.
//! Dynamics are two flag vectors on top — node activity and edge presence
//! — plus in-place mutation of quotas and preference lists (which
//! re-derives the affected weights and splices the rank kernel
//! incrementally instead of re-sorting the world).
//!
//! Satisfaction convention: lists and quotas stay defined over the
//! universe neighbourhood, so `L_i` (and hence per-connection
//! satisfaction increments) do **not** shrink when neighbours happen to
//! be offline — a peer that loses its top-ranked partner to churn is
//! *less satisfied*, not re-normalized into contentment. This is what
//! makes satisfaction comparable across epochs.

use owp_graph::{EdgeId, Graph, GraphBuilder, NodeId, PreferenceTable, Quotas};
use owp_matching::{EdgeOrder, EdgeWeights, Problem};

/// One universe [`Problem`] plus node-activity and edge-presence flags.
///
/// An edge is **alive** iff it is present and both endpoints are active;
/// the engine's maintained matching only ever selects alive edges.
#[derive(Clone, Debug)]
pub struct DynamicProblem {
    problem: Problem,
    active: Vec<bool>,
    present: Vec<bool>,
    active_nodes: usize,
}

impl DynamicProblem {
    /// Wraps a universe instance with every node active and every edge
    /// present.
    pub fn new(problem: Problem) -> Self {
        let n = problem.node_count();
        let m = problem.edge_count();
        DynamicProblem {
            problem,
            active: vec![true; n],
            present: vec![true; m],
            active_nodes: n,
        }
    }

    /// Rewraps a universe instance with explicit membership flags — how a
    /// deserialized forensic bundle restores the checkpoint state
    /// (`crate::forensics`), and how audit harnesses build a known
    /// membership state directly. Flag lengths must match the instance.
    pub fn from_parts(problem: Problem, active: Vec<bool>, present: Vec<bool>) -> Self {
        assert_eq!(active.len(), problem.node_count(), "active flag length");
        assert_eq!(present.len(), problem.edge_count(), "present flag length");
        let active_nodes = active.iter().filter(|&&a| a).count();
        DynamicProblem {
            problem,
            active,
            present,
            active_nodes,
        }
    }

    /// The universe graph (fixed for the engine's lifetime).
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.problem.graph
    }

    /// Current preference lists (mutated by `PreferenceUpdate`).
    #[inline]
    pub fn prefs(&self) -> &PreferenceTable {
        &self.problem.prefs
    }

    /// Current quotas (mutated by `QuotaChange`).
    #[inline]
    pub fn quotas(&self) -> &Quotas {
        &self.problem.quotas
    }

    /// Current eq. 9 weights over the universe edges.
    #[inline]
    pub fn weights(&self) -> &EdgeWeights {
        &self.problem.weights
    }

    /// Current integer edge ranks (kept consistent with the weights).
    #[inline]
    pub fn order(&self) -> &EdgeOrder {
        &self.problem.order
    }

    /// `true` iff peer `i` is active.
    #[inline]
    pub fn is_active(&self, i: NodeId) -> bool {
        self.active[i.index()]
    }

    /// `true` iff universe edge `e` is present.
    #[inline]
    pub fn is_present(&self, e: EdgeId) -> bool {
        self.present[e.index()]
    }

    /// `true` iff edge `e` can carry a connection right now: present, with
    /// both endpoints active.
    #[inline]
    pub fn is_alive(&self, e: EdgeId) -> bool {
        if !self.present[e.index()] {
            return false;
        }
        let (u, v) = self.problem.graph.endpoints(e);
        self.active[u.index()] && self.active[v.index()]
    }

    /// Number of active peers.
    pub fn active_count(&self) -> usize {
        self.active_nodes
    }

    pub(crate) fn set_active(&mut self, i: NodeId, on: bool) {
        debug_assert_ne!(self.active[i.index()], on);
        self.active[i.index()] = on;
        if on {
            self.active_nodes += 1;
        } else {
            self.active_nodes -= 1;
        }
    }

    pub(crate) fn set_present(&mut self, e: EdgeId, on: bool) {
        debug_assert_ne!(self.present[e.index()], on);
        self.present[e.index()] = on;
    }

    pub(crate) fn active_flags(&self) -> &[bool] {
        &self.active
    }

    pub(crate) fn present_flags(&self) -> &[bool] {
        &self.present
    }

    /// Sets `i`'s quota and re-derives its incident eq. 9 weights. Returns
    /// the edges whose keys changed; the rank kernel is **stale** for them
    /// until [`DynamicProblem::rerank`] runs — the engine defers that to
    /// one splice per batch, since nothing between events reads ranks.
    pub(crate) fn apply_quota(&mut self, i: NodeId, quota: u32) -> Vec<EdgeId> {
        let p = &mut self.problem;
        p.quotas.set(&p.graph, i, quota);
        p.weights.recompute_incident(&p.graph, &p.prefs, &p.quotas, i)
    }

    /// Replaces `i`'s preference list (validated to be a universe-
    /// neighbourhood permutation by batch validation) and re-derives its
    /// incident weights. Same staleness contract as
    /// [`DynamicProblem::apply_quota`].
    pub(crate) fn apply_prefs(&mut self, i: NodeId, list: Vec<NodeId>) -> Vec<EdgeId> {
        let p = &mut self.problem;
        p.prefs
            .set_list(&p.graph, i, list)
            .expect("batch validation admits only permutations");
        p.weights.recompute_incident(&p.graph, &p.prefs, &p.quotas, i)
    }

    /// Splices the rank kernel after one or more weight mutations: one
    /// `O(|changed| log)` exact-key pass plus one `O(m)` integer pass,
    /// however many events contributed to `changed`.
    pub(crate) fn rerank(&mut self, changed: &[EdgeId]) {
        let p = &mut self.problem;
        p.order.update_keys(&p.graph, &p.weights, changed);
    }

    /// Freezes the current *alive* sub-instance into a standalone
    /// [`Problem`], plus the map from its edge ids back to universe edge
    /// ids — the from-scratch reference that certified repair is checked
    /// against.
    ///
    /// * Nodes keep their universe ids; inactive peers become isolated.
    /// * Preference lists are the universe lists restricted to alive
    ///   neighbours (order preserved); quotas carry over (the constructor
    ///   clamp to the smaller alive degree cannot change the greedy
    ///   outcome — a quota above the degree never binds).
    /// * Weights are **inherited**, not re-derived: the reference must
    ///   rank edges exactly as the engine does, and under the universe
    ///   satisfaction convention eq. 9 is evaluated on universe lists.
    ///
    /// The map is position-for-position: `map[k]` is the universe id of
    /// the snapshot's `EdgeId(k)`. (`GraphBuilder` assigns ids in
    /// canonical endpoint-pair order, so sorting the alive edges the same
    /// way lines the two id spaces up.)
    pub fn snapshot_with_map(&self) -> (Problem, Vec<EdgeId>) {
        let g = self.graph();
        let mut alive: Vec<(NodeId, NodeId, EdgeId)> = g
            .edges()
            .filter(|&e| self.is_alive(e))
            .map(|e| {
                let (u, v) = g.endpoints(e);
                (u, v, e)
            })
            .collect();
        alive.sort_unstable();

        let mut b = GraphBuilder::new(g.node_count());
        for &(u, v, _) in &alive {
            b.add_edge(u, v);
        }
        let sg = b.build();
        let map: Vec<EdgeId> = alive.iter().map(|&(_, _, e)| e).collect();

        let lists: Vec<Vec<NodeId>> = g
            .nodes()
            .map(|i| {
                if !self.is_active(i) {
                    return Vec::new();
                }
                self.prefs()
                    .list(i)
                    .iter()
                    .copied()
                    .filter(|&j| {
                        let e = g.edge_between(i, j).expect("preference over neighbours");
                        self.is_alive(e)
                    })
                    .collect()
            })
            .collect();
        let prefs = PreferenceTable::from_lists(&sg, lists)
            .expect("restricting universe lists to alive neighbours is a permutation");
        let quotas = Quotas::from_vec(&sg, g.nodes().map(|i| self.quotas().get(i)).collect());
        let weights =
            EdgeWeights::from_raw(map.iter().map(|&e| self.weights().get(e)).collect());
        (Problem::with_weights(sg, prefs, quotas, weights), map)
    }

    /// [`DynamicProblem::snapshot_with_map`] without the edge map.
    pub fn snapshot(&self) -> Problem {
        self.snapshot_with_map().0
    }
}
