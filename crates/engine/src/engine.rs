//! [`Engine`] — certified bounded repair of the locally-heaviest matching.
//!
//! ## Why a heap over final ranks is enough
//!
//! The maintained matching is the *canonical* greedy outcome: edge `e` is
//! selected iff it is alive and, at each endpoint `x`, fewer than `b_x`
//! **selected edges heavier than `e`** are incident to `x`. That
//! definition is self-referential only downward — `e`'s status depends on
//! strictly heavier edges alone (the confluence behind the paper's
//! Lemmas 3–6). So repair runs a min-heap keyed by rank (heaviest first):
//!
//! * it is seeded with every edge an event directly perturbs (see the
//!   per-variant notes on [`EngineEvent`] handling below);
//! * when an edge's status *flips*, only the strictly lighter edges at
//!   its two endpoints whose status the flip can actually move are
//!   pushed: a flip **on** tightens the endpoints, so only lighter
//!   *selected* edges (at most `b` per node) can turn off; a flip **off**
//!   relaxes them, so only lighter *unselected* alive edges can turn on;
//! * the `queued` bitmap is an *in-heap* marker (set on push, cleared on
//!   pop), so no edge sits in the frontier twice. Pops are monotone in
//!   rank, so each edge is evaluated at most once per batch, after every
//!   heavier edge it depends on has settled — by induction on rank the
//!   statuses stabilize at the canonical fixpoint, the same matching
//!   `lic()` computes from scratch, bit for bit ([`Engine::certify`]
//!   checks it).
//!
//! Dirty-set seeding per event:
//!
//! * `EdgeAdd` / `EdgeRemove` — the edge itself. A removed edge evaluates
//!   to "must not be selected", and its un-selection cascades.
//! * `NodeJoin` / `NodeLeave` — all universe edges incident to the node:
//!   each may change aliveness. (Weights do not change — they live on the
//!   universe.)
//! * `QuotaChange` / `PreferenceUpdate` at `i` — these move *ranks*, so
//!   the "heavier than" context changes at `i` **and at every
//!   neighbour `j`**: the 2-hop seed is all edges incident to `i` plus
//!   all edges incident to each neighbour of `i`. Anything further is
//!   reachable only through a flip, which the cascade covers.
//!
//! During repair a node can transiently exceed its quota (a heavier edge
//! is selected before the displaced lighter one is popped), which is why
//! the engine writes through `BMatching::insert_unchecked`; the canonical
//! definition guarantees quotas hold again when the repair converges.
//!
//! All repair state lives in reusable arenas ([`crate::scratch`]): after
//! warm-up a batch of structural events performs no heap allocation.

use crate::dynamic::DynamicProblem;
use crate::event::{EngineError, EngineEvent};
use crate::forensics::{self, InjectedFault, StepRing};
use crate::report::{DeltaReport, Epoch};
use crate::scratch::EngineScratch;
use owp_graph::{EdgeId, Graph, NodeId};
use owp_matching::satisfaction::node_satisfaction;
use owp_matching::{lic, BMatching, EdgeOrder, EdgeRank, Problem, SelectionPolicy};
use std::cmp::Reverse;

/// Default black-box history depth, in batches. Bounds both the memory
/// held by recorded batches and the worst-case shrinker window.
pub const DEFAULT_HISTORY_CAPACITY: usize = 32;

/// The event-driven engine: owns a [`DynamicProblem`] and keeps the exact
/// locally-heaviest matching of its alive sub-instance through every
/// applied batch ([`Engine::certify`] checks the invariant on demand).
///
/// [`Engine::new`] keeps the default forensic history depth;
/// [`Engine::with_history`] sets it.
#[derive(Clone, Debug)]
pub struct Engine {
    dp: DynamicProblem,
    matching: BMatching,
    /// Repair state and arenas: selected/queued bitmaps, the heap
    /// frontier, the per-node selected-edge mirror, delta journal,
    /// validation scratch, touched tracking.
    scratch: EngineScratch,
    /// Per-node satisfaction under the universe convention; 0 while
    /// inactive. Only nodes a batch touches are recomputed.
    sat: Vec<f64>,
    total_sat: f64,
    epoch: Epoch,
    /// Black-box history of applied batches and injected faults.
    history: StepRing,
    /// Shadow copy of the dynamic instance just *before* the oldest
    /// retained history step — the origin forensic replay starts from. Advanced lazily as
    /// the history ring evicts. `None` when history is disabled.
    checkpoint: Option<DynamicProblem>,
    /// Epoch the checkpoint corresponds to.
    checkpoint_epoch: Epoch,
}

/// Selected edges in mirror row `row` strictly heavier than rank `r` —
/// the canonical definition's per-endpoint counter (at most `b_x`
/// candidates, since rows hold only selected edges).
#[inline]
fn heavier_selected(order: &EdgeOrder, row: &[u32], r: EdgeRank) -> u32 {
    row.iter().filter(|&&f| order.rank(EdgeId(f)) < r).count() as u32
}

/// Pushes `e` onto the frontier unless it is already queued.
#[inline]
fn enqueue(scratch: &mut EngineScratch, e: EdgeId, r: EdgeRank) {
    if !scratch.queued[e.index()] {
        scratch.queued[e.index()] = true;
        scratch.heap.push(Reverse((r, e.0)));
    }
}

/// The 2-hop dirty seed of a weight-changing event at `i`: edges
/// incident to `i` and to each of `i`'s neighbours.
fn seed_two_hop(g: &Graph, seeds: &mut Vec<EdgeId>, i: NodeId) {
    for &(j, e) in g.neighbors(i) {
        seeds.push(e);
        for &(_, f) in g.neighbors(j) {
            seeds.push(f);
        }
    }
}

/// Drains the batch's seeds through the rank-ordered heap, flipping edges
/// whose canonical status changed (writing through to `matching`) and
/// touching their endpoints. Returns the number of edges evaluated.
fn repair(dp: &DynamicProblem, matching: &mut BMatching, scratch: &mut EngineScratch) -> u64 {
    let g = dp.graph();
    let order = dp.order();
    let quotas = dp.quotas();

    for idx in 0..scratch.seeds.len() {
        let e = scratch.seeds[idx];
        enqueue(scratch, e, order.rank(e));
    }
    scratch.seeds.clear();

    let mut evaluated = 0u64;
    while let Some(Reverse((r, eid))) = scratch.heap.pop() {
        let e = EdgeId(eid);
        scratch.queued[e.index()] = false;
        evaluated += 1;
        let (u, v) = g.endpoints(e);
        let desired = dp.is_alive(e)
            && heavier_selected(order, scratch.sel.row(u.index()), r) < quotas.get(u)
            && heavier_selected(order, scratch.sel.row(v.index()), r) < quotas.get(v);
        if desired == scratch.selected[e.index()] {
            continue;
        }
        scratch.touch(u);
        scratch.touch(v);
        if desired {
            // Turning `e` on tightens both endpoints: only strictly
            // lighter *selected* edges there (≤ b each) can flip off.
            for x in [u, v] {
                for i in 0..scratch.sel.len(x.index()) {
                    let f = EdgeId(scratch.sel.row(x.index())[i]);
                    let rf = order.rank(f);
                    if rf > r {
                        enqueue(scratch, f, rf);
                    }
                }
            }
            scratch.flip(g, matching, e, true);
        } else {
            scratch.flip(g, matching, e, false);
            // Turning `e` off relaxes both endpoints: only strictly
            // lighter *unselected* alive edges there can flip on.
            for x in [u, v] {
                for &(_, f) in g.neighbors(x) {
                    let rf = order.rank(f);
                    if rf > r && dp.is_alive(f) && !scratch.selected[f.index()] {
                        enqueue(scratch, f, rf);
                    }
                }
            }
        }
    }
    evaluated
}

impl Engine {
    /// Starts the engine over `problem` with every node active and every
    /// edge present, computing the canonical matching from scratch (epoch
    /// 0), with the default history depth ([`DEFAULT_HISTORY_CAPACITY`]).
    pub fn new(problem: Problem) -> Self {
        Self::with_history(problem, DEFAULT_HISTORY_CAPACITY)
    }

    /// [`Engine::new`] with a black-box history of `batches` steps; 0
    /// disables history, the shadow checkpoint and forensic replay.
    pub fn with_history(problem: Problem, batches: usize) -> Self {
        Self::layout(DynamicProblem::new(problem), batches)
    }

    /// Starts an engine over an existing dynamic instance, membership
    /// flags and all — how forensic replay rebuilds the engine a recorded
    /// window ran against. History disabled (a replay engine must not
    /// record itself).
    pub fn from_dynamic(dp: DynamicProblem) -> Self {
        Self::layout(dp, 0)
    }

    /// Rebuilds an engine from a durability snapshot taken at `epoch` —
    /// `matchd`'s crash-recovery path (DESIGN.md §13). The restored
    /// engine resumes the original epoch sequence, so WAL replay after it
    /// reproduces the pre-crash epochs exactly. Unlike
    /// [`Engine::from_dynamic`], the history runs at its default depth: a
    /// recovered daemon is a live engine, not a replay harness.
    pub fn from_snapshot(
        snapshot: &crate::forensics::OriginSnapshot,
        epoch: Epoch,
    ) -> Result<Self, String> {
        let dp = snapshot.restore()?;
        let mut e = Self::layout(dp, DEFAULT_HISTORY_CAPACITY);
        e.epoch = epoch;
        e.checkpoint_epoch = epoch;
        Ok(e)
    }

    fn layout(dp: DynamicProblem, history_cap: usize) -> Self {
        let checkpoint = (history_cap > 0).then(|| dp.clone());
        let g = dp.graph();
        let mut scratch = EngineScratch::new(g);
        let mut matching = BMatching::empty(g);
        let mut slots: Vec<u32> = g.nodes().map(|i| dp.quotas().get(i)).collect();
        for &e in dp.order().heaviest_first() {
            if !dp.is_alive(e) {
                continue;
            }
            let (u, v) = g.endpoints(e);
            if slots[u.index()] > 0 && slots[v.index()] > 0 {
                matching.insert_unchecked(g, e);
                slots[u.index()] -= 1;
                slots[v.index()] -= 1;
                scratch.selected[e.index()] = true;
                scratch.sel.push(u.index(), e.0);
                scratch.sel.push(v.index(), e.0);
            }
        }
        let sat: Vec<f64> = g
            .nodes()
            .map(|i| {
                if dp.is_active(i) {
                    node_satisfaction(dp.prefs(), dp.quotas(), i, matching.connections(i))
                } else {
                    0.0
                }
            })
            .collect();
        let total_sat = sat.iter().sum();
        Engine {
            dp,
            matching,
            scratch,
            sat,
            total_sat,
            epoch: Epoch(0),
            history: StepRing::new(history_cap),
            checkpoint,
            checkpoint_epoch: Epoch(0),
        }
    }

    /// The dynamic instance the engine maintains.
    pub fn dynamic(&self) -> &DynamicProblem {
        &self.dp
    }

    /// The maintained matching (edge ids are universe ids).
    pub fn matching(&self) -> &BMatching {
        &self.matching
    }

    /// The black-box history of recent batches and injected faults.
    pub fn history(&self) -> &StepRing {
        &self.history
    }

    /// The shadow checkpoint (a full [`DynamicProblem`] copy) the
    /// retained history replays from; `None` when history is disabled.
    pub fn checkpoint(&self) -> Option<&DynamicProblem> {
        self.checkpoint.as_ref()
    }

    /// Epoch the checkpoint corresponds to — the state just before the
    /// oldest retained history step.
    pub fn checkpoint_epoch(&self) -> Epoch {
        self.checkpoint_epoch
    }

    /// The current epoch (one tick per applied batch, including empty
    /// ones).
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Total satisfaction over active peers, maintained incrementally.
    pub fn total_satisfaction(&self) -> f64 {
        self.total_sat
    }

    /// Satisfaction of peer `i` (0 while inactive).
    pub fn satisfaction(&self, i: NodeId) -> f64 {
        self.sat[i.index()]
    }

    /// Applies one event. Equivalent to a one-element
    /// [`Engine::apply_batch`].
    pub fn apply(&mut self, event: EngineEvent) -> Result<DeltaReport, EngineError> {
        self.apply_batch(std::slice::from_ref(&event))
    }

    /// Applies a batch atomically: the whole batch is validated against a
    /// scratch copy of the membership flags first, so an `Err` leaves the
    /// engine untouched (same epoch, same matching). On success all
    /// events take effect together and **one** bounded repair restores
    /// the canonical matching.
    pub fn apply_batch(&mut self, events: &[EngineEvent]) -> Result<DeltaReport, EngineError> {
        let mut report = DeltaReport::default();
        self.apply_batch_into(events, &mut report)?;
        Ok(report)
    }

    /// [`Engine::apply_batch`] writing into a caller-owned report, so the
    /// delta `Vec`s are reused across batches instead of reallocated —
    /// the steady-state zero-allocation entry point, and the one every
    /// other delegates to. The report's previous contents are overwritten
    /// (untouched on `Err`). Every successful batch is appended to the
    /// black-box history, allocation-free once warm.
    pub fn apply_batch_into(
        &mut self,
        events: &[EngineEvent],
        out: &mut DeltaReport,
    ) -> Result<(), EngineError> {
        self.apply_core(events, out)?;
        self.record_step(events, None);
        Ok(())
    }

    /// Crash-restart recovery hook for the chaos campaigns: node `node`
    /// went down and came back with no volatile state. Modelled as an
    /// atomic leave+join batch — the leave tears down the node's matched
    /// edges (repairing displaced neighbours), the join re-admits it and
    /// the same bounded repair re-acquires its locally-heaviest edges. The
    /// engine's certificates must hold across the transition exactly as
    /// across any other batch.
    pub fn restart_node(&mut self, node: NodeId) -> Result<DeltaReport, EngineError> {
        self.apply_batch(&[
            EngineEvent::NodeLeave { node },
            EngineEvent::NodeJoin { node },
        ])
    }

    /// Deliberately corrupts the engine — the chaos hook the forensic
    /// pipeline is proved against (experiment E22). The fault is applied
    /// *and* recorded as a history step, so a forensic replay reproduces
    /// it at the same point in the stream. The epoch does not tick:
    /// faults are not legitimate batches.
    pub fn inject_fault(&mut self, fault: InjectedFault) {
        self.apply_fault(&fault);
        self.record_step(&[], Some(fault));
    }

    /// Applies a fault's corruption without recording it (replay path).
    pub(crate) fn apply_fault(&mut self, fault: &InjectedFault) {
        match fault {
            // Force the edge into the matching behind the repair
            // machinery's back: mirrors and satisfaction are left stale
            // on purpose — this models external state corruption.
            InjectedFault::PhantomEdge { edge } => {
                self.matching.insert_unchecked(self.dp.graph(), *edge);
            }
            // Move the weights/ranks but skip the repair the engine
            // would normally run: the matching goes stale against eq. 9.
            InjectedFault::SkippedRepair { node, list } => {
                let changed = self.dp.apply_prefs(*node, list.clone());
                self.dp.rerank(&changed);
            }
        }
    }

    /// Appends one step to the black-box history, first advancing the
    /// shadow checkpoint past whatever the ring evicts.
    fn record_step(&mut self, events: &[EngineEvent], fault: Option<InjectedFault>) {
        if self.history.capacity() == 0 {
            return;
        }
        if let Some(step) = self.history.evicting() {
            if let Some(ck) = self.checkpoint.as_mut() {
                forensics::advance_membership(ck, &step.events, step.fault.as_ref());
                self.checkpoint_epoch = Epoch(step.epoch);
            }
        }
        self.history.push_step(self.epoch.0, events, fault);
    }

    fn apply_core(
        &mut self,
        events: &[EngineEvent],
        out: &mut DeltaReport,
    ) -> Result<(), EngineError> {
        self.validate(events)?;
        let epoch = Epoch(self.epoch.0 + 1);
        out.epoch = epoch;
        out.events = events.len();
        out.edges_added.clear();
        out.edges_removed.clear();

        // ---- apply all events, collecting seeds (the heap is built
        // afterwards, once ranks are final) and marking the nodes whose
        // satisfaction inputs changed.
        let mut reranked = 0usize;
        {
            let dp = &mut self.dp;
            let scratch = &mut self.scratch;
            for ev in events {
                match ev {
                    EngineEvent::NodeJoin { node } => {
                        dp.set_active(*node, true);
                        scratch.seeds.extend(dp.graph().neighbors(*node).iter().map(|&(_, e)| e));
                        scratch.touch(*node);
                    }
                    EngineEvent::NodeLeave { node } => {
                        dp.set_active(*node, false);
                        scratch.seeds.extend(dp.graph().neighbors(*node).iter().map(|&(_, e)| e));
                        scratch.touch(*node);
                    }
                    EngineEvent::EdgeAdd { u, v } => {
                        let e = dp.graph().edge_between(*u, *v).expect("validated");
                        dp.set_present(e, true);
                        scratch.seeds.push(e);
                    }
                    EngineEvent::EdgeRemove { u, v } => {
                        let e = dp.graph().edge_between(*u, *v).expect("validated");
                        dp.set_present(e, false);
                        scratch.seeds.push(e);
                    }
                    EngineEvent::QuotaChange { node, quota } => {
                        let changed = dp.apply_quota(*node, *quota);
                        reranked += changed.len();
                        scratch.rerank_list.extend(changed);
                        seed_two_hop(dp.graph(), &mut scratch.seeds, *node);
                        scratch.touch(*node);
                    }
                    EngineEvent::PreferenceUpdate { node, list } => {
                        let changed = dp.apply_prefs(*node, list.clone());
                        reranked += changed.len();
                        scratch.rerank_list.extend(changed);
                        seed_two_hop(dp.graph(), &mut scratch.seeds, *node);
                        scratch.touch(*node);
                    }
                }
            }
            // One splice for the whole batch: `update_keys` recomputes
            // the moved keys from the *final* weights, so folding every
            // event's changed set into a single call is exact (and turns
            // k weight events from k O(m) splices into one).
            dp.rerank(&scratch.rerank_list);
            scratch.rerank_list.clear();
        }

        // ---- bounded repair: flips land in the matching, the delta
        // journal and the touched set as they happen.
        let evaluated = repair(&self.dp, &mut self.matching, &mut self.scratch);

        // ---- compact the delta journal into the report: net state per
        // touched edge, emitted heaviest-first.
        {
            let order = self.dp.order();
            let scratch = &mut self.scratch;
            for idx in 0..scratch.delta_edges.len() {
                let e = scratch.delta_edges[idx];
                let ds = scratch.delta_state[e.index()];
                scratch.delta_state[e.index()] = 0;
                match ds & 3 {
                    1 => out.edges_added.push(e),
                    2 => out.edges_removed.push(e),
                    _ => {}
                }
            }
            scratch.delta_edges.clear();
            out.edges_added.sort_unstable_by_key(|&e| order.rank(e));
            out.edges_removed.sort_unstable_by_key(|&e| order.rank(e));
        }

        // ---- refresh satisfaction of exactly the touched nodes.
        let old_total = self.total_sat;
        for idx in 0..self.scratch.touched_nodes.len() {
            let i = self.scratch.touched_nodes[idx];
            self.scratch.touched[i.index()] = false;
            let new = if self.dp.is_active(i) {
                node_satisfaction(
                    self.dp.prefs(),
                    self.dp.quotas(),
                    i,
                    self.matching.connections(i),
                )
            } else {
                0.0
            };
            self.total_sat += new - self.sat[i.index()];
            self.sat[i.index()] = new;
        }
        self.scratch.touched_nodes.clear();

        self.epoch = epoch;
        out.evaluated = evaluated as usize;
        out.reranked = reranked;
        out.delta_satisfaction = self.total_sat - old_total;
        out.total_satisfaction = self.total_sat;
        out.matching_size = self.matching.size();
        Ok(())
    }

    /// Whole-batch validation against scratch membership flags; `Err`
    /// means nothing was (or will be) applied.
    fn validate(&mut self, events: &[EngineEvent]) -> Result<(), EngineError> {
        let g = self.dp.graph();
        let n = g.node_count();
        let scratch = &mut self.scratch;
        scratch.val_active.clear();
        scratch.val_active.extend_from_slice(self.dp.active_flags());
        scratch.val_present.clear();
        scratch.val_present.extend_from_slice(self.dp.present_flags());
        let active = &mut scratch.val_active;
        let present = &mut scratch.val_present;
        let check_node = |i: NodeId| {
            if i.index() < n {
                Ok(())
            } else {
                Err(EngineError::UnknownNode(i))
            }
        };
        for ev in events {
            match ev {
                EngineEvent::NodeJoin { node } => {
                    check_node(*node)?;
                    if active[node.index()] {
                        return Err(EngineError::AlreadyActive(*node));
                    }
                    active[node.index()] = true;
                }
                EngineEvent::NodeLeave { node } => {
                    check_node(*node)?;
                    if !active[node.index()] {
                        return Err(EngineError::NotActive(*node));
                    }
                    active[node.index()] = false;
                }
                EngineEvent::EdgeAdd { u, v } => {
                    check_node(*u)?;
                    check_node(*v)?;
                    let e = g.edge_between(*u, *v).ok_or(EngineError::UnknownEdge(*u, *v))?;
                    if present[e.index()] {
                        return Err(EngineError::EdgePresent(*u, *v));
                    }
                    present[e.index()] = true;
                }
                EngineEvent::EdgeRemove { u, v } => {
                    check_node(*u)?;
                    check_node(*v)?;
                    let e = g.edge_between(*u, *v).ok_or(EngineError::UnknownEdge(*u, *v))?;
                    if !present[e.index()] {
                        return Err(EngineError::EdgeAbsent(*u, *v));
                    }
                    present[e.index()] = false;
                }
                EngineEvent::QuotaChange { node, .. } => check_node(*node)?,
                EngineEvent::PreferenceUpdate { node, list } => {
                    check_node(*node)?;
                    // A permutation of the universe neighbourhood: right
                    // length, no duplicates, all neighbours.
                    if list.len() != g.degree(*node) {
                        return Err(EngineError::InvalidPreferences(*node));
                    }
                    let mut sorted = list.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    if sorted.len() != list.len()
                        || !sorted.iter().zip(g.neighbor_ids(*node)).all(|(&a, b)| a == b)
                    {
                        return Err(EngineError::InvalidPreferences(*node));
                    }
                }
            }
        }
        Ok(())
    }

    /// Certified repair, checked: recomputes the matching **from scratch**
    /// (LIC on the current alive snapshot) and compares edge for edge.
    /// `Err` carries a description of the first divergence.
    pub fn certify(&self) -> Result<(), String> {
        let (snap, map) = self.dp.snapshot_with_map();
        let reference = lic(&snap, SelectionPolicy::InOrder);
        for (k, &ue) in map.iter().enumerate() {
            let se = EdgeId(k as u32);
            if reference.contains(se) != self.matching.contains(ue) {
                return Err(format!(
                    "{}: engine {} universe edge {ue:?} but the from-scratch run {} it",
                    self.epoch,
                    if self.matching.contains(ue) { "selects" } else { "omits" },
                    if reference.contains(se) { "selects" } else { "omits" },
                ));
            }
        }
        if reference.size() != self.matching.size() {
            return Err(format!(
                "{}: engine holds {} edges ({} alive from scratch) — a dead edge is still selected",
                self.epoch,
                self.matching.size(),
                reference.size(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(seed: u64) -> Engine {
        Engine::new(Problem::random_gnp(24, 0.3, 2, seed))
    }

    #[test]
    fn initial_state_is_canonical_and_certified() {
        let e = engine(1);
        assert_eq!(e.epoch(), Epoch(0));
        e.certify().expect("epoch 0");
        let reference = lic(
            &Problem::random_gnp(24, 0.3, 2, 1),
            SelectionPolicy::InOrder,
        );
        assert!(e.matching().same_edges(&reference));
        let direct: f64 = reference.total_satisfaction(&Problem::random_gnp(24, 0.3, 2, 1));
        assert!((e.total_satisfaction() - direct).abs() < 1e-9);
    }

    #[test]
    fn node_leave_seeds_its_neighbourhood() {
        let mut e = engine(2);
        let victim = NodeId(3);
        let deg = e.dynamic().graph().degree(victim);
        let r = e.apply(EngineEvent::NodeLeave { node: victim }).unwrap();
        // The dirty region starts from the victim's incident edges and only
        // grows by cascade — with nothing else perturbed it stays well under
        // the instance size.
        assert!(r.evaluated >= deg, "every incident edge re-examined");
        assert!(e.matching().connections(victim).is_empty());
        assert_eq!(e.satisfaction(victim), 0.0);
        e.certify().expect("after leave");
    }

    #[test]
    fn node_join_restores_participation() {
        let mut e = engine(3);
        let victim = NodeId(5);
        e.apply(EngineEvent::NodeLeave { node: victim }).unwrap();
        let r = e.apply(EngineEvent::NodeJoin { node: victim }).unwrap();
        assert!(r.evaluated >= e.dynamic().graph().degree(victim));
        e.certify().expect("after rejoin");
        // Rejoining everything returns to the original canonical matching.
        let fresh = engine(3);
        assert!(e.matching().same_edges(fresh.matching()));
        assert_eq!(e.epoch(), Epoch(2));
    }

    #[test]
    fn leaving_the_busiest_nodes_leaves_no_addable_edge() {
        let p = Problem::random_gnp(30, 0.3, 3, 1);
        let mut e = Engine::new(p.clone());
        let mut busiest: Vec<NodeId> = p.nodes().collect();
        busiest.sort_by_key(|&i| Reverse(e.matching().degree(i)));
        for &i in &busiest[..3] {
            let degree = e.matching().degree(i);
            let r = e.apply(EngineEvent::NodeLeave { node: i }).unwrap();
            assert!(r.edges_removed.len() >= degree);
            assert_eq!(e.matching().degree(i), 0, "leaver keeps no connections");
        }
        // A rejected event leaves the membership untouched.
        let gone = busiest[0];
        let err = e.apply(EngineEvent::NodeLeave { node: gone }).unwrap_err();
        assert_eq!(err, EngineError::NotActive(gone));
        assert_eq!(e.dynamic().active_count(), 27);
        e.certify().expect("exact after churn");
        owp_matching::verify::check_valid(&p, e.matching()).expect("valid after churn");
        // Exactness subsumes maximality: no active pair with free quota at
        // both ends remains unmatched.
        let free = |i: NodeId| e.matching().degree(i) < p.quotas.get(i) as usize;
        for edge in p.graph.edges() {
            let (u, v) = p.graph.endpoints(edge);
            if !e.matching().contains(edge) && e.dynamic().is_active(u) && e.dynamic().is_active(v)
            {
                assert!(!(free(u) && free(v)), "an addable edge was left behind");
            }
        }
    }

    #[test]
    fn leave_rejoin_round_trip_restores_satisfaction() {
        let mut e = Engine::new(Problem::random_gnp(30, 0.3, 3, 5));
        let original = e.matching().clone();
        let s0 = e.total_satisfaction();
        assert!(s0 > 0.0);
        e.apply(EngineEvent::NodeLeave { node: NodeId(5) }).unwrap();
        assert_eq!(e.dynamic().active_count(), 29);
        assert!(e.total_satisfaction() <= s0 + 1e-12);
        e.apply(EngineEvent::NodeJoin { node: NodeId(5) }).unwrap();
        assert_eq!(e.dynamic().active_count(), 30);
        assert!(e.matching().same_edges(&original), "round trip is lossless");
        assert!((e.total_satisfaction() - s0).abs() < 1e-9);
    }

    #[test]
    fn edge_remove_and_add_seed_the_edge() {
        let mut e = engine(4);
        let g = e.dynamic().graph();
        let edge = g.edges().next().unwrap();
        let (u, v) = g.endpoints(edge);
        let r = e.apply(EngineEvent::EdgeRemove { u, v }).unwrap();
        assert!(r.evaluated >= 1);
        assert!(!e.matching().contains(edge));
        assert!(!e.dynamic().is_present(edge));
        e.certify().expect("after remove");
        let r = e.apply(EngineEvent::EdgeAdd { u, v }).unwrap();
        assert!(r.evaluated >= 1);
        e.certify().expect("after re-add");
        assert!(e.matching().same_edges(engine(4).matching()));
    }

    #[test]
    fn quota_change_moves_weights_and_stays_certified() {
        let mut e = engine(5);
        let node = NodeId(7);
        let r = e.apply(EngineEvent::QuotaChange { node, quota: 1 }).unwrap();
        assert_eq!(r.reranked, e.dynamic().graph().degree(node));
        assert!(e.matching().degree(node) <= 1);
        e.certify().expect("after quota cut");
        // Weight maintenance: the stored weights equal a fresh eq. 9 pass.
        let dp = e.dynamic();
        let fresh = owp_matching::EdgeWeights::compute(dp.graph(), dp.prefs(), dp.quotas());
        for edge in dp.graph().edges() {
            assert_eq!(dp.weights().get(edge), fresh.get(edge));
        }
    }

    #[test]
    fn preference_update_moves_weights_and_stays_certified() {
        let mut e = engine(6);
        let node = NodeId(2);
        let mut list: Vec<NodeId> =
            e.dynamic().graph().neighbor_ids(node).collect();
        list.reverse();
        let r = e
            .apply(EngineEvent::PreferenceUpdate { node, list: list.clone() })
            .unwrap();
        assert_eq!(r.reranked, list.len());
        assert_eq!(e.dynamic().prefs().list(node), &list[..]);
        e.certify().expect("after preference update");
        let dp = e.dynamic();
        let fresh = owp_matching::EdgeWeights::compute(dp.graph(), dp.prefs(), dp.quotas());
        for edge in dp.graph().edges() {
            assert_eq!(dp.weights().get(edge), fresh.get(edge));
        }
    }

    #[test]
    fn batches_are_atomic_on_error() {
        let mut e = engine(7);
        let before = e.clone();
        let err = e.apply_batch(&[
            EngineEvent::NodeLeave { node: NodeId(1) },
            EngineEvent::NodeLeave { node: NodeId(1) }, // invalid: already gone
        ]);
        assert_eq!(err.unwrap_err(), EngineError::NotActive(NodeId(1)));
        assert_eq!(e.epoch(), before.epoch());
        assert!(e.matching().same_edges(before.matching()));
        assert!(e.dynamic().is_active(NodeId(1)));
    }

    #[test]
    fn validation_errors_cover_every_variant() {
        let mut e = engine(8);
        let (non_edge, first_edge_endpoints) = {
            let g = e.dynamic().graph();
            // A non-adjacent pair must exist in a sparse G(n, p).
            let mut pair = None;
            'outer: for a in g.nodes() {
                for b in g.nodes() {
                    if a < b && !g.has_edge(a, b) {
                        pair = Some((a, b));
                        break 'outer;
                    }
                }
            }
            let edge = g.edges().next().unwrap();
            (pair.expect("sparse graph has a non-edge"), g.endpoints(edge))
        };
        let far = NodeId(1000);
        assert_eq!(
            e.apply(EngineEvent::NodeJoin { node: far }).unwrap_err(),
            EngineError::UnknownNode(far)
        );
        assert_eq!(
            e.apply(EngineEvent::NodeJoin { node: NodeId(0) }).unwrap_err(),
            EngineError::AlreadyActive(NodeId(0))
        );
        let (u, v) = non_edge;
        assert_eq!(
            e.apply(EngineEvent::EdgeRemove { u, v }).unwrap_err(),
            EngineError::UnknownEdge(u, v)
        );
        let (a, b) = first_edge_endpoints;
        assert_eq!(
            e.apply(EngineEvent::EdgeAdd { u: a, v: b }).unwrap_err(),
            EngineError::EdgePresent(a, b)
        );
        assert_eq!(
            e.apply(EngineEvent::PreferenceUpdate { node: NodeId(0), list: vec![] })
                .unwrap_err(),
            EngineError::InvalidPreferences(NodeId(0))
        );
        assert_eq!(e.epoch(), Epoch(0), "failed singles never tick the epoch");
    }

    #[test]
    fn one_batch_repairs_many_events_at_once() {
        let mut e = engine(9);
        let r = e
            .apply_batch(&[
                EngineEvent::NodeLeave { node: NodeId(0) },
                EngineEvent::NodeLeave { node: NodeId(1) },
                EngineEvent::QuotaChange { node: NodeId(2), quota: 1 },
            ])
            .unwrap();
        assert_eq!(r.events, 3);
        assert_eq!(r.epoch, Epoch(1));
        assert_eq!(r.matching_size, e.matching().size());
        e.certify().expect("after mixed batch");
    }

    #[test]
    fn empty_batch_is_a_quiescent_tick() {
        let mut e = engine(11);
        let r = e.apply_batch(&[]).unwrap();
        assert!(r.is_quiescent());
        assert_eq!(r.net_edges(), 0);
        assert_eq!(r.evaluated, 0);
        assert_eq!(e.epoch(), Epoch(1));
    }

    /// A path instance with quota 1 everywhere and id-order preferences —
    /// deterministic, so the cascades below are hand-checkable.
    fn path_problem(n: u32) -> Problem {
        use owp_graph::{GraphBuilder, PreferenceTable, Quotas};
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n - 1 {
            b.add_edge(NodeId(i), NodeId(i + 1));
        }
        let g = b.build();
        let prefs = PreferenceTable::by_node_id(&g);
        let quotas = Quotas::uniform(&g, 1);
        Problem::new(g, prefs, quotas)
    }

    /// Leaving, rejoining and cutting edges on a quota-1 path forces
    /// alternating selection waves that run the whole path: the cascade
    /// must reach every lighter edge and stay canonical.
    #[test]
    fn path_cascades_stay_canonical() {
        let problem = path_problem(6);
        let mut e = Engine::new(problem.clone());
        let events = [NodeId(1), NodeId(4), NodeId(2)]
            .into_iter()
            .flat_map(|node| [EngineEvent::NodeLeave { node }, EngineEvent::NodeJoin { node }])
            .chain([(0, 1), (2, 3), (1, 2)].into_iter().flat_map(|(u, v)| {
                let (u, v) = (NodeId(u), NodeId(v));
                [EngineEvent::EdgeRemove { u, v }, EngineEvent::EdgeAdd { u, v }]
            }));
        for ev in events {
            e.apply(ev).unwrap();
            e.certify().expect("wave step");
        }
        assert!(e.matching().same_edges(Engine::new(problem).matching()));
    }

    #[test]
    fn reused_report_is_overwritten_each_batch() {
        let mut e = engine(16);
        let mut report = DeltaReport::default();
        e.apply_batch_into(&[EngineEvent::NodeLeave { node: NodeId(2) }], &mut report)
            .unwrap();
        let first_removed = report.edges_removed.clone();
        assert_eq!(report.epoch, Epoch(1));
        e.apply_batch_into(&[EngineEvent::NodeJoin { node: NodeId(2) }], &mut report)
            .unwrap();
        assert_eq!(report.epoch, Epoch(2));
        assert_eq!(report.edges_added, first_removed, "rejoin restores exactly");
        // Failed batches leave the report untouched.
        let before = report.clone();
        let err = e.apply_batch_into(
            &[EngineEvent::NodeJoin { node: NodeId(2) }],
            &mut report,
        );
        assert!(err.is_err());
        assert_eq!(report, before);
    }
}
