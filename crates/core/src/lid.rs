//! LID — Local Information-based Distributed algorithm (paper Algorithm 1).
//!
//! Every node runs the same state machine over four sets of neighbours:
//! `U` (unresolved: no reply yet / not contacted), `P` (proposed to), `A`
//! (approached this node with a PROP) and `K` (locked connections).
//!
//! A node proposes to its `b_i` heaviest-weight neighbours; a *mutual*
//! proposal locks the edge at both ends; an explicit `REJ` makes the sender
//! move to its next-ranked candidate; once `P \ K = ∅` (all proposals
//! locked), the node rejects everyone left in `U` and terminates.
//!
//! The messages are [`MessageKind`]'s `Prop` and `Rej` (and `Ack` from the
//! reliable layer, which this state machine treats as a `Prop` it never
//! answers), the same closed vocabulary the traces and counters use.
//!
//! State layout: [`LidNode`] keeps the four sets as one flag byte per
//! neighbour (bits `U`, `P`, `A`, `K`), stored beside the neighbour's id in
//! its *slot* — its position in the graph's id-sorted CSR adjacency. A
//! rank-slot → CSR-slot array drives the `topRanked` cursor, and counters
//! of `|U|`, `|P \ K|` and `|(P \ K) ∩ A|` make the termination test and
//! the lock step O(1) per delivery. Walking the slots in order visits
//! neighbours in ascending id, which is the order the set-based original
//! iterated in, so sends and node events come out in the same order
//! (DESIGN.md §17).
//!
//! Two gaps in the paper's pseudocode are fixed here, both flagged inline:
//! a `PROP` arriving *after* the receiver terminated must still be answered
//! `REJ` (otherwise the sender waits forever), and the lock step (line 12)
//! is applied repeatedly until no mutual proposal remains.
//!
//! The module runs the protocol on either engine of `owp-simnet`
//! ([`run_lid`] — asynchronous, [`run_lid_sync`] — synchronous rounds) and
//! extracts the resulting [`BMatching`]: only pairs locked at both ends
//! become edges.
//!
//! Observability: the state machine emits typed [`NodeEvent`]s (proposal,
//! rejection, lock, termination) through `Context::emit`, which records
//! them only when the run's `SimConfig::telemetry()` switch is on (one
//! branch per event otherwise). An asynchronous run with that switch set
//! returns the full interleaved event log in [`LidResult::log`] (feed it
//! to `CausalDag::from_log` for the Lemma 5 certificate),
//! [`run_lid_sync_series`] samples a per-round convergence
//! trajectory, and [`replay_lid_trace`] certifies a recorded trace is
//! complete by reconstructing the matching from it.

use owp_graph::NodeId;
use owp_matching::{matching_totals, BMatching, Problem};
use owp_simnet::{
    Context, EventLog, MessageKind, NetStats, NodeEvent, Protocol, SimConfig, Simulator,
    SyncRunner, TelemetryEvent,
};
use owp_telemetry::{ConvergenceSample, ConvergenceSeries};

/// Flag bit: the neighbour is in `U` (unresolved).
const U: u8 = 1;
/// Flag bit: the neighbour is in `P` (this node proposed to it).
const P: u8 = 2;
/// Flag bit: the neighbour is in `A` (it proposed to this node).
const A: u8 = 4;
/// Flag bit: the neighbour is in `K` (the connection is locked).
const K: u8 = 8;

/// `1` iff `flags` counts towards `|U|`.
fn in_u(flags: u8) -> u32 {
    u32::from(flags & U != 0)
}

/// `1` iff `flags` counts towards `|P \ K|`.
fn in_p_not_k(flags: u8) -> u32 {
    u32::from(flags & (P | K) == P)
}

/// `1` iff `flags` is a mutual proposal not yet locked (`(P \ K) ∩ A`).
fn lockable(flags: u8) -> u32 {
    u32::from(flags & (P | A | K) == P | A)
}

/// One neighbour of a [`LidNode`]: its id and its set memberships, side
/// by side so a delivery's lookup and update share a cache line.
#[derive(Clone, Copy, Debug)]
struct Slot {
    id: NodeId,
    /// Membership in `U`, `P`, `A` and `K` (the flag bits above).
    flags: u8,
}

/// Per-node state machine of Algorithm 1.
#[derive(Debug)]
pub struct LidNode {
    id: NodeId,
    quota: u32,
    /// The neighbours in ascending id: the graph's CSR adjacency of this
    /// node, so slot `s` is the CSR position `s`.
    slots: Box<[Slot]>,
    /// Neighbour slots sorted by the weight list (edge weight descending
    /// under the strict [`owp_matching::EdgeKey`] order, realized as
    /// ascending [`owp_matching::EdgeRank`] integer ranks) — the auxiliary
    /// list the paper builds from the exchanged `ΔS̄` values.
    ranked: Box<[u32]>,
    /// Cursor into `ranked`: everything before it is proposed-to or resolved.
    cursor: usize,
    /// `|U|`; zero iff the node has terminated.
    unresolved: u32,
    /// `|P \ K|`: proposals still waiting for an answer.
    outstanding: u32,
    /// `|(P \ K) ∩ A|`: mutual proposals the lock step has yet to lock.
    mutual: u32,
}

impl LidNode {
    /// Creates the Algorithm 1 state machine for node `id` of `problem`.
    pub(crate) fn new_for(problem: &Problem, id: NodeId) -> Self {
        Self::new(problem, id, &mut Vec::new())
    }

    /// As [`LidNode::new_for`], sorting the candidate list in `scratch`
    /// (reused across the nodes of one run).
    fn new(
        problem: &Problem,
        id: NodeId,
        scratch: &mut Vec<(owp_matching::EdgeRank, u32)>,
    ) -> Self {
        let adj = problem.graph.neighbors(id);
        // Rank ascending = weight descending: the per-node candidate list
        // sorts on dense `u32` ranks from the precomputed EdgeOrder kernel,
        // so no `Rational` comparison happens after Problem construction.
        scratch.clear();
        scratch.extend(
            adj.iter()
                .enumerate()
                .map(|(slot, &(_, e))| (problem.order.rank(e), slot as u32)),
        );
        scratch.sort_unstable_by_key(|&(rank, _)| rank);
        LidNode {
            id,
            quota: problem.quotas.get(id),
            slots: adj.iter().map(|&(id, _)| Slot { id, flags: U }).collect(),
            ranked: scratch.iter().map(|&(_, slot)| slot).collect(),
            cursor: 0,
            unresolved: adj.len() as u32,
            outstanding: 0,
            mutual: 0,
        }
    }

    /// The slot of neighbour `v`, if `v` is one.
    fn slot_of(&self, v: NodeId) -> Option<usize> {
        self.slots.binary_search_by_key(&v, |s| s.id).ok()
    }

    /// Rewrites one slot's flags and keeps the three counters in step.
    fn set_flags(&mut self, slot: usize, new: u8) {
        let old = self.slots[slot].flags;
        self.slots[slot].flags = new;
        self.unresolved = self.unresolved + in_u(new) - in_u(old);
        self.outstanding = self.outstanding + in_p_not_k(new) - in_p_not_k(old);
        self.mutual = self.mutual + lockable(new) - lockable(old);
    }

    /// `topRanked(U \ P)`: the slot of the heaviest-weight neighbour not yet
    /// proposed to and still unresolved. Monotone cursor: nodes leave `U`
    /// permanently and are never removed from "was proposed to" status
    /// without leaving `U`.
    fn top_ranked(&mut self) -> Option<usize> {
        while let Some(&slot) = self.ranked.get(self.cursor) {
            let slot = slot as usize;
            if self.slots[slot].flags & (U | P) == U {
                return Some(slot);
            }
            self.cursor += 1;
        }
        None
    }

    /// Adds `slot` to `P` and sends the PROP.
    #[inline]
    fn propose(&mut self, slot: usize, ctx: &mut Context<MessageKind>) {
        self.set_flags(slot, self.slots[slot].flags | P);
        let v = self.slots[slot].id;
        ctx.send(v, MessageKind::Prop);
        ctx.emit(NodeEvent::PropSent { to: v });
    }

    /// Moves `slot` from `U` and `A` into `K`.
    fn lock(&mut self, slot: usize, ctx: &mut Context<MessageKind>) {
        self.set_flags(slot, (self.slots[slot].flags & !(U | A)) | K);
        ctx.emit(NodeEvent::EdgeLocked { peer: self.slots[slot].id });
    }

    /// Lock every mutual proposal (Algorithm 1 lines 12–14, applied to a
    /// fixpoint — the pseudocode's `if ∃v` is run once per delivery, which
    /// can strand a second simultaneous match).
    ///
    /// Between callbacks no mutual proposal is left unlocked, except after
    /// an `on_start` re-run over surviving state (plain LID's default
    /// restart), which proposes without locking. So a delivery usually has
    /// at most one candidate: the slot it just touched. Anything else is
    /// locked in ascending id order, as the set-based fixpoint did.
    fn lock_mutuals(&mut self, touched: usize, ctx: &mut Context<MessageKind>) {
        if self.mutual == 1 && lockable(self.slots[touched].flags) == 1 {
            self.lock(touched, ctx);
            return;
        }
        let mut slot = 0;
        while self.mutual > 0 {
            if lockable(self.slots[slot].flags) == 1 {
                self.lock(slot, ctx);
            }
            slot += 1;
        }
    }

    /// Algorithm 1 lines 15–16: all proposals resolved → reject everyone
    /// still unresolved and terminate. (`U = ∅` with nothing to reject —
    /// e.g. zero quota, no neighbours — also counts as termination.)
    fn finish_if_done(&mut self, ctx: &mut Context<MessageKind>) {
        if self.outstanding > 0 {
            return;
        }
        if self.unresolved > 0 {
            for slot in self.slots.iter_mut().filter(|s| s.flags & U != 0) {
                slot.flags &= !U;
                ctx.send(slot.id, MessageKind::Rej);
                ctx.emit(NodeEvent::RejSent { to: slot.id });
            }
            self.unresolved = 0;
        }
        ctx.emit(NodeEvent::NodeTerminated);
    }

    /// Neighbours whose slots carry all of `mask`'s bits and none of the
    /// other bits in `of`, ascending.
    fn with_flags(&self, of: u8, mask: u8) -> impl Iterator<Item = NodeId> + '_ {
        self.slots
            .iter()
            .filter(move |s| s.flags & of == mask)
            .map(|s| s.id)
    }

    /// The locked connections, ascending.
    pub fn locked(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.with_flags(K, K)
    }

    /// `true` iff the connection to `v` is locked (`v ∈ K`).
    pub fn is_locked(&self, v: NodeId) -> bool {
        self.slot_of(v).is_some_and(|s| self.slots[s].flags & K != 0)
    }

    /// Neighbours with an outstanding (unanswered) proposal (`P \ K`),
    /// ascending — exactly the messages a retransmission layer must keep
    /// alive.
    pub fn outstanding_proposals(&self) -> Vec<NodeId> {
        if self.outstanding == 0 {
            return Vec::new();
        }
        self.with_flags(P | K, P).collect()
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Cold-boot amnesia for crash-restart faults: all volatile state is
    /// wiped and the state machine returns to its initial configuration
    /// (cursor at the top of the ranked list, every neighbour unresolved).
    /// The ranked candidate list itself survives — it is derived from the
    /// exchanged `ΔS̄` values, i.e. durable problem data, not protocol state.
    pub(crate) fn reset(&mut self) {
        self.cursor = 0;
        for slot in self.slots.iter_mut() {
            slot.flags = U;
        }
        self.unresolved = self.slots.len() as u32;
        self.outstanding = 0;
        self.mutual = 0;
    }
}

impl Protocol for LidNode {
    type Message = MessageKind;

    fn on_start(&mut self, ctx: &mut Context<MessageKind>) {
        // Lines 2–3: propose to the top b_i candidates.
        for _ in 0..self.quota {
            let Some(slot) = self.top_ranked() else { break };
            self.propose(slot, ctx);
        }
        // A node with b_i = 0 (or no neighbours) terminates immediately,
        // rejecting everyone — otherwise its neighbours would wait forever.
        self.finish_if_done(ctx);
    }

    /// # Panics
    /// Panics if `from` is not a neighbour: LID only messages along overlay
    /// edges (the simulator enforces this at send time).
    fn on_message(&mut self, from: NodeId, msg: MessageKind, ctx: &mut Context<MessageKind>) {
        let slot = self
            .slot_of(from)
            .unwrap_or_else(|| panic!("{:?} got a message from non-neighbour {from:?}", self.id));
        let flags = self.slots[slot].flags;
        if self.unresolved == 0 {
            // Terminated. The paper's pseudocode does not handle a PROP that
            // arrives after line 16; without a REJ reply the proposer would
            // deadlock, so we answer here (documented deviation).
            if msg == MessageKind::Prop && flags & K == 0 {
                ctx.send(from, MessageKind::Rej);
                ctx.emit(NodeEvent::RejSent { to: from });
            }
            return;
        }
        let mut touched = slot;
        match msg {
            // An ACK certifies the sender holds our proposal locked; for the
            // state machine it is exactly an incoming proposal (line 6).
            MessageKind::Prop | MessageKind::Ack => self.set_flags(slot, flags | A),
            MessageKind::Rej => {
                // Lines 7–11. A REJ can never come from a locked partner:
                // locking is mutual-proposal only and REJs are terminal.
                debug_assert!(flags & K == 0, "REJ from locked partner");
                self.set_flags(slot, flags & !(U | A | P));
                if flags & P != 0 {
                    if let Some(next) = self.top_ranked() {
                        self.propose(next, ctx);
                        touched = next;
                    }
                }
            }
        }
        self.lock_mutuals(touched, ctx);
        self.finish_if_done(ctx);
    }

    fn is_terminated(&self) -> bool {
        self.unresolved == 0
    }
}

/// Result of one LID execution.
#[derive(Debug)]
pub struct LidResult {
    /// The matching defined by the nodes' `K` sets.
    pub matching: BMatching,
    /// Network statistics (PROP/REJ counts are under those kind labels).
    pub stats: NetStats,
    /// Simulated end time (asynchronous runs) in ticks.
    pub end_time: u64,
    /// Rounds (synchronous runs; 0 for asynchronous runs).
    pub rounds: u64,
    /// `true` iff the network quiesced and every node locally terminated.
    pub terminated: bool,
    /// Messages of the initial `ΔS̄` exchange the paper prescribes before
    /// the algorithm proper (2 per edge); not simulated, reported for
    /// message-complexity accounting.
    pub init_messages: u64,
    /// Pairs where one endpoint locked the connection but the other did not.
    /// Always 0 under the paper's reliable-network assumption; message loss
    /// can produce them (experiment E11) — such half-locked pairs are *not*
    /// part of [`LidResult::matching`].
    pub asymmetric_locks: usize,
    /// The run's structured event log: transport events and per-node
    /// [`NodeEvent`]s. Filled only by asynchronous runs whose config
    /// enables telemetry; otherwise the disabled log, which holds no
    /// allocation.
    pub log: EventLog,
}

fn build_nodes(problem: &Problem) -> Vec<LidNode> {
    let mut scratch = Vec::new();
    problem
        .graph
        .nodes()
        .map(|i| LidNode::new(problem, i, &mut scratch))
        .collect()
}

/// Extracts the matching from the nodes' `K` flags. Only pairs locked by
/// *both* endpoints become matching edges; one-sided locks (possible only
/// under injected message loss) are counted separately.
fn extract_matching(problem: &Problem, nodes: &[&LidNode]) -> (BMatching, usize) {
    let g = &problem.graph;
    // Locks per edge (0, 1 or 2). Slots are CSR positions, so each lock's
    // edge id is read off the graph's adjacency, with no search and no
    // visit to the partner's state.
    let mut ends = vec![0u8; g.edge_count()];
    let mut locks = 0usize;
    let mut edges = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        let i = NodeId(i as u32);
        let adj = g.neighbors(i);
        debug_assert_eq!(adj.len(), node.slots.len(), "node built from this graph");
        for (slot, &(j, e)) in node.slots.iter().zip(adj) {
            if slot.flags & K != 0 {
                ends[e.index()] += 1;
                locks += 1;
                if i < j {
                    edges.push(e);
                }
            }
        }
    }
    // Edges in the order the lower endpoint's slots list them, which is the
    // order `BMatching` stores each node's connections in.
    edges.retain(|e| ends[e.index()] == 2);
    (BMatching::from_edges(problem, edges.iter().copied()), locks - 2 * edges.len())
}

/// Assembles the [`LidResult`] of a finished run from its final node
/// states: the one place every runner (asynchronous, synchronous, series,
/// reliable) builds its result.
pub(crate) fn lid_result<'a>(
    problem: &Problem,
    nodes: impl Iterator<Item = &'a LidNode>,
    stats: &NetStats,
    end_time: u64,
    rounds: u64,
    quiescent: bool,
    log: EventLog,
) -> LidResult {
    let nodes: Vec<&LidNode> = nodes.collect();
    let terminated = quiescent && nodes.iter().all(|n| n.is_terminated());
    let (matching, asymmetric_locks) = extract_matching(problem, &nodes);
    LidResult {
        matching,
        stats: stats.clone(),
        end_time,
        rounds,
        terminated,
        init_messages: 2 * problem.edge_count() as u64,
        asymmetric_locks,
        log,
    }
}

/// Runs `nodes` on the asynchronous simulator over `problem`'s topology.
/// The result's log is empty and unallocated unless `config` enables
/// telemetry. `inner` exposes each node's Algorithm 1 state machine.
pub(crate) fn run_async<N, F>(
    problem: &Problem,
    nodes: Vec<N>,
    config: SimConfig,
    inner: F,
) -> LidResult
where
    N: Protocol<Message = MessageKind>,
    F: Fn(&N) -> &LidNode,
{
    // LID only messages along overlay edges: the graph's CSR positions
    // address the simulator's FIFO links.
    let mut sim = Simulator::new(nodes, config, &problem.graph);
    let out = sim.run();
    let log = sim.take_telemetry();
    lid_result(
        problem,
        sim.nodes().map(inner),
        sim.stats(),
        out.end_time,
        0,
        out.quiescent,
        log,
    )
}

fn sync_result(problem: &Problem, runner: &SyncRunner<'_, LidNode>) -> LidResult {
    lid_result(
        problem,
        runner.nodes(),
        runner.stats(),
        0,
        runner.rounds(),
        runner.is_quiescent(),
        EventLog::disabled(),
    )
}

/// Runs LID on the asynchronous simulator. With `config.telemetry()` the
/// result carries the run's event log in [`LidResult::log`]; recording
/// does not perturb the run.
pub fn run_lid(problem: &Problem, config: SimConfig) -> LidResult {
    run_async(problem, build_nodes(problem), config, |n| n)
}

/// Runs LID on the synchronous-round engine (deterministic; used for round
/// complexity measurements).
pub fn run_lid_sync(problem: &Problem) -> LidResult {
    let mut runner = SyncRunner::new(build_nodes(problem), &problem.graph);
    runner.run();
    sync_result(problem, &runner)
}

fn sample_sync_round(
    problem: &Problem,
    runner: &SyncRunner<'_, LidNode>,
    series: &mut ConvergenceSeries,
) {
    let nodes: Vec<&LidNode> = runner.nodes().collect();
    let (m, _) = extract_matching(problem, &nodes);
    let (matched_edges, total_weight, satisfaction_total) = matching_totals(problem, &m);
    series.push(ConvergenceSample {
        round: runner.rounds(),
        matched_edges,
        total_weight,
        satisfaction_total,
        messages_sent: runner.stats().sent,
        in_flight: runner.pending_count(),
        terminated_fraction: runner.terminated_fraction(),
    });
}

/// Runs LID on the synchronous-round engine, sampling the convergence
/// trajectory after `on_start` (round 0) and after every round: matched
/// edges, total weight, Σ `S_i`, cumulative sends, in-flight messages and
/// the terminated-node fraction.
///
/// The final sample describes the returned [`LidResult::matching`] through
/// the same summation path as [`owp_matching::MatchingReport`], so its
/// totals agree with a full report **bit-for-bit** (asserted by the e18
/// consistency test).
pub fn run_lid_sync_series(problem: &Problem) -> (LidResult, ConvergenceSeries) {
    let mut runner = SyncRunner::new(build_nodes(problem), &problem.graph);
    let mut series = ConvergenceSeries::new();
    runner.start();
    sample_sync_round(problem, &runner, &mut series);
    while runner.round() {
        sample_sync_round(problem, &runner, &mut series);
    }
    (sync_result(problem, &runner), series)
}

/// Replays a recorded LID event log through fresh Algorithm 1 state
/// machines and returns the matching they reconstruct.
///
/// Every node's `on_start` runs first (its sends are discarded — the trace
/// already contains their delivered counterparts); then each
/// [`TelemetryEvent::Delivered`] is fed to its destination node in trace
/// order. Drops, dead letters and timer events are skipped: deliveries are
/// exactly what drives the state machines. A trace from a terminated run
/// therefore reconstructs the *identical* edge set — the trace-completeness
/// certificate of the telemetry layer.
///
/// The log may come from disk, so it is validated as it is replayed.
///
/// # Errors
/// An error naming the event's index if a delivery names a node outside
/// the problem, runs between two nodes that are not neighbours, or is a
/// REJ from a partner the receiver has locked (impossible for Algorithm
/// 1). A kind outside PROP/REJ/ACK cannot reach this point: the trace
/// parser refuses it.
pub fn replay_lid_trace(problem: &Problem, log: &EventLog) -> Result<BMatching, String> {
    let mut nodes = build_nodes(problem);
    for node in nodes.iter_mut() {
        let mut ctx = Context::detached(node.id(), 0);
        node.on_start(&mut ctx);
    }
    let n = nodes.len();
    for (i, ev) in log.events().iter().enumerate() {
        let TelemetryEvent::Delivered { time, from, to, kind, .. } = *ev else {
            continue;
        };
        if let Some(v) = [from, to].into_iter().find(|v| v.index() >= n) {
            return Err(format!("event {i}: node {} out of range (n = {n})", v.0));
        }
        let node = &mut nodes[to.index()];
        let Some(slot) = node.slot_of(from) else {
            return Err(format!(
                "event {i}: delivery from {} to non-neighbour {}",
                from.0, to.0
            ));
        };
        if kind == MessageKind::Rej && node.slots[slot].flags & K != 0 {
            return Err(format!(
                "event {i}: REJ from {} to {}, which has it locked",
                from.0, to.0
            ));
        }
        let mut ctx = Context::detached(to, time);
        node.on_message(from, kind, &mut ctx);
    }
    let nodes: Vec<&LidNode> = nodes.iter().collect();
    Ok(extract_matching(problem, &nodes).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use owp_graph::generators::{complete, star};
    use owp_graph::{PreferenceTable, Quotas};
    use owp_matching::lic::{lic, SelectionPolicy};
    use owp_matching::verify;
    use owp_simnet::{FaultPlan, LatencyModel};

    #[test]
    fn terminates_and_is_valid_async() {
        for seed in 0..10 {
            let p = Problem::random_gnp(30, 0.3, 2, seed);
            let r = run_lid(&p, SimConfig::with_seed(seed));
            assert!(r.terminated, "seed {seed}: LID must terminate (Lemma 5)");
            assert_eq!(r.asymmetric_locks, 0, "reliable network locks symmetrically");
            verify::check_valid(&p, &r.matching).expect("valid");
            verify::check_maximal(&p, &r.matching).expect("maximal");
        }
    }

    #[test]
    fn equals_lic_under_unit_latency() {
        for seed in 0..10 {
            let p = Problem::random_gnp(25, 0.35, 3, seed);
            let d = run_lid(&p, SimConfig::with_seed(seed));
            let c = lic(&p, SelectionPolicy::InOrder);
            assert!(
                d.matching.same_edges(&c),
                "seed {seed}: LID and LIC must select identical edges (Lemmas 4 & 6)"
            );
        }
    }

    #[test]
    fn equals_lic_under_heavy_asynchrony() {
        for seed in 0..10 {
            let p = Problem::random_gnp(20, 0.4, 2, 100 + seed);
            let c = lic(&p, SelectionPolicy::InOrder);
            for (li, latency) in [
                LatencyModel::Uniform { lo: 1, hi: 100 },
                LatencyModel::Exponential { mean: 25.0 },
                LatencyModel::LogNormal { mu: 2.0, sigma: 1.0 },
            ]
            .into_iter()
            .enumerate()
            {
                let cfg = SimConfig::with_seed(seed * 31 + li as u64).latency(latency);
                let d = run_lid(&p, cfg);
                assert!(d.terminated);
                assert!(
                    d.matching.same_edges(&c),
                    "seed {seed}, latency #{li}: asynchrony changed the result"
                );
            }
        }
    }

    #[test]
    fn sync_engine_agrees_with_async() {
        for seed in 0..8 {
            let p = Problem::random_gnp(20, 0.35, 2, 200 + seed);
            let a = run_lid(&p, SimConfig::with_seed(seed));
            let s = run_lid_sync(&p);
            assert!(s.terminated);
            assert!(s.rounds > 0);
            assert!(a.matching.same_edges(&s.matching));
        }
    }

    #[test]
    fn zero_quota_and_isolated_nodes_terminate() {
        let g = star(5);
        let prefs = PreferenceTable::by_node_id(&g);
        let quotas = Quotas::from_vec(&g, vec![0, 1, 1, 1, 1]);
        let p = Problem::new(g, prefs, quotas);
        let r = run_lid(&p, SimConfig::with_seed(1));
        assert!(r.terminated);
        assert_eq!(r.matching.size(), 0, "hub rejected everyone");
        // Every leaf proposed once; the hub rejected each leaf twice — once
        // in its termination broadcast at t=0 and once replying to the
        // leaf's PROP that was already in flight (crossing messages).
        assert_eq!(r.stats.sent_of(MessageKind::Prop), 4);
        assert_eq!(r.stats.sent_of(MessageKind::Rej), 8);
    }

    #[test]
    fn mutual_top_pair_locks_with_two_messages() {
        // Two nodes only: single edge, both propose, both lock. No REJ.
        let g = complete(2);
        let prefs = PreferenceTable::by_node_id(&g);
        let quotas = Quotas::uniform(&g, 1);
        let p = Problem::new(g, prefs, quotas);
        let r = run_lid(&p, SimConfig::with_seed(3));
        assert!(r.terminated);
        assert_eq!(r.matching.size(), 1);
        assert_eq!(r.stats.sent_of(MessageKind::Prop), 2);
        assert_eq!(r.stats.sent_of(MessageKind::Rej), 0);
    }

    #[test]
    fn message_complexity_is_linear_in_edges() {
        // Each node sends at most one PROP to each neighbour and at most one
        // REJ to each neighbour: ≤ 2 messages per edge direction.
        for seed in 0..5 {
            let p = Problem::random_gnp(40, 0.2, 3, 300 + seed);
            let r = run_lid(&p, SimConfig::with_seed(seed));
            assert!(r.terminated);
            let cap = 4 * p.edge_count() as u64;
            assert!(
                r.stats.sent <= cap,
                "seed {seed}: {} messages > 4m = {cap}",
                r.stats.sent
            );
        }
    }

    #[test]
    fn survives_message_loss_without_hanging_the_simulator() {
        // With loss the guarantee (and Lemma 5) is void — nodes can wait
        // forever — but the *simulator* must still quiesce, and whatever was
        // locked must be symmetric (extract_matching asserts that).
        let p = Problem::random_gnp(20, 0.3, 2, 9);
        let cfg = SimConfig::with_seed(9).faults(FaultPlan::with_drop_probability(0.2));
        let r = run_lid(&p, cfg);
        verify::check_valid(&p, &r.matching).expect("double-locked pairs form a valid matching");
        let _ = (r.terminated, r.asymmetric_locks); // typically false / > 0
    }

    #[test]
    fn quota_one_complete_graph_is_a_perfect_matching_when_even() {
        let p = Problem::random_over(complete(8), 1, 4);
        let r = run_lid(&p, SimConfig::with_seed(4));
        assert!(r.terminated);
        assert_eq!(r.matching.size(), 4);
    }

    #[test]
    fn traced_run_matches_untraced_and_replays_exactly() {
        for seed in 0..6 {
            let p = Problem::random_gnp(24, 0.3, 2, 500 + seed);
            let cfg = SimConfig::with_seed(seed).latency(LatencyModel::Uniform { lo: 1, hi: 9 });
            let r = run_lid(&p, cfg.clone().telemetry());
            let log = &r.log;
            assert!(r.terminated);
            // Telemetry must not perturb the run itself, and an untraced
            // run holds no log allocation.
            let plain = run_lid(&p, cfg);
            assert!(r.matching.same_edges(&plain.matching));
            assert_eq!(r.stats.sent, plain.stats.sent);
            assert_eq!(plain.log.events_capacity(), 0);
            // Transport-level counts agree between log and counters.
            assert_eq!(log.deliveries().count() as u64, r.stats.delivered);
            assert_eq!(log.with_tag("sent").count() as u64, r.stats.sent);
            // Trace completeness: the delivered events alone reconstruct
            // the exact final edge set.
            let replayed = replay_lid_trace(&p, log).expect("live trace replays");
            assert!(
                replayed.same_edges(&r.matching),
                "seed {seed}: replay diverged from the live run"
            );
            // The synchronous and reliable runners never record a log.
            assert_eq!(run_lid_sync(&p).log.events_capacity(), 0);
            let (s, _) = run_lid_sync_series(&p);
            assert_eq!(s.log.events_capacity(), 0);
            let reliable = crate::run_lid_reliable(&p, SimConfig::with_seed(seed), 50);
            assert_eq!(reliable.log.events_capacity(), 0);
        }
    }

    #[test]
    fn one_sided_locks_are_counted_and_left_out() {
        // Under loss, compare the extraction against a direct count over
        // the final node states: a pair is an edge iff both ends locked it,
        // and every one-sided lock counts once.
        let mut one_sided = 0;
        for seed in 0..12 {
            let p = Problem::random_gnp(30, 0.3, 2, 40 + seed);
            let cfg = SimConfig::with_seed(seed).faults(FaultPlan::with_drop_probability(0.3));
            let mut sim = Simulator::new(build_nodes(&p), cfg, &p.graph);
            let out = sim.run();
            let (stats, log) = (sim.stats(), EventLog::disabled());
            let r = lid_result(&p, sim.nodes(), stats, out.end_time, 0, out.quiescent, log);
            let mut want_edges = Vec::new();
            let mut want_asymmetric = 0;
            for (i, node) in sim.nodes().enumerate() {
                let i = NodeId(i as u32);
                for j in node.locked() {
                    if !sim.node(j).is_locked(i) {
                        want_asymmetric += 1;
                    } else if i < j {
                        want_edges.push(p.graph.edge_between(i, j).expect("locked pair is an edge"));
                    }
                }
            }
            want_edges.sort();
            assert_eq!(r.matching.edge_ids(), want_edges, "seed {seed}");
            assert_eq!(r.asymmetric_locks, want_asymmetric, "seed {seed}");
            one_sided += want_asymmetric;
        }
        assert!(one_sided > 0, "loss produced one-sided locks");
    }

    fn delivery(from: u32, to: u32, kind: MessageKind) -> TelemetryEvent {
        let (span, from, to) = (owp_telemetry::SpanId(0), NodeId(from), NodeId(to));
        TelemetryEvent::Delivered { time: 1, span, from, to, kind }
    }

    fn replay_events(p: &Problem, events: &[TelemetryEvent]) -> Result<BMatching, String> {
        let mut log = EventLog::enabled();
        for &ev in events {
            log.record(ev);
        }
        replay_lid_trace(p, &log)
    }

    #[test]
    fn replay_rejects_foreign_and_impossible_deliveries() {
        // Hub 0 and leaves 1..4: leaves are not neighbours of each other.
        let g = star(5);
        let prefs = PreferenceTable::by_node_id(&g);
        let quotas = Quotas::uniform(&g, 1);
        let p = Problem::new(g, prefs, quotas);
        let ok = delivery(1, 0, MessageKind::Prop);
        let cases = [
            (delivery(1, 9, MessageKind::Prop), "node 9 out of range"),
            (delivery(7, 0, MessageKind::Rej), "node 7 out of range"),
            (delivery(1, 2, MessageKind::Prop), "non-neighbour"),
            (delivery(3, 3, MessageKind::Prop), "non-neighbour"),
        ];
        for (bad, why) in cases {
            let err = replay_events(&p, &[ok, bad]).expect_err(why);
            assert!(err.starts_with("event 1:") && err.contains(why), "{err}");
        }
        // Leaf 1 proposed to the hub, so a PROP from the hub locks the
        // edge at the leaf; a REJ on the locked edge is then impossible.
        let lock = delivery(0, 1, MessageKind::Prop);
        let err = replay_events(&p, &[lock, delivery(0, 1, MessageKind::Rej)])
            .expect_err("REJ on a locked edge");
        assert!(err.starts_with("event 1:") && err.contains("locked"), "{err}");
        assert!(replay_events(&p, &[ok, lock]).is_ok());
    }

    #[test]
    fn replay_of_tampered_traces_never_panics() {
        let p = Problem::random_gnp(6, 0.6, 2, 17);
        let r = run_lid(&p, SimConfig::with_seed(17).telemetry());
        assert!(r.terminated);
        let log = &r.log;
        let events = log.events();
        // Every prefix of a live trace is a legal partial trace.
        for k in 0..=events.len() {
            replay_events(&p, &events[..k]).expect("prefix of a live trace replays");
        }
        // A delivery between non-neighbours spliced into the middle is
        // named by its index.
        let (a, b) = p
            .graph
            .nodes()
            .flat_map(|a| p.graph.nodes().map(move |b| (a, b)))
            .find(|&(a, b)| a != b && p.graph.edge_between(a, b).is_none())
            .expect("the instance has a non-edge");
        let mid = events.len() / 2;
        let mut spliced = events[..mid].to_vec();
        spliced.push(delivery(a.0, b.0, MessageKind::Prop));
        spliced.extend_from_slice(&events[mid..]);
        let err = replay_events(&p, &spliced).expect_err("non-edge delivery");
        assert!(err.starts_with(&format!("event {mid}:")), "{err}");
        // Bytes from disk: every prefix and every single-bit flip of the
        // JSONL either fails to parse or replays to a result — never a
        // panic.
        let doc = log.to_jsonl();
        let mut docs: Vec<String> = (0..=doc.len())
            .filter(|&i| doc.is_char_boundary(i))
            .map(|i| doc[..i].to_string())
            .collect();
        for i in 0..doc.len() {
            for bit in 0..8 {
                let mut bytes = doc.as_bytes().to_vec();
                bytes[i] ^= 1 << bit;
                docs.push(String::from_utf8_lossy(&bytes).into_owned());
            }
        }
        let (mut replayed, mut rejected) = (0, 0);
        for d in &docs {
            let Ok(log) = EventLog::parse_jsonl(d) else { continue };
            let run = std::panic::catch_unwind(|| replay_lid_trace(&p, &log).is_ok());
            let ok = run.unwrap_or_else(|_| panic!("replay panicked on {d:?}"));
            replayed += 1;
            rejected += usize::from(!ok);
        }
        assert!(replayed > 1000, "{replayed} of {} documents parsed", docs.len());
        assert!(rejected > 0, "no tampered trace was rejected");
    }

    #[test]
    fn causal_run_is_certified_and_explains_the_matching() {
        use owp_telemetry::EdgeOutcome;
        for seed in 0..5 {
            let p = Problem::random_gnp(24, 0.3, 2, 900 + seed);
            let cfg = SimConfig::with_seed(seed).latency(LatencyModel::Uniform { lo: 1, hi: 9 });
            let r = run_lid(&p, cfg.telemetry());
            let dag = owp_telemetry::CausalDag::from_log(&r.log);
            assert!(r.terminated);
            // Empirical Lemma 5 certificate: the happens-before forest of a
            // live run is acyclic and temporally consistent.
            assert!(dag.is_certified(), "seed {seed}: {:?}", dag.verify());
            // Every send got exactly one span.
            assert_eq!(dag.len() as u64, r.stats.sent);
            // Roots are exactly the on_start sends (all at t = 0).
            assert!(dag.roots() > 0);
            assert!(dag
                .spans()
                .iter()
                .filter(|s| s.parent.is_none())
                .all(|s| s.sent == 0));
            // The critical path ends no later than the run itself and is a
            // genuine chain (positive length, monotone hop times).
            let path = dag.critical_path();
            assert!(!path.is_empty());
            assert!(path.end_time <= r.end_time);
            for w in path.hops.windows(2) {
                assert!(w[1].sent >= w[0].delivered.expect("interior hops delivered"));
            }
            // Edge lifecycles: locked pairs are exactly the final matching.
            let locked = dag
                .edge_lifecycles()
                .iter()
                .filter(|l| l.outcome == EdgeOutcome::Locked)
                .count();
            assert_eq!(locked, r.matching.size(), "seed {seed}");
        }
    }

    #[test]
    fn traced_run_captures_node_transitions() {
        let p = Problem::random_gnp(20, 0.35, 2, 11);
        let r = run_lid(&p, SimConfig::with_seed(11).telemetry());
        let log = &r.log;
        assert!(r.terminated);
        // Every locked edge produces one EdgeLocked event at each endpoint.
        assert_eq!(log.with_tag("edge_locked").count(), 2 * r.matching.size());
        // Every node eventually terminates, exactly once.
        assert_eq!(log.with_tag("node_terminated").count(), p.node_count());
        // PropSent events mirror the PROP counter.
        assert_eq!(
            log.with_tag("prop_sent").count() as u64,
            r.stats.sent_of(MessageKind::Prop)
        );
        // RejSent events mirror the REJ counter.
        assert_eq!(
            log.with_tag("rej_sent").count() as u64,
            r.stats.sent_of(MessageKind::Rej)
        );
    }

    #[test]
    fn sync_series_trajectory_is_monotone_and_lands_on_the_result() {
        for seed in 0..5 {
            let p = Problem::random_gnp(22, 0.3, 2, 700 + seed);
            let (r, series) = run_lid_sync_series(&p);
            assert!(r.terminated);
            // Same outcome as the plain sync runner.
            let plain = run_lid_sync(&p);
            assert!(r.matching.same_edges(&plain.matching));
            assert_eq!(r.rounds, plain.rounds);
            // One sample per round plus the round-0 sample.
            assert_eq!(series.samples().len() as u64, r.rounds + 1);
            // Matched-edge count and sends are monotone non-decreasing;
            // locked edges are never unlocked.
            for w in series.samples().windows(2) {
                assert!(w[1].matched_edges >= w[0].matched_edges);
                assert!(w[1].messages_sent >= w[0].messages_sent);
                assert!(w[1].round > w[0].round);
            }
            // The final row describes the returned matching bit-for-bit.
            let last = series.last().expect("non-empty series");
            let (edges, weight, sat) = matching_totals(&p, &r.matching);
            assert_eq!(last.matched_edges, edges);
            assert_eq!(last.total_weight.to_bits(), weight.to_bits());
            assert_eq!(last.satisfaction_total.to_bits(), sat.to_bits());
            assert_eq!(last.in_flight, 0);
            assert_eq!(last.terminated_fraction, 1.0);
        }
    }
}
