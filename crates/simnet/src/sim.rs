//! The asynchronous event-driven simulator.
//!
//! Events are due at integer ticks and ordered by `(tick, schedule
//! order)`; that order defines a run. [`Simulator::step`] is its one-event
//! reference path: pop the next event, run its node's callback, then
//! dispatch the callback's sends and timers (stats, trace records, span
//! ids, the loss/latency/reorder/duplicate RNG draws, the FIFO clamp and
//! the queue push).
//!
//! [`Simulator::run`] takes a whole tick at a time and splits the two
//! halves. Phase 1 runs the tick's callbacks grouped by node, stable in
//! schedule order, so each node's state is touched in one visit;
//! phase 2 walks the tick in schedule order and dispatches what phase 1
//! captured. The order guarantee: **each node's inbox order is unchanged;
//! dispatch is in schedule order.** That is observably identical to
//! stepping:
//!
//! - Nothing is scheduled into the tick being run (latencies and timer
//!   delays are at least 1, restarts are queued before the first tick;
//!   [`Simulator::step`] asserts it), so the tick's event set is fixed
//!   before its first callback.
//! - A callback reads and writes only its own node's state. Each node
//!   meets its own events in schedule order, so it makes the same
//!   transitions and the same sends; the incarnation and `down_at` checks,
//!   which also concern only that node, decide the same way.
//! - Everything shared — counters, the event log, span ids, the RNG stream,
//!   the per-link FIFO clamp, the queue's schedule order and the in-flight
//!   peak — is touched only in phase 2, in schedule order.
//!
//! The `run_equals_stepping` tests check this byte for byte under every
//! latency model and fault class.

use crate::faults::{CompiledFaults, FaultPlan};
use crate::group;
use crate::latency::LatencyModel;
use crate::protocol::{Context, CtxParts, Payload, Protocol};
use crate::stats::NetStats;
use crate::{NodeId, SimTime};
use owp_graph::Graph;
use owp_telemetry::{EventLog, MessageKind, NodeEvent, SpanId, TelemetryEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};


/// Configuration of one asynchronous run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Link-delay distribution. Delivery is per-directed-link FIFO: a
    /// later send on a link never overtakes an earlier one (delivery times
    /// are clamped), unless a reordering fault skips the clamp.
    pub latency: LatencyModel,
    /// RNG seed for latency sampling and loss decisions.
    pub seed: u64,
    /// Fault injection plan.
    pub faults: FaultPlan,
    /// Hard stop: abort once deliveries plus timer firings reach this many
    /// (guards against protocol bugs that never quiesce). `u64::MAX` by
    /// default.
    pub max_deliveries: u64,
    /// Record the structured telemetry event log: transport events and the
    /// per-node protocol events of `Context::emit`. Off by default: a
    /// disabled log costs one branch per event and performs no allocation.
    pub telemetry: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency: LatencyModel::unit(),
            seed: 0,
            faults: FaultPlan::none(),
            max_deliveries: u64::MAX,
            telemetry: false,
        }
    }
}

impl SimConfig {
    /// Unit-latency config with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }

    /// Replaces the latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Replaces the fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables telemetry event recording.
    pub fn telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }
}


/// Why and how a run ended.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RunOutcome {
    /// Simulated time of the last delivery.
    pub end_time: SimTime,
    /// Total deliveries performed.
    pub deliveries: u64,
    /// `true` iff the network quiesced (no in-flight messages remain);
    /// `false` iff the `max_deliveries` guard tripped first.
    pub quiescent: bool,
}

struct InFlight<M> {
    from: NodeId,
    to: NodeId,
    /// The payload's kind, kept for the delivery record.
    kind: MessageKind,
    /// The payload; `None` once handed to the receiver's callback (a
    /// grouped tick reads the rest of the header after that).
    msg: Option<M>,
    /// Causal span of this message (assigned at send, see `next_span`).
    span: SpanId,
}

enum Pending<M> {
    Msg(InFlight<M>),
    Timer {
        node: NodeId,
        tag: u64,
        /// Span of the delivery whose handler armed the timer; sends from
        /// the timer callback inherit it as their causal parent, so
        /// retransmission chains stay connected in the happens-before DAG.
        parent: Option<SpanId>,
        /// Incarnation of the node when the timer was armed. A timer whose
        /// incarnation no longer matches was armed before a crash-restart
        /// and stays dead (restart wipes volatile state, timers included).
        incarnation: u32,
    },
    /// A crashed node comes back up (crash-restart fault plans).
    Restart { node: NodeId },
}

impl<M> Pending<M> {
    /// The node whose callback the event runs.
    fn node(&self) -> NodeId {
        match *self {
            Pending::Msg(InFlight { to, .. }) => to,
            Pending::Timer { node, .. } | Pending::Restart { node } => node,
        }
    }
}

/// Runs `ev`'s callback on its node.
fn handle<P: Protocol>(node: &mut P, ev: &mut Pending<P::Message>, ctx: &mut Context<P::Message>) {
    match ev {
        Pending::Msg(m) => {
            let msg = m.msg.take().expect("a message is delivered once");
            node.on_message(m.from, msg, ctx);
        }
        Pending::Timer { tag, .. } => node.on_timer(*tag, ctx),
        Pending::Restart { .. } => node.on_restart(ctx),
    }
}

/// The CSR position of the directed link `from → to`, which addresses the
/// link's FIFO clamp.
///
/// # Panics
/// If `to` is not a neighbour of `from`: an unknown id, `from` itself and
/// any other non-adjacent node have no link.
fn link(topology: &Graph, from: NodeId, to: NodeId) -> usize {
    topology
        .slot(from, to)
        .unwrap_or_else(|| panic!("node {from:?} sent to non-neighbour {to:?}"))
}

/// The pending-event queue: an ordered map from delivery tick to a FIFO
/// bucket of the events due at that tick.
///
/// Events leave in `(tick, schedule order)` order — the order a binary heap
/// keyed on `(tick, sequence number)` would produce with the sequence
/// number drawn from a counter at each schedule. Ticks order the map;
/// within one tick, the schedule counter only grows, so appending to the
/// bucket keeps it sorted by schedule order, whatever `now` is when the
/// event is scheduled. Emptied buckets keep their capacity in a spare
/// pool, so a steady run allocates no buckets.
struct TickQueue<T> {
    buckets: BTreeMap<SimTime, VecDeque<T>>,
    spare: Vec<VecDeque<T>>,
    len: usize,
}

impl<T> TickQueue<T> {
    fn new() -> Self {
        TickQueue {
            buckets: BTreeMap::new(),
            spare: Vec::new(),
            len: 0,
        }
    }

    fn push(&mut self, at: SimTime, item: T) {
        let spare = &mut self.spare;
        self.buckets
            .entry(at)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push_back(item);
        self.len += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, T)> {
        let mut first = self.buckets.first_entry()?;
        let at = *first.key();
        let item = first.get_mut().pop_front().expect("buckets are never empty");
        if first.get().is_empty() {
            self.spare.push(first.remove());
        }
        self.len -= 1;
        Some((at, item))
    }

    /// The number of events due at the earliest tick.
    fn first_len(&self) -> Option<usize> {
        self.buckets.first_key_value().map(|(_, bucket)| bucket.len())
    }

    /// Removes the earliest tick's whole bucket, in schedule order. Hand
    /// it back with [`TickQueue::recycle`].
    fn pop_tick(&mut self) -> Option<(SimTime, VecDeque<T>)> {
        let (at, bucket) = self.buckets.pop_first()?;
        self.len -= bucket.len();
        Some((at, bucket))
    }

    /// Returns a bucket taken by [`TickQueue::pop_tick`] to the spare pool.
    fn recycle(&mut self, mut bucket: VecDeque<T>) {
        bucket.clear();
        self.spare.push(bucket);
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The buffers of one grouped tick, reused across ticks.
struct TickScratch<M> {
    sort: group::NodeSort,
    /// `order[j]`: the schedule index of the tick's `j`-th event in
    /// grouped order.
    order: Vec<u32>,
    /// `sent[i]`: the range in `sends` of schedule index `i`'s sends.
    sent: Vec<[u32; 2]>,
    /// Phase 1's sends as `(link, to, payload)`, in grouped order; phase 2
    /// takes each payload.
    sends: Vec<(u32, NodeId, Option<M>)>,
    /// Phase 1's armed timers as `(schedule index, (delay, tag))`, sorted by
    /// schedule index for phase 2.
    timers: Vec<(u32, (SimTime, u64))>,
    /// Phase 1's emitted node events (telemetry runs only), tagged and
    /// sorted like `timers`.
    events: Vec<(u32, NodeEvent)>,
}

impl<M> TickScratch<M> {
    /// Buffers for chunks of up to `chunk` events, allocated up front:
    /// grown on the first large tick instead, they leave the allocator
    /// holes that raise a run's peak memory.
    fn with_capacity(chunk: usize) -> Self {
        TickScratch {
            sort: group::NodeSort::default(),
            order: Vec::with_capacity(chunk),
            sent: Vec::with_capacity(chunk),
            sends: Vec::with_capacity(chunk),
            timers: Vec::new(),
            events: Vec::new(),
        }
    }
}

/// The most events a grouped chunk of a tick holds, over `n` nodes. A
/// chunk of `n` events lets each phase-1 sweep of the node states cover
/// about every node once, while the per-chunk buffers stay `O(n)` however
/// large a tick grows; small networks run every tick as one chunk.
fn chunk_len(n: usize) -> usize {
    n.max(1 << 12)
}

/// The end of the run of entries tagged `tag` that starts at `from`.
fn run_end<T>(tagged: &[(u32, T)], from: usize, tag: u32) -> usize {
    from + tagged[from..].iter().take_while(|&&(t, _)| t == tag).count()
}

/// Deterministic discrete-event simulator over a set of [`Protocol`] nodes
/// that message each other along the edges of a topology graph.
///
/// Events are ordered by `(delivery time, schedule order)`: simultaneous
/// deliveries resolve in the order they were scheduled, so a run is a pure
/// function of `(nodes, config, topology)`.
pub struct Simulator<'g, P: Protocol> {
    nodes: Vec<P>,
    /// The communication graph: node `i` runs `nodes[i]`, and every
    /// directed link `from → to` is addressed by its CSR position
    /// [`Graph::slot`].
    topology: &'g Graph,
    /// The fault plan compiled against the node count: O(1) crash/restart/
    /// partition/link-loss queries on the delivery path.
    faults: CompiledFaults,
    /// Per-node restart count; timers carry the incarnation they were armed
    /// in and fire only if it still matches.
    incarnation: Vec<u32>,
    config: SimConfig,
    rng: StdRng,
    now: SimTime,
    /// Monotone span-id source: every send gets the next id, *including*
    /// dropped sends (which never enter the queue).
    next_span: u64,
    /// Pending events in `(delivery time, schedule order)` order.
    queue: TickQueue<Pending<P::Message>>,
    /// Events of the tick being dispatched that come after the current
    /// one: taken out of `queue` by a grouped tick but still in flight.
    backlog: usize,
    /// The callbacks' outbox, drained after each callback and handed to
    /// the next one, so deliveries allocate no outbox of their own.
    outbox: Vec<(NodeId, P::Message)>,
    tick: TickScratch<P::Message>,
    /// Last scheduled delivery time per directed link, for FIFO clamping,
    /// indexed by the link's CSR position (length `2m`).
    last: Vec<SimTime>,
    stats: NetStats,
    log: EventLog,
    started: bool,
}

impl<'g, P: Protocol> Simulator<'g, P> {
    /// Creates a simulator whose nodes communicate only along the edges of
    /// `topology` (node `i` of the graph runs `nodes[i]`).
    ///
    /// # Panics
    /// If `nodes` and `topology` differ in node count. A send to a
    /// non-neighbour panics at dispatch time.
    pub fn new(nodes: Vec<P>, config: SimConfig, topology: &'g Graph) -> Self {
        assert_eq!(
            nodes.len(),
            topology.node_count(),
            "one protocol node per topology node"
        );
        let n = nodes.len();
        let rng = StdRng::seed_from_u64(config.seed);
        let faults = CompiledFaults::compile(&config.faults, n)
            .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
        let log = if config.telemetry {
            EventLog::enabled()
        } else {
            EventLog::disabled()
        };
        Simulator {
            nodes,
            topology,
            faults,
            incarnation: vec![0; n],
            config,
            rng,
            now: 0,
            next_span: 0,
            queue: TickQueue::new(),
            backlog: 0,
            outbox: Vec::new(),
            tick: TickScratch::with_capacity(chunk_len(n)),
            last: vec![0; 2 * topology.edge_count()],
            stats: NetStats::default(),
            log,
            started: false,
        }
    }

    /// Clamps `at` so this send does not overtake the previous send on the
    /// directed link at CSR position `slot`, and records the result as the
    /// link's new last delivery time.
    fn clamp(&mut self, slot: usize, mut at: SimTime) -> SimTime {
        let last = &mut self.last[slot];
        if at <= *last {
            at = *last + 1;
        }
        *last = at;
        at
    }

    /// Runs one callback of `node` at the current time on a context that
    /// reuses the simulator's outbox, and returns the context's output.
    /// Hand the outbox back through `self.outbox` once drained.
    fn run_handler(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut P, &mut Context<P::Message>),
    ) -> CtxParts<P::Message> {
        let outbox = std::mem::take(&mut self.outbox);
        let mut ctx = Context::reusing(node, self.now, self.config.telemetry, outbox);
        f(&mut self.nodes[node.index()], &mut ctx);
        ctx.into_parts()
    }

    /// Runs one callback of `node`, then dispatches its sends and timers.
    fn callback(
        &mut self,
        node: NodeId,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut P, &mut Context<P::Message>),
    ) {
        let (mut outbox, timers, events) = self.run_handler(node, f);
        let topology = self.topology;
        let sends = outbox.drain(..).map(|(to, msg)| (link(topology, node, to), to, msg));
        self.dispatch(node, parent, events.into_iter(), timers.into_iter(), sends);
        self.outbox = outbox;
    }

    fn schedule(&mut self, at: SimTime, pending: Pending<P::Message>) {
        // A grouped tick relies on this: nothing joins the tick being run.
        // Only `start` queues restarts, and it may queue one at time 0.
        assert!(
            at > self.now || matches!(pending, Pending::Restart { .. }),
            "event scheduled into the current tick {at}"
        );
        self.queue.push(at, pending);
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.queue.len() + self.backlog);
    }

    /// Dispatches one callback's output; each send comes with its link
    /// (see [`link`]). `parent` is the span whose delivery ran the callback
    /// (`None` for `on_start`); every send and armed timer inherits it as
    /// causal parent.
    fn dispatch(
        &mut self,
        from: NodeId,
        parent: Option<SpanId>,
        events: impl Iterator<Item = NodeEvent>,
        timers: impl Iterator<Item = (SimTime, u64)>,
        sends: impl Iterator<Item = (usize, NodeId, P::Message)>,
    ) {
        // Protocol state transitions emitted during the callback, stamped
        // with the emitting node and its callback time. `events` is always
        // empty unless this run records telemetry.
        for event in events {
            self.log.record(TelemetryEvent::Node {
                time: self.now,
                node: from,
                event,
            });
        }
        for (delay, tag) in timers {
            let incarnation = self.incarnation[from.index()];
            self.schedule(
                self.now + delay,
                Pending::Timer { node: from, tag, parent, incarnation },
            );
        }
        for (slot, to, msg) in sends {
            let kind = msg.kind();
            let span = SpanId(self.next_span);
            self.next_span += 1;
            self.stats.record_send(kind);
            self.log.record(TelemetryEvent::Sent {
                time: self.now,
                span,
                parent,
                from,
                to,
                kind,
            });

            // Partition cut: deterministic (no RNG draw), decided at send
            // time so plans without partitions keep the exact RNG stream of
            // pre-partition seeded runs.
            if self.faults.cut_at(from, to, self.now) {
                self.stats.partition_dropped += 1;
                self.log.record(TelemetryEvent::Dropped {
                    time: self.now,
                    span,
                    from,
                    to,
                    kind,
                });
                continue;
            }

            // Loss: the per-link override if one exists, else the global
            // drop probability. The draw only happens when the effective
            // probability is non-zero, exactly as before.
            let loss = self.faults.loss(from, to);
            if loss > 0.0 && self.rng.gen_range(0.0..1.0) < loss {
                self.stats.dropped += 1;
                self.log.record(TelemetryEvent::Dropped {
                    time: self.now,
                    span,
                    from,
                    to,
                    kind,
                });
                continue;
            }

            let mut at = self.now + self.config.latency.sample(&mut self.rng);
            // Reordering fault: the message skips the per-link FIFO clamp
            // and may overtake earlier traffic (explicitly violating the
            // paper's channel assumption). Draws happen only when the fault
            // is configured, preserving existing seeded RNG streams.
            let reorder = self.faults.reorder_probability > 0.0
                && self.rng.gen_range(0.0..1.0) < self.faults.reorder_probability;
            if reorder {
                self.stats.reordered += 1;
            } else {
                at = self.clamp(slot, at);
            }
            // Duplication fault: an extra copy with its own span and an
            // independent latency draw (so the copy can arrive long after —
            // or, on a reordered link, before — the original).
            let duplicate = self.faults.duplicate_probability > 0.0
                && self.rng.gen_range(0.0..1.0) < self.faults.duplicate_probability;
            let copy = if duplicate { Some(msg.clone()) } else { None };
            self.schedule(at, Pending::Msg(InFlight { from, to, kind, msg: Some(msg), span }));
            if let Some(copy) = copy {
                let dspan = SpanId(self.next_span);
                self.next_span += 1;
                self.stats.duplicated += 1;
                self.log.record(TelemetryEvent::Sent {
                    time: self.now,
                    span: dspan,
                    parent,
                    from,
                    to,
                    kind,
                });
                let at = self.now + self.config.latency.sample(&mut self.rng);
                let dat = self.clamp(slot, at);
                let msg = Some(copy);
                self.schedule(dat, Pending::Msg(InFlight { from, to, kind, msg, span: dspan }));
            }
        }
    }

    /// Runs every node's `on_start` (at time 0) if not already done.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            let id = NodeId(i as u32);
            if self.faults.down_at(id, 0) {
                continue;
            }
            self.callback(id, None, |node, ctx| node.on_start(ctx));
        }
        // Restart events enter the queue only when the plan schedules them,
        // so plans without restarts keep their exact `(time, seq)` order.
        let restarts: Vec<(NodeId, SimTime)> = self.faults.restarts().collect();
        for (node, at) in restarts {
            self.schedule(at, Pending::Restart { node });
        }
    }

    /// Whether `ev`, due now, runs its node's callback. A message to a
    /// node that is down is dead-lettered; a timer dies with its node or
    /// with the incarnation that armed it. `restarts` counts restarts of
    /// the event's node that come before it in this tick but are not yet
    /// applied to `incarnation` (a grouped tick's phase 1).
    fn is_live(&self, ev: &Pending<P::Message>, restarts: u32) -> bool {
        match *ev {
            Pending::Msg(InFlight { to, .. }) => !self.faults.down_at(to, self.now),
            Pending::Timer { node, incarnation, .. } => {
                !self.faults.down_at(node, self.now)
                    && incarnation == self.incarnation[node.index()] + restarts
            }
            Pending::Restart { .. } => true,
        }
    }

    /// Accounts for `ev` firing now: its counters, its transport record
    /// and, for a restart, the new incarnation. Returns the node whose
    /// callback runs and the callback's causal parent, or `None` if the
    /// event dies (see [`Simulator::is_live`]).
    fn fire(&mut self, ev: &Pending<P::Message>) -> Option<(NodeId, Option<SpanId>)> {
        let (live, time) = (self.is_live(ev, 0), self.now);
        match *ev {
            Pending::Msg(InFlight { from, to, kind, span, .. }) => {
                if !live {
                    self.stats.dead_lettered += 1;
                    self.log.record(TelemetryEvent::DeadLettered { time, span, from, to, kind });
                    return None;
                }
                self.stats.delivered += 1;
                self.log.record(TelemetryEvent::Delivered { time, span, from, to, kind });
                Some((to, Some(span)))
            }
            Pending::Timer { node, tag, parent, .. } => {
                if !live {
                    return None;
                }
                self.stats.timers_fired += 1;
                self.log.record(TelemetryEvent::TimerFired { time, node, tag });
                Some((node, parent))
            }
            Pending::Restart { node } => {
                // The node comes back with no volatile state: bump the
                // incarnation (killing pre-crash timers) and let the
                // protocol re-enter via its recovery hook. Sends from the
                // recovery callback are new causal roots.
                self.incarnation[node.index()] += 1;
                self.stats.restarts += 1;
                self.log.record(TelemetryEvent::Restarted { time, node });
                Some((node, None))
            }
        }
    }

    /// Delivers a single event (message or timer). Returns `false` when the
    /// queue is empty.
    ///
    /// This is the reference path: [`Simulator::run`] must leave exactly
    /// the state a loop of `step` leaves.
    pub fn step(&mut self) -> bool {
        self.start();
        let Some((at, mut ev)) = self.queue.pop() else {
            return false;
        };
        self.now = at;
        if let Some((node, parent)) = self.fire(&ev) {
            self.callback(node, parent, |n, ctx| handle(n, &mut ev, ctx));
        }
        true
    }

    /// Runs the whole earliest tick, a chunk of [`chunk_len`] events at a
    /// time, each chunk in two phases (see the module docs).
    fn run_tick(&mut self) {
        let (at, mut bucket) = self.queue.pop_tick().expect("a tick is due");
        self.now = at;
        let mut s = std::mem::replace(&mut self.tick, TickScratch::with_capacity(0));
        let due = bucket.make_contiguous();
        let mut later = due.len();
        for chunk in due.chunks_mut(chunk_len(self.nodes.len())) {
            later -= chunk.len();
            self.run_chunk(&mut s, chunk, later);
        }
        self.tick = s;
        self.queue.recycle(bucket);
    }

    /// Runs `due`, consecutive events of the current tick with `later`
    /// more after them: callbacks grouped by node, then dispatch in
    /// schedule order.
    fn run_chunk(
        &mut self,
        s: &mut TickScratch<P::Message>,
        due: &mut [Pending<P::Message>],
        later: usize,
    ) {
        let k = due.len();
        let n = self.nodes.len();
        s.sort.indices(&mut s.order, k, n, |i| due[i].node().index());

        // Phase 1: callbacks, node by node, each node's events in schedule
        // order. Only the node's own state changes; the output is kept.
        s.sent.clear();
        s.sent.resize(k, [0; 2]);
        // About one send per delivery: sized once, not grown by doubling.
        s.sends.reserve(k);
        // The node whose events are running, and its restarts so far.
        let mut restarts = (NodeId(u32::MAX), 0);
        for &i in &s.order {
            let ev = &mut due[i as usize];
            let node = ev.node();
            if node != restarts.0 {
                restarts = (node, 0);
            }
            let start = s.sends.len() as u32;
            if self.is_live(ev, restarts.1) {
                restarts.1 += u32::from(matches!(ev, Pending::Restart { .. }));
                let (mut outbox, timers, events) =
                    self.run_handler(node, |n, ctx| handle(n, ev, ctx));
                // The sender's adjacency is at hand here, in phase 1.
                let topology = self.topology;
                s.sends.extend(
                    outbox
                        .drain(..)
                        .map(|(to, msg)| (link(topology, node, to) as u32, to, Some(msg))),
                );
                self.outbox = outbox;
                s.timers.extend(timers.into_iter().map(|timer| (i, timer)));
                s.events.extend(events.into_iter().map(|event| (i, event)));
            }
            s.sent[i as usize] = [start, s.sends.len() as u32];
        }
        // Stable: each callback's timers and events keep their own order.
        s.timers.sort_by_key(|&(i, _)| i);
        s.events.sort_by_key(|&(i, _)| i);

        // Phase 2: in schedule order, account for each event and dispatch
        // its callback's output, exactly as `step` would have.
        let (mut t, mut e) = (0, 0);
        for (i, ev) in due.iter().enumerate() {
            self.backlog = later + k - 1 - i;
            let Some((node, parent)) = self.fire(ev) else {
                continue;
            };
            let (t0, e0) = (t, e);
            (t, e) = (run_end(&s.timers, t, i as u32), run_end(&s.events, e, i as u32));
            let [s0, s1] = s.sent[i];
            self.dispatch(
                node,
                parent,
                s.events[e0..e].iter().map(|&(_, event)| event),
                s.timers[t0..t].iter().map(|&(_, timer)| timer),
                s.sends[s0 as usize..s1 as usize].iter_mut().map(|(slot, to, msg)| {
                    (*slot as usize, *to, msg.take().expect("a send is dispatched once"))
                }),
            );
        }
        self.backlog = 0;
        s.sends.clear();
        s.timers.clear();
        s.events.clear();
    }

    /// Runs to quiescence (or until the delivery guard trips).
    ///
    /// `RunOutcome::deliveries` counts messages actually handed to handlers;
    /// dead-lettered messages advance time but are not deliveries.
    ///
    /// Ticks run grouped (see the module docs). A tick of one event, or
    /// one larger than the deliveries the guard has left, runs through
    /// [`Simulator::step`], so the guard stops at the same event.
    pub fn run(&mut self) -> RunOutcome {
        self.start();
        loop {
            let done = self.stats.delivered + self.stats.timers_fired;
            if done >= self.config.max_deliveries {
                break;
            }
            match self.queue.first_len() {
                None => break,
                Some(k) if k == 1 || k as u64 > self.config.max_deliveries - done => {
                    self.step();
                }
                Some(_) => self.run_tick(),
            }
        }
        RunOutcome {
            end_time: self.now,
            deliveries: self.stats.delivered,
            quiescent: self.queue.is_empty(),
        }
    }

    /// Immutable access to node `i`'s protocol state (post-run inspection).
    pub fn node(&self, i: NodeId) -> &P {
        &self.nodes[i.index()]
    }

    /// Iterator over all node states.
    pub fn nodes(&self) -> impl Iterator<Item = &P> {
        self.nodes.iter()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Network statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The recorded telemetry log (empty unless `config.telemetry`).
    pub fn telemetry(&self) -> &EventLog {
        &self.log
    }

    /// Takes ownership of the telemetry log (leaves an empty disabled one).
    pub fn take_telemetry(&mut self) -> EventLog {
        std::mem::take(&mut self.log)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of in-flight events (undelivered messages plus armed timers).
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Fraction of nodes whose `is_terminated` is `true`.
    pub fn terminated_fraction(&self) -> f64 {
        if self.nodes.is_empty() {
            return 1.0;
        }
        self.nodes.iter().filter(|n| n.is_terminated()).count() as f64 / self.nodes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Payload;
    use owp_graph::generators;
    use owp_telemetry::MessageKind;

    /// Token-ring protocol: node 0 starts a token that makes `hops` hops.
    #[derive(Clone, Debug)]
    struct Token {
        remaining: u32,
    }
    impl Payload for Token {
        fn kind(&self) -> MessageKind {
            MessageKind::Prop
        }
    }

    struct RingNode {
        id: NodeId,
        n: usize,
        seen: u32,
        hops: u32,
        done: bool,
    }

    impl Protocol for RingNode {
        type Message = Token;

        fn on_start(&mut self, ctx: &mut Context<Token>) {
            if self.id == NodeId(0) && self.hops > 0 {
                let next = NodeId(((self.id.0 as usize + 1) % self.n) as u32);
                ctx.send(
                    next,
                    Token {
                        remaining: self.hops - 1,
                    },
                );
            }
        }

        fn on_message(&mut self, _from: NodeId, msg: Token, ctx: &mut Context<Token>) {
            self.seen += 1;
            if msg.remaining > 0 {
                let next = NodeId(((self.id.0 as usize + 1) % self.n) as u32);
                ctx.send(
                    next,
                    Token {
                        remaining: msg.remaining - 1,
                    },
                );
            } else {
                self.done = true;
            }
        }

        fn is_terminated(&self) -> bool {
            self.done
        }
    }

    fn ring(n: usize, hops: u32) -> Vec<RingNode> {
        (0..n)
            .map(|i| RingNode {
                id: NodeId(i as u32),
                n,
                seen: 0,
                hops,
                done: false,
            })
            .collect()
    }

    #[test]
    fn token_ring_quiesces_with_exact_counts() {
        let g = generators::ring(5);
        let mut sim = Simulator::new(ring(5, 12), SimConfig::with_seed(1), &g);
        let out = sim.run();
        assert!(out.quiescent);
        assert_eq!(out.deliveries, 12);
        assert_eq!(sim.stats().sent, 12);
        assert_eq!(sim.stats().sent_of(MessageKind::Prop), 12);
        let total_seen: u32 = sim.nodes().map(|n| n.seen).sum();
        assert_eq!(total_seen, 12);
    }

    #[test]
    #[should_panic(expected = "non-neighbour")]
    fn send_to_non_neighbour_panics() {
        // The token's third hop, 2 → 0, closes a ring that the path lacks.
        let g = generators::path(3);
        Simulator::new(ring(3, 5), SimConfig::with_seed(1), &g).run();
    }

    #[test]
    #[should_panic(expected = "one protocol node per topology node")]
    fn node_count_must_match_the_topology() {
        let g = generators::ring(4);
        Simulator::new(ring(5, 1), SimConfig::with_seed(1), &g);
    }

    #[test]
    fn constant_latency_time_is_hops() {
        let cfg = SimConfig::with_seed(2).latency(LatencyModel::Constant { ticks: 3 });
        let g = generators::ring(4);
        let mut sim = Simulator::new(ring(4, 8), cfg, &g);
        let out = sim.run();
        assert_eq!(out.end_time, 8 * 3);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed: u64| {
            let cfg = SimConfig::with_seed(seed)
                .latency(LatencyModel::Exponential { mean: 7.0 })
                .telemetry();
            let g = generators::ring(6);
            let mut sim = Simulator::new(ring(6, 30), cfg, &g);
            let out = sim.run();
            (out, sim.telemetry().events().to_vec())
        };
        let (o1, t1) = run(42);
        let (o2, t2) = run(42);
        assert_eq!(o1, o2);
        assert_eq!(t1, t2);
        let (o3, _) = run(43);
        // Different seed almost surely gives a different end time.
        assert!(o1.end_time != o3.end_time || o1.deliveries == o3.deliveries);
    }

    #[test]
    fn max_deliveries_guard() {
        let cfg = SimConfig {
            max_deliveries: 5,
            ..SimConfig::with_seed(3)
        };
        let g = generators::ring(4);
        let mut sim = Simulator::new(ring(4, 100), cfg, &g);
        let out = sim.run();
        assert!(!out.quiescent);
        assert_eq!(out.deliveries, 5);
    }

    #[test]
    fn message_loss_kills_the_token() {
        let cfg = SimConfig::with_seed(4).faults(FaultPlan::with_drop_probability(1.0));
        let g = generators::ring(4);
        let mut sim = Simulator::new(ring(4, 10), cfg, &g);
        let out = sim.run();
        assert!(out.quiescent);
        assert_eq!(out.deliveries, 0);
        assert_eq!(sim.stats().dropped, 1); // the initial send was dropped
    }

    #[test]
    fn crashed_node_dead_letters() {
        // Node 1 crashes at t=0; the token dies there.
        let cfg = SimConfig::with_seed(5)
            .faults(FaultPlan::none().crash(NodeId(1), 0))
            .telemetry();
        let g = generators::ring(4);
        let mut sim = Simulator::new(ring(4, 10), cfg, &g);
        let out = sim.run();
        assert!(out.quiescent);
        assert_eq!(sim.stats().dead_lettered, 1);
        assert_eq!(out.deliveries, 0);
        // Dead letters are recorded as their own event class, not drops.
        assert_eq!(sim.telemetry().with_tag("dead_lettered").count(), 1);
        assert_eq!(sim.telemetry().with_tag("dropped").count(), 0);
    }

    #[test]
    fn fifo_preserves_link_order() {
        // A node that sends 20 messages to one peer in a single callback;
        // with FIFO they must arrive in send order even under random latency.
        struct Burst {
            id: NodeId,
            received: Vec<u32>,
        }
        #[derive(Clone, Debug)]
        struct Seq(u32);
        impl Payload for Seq {
            fn kind(&self) -> MessageKind {
                MessageKind::Prop
            }
        }
        impl Protocol for Burst {
            type Message = Seq;
            fn on_start(&mut self, ctx: &mut Context<Seq>) {
                if self.id == NodeId(0) {
                    for k in 0..20 {
                        ctx.send(NodeId(1), Seq(k));
                    }
                }
            }
            fn on_message(&mut self, _from: NodeId, msg: Seq, _ctx: &mut Context<Seq>) {
                self.received.push(msg.0);
            }
        }
        let nodes = vec![
            Burst {
                id: NodeId(0),
                received: vec![],
            },
            Burst {
                id: NodeId(1),
                received: vec![],
            },
        ];
        let cfg = SimConfig::with_seed(6).latency(LatencyModel::Uniform { lo: 1, hi: 50 });
        let g = generators::path(2);
        let mut sim = Simulator::new(nodes, cfg, &g);
        sim.run();
        let got = &sim.node(NodeId(1)).received;
        assert_eq!(*got, (0..20).collect::<Vec<_>>());
    }

    /// Retry protocol: node 0 keeps pinging node 1 every 10 ticks until it
    /// hears back; node 1 answers only the third ping.
    struct Retry {
        id: NodeId,
        pings_seen: u32,
        done: bool,
    }
    #[derive(Clone, Debug)]
    enum RetryMsg {
        Ping,
        Pong,
    }
    impl Payload for RetryMsg {
        fn kind(&self) -> MessageKind {
            match self {
                RetryMsg::Ping => MessageKind::Prop,
                RetryMsg::Pong => MessageKind::Ack,
            }
        }
    }
    impl Protocol for Retry {
        type Message = RetryMsg;
        fn on_start(&mut self, ctx: &mut Context<RetryMsg>) {
            if self.id == NodeId(0) {
                ctx.send(NodeId(1), RetryMsg::Ping);
                ctx.set_timer(10, 0);
            }
        }
        fn on_message(&mut self, from: NodeId, msg: RetryMsg, ctx: &mut Context<RetryMsg>) {
            match msg {
                RetryMsg::Ping => {
                    self.pings_seen += 1;
                    if self.pings_seen >= 3 {
                        ctx.send(from, RetryMsg::Pong);
                    }
                }
                RetryMsg::Pong => self.done = true,
            }
        }
        fn on_timer(&mut self, _tag: u64, ctx: &mut Context<RetryMsg>) {
            if !self.done {
                ctx.send(NodeId(1), RetryMsg::Ping);
                ctx.set_timer(10, 0);
            }
        }
        fn is_terminated(&self) -> bool {
            self.id != NodeId(0) || self.done
        }
    }

    fn retry_nodes() -> Vec<Retry> {
        (0..2)
            .map(|i| Retry {
                id: NodeId(i),
                pings_seen: 0,
                done: false,
            })
            .collect()
    }

    #[test]
    fn timers_drive_retransmission_to_completion() {
        let cfg = SimConfig::with_seed(1).telemetry();
        let g = generators::path(2);
        let mut sim = Simulator::new(retry_nodes(), cfg, &g);
        let out = sim.run();
        assert!(out.quiescent);
        assert!(sim.node(NodeId(0)).done);
        assert_eq!(sim.node(NodeId(1)).pings_seen, 3);
        assert_eq!(sim.stats().sent_of(MessageKind::Prop), 3);
        assert_eq!(sim.stats().sent_of(MessageKind::Ack), 1);
        // Two timers fired and re-armed; the third finds done=true and stops
        // re-arming, so exactly 3 timer firings happen before quiescence.
        assert_eq!(sim.stats().timers_fired, 3);
        assert_eq!(sim.telemetry().with_tag("timer_fired").count(), 3);
        assert_eq!(sim.telemetry().deliveries().count(), 4);
    }

    #[test]
    fn timers_survive_message_loss() {
        // Under 50% loss the retry loop must still finish: timers are
        // local and lossless.
        let cfg = SimConfig::with_seed(33).faults(FaultPlan::with_drop_probability(0.5));
        let g = generators::path(2);
        let mut sim = Simulator::new(retry_nodes(), cfg, &g);
        let out = sim.run();
        assert!(out.quiescent);
        assert!(sim.node(NodeId(0)).done, "retransmission defeats loss");
    }

    #[test]
    fn crashed_node_timers_do_not_fire() {
        let cfg = SimConfig::with_seed(2).faults(FaultPlan::none().crash(NodeId(0), 5));
        let g = generators::path(2);
        let mut sim = Simulator::new(retry_nodes(), cfg, &g);
        sim.run();
        // Node 0 crashed before its first timer (t=10): no retransmissions.
        assert_eq!(sim.stats().sent_of(MessageKind::Prop), 1);
        assert_eq!(sim.stats().timers_fired, 0);
    }

    #[test]
    fn terminated_fraction_reports() {
        let g = generators::ring(4);
        let mut sim = Simulator::new(ring(4, 4), SimConfig::with_seed(7), &g);
        assert_eq!(sim.terminated_fraction(), 0.0);
        sim.run();
        assert_eq!(sim.terminated_fraction(), 0.25); // exactly one node saw remaining=0
    }

    #[test]
    fn token_ring_causal_chain_is_one_certified_path() {
        use owp_telemetry::CausalDag;
        let cfg = SimConfig::with_seed(1).telemetry();
        let g = generators::ring(5);
        let mut sim = Simulator::new(ring(5, 12), cfg, &g);
        sim.run();
        let dag = CausalDag::from_log(sim.telemetry());
        // Every hop is caused by the previous delivery: one root, one chain.
        assert_eq!(dag.len(), 12);
        assert_eq!(dag.roots(), 1);
        assert!(dag.is_certified(), "live traces always certify (Lemma 5)");
        assert_eq!(dag.critical_path_len(), 12);
        assert_eq!(dag.max_fanout(), 1);
        let path = dag.critical_path();
        assert_eq!(path.end_time, sim.now());
        assert_eq!(path.total_latency(), sim.now());
    }

    #[test]
    fn timer_sends_inherit_the_arming_parent() {
        use owp_telemetry::{CausalDag, MessageKind};
        let cfg = SimConfig::with_seed(1).telemetry();
        let g = generators::path(2);
        let mut sim = Simulator::new(retry_nodes(), cfg, &g);
        sim.run();
        let dag = CausalDag::from_log(sim.telemetry());
        assert!(dag.is_certified());
        // The initial ping and the timer-driven retransmissions are all
        // roots (the timer chain was armed from on_start), while the PONG
        // is caused by the third delivered PING.
        let pings: Vec<_> = dag
            .spans()
            .iter()
            .filter(|s| s.kind == MessageKind::Prop)
            .collect();
        assert_eq!(pings.len(), 3);
        assert!(pings.iter().all(|s| s.parent.is_none()));
        let pong = dag
            .spans()
            .iter()
            .find(|s| s.kind == MessageKind::Ack)
            .expect("pong span");
        assert_eq!(pong.parent, Some(pings[2].span));
        assert_eq!(dag.kind_fanout().get(&("PROP", "ACK")), Some(&1));
    }

    #[test]
    fn dropped_and_dead_lettered_spans_are_accounted() {
        use owp_telemetry::{CausalDag, SpanOutcome};
        let cfg = SimConfig::with_seed(4)
            .faults(FaultPlan::with_drop_probability(1.0))
            .telemetry();
        let g = generators::ring(4);
        let mut sim = Simulator::new(ring(4, 10), cfg, &g);
        sim.run();
        let dag = CausalDag::from_log(sim.telemetry());
        assert_eq!(dag.len(), 1);
        assert_eq!(dag.spans()[0].outcome, SpanOutcome::Dropped);
        assert!(dag.is_certified());

        let cfg = SimConfig::with_seed(5)
            .faults(FaultPlan::none().crash(NodeId(1), 0))
            .telemetry();
        let g = generators::ring(4);
        let mut sim = Simulator::new(ring(4, 10), cfg, &g);
        sim.run();
        let dag = CausalDag::from_log(sim.telemetry());
        assert_eq!(dag.spans()[0].outcome, SpanOutcome::DeadLettered);
        assert!(dag.is_certified());
    }

    #[test]
    fn partition_cuts_then_heals() {
        // Node 0 is partitioned off for t in [0, 15): the pings at t=0 and
        // t=10 are cut, the retransmissions from t=20 get through and the
        // protocol still completes (the paper's liveness needs the heal).
        let cfg = SimConfig::with_seed(8)
            .faults(FaultPlan::none().partition(vec![NodeId(0)], 0, 15))
            .telemetry();
        let g = generators::path(2);
        let mut sim = Simulator::new(retry_nodes(), cfg, &g);
        let out = sim.run();
        assert!(out.quiescent);
        assert!(sim.node(NodeId(0)).done, "retransmission defeats the cut");
        assert_eq!(sim.stats().partition_dropped, 2);
        assert_eq!(sim.stats().dropped, 0, "cuts are not counted as random loss");
        // Cut spans still get a terminal outcome so the causal DAG certifies.
        use owp_telemetry::CausalDag;
        assert!(CausalDag::from_log(sim.telemetry()).is_certified());
    }

    #[test]
    fn asymmetric_link_loss_is_directional() {
        // 0 -> 1 always drops; 1 -> 0 is perfect. The ping never arrives,
        // the retry loop never hears back, max_deliveries stops the run.
        let cfg = SimConfig {
            max_deliveries: 50,
            ..SimConfig::with_seed(9)
                .faults(FaultPlan::none().link_loss(NodeId(0), NodeId(1), 1.0))
        };
        let g = generators::path(2);
        let mut sim = Simulator::new(retry_nodes(), cfg, &g);
        sim.run();
        assert!(!sim.node(NodeId(0)).done);
        assert_eq!(sim.node(NodeId(1)).pings_seen, 0);
        assert!(sim.stats().dropped > 0);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        struct Burst {
            id: NodeId,
            received: u32,
        }
        impl Protocol for Burst {
            type Message = MessageKind;
            fn on_start(&mut self, ctx: &mut Context<MessageKind>) {
                if self.id == NodeId(0) {
                    for _ in 0..5 {
                        ctx.send(NodeId(1), MessageKind::Prop);
                    }
                }
            }
            fn on_message(&mut self, _: NodeId, _: MessageKind, _: &mut Context<MessageKind>) {
                self.received += 1;
            }
        }
        let nodes = vec![
            Burst { id: NodeId(0), received: 0 },
            Burst { id: NodeId(1), received: 0 },
        ];
        let cfg = SimConfig::with_seed(10)
            .faults(FaultPlan::none().duplicate(1.0))
            .telemetry();
        let g = generators::path(2);
        let mut sim = Simulator::new(nodes, cfg, &g);
        let out = sim.run();
        assert_eq!(sim.stats().sent, 5, "protocol-level sends are unchanged");
        assert_eq!(sim.stats().duplicated, 5);
        assert_eq!(out.deliveries, 10);
        assert_eq!(sim.node(NodeId(1)).received, 10);
        // Every copy has its own span with a proper outcome.
        use owp_telemetry::CausalDag;
        let dag = CausalDag::from_log(sim.telemetry());
        assert_eq!(dag.len(), 10);
        assert!(dag.is_certified());
    }

    #[test]
    fn reordering_violates_fifo_order() {
        struct Burst {
            id: NodeId,
            received: Vec<u32>,
        }
        #[derive(Clone, Debug)]
        struct Seq(u32);
        impl Payload for Seq {
            fn kind(&self) -> MessageKind {
                MessageKind::Prop
            }
        }
        impl Protocol for Burst {
            type Message = Seq;
            fn on_start(&mut self, ctx: &mut Context<Seq>) {
                if self.id == NodeId(0) {
                    for k in 0..20 {
                        ctx.send(NodeId(1), Seq(k));
                    }
                }
            }
            fn on_message(&mut self, _from: NodeId, msg: Seq, _ctx: &mut Context<Seq>) {
                self.received.push(msg.0);
            }
        }
        let mk = || {
            vec![
                Burst { id: NodeId(0), received: vec![] },
                Burst { id: NodeId(1), received: vec![] },
            ]
        };
        let cfg = SimConfig::with_seed(6)
            .latency(LatencyModel::Uniform { lo: 1, hi: 50 })
            .faults(FaultPlan::none().reorder(1.0));
        let g = generators::path(2);
        let mut sim = Simulator::new(mk(), cfg, &g);
        sim.run();
        assert_eq!(sim.stats().reordered, 20);
        let got = sim.node(NodeId(1)).received.clone();
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>(), "all messages arrive");
        assert_ne!(got, sorted, "but not in send order: FIFO was violated");
    }

    #[test]
    fn crash_restart_reenters_via_on_restart() {
        // Node 0 crashes at t=5 (after its first ping, before its first
        // timer) and restarts at t=35. The default on_restart re-runs
        // on_start: a fresh ping plus a fresh retransmission timer, so the
        // protocol still completes. Pre-crash timers must stay dead.
        let cfg = SimConfig::with_seed(11)
            .faults(FaultPlan::none().crash(NodeId(0), 5).restart(NodeId(0), 35))
            .telemetry();
        let g = generators::path(2);
        let mut sim = Simulator::new(retry_nodes(), cfg, &g);
        let out = sim.run();
        assert!(out.quiescent);
        assert_eq!(sim.stats().restarts, 1);
        assert!(sim.node(NodeId(0)).done, "restart recovers the protocol");
        assert_eq!(sim.node(NodeId(1)).pings_seen, 3);
        assert_eq!(sim.telemetry().with_tag("restarted").count(), 1);
        // Pings: one pre-crash, one from on_restart, one from the restarted
        // incarnation's timer. The pre-crash timer chain never fires.
        assert_eq!(sim.stats().sent_of(MessageKind::Prop), 3);
        assert_eq!(sim.stats().timers_fired, 2);
    }

    #[test]
    fn node_crashed_at_zero_can_restart_later() {
        // Node 0 is down from the start; it never runs on_start, but its
        // restart at t=20 boots it via on_restart and the run completes.
        let cfg = SimConfig::with_seed(12)
            .faults(FaultPlan::none().crash(NodeId(0), 0).restart(NodeId(0), 20));
        let g = generators::path(2);
        let mut sim = Simulator::new(retry_nodes(), cfg, &g);
        let out = sim.run();
        assert!(out.quiescent);
        assert!(sim.node(NodeId(0)).done);
        assert_eq!(sim.stats().restarts, 1);
    }

    #[test]
    fn composed_faults_are_deterministic() {
        let run = |seed: u64| {
            let plan = FaultPlan::with_drop_probability(0.1)
                .duplicate(0.2)
                .reorder(0.2)
                .link_loss(NodeId(0), NodeId(1), 0.3)
                .partition(vec![NodeId(0)], 3, 9)
                .crash(NodeId(0), 12)
                .restart(NodeId(0), 30);
            let cfg = SimConfig {
                max_deliveries: 500,
                ..SimConfig::with_seed(seed)
                    .latency(LatencyModel::Uniform { lo: 1, hi: 9 })
                    .faults(plan)
                    .telemetry()
            };
            let g = generators::path(2);
            let mut sim = Simulator::new(retry_nodes(), cfg, &g);
            let out = sim.run();
            (out, sim.stats().clone(), sim.telemetry().to_jsonl())
        };
        let a = run(77);
        let b = run(77);
        assert_eq!(a, b, "composed fault plans replay byte-identically");
    }

    #[test]
    fn disabled_telemetry_stays_unallocated() {
        let g = generators::ring(5);
        let mut sim = Simulator::new(ring(5, 40), SimConfig::with_seed(9), &g);
        sim.run();
        assert!(sim.telemetry().is_empty());
        assert_eq!(sim.telemetry().events_capacity(), 0);
    }
}
