//! Synchronous-round execution of a [`Protocol`].
//!
//! In round `r`, every message sent during round `r − 1` is delivered, and
//! every node sees its inbox in a deterministic order: by sender id, then
//! send order. This is the classic LOCAL/CONGEST-style round model; the
//! experiment suite uses it to report *round complexity*, which is
//! latency-model-free.
//!
//! The runner delivers a round grouped by receiver: ordered by
//! `(to, from)`, stable, so each node's state is touched in one visit.
//! **Each node's inbox order is unchanged**, and that is observably
//! identical to delivering in sender order: a callback reads and writes
//! only its own node's state, and its sends wait for the next round, whose
//! inboxes are again ordered by sender id, then send order. Counters and
//! timers are order-free sums and sets.
//!
//! Nodes message only along the edges of a topology graph, as on the
//! asynchronous [`crate::Simulator`]. Each delivery checks its link in the
//! receiver's adjacency, which the grouped order sweeps node by node; a
//! send to a non-neighbour panics when its round is delivered.

use crate::group;
use crate::protocol::{Context, Payload, Protocol};
use crate::stats::NetStats;
use crate::NodeId;
use owp_graph::Graph;

/// Outcome of a synchronous run.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SyncOutcome {
    /// Number of rounds executed (round 0 = `on_start`).
    pub rounds: u64,
    /// `true` iff no messages or timers were pending when the run stopped.
    pub quiescent: bool,
}

/// Synchronous-round engine. Nodes are driven in lock-step rounds.
pub struct SyncRunner<'g, P: Protocol> {
    nodes: Vec<P>,
    /// The communication graph: node `i` runs `nodes[i]`.
    topology: &'g Graph,
    /// Messages to deliver next round: `(from, to, msg)`.
    pending: Vec<(NodeId, NodeId, P::Message)>,
    /// The delivery order of the round being delivered, as indices into
    /// its batch, and the sort that computes it.
    order: Vec<u32>,
    sort: group::NodeSort,
    /// The callbacks' outbox, drained after each callback and handed to
    /// the next one.
    outbox: Vec<(NodeId, P::Message)>,
    /// Armed timers: `(fire round, node, tag)`.
    timers: Vec<(u64, NodeId, u64)>,
    stats: NetStats,
    rounds: u64,
    max_rounds: u64,
    started: bool,
}

impl<'g, P: Protocol> SyncRunner<'g, P> {
    /// Creates a runner whose nodes communicate only along the edges of
    /// `topology` (node `i` of the graph runs `nodes[i]`).
    ///
    /// # Panics
    /// If `nodes` and `topology` differ in node count. A send to a
    /// non-neighbour panics when it is delivered.
    pub fn new(nodes: Vec<P>, topology: &'g Graph) -> Self {
        assert_eq!(
            nodes.len(),
            topology.node_count(),
            "one protocol node per topology node"
        );
        SyncRunner {
            nodes,
            topology,
            pending: Vec::new(),
            order: Vec::new(),
            sort: group::NodeSort::default(),
            outbox: Vec::new(),
            timers: Vec::new(),
            stats: NetStats::default(),
            rounds: 0,
            max_rounds: 1_000_000,
            started: false,
        }
    }

    /// Sets the round guard (default 1 000 000).
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Runs one callback of node `id` at `round` on a context that reuses
    /// the runner's outbox, then queues its sends for the next round and
    /// arms its timers.
    fn callback(
        &mut self,
        id: NodeId,
        round: u64,
        f: impl FnOnce(&mut P, &mut Context<P::Message>),
    ) {
        let outbox = std::mem::take(&mut self.outbox);
        let mut ctx = Context::reusing(id, round, false, outbox);
        f(&mut self.nodes[id.index()], &mut ctx);
        let (mut outbox, new_timers, _) = ctx.into_parts();
        for (delay, tag) in new_timers {
            self.timers.push((round + delay, id, tag));
        }
        let n = self.nodes.len();
        for (to, msg) in outbox.drain(..) {
            // Adjacency is checked at delivery; the id must be a node's
            // before then, for the grouping to place it.
            assert!(to.index() < n, "send to unknown node {to:?}");
            self.stats.record_send(msg.kind());
            self.pending.push((id, to, msg));
        }
        self.outbox = outbox;
    }

    /// Runs `on_start` on every node (round 0).
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            self.callback(NodeId(i as u32), 0, |node, ctx| node.on_start(ctx));
        }
    }

    /// Delivers one full round of messages (plus due timers). Returns
    /// `false`, doing nothing, when the network is quiescent or the round
    /// guard is reached. If only future timers remain, rounds skip forward
    /// to the earliest firing.
    pub fn round(&mut self) -> bool {
        self.start();
        if self.is_quiescent() || self.rounds >= self.max_rounds {
            return false;
        }
        self.rounds += 1;
        // Fast-forward across empty rounds to the next armed timer.
        if self.pending.is_empty() {
            let earliest = self
                .timers
                .iter()
                .map(|&(r, _, _)| r)
                .min()
                .expect("timers non-empty");
            self.rounds = self.rounds.max(earliest);
        }
        let round = self.rounds;

        let mut batch = std::mem::take(&mut self.pending);
        // The reference order is sender id, then send sequence (stable:
        // per-sender order is the FIFO property). Delivery groups it by
        // receiver, stable again, so each inbox keeps the reference order.
        let (k, n) = (batch.len(), self.nodes.len());
        self.sort.indices(&mut self.order, k, n, |i| batch[i].0.index());
        group::permute(&mut batch, &mut self.order);
        self.sort.indices(&mut self.order, k, n, |i| batch[i].1.index());
        group::permute(&mut batch, &mut self.order);
        for (from, to, msg) in batch {
            if self.topology.slot(to, from).is_none() {
                panic!("node {from:?} sent to non-neighbour {to:?}");
            }
            self.stats.delivered += 1;
            self.callback(to, round, |node, ctx| node.on_message(from, msg, ctx));
        }

        // Fire due timers (armed before this round), in (node, tag) order.
        let mut due: Vec<(u64, NodeId, u64)> = Vec::new();
        self.timers.retain(|&t| {
            if t.0 <= round {
                due.push(t);
                false
            } else {
                true
            }
        });
        due.sort();
        for (_, node, tag) in due {
            self.stats.timers_fired += 1;
            self.callback(node, round, |n, ctx| n.on_timer(tag, ctx));
        }
        true
    }

    /// Runs rounds until quiescence or the round guard trips.
    pub fn run(&mut self) -> SyncOutcome {
        while self.round() {}
        SyncOutcome {
            rounds: self.rounds,
            quiescent: self.is_quiescent(),
        }
    }

    /// `true` iff no message is in flight and no timer is armed.
    pub fn is_quiescent(&self) -> bool {
        self.pending.is_empty() && self.timers.is_empty()
    }

    /// Immutable access to node `i`'s state.
    pub fn node(&self, i: NodeId) -> &P {
        &self.nodes[i.index()]
    }

    /// Iterator over all node states.
    pub fn nodes(&self) -> impl Iterator<Item = &P> {
        self.nodes.iter()
    }

    /// Network statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Messages waiting to be delivered next round.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
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
    use owp_graph::generators;
    use owp_telemetry::MessageKind;

    /// Flooding protocol: node 0 floods a wave over a clique; each node
    /// forwards once.
    #[derive(Clone, Debug)]
    struct Wave;
    impl Payload for Wave {
        fn kind(&self) -> MessageKind {
            MessageKind::Prop
        }
    }

    struct FloodNode {
        id: NodeId,
        n: usize,
        forwarded: bool,
        heard_in_round: Option<u64>,
    }

    impl FloodNode {
        fn flood(&mut self, ctx: &mut Context<Wave>) {
            for j in 0..self.n {
                let j = NodeId(j as u32);
                if j != self.id {
                    ctx.send(j, Wave);
                }
            }
        }
    }

    impl Protocol for FloodNode {
        type Message = Wave;
        fn on_start(&mut self, ctx: &mut Context<Wave>) {
            if self.id == NodeId(0) {
                self.forwarded = true;
                self.flood(ctx);
            }
        }
        fn on_message(&mut self, _from: NodeId, _msg: Wave, ctx: &mut Context<Wave>) {
            if !self.forwarded {
                self.forwarded = true;
                self.heard_in_round = Some(ctx.now());
                self.flood(ctx);
            }
        }
        fn is_terminated(&self) -> bool {
            self.forwarded
        }
    }

    fn flood_nodes(n: usize) -> Vec<FloodNode> {
        (0..n)
            .map(|i| FloodNode {
                id: NodeId(i as u32),
                n,
                forwarded: false,
                heard_in_round: None,
            })
            .collect()
    }

    #[test]
    fn flood_completes_in_two_rounds() {
        let g = generators::complete(6);
        let mut r = SyncRunner::new(flood_nodes(6), &g);
        let out = r.run();
        assert!(out.quiescent);
        // Round 1 delivers node 0's wave; round 2 delivers the echoes.
        assert_eq!(out.rounds, 2);
        assert!(r.nodes().all(|n| n.forwarded));
        for node in r.nodes() {
            if node.id != NodeId(0) {
                assert_eq!(node.heard_in_round, Some(1));
            }
        }
        // 5 from node 0, then each of the other 5 nodes floods to 5 peers.
        assert_eq!(r.stats().sent, 30);
        assert_eq!(r.stats().delivered, 30);
        assert_eq!(r.stats().sent_of(MessageKind::Prop), 30);
        assert_eq!(r.pending_count(), 0);
        assert_eq!(r.terminated_fraction(), 1.0);
    }

    #[test]
    fn round_by_round_observation() {
        let g = generators::complete(6);
        let mut r = SyncRunner::new(flood_nodes(6), &g);
        r.start();
        assert_eq!(r.pending_count(), 5, "node 0's wave is in flight");
        assert!((r.terminated_fraction() - 1.0 / 6.0).abs() < 1e-12);
        assert!(r.round());
        assert_eq!(r.terminated_fraction(), 1.0);
        assert_eq!(r.pending_count(), 25, "echo wave in flight");
        assert!(r.round());
        assert!(!r.round(), "quiescent after the echoes land");
    }

    #[test]
    fn round_guard() {
        // Ping-pong forever between two nodes.
        struct PingPong {
            id: NodeId,
        }
        impl Protocol for PingPong {
            type Message = MessageKind;
            fn on_start(&mut self, ctx: &mut Context<MessageKind>) {
                if self.id == NodeId(0) {
                    ctx.send(NodeId(1), MessageKind::Prop);
                }
            }
            fn on_message(&mut self, from: NodeId, _: MessageKind, ctx: &mut Context<MessageKind>) {
                ctx.send(from, MessageKind::Prop);
            }
        }
        let nodes = vec![PingPong { id: NodeId(0) }, PingPong { id: NodeId(1) }];
        let g = generators::path(2);
        let mut r = SyncRunner::new(nodes, &g).with_max_rounds(10);
        let out = r.run();
        assert!(!out.quiescent);
        assert_eq!(out.rounds, 10);
    }

    /// Node 0 waits on a timer chain: arm t+3, fire, arm t+5, fire, done.
    struct TimerChain {
        fired_at: Vec<u64>,
    }
    impl Protocol for TimerChain {
        type Message = MessageKind;
        fn on_start(&mut self, ctx: &mut Context<MessageKind>) {
            ctx.set_timer(3, 1);
        }
        fn on_message(&mut self, _f: NodeId, _m: MessageKind, _c: &mut Context<MessageKind>) {}
        fn on_timer(&mut self, tag: u64, ctx: &mut Context<MessageKind>) {
            self.fired_at.push(ctx.now());
            if tag == 1 {
                ctx.set_timer(5, 2);
            }
        }
    }

    #[test]
    fn sync_timers_fire_across_empty_rounds() {
        let g = generators::path(1);
        let mut r = SyncRunner::new(vec![TimerChain { fired_at: vec![] }], &g);
        let out = r.run();
        assert!(out.quiescent);
        // First timer at round 3, second at round 3 + 5 = 8.
        assert_eq!(r.node(NodeId(0)).fired_at, vec![3, 8]);
        assert_eq!(r.stats().timers_fired, 2);
        assert_eq!(out.rounds, 8, "rounds fast-forward to timer firings");
    }

    #[test]
    fn idle_network_quiesces_immediately() {
        struct Quiet;
        impl Protocol for Quiet {
            type Message = MessageKind;
            fn on_start(&mut self, _ctx: &mut Context<MessageKind>) {}
            fn on_message(&mut self, _f: NodeId, _m: MessageKind, _c: &mut Context<MessageKind>) {}
        }
        let g = generators::path(2);
        let mut r = SyncRunner::new(vec![Quiet, Quiet], &g);
        let out = r.run();
        assert!(out.quiescent);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    #[should_panic(expected = "non-neighbour")]
    fn send_to_non_neighbour_panics() {
        // Leaf 1 of a star sends to leaf 2, which is not its neighbour.
        struct Leaf {
            id: NodeId,
        }
        impl Protocol for Leaf {
            type Message = MessageKind;
            fn on_start(&mut self, ctx: &mut Context<MessageKind>) {
                if self.id == NodeId(1) {
                    ctx.send(NodeId(2), MessageKind::Prop);
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: MessageKind, _c: &mut Context<MessageKind>) {}
        }
        let g = generators::star(3);
        SyncRunner::new((0..3).map(|i| Leaf { id: NodeId(i) }).collect(), &g).run();
    }

    /// A numbered message.
    #[derive(Clone, Debug, PartialEq)]
    struct Seq(u32);
    impl Payload for Seq {
        fn kind(&self) -> MessageKind {
            MessageKind::Prop
        }
    }

    /// A node that records its inbox, and whose sends and timers depend on
    /// the inbox so far, so any change in its order shows.
    #[derive(Clone, Debug, PartialEq)]
    struct Recorder {
        id: NodeId,
        neighbours: Vec<NodeId>,
        /// `(round, from, number)` of every delivery, in delivery order.
        inbox: Vec<(u64, NodeId, u32)>,
    }

    impl Recorder {
        fn next(&self, salt: usize) -> NodeId {
            self.neighbours[(self.id.index() * 7 + salt * 3) % self.neighbours.len()]
        }
    }

    impl Protocol for Recorder {
        type Message = Seq;
        fn on_start(&mut self, ctx: &mut Context<Seq>) {
            if self.id.0 % 3 != 1 {
                for (k, &to) in self.neighbours.iter().enumerate() {
                    ctx.send(to, Seq(k as u32 % 2));
                }
                // Two messages on one link in one callback.
                ctx.send(self.neighbours[0], Seq(2));
            }
        }
        fn on_message(&mut self, from: NodeId, msg: Seq, ctx: &mut Context<Seq>) {
            self.inbox.push((ctx.now(), from, msg.0));
            let salt = self.inbox.len();
            if msg.0 < 6 {
                ctx.send(self.next(salt), Seq(msg.0 + 1));
            }
            if salt.is_multiple_of(4) {
                ctx.send(from, Seq(msg.0 + 2));
            }
            if salt.is_multiple_of(5) {
                ctx.set_timer(1, u64::from(msg.0));
            }
        }
        fn on_timer(&mut self, tag: u64, ctx: &mut Context<Seq>) {
            // Timer sends join the next round after every delivery's, so
            // the round's batch is not in sender order.
            if tag < 6 {
                ctx.send(self.next(tag as usize), Seq(tag as u32 + 1));
            }
        }
    }

    /// The reference schedule's queues: messages `(from, to, msg)` for the
    /// next round and armed timers `(round, node, tag)`.
    #[derive(Default)]
    struct Reference {
        pending: Vec<(NodeId, NodeId, Seq)>,
        timers: Vec<(u64, NodeId, u64)>,
    }

    impl Reference {
        fn callback(
            &mut self,
            node: &mut Recorder,
            round: u64,
            f: impl FnOnce(&mut Recorder, &mut Context<Seq>),
        ) {
            let mut ctx = Context::detached(node.id, round);
            f(node, &mut ctx);
            let (from, (sent, armed, _)) = (node.id, ctx.into_parts());
            self.pending.extend(sent.into_iter().map(|(to, m)| (from, to, m)));
            self.timers.extend(armed.into_iter().map(|(delay, tag)| (round + delay, from, tag)));
        }

        /// Runs `nodes` delivering every round's batch by sender id, then
        /// send order, and the due timers after it in `(node, tag)` order.
        /// Returns the rounds run and the messages delivered.
        fn run(nodes: &mut [Recorder]) -> (u64, u64) {
            let mut q = Reference::default();
            for node in nodes.iter_mut() {
                q.callback(node, 0, |n, ctx| n.on_start(ctx));
            }
            let (mut round, mut delivered) = (0, 0);
            while !q.pending.is_empty() || !q.timers.is_empty() {
                round += 1;
                let mut batch = std::mem::take(&mut q.pending);
                batch.sort_by_key(|&(from, _, _)| from);
                for (from, to, msg) in batch {
                    delivered += 1;
                    let node = &mut nodes[to.index()];
                    q.callback(node, round, |n, ctx| n.on_message(from, msg, ctx));
                }
                let mut due: Vec<_> = q.timers.iter().copied().filter(|t| t.0 <= round).collect();
                q.timers.retain(|t| t.0 > round);
                due.sort();
                for (_, node, tag) in due {
                    q.callback(&mut nodes[node.index()], round, |n, ctx| n.on_timer(tag, ctx));
                }
            }
            (round, delivered)
        }
    }

    #[test]
    fn inboxes_match_the_sender_ordered_reference() {
        use rand::SeedableRng;
        let g = generators::watts_strogatz(50, 4, 0.3, &mut rand::rngs::StdRng::seed_from_u64(8));
        let nodes: Vec<Recorder> = g
            .nodes()
            .map(|id| Recorder { id, neighbours: g.neighbor_ids(id).collect(), inbox: Vec::new() })
            .collect();
        let mut reference = nodes.clone();
        let (rounds, delivered) = Reference::run(&mut reference);

        let mut r = SyncRunner::new(nodes, &g);
        let out = r.run();
        assert!(out.quiescent);
        assert_eq!((out.rounds, r.stats().delivered), (rounds, delivered));
        assert!(r.stats().timers_fired > 0, "timer sends are part of the batches");
        for (got, want) in r.nodes().zip(&reference) {
            assert_eq!(got.inbox, want.inbox, "node {:?}'s inbox", want.id);
        }
    }
}
