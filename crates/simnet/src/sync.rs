//! Synchronous-round execution of a [`Protocol`].
//!
//! In round `r`, every message sent during round `r − 1` is delivered (in a
//! deterministic order: by sender id, then send order). This is the classic
//! LOCAL/CONGEST-style round model; the experiment suite uses it to report
//! *round complexity*, which is latency-model-free.

use crate::protocol::{Context, Payload, Protocol};
use crate::stats::NetStats;
use crate::NodeId;

/// Outcome of a synchronous run.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SyncOutcome {
    /// Number of rounds executed (round 0 = `on_start`).
    pub rounds: u64,
    /// `true` iff no messages or timers were pending when the run stopped.
    pub quiescent: bool,
}

/// Synchronous-round engine. Nodes are driven in lock-step rounds.
pub struct SyncRunner<P: Protocol> {
    nodes: Vec<P>,
    /// Messages to deliver next round: `(from, to, msg)`.
    pending: Vec<(NodeId, NodeId, P::Message)>,
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

impl<P: Protocol> SyncRunner<P> {
    /// Creates a runner over `nodes` (node `i` gets id `i`).
    pub fn new(nodes: Vec<P>) -> Self {
        SyncRunner {
            nodes,
            pending: Vec::new(),
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
            assert!(to.index() < n, "send to unknown node {to:?}");
            assert!(to != id, "node {id:?} sent a message to itself");
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
        // Deterministic delivery order: sender id, then send sequence (stable
        // sort keeps per-sender order — the FIFO property).
        batch.sort_by_key(|&(from, _, _)| from);
        for (from, to, msg) in batch {
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
        let mut r = SyncRunner::new(flood_nodes(6));
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
        let mut r = SyncRunner::new(flood_nodes(6));
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
        let mut r = SyncRunner::new(nodes).with_max_rounds(10);
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
        let mut r = SyncRunner::new(vec![TimerChain { fired_at: vec![] }]);
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
        let mut r = SyncRunner::new(vec![Quiet, Quiet]);
        let out = r.run();
        assert!(out.quiescent);
        assert_eq!(out.rounds, 0);
    }
}
