//! Test-only oracle: Algorithm 1 over four `BTreeSet`s, exactly as the
//! state machine was written before [`LidNode`] moved to per-neighbour
//! flag bytes. The differential test below drives both with the same
//! seeded delivery sequences and demands identical behaviour after every
//! step, in the spirit of the key-based LIC oracle of
//! `tests/rank_equivalence.rs`.

use crate::lid::LidNode;
use owp_graph::NodeId;
use owp_matching::Problem;
use owp_simnet::{Context, MessageKind, NodeEvent, Protocol};
use std::collections::BTreeSet;

/// The set-based Algorithm 1 state machine (`U`, `P`, `A`, `K`).
struct SetLidNode {
    quota: u32,
    ranked: Vec<NodeId>,
    cursor: usize,
    u: BTreeSet<NodeId>,
    p: BTreeSet<NodeId>,
    a: BTreeSet<NodeId>,
    k: BTreeSet<NodeId>,
}

impl SetLidNode {
    fn new(problem: &Problem, id: NodeId) -> Self {
        let g = &problem.graph;
        let mut ranked: Vec<(owp_matching::EdgeRank, NodeId)> = g
            .neighbors(id)
            .iter()
            .map(|&(j, e)| (problem.order.rank(e), j))
            .collect();
        ranked.sort_unstable_by_key(|&(rank, _)| rank);
        SetLidNode {
            quota: problem.quotas.get(id),
            ranked: ranked.into_iter().map(|(_, j)| j).collect(),
            cursor: 0,
            u: g.neighbor_ids(id).collect(),
            p: BTreeSet::new(),
            a: BTreeSet::new(),
            k: BTreeSet::new(),
        }
    }

    fn top_ranked(&mut self) -> Option<NodeId> {
        while self.cursor < self.ranked.len() {
            let v = self.ranked[self.cursor];
            if self.u.contains(&v) && !self.p.contains(&v) {
                return Some(v);
            }
            self.cursor += 1;
        }
        None
    }

    fn lock_mutuals(&mut self, ctx: &mut Context<MessageKind>) {
        loop {
            let v = self
                .p
                .iter()
                .find(|v| !self.k.contains(v) && self.a.contains(v))
                .copied();
            let Some(v) = v else { break };
            self.u.remove(&v);
            self.a.remove(&v);
            self.k.insert(v);
            ctx.emit(NodeEvent::EdgeLocked { peer: v });
        }
    }

    fn finish_if_done(&mut self, ctx: &mut Context<MessageKind>) {
        if self.p.iter().all(|v| self.k.contains(v)) {
            for &v in &self.u {
                ctx.send(v, MessageKind::Rej);
                ctx.emit(NodeEvent::RejSent { to: v });
            }
            self.u.clear();
            ctx.emit(NodeEvent::NodeTerminated);
        }
    }

    fn locked(&self) -> Vec<NodeId> {
        self.k.iter().copied().collect()
    }

    fn is_locked(&self, v: NodeId) -> bool {
        self.k.contains(&v)
    }

    fn outstanding_proposals(&self) -> Vec<NodeId> {
        self.p
            .iter()
            .filter(|v| !self.k.contains(v))
            .copied()
            .collect()
    }

    fn reset(&mut self) {
        self.cursor = 0;
        self.u = self.ranked.iter().copied().collect();
        self.p.clear();
        self.a.clear();
        self.k.clear();
    }
}

impl Protocol for SetLidNode {
    type Message = MessageKind;

    fn on_start(&mut self, ctx: &mut Context<MessageKind>) {
        for _ in 0..self.quota {
            let Some(v) = self.top_ranked() else { break };
            self.p.insert(v);
            ctx.send(v, MessageKind::Prop);
            ctx.emit(NodeEvent::PropSent { to: v });
        }
        self.finish_if_done(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: MessageKind, ctx: &mut Context<MessageKind>) {
        if self.u.is_empty() {
            if msg == MessageKind::Prop && !self.k.contains(&from) {
                ctx.send(from, MessageKind::Rej);
                ctx.emit(NodeEvent::RejSent { to: from });
            }
            return;
        }
        match msg {
            MessageKind::Prop | MessageKind::Ack => {
                self.a.insert(from);
            }
            MessageKind::Rej => {
                debug_assert!(!self.k.contains(&from), "REJ from locked partner");
                self.u.remove(&from);
                self.a.remove(&from);
                if self.p.remove(&from) {
                    if let Some(v) = self.top_ranked() {
                        self.p.insert(v);
                        ctx.send(v, MessageKind::Prop);
                        ctx.emit(NodeEvent::PropSent { to: v });
                    }
                }
            }
        }
        self.lock_mutuals(ctx);
        self.finish_if_done(ctx);
    }

    fn is_terminated(&self) -> bool {
        self.u.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owp_graph::generators::{barabasi_albert, complete, star};
    use owp_graph::{PreferenceTable, Quotas};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One step of a driven sequence, applied identically to both nodes.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Start,
        Deliver(NodeId, MessageKind),
        /// Crash-restart recovery as `ReliableLidNode` performs it.
        ResetAndStart,
    }

    /// Everything a callback made observable: the sends and the emitted
    /// node events.
    fn run_step<N: Protocol<Message = MessageKind>>(
        node: &mut N,
        id: NodeId,
        step: Step,
        reset: impl FnOnce(&mut N),
    ) -> (Vec<(NodeId, MessageKind)>, Vec<NodeEvent>) {
        let mut ctx = Context::detached_recording(id, 0);
        match step {
            Step::Start => node.on_start(&mut ctx),
            Step::Deliver(from, msg) => node.on_message(from, msg, &mut ctx),
            Step::ResetAndStart => {
                reset(node);
                node.on_start(&mut ctx);
            }
        }
        (ctx.sent().to_vec(), ctx.emitted().to_vec())
    }

    fn assert_same(new: &LidNode, old: &SetLidNode, neighbours: &[NodeId], ctx: &str) {
        assert_eq!(
            new.is_terminated(),
            old.is_terminated(),
            "{ctx}: is_terminated"
        );
        assert_eq!(
            new.locked().collect::<Vec<_>>(),
            old.locked(),
            "{ctx}: locked"
        );
        assert_eq!(
            new.outstanding_proposals(),
            old.outstanding_proposals(),
            "{ctx}: outstanding_proposals"
        );
        for &v in neighbours {
            assert_eq!(
                new.is_locked(v),
                old.is_locked(v),
                "{ctx}: is_locked({v:?})"
            );
        }
    }

    fn problems() -> Vec<Problem> {
        let mut out = Vec::new();
        for seed in 0..12u64 {
            out.push(Problem::random_gnp(
                14,
                0.5,
                1 + (seed % 4) as u32,
                0xD1FF + seed,
            ));
        }
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        out.push(Problem::random_over(
            barabasi_albert(40, 4, &mut rng),
            3,
            0xD1FF,
        ));
        out.push(Problem::random_over(complete(9), 2, 0xD200));
        let g = star(7);
        let prefs = PreferenceTable::by_node_id(&g);
        let quotas = Quotas::from_vec(&g, vec![0, 1, 2, 1, 1, 3, 1]);
        out.push(Problem::new(g, prefs, quotas));
        out
    }

    /// Drives the flag-based node and the set-based oracle through seeded
    /// random delivery sequences — PROP/REJ/ACK from random neighbours,
    /// crash-restart resets and post-termination PROPs included — and
    /// asserts identical outboxes, node events and observable state after
    /// every step.
    #[test]
    fn flag_node_matches_the_set_oracle_step_for_step() {
        let mut steps_run = 0usize;
        let mut terminated_props = 0usize;
        let mut multi_locks = 0usize;
        let mut node_events = 0usize;
        for (pi, p) in problems().iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0x5E7 + pi as u64);
            for id in p.graph.nodes() {
                let neighbours: Vec<NodeId> = p.graph.neighbor_ids(id).collect();
                for trial in 0..6 {
                    let mut new = LidNode::new_for(p, id);
                    let mut old = SetLidNode::new(p, id);
                    let mut step = Step::Start;
                    for t in 0..40 {
                        let ctx =
                            format!("problem {pi}, node {id:?}, trial {trial}, step {t} {step:?}");
                        if let Step::Deliver(from, MessageKind::Prop) = step {
                            terminated_props +=
                                usize::from(old.is_terminated() && !old.is_locked(from));
                        }
                        let locked_before = old.k.len();
                        let got = run_step(&mut new, id, step, LidNode::reset);
                        let want = run_step(&mut old, id, step, SetLidNode::reset);
                        assert_eq!(got.0, want.0, "{ctx}: outbox");
                        assert_eq!(got.1, want.1, "{ctx}: node events");
                        node_events += got.1.len();
                        multi_locks += usize::from(old.k.len() > locked_before + 1);
                        assert_same(&new, &old, &neighbours, &ctx);
                        steps_run += 1;
                        if neighbours.is_empty() {
                            break;
                        }
                        step = match rng.gen_range(0..20) {
                            0 => Step::ResetAndStart,
                            // A restart without reset: the default
                            // `Protocol::on_restart` of plain LID re-runs
                            // `on_start` over the surviving state, which
                            // can leave several mutual proposals to lock
                            // at the next delivery.
                            1 => Step::Start,
                            _ => {
                                let from = neighbours[rng.gen_range(0..neighbours.len())];
                                let msg = match rng.gen_range(0..10) {
                                    0..=4 => MessageKind::Prop,
                                    5 => MessageKind::Ack,
                                    _ => MessageKind::Rej,
                                };
                                // A REJ from a locked partner is impossible
                                // for Algorithm 1 (both sides assert it).
                                if msg == MessageKind::Rej && old.is_locked(from) {
                                    Step::Deliver(from, MessageKind::Prop)
                                } else {
                                    Step::Deliver(from, msg)
                                }
                            }
                        };
                    }
                }
            }
        }
        assert!(steps_run > 10_000, "{steps_run} steps");
        assert!(
            terminated_props > 100,
            "post-termination PROPs exercised: {terminated_props}"
        );
        assert!(multi_locks > 0, "several locks in one delivery exercised");
        assert!(node_events > 0, "node events compared: {node_events}");
    }
}
