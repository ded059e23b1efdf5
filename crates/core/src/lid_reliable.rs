//! Reliable LID — retransmission on top of Algorithm 1.
//!
//! Experiment E11 shows the paper's reliable-channel assumption is
//! load-bearing: with message loss, plain LID deadlocks (nodes wait forever
//! for lost replies) and locks can go asymmetric. This module is the
//! engineering answer the paper's conclusion gestures at: a thin
//! retransmission layer that restores both termination and the exact
//! LIC-equivalent result under any loss rate `< 1`.
//!
//! Mechanism — no sequence numbers are needed because LID's messages are
//! *idempotent* (`A`-inserts and `U`-removals are set operations):
//!
//! 1. **Retransmit outstanding proposals.** While `P \ K ≠ ∅`, resend every
//!    unanswered `PROP` each `interval` ticks. This defeats loss of our
//!    `PROP`, of the peer's answering `PROP`, and of answering `REJ`s (a
//!    terminated peer re-answers duplicates — Algorithm 1's post-termination
//!    reply already handles that).
//! 2. **Confirm on duplicate.** A `PROP` arriving from a partner we already
//!    *locked* means the peer never saw the `PROP` of ours that completed
//!    the handshake — answer with an `ACK` (a `Prop` for the receiver's
//!    state machine that is itself never answered). This repairs
//!    half-locked pairs without creating confirmation echo loops between
//!    two locked nodes.
//! 3. Timers stop re-arming once the node terminates, so the network still
//!    quiesces.

use crate::lid::{run_async, LidNode, LidResult};
use owp_graph::NodeId;
use owp_matching::Problem;
use owp_simnet::{Context, MessageKind, NodeEvent, Protocol, SimConfig, SimTime};

/// Default retransmission interval in ticks.
pub const DEFAULT_RETRY_INTERVAL: SimTime = 50;

/// Algorithm 1 wrapped in the retransmission layer.
pub struct ReliableLidNode {
    inner: LidNode,
    interval: SimTime,
    /// Retransmissions performed (for reporting).
    retransmissions: u64,
}

impl ReliableLidNode {
    /// Wraps a node with the given retransmission interval.
    pub fn new(problem: &Problem, id: NodeId, interval: SimTime) -> Self {
        ReliableLidNode {
            inner: LidNode::new_for(problem, id),
            interval,
            retransmissions: 0,
        }
    }

    /// The wrapped Algorithm 1 state machine.
    pub fn inner(&self) -> &LidNode {
        &self.inner
    }

    /// Retransmissions this node performed.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    fn arm(&self, ctx: &mut Context<MessageKind>) {
        if !self.inner.is_terminated() {
            ctx.set_timer(self.interval, 0);
        }
    }
}

impl Protocol for ReliableLidNode {
    type Message = MessageKind;

    fn on_start(&mut self, ctx: &mut Context<MessageKind>) {
        self.inner.on_start(ctx);
        self.arm(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: MessageKind, ctx: &mut Context<MessageKind>) {
        match msg {
            MessageKind::Prop if self.inner.is_locked(from) => {
                // The peer is still proposing although we consider the pair
                // locked: our handshake-completing PROP was lost. Confirm
                // with an ACK — never with a PROP, and the ACK itself is
                // never answered, so two mutually-locked nodes cannot echo
                // confirmations at each other forever.
                self.retransmissions += 1;
                ctx.send(from, MessageKind::Ack);
                ctx.emit(NodeEvent::Retransmit { to: from });
            }
            MessageKind::Ack if self.inner.is_locked(from) => {
                // Stale confirmation for an already-completed handshake.
            }
            MessageKind::Rej if self.inner.is_locked(from) => {
                // Only reachable under crash-restart faults: the peer lost
                // its side of the lock to amnesia and settled elsewhere.
                // Keep our side — the post-run asymmetric-lock audit reports
                // the half-locked pair instead of the state machine
                // asserting on an "impossible" message.
            }
            _ => self.inner.on_message(from, msg, ctx),
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<MessageKind>) {
        // Crash-restart recovery: the node reboots with amnesia. Reset the
        // wrapped state machine, re-enter Algorithm 1 from the top, and
        // re-arm retransmission. Locked ex-partners answer the re-proposals
        // with ACK (the duplicate-PROP branch above), peers that rejected us
        // before the crash re-reject (the post-termination reply), so the
        // node converges back to the LIC-equivalent outcome.
        self.inner.reset();
        self.inner.on_start(ctx);
        self.arm(ctx);
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Context<MessageKind>) {
        for v in self.inner.outstanding_proposals() {
            self.retransmissions += 1;
            ctx.send(v, MessageKind::Prop);
            ctx.emit(NodeEvent::Retransmit { to: v });
        }
        self.arm(ctx);
    }

    fn is_terminated(&self) -> bool {
        self.inner.is_terminated()
    }
}

fn build_nodes(problem: &Problem, interval: SimTime) -> Vec<ReliableLidNode> {
    problem
        .graph
        .nodes()
        .map(|i| ReliableLidNode::new(problem, i, interval))
        .collect()
}

/// Runs reliable LID on the asynchronous simulator. With any loss rate
/// below 1 the run terminates with the exact LIC-equivalent matching. With
/// `config.telemetry()` the result carries the run's event log (the chaos
/// campaign feeds it to the Lemma 5 causal-acyclicity certificate).
pub fn run_lid_reliable(problem: &Problem, config: SimConfig, interval: SimTime) -> LidResult {
    run_async(problem, build_nodes(problem, interval), config, ReliableLidNode::inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use owp_matching::lic::{lic, SelectionPolicy};
    use owp_matching::verify;
    use owp_simnet::{FaultPlan, LatencyModel};

    #[test]
    fn without_loss_behaves_like_plain_lid() {
        for seed in 0..8 {
            let p = Problem::random_gnp(25, 0.3, 3, seed);
            let r = run_lid_reliable(&p, SimConfig::with_seed(seed), 50);
            assert!(r.terminated);
            assert_eq!(r.asymmetric_locks, 0);
            let c = lic(&p, SelectionPolicy::InOrder);
            assert!(r.matching.same_edges(&c));
        }
    }

    #[test]
    fn survives_heavy_message_loss() {
        // 30% of ALL messages (including retransmissions) dropped: plain LID
        // deadlocks; reliable LID must terminate with the exact LIC result.
        for seed in 0..6 {
            let p = Problem::random_gnp(20, 0.3, 2, 40 + seed);
            let cfg = SimConfig::with_seed(seed)
                .latency(LatencyModel::Uniform { lo: 1, hi: 20 })
                .faults(FaultPlan::with_drop_probability(0.3));
            let r = run_lid_reliable(&p, cfg, 30);
            assert!(r.terminated, "seed {seed}: must terminate despite loss");
            assert_eq!(r.asymmetric_locks, 0, "seed {seed}: handshakes repaired");
            let c = lic(&p, SelectionPolicy::InOrder);
            assert!(
                r.matching.same_edges(&c),
                "seed {seed}: loss must not change the outcome"
            );
            verify::check_valid(&p, &r.matching).expect("valid");
        }
    }

    #[test]
    fn plain_lid_fails_where_reliable_succeeds() {
        // Demonstrate the contrast on one instance/seed where plain LID
        // provably hangs (non-terminated) under the same fault plan.
        let p = Problem::random_gnp(20, 0.3, 2, 9);
        let cfg = || {
            SimConfig::with_seed(9)
                .faults(FaultPlan::with_drop_probability(0.3))
        };
        let plain = crate::lid::run_lid(&p, cfg());
        let reliable = run_lid_reliable(&p, cfg(), 30);
        assert!(!plain.terminated, "plain LID should hang under this loss");
        assert!(reliable.terminated);
    }

    #[test]
    fn aggressive_retries_without_loss_terminate() {
        // Regression: a retry interval *shorter* than typical handshake
        // latency fires retransmissions even with zero loss; each duplicate
        // PROP earns an ACK. Before ACKs existed, two mutually-locked nodes
        // would echo confirmation PROPs at each other forever (no loss to
        // break the chain) and the network never quiesced.
        for seed in 0..6 {
            let p = Problem::random_gnp(48, 0.2, 3, 70 + seed);
            let cfg = SimConfig::with_seed(seed)
                .latency(LatencyModel::Uniform { lo: 1, hi: 20 });
            let r = run_lid_reliable(&p, cfg, 5); // retries long before replies
            assert!(r.terminated, "seed {seed}: echo chains must die out");
            assert_eq!(r.asymmetric_locks, 0);
            let c = lic(&p, SelectionPolicy::InOrder);
            assert!(r.matching.same_edges(&c), "seed {seed}");
        }
    }

    #[test]
    fn crash_restart_recovers_the_lic_matching() {
        // A node crashes mid-run and restarts with amnesia. The recovery
        // hook re-enters Algorithm 1: locked ex-partners re-confirm with
        // ACK, terminated peers re-reject, and the run converges back to
        // the exact LIC-equivalent matching with no asymmetric locks.
        for seed in 0..6 {
            let p = Problem::random_gnp(20, 0.3, 2, 100 + seed);
            let victim = NodeId((seed % 20) as u32);
            let cfg = SimConfig::with_seed(seed)
                .latency(LatencyModel::Uniform { lo: 1, hi: 10 })
                .faults(FaultPlan::none().crash(victim, 15).restart(victim, 120));
            let r = run_lid_reliable(&p, cfg, 30);
            assert!(r.terminated, "seed {seed}: must terminate despite restart");
            assert_eq!(r.asymmetric_locks, 0, "seed {seed}: locks re-confirmed");
            let c = lic(&p, SelectionPolicy::InOrder);
            assert!(
                r.matching.same_edges(&c),
                "seed {seed}: restart must not change the outcome"
            );
            verify::check_valid(&p, &r.matching).expect("valid");
        }
    }

    #[test]
    fn crash_restart_composed_with_loss_and_fifo_violation() {
        // The full chaos cocktail on one instance: loss, duplication,
        // reordering and a crash-restart together. Reliable LID still
        // terminates with the exact LIC matching (idempotent messages make
        // duplicates harmless; REJ permanence makes reordering harmless).
        for seed in 0..4 {
            let p = Problem::random_gnp(16, 0.35, 2, 130 + seed);
            let victim = NodeId((seed % 16) as u32);
            let plan = FaultPlan::with_drop_probability(0.15)
                .duplicate(0.2)
                .reorder(0.3)
                .crash(victim, 20)
                .restart(victim, 150);
            let cfg = SimConfig::with_seed(seed)
                .latency(LatencyModel::Uniform { lo: 1, hi: 10 })
                .faults(plan);
            let r = run_lid_reliable(&p, cfg, 25);
            assert!(r.terminated, "seed {seed}");
            assert_eq!(r.asymmetric_locks, 0, "seed {seed}");
            let c = lic(&p, SelectionPolicy::InOrder);
            assert!(r.matching.same_edges(&c), "seed {seed}");
        }
    }

    #[test]
    fn traced_run_certifies_causal_acyclicity_under_chaos() {
        use owp_telemetry::CausalDag;
        let p = Problem::random_gnp(14, 0.3, 2, 140);
        let plan = FaultPlan::with_drop_probability(0.2)
            .reorder(0.3)
            .crash(NodeId(3), 10)
            .restart(NodeId(3), 80);
        let cfg = SimConfig::with_seed(7)
            .latency(LatencyModel::Uniform { lo: 1, hi: 8 })
            .faults(plan);
        let r = run_lid_reliable(&p, cfg.telemetry(), 20);
        assert!(r.terminated);
        let dag = CausalDag::from_log(&r.log);
        assert!(dag.is_certified(), "Lemma 5 certificate survives chaos");
        assert_eq!(r.log.with_tag("restarted").count(), 1);
    }

    #[test]
    fn retransmissions_are_counted_and_bounded_without_loss() {
        // Without loss and unit latency, everything resolves before the
        // first retry fires when the interval is generous.
        let p = Problem::random_gnp(20, 0.3, 2, 3);
        let r = run_lid_reliable(&p, SimConfig::with_seed(3), 10_000);
        assert!(r.terminated);
        // No retransmission message kinds beyond plain LID's counts: equal
        // PROP counts to a plain run.
        let plain = crate::lid::run_lid(&p, SimConfig::with_seed(3));
        assert_eq!(
            r.stats.sent_of(MessageKind::Prop),
            plain.stats.sent_of(MessageKind::Prop)
        );
    }
}
