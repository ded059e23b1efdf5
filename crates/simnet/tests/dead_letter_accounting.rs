//! Dead-letter and drop accounting under fault injection.
//!
//! `NetStats` keeps three loss-related counters — `dropped` (random loss
//! from `FaultPlan::drop_probability`), `dead_lettered` (destination had
//! crashed) and `delivered` — and the telemetry stream carries one typed
//! event per outcome. These tests pin the two views to each other and to
//! the conservation law `sent = delivered + dropped + dead_lettered` once
//! the network has drained.

use owp_graph::generators::{complete, path};
use owp_graph::{Graph, NodeId};
use owp_simnet::{Context, FaultPlan, MessageKind, Protocol, SimConfig, Simulator, TelemetryEvent};

/// Chatter node: on start, sends `volleys` PROPs to every other node;
/// echoes nothing back, so total traffic is exactly `n · (n − 1) · volleys`.
struct Chatter {
    id: NodeId,
    n: u32,
    volleys: u32,
    received: u32,
}

impl Protocol for Chatter {
    type Message = MessageKind;

    fn on_start(&mut self, ctx: &mut Context<MessageKind>) {
        for _ in 0..self.volleys {
            for peer in 0..self.n {
                if peer != self.id.0 {
                    ctx.send(NodeId(peer), MessageKind::Prop);
                }
            }
        }
    }

    fn on_message(&mut self, _from: NodeId, _msg: MessageKind, _ctx: &mut Context<MessageKind>) {
        self.received += 1;
    }

    fn is_terminated(&self) -> bool {
        true
    }
}

/// Runs `Chatter` over `g`, which must be complete: every node pings all
/// the others.
fn run(g: &Graph, volleys: u32, faults: FaultPlan, seed: u64) -> Simulator<'_, Chatter> {
    let n = g.node_count() as u32;
    let nodes = (0..n)
        .map(|i| Chatter { id: NodeId(i), n, volleys, received: 0 })
        .collect();
    let config = SimConfig::with_seed(seed).faults(faults).telemetry();
    let mut sim = Simulator::new(nodes, config, g);
    sim.start();
    sim.run();
    sim
}

fn count(sim: &Simulator<'_, Chatter>, tag: &str) -> u64 {
    sim.telemetry().with_tag(tag).count() as u64
}

#[test]
fn dead_letters_match_crashed_destinations() {
    // Nodes 1 and 3 are dead from t=0: every ping aimed at them must be
    // dead-lettered, everything else must be delivered.
    let n = 6u64;
    let volleys = 4u64;
    let faults = FaultPlan::none().crash(NodeId(1), 0).crash(NodeId(3), 0);
    let g = complete(n as usize);
    let sim = run(&g, volleys as u32, faults, 7);
    let stats = sim.stats();

    let senders = n - 2; // crashed nodes crash before on_start fires
    assert_eq!(stats.sent, senders * (n - 1) * volleys);
    // Each live sender aims `volleys` pings at each of the 2 dead nodes.
    assert_eq!(stats.dead_lettered, senders * 2 * volleys);
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.delivered, stats.sent - stats.dead_lettered);

    // The telemetry stream tells the same story, event for event…
    assert_eq!(count(&sim, "sent"), stats.sent);
    assert_eq!(count(&sim, "delivered"), stats.delivered);
    assert_eq!(count(&sim, "dead_lettered"), stats.dead_lettered);
    // …and every dead letter names a crashed destination.
    for ev in sim.telemetry().with_tag("dead_lettered") {
        let TelemetryEvent::DeadLettered { to, kind, .. } = ev else {
            panic!("tag filter returned a non-dead-letter event");
        };
        assert!(matches!(to, NodeId(1) | NodeId(3)), "dead letter to live node {to:?}");
        assert_eq!(*kind, MessageKind::Prop);
    }
}

#[test]
fn random_drops_and_dead_letters_conserve_messages() {
    // Both fault classes at once: lossy links plus one crashed node. The
    // partition into delivered/dropped/dead-lettered must be exact, and the
    // per-class counters must equal their telemetry event counts.
    let faults = FaultPlan::with_drop_probability(0.35).crash(NodeId(2), 0);
    let g = complete(8);
    let sim = run(&g, 3, faults, 42);
    let stats = sim.stats();

    assert_eq!(sim.in_flight(), 0, "network must drain");
    assert_eq!(stats.sent, stats.delivered + stats.dropped + stats.dead_lettered);
    assert!(stats.dropped > 0, "p=0.35 over {} sends must drop something", stats.sent);
    assert!(stats.dead_lettered > 0);

    assert_eq!(count(&sim, "sent"), stats.sent);
    assert_eq!(count(&sim, "delivered"), stats.delivered);
    assert_eq!(count(&sim, "dropped"), stats.dropped);
    assert_eq!(count(&sim, "dead_lettered"), stats.dead_lettered);

    // A message to the crashed node either drops in transit or dead-letters
    // on arrival — it is never delivered.
    for ev in sim.telemetry().deliveries() {
        let TelemetryEvent::Delivered { to, .. } = ev else { unreachable!() };
        assert_ne!(*to, NodeId(2), "delivery to a node that crashed at t=0");
    }
}

#[test]
fn late_crash_splits_the_timeline() {
    // One sender, one receiver that crashes mid-run: deliveries before the
    // crash time, dead letters from then on.
    let crash_at = 3;
    let faults = FaultPlan::none().crash(NodeId(1), crash_at);
    let nodes = vec![
        Chatter { id: NodeId(0), n: 2, volleys: 12, received: 0 },
        Chatter { id: NodeId(1), n: 2, volleys: 0, received: 0 },
    ];
    let g = path(2);
    let mut sim = Simulator::new(nodes, SimConfig::with_seed(9).faults(faults).telemetry(), &g);
    sim.start();
    sim.run();
    let stats = sim.stats();

    assert_eq!(stats.sent, 12);
    assert_eq!(stats.delivered + stats.dead_lettered, 12);
    for ev in sim.telemetry().events() {
        match *ev {
            TelemetryEvent::Delivered { time, .. } => assert!(time < crash_at),
            TelemetryEvent::DeadLettered { time, .. } => assert!(time >= crash_at),
            _ => {}
        }
    }
}

#[test]
fn no_faults_means_no_losses() {
    let g = complete(5);
    let sim = run(&g, 2, FaultPlan::none(), 3);
    let stats = sim.stats();
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.dead_lettered, 0);
    assert_eq!(stats.delivered, stats.sent);
    assert_eq!(stats.sent_of(MessageKind::Prop), stats.sent);
    assert_eq!(count(&sim, "dead_lettered"), 0);
}
