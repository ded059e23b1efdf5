//! `Simulator::run` against its one-event reference, `Simulator::step`.
//!
//! `run` takes each tick whole: it runs the tick's callbacks grouped by
//! node, then dispatches their output in schedule order. These tests hold
//! it to a loop of `step` byte for byte — the JSONL event log (node events
//! included), `NetStats`, the outcome (end time, deliveries, quiescence)
//! and every node's final state — under all four latency models and each
//! fault class: loss, duplication, reordering, a healing partition and
//! crash-restart with timers. The delivery guard is tripped inside busy
//! ticks, and a dense flood gives ticks that span several chunks.

use owp_graph::generators::{complete, watts_strogatz};
use owp_graph::{Graph, NodeId};
use owp_simnet::{
    Context, FaultPlan, LatencyModel, MessageKind, NetStats, NodeEvent, Payload, Protocol,
    RunOutcome, SimConfig, SimTime, Simulator,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A relayed note: who started it and how far it has travelled.
#[derive(Clone, Debug, PartialEq)]
struct Note {
    origin: u32,
    hops: u32,
}

impl Payload for Note {
    fn kind(&self) -> MessageKind {
        MessageKind::ALL[self.hops as usize % MessageKind::ALL.len()]
    }
}

/// A node whose sends depend on everything it has seen, in order: any
/// change in a node's inbox order, a timer's firing or a restart shows in
/// its state and in the traffic it makes.
#[derive(Clone, Debug, PartialEq)]
struct Relay {
    id: NodeId,
    neighbours: Vec<NodeId>,
    /// Notes are relayed while they have made fewer hops than this.
    max_hops: u32,
    /// `(time, from, note)` of every delivery, in delivery order.
    seen: Vec<(SimTime, NodeId, Note)>,
    /// `(time, tag)` of every timer firing.
    fired: Vec<(SimTime, u64)>,
    restarts: u32,
}

impl Relay {
    /// The neighbour picked by `salt`, deterministic in the node's history.
    fn pick(&self, salt: usize) -> NodeId {
        let h = (self.id.0 as usize)
            .wrapping_mul(2_654_435_761)
            .wrapping_add(salt.wrapping_mul(40_503));
        self.neighbours[h % self.neighbours.len()]
    }

    fn send(&self, to: NodeId, note: Note, ctx: &mut Context<Note>) {
        ctx.emit(NodeEvent::PropSent { to });
        ctx.send(to, note);
    }
}

impl Protocol for Relay {
    type Message = Note;

    fn on_start(&mut self, ctx: &mut Context<Note>) {
        let origin = self.id.0;
        for (k, &to) in self.neighbours.iter().enumerate() {
            if (origin as usize + k).is_multiple_of(2) {
                self.send(to, Note { origin, hops: 0 }, ctx);
            }
        }
        // Two notes on one link in one callback: the link's FIFO order.
        if let Some(&first) = self.neighbours.first() {
            self.send(first, Note { origin, hops: 1 }, ctx);
        }
        ctx.set_timer(3, 0);
    }

    fn on_message(&mut self, from: NodeId, note: Note, ctx: &mut Context<Note>) {
        self.seen.push((ctx.now(), from, note.clone()));
        let salt = self.seen.len();
        if note.hops < self.max_hops {
            for k in 0..2 {
                let next = Note {
                    origin: note.origin,
                    hops: note.hops + 1,
                };
                self.send(self.pick(salt * 2 + k), next, ctx);
            }
        }
        if salt.is_multiple_of(5) {
            ctx.set_timer(2, salt as u64);
        }
        if salt.is_multiple_of(7) {
            ctx.emit(NodeEvent::NodeTerminated);
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<Note>) {
        self.fired.push((ctx.now(), tag));
        if self.fired.len() < 3 {
            let to = self.pick(self.fired.len() + tag as usize);
            self.send(
                to,
                Note {
                    origin: self.id.0,
                    hops: self.max_hops,
                },
                ctx,
            );
            ctx.set_timer(4, tag + 1);
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<Note>) {
        self.restarts += 1;
        self.on_start(ctx);
    }
}

fn relays(g: &Graph, max_hops: u32) -> Vec<Relay> {
    g.nodes()
        .map(|id| Relay {
            id,
            neighbours: g.neighbor_ids(id).collect(),
            max_hops,
            seen: Vec::new(),
            fired: Vec::new(),
            restarts: 0,
        })
        .collect()
}

/// Everything a run leaves that anyone can observe.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: RunOutcome,
    stats: NetStats,
    jsonl: String,
    nodes: Vec<Relay>,
}

fn observe(mut sim: Simulator<'_, Relay>, outcome: RunOutcome) -> Observed {
    let jsonl = sim.take_telemetry().to_jsonl();
    let stats = sim.stats().clone();
    let nodes = sim.nodes().cloned().collect();
    Observed {
        outcome,
        stats,
        jsonl,
        nodes,
    }
}

/// The reference: a loop of `step` under the same delivery guard.
fn stepped(g: &Graph, max_hops: u32, config: SimConfig) -> Observed {
    let max = config.max_deliveries;
    let mut sim = Simulator::new(relays(g, max_hops), config, g);
    sim.start();
    while sim.stats().delivered + sim.stats().timers_fired < max && sim.step() {}
    let outcome = RunOutcome {
        end_time: sim.now(),
        deliveries: sim.stats().delivered,
        quiescent: sim.in_flight() == 0,
    };
    observe(sim, outcome)
}

fn grouped(g: &Graph, max_hops: u32, config: SimConfig) -> Observed {
    let mut sim = Simulator::new(relays(g, max_hops), config, g);
    let outcome = sim.run();
    observe(sim, outcome)
}

fn assert_run_equals_stepping(g: &Graph, max_hops: u32, config: SimConfig, what: &str) {
    let (want, got) = (
        stepped(g, max_hops, config.clone()),
        grouped(g, max_hops, config),
    );
    assert_eq!(got.outcome, want.outcome, "{what}: outcome");
    assert_eq!(got.stats, want.stats, "{what}: stats");
    assert!(got.jsonl == want.jsonl, "{what}: event logs differ");
    assert!(got.nodes == want.nodes, "{what}: node states differ");
    assert!(want.stats.delivered > 0, "{what}: the run delivers");
}

fn latencies() -> [LatencyModel; 4] {
    [
        LatencyModel::Constant { ticks: 2 },
        LatencyModel::Uniform { lo: 1, hi: 4 },
        LatencyModel::Exponential { mean: 2.0 },
        LatencyModel::LogNormal {
            mu: 0.4,
            sigma: 0.7,
        },
    ]
}

fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("reliable", FaultPlan::none()),
        ("loss", FaultPlan::with_drop_probability(0.2)),
        (
            "link loss",
            FaultPlan::none().link_loss(NodeId(0), NodeId(1), 0.7),
        ),
        ("duplication", FaultPlan::none().duplicate(0.3)),
        ("reorder", FaultPlan::none().reorder(0.4)),
        (
            "partition",
            FaultPlan::none().partition((0..20).map(NodeId).collect(), 2, 9),
        ),
        (
            // Crashes with messages and timers in flight. Node 3's restart
            // at 7 shares its tick with the timer it armed at 3, before
            // the crash: the restart comes first and kills it. Node 4's
            // timer due at 3 comes before its restart there, and fires.
            "crash-restart",
            FaultPlan::none()
                .crash(NodeId(3), 4)
                .restart(NodeId(3), 7)
                .crash(NodeId(4), 1)
                .restart(NodeId(4), 3)
                .crash(NodeId(9), 4),
        ),
        (
            "composed",
            FaultPlan::with_drop_probability(0.1)
                .duplicate(0.2)
                .reorder(0.2)
                .partition((0..10).map(NodeId).collect(), 3, 7)
                .crash(NodeId(5), 2)
                .restart(NodeId(5), 5),
        ),
    ]
}

fn topology() -> Graph {
    watts_strogatz(60, 6, 0.3, &mut StdRng::seed_from_u64(5))
}

#[test]
fn run_equals_stepping_under_every_latency_and_fault() {
    let g = topology();
    for (m, latency) in latencies().into_iter().enumerate() {
        for (name, plan) in plans() {
            let config = SimConfig::with_seed(17 + m as u64)
                .latency(latency.clone())
                .faults(plan)
                .telemetry();
            assert_run_equals_stepping(&g, 4, config, &format!("{latency:?} / {name}"));
        }
    }
}

#[test]
fn untraced_run_equals_stepping() {
    let g = topology();
    for latency in latencies() {
        let config = SimConfig::with_seed(3)
            .latency(latency.clone())
            .faults(plans().pop().unwrap().1);
        assert_run_equals_stepping(&g, 4, config, &format!("{latency:?} untraced"));
    }
}

#[test]
fn guard_tripping_inside_a_tick_stops_at_the_same_event() {
    let g = topology();
    // Unit latency makes every tick a large batch; each guard value lands
    // somewhere inside one, so `run` must stop mid-tick exactly where the
    // stepping loop does.
    for max_deliveries in [1, 2, 30, 77, 150, 333, 1000, 2500] {
        for latency in [LatencyModel::unit(), LatencyModel::Uniform { lo: 1, hi: 3 }] {
            let config = SimConfig {
                max_deliveries,
                ..SimConfig::with_seed(9)
                    .latency(latency.clone())
                    .faults(plans().pop().unwrap().1)
                    .telemetry()
            };
            let what = format!("{latency:?}, guard {max_deliveries}");
            let got = grouped(&g, 4, config.clone());
            assert!(!got.outcome.quiescent, "{what}: the guard trips");
            assert_run_equals_stepping(&g, 4, config, &what);
        }
    }
}

#[test]
fn ticks_spanning_several_chunks_match_stepping() {
    // Every node of a 100-clique notes half its neighbours at start: tick 1
    // holds about 5 000 deliveries, more than one chunk of 4 096, and each
    // relays twice into the next tick.
    let g = complete(100);
    for plan in [
        FaultPlan::none(),
        FaultPlan::with_drop_probability(0.1)
            .crash(NodeId(7), 1)
            .restart(NodeId(7), 2),
    ] {
        let config = SimConfig::with_seed(4).faults(plan).telemetry();
        assert_run_equals_stepping(&g, 1, config, "100-clique");
    }
}
