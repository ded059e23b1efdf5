//! Reliable LID (Algorithm 1 under its retransmission layer) on the
//! asynchronous simulator: `Simulator::run`, which runs each tick's
//! callbacks grouped by node, must leave exactly what a loop of
//! `Simulator::step` leaves — event log, counters, outcome and every
//! node's state — under each latency model, with loss, duplication,
//! reordering, a healing partition and crash-restart. The reliable layer
//! arms a retransmission timer per proposal, so timers, restarts and
//! deliveries meet in the same ticks.

use overlays_preferences::prelude::*;
use owp_core::ReliableLidNode;
use owp_simnet::{FaultPlan, LatencyModel, NetStats, Protocol, RunOutcome, SimConfig, Simulator};

/// One node's observable state: locked partners, outstanding proposals,
/// termination and retransmission count.
type NodeState = (Vec<NodeId>, Vec<NodeId>, bool, u64);

fn run(
    p: &Problem,
    config: SimConfig,
    stepped: bool,
) -> (RunOutcome, NetStats, String, Vec<NodeState>) {
    let nodes = p
        .graph
        .nodes()
        .map(|id| ReliableLidNode::new(p, id, 6))
        .collect();
    let max = config.max_deliveries;
    let mut sim = Simulator::new(nodes, config, &p.graph);
    let outcome = if stepped {
        sim.start();
        while sim.stats().delivered + sim.stats().timers_fired < max && sim.step() {}
        RunOutcome {
            end_time: sim.now(),
            deliveries: sim.stats().delivered,
            quiescent: sim.in_flight() == 0,
        }
    } else {
        sim.run()
    };
    let states = sim
        .nodes()
        .map(|n| {
            let lid = n.inner();
            (
                lid.locked().collect(),
                lid.outstanding_proposals(),
                lid.is_terminated(),
                n.retransmissions(),
            )
        })
        .collect();
    (
        outcome,
        sim.stats().clone(),
        sim.take_telemetry().to_jsonl(),
        states,
    )
}

#[test]
fn reliable_lid_run_equals_stepping() {
    let p = Problem::random_gnp(40, 0.2, 2, 11);
    let plans = [
        ("loss", FaultPlan::with_drop_probability(0.15)),
        ("duplication", FaultPlan::none().duplicate(0.25)),
        ("reorder", FaultPlan::none().reorder(0.3)),
        (
            "partition",
            FaultPlan::none().partition((0..15).map(NodeId).collect(), 1, 20),
        ),
        (
            "crash-restart",
            FaultPlan::none()
                .crash(NodeId(2), 3)
                .restart(NodeId(2), 9)
                .crash(NodeId(5), 1)
                .restart(NodeId(5), 7)
                .crash(NodeId(8), 2),
        ),
    ];
    let latencies = [
        LatencyModel::unit(),
        LatencyModel::Uniform { lo: 1, hi: 3 },
        LatencyModel::Exponential { mean: 2.0 },
        LatencyModel::LogNormal {
            mu: 0.3,
            sigma: 0.6,
        },
    ];
    for latency in latencies {
        for (name, plan) in &plans {
            let config = SimConfig {
                max_deliveries: 20_000,
                ..SimConfig::with_seed(23)
                    .latency(latency.clone())
                    .faults(plan.clone())
                    .telemetry()
            };
            let want = run(&p, config.clone(), true);
            let got = run(&p, config, false);
            let what = format!("{latency:?} / {name}");
            assert!(
                want.1.delivered > 0 && want.1.timers_fired > 0,
                "{what}: timers fire"
            );
            assert_eq!(got.0, want.0, "{what}: outcome");
            assert_eq!(got.1, want.1, "{what}: stats");
            assert!(got.2 == want.2, "{what}: event logs differ");
            assert_eq!(got.3, want.3, "{what}: node states");
        }
    }
}
