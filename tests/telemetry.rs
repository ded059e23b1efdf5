//! Integration tests of the telemetry layer through the umbrella crate:
//! trace → replay round-trips, the convergence series' bit-for-bit endpoint
//! guarantee, and the zero-cost-when-disabled contract.

use overlays_preferences::prelude::*;
use owp_simnet::TelemetryEvent;

/// The transport trace is a complete causal record: feeding the delivered
/// messages back through fresh protocol state machines reproduces the exact
/// final matching, across latency models and seeds.
#[test]
fn trace_replay_reproduces_the_matching() {
    for seed in 0..5u64 {
        let p = Problem::random_gnp(40, 0.18, 3, seed);
        for latency in [
            LatencyModel::Constant { ticks: 1 },
            LatencyModel::Uniform { lo: 1, hi: 12 },
            LatencyModel::Exponential { mean: 7.0 },
        ] {
            let cfg = SimConfig::with_seed(seed).latency(latency);
            let r = run_lid(&p, cfg.clone().telemetry());
            assert!(r.terminated);

            // The trace agrees with the counters the run reported.
            assert_eq!(r.log.deliveries().count() as u64, r.stats.delivered);

            let replayed = replay_lid_trace(&p, &r.log).expect("live trace replays");
            assert!(
                replayed.same_edges(&r.matching),
                "seed {seed}: replay must reconstruct the matching exactly"
            );

            // And the traced run didn't change the outcome: a plain run on
            // the same config lands on the same matching and counters.
            let plain = run_lid(&p, cfg);
            assert!(plain.matching.same_edges(&r.matching));
            assert_eq!(plain.stats.sent, r.stats.sent);
        }
    }
}

/// The per-round series ends on exactly the values `MatchingReport`
/// computes — same summation sequence, so the floats are bit-for-bit equal.
#[test]
fn convergence_series_endpoint_matches_the_report() {
    let p = Problem::random_gnp(60, 0.12, 4, 11);
    let (r, series) = run_lid_sync_series(&p);
    assert!(r.terminated);
    let last = *series.last().expect("at least the round-0 sample");
    let report = MatchingReport::compute(&p, &r.matching);
    assert_eq!(last.matched_edges, r.matching.size());
    assert_eq!(last.total_weight.to_bits(), report.total_weight.to_bits());
    assert_eq!(
        last.satisfaction_total.to_bits(),
        report.satisfaction_total.to_bits()
    );
    assert_eq!(last.terminated_fraction, 1.0);
    assert_eq!(last.in_flight, 0);

    // The JSONL export round-trips the endpoint exactly (shortest-form f64).
    let jsonl = series.to_jsonl();
    let final_line = jsonl.lines().last().unwrap();
    let needle = format!("\"matched_edges\":{}", last.matched_edges);
    assert!(final_line.contains(&needle), "{final_line}");
}

/// Telemetry left off is free: the log stays unallocated and no events are
/// retained, while the simulation result is untouched.
#[test]
fn disabled_telemetry_is_free_and_inert() {
    let log = EventLog::disabled();
    assert!(!log.is_enabled());
    assert_eq!(log.len(), 0);
    assert_eq!(log.events_capacity(), 0, "disabled log must never allocate");

    let p = Problem::random_gnp(30, 0.2, 2, 3);
    // Default config: telemetry off.
    let r = run_lid(&p, SimConfig::with_seed(3));
    assert!(r.terminated);
    assert_eq!(r.log.events_capacity(), 0, "untraced run must not allocate a log");
    let traced = run_lid(&p, SimConfig::with_seed(3).telemetry());
    assert!(traced.matching.same_edges(&r.matching));
    assert!(traced.log.is_enabled());
    assert!(!traced.log.is_empty());
}

/// Typed message-kind counters agree with the trace's own tally.
#[test]
fn typed_counters_match_the_trace() {
    let p = Problem::random_gnp(25, 0.25, 3, 7);
    let r = run_lid(&p, SimConfig::with_seed(7).telemetry());
    assert!(r.terminated);
    let sent_in_trace = |kind: MessageKind| {
        r.log
            .events()
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::Sent { kind: k, .. } if *k == kind))
            .count() as u64
    };
    assert_eq!(r.stats.sent_of(MessageKind::Prop), sent_in_trace(MessageKind::Prop));
    assert_eq!(r.stats.sent_of(MessageKind::Rej), sent_in_trace(MessageKind::Rej));
    assert_eq!(
        r.stats.sent,
        r.stats.sent_of(MessageKind::Prop)
            + r.stats.sent_of(MessageKind::Rej)
            + r.stats.sent_of(MessageKind::Ack)
    );
}

/// Causal determinism: a causally-annotated trace round-trips through its
/// JSONL serialization, the replayed matching equals the live one, and the
/// reconstructed happens-before DAG is identical on both sides — same
/// spans, same parents, same critical path.
#[test]
fn causal_trace_round_trips_and_replays_deterministically() {
    for seed in 0..4u64 {
        let p = Problem::random_gnp(35, 0.2, 3, 40 + seed);
        let cfg = SimConfig::with_seed(seed).latency(LatencyModel::Uniform { lo: 1, hi: 15 });
        let r = run_lid(&p, cfg.telemetry());
        let log = &r.log;
        let dag = CausalDag::from_log(log);
        assert!(r.terminated);
        assert!(dag.is_certified(), "live trace must certify (Lemma 5)");

        // JSONL round-trip: every event, span ids and parents included, survives.
        let reparsed = EventLog::parse_jsonl(&log.to_jsonl()).expect("parses");
        assert_eq!(reparsed.events(), log.events());

        // Replay of the round-tripped trace reconstructs the same matching…
        let replayed = replay_lid_trace(&p, &reparsed).expect("round-tripped trace replays");
        assert!(replayed.same_edges(&r.matching), "seed {seed}");

        // …and the same DAG: span-for-span identical parents and outcomes,
        // hence the same critical path.
        let dag2 = CausalDag::from_log(&reparsed);
        assert_eq!(dag2.spans(), dag.spans(), "seed {seed}: DAG diverged");
        let (p1, p2) = (dag.critical_path(), dag2.critical_path());
        assert_eq!(p1.end_time, p2.end_time);
        assert_eq!(
            p1.hops.iter().map(|h| h.span).collect::<Vec<_>>(),
            p2.hops.iter().map(|h| h.span).collect::<Vec<_>>()
        );
    }
}

/// Traced runs also carry the per-node protocol transitions; the lock
/// events count both endpoints of every matched edge and every node
/// announces termination exactly once.
#[test]
fn node_events_mirror_the_matching() {
    let p = Problem::random_gnp(35, 0.2, 3, 13);
    let r = run_lid(&p, SimConfig::with_seed(13).telemetry());
    assert!(r.terminated);
    let count = |tag: &str| r.log.with_tag(tag).count();
    assert_eq!(count("edge_locked"), 2 * r.matching.size());
    assert_eq!(count("node_terminated"), p.node_count());
}
