//! Integration tests of the metrics + audit layer through the umbrella
//! crate: real protocol runs and engine sequences certified clean by the
//! online auditor, deliberate corruption detected as structured violations,
//! and the `MetricsRecorder` cross-checked against the simulator's own
//! `NetStats`.

use overlays_preferences::owp_matching::weights::EdgeWeights;
use overlays_preferences::owp_matching::Rational;
use overlays_preferences::owp_metrics::InvariantKind;
use overlays_preferences::prelude::*;

/// A full asynchronous LID run audits clean: eq. 9 weights verify, the
/// final matching carries the Lemma 4 certificate, and the health gauges
/// land where Theorem 2 says they must (0 blocking edges, ratio in (0,1]).
#[test]
fn lid_runs_are_certified_clean() {
    let reg = MetricsRegistry::new();
    let mut auditor = Auditor::new(&reg);
    for seed in 0..4u64 {
        let p = Problem::random_gnp(60, 0.15, 3, seed);
        let r = run_lid(&p, SimConfig::with_seed(seed));
        assert!(r.terminated);
        assert_eq!(auditor.audit_weights(&p), 0);
        assert_eq!(auditor.audit_matching(&p, &r.matching), 0);
    }
    assert!(auditor.is_clean());
    assert_eq!(reg.counter("audit_violations_total").get(), 0);
    assert_eq!(reg.counter("audit_checks_total").get(), 8);
    assert_eq!(reg.gauge("audit_epsilon_blocking_edges").get(), 0.0);
    let ratio = reg.gauge("audit_satisfaction_ratio").get();
    assert!(ratio > 0.0 && ratio <= 1.0, "ratio {ratio}");
}

/// An engine absorbing churn batches stays certified: every `DeltaReport`
/// epoch advances, and after every batch the maintained matching equals
/// the canonical greedy matching over the alive edge set.
#[test]
fn engine_churn_is_certified_clean() {
    let reg = MetricsRegistry::new();
    let mut auditor = Auditor::new(&reg);
    let p = Problem::random_gnp(80, 0.1, 3, 7);
    let n = p.node_count() as u32;
    let mut engine = Engine::new(p);

    let batches: Vec<Vec<EngineEvent>> = vec![
        vec![
            EngineEvent::NodeLeave { node: NodeId(3) },
            EngineEvent::NodeLeave { node: NodeId(11) },
            EngineEvent::QuotaChange { node: NodeId(5), quota: 1 },
        ],
        vec![
            EngineEvent::NodeJoin { node: NodeId(3) },
            EngineEvent::QuotaChange { node: NodeId(5), quota: 5 },
            EngineEvent::NodeLeave { node: NodeId(n - 1) },
        ],
        vec![EngineEvent::NodeJoin { node: NodeId(11) }],
    ];
    for batch in &batches {
        let report = engine.apply_batch(batch).expect("valid batches");
        assert_eq!(auditor.observe_delta(&report), 0);
        assert_eq!(auditor.audit_engine(&engine), 0);
    }
    assert!(auditor.is_clean(), "{}", auditor.to_jsonl());
    // One delta observation + one engine audit per batch.
    assert_eq!(reg.counter("audit_checks_total").get(), 2 * batches.len() as u64);
    assert!(reg.gauge("audit_engine_matching_size").get() > 0.0);
    assert!(reg.gauge("audit_engine_satisfaction").get() > 0.0);
}

/// A divergent engine fails the engine audit: after a warm-up batch, an
/// alive unselected edge forced into the maintained matching
/// (`InjectedFault::PhantomEdge`) is not what the canonical greedy scan
/// selects, so every violation the pass adds is `EngineConsistency`
/// stamped with the engine's epoch.
#[test]
fn phantom_edge_fails_the_engine_audit() {
    let p = Problem::random_gnp(80, 0.1, 3, 7);
    let mut engine = Engine::new(p);
    engine
        .apply_batch(&[
            EngineEvent::NodeLeave { node: NodeId(3) },
            EngineEvent::QuotaChange { node: NodeId(5), quota: 1 },
        ])
        .expect("valid batch");
    let reg = MetricsRegistry::new();
    let mut auditor = Auditor::new(&reg);
    assert_eq!(auditor.audit_engine(&engine), 0, "clean before the fault");

    let edge = engine
        .dynamic()
        .graph()
        .edges()
        .find(|&e| engine.dynamic().is_alive(e) && !engine.matching().contains(e))
        .expect("an alive unselected edge");
    engine.inject_fault(InjectedFault::PhantomEdge { edge });
    let added = auditor.audit_engine(&engine);
    assert!(added > 0, "a phantom edge must diverge from the canonical greedy");
    assert_eq!(auditor.report().len(), added);
    let epoch = engine.epoch().0;
    for v in auditor.report() {
        assert_eq!(v.kind, InvariantKind::EngineConsistency, "{}", v.detail);
        assert_eq!(v.epoch, Some(epoch));
    }
    assert!(
        auditor.report().iter().any(|v| v.detail.starts_with(&format!("edge {}:", edge.0))),
        "{}",
        auditor.to_jsonl()
    );
}

/// Deliberate corruption: forcing an edge onto a saturated node yields
/// `QuotaFeasibility` (and usually `Mutuality`-clean but `LocallyHeaviest`
/// may also fire) — reported, never panicking, and serialized as JSONL.
#[test]
fn corrupted_matching_yields_structured_violations() {
    let p = Problem::random_gnp(50, 0.2, 2, 21);
    let mut m = lic(&p, SelectionPolicy::InOrder);
    let full = p
        .graph
        .nodes()
        .find(|&i| m.degree(i) == p.quotas.get(i) as usize && p.quotas.get(i) > 0)
        .expect("a saturated node");
    let extra = p
        .graph
        .neighbors(full)
        .iter()
        .map(|&(_, e)| e)
        .find(|&e| !m.contains(e))
        .expect("an unselected incident edge");
    m.insert_unchecked(&p.graph, extra);

    let reg = MetricsRegistry::new();
    let mut auditor = Auditor::new(&reg);
    let added = auditor.audit_matching(&p, &m);
    assert!(added > 0);
    assert!(auditor
        .report()
        .iter()
        .any(|v| v.kind == InvariantKind::QuotaFeasibility));
    assert_eq!(reg.counter("audit_violations_total").get(), added as u64);
    // Degraded mode: the dirty pass must not refresh the ratio gauges.
    assert_eq!(reg.gauge("audit_satisfaction_ratio").get(), 0.0);
    for line in auditor.to_jsonl().lines() {
        assert!(line.starts_with("{\"kind\":\""), "{line}");
    }
}

/// Deliberate corruption: a weight table that disagrees with eq. 9 is
/// caught by the symmetry audit.
#[test]
fn tampered_weights_yield_symmetry_violation() {
    let p = Problem::random_gnp(40, 0.2, 2, 22);
    let mut raw: Vec<Rational> = p.graph.edges().map(|e| p.weights.get(e)).collect();
    raw[0] = raw[0] + Rational::new(1, 3);
    let tampered = Problem::with_weights(
        p.graph.clone(),
        p.prefs.clone(),
        p.quotas.clone(),
        EdgeWeights::from_raw(raw),
    );
    let reg = MetricsRegistry::new();
    let mut auditor = Auditor::new(&reg);
    assert_eq!(auditor.audit_weights(&tampered), 1);
    assert_eq!(auditor.report()[0].kind, InvariantKind::WeightSymmetry);
    assert!(!auditor.is_clean());
}

/// Acceptance: a seeded LID run over an n = 5000 Barabási–Albert overlay
/// yields an acyclic happens-before DAG — the causal audit certifies it
/// clean and publishes the critical path through the
/// `lid_critical_path_len` / `lid_critical_path_latency` gauges.
#[test]
fn causal_certificate_at_scale_sets_the_gauges() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(5);
    let g = overlays_preferences::owp_graph::generators::barabasi_albert(5000, 4, &mut rng);
    let p = Problem::random_over(g, 3, 5);
    let cfg = SimConfig::with_seed(5).latency(LatencyModel::Uniform { lo: 1, hi: 20 });
    let r = run_lid(&p, cfg.telemetry());
    let dag = CausalDag::from_log(&r.log);
    assert!(r.terminated);
    assert_eq!(dag.len() as u64, r.stats.sent);

    let reg = MetricsRegistry::new();
    let mut auditor = Auditor::new(&reg);
    assert_eq!(auditor.audit_causal(&dag), 0, "{:?}", dag.verify());
    assert!(auditor.is_clean());

    let len = reg.gauge("lid_critical_path_len").get();
    let latency = reg.gauge("lid_critical_path_latency").get();
    assert!(len >= 1.0, "critical path must be non-empty, gauge = {len}");
    assert_eq!(len, dag.critical_path_len() as f64);
    assert_eq!(latency, dag.critical_path().total_latency() as f64);
    assert!(latency as u64 <= r.end_time);
}

/// An injected cycle in a tampered trace is detected as a structured
/// `CausalAcyclicity` auditor violation — never a panic — and the dirty
/// pass leaves the critical-path gauges in degraded mode.
#[test]
fn tampered_causal_trace_yields_cycle_violation() {
    let p = Problem::random_gnp(30, 0.25, 2, 77);
    let cfg = SimConfig::with_seed(77).latency(LatencyModel::Uniform { lo: 1, hi: 9 });
    let r = run_lid(&p, cfg.telemetry());
    let log = &r.log;
    let dag = CausalDag::from_log(log);
    assert!(r.terminated);
    assert!(dag.is_certified());

    // Tamper with the serialized trace: pick a root that caused at least
    // one child and rewrite its parent to that child, closing a 2-cycle.
    let (root, child) = dag
        .spans()
        .iter()
        .filter_map(|s| s.parent.map(|pid| (pid, s.span)))
        .find(|(pid, _)| dag.span(*pid).is_some_and(|ps| ps.parent.is_none()))
        .expect("a root span with a child");
    let doc = log.to_jsonl();
    let needle = format!("\"span\":{},\"parent\":null", root.0);
    let patched = format!("\"span\":{},\"parent\":{}", root.0, child.0);
    let tampered = doc.replacen(&needle, &patched, 1);
    assert_ne!(tampered, doc, "the root's sent line must exist");

    let bad_log = EventLog::parse_jsonl(&tampered).expect("tampered trace still parses");
    let bad_dag = CausalDag::from_log(&bad_log); // reconstruction never panics
    assert!(!bad_dag.is_certified());

    let reg = MetricsRegistry::new();
    let mut auditor = Auditor::new(&reg);
    let added = auditor.audit_causal(&bad_dag);
    assert!(added > 0);
    assert!(auditor
        .report()
        .iter()
        .all(|v| v.kind == InvariantKind::CausalAcyclicity));
    assert!(
        auditor.report().iter().any(|v| v.detail.contains("cycle_detected")),
        "{}",
        auditor.to_jsonl()
    );
    assert_eq!(reg.counter("audit_violations_total").get(), added as u64);
    // Degraded mode: no critical path published from an uncertified DAG.
    assert_eq!(reg.gauge("lid_critical_path_len").get(), 0.0);
    for line in auditor.to_jsonl().lines() {
        assert!(line.contains("\"kind\":\"causal_acyclicity\""), "{line}");
    }
}

/// The `MetricsRecorder`'s message counters are exactly the simulator's
/// `NetStats`, and send→deliver pairings fill the latency histogram with
/// one sample per delivery.
#[test]
fn recorder_counters_match_netstats() {
    for seed in [0u64, 9, 42] {
        let p = Problem::random_gnp(50, 0.15, 3, seed);
        let cfg = SimConfig::with_seed(seed)
            .latency(LatencyModel::Uniform { lo: 1, hi: 9 })
            .telemetry();
        let r = run_lid(&p, cfg);
        assert!(r.terminated);

        let reg = MetricsRegistry::new();
        let mut rec = MetricsRecorder::new(&reg);
        rec.consume(&r.log);

        assert_eq!(reg.counter("messages_sent_total").get(), r.stats.sent);
        assert_eq!(reg.counter("messages_delivered_total").get(), r.stats.delivered);
        assert_eq!(reg.counter("messages_dropped_total").get(), r.stats.dropped);
        assert_eq!(
            reg.counter("messages_dead_lettered_total").get(),
            r.stats.dead_lettered
        );
        let lat = reg.histogram("message_latency_ticks");
        assert_eq!(lat.count(), r.stats.delivered);
        assert!(lat.sum() >= lat.count(), "every delivery takes ≥ 1 tick");

        // The snapshot of this registry round-trips through both exporters.
        let snap = reg.snapshot();
        let json = MetricsSnapshot::parse_json(&snap.to_json()).expect("JSON round-trip");
        assert_eq!(json.to_json(), snap.to_json());
        let prom =
            MetricsSnapshot::parse_prometheus(&snap.to_prometheus()).expect("prom round-trip");
        assert_eq!(prom.to_prometheus(), snap.to_prometheus());
    }
}

/// `message_latency_ticks` holds exactly the latencies of the delivered
/// spans, under loss (a drop is decided at send time, so the lost message
/// is the newest on its link) and under reordering (a later send on a
/// link may arrive first). Several seeds, because some runs happen to
/// pair correctly by link order alone.
#[test]
fn recorder_latencies_are_the_delivered_span_latencies() {
    for (name, plan) in [
        ("loss 0.2", FaultPlan::with_drop_probability(0.2)),
        ("reorder 0.3", FaultPlan::none().reorder(0.3)),
    ] {
        for seed in 0..20u64 {
            let p = Problem::random_gnp(30, 0.3, 2, seed);
            let cfg = SimConfig::with_seed(seed)
                .latency(LatencyModel::Uniform { lo: 1, hi: 9 })
                .faults(plan.clone())
                .telemetry();
            let r = run_lid_reliable(&p, cfg, 20);

            let reg = MetricsRegistry::new();
            MetricsRecorder::new(&reg).consume(&r.log);
            let got = reg.histogram("message_latency_ticks");
            let want = reg.histogram("delivered_span_latency_ticks");
            for s in CausalDag::from_log(&r.log).spans() {
                if let Some(at) = s.delivered {
                    want.observe(at - s.sent);
                }
            }
            assert_eq!(want.count(), r.stats.delivered, "{name}, seed {seed}");
            assert_eq!(
                (got.count(), got.sum(), got.buckets()),
                (want.count(), want.sum(), want.buckets()),
                "{name}, seed {seed}"
            );
        }
    }
}
