//! Integration: the full public pipeline, end to end — metrics → preference
//! lists → weights → LID → overlay → churn — plus instance serialization.

use overlays_preferences::prelude::*;
use owp_graph::io::{read_instance, write_instance, Instance};
use owp_matching::verify;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn full_pipeline_with_every_metric_kind() {
    let mut rng = StdRng::seed_from_u64(1);
    let n = 60;
    let g = owp_graph::generators::erdos_renyi(n, 0.2, &mut rng);

    let positions: Vec<(f64, f64)> = (0..n).map(|i| (i as f64 / n as f64, 0.5)).collect();
    let interests: Vec<Vec<f64>> = (0..n).map(|i| vec![(i % 5) as f64, 1.0]).collect();
    let capacity: Vec<f64> = (0..n).map(|i| (i * 7 % 13) as f64).collect();
    let mut history = TransactionHistory::new();
    history.record(NodeId(0), NodeId(1), 5.0);

    let sim = Arc::new(InterestSimilarity { interests });
    let cap = Arc::new(ResourceCapacity { capacity });

    let network = OverlayBuilder::new(g)
        .default_metric(RandomTaste { seed: 2 })
        .metric_for(NodeId(0), DistanceMetric { positions })
        .metric_for(NodeId(1), history)
        .metric_for(
            NodeId(2),
            Composite::new(vec![(0.5, sim as _), (0.5, cap as _)]),
        )
        .uniform_quota(3)
        .build();

    let overlay = network.run(SimConfig::with_seed(3).latency(LatencyModel::Uniform {
        lo: 1,
        hi: 30,
    }));
    assert!(overlay.lid.terminated);
    verify::check_valid(&network.problem, overlay.matching()).expect("valid");
    verify::check_maximal(&network.problem, overlay.matching()).expect("maximal");
    verify::check_greedy_certificate(&network.problem, overlay.matching())
        .expect("Lemma 4 certificate");

    // Per-node satisfaction is always within [0, 1].
    for s in &overlay.report.per_node {
        assert!((0.0..=1.0 + 1e-12).contains(s), "satisfaction {s} out of range");
    }

    // Churn round-trip on top of the built overlay: the engine repairs
    // within each call and stays bit-identical to a from-scratch run.
    let p = &network.problem;
    let mut churn = Engine::new(p.clone());
    churn.apply(EngineEvent::NodeLeave { node: NodeId(5) }).expect("leave 5");
    churn.apply(EngineEvent::NodeLeave { node: NodeId(6) }).expect("leave 6");
    churn.certify().expect("exact after leaves");
    churn.apply(EngineEvent::NodeJoin { node: NodeId(5) }).expect("rejoin 5");
    churn.apply(EngineEvent::NodeJoin { node: NodeId(6) }).expect("rejoin 6");
    churn.certify().expect("exact after rejoins");
    verify::check_valid(p, churn.matching()).expect("valid after churn");
    verify::check_maximal(p, churn.matching()).expect("maximal after churn");
}

#[test]
fn explicit_preferences_bypass_metrics() {
    let g = owp_graph::generators::complete(6);
    let prefs = PreferenceTable::by_node_id(&g);
    let network = OverlayBuilder::new(g)
        .preferences(prefs)
        .uniform_quota(2)
        .build();
    let overlay = network.run_sync();
    assert!(overlay.lid.terminated);
    assert!(overlay.lid.rounds > 0);
}

#[test]
fn instance_io_roundtrips_through_the_solver() {
    // Serialize a full instance, parse it back, and verify both copies
    // produce the same matching.
    let p1 = Problem::random_gnp(18, 0.35, 2, 9);
    let text = write_instance(&Instance {
        graph: p1.graph.clone(),
        preferences: Some(p1.prefs.clone()),
        quotas: Some(p1.quotas.clone()),
    });
    let inst = read_instance(&text).expect("parse");
    let p2 = Problem::new(
        inst.graph,
        inst.preferences.expect("prefs recorded"),
        inst.quotas.expect("quotas recorded"),
    );
    let m1 = lic(&p1, SelectionPolicy::InOrder);
    let m2 = lic(&p2, SelectionPolicy::InOrder);
    assert_eq!(m1.edge_ids(), m2.edge_ids());
}

#[test]
fn report_and_disclosure_are_printable_and_sane() {
    let g = owp_graph::generators::watts_strogatz(50, 6, 0.2, &mut StdRng::seed_from_u64(4));
    let network = OverlayBuilder::new(g)
        .default_metric(RandomTaste { seed: 6 })
        .uniform_quota(4)
        .build();
    let overlay = network.run(SimConfig::with_seed(5));
    assert!(overlay.lid.terminated);

    let d = DisclosureReport::compute(&network.problem);
    assert_eq!(d.scalars_disclosed, 2 * network.problem.edge_count() as u64);
    assert!(d.saving_factor() >= 1.0);

    // Overlay quality floor from Theorem 3 for b_max = 4.
    assert!((overlay.guaranteed_fraction - 0.25 * (1.0 + 0.25)).abs() < 1e-12);
}

#[test]
fn prelude_exposes_the_advertised_surface() {
    // Compile-time check that the prelude covers the README quickstart.
    let _p: fn(&Problem, SelectionPolicy) -> BMatching = lic;
    let _c = SimConfig::with_seed(0);
    let _f = FaultPlan::none();
    let _l = LatencyModel::unit();
}
