//! Integration: Lemma 5 — LID terminates for every node — exercised across
//! topologies, latency regimes and degenerate instances, plus the message-
//! complexity envelope.

use owp_core::{run_lid, run_lid_sync};
use owp_graph::generators::{complete, path, random_regular, ring, star};
use owp_graph::{GraphBuilder, PreferenceTable, Quotas};
use owp_matching::stable::acyclic::rps_gadget;
use owp_matching::Problem;
use owp_simnet::{LatencyModel, MessageKind, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_terminates(p: &Problem, label: &str) {
    for (k, latency) in [
        LatencyModel::unit(),
        LatencyModel::Uniform { lo: 1, hi: 1000 },
        LatencyModel::Exponential { mean: 100.0 },
        LatencyModel::LogNormal { mu: 3.0, sigma: 1.5 },
    ]
    .into_iter()
    .enumerate()
    {
        let r = run_lid(p, SimConfig::with_seed(31 * k as u64 + 1).latency(latency));
        assert!(r.terminated, "{label}: no termination under latency #{k}");
        assert_eq!(r.asymmetric_locks, 0, "{label}");
    }
}

#[test]
fn terminates_on_cyclic_preference_gadget() {
    // The RPS gadget has NO stable matching and better-response dynamics
    // cycle forever — but LID terminates regardless, because eq. 9's
    // symmetric weights admit no communication cycle (Lemma 5).
    let p = rps_gadget();
    assert_terminates(&p, "rps");
    let r = run_lid(&p, SimConfig::with_seed(1));
    assert_eq!(r.matching.size(), 1, "LID picks exactly one edge of K3");
}

#[test]
fn terminates_on_degenerate_instances() {
    // Empty graph.
    let g = GraphBuilder::new(0).build();
    let p = Problem::new(g, PreferenceTable::from_lists(&GraphBuilder::new(0).build(), vec![]).unwrap(), Quotas::uniform(&GraphBuilder::new(0).build(), 2));
    let r = run_lid(&p, SimConfig::with_seed(1));
    assert!(r.terminated);

    // Isolated nodes only.
    let g = GraphBuilder::new(6).build();
    let prefs = PreferenceTable::by_node_id(&g);
    let quotas = Quotas::uniform(&g, 3);
    let p = Problem::new(g, prefs, quotas);
    let r = run_lid(&p, SimConfig::with_seed(2));
    assert!(r.terminated);
    assert_eq!(r.stats.sent, 0);

    // All quotas zero.
    let g = complete(5);
    let prefs = PreferenceTable::by_node_id(&g);
    let quotas = Quotas::from_vec(&g, vec![0; 5]);
    let p = Problem::new(g, prefs, quotas);
    let r = run_lid(&p, SimConfig::with_seed(3));
    assert!(r.terminated);
    assert_eq!(r.matching.size(), 0);
}

#[test]
fn terminates_on_classic_topologies() {
    let mut rng = StdRng::seed_from_u64(9);
    for (name, g) in [
        ("path", path(30)),
        ("ring", ring(30)),
        ("star", star(30)),
        ("complete", complete(16)),
        ("regular", random_regular(30, 4, &mut rng)),
    ] {
        for b in [1, 2, 5] {
            let p = Problem::random_over(g.clone(), b, b as u64 * 7 + 3);
            assert_terminates(&p, &format!("{name} b={b}"));
        }
    }
}

#[test]
fn message_complexity_at_most_two_per_edge_direction() {
    // Structural bound: each node sends ≤ 1 PROP per neighbour and ≤ 2 REJ
    // per neighbour (termination broadcast + crossing-PROP reply), so
    // total ≤ 6m; in practice far less. Assert the hard envelope and that
    // PROP ≤ 2m exactly.
    for seed in 0..6 {
        let p = Problem::random_gnp(60, 0.15, 4, seed);
        let m = p.edge_count() as u64;
        let r = run_lid(&p, SimConfig::with_seed(seed));
        assert!(r.terminated);
        assert!(r.stats.sent_of(MessageKind::Prop) <= 2 * m, "PROP count exceeds 2m");
        assert!(r.stats.sent <= 6 * m, "total {} > 6m = {}", r.stats.sent, 6 * m);
    }
}

#[test]
fn end_time_scales_with_latency_not_topology_size_alone() {
    // Constant latency c: end time is c × (longest PROP/REJ chain). The
    // chain shortens as quota rises (fewer rejections ripple); just assert
    // end time grows linearly in c for fixed instance.
    let p = Problem::random_gnp(40, 0.2, 2, 77);
    let t1 = run_lid(&p, SimConfig::with_seed(1).latency(LatencyModel::Constant { ticks: 1 }));
    let t5 = run_lid(&p, SimConfig::with_seed(1).latency(LatencyModel::Constant { ticks: 5 }));
    assert!(t1.terminated && t5.terminated);
    assert_eq!(t5.end_time, 5 * t1.end_time, "constant-latency scaling");
    assert!(t1.matching.same_edges(&t5.matching));
}

/// LID's synchronous round count has no constant or logarithmic bound:
/// on a path with b = 1 it is linear in n. With every node preferring its
/// higher-id neighbour, every eq. 9 weight but the last edge's ties, the
/// identity tie-break orders the edges along the path, and each lock
/// frees the next proposal: n − 1 rounds. Lower-id-first lists
/// (`PreferenceTable::by_node_id`) take n − 3.
#[test]
fn sync_rounds_on_a_path_are_linear_in_n() {
    for (n, higher_first_rounds, by_id_rounds) in [(10, 9, 7), (100, 99, 97)] {
        let g = path(n);
        let descending = g
            .nodes()
            .map(|i| {
                let mut list: Vec<_> = g.neighbor_ids(i).collect();
                list.sort_unstable_by(|a, b| b.cmp(a));
                list
            })
            .collect();
        let higher_first = PreferenceTable::from_lists(&g, descending).expect("valid lists");
        for (prefs, rounds, label) in [
            (higher_first, higher_first_rounds, "higher-id first"),
            (PreferenceTable::by_node_id(&g), by_id_rounds, "by_node_id"),
        ] {
            let p = Problem::new(g.clone(), prefs, Quotas::uniform(&g, 1));
            let r = run_lid_sync(&p);
            assert!(r.terminated, "path({n}), {label}");
            assert_eq!(r.rounds, rounds, "path({n}), {label}");
        }
    }
}
