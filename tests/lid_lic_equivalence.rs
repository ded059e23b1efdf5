//! Integration: LID (distributed, asynchronous) and LIC (centralized) select
//! identical edge sets — the premise of Theorem 3 (via Lemmas 4 and 6) —
//! across topologies, quotas, latency models and selection policies.

use owp_graph::generators::{barabasi_albert, complete, grid, ring, watts_strogatz};
use owp_graph::{PreferenceTable, Quotas};
use owp_matching::baselines::global_greedy;
use owp_matching::lic::{lic, SelectionPolicy};
use owp_matching::Problem;
use owp_core::run_lid;
use owp_simnet::{LatencyModel, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn check_equivalence(p: &Problem, label: &str) {
    let reference = lic(p, SelectionPolicy::InOrder);

    // LIC confluence across policies.
    for policy in [
        SelectionPolicy::Reverse,
        SelectionPolicy::Random(1),
        SelectionPolicy::Random(99),
    ] {
        assert!(
            lic(p, policy).same_edges(&reference),
            "{label}: LIC policy {policy:?} diverged"
        );
    }

    // Global greedy is one valid locally-heaviest order.
    assert!(
        global_greedy(p).same_edges(&reference),
        "{label}: global greedy diverged"
    );

    // Distributed LID under several latency regimes.
    for (k, latency) in [
        LatencyModel::unit(),
        LatencyModel::Uniform { lo: 1, hi: 200 },
        LatencyModel::Exponential { mean: 40.0 },
    ]
    .into_iter()
    .enumerate()
    {
        let r = run_lid(p, SimConfig::with_seed(7 + k as u64).latency(latency));
        assert!(r.terminated, "{label}: LID failed to terminate");
        assert_eq!(r.asymmetric_locks, 0, "{label}: asymmetric locks");
        assert!(
            r.matching.same_edges(&reference),
            "{label}: LID diverged from LIC under latency #{k}"
        );
    }
}

#[test]
fn equivalence_on_random_gnp() {
    for seed in 0..12 {
        for b in [1, 2, 4] {
            let p = Problem::random_gnp(28, 0.25, b, seed);
            check_equivalence(&p, &format!("gnp seed={seed} b={b}"));
        }
    }
}

#[test]
fn equivalence_on_structured_topologies() {
    let mut rng = StdRng::seed_from_u64(5);
    let graphs: Vec<(&str, owp_graph::Graph)> = vec![
        ("ring", ring(24)),
        ("grid", grid(5, 6)),
        ("complete", complete(12)),
        ("ba", barabasi_albert(40, 3, &mut rng)),
        ("ws", watts_strogatz(40, 4, 0.3, &mut rng)),
    ];
    for (name, g) in graphs {
        for b in [1, 2, 3] {
            let p = Problem::random_over(g.clone(), b, 11 + b as u64);
            check_equivalence(&p, &format!("{name} b={b}"));
        }
    }
}

#[test]
fn equivalence_with_heterogeneous_quotas() {
    for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = owp_graph::generators::erdos_renyi(30, 0.3, &mut rng);
        let prefs = PreferenceTable::random(&g, &mut rng);
        let quotas = Quotas::random_range(&g, 0, 5, &mut rng);
        let p = Problem::new(g, prefs, quotas);
        check_equivalence(&p, &format!("hetero seed={seed}"));
    }
}

#[test]
fn selection_histories_are_valid_lemma3_witnesses() {
    use owp_matching::lic::lic_with_order;
    use owp_matching::verify::check_selection_order;
    for seed in 0..10 {
        let p = Problem::random_gnp(22, 0.3, 3, 40 + seed);
        for policy in [SelectionPolicy::InOrder, SelectionPolicy::Random(seed)] {
            let (_, order) = lic_with_order(&p, policy);
            check_selection_order(&p, &order).expect("locally heaviest at each step");
        }
    }
}
