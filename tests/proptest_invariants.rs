//! Property-based tests over randomly generated instances: the core
//! invariants must hold for *arbitrary* graphs, preference permutations and
//! quota vectors, not just the seeds the unit tests picked.
//!
//! Implemented as plain seeded-RNG loops (the build environment has no
//! registry route, so proptest is unavailable): each property draws `CASES`
//! independent random instances from a deterministic stream and asserts the
//! invariant on every one. Failures print the derived instance seeds so a
//! shrunk repro can be pasted into a unit test.

use owp_core::run_lid;
use owp_graph::{GraphBuilder, NodeId, PreferenceTable, Quotas};
use owp_matching::lic::{lic, SelectionPolicy};
use owp_matching::numeric::Rational;
use owp_matching::satisfaction::{node_satisfaction, node_satisfaction_modified};
use owp_matching::{verify, Problem};
use owp_simnet::{LatencyModel, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

/// One random instance: a G(n, 0.4) graph with n ∈ [2, 24] nodes, uniform
/// random preference permutations and quotas drawn from `0..=b`, b ∈ [1, 4].
/// Returns the instance plus the seeds that reproduce it.
fn random_instance(meta: &mut StdRng) -> (Problem, u64, u64) {
    let n = meta.gen_range(2usize..24);
    let edge_seed: u64 = meta.gen_range(0..=u64::MAX);
    let b = meta.gen_range(0u32..5).max(1);
    let pref_seed: u64 = meta.gen_range(0..=u64::MAX);
    let mut rng = StdRng::seed_from_u64(edge_seed);
    let g = owp_graph::generators::erdos_renyi(n, 0.4, &mut rng);
    let mut prng = StdRng::seed_from_u64(pref_seed);
    let prefs = PreferenceTable::random(&g, &mut prng);
    let quotas = Quotas::random_range(&g, 0, b, &mut prng);
    (Problem::new(g, prefs, quotas), edge_seed, pref_seed)
}

#[test]
fn lic_output_is_valid_maximal_and_certified() {
    let mut meta = StdRng::seed_from_u64(0x11CA5E5);
    for case in 0..CASES {
        let (p, es, ps) = random_instance(&mut meta);
        let m = lic(&p, SelectionPolicy::InOrder);
        let ctx = format!("case {case} (edge_seed {es}, pref_seed {ps})");
        assert!(verify::check_valid(&p, &m).is_ok(), "{ctx}: invalid");
        assert!(verify::check_maximal(&p, &m).is_ok(), "{ctx}: not maximal");
        assert!(
            verify::check_greedy_certificate(&p, &m).is_ok(),
            "{ctx}: certificate failed"
        );
    }
}

#[test]
fn lic_is_confluent() {
    let mut meta = StdRng::seed_from_u64(0xC0FF1E);
    for case in 0..CASES {
        let (p, es, ps) = random_instance(&mut meta);
        let s1: u64 = meta.gen_range(0..=u64::MAX);
        let s2: u64 = meta.gen_range(0..=u64::MAX);
        let a = lic(&p, SelectionPolicy::Random(s1));
        let b = lic(&p, SelectionPolicy::Random(s2));
        assert!(
            a.same_edges(&b),
            "case {case} (edge_seed {es}, pref_seed {ps}): \
             selection order changed the matching"
        );
    }
}

#[test]
fn lid_equals_lic_under_random_latency() {
    let mut meta = StdRng::seed_from_u64(0x11D11D);
    for case in 0..CASES {
        let (p, es, ps) = random_instance(&mut meta);
        let seed: u64 = meta.gen_range(0..=u64::MAX);
        let c = lic(&p, SelectionPolicy::InOrder);
        let cfg = SimConfig::with_seed(seed).latency(LatencyModel::Uniform { lo: 1, hi: 64 });
        let d = run_lid(&p, cfg);
        let ctx = format!("case {case} (edge_seed {es}, pref_seed {ps}, sim_seed {seed})");
        assert!(d.terminated, "{ctx}: Lemma 5 violated");
        assert_eq!(d.asymmetric_locks, 0, "{ctx}: asymmetric lock");
        assert!(
            d.matching.same_edges(&c),
            "{ctx}: Theorem 3 premise violated"
        );
    }
}

#[test]
fn satisfaction_stays_in_unit_interval() {
    let mut meta = StdRng::seed_from_u64(0x5A715F);
    for case in 0..CASES {
        let (p, es, ps) = random_instance(&mut meta);
        let m = lic(&p, SelectionPolicy::InOrder);
        for i in p.nodes() {
            let s = node_satisfaction(&p.prefs, &p.quotas, i, m.connections(i));
            assert!(
                (0.0..=1.0 + 1e-12).contains(&s),
                "case {case} (edge_seed {es}, pref_seed {ps}): S_{i:?} = {s}"
            );
            let sm = node_satisfaction_modified(&p.prefs, &p.quotas, i, m.connections(i));
            assert!(
                sm <= s + 1e-12,
                "case {case} (edge_seed {es}, pref_seed {ps}): modified ≤ true satisfaction"
            );
        }
    }
}

#[test]
fn weights_are_positive_and_keys_strictly_ordered() {
    let mut meta = StdRng::seed_from_u64(0x3E16B7);
    for case in 0..CASES {
        let (p, es, ps) = random_instance(&mut meta);
        let g = &p.graph;
        let mut keys: Vec<_> = g.edges().map(|e| p.weights.key(g, e)).collect();
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            if p.quotas.get(u) > 0 && p.quotas.get(v) > 0 {
                assert!(
                    p.weights.get(e).is_positive(),
                    "case {case} (edge_seed {es}, pref_seed {ps}): w({e:?}) ≤ 0"
                );
            }
        }
        keys.sort();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "case {case} (edge_seed {es}, pref_seed {ps}): keys not strictly ordered"
        );
    }
}

#[test]
fn rational_arithmetic_laws() {
    let mut meta = StdRng::seed_from_u64(0x4A710);
    for _ in 0..4 * CASES {
        let a = meta.gen_range(-1000i64..1000) as i128;
        let b = meta.gen_range(1i64..1000) as i128;
        let c = meta.gen_range(-1000i64..1000) as i128;
        let d = meta.gen_range(1i64..1000) as i128;
        let x = Rational::new(a, b);
        let y = Rational::new(c, d);
        // Commutativity and exact f64 agreement on ordering (values are
        // small enough for f64 to be exact up to rounding ties).
        assert_eq!(x + y, y + x, "{a}/{b} + {c}/{d} not commutative");
        assert_eq!((x + y) - y, x, "({a}/{b} + {c}/{d}) - {c}/{d} ≠ {a}/{b}");
        let cmp_exact = x.cmp(&y);
        let diff = x.to_f64() - y.to_f64();
        if diff.abs() > 1e-9 {
            assert_eq!(
                cmp_exact == std::cmp::Ordering::Greater,
                diff > 0.0,
                "{a}/{b} vs {c}/{d}: exact and f64 orderings disagree"
            );
        }
    }
}

#[test]
fn graph_builder_handles_arbitrary_edge_lists() {
    let mut meta = StdRng::seed_from_u64(0x6B1DE5);
    for case in 0..CASES {
        let n = meta.gen_range(1usize..30);
        let edge_count = meta.gen_range(0usize..80);
        let edges: Vec<(u32, u32)> = (0..edge_count)
            .map(|_| (meta.gen_range(0u32..30), meta.gen_range(0u32..30)))
            .collect();
        let mut b = GraphBuilder::new(n);
        let mut expected = std::collections::BTreeSet::new();
        for &(u, v) in &edges {
            let (u, v) = (u % n as u32, v % n as u32);
            if u != v {
                b.add_edge(NodeId(u), NodeId(v));
                expected.insert((u.min(v), u.max(v)));
            }
        }
        let g = b.build();
        assert_eq!(g.edge_count(), expected.len(), "case {case}: {edges:?}");
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            assert!(expected.contains(&(u.0, v.0)), "case {case}: {edges:?}");
            assert_eq!(g.edge_between(u, v), Some(e), "case {case}: {edges:?}");
        }
        let handshake: usize = g.nodes().map(|i| g.degree(i)).sum();
        assert_eq!(handshake, 2 * g.edge_count(), "case {case}: {edges:?}");
    }
}

#[test]
fn churn_stays_certified_and_valid() {
    use owp_engine::{Engine, EngineEvent};
    let mut meta = StdRng::seed_from_u64(0xC4A92);
    for case in 0..CASES {
        let (p, es, ps) = random_instance(&mut meta);
        let leaver_count = meta.gen_range(1usize..5);
        let leavers: Vec<usize> = (0..leaver_count)
            .map(|_| meta.gen_range(0usize..24))
            .collect();
        let mut sim = Engine::new(p.clone());
        let ctx = format!("case {case} (edge_seed {es}, pref_seed {ps}, leavers {leavers:?})");
        for &l in &leavers {
            let i = NodeId((l % p.node_count()) as u32);
            if sim.dynamic().is_active(i) {
                sim.apply(EngineEvent::NodeLeave { node: i })
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            }
        }
        // Continuous certified repair: after any leave sequence the
        // matching is the exact locally-heaviest matching of the
        // survivors, and in particular valid under the original quotas.
        sim.certify().unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert!(
            verify::check_valid(&p, sim.matching()).is_ok(),
            "{ctx}: repaired matching invalid"
        );
        // Everyone returns: the full-instance canonical matching again.
        for i in p.nodes() {
            if !sim.dynamic().is_active(i) {
                sim.apply(EngineEvent::NodeJoin { node: i })
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            }
        }
        let reference = lic(&p, SelectionPolicy::InOrder);
        assert!(
            sim.matching().same_edges(&reference),
            "{ctx}: rejoin did not restore the canonical matching"
        );
    }
}
