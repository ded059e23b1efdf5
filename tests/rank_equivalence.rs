//! Equivalence certificate for the integer edge-rank kernel.
//!
//! The rank-based LIC worklist and the rank-based LID candidate lists must
//! be *bit-identical* in behaviour to the original exact-key formulation:
//! the kernel is a pure change of representation, so any divergence is a
//! bug. Over 200 random instances this asserts:
//!
//! 1. `EdgeOrder` ranks induce exactly the `EdgeKey` total order;
//! 2. rank-based [`lic`] selects the same edges as the key-based
//!    `lic_reference` (defined below) under all three selection policies;
//! 3. the LID runners (async and sync) agree with the key-based reference.

use owp_core::{run_lid, run_lid_sync};
use owp_graph::{EdgeId, NodeId, PreferenceTable, Quotas};
use owp_matching::lic::{lic, SelectionPolicy};
use owp_matching::{BMatching, Problem};
use owp_simnet::{LatencyModel, SimConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const INSTANCES: u64 = 200;

/// The original key-comparing LIC: per-node `Vec<Vec<EdgeId>>` incident
/// lists, each sorted by exact [`EdgeKey`](owp_matching::EdgeKey) at setup.
/// The independent oracle of the rank kernel: [`lic`] must produce an
/// identical matching.
fn lic_reference(problem: &Problem, policy: SelectionPolicy) -> BMatching {
    let g = &problem.graph;
    let w = &problem.weights;
    let n = g.node_count();

    let incident: Vec<Vec<EdgeId>> = g
        .nodes()
        .map(|i| {
            let mut edges: Vec<EdgeId> = g.neighbors(i).iter().map(|&(_, e)| e).collect();
            edges.sort_by_key(|&e| std::cmp::Reverse(w.key(g, e)));
            edges
        })
        .collect();
    let mut cursor = vec![0usize; n];
    let mut removed = vec![false; g.edge_count()];
    let mut counter: Vec<u32> = g.nodes().map(|i| problem.quotas.get(i)).collect();
    let mut matching = BMatching::empty(g);

    let top = |i: NodeId, cursor: &mut [usize], removed: &[bool]| -> Option<EdgeId> {
        let idx = i.index();
        while cursor[idx] < incident[idx].len() {
            let e = incident[idx][cursor[idx]];
            if removed[e.index()] {
                cursor[idx] += 1;
            } else {
                return Some(e);
            }
        }
        None
    };
    let saturate = |i: NodeId, removed: &mut [bool], queue: &mut Vec<NodeId>| {
        for &e in &incident[i.index()] {
            if !removed[e.index()] {
                removed[e.index()] = true;
                queue.push(g.other_endpoint(e, i));
            }
        }
    };

    let mut queue: Vec<NodeId> = match policy {
        SelectionPolicy::InOrder => (0..n as u32).map(NodeId).collect(),
        SelectionPolicy::Reverse => (0..n as u32).rev().map(NodeId).collect(),
        SelectionPolicy::Random(seed) => {
            let mut q: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
            q.shuffle(&mut StdRng::seed_from_u64(seed));
            q
        }
    };
    for (i, &c) in counter.iter().enumerate() {
        if c == 0 {
            saturate(NodeId(i as u32), &mut removed, &mut queue);
        }
    }

    while let Some(i) = queue.pop() {
        if let Some(e) = top(i, &mut cursor, &removed) {
            let j = g.other_endpoint(e, i);
            if top(j, &mut cursor, &removed) == Some(e) {
                let (a, b) = g.endpoints(e);
                matching.insert(problem, e);
                removed[e.index()] = true;
                for x in [a, b] {
                    counter[x.index()] -= 1;
                    if counter[x.index()] == 0 {
                        saturate(x, &mut removed, &mut queue);
                    }
                }
                queue.push(a);
                queue.push(b);
            }
        }
    }
    matching
}

/// Mixed instance pool: G(n, p) and Barabási–Albert topologies, random
/// preferences, heterogeneous quotas. Returns the instance and its seeds.
fn random_instance(meta: &mut StdRng) -> (Problem, String) {
    let n = meta.gen_range(2usize..40);
    let topo_seed: u64 = meta.gen_range(0..=u64::MAX);
    let pref_seed: u64 = meta.gen_range(0..=u64::MAX);
    let b = meta.gen_range(1u32..5);
    let ba = meta.gen_range(0u32..2) == 0 && n >= 3;
    let mut rng = StdRng::seed_from_u64(topo_seed);
    let g = if ba {
        owp_graph::generators::barabasi_albert(n, 2, &mut rng)
    } else {
        owp_graph::generators::erdos_renyi(n, 0.35, &mut rng)
    };
    let mut prng = StdRng::seed_from_u64(pref_seed);
    let prefs = PreferenceTable::random(&g, &mut prng);
    let quotas = Quotas::random_range(&g, 0, b, &mut prng);
    let ctx = format!("n={n} ba={ba} topo_seed={topo_seed} pref_seed={pref_seed} b={b}");
    (Problem::new(g, prefs, quotas), ctx)
}

#[test]
fn ranks_induce_exactly_the_key_order() {
    let mut meta = StdRng::seed_from_u64(0x0DE2);
    for case in 0..INSTANCES {
        let (p, ctx) = random_instance(&mut meta);
        let g = &p.graph;
        // Sorting by key descending must reproduce by-rank order exactly.
        let mut by_key: Vec<_> = g.edges().collect();
        by_key.sort_by_key(|&e| std::cmp::Reverse(p.weights.key(g, e)));
        assert_eq!(
            by_key,
            p.order.heaviest_first(),
            "case {case} ({ctx}): rank permutation ≠ key sort"
        );
        for (r, &e) in by_key.iter().enumerate() {
            assert_eq!(p.order.rank(e) as usize, r, "case {case} ({ctx})");
        }
    }
}

#[test]
fn lic_on_ranks_matches_lic_on_keys_all_policies() {
    let mut meta = StdRng::seed_from_u64(0xE001);
    for case in 0..INSTANCES {
        let (p, ctx) = random_instance(&mut meta);
        let shuffle_seed: u64 = meta.gen_range(0..=u64::MAX);
        for policy in [
            SelectionPolicy::InOrder,
            SelectionPolicy::Reverse,
            SelectionPolicy::Random(shuffle_seed),
        ] {
            let fast = lic(&p, policy);
            let reference = lic_reference(&p, policy);
            assert!(
                fast.same_edges(&reference),
                "case {case} ({ctx}, {policy:?}): rank LIC ≠ key LIC"
            );
        }
    }
}

#[test]
fn lid_runners_match_the_key_reference() {
    let mut meta = StdRng::seed_from_u64(0x11DE0);
    for case in 0..INSTANCES {
        let (p, ctx) = random_instance(&mut meta);
        let reference = lic_reference(&p, SelectionPolicy::InOrder);
        let sim_seed: u64 = meta.gen_range(0..=u64::MAX);
        let cfg =
            SimConfig::with_seed(sim_seed).latency(LatencyModel::Uniform { lo: 1, hi: 32 });
        let d = run_lid(&p, cfg);
        assert!(d.terminated, "case {case} ({ctx}): LID must terminate");
        assert!(
            d.matching.same_edges(&reference),
            "case {case} ({ctx}, sim_seed={sim_seed}): async LID ≠ key LIC"
        );
        let s = run_lid_sync(&p);
        assert!(
            s.matching.same_edges(&reference),
            "case {case} ({ctx}): sync LID ≠ key LIC"
        );
    }
}
