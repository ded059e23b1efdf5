//! Golden digest of the exact set-up: pins every edge's reduced eq. 9
//! weight and the whole heaviest-first permutation, bit for bit.
//!
//! One FNV-1a digest per instance covers each edge's reduced
//! `(numerator, denominator)` in edge-id order, then `heaviest_first()`.
//! A faster weight kernel, a different `Rational` code path or a different
//! sort must leave every constant unchanged. The workspace has one build
//! configuration, so each instance has exactly one constant.
//!
//! The last instance carries explicit weights whose numerators overflow
//! `i64`, so `EdgeOrder::compute` must take its exact wide-key path.

use owp_graph::generators::{barabasi_albert, complete, erdos_renyi, star};
use owp_graph::{Graph, GraphBuilder, NodeId, PreferenceTable, Quotas};
use owp_matching::{EdgeWeights, Problem, Rational};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u128) {
        for byte in x.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(p: &Problem) -> u64 {
    let mut h = Fnv::new();
    h.word(p.edge_count() as u128);
    for e in p.graph.edges() {
        let w = p.weights.get(e);
        h.word(w.numerator() as u128);
        h.word(w.denominator() as u128);
    }
    for e in p.order.heaviest_first() {
        h.word(e.0 as u128);
    }
    h.0
}

/// BA n=2000, m=3, uniform b=4.
fn ba() -> Problem {
    let mut rng = StdRng::seed_from_u64(19);
    let g = barabasi_albert(2000, 3, &mut rng);
    let prefs = PreferenceTable::random(&g, &mut rng);
    let quotas = Quotas::uniform(&g, 4);
    Problem::new(g, prefs, quotas)
}

/// G(n, p) on nodes 0..300 plus an isolated node 300, quotas drawn from
/// 0..=6 (so some nodes have b=0).
fn gnp_heterogeneous() -> Problem {
    let mut rng = StdRng::seed_from_u64(23);
    let base = erdos_renyi(300, 0.05, &mut rng);
    let mut b = GraphBuilder::new(301);
    for e in base.edges() {
        let (u, v) = base.endpoints(e);
        b.add_edge(u, v);
    }
    let g = b.build();
    let prefs = PreferenceTable::random(&g, &mut rng);
    let quotas = Quotas::random_range(&g, 0, 6, &mut rng);
    assert_eq!(g.degree(NodeId(300)), 0, "node 300 is isolated");
    assert!(
        g.nodes().any(|i| g.degree(i) > 0 && quotas.get(i) == 0),
        "some connected node has b=0"
    );
    Problem::new(g, prefs, quotas)
}

fn seeded(g: Graph, b: u32, seed: u64) -> Problem {
    Problem::random_over(g, b, seed)
}

/// Explicit weights around and past the `i64` range, with repeated values
/// so the endpoint tie-break decides part of the order.
fn wide_weights() -> Problem {
    let g = complete(10);
    let prefs = PreferenceTable::by_node_id(&g);
    let quotas = Quotas::uniform(&g, 3);
    let big = i64::MAX as i128;
    let raw: Vec<Rational> = g
        .edges()
        .map(|e| {
            let k = e.0 as i128;
            match k % 5 {
                0 => Rational::new(big * 3 + k, 7),
                1 => Rational::new(-(big + 1) - k, 3),
                2 => Rational::new(big, 1),
                3 => Rational::new(k + 1, 1 << 40),
                _ => Rational::new(1, 2),
            }
        })
        .collect();
    let p = Problem::with_weights(g, prefs, quotas, EdgeWeights::from_raw(raw));
    assert!(
        p.graph
            .edges()
            .any(|e| i64::try_from(p.weights.get(e).numerator()).is_err()),
        "some numerator is outside i64"
    );
    p
}

#[test]
fn setup_digests_are_pinned() {
    let cases: [(&str, Problem, u64); 5] = [
        ("ba n=2000 b=4", ba(), 0x2fd2_4e65_27c9_8d80),
        ("gnp heterogeneous quotas", gnp_heterogeneous(), 0xb518_11b4_ce07_b6c9),
        ("complete(12) b=3", seeded(complete(12), 3, 5), 0xeffd_f57d_d6db_f018),
        ("star(9) b=2", seeded(star(9), 2, 7), 0x96ab_8f1d_6690_796f),
        ("explicit weights past i64", wide_weights(), 0x7f66_d93a_987b_fb63),
    ];
    let mut failures = Vec::new();
    for (name, p, want) in &cases {
        let got = digest(p);
        if got != *want {
            failures.push(format!("{name}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(failures.is_empty(), "set-up output moved:\n{}", failures.join("\n"));
}
