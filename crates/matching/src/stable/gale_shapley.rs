//! Gale–Shapley deferred acceptance for bipartite b-matching (college
//! admissions) — reference \[4\] of the paper.
//!
//! On a bipartite instance (proposer side / acceptor side), deferred
//! acceptance always finds a *stable* b-matching: proposers walk down their
//! preference lists; acceptors hold their best `b` proposals so far and
//! bounce the rest. The result is proposer-optimal among stable matchings.
//!
//! The paper's setting is the *roommates* generalization where stability can
//! be unattainable; this classical algorithm is the experiment suite's
//! "stability is easy here" reference point on bipartite instances.

use crate::bmatching::BMatching;
use crate::flow::two_color;
use crate::problem::Problem;
use owp_graph::NodeId;

/// Runs deferred acceptance with side-0 nodes (per [`two_color`]) proposing.
/// Returns `None` if the graph is not bipartite.
///
/// Quotas are respected on both sides: a proposer proposes while it holds
/// fewer than `b` acceptances and has list left; an acceptor keeps its best
/// `b` proposers (by its own preference list) and rejects the rest.
pub fn gale_shapley(problem: &Problem) -> Option<BMatching> {
    let g = &problem.graph;
    let side = two_color(g)?;

    // Per proposer: next list position to propose to.
    let n = g.node_count();
    let mut next = vec![0usize; n];
    // Per acceptor: currently held proposers.
    let mut held: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    // Per proposer: current number of held acceptances.
    let mut accepted = vec![0u32; n];

    let rank = |x: NodeId, y: NodeId| problem.prefs.rank(x, y).expect("neighbour");

    // Work stack of proposers that may still want to propose.
    let mut stack: Vec<NodeId> = g
        .nodes()
        .filter(|&i| side[i.index()] == 0 && problem.quotas.get(i) > 0)
        .collect();

    while let Some(p) = stack.pop() {
        loop {
            if accepted[p.index()] >= problem.quotas.get(p) {
                break;
            }
            let list = problem.prefs.list(p);
            let Some(&a) = list.get(next[p.index()]) else {
                break;
            };
            next[p.index()] += 1;

            let b_a = problem.quotas.get(a) as usize;
            if b_a == 0 {
                continue;
            }
            if held[a.index()].len() < b_a {
                held[a.index()].push(p);
                accepted[p.index()] += 1;
            } else {
                // Find the acceptor's worst held proposer.
                let (worst_pos, &worst) = held[a.index()]
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &q)| rank(a, q))
                    .expect("held non-empty");
                if rank(a, p) < rank(a, worst) {
                    held[a.index()][worst_pos] = p;
                    accepted[p.index()] += 1;
                    accepted[worst.index()] -= 1;
                    // The bounced proposer resumes proposing.
                    stack.push(worst);
                }
                // Else: rejected outright; continue down the list.
            }
        }
    }

    let mut edges = Vec::new();
    for a in g.nodes() {
        for &p in &held[a.index()] {
            edges.push(g.edge_between(p, a).expect("held pair is an edge"));
        }
    }
    Some(BMatching::from_edges(problem, edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::blocking::is_stable;
    use crate::verify;
    use owp_graph::generators::{complete, complete_bipartite, random_bipartite};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn always_stable_on_bipartite_instances() {
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_bipartite(10, 12, 0.4, &mut rng);
            for b in [1u32, 2, 3] {
                let p = Problem::random_over(g.clone(), b, seed * 7 + b as u64);
                let m = gale_shapley(&p).expect("bipartite");
                verify::check_valid(&p, &m).expect("valid");
                assert!(
                    is_stable(&p, &m),
                    "seed {seed} b={b}: deferred acceptance must be stable"
                );
            }
        }
    }

    #[test]
    fn non_bipartite_returns_none() {
        let p = Problem::random_over(complete(5), 1, 1);
        assert!(gale_shapley(&p).is_none());
    }

    #[test]
    fn saturates_when_capacity_allows() {
        // K_{3,3} with b = 3 on both sides: everyone gets everyone.
        let p = Problem::random_over(complete_bipartite(3, 3), 3, 9);
        let m = gale_shapley(&p).expect("bipartite");
        assert_eq!(m.size(), 9);
    }

    #[test]
    fn b1_on_k22_matches_both_pairs() {
        let p = Problem::random_over(complete_bipartite(2, 2), 1, 4);
        let m = gale_shapley(&p).expect("bipartite");
        assert_eq!(m.size(), 2, "a perfect matching exists and stability finds one");
        assert!(is_stable(&p, &m));
    }

    #[test]
    fn proposer_optimality_weakly_beats_acceptor_view() {
        // Classic sanity: the proposer side's mean rank of partners is at
        // least as good as under the reversed proposal direction. We emulate
        // the reversal by relabelling sides via an id shift (left part gets
        // the high ids) and comparing per-node ranks.
        let mut rng = StdRng::seed_from_u64(77);
        let g = random_bipartite(8, 8, 0.5, &mut rng);
        let p = Problem::random_over(g, 2, 3);
        let m = gale_shapley(&p).expect("bipartite");
        // Proposers are side 0 = ids 0..8 (random_bipartite construction).
        let mut total_rank = 0u64;
        let mut count = 0u64;
        for i in 0..8u32 {
            let i = NodeId(i);
            for &j in m.connections(i) {
                total_rank += p.prefs.rank(i, j).unwrap() as u64;
                count += 1;
            }
        }
        if count > 0 {
            let mean_rank = total_rank as f64 / count as f64;
            let mean_list = 0.5
                * (0..8u32)
                    .map(|i| p.prefs.list_len(NodeId(i)) as f64 - 1.0)
                    .sum::<f64>()
                / 8.0;
            assert!(
                mean_rank <= mean_list + 1e-9,
                "proposers should do no worse than the middle of their lists"
            );
        }
    }
}
