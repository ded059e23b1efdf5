//! Verification of matchings and of the paper's structural invariants.
//!
//! These checks are used three ways: as test oracles, as debug assertions in
//! the experiment harness, and as the E10 experiment itself (certifying on
//! random instances that LIC/LID outputs satisfy Lemmas 3, 4 and 6).

use crate::bmatching::BMatching;
use crate::problem::Problem;
use crate::weights::weight_matches_eq9;
use owp_graph::{EdgeId, NodeId};

/// Checks basic validity: internal consistency and quota feasibility.
pub fn check_valid(problem: &Problem, m: &BMatching) -> Result<(), String> {
    let g = &problem.graph;
    for i in g.nodes() {
        let c = m.degree(i);
        let b = problem.quotas.get(i) as usize;
        if c > b {
            return Err(format!("{i:?} has {c} connections, quota {b}"));
        }
        for &j in m.connections(i) {
            let Some(e) = g.edge_between(i, j) else {
                return Err(format!("connection ({i:?},{j:?}) is not a graph edge"));
            };
            if !m.contains(e) {
                return Err(format!(
                    "connection list of {i:?} mentions {j:?} but edge {e:?} is unselected"
                ));
            }
        }
    }
    // Edge set and connection lists agree in both directions.
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        let in_lists =
            m.connections(u).contains(&v) && m.connections(v).contains(&u);
        if m.contains(e) != in_lists {
            return Err(format!("edge {e:?} selection disagrees with connection lists"));
        }
    }
    Ok(())
}

/// Checks maximality: no unselected edge has free quota at *both* endpoints.
/// Every greedy/locally-heaviest matching must be maximal; maximality is also
/// the cheap half of the ½-approximation certificate.
pub fn check_maximal(problem: &Problem, m: &BMatching) -> Result<(), String> {
    let g = &problem.graph;
    for e in g.edges() {
        if m.contains(e) {
            continue;
        }
        let (u, v) = g.endpoints(e);
        let u_free = m.degree(u) < problem.quotas.get(u) as usize;
        let v_free = m.degree(v) < problem.quotas.get(v) as usize;
        if u_free && v_free {
            return Err(format!(
                "matching not maximal: edge {e:?} = ({u:?},{v:?}) has free quota at both ends"
            ));
        }
    }
    Ok(())
}

/// Checks the Lemma 4 certificate: for every unselected edge `e`, some
/// endpoint is saturated and *all* of its matched edges are heavier than `e`
/// (under the strict [`crate::weights::EdgeKey`] order).
///
/// This is the structural property from which the ½-approximation (Theorem 2)
/// follows, so certifying it on an output certifies the guarantee. It is
/// [`check_greedy_certificate_alive`] with every edge alive.
pub fn check_greedy_certificate(problem: &Problem, m: &BMatching) -> Result<(), String> {
    check_greedy_certificate_alive(problem, None, problem.quotas.as_slice(), m)
}

/// [`check_greedy_certificate`] over an *alive sub-instance* of a universe
/// problem, without materializing the sub-problem: only edges with
/// `alive[e] == true` exist (`None`: every edge), and `quota[i]` is the
/// caller's effective quota (the universe quota clamped to the alive degree
/// — exactly what projecting the sub-instance and re-clamping would
/// produce).
///
/// Verdicts match running [`check_greedy_certificate`] on the projected
/// sub-problem with inherited universe weights; violation messages carry
/// universe edge ids.
///
/// # Panics
/// Panics if `alive`/`quota` do not cover the universe graph.
pub fn check_greedy_certificate_alive(
    problem: &Problem,
    alive: Option<&[bool]>,
    quota: &[u32],
    m: &BMatching,
) -> Result<(), String> {
    let g = &problem.graph;
    let w = &problem.weights;
    assert!(alive.is_none_or(|a| a.len() == g.edge_count()), "alive mask/graph mismatch");
    assert_eq!(quota.len(), g.node_count(), "quota vector/graph mismatch");

    // Matched edge ids per node.
    let mut matched_at: Vec<Vec<EdgeId>> = vec![Vec::new(); g.node_count()];
    for e in m.edge_ids() {
        let (u, v) = g.endpoints(e);
        matched_at[u.index()].push(e);
        matched_at[v.index()].push(e);
    }

    for e in g.edges() {
        if alive.is_some_and(|a| !a[e.index()]) || m.contains(e) {
            continue;
        }
        let (u, v) = g.endpoints(e);
        let key_e = w.key(g, e);
        let witness = [u, v].into_iter().any(|x| {
            m.degree(x) == quota[x.index()] as usize
                && quota[x.index()] > 0
                && matched_at[x.index()]
                    .iter()
                    .all(|&f| w.key(g, f) > key_e)
        });
        if !witness {
            // A quota-0 endpoint also explains an unselected edge.
            if quota[u.index()] == 0 || quota[v.index()] == 0 {
                continue;
            }
            return Err(format!(
                "no Lemma-4 witness for unselected alive edge {e:?} = ({u:?},{v:?})"
            ));
        }
    }
    Ok(())
}

/// Replays a claimed LIC selection order and checks that each edge was
/// *locally heaviest* (eq. 3 over the eq. 13 pool) at its selection point —
/// the Lemma 3 property.
pub fn check_selection_order(problem: &Problem, order: &[EdgeId]) -> Result<(), String> {
    let g = &problem.graph;
    let w = &problem.weights;
    let mut removed = vec![false; g.edge_count()];
    let mut counter: Vec<u32> = g.nodes().map(|i| problem.quotas.get(i)).collect();

    // Zero-quota nodes discard their edges before anything happens.
    let saturate = |x: NodeId, removed: &mut Vec<bool>| {
        for &(_, e) in g.neighbors(x) {
            removed[e.index()] = true;
        }
    };
    for i in g.nodes() {
        if counter[i.index()] == 0 {
            saturate(i, &mut removed);
        }
    }

    for (step, &e) in order.iter().enumerate() {
        if removed[e.index()] {
            return Err(format!("step {step}: edge {e:?} was already out of the pool"));
        }
        let (a, b) = g.endpoints(e);
        for x in [a, b] {
            if counter[x.index()] == 0 {
                return Err(format!("step {step}: endpoint {x:?} has no quota left"));
            }
        }
        // Locally heaviest: heavier than every pool edge sharing an endpoint.
        let key_e = w.key(g, e);
        for x in [a, b] {
            for &(_, f) in g.neighbors(x) {
                if f != e && !removed[f.index()] && w.key(g, f) > key_e {
                    return Err(format!(
                        "step {step}: pool edge {f:?} at {x:?} is heavier than selected {e:?}"
                    ));
                }
            }
        }
        // Apply the selection.
        removed[e.index()] = true;
        for x in [a, b] {
            counter[x.index()] -= 1;
            if counter[x.index()] == 0 {
                saturate(x, &mut removed);
            }
        }
    }
    Ok(())
}

/// Checks that the stored weights match eq. 9 for every edge.
pub fn check_weights(problem: &Problem) -> Result<(), String> {
    for e in problem.graph.edges() {
        if !weight_matches_eq9(
            &problem.graph,
            &problem.prefs,
            &problem.quotas,
            &problem.weights,
            e,
        ) {
            return Err(format!("weight of {e:?} does not match eq. 9"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use owp_graph::generators::complete;
    use owp_graph::{PreferenceTable, Quotas};

    fn tiny() -> Problem {
        let g = complete(4);
        let prefs = PreferenceTable::by_node_id(&g);
        let quotas = Quotas::uniform(&g, 1);
        Problem::new(g, prefs, quotas)
    }

    #[test]
    fn empty_matching_is_valid_but_not_maximal() {
        let p = tiny();
        let m = BMatching::empty(&p.graph);
        assert!(check_valid(&p, &m).is_ok());
        assert!(check_maximal(&p, &m).is_err());
    }

    #[test]
    fn certificate_fails_for_bad_greedy() {
        // K4, b=1: match the two *lightest* disjoint edges; the heaviest edge
        // is unmatched and neither endpoint's matched edge outweighs it.
        let p = tiny();
        let order = crate::weights::edges_by_weight_desc(&p.graph, &p.weights);
        let heaviest = order[0];
        let (u, v) = p.graph.endpoints(heaviest);
        // The complementary perfect matching pairs u,v with the other two
        // nodes — find the two edges not touching `heaviest` jointly.
        let others: Vec<NodeId> = p.graph.nodes().filter(|&x| x != u && x != v).collect();
        let e1 = p.graph.edge_between(u, others[0]).unwrap();
        let e2 = p.graph.edge_between(v, others[1]).unwrap();
        let m = BMatching::from_edges(&p, [e1, e2]);
        assert!(check_valid(&p, &m).is_ok());
        assert!(check_maximal(&p, &m).is_ok());
        let r = check_greedy_certificate(&p, &m);
        assert!(r.is_err(), "heaviest edge unmatched must break the certificate");
    }

    #[test]
    fn selection_order_rejects_wrong_history() {
        let p = tiny();
        let order = crate::weights::edges_by_weight_desc(&p.graph, &p.weights);
        // Selecting the lightest edge first is never locally heaviest in K4.
        let bad = vec![*order.last().unwrap()];
        assert!(check_selection_order(&p, &bad).is_err());
        // Selecting the globally heaviest first is always fine.
        let good = vec![order[0]];
        assert!(check_selection_order(&p, &good).is_ok());
    }

    #[test]
    fn weights_check_passes() {
        assert!(check_weights(&tiny()).is_ok());
    }
}
