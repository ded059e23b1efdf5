//! Phase 1 of Irving & Scott's stable fixtures algorithm — reference \[7\],
//! the generalized stable roommates setting the paper's problem lives in.
//!
//! Every agent proposes down its preference list until `b_x` of its
//! proposals are provisionally *held*; an agent holds at most `b_y` incoming
//! proposals, bouncing the worst when a better one arrives. Whenever `y`
//! becomes full, every agent ranked below `y`'s worst held proposer is
//! *deleted* from `y`'s list (mutually) — such pairs can belong to no stable
//! matching. Deletions can withdraw already-held proposals, cascading until
//! quiescence.
//!
//! Phase 1 alone decides two useful cases:
//!
//! * if after reduction every agent's list has **exactly** `b_x` entries,
//!   those pairs are a stable matching (returned as `Some(matching)`);
//! * if some agent's list shrank below its quota, no stable matching can
//!   fill that agent (the table still reports the reduced lists).
//!
//! The full algorithm needs a rotation-elimination phase 2 to decide every
//! instance; that is out of scope here (documented substitution — the
//! experiments use [`crate::stable::dynamics`] for general instances), but
//! phase 1's reduced table is exactly what the experiments need to measure
//! how much of the instance stability constraints already pin down.

use crate::bmatching::BMatching;
use crate::problem::Problem;
use owp_graph::{NodeId, Rank};
use std::collections::HashSet;

/// Outcome of phase 1.
#[derive(Debug)]
pub struct Phase1Table {
    /// Per node: the reduced preference list (original order, deletions
    /// removed).
    pub reduced: Vec<Vec<NodeId>>,
    /// Per node: incoming proposals currently held.
    pub holds: Vec<Vec<NodeId>>,
    /// Pairs deleted during reduction (canonical `(min, max)`).
    pub deleted_pairs: usize,
    /// `Some(matching)` iff the reduced table decides the instance
    /// (every reduced list has exactly `b_x` entries).
    pub decided: Option<BMatching>,
}

struct Phase1<'p> {
    problem: &'p Problem,
    deleted: HashSet<(u32, u32)>,
    /// Per node: cursor into its preference list (next proposal candidate).
    cursor: Vec<usize>,
    /// Per node: incoming held proposals.
    holds: Vec<Vec<NodeId>>,
    /// Per node: how many of its outgoing proposals are currently held.
    out_held: Vec<u32>,
    /// Per node: outgoing proposals currently held by the target.
    out_targets: Vec<HashSet<u32>>,
    queue: Vec<NodeId>,
    queued: Vec<bool>,
}

impl<'p> Phase1<'p> {
    fn new(problem: &'p Problem) -> Self {
        let n = problem.node_count();
        Phase1 {
            problem,
            deleted: HashSet::new(),
            cursor: vec![0; n],
            holds: vec![Vec::new(); n],
            out_held: vec![0; n],
            out_targets: (0..n).map(|_| HashSet::new()).collect(),
            queue: Vec::new(),
            queued: vec![false; n],
        }
    }

    fn key(a: NodeId, b: NodeId) -> (u32, u32) {
        (a.0.min(b.0), a.0.max(b.0))
    }

    fn is_deleted(&self, a: NodeId, b: NodeId) -> bool {
        self.deleted.contains(&Self::key(a, b))
    }

    fn rank(&self, x: NodeId, y: NodeId) -> Rank {
        self.problem.prefs.rank(x, y).expect("neighbour")
    }

    fn enqueue(&mut self, x: NodeId) {
        if !self.queued[x.index()] {
            self.queued[x.index()] = true;
            self.queue.push(x);
        }
    }

    /// Deletes the pair `{a, b}`, withdrawing any held proposal between
    /// them (in either direction) and re-queueing the losers.
    fn delete_pair(&mut self, a: NodeId, b: NodeId) {
        if !self.deleted.insert(Self::key(a, b)) {
            return;
        }
        for (x, y) in [(a, b), (b, a)] {
            // x's proposal held by y?
            if self.out_targets[x.index()].remove(&y.0) {
                self.out_held[x.index()] -= 1;
                self.holds[y.index()].retain(|&z| z != x);
                self.enqueue(x);
            }
        }
    }

    /// `y` becomes full: prune everyone it likes less than its worst held
    /// proposer.
    fn prune_below_worst(&mut self, y: NodeId) {
        let b_y = self.problem.quotas.get(y) as usize;
        if self.holds[y.index()].len() < b_y {
            return;
        }
        let worst_rank = self.holds[y.index()]
            .iter()
            .map(|&z| self.rank(y, z))
            .max()
            .expect("full holder has holds");
        let victims: Vec<NodeId> = self.problem.prefs.list(y)
            [worst_rank as usize + 1..]
            .iter()
            .copied()
            .filter(|&z| !self.is_deleted(y, z))
            .collect();
        for z in victims {
            self.delete_pair(y, z);
        }
    }

    /// One proposal by `x` to the next live candidate. Returns `false` when
    /// `x` has nothing further to do.
    fn propose_once(&mut self, x: NodeId) -> bool {
        if self.out_held[x.index()] >= self.problem.quotas.get(x) {
            return false;
        }
        let list = self.problem.prefs.list(x);
        // Advance past deleted or already-held targets.
        while self.cursor[x.index()] < list.len() {
            let y = list[self.cursor[x.index()]];
            if self.is_deleted(x, y) || self.out_targets[x.index()].contains(&y.0) {
                self.cursor[x.index()] += 1;
            } else {
                break;
            }
        }
        let Some(&y) = list.get(self.cursor[x.index()]) else {
            return false;
        };
        self.cursor[x.index()] += 1;

        let b_y = self.problem.quotas.get(y) as usize;
        if b_y == 0 {
            self.delete_pair(x, y);
            return true;
        }
        if self.holds[y.index()].len() < b_y {
            self.holds[y.index()].push(x);
            self.out_targets[x.index()].insert(y.0);
            self.out_held[x.index()] += 1;
            self.prune_below_worst(y);
            return true;
        }
        // y full: bounce its worst held proposer if x is better.
        let (worst_pos, worst) = {
            let (pos, &w) = self.holds[y.index()]
                .iter()
                .enumerate()
                .max_by_key(|&(_, &z)| self.rank(y, z))
                .expect("full holder has holds");
            (pos, w)
        };
        if self.rank(y, x) < self.rank(y, worst) {
            self.holds[y.index()][worst_pos] = x;
            self.out_targets[x.index()].insert(y.0);
            self.out_held[x.index()] += 1;
            self.delete_pair(y, worst);
            self.prune_below_worst(y);
        } else {
            self.delete_pair(x, y);
        }
        true
    }

    fn run(mut self) -> Phase1Table {
        for i in self.problem.nodes() {
            self.enqueue(i);
        }
        while let Some(x) = self.queue.pop() {
            self.queued[x.index()] = false;
            while self.propose_once(x) {}
        }

        let reduced: Vec<Vec<NodeId>> = self
            .problem
            .nodes()
            .map(|i| {
                self.problem
                    .prefs
                    .list(i)
                    .iter()
                    .copied()
                    .filter(|&j| !self.is_deleted(i, j))
                    .collect()
            })
            .collect();

        // Decided iff every reduced list has exactly b_i entries; the pairs
        // then form a (necessarily symmetric) stable matching.
        let decided = if self
            .problem
            .nodes()
            .all(|i| reduced[i.index()].len() == self.problem.quotas.get(i) as usize)
        {
            let mut edges = Vec::new();
            let g = &self.problem.graph;
            for i in self.problem.nodes() {
                for &j in &reduced[i.index()] {
                    debug_assert!(
                        reduced[j.index()].contains(&i),
                        "reduced table must be symmetric"
                    );
                    if i < j {
                        edges.push(g.edge_between(i, j).expect("pair is an edge"));
                    }
                }
            }
            Some(BMatching::from_edges(self.problem, edges))
        } else {
            None
        };

        Phase1Table {
            reduced,
            holds: self.holds,
            deleted_pairs: self.deleted.len(),
            decided,
        }
    }
}

/// Runs phase 1 of the stable fixtures algorithm.
pub fn phase1(problem: &Problem) -> Phase1Table {
    Phase1::new(problem).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::acyclic::rps_gadget;
    use crate::stable::blocking::is_stable;
    use crate::verify;
    use owp_graph::generators::complete;
    use owp_graph::PreferenceTable;
    use owp_graph::Quotas;

    #[test]
    fn aligned_preferences_are_decided_and_stable() {
        // Globally aligned (id-ordered) preferences: phase 1 must fully
        // decide the instance, and its matching must be stable.
        for n in [4usize, 6, 8] {
            let g = complete(n);
            let prefs = PreferenceTable::by_node_id(&g);
            let quotas = Quotas::uniform(&g, 1);
            let p = Problem::new(g, prefs, quotas);
            let table = phase1(&p);
            let m = table.decided.expect("aligned b=1 is decided by phase 1");
            verify::check_valid(&p, &m).expect("valid");
            assert!(is_stable(&p, &m));
            // Consecutive pairing (0,1), (2,3), …
            assert!(m.connections(NodeId(0)).contains(&NodeId(1)));
        }
    }

    #[test]
    fn rps_gadget_is_undecided_by_phase1() {
        // The cyclic gadget has no stable matching; phase 1 cannot decide it
        // (that takes phase 2), and must leave over-long reduced lists.
        let p = rps_gadget();
        let table = phase1(&p);
        assert!(table.decided.is_none());
        assert!(p
            .nodes()
            .any(|i| table.reduced[i.index()].len() > p.quotas.get(i) as usize));
    }

    #[test]
    fn reduced_lists_are_symmetric_and_within_originals() {
        for seed in 0..15 {
            let p = Problem::random_gnp(16, 0.4, 2, seed);
            let table = phase1(&p);
            for i in p.nodes() {
                for &j in &table.reduced[i.index()] {
                    assert!(
                        table.reduced[j.index()].contains(&i),
                        "seed {seed}: deletion must be mutual"
                    );
                    assert!(p.graph.has_edge(i, j));
                }
            }
        }
    }

    #[test]
    fn decided_instances_yield_stable_matchings() {
        let mut decided = 0;
        for seed in 0..40 {
            let p = Problem::random_gnp(12, 0.5, 1, 100 + seed);
            let table = phase1(&p);
            if let Some(m) = table.decided {
                decided += 1;
                verify::check_valid(&p, &m).expect("valid");
                assert!(is_stable(&p, &m), "seed {seed}: decided ⇒ stable");
            }
        }
        assert!(decided > 0, "some random roommates instances decide in phase 1");
    }

    #[test]
    fn holds_respect_quotas() {
        for seed in 0..10 {
            let p = Problem::random_gnp(14, 0.5, 3, 200 + seed);
            let table = phase1(&p);
            for i in p.nodes() {
                assert!(table.holds[i.index()].len() <= p.quotas.get(i) as usize);
            }
        }
    }

    #[test]
    fn zero_quota_nodes_are_fully_pruned() {
        let g = complete(4);
        let prefs = PreferenceTable::by_node_id(&g);
        let quotas = Quotas::from_vec(&g, vec![0, 1, 1, 1]);
        let p = Problem::new(g, prefs, quotas);
        let table = phase1(&p);
        assert!(table.reduced[0].is_empty(), "quota-0 node keeps nobody");
    }
}
