//! Edmonds' blossom algorithm for maximum-weight matching on general graphs
//! — the paper's reference \[2\] ("Paths, trees and flowers") in its weighted
//! primal–dual form (Galil's O(n³) formulation, following van Rantwijk's
//! well-known implementation structure).
//!
//! This gives an exact polynomial-time OPT for the one-to-one (`b ≡ 1`)
//! case on graphs far beyond what branch & bound reaches, so the E2-style
//! approximation-ratio measurements can scale. Correctness is established
//! by cross-checking against three independent exact methods (B&B, bitmask
//! DP, bipartite min-cost flow) over hundreds of random instances.
//!
//! Implementation notes:
//! * integer arithmetic throughout — input weights are scaled to `i64` and
//!   **doubled**, which keeps all dual variables integral (the standard
//!   trick);
//! * vertices are `0..n`; blossoms occupy ids `n..2n`;
//! * an edge `k` has endpoints `2k` and `2k+1` (the `p ^ 1` trick navigates
//!   between them).

use crate::bmatching::BMatching;
use crate::problem::Problem;
use owp_graph::EdgeId;

const NONE: i64 = -1;

/// Maximum-weight matching on an abstract weighted graph.
///
/// `edges[k] = (i, j, w)` with `i != j`, vertices `0..n`. Returns `mate`
/// where `mate[v]` is `v`'s partner or `usize::MAX`.
pub struct Blossom {
    nvertex: usize,
    nedge: usize,
    edges: Vec<(usize, usize, i64)>,
    endpoint: Vec<usize>,
    neighbend: Vec<Vec<usize>>,
    mate: Vec<i64>, // endpoint index or -1
    label: Vec<u8>,
    labelend: Vec<i64>,
    inblossom: Vec<usize>,
    blossomparent: Vec<i64>,
    blossomchilds: Vec<Vec<usize>>,
    blossombase: Vec<i64>,
    blossomendps: Vec<Vec<usize>>,
    bestedge: Vec<i64>,
    blossombestedges: Vec<Vec<usize>>,
    unusedblossoms: Vec<usize>,
    dualvar: Vec<i64>,
    allowedge: Vec<bool>,
    queue: Vec<usize>,
}

impl Blossom {
    /// Builds the solver state for the given doubled-integer-weight edges.
    fn new(nvertex: usize, edges: Vec<(usize, usize, i64)>) -> Self {
        let nedge = edges.len();
        let maxweight = edges.iter().map(|&(_, _, w)| w).max().unwrap_or(0).max(0);
        let mut endpoint = Vec::with_capacity(2 * nedge);
        for &(i, j, _) in &edges {
            endpoint.push(i);
            endpoint.push(j);
        }
        let mut neighbend = vec![Vec::new(); nvertex];
        for (k, &(i, j, _)) in edges.iter().enumerate() {
            neighbend[i].push(2 * k + 1);
            neighbend[j].push(2 * k);
        }
        let mut dualvar = vec![maxweight; nvertex];
        dualvar.extend(std::iter::repeat_n(0, nvertex));
        Blossom {
            nvertex,
            nedge,
            edges,
            endpoint,
            neighbend,
            mate: vec![NONE; nvertex],
            label: vec![0; 2 * nvertex],
            labelend: vec![NONE; 2 * nvertex],
            inblossom: (0..nvertex).collect(),
            blossomparent: vec![NONE; 2 * nvertex],
            blossomchilds: vec![Vec::new(); 2 * nvertex],
            blossombase: (0..nvertex as i64)
                .chain(std::iter::repeat_n(NONE, nvertex))
                .collect(),
            blossomendps: vec![Vec::new(); 2 * nvertex],
            bestedge: vec![NONE; 2 * nvertex],
            blossombestedges: vec![Vec::new(); 2 * nvertex],
            unusedblossoms: (nvertex..2 * nvertex).collect(),
            dualvar,
            allowedge: vec![false; nedge],
            queue: Vec::new(),
        }
    }

    #[inline]
    fn slack(&self, k: usize) -> i64 {
        let (i, j, wt) = self.edges[k];
        self.dualvar[i] + self.dualvar[j] - 2 * wt
    }

    /// All vertices inside blossom `b` (which may be a plain vertex).
    fn blossom_leaves(&self, b: usize, out: &mut Vec<usize>) {
        if b < self.nvertex {
            out.push(b);
        } else {
            for t in self.blossomchilds[b].clone() {
                self.blossom_leaves(t, out);
            }
        }
    }

    fn assign_label(&mut self, w: usize, t: u8, p: i64) {
        let b = self.inblossom[w];
        debug_assert!(self.label[w] == 0 && self.label[b] == 0);
        self.label[w] = t;
        self.label[b] = t;
        self.labelend[w] = p;
        self.labelend[b] = p;
        self.bestedge[w] = NONE;
        self.bestedge[b] = NONE;
        if t == 1 {
            let mut leaves = Vec::new();
            self.blossom_leaves(b, &mut leaves);
            self.queue.extend(leaves);
        } else if t == 2 {
            let base = self.blossombase[b] as usize;
            debug_assert!(self.mate[base] >= 0);
            let mate_ep = self.mate[base] as usize;
            self.assign_label(self.endpoint[mate_ep], 1, self.mate[base] ^ 1);
        }
    }

    /// Traces back from `v` and `w` to find a common ancestor base vertex.
    fn scan_blossom(&mut self, v: usize, w: usize) -> i64 {
        let mut path = Vec::new();
        let mut base = NONE;
        let mut v = v as i64;
        let mut w = w as i64;
        while v != NONE || w != NONE {
            if v != NONE {
                let b = self.inblossom[v as usize];
                if self.label[b] & 4 != 0 {
                    base = self.blossombase[b];
                    break;
                }
                debug_assert_eq!(self.label[b], 1);
                path.push(b);
                self.label[b] = 5;
                debug_assert_eq!(
                    self.labelend[b],
                    self.mate[self.blossombase[b] as usize]
                );
                if self.labelend[b] == NONE {
                    v = NONE;
                } else {
                    let t = self.endpoint[self.labelend[b] as usize];
                    let bt = self.inblossom[t];
                    debug_assert_eq!(self.label[bt], 2);
                    debug_assert!(self.labelend[bt] >= 0);
                    v = self.endpoint[self.labelend[bt] as usize] as i64;
                }
            }
            if w != NONE {
                std::mem::swap(&mut v, &mut w);
            }
        }
        for b in path {
            self.label[b] = 1;
        }
        base
    }

    /// Builds a new blossom with the given base, through edge `k`.
    fn add_blossom(&mut self, base: usize, k: usize) {
        let (mut v, mut w, _) = self.edges[k];
        let bb = self.inblossom[base];
        let mut bv = self.inblossom[v];
        let mut bw = self.inblossom[w];
        let b = self.unusedblossoms.pop().expect("blossom id available");
        self.blossombase[b] = base as i64;
        self.blossomparent[b] = NONE;
        self.blossomparent[bb] = b as i64;

        let mut path = Vec::new();
        let mut endps = Vec::new();
        while bv != bb {
            self.blossomparent[bv] = b as i64;
            path.push(bv);
            endps.push(self.labelend[bv] as usize);
            debug_assert!(
                self.label[bv] == 2
                    || (self.label[bv] == 1
                        && self.labelend[bv] == self.mate[self.blossombase[bv] as usize])
            );
            debug_assert!(self.labelend[bv] >= 0);
            v = self.endpoint[self.labelend[bv] as usize];
            bv = self.inblossom[v];
        }
        path.push(bb);
        path.reverse();
        endps.reverse();
        endps.push(2 * k);
        while bw != bb {
            self.blossomparent[bw] = b as i64;
            path.push(bw);
            endps.push((self.labelend[bw] as usize) ^ 1);
            debug_assert!(
                self.label[bw] == 2
                    || (self.label[bw] == 1
                        && self.labelend[bw] == self.mate[self.blossombase[bw] as usize])
            );
            debug_assert!(self.labelend[bw] >= 0);
            w = self.endpoint[self.labelend[bw] as usize];
            bw = self.inblossom[w];
        }

        debug_assert_eq!(self.label[bb], 1);
        self.label[b] = 1;
        self.labelend[b] = self.labelend[bb];
        self.dualvar[b] = 0;

        self.blossomchilds[b] = path.clone();
        self.blossomendps[b] = endps;

        let mut leaves = Vec::new();
        self.blossom_leaves(b, &mut leaves);
        for &lv in &leaves {
            if self.label[self.inblossom[lv]] == 2 {
                self.queue.push(lv);
            }
            self.inblossom[lv] = b;
        }

        // Compute the blossom's best-edge lists.
        let mut bestedgeto = vec![NONE; 2 * self.nvertex];
        for &bv in &path {
            let nblists: Vec<Vec<usize>> = if self.blossombestedges[bv].is_empty() {
                let mut ls = Vec::new();
                let mut lvs = Vec::new();
                self.blossom_leaves(bv, &mut lvs);
                for lv in lvs {
                    ls.push(self.neighbend[lv].iter().map(|&p| p / 2).collect());
                }
                ls
            } else {
                vec![self.blossombestedges[bv].clone()]
            };
            for nblist in nblists {
                for k2 in nblist {
                    let (mut i, mut j, _) = self.edges[k2];
                    if self.inblossom[j] == b {
                        std::mem::swap(&mut i, &mut j);
                    }
                    let _ = i;
                    let bj = self.inblossom[j];
                    if bj != b
                        && self.label[bj] == 1
                        && (bestedgeto[bj] == NONE
                            || self.slack(k2) < self.slack(bestedgeto[bj] as usize))
                    {
                        bestedgeto[bj] = k2 as i64;
                    }
                }
            }
            self.blossombestedges[bv] = Vec::new();
            self.bestedge[bv] = NONE;
        }
        self.blossombestedges[b] = bestedgeto
            .into_iter()
            .filter(|&k2| k2 != NONE)
            .map(|k2| k2 as usize)
            .collect();
        self.bestedge[b] = NONE;
        for k2 in self.blossombestedges[b].clone() {
            if self.bestedge[b] == NONE
                || self.slack(k2) < self.slack(self.bestedge[b] as usize)
            {
                self.bestedge[b] = k2 as i64;
            }
        }
    }

    /// Expands blossom `b`, restoring its children as top-level blossoms.
    fn expand_blossom(&mut self, b: usize, endstage: bool) {
        for s in self.blossomchilds[b].clone() {
            self.blossomparent[s] = NONE;
            if s < self.nvertex {
                self.inblossom[s] = s;
            } else if endstage && self.dualvar[s] == 0 {
                self.expand_blossom(s, endstage);
            } else {
                let mut lvs = Vec::new();
                self.blossom_leaves(s, &mut lvs);
                for v in lvs {
                    self.inblossom[v] = s;
                }
            }
        }

        if !endstage && self.label[b] == 2 {
            // Relabel the path from the entry child to the base.
            debug_assert!(self.labelend[b] >= 0);
            let entrychild =
                self.inblossom[self.endpoint[(self.labelend[b] as usize) ^ 1]];
            let childs = self.blossomchilds[b].clone();
            let endps = self.blossomendps[b].clone();
            let len = childs.len() as i64;
            let mut j = childs.iter().position(|&c| c == entrychild).unwrap() as i64;
            let (jstep, endptrick): (i64, usize) = if j & 1 != 0 {
                j -= len;
                (1, 0)
            } else {
                (-1, 1)
            };
            let idx = |x: i64| -> usize {
                (((x % len) + len) % len) as usize
            };
            let mut p = self.labelend[b] as usize;
            while j != 0 {
                // Relabel the T-sub-blossom.
                self.label[self.endpoint[p ^ 1]] = 0;
                let q = endps[idx(j - endptrick as i64)] ^ endptrick ^ 1;
                self.label[self.endpoint[q]] = 0;
                self.assign_label(self.endpoint[p ^ 1], 2, p as i64);
                self.allowedge[endps[idx(j - endptrick as i64)] / 2] = true;
                j += jstep;
                p = endps[idx(j - endptrick as i64)] ^ endptrick;
                self.allowedge[p / 2] = true;
                j += jstep;
            }
            // Relabel the base T-sub-blossom.
            let bv = childs[idx(j)];
            self.label[self.endpoint[p ^ 1]] = 2;
            self.label[bv] = 2;
            self.labelend[self.endpoint[p ^ 1]] = p as i64;
            self.labelend[bv] = p as i64;
            self.bestedge[bv] = NONE;
            // Clear labels on the remaining (even-side) sub-blossoms.
            j += jstep;
            while childs[idx(j)] != entrychild {
                let bv = childs[idx(j)];
                if self.label[bv] == 1 {
                    j += jstep;
                    continue;
                }
                let mut lvs = Vec::new();
                self.blossom_leaves(bv, &mut lvs);
                let mut vfound = None;
                for v in lvs {
                    if self.label[v] != 0 {
                        vfound = Some(v);
                        break;
                    }
                }
                if let Some(v) = vfound {
                    debug_assert_eq!(self.label[v], 2);
                    debug_assert_eq!(self.inblossom[v], bv);
                    self.label[v] = 0;
                    let base = self.blossombase[bv] as usize;
                    let m = self.mate[base] as usize;
                    self.label[self.endpoint[m]] = 0;
                    let le = self.labelend[v];
                    self.assign_label(v, 2, le);
                }
                j += jstep;
            }
        }

        self.label[b] = 0;
        self.labelend[b] = NONE;
        self.blossomchilds[b] = Vec::new();
        self.blossomendps[b] = Vec::new();
        self.blossombase[b] = NONE;
        self.blossombestedges[b] = Vec::new();
        self.bestedge[b] = NONE;
        self.unusedblossoms.push(b);
    }

    /// Swaps matched/unmatched edges around blossom `b` so that `v` becomes
    /// its base.
    fn augment_blossom(&mut self, b: usize, v: usize) {
        let mut t = v;
        while self.blossomparent[t] != b as i64 {
            t = self.blossomparent[t] as usize;
        }
        if t >= self.nvertex {
            self.augment_blossom(t, v);
        }
        let childs = self.blossomchilds[b].clone();
        let endps = self.blossomendps[b].clone();
        let len = childs.len() as i64;
        let i = childs.iter().position(|&c| c == t).unwrap() as i64;
        let mut j = i;
        let (jstep, endptrick): (i64, usize) = if i & 1 != 0 {
            j -= len;
            (1, 0)
        } else {
            (-1, 1)
        };
        let idx = |x: i64| -> usize { (((x % len) + len) % len) as usize };
        while j != 0 {
            j += jstep;
            let t2 = childs[idx(j)];
            let p = endps[idx(j - endptrick as i64)] ^ endptrick;
            if t2 >= self.nvertex {
                self.augment_blossom(t2, self.endpoint[p]);
            }
            j += jstep;
            let t3 = childs[idx(j)];
            if t3 >= self.nvertex {
                self.augment_blossom(t3, self.endpoint[p ^ 1]);
            }
            self.mate[self.endpoint[p]] = (p ^ 1) as i64;
            self.mate[self.endpoint[p ^ 1]] = p as i64;
        }
        // Rotate so that sub-blossom i becomes the base.
        let i = i as usize;
        let mut nc = childs[i..].to_vec();
        nc.extend_from_slice(&childs[..i]);
        let mut ne = endps[i..].to_vec();
        ne.extend_from_slice(&endps[..i]);
        self.blossomchilds[b] = nc;
        self.blossomendps[b] = ne;
        self.blossombase[b] = self.blossombase[self.blossomchilds[b][0]];
        debug_assert_eq!(self.blossombase[b], v as i64);
    }

    /// Augments the matching along the path through edge `k` = (v, w).
    fn augment_matching(&mut self, k: usize) {
        let (v, w, _) = self.edges[k];
        for (s0, p0) in [(v, 2 * k + 1), (w, 2 * k)] {
            let mut s = s0;
            let mut p = p0;
            loop {
                let bs = self.inblossom[s];
                debug_assert_eq!(self.label[bs], 1);
                debug_assert_eq!(
                    self.labelend[bs],
                    self.mate[self.blossombase[bs] as usize]
                );
                if bs >= self.nvertex {
                    self.augment_blossom(bs, s);
                }
                self.mate[s] = p as i64;
                if self.labelend[bs] == NONE {
                    break;
                }
                let t = self.endpoint[self.labelend[bs] as usize];
                let bt = self.inblossom[t];
                debug_assert_eq!(self.label[bt], 2);
                debug_assert!(self.labelend[bt] >= 0);
                s = self.endpoint[self.labelend[bt] as usize];
                let j = self.endpoint[(self.labelend[bt] as usize) ^ 1];
                debug_assert_eq!(self.blossombase[bt] as usize, t);
                if bt >= self.nvertex {
                    self.augment_blossom(bt, j);
                }
                self.mate[j] = self.labelend[bt];
                p = (self.labelend[bt] as usize) ^ 1;
            }
        }
    }

    /// Runs the full algorithm; returns `mate` as vertex indices.
    fn solve(mut self) -> Vec<i64> {
        if self.nedge == 0 {
            return vec![NONE; self.nvertex];
        }
        for _ in 0..self.nvertex {
            // New stage.
            self.label = vec![0; 2 * self.nvertex];
            self.bestedge = vec![NONE; 2 * self.nvertex];
            for lst in self.blossombestedges[self.nvertex..].iter_mut() {
                *lst = Vec::new();
            }
            self.allowedge = vec![false; self.nedge];
            self.queue.clear();

            for v in 0..self.nvertex {
                if self.mate[v] == NONE && self.label[self.inblossom[v]] == 0 {
                    self.assign_label(v, 1, NONE);
                }
            }

            let mut augmented = false;
            loop {
                while let Some(v) = self.queue.pop() {
                    debug_assert_eq!(self.label[self.inblossom[v]], 1);
                    for pi in 0..self.neighbend[v].len() {
                        let p = self.neighbend[v][pi];
                        let k = p / 2;
                        let w = self.endpoint[p];
                        if self.inblossom[v] == self.inblossom[w] {
                            continue;
                        }
                        let mut kslack = 0;
                        if !self.allowedge[k] {
                            kslack = self.slack(k);
                            if kslack <= 0 {
                                self.allowedge[k] = true;
                            }
                        }
                        if self.allowedge[k] {
                            if self.label[self.inblossom[w]] == 0 {
                                self.assign_label(w, 2, (p ^ 1) as i64);
                            } else if self.label[self.inblossom[w]] == 1 {
                                let base = self.scan_blossom(v, w);
                                if base >= 0 {
                                    self.add_blossom(base as usize, k);
                                } else {
                                    self.augment_matching(k);
                                    augmented = true;
                                    break;
                                }
                            } else if self.label[w] == 0 {
                                debug_assert_eq!(self.label[self.inblossom[w]], 2);
                                self.label[w] = 2;
                                self.labelend[w] = (p ^ 1) as i64;
                            }
                        } else if self.label[self.inblossom[w]] == 1 {
                            let b = self.inblossom[v];
                            if self.bestedge[b] == NONE
                                || kslack < self.slack(self.bestedge[b] as usize)
                            {
                                self.bestedge[b] = k as i64;
                            }
                        } else if self.label[w] == 0
                            && (self.bestedge[w] == NONE
                                || kslack < self.slack(self.bestedge[w] as usize))
                        {
                            self.bestedge[w] = k as i64;
                        }
                    }
                    if augmented {
                        break;
                    }
                }
                if augmented {
                    break;
                }

                // Dual update.
                let mut deltaedge = 0usize;
                let mut deltablossom = 0usize;

                // Type 1: minimum vertex dual (we maximize weight, not card).
                let mut deltatype = 1i32;
                let mut delta = *self.dualvar[..self.nvertex].iter().min().expect("nonempty");

                // Type 2: free vertex with an edge to an S-vertex.
                for v in 0..self.nvertex {
                    if self.label[self.inblossom[v]] == 0 && self.bestedge[v] != NONE {
                        let d = self.slack(self.bestedge[v] as usize);
                        if deltatype == -1 || d < delta {
                            delta = d;
                            deltatype = 2;
                            deltaedge = self.bestedge[v] as usize;
                        }
                    }
                }

                // Type 3: S-blossom to S-blossom edge (half slack).
                for b in 0..2 * self.nvertex {
                    if self.blossomparent[b] == NONE
                        && self.label[b] == 1
                        && self.bestedge[b] != NONE
                    {
                        let kslack = self.slack(self.bestedge[b] as usize);
                        debug_assert!(kslack % 2 == 0, "duals must stay integral");
                        let d = kslack / 2;
                        if deltatype == -1 || d < delta {
                            delta = d;
                            deltatype = 3;
                            deltaedge = self.bestedge[b] as usize;
                        }
                    }
                }

                // Type 4: expandable T-blossom.
                for b in self.nvertex..2 * self.nvertex {
                    if self.blossombase[b] >= 0
                        && self.blossomparent[b] == NONE
                        && self.label[b] == 2
                        && (deltatype == -1 || self.dualvar[b] < delta)
                    {
                        delta = self.dualvar[b];
                        deltatype = 4;
                        deltablossom = b;
                    }
                }

                if deltatype == -1 {
                    deltatype = 1;
                    delta = self.dualvar[..self.nvertex]
                        .iter()
                        .copied()
                        .min()
                        .unwrap()
                        .max(0);
                }

                // Apply the delta.
                for v in 0..self.nvertex {
                    match self.label[self.inblossom[v]] {
                        1 => self.dualvar[v] -= delta,
                        2 => self.dualvar[v] += delta,
                        _ => {}
                    }
                }
                for b in self.nvertex..2 * self.nvertex {
                    if self.blossombase[b] >= 0 && self.blossomparent[b] == NONE {
                        match self.label[b] {
                            1 => self.dualvar[b] += delta,
                            2 => self.dualvar[b] -= delta,
                            _ => {}
                        }
                    }
                }

                match deltatype {
                    1 => break, // optimum reached
                    2 => {
                        self.allowedge[deltaedge] = true;
                        let (mut i, j, _) = self.edges[deltaedge];
                        if self.label[self.inblossom[i]] == 0 {
                            i = j;
                        }
                        debug_assert_eq!(self.label[self.inblossom[i]], 1);
                        self.queue.push(i);
                    }
                    3 => {
                        self.allowedge[deltaedge] = true;
                        let (i, _, _) = self.edges[deltaedge];
                        debug_assert_eq!(self.label[self.inblossom[i]], 1);
                        self.queue.push(i);
                    }
                    4 => self.expand_blossom(deltablossom, false),
                    _ => unreachable!(),
                }
            }

            if !augmented {
                break;
            }

            // End of stage: expand all S-blossoms with zero dual.
            for b in self.nvertex..2 * self.nvertex {
                if self.blossomparent[b] == NONE
                    && self.blossombase[b] >= 0
                    && self.label[b] == 1
                    && self.dualvar[b] == 0
                {
                    self.expand_blossom(b, true);
                }
            }
        }

        // Translate endpoint mates to vertex mates.
        let endpoint = self.endpoint;
        self.mate
            .iter()
            .map(|&m| if m == NONE { NONE } else { endpoint[m as usize] as i64 })
            .collect()
    }
}

/// Maximum-weight matching over abstract integer-weight edges.
///
/// Weights are doubled internally; pass plain weights.
pub fn max_weight_matching(nvertex: usize, edges: &[(usize, usize, i64)]) -> Vec<Option<usize>> {
    let doubled: Vec<(usize, usize, i64)> = edges
        .iter()
        .map(|&(i, j, w)| {
            assert!(i != j && i < nvertex && j < nvertex, "bad edge ({i},{j})");
            (i, j, 2 * w)
        })
        .collect();
    let mate = Blossom::new(nvertex, doubled).solve();
    mate.into_iter()
        .map(|m| if m == NONE { None } else { Some(m as usize) })
        .collect()
}

/// Scale used to convert eq. 9 `f64` weights to integers (2⁴⁰ preserves far
/// more precision than the weights contain).
const SCALE: f64 = (1u64 << 40) as f64;

/// Exact maximum-weight **one-to-one** matching of a problem instance via
/// the blossom algorithm. Ignores edges with a zero-quota endpoint.
///
/// # Panics
/// Panics if any quota exceeds 1.
pub fn optimal_weight_blossom(problem: &Problem) -> BMatching {
    assert!(
        problem.quotas.bmax() <= 1,
        "blossom solver is one-to-one (b = 1) only"
    );
    let g = &problem.graph;
    let mut edges = Vec::with_capacity(g.edge_count());
    let mut ids: Vec<EdgeId> = Vec::with_capacity(g.edge_count());
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        if problem.quotas.get(u) == 1 && problem.quotas.get(v) == 1 {
            let w = (problem.weights.get_f64(e) * SCALE).round() as i64;
            edges.push((u.index(), v.index(), w));
            ids.push(e);
        }
    }
    let mate = max_weight_matching(g.node_count(), &edges);
    let mut chosen = Vec::new();
    for (k, &(i, j, _)) in edges.iter().enumerate() {
        if mate[i] == Some(j) && mate[j] == Some(i) {
            chosen.push(ids[k]);
            debug_assert!(i < j || j < i);
        }
    }
    BMatching::from_edges(problem, chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{optimal_weight, optimal_weight_b1_dp, DEFAULT_BUDGET};
    use crate::flow::optimal_weight_bipartite;
    use crate::lic::{lic, SelectionPolicy};
    use crate::verify;
    use owp_graph::generators::{complete, random_bipartite, ring};
    use owp_graph::{PreferenceTable, Quotas};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn trivial_cases() {
        assert_eq!(max_weight_matching(0, &[]), Vec::<Option<usize>>::new());
        assert_eq!(max_weight_matching(2, &[]), vec![None, None]);
        assert_eq!(
            max_weight_matching(2, &[(0, 1, 5)]),
            vec![Some(1), Some(0)]
        );
        // Negative-weight edge is never taken.
        assert_eq!(max_weight_matching(2, &[(0, 1, -5)]), vec![None, None]);
    }

    #[test]
    fn classic_textbook_instances() {
        // Path with a tempting middle edge: take the two outer edges.
        let m = max_weight_matching(4, &[(0, 1, 5), (1, 2, 6), (2, 3, 5)]);
        assert_eq!(m, vec![Some(1), Some(0), Some(3), Some(2)]);

        // Triangle plus pendant (forces blossom machinery): classic
        // van Rantwijk test: create S-blossom and use it for augmentation.
        let m = max_weight_matching(4, &[(0, 1, 8), (0, 2, 9), (1, 2, 10), (2, 3, 7)]);
        assert_eq!(m, vec![Some(1), Some(0), Some(3), Some(2)]);

        // Maximum cardinality not required: only positive gain edges used.
        let m = max_weight_matching(4, &[(0, 1, 2), (1, 2, 0), (2, 3, 2)]);
        assert_eq!(m[0], Some(1));
        assert_eq!(m[2], Some(3));
    }

    #[test]
    fn nested_blossom_instance() {
        // van Rantwijk's nested S-blossom test:
        // create nested S-blossom, use for augmentation.
        let edges = [
            (0, 1, 9),
            (0, 2, 9),
            (1, 2, 10),
            (1, 3, 5),
            (3, 4, 4),
            (0, 5, 3),
            (4, 5, 3),
        ];
        let m = max_weight_matching(6, &edges);
        assert_eq!(m, vec![Some(2), Some(3), Some(0), Some(1), Some(5), Some(4)]);
    }

    /// Checks `mate` is a consistent matching and returns its total weight.
    fn weight_of(edges: &[(usize, usize, i64)], mate: &[Option<usize>]) -> i64 {
        for (v, &m) in mate.iter().enumerate() {
            if let Some(u) = m {
                assert_eq!(mate[u], Some(v), "mate array must be symmetric");
            }
        }
        edges
            .iter()
            .filter(|&&(i, j, _)| mate[i] == Some(j))
            .map(|&(_, _, w)| w)
            .sum()
    }

    /// Brute-force optimum via the bitmask DP (independent of Problem).
    fn dp_opt(n: usize, edges: &[(usize, usize, i64)]) -> i64 {
        let full = 1usize << n;
        let mut dp = vec![0i64; full];
        for mask in 1..full {
            let i = mask.trailing_zeros() as usize;
            let rest = mask & !(1 << i);
            let mut best = dp[rest];
            for &(a, b, w) in edges {
                let j = if a == i { b } else if b == i { a } else { continue };
                if rest & (1 << j) != 0 {
                    best = best.max(w + dp[rest & !(1 << j)]);
                }
            }
            dp[mask] = best;
        }
        dp[full - 1]
    }

    #[test]
    fn blossom_expansion_instances() {
        // "Nasty" instances that force blossom creation, T-relabelling and
        // expansion during a stage (weights chosen so the pentagon
        // 0-1-2-3-4 shrinks and must be reopened to reach the pendants).
        let nasty1: [(usize, usize, i64); 10] = [
            (0, 1, 45),
            (0, 4, 45),
            (1, 2, 50),
            (2, 3, 45),
            (3, 4, 50),
            (0, 5, 30),
            (2, 8, 35),
            (4, 7, 35),
            (5, 6, 26),
            (7, 8, 5),
        ];
        let m = max_weight_matching(9, &nasty1);
        assert_eq!(weight_of(&nasty1, &m), dp_opt(9, &nasty1));

        let nasty2: [(usize, usize, i64); 10] = [
            (0, 1, 45),
            (0, 4, 45),
            (1, 2, 50),
            (2, 3, 45),
            (3, 4, 50),
            (0, 5, 30),
            (2, 8, 35),
            (4, 7, 26),
            (5, 6, 40),
            (7, 8, 30),
        ];
        let m = max_weight_matching(9, &nasty2);
        assert_eq!(weight_of(&nasty2, &m), dp_opt(9, &nasty2));

        // Expand-then-augment through a relabeled T-blossom.
        let nasty3: [(usize, usize, i64); 10] = [
            (0, 1, 45),
            (0, 4, 45),
            (1, 2, 50),
            (2, 3, 45),
            (3, 4, 50),
            (0, 5, 30),
            (2, 8, 35),
            (4, 7, 28),
            (5, 6, 26),
            (7, 8, 26),
        ];
        let m = max_weight_matching(9, &nasty3);
        assert_eq!(weight_of(&nasty3, &m), dp_opt(9, &nasty3));
    }

    #[test]
    fn agrees_with_dp_oracle_on_random_graphs() {
        for seed in 0..40 {
            let p = Problem::random_gnp(14, 0.4, 1, 5000 + seed);
            let m = optimal_weight_blossom(&p);
            verify::check_valid(&p, &m).expect("valid");
            let dp = optimal_weight_b1_dp(&p);
            let got = m.total_weight(&p);
            assert!(
                (got - dp).abs() < 1e-6,
                "seed {seed}: blossom {got} vs DP {dp}"
            );
        }
    }

    #[test]
    fn agrees_with_bnb_on_denser_graphs() {
        for seed in 0..15 {
            let p = Problem::random_gnp(12, 0.7, 1, 6000 + seed);
            let m = optimal_weight_blossom(&p);
            let bnb = optimal_weight(&p, DEFAULT_BUDGET);
            assert!(bnb.proven_optimal);
            assert!(
                (m.total_weight(&p) - bnb.value).abs() < 1e-6,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn agrees_with_flow_on_bipartite() {
        for seed in 0..15 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_bipartite(9, 9, 0.4, &mut rng);
            let p = Problem::random_over(g, 1, seed);
            let m = optimal_weight_blossom(&p);
            let f = optimal_weight_bipartite(&p).expect("bipartite");
            assert!(
                (m.total_weight(&p) - f.total_weight(&p)).abs() < 1e-6,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn odd_cycles_need_blossoms_and_work() {
        // Rings of odd length exercise blossom shrinking heavily.
        for n in [5usize, 7, 9, 11] {
            let p = Problem::random_over(ring(n), 1, n as u64);
            let m = optimal_weight_blossom(&p);
            verify::check_valid(&p, &m).expect("valid");
            assert_eq!(m.size(), n / 2, "odd ring matches ⌊n/2⌋ edges");
            let dp = optimal_weight_b1_dp(&p);
            assert!((m.total_weight(&p) - dp).abs() < 1e-6);
        }
    }

    #[test]
    fn scales_beyond_the_dp_oracle() {
        // n = 60 is far beyond bitmask DP; validate against the ½-approx
        // bound from below and maximality from above.
        let p = Problem::random_gnp(60, 0.15, 1, 31);
        let m = optimal_weight_blossom(&p);
        verify::check_valid(&p, &m).expect("valid");
        let greedy = lic(&p, SelectionPolicy::InOrder);
        let (gw, ow) = (greedy.total_weight(&p), m.total_weight(&p));
        assert!(ow >= gw - 1e-9, "OPT at least greedy");
        assert!(gw >= 0.5 * ow - 1e-9, "Theorem 2 against the blossom OPT");
    }

    #[test]
    fn randomized_stress_against_dp() {
        // Many instances across the density spectrum; every one must match
        // the bitmask-DP optimum exactly.
        let mut rng = StdRng::seed_from_u64(123);
        use rand::Rng;
        for trial in 0..150 {
            let n = rng.gen_range(4..17);
            let p_edge = rng.gen_range(0.15..0.95);
            let mut edges = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_range(0.0..1.0) < p_edge {
                        edges.push((i, j, rng.gen_range(1..1000i64)));
                    }
                }
            }
            let m = max_weight_matching(n, &edges);
            let got = weight_of(&edges, &m);
            let want = dp_opt(n, &edges);
            assert_eq!(got, want, "trial {trial}: n={n} edges={edges:?}");
        }
    }

    #[test]
    fn respects_zero_quota_endpoints() {
        let g = complete(6);
        let prefs = PreferenceTable::by_node_id(&g);
        let quotas = Quotas::from_vec(&g, vec![1, 1, 1, 1, 0, 0]);
        let p = Problem::new(g, prefs, quotas);
        let m = optimal_weight_blossom(&p);
        assert_eq!(m.degree(owp_graph::NodeId(4)), 0);
        assert_eq!(m.degree(owp_graph::NodeId(5)), 0);
        verify::check_valid(&p, &m).expect("valid");
    }
}
