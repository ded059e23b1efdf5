//! Reusable repair arenas — the steady-state zero-allocation pass.
//!
//! A naive engine allocates fresh dirty sets, heap frontiers, scratch
//! validation flags and delta buffers on **every** batch; profiled at
//! n=10⁶ the allocator traffic dominated the repair cost. All of that
//! state lives in one `EngineScratch` arena owned by the
//! [`crate::Engine`] and is *cleared*, never dropped: the selected/queued
//! bitmaps, the rank-ordered heap frontier and its seed list, the
//! structure-of-arrays selected-edge mirror ([`FixedCsr`], u32 edge ids),
//! touched tracking, the delta compaction state and the validation flag
//! copies.
//!
//! Clearing discipline: bitmaps are cleared through the companion lists
//! that recorded which bits were set (O(touched), not O(n)), the heap
//! drains itself to empty by the end of every batch, and `Vec`s are
//! `clear()`ed so their capacity survives. After warm-up a batch of
//! structural events (join/leave, edge add/remove) touches the allocator
//! zero times — asserted by `crates/engine/tests/zero_alloc.rs` with a
//! counting global allocator. Weight-changing events (`QuotaChange`,
//! `PreferenceUpdate`) still allocate inside the rank-kernel splice and
//! are outside the zero-allocation contract (DESIGN.md §11).

use owp_graph::{EdgeId, Graph, NodeId};
use owp_matching::{BMatching, EdgeRank, FixedCsr};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Min-heap entry: `(rank, edge id)` behind [`Reverse`], so the globally
/// heaviest (lowest-rank) edge pops first. Plain `u32` pairs keep the
/// heap's backing array compact (8 bytes per entry) on the hot path.
pub(crate) type Frontier = BinaryHeap<Reverse<(EdgeRank, u32)>>;

/// The engine's repair state and arenas, indexed by universe node and
/// edge ids.
#[derive(Clone, Debug)]
pub(crate) struct EngineScratch {
    /// Selected bitmap by edge id — the authoritative status during
    /// repair (the public [`BMatching`] is written through alongside it).
    pub selected: Vec<bool>,
    /// In-heap bitmap by edge id, set on push and cleared on pop.
    pub queued: Vec<bool>,
    /// The rank-ordered repair frontier.
    pub heap: Frontier,
    /// Edges the batch's events perturbed, in event order; pushed onto
    /// the heap (deduplicated against `queued`) once ranks are final.
    pub seeds: Vec<EdgeId>,
    /// Selected-edge mirror: row = node, items = edge ids of its
    /// currently selected incident edges — O(1) rank lookups where
    /// [`BMatching`] stores matched neighbours.
    pub sel: FixedCsr,
    /// Touched bitmap by node id, cleared through `touched_nodes`.
    pub touched: Vec<bool>,
    /// Nodes whose satisfaction inputs changed this batch: event touches
    /// first, then repair touches in flip order.
    pub touched_nodes: Vec<NodeId>,
    /// Edges whose rank keys moved this batch (folded into one splice).
    pub rerank_list: Vec<EdgeId>,
    /// Delta compaction by edge id: bits 0–1 hold the net state (0 none,
    /// 1 added, 2 removed), bit 2 marks membership in `delta_edges`.
    /// Cleared through `delta_edges`.
    pub delta_state: Vec<u8>,
    /// Edges flipped this batch, each listed once (may include edges
    /// that flipped back — compaction skips them).
    pub delta_edges: Vec<EdgeId>,
    /// Batch-validation scratch copies of the membership flags.
    pub val_active: Vec<bool>,
    /// See `val_active`.
    pub val_present: Vec<bool>,
}

impl EngineScratch {
    /// Empty arenas for universe graph `g`, with the selected-edge mirror
    /// sized to node degrees (a node can never have more selected
    /// incident edges than incident edges).
    pub fn new(g: &Graph) -> Self {
        let (n, m) = (g.node_count(), g.edge_count());
        EngineScratch {
            selected: vec![false; m],
            queued: vec![false; m],
            heap: BinaryHeap::new(),
            seeds: Vec::new(),
            sel: FixedCsr::with_capacities(g.nodes().map(|i| g.degree(i) as u32)),
            touched: vec![false; n],
            touched_nodes: Vec::new(),
            rerank_list: Vec::new(),
            delta_state: vec![0; m],
            delta_edges: Vec::new(),
            val_active: Vec::with_capacity(n),
            val_present: Vec::with_capacity(m.max(1)),
        }
    }

    /// Marks node `i` touched (idempotent).
    #[inline]
    pub fn touch(&mut self, i: NodeId) {
        if !self.touched[i.index()] {
            self.touched[i.index()] = true;
            self.touched_nodes.push(i);
        }
    }

    /// Flips edge `e` on or off in the selected bitmap, the mirror, the
    /// public matching and the net-delta journal.
    #[inline]
    pub fn flip(&mut self, g: &Graph, matching: &mut BMatching, e: EdgeId, on: bool) {
        let (u, v) = g.endpoints(e);
        self.selected[e.index()] = on;
        if on {
            self.sel.push(u.index(), e.0);
            self.sel.push(v.index(), e.0);
            matching.insert_unchecked(g, e);
        } else {
            self.sel.remove(u.index(), e.0);
            self.sel.remove(v.index(), e.0);
            matching.remove(g, e);
        }
        let ds = &mut self.delta_state[e.index()];
        if *ds & 4 == 0 {
            *ds |= 4;
            self.delta_edges.push(e);
        }
        let state = match (*ds & 3, on) {
            (0, true) => 1,
            (0, false) => 2,
            (1, false) | (2, true) => 0,
            (s, _) => s, // same-direction double flip cannot happen
        };
        *ds = 4 | state;
    }
}
