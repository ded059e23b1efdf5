//! Randomized event-stream equivalence: the engine's headline property is
//! that after *any* valid event stream its matching is bit-identical to a
//! from-scratch LIC run on the instance the stream produced. This suite
//! drives hundreds of seeded streams — mixed joins, leaves, edge churn,
//! quota changes and preference re-ranks, batched arbitrarily — and
//! certifies after every batch.
//!
//! Alongside the matching, the two maintained derivatives are certified
//! too: the eq. 9 weights / rank kernel (spliced incrementally per batch)
//! against a fresh full recompute, and the incrementally-tracked total
//! satisfaction against a direct sum.

use owp_engine::{Engine, EngineEvent};
use owp_graph::{EdgeId, Graph, NodeId};
use owp_matching::satisfaction::node_satisfaction;
use owp_matching::{EdgeOrder, EdgeWeights, Problem};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Independent seeded streams per test — the ISSUE floor is 200 total;
/// the main certification test alone runs more.
const STREAMS: u64 = 220;

/// One random universe instance: G(n, 0.4) with n ∈ [2, 20], random
/// preference permutations, uniform quotas b ∈ [1, 4].
fn universe(meta: &mut StdRng) -> Problem {
    let n = meta.gen_range(2usize..=20);
    let b = meta.gen_range(1u32..=4);
    Problem::random_gnp(n, 0.4, b, meta.gen_range(0..=u64::MAX))
}

/// Draws the next valid event given mirrors of the membership flags,
/// keeping the mirrors in sync so whole batches stay valid.
fn next_event(
    rng: &mut StdRng,
    g: &Graph,
    active: &mut [bool],
    present: &mut [bool],
) -> EngineEvent {
    let n = g.node_count() as u32;
    let m = g.edge_count() as u32;
    loop {
        match rng.gen_range(0u32..100) {
            0..=24 => {
                let i = NodeId(rng.gen_range(0..n));
                if active[i.index()] {
                    active[i.index()] = false;
                    return EngineEvent::NodeLeave { node: i };
                }
            }
            25..=49 => {
                let i = NodeId(rng.gen_range(0..n));
                if !active[i.index()] {
                    active[i.index()] = true;
                    return EngineEvent::NodeJoin { node: i };
                }
            }
            50..=61 if m > 0 => {
                let e = EdgeId(rng.gen_range(0..m));
                if present[e.index()] {
                    present[e.index()] = false;
                    let (u, v) = g.endpoints(e);
                    return EngineEvent::EdgeRemove { u, v };
                }
            }
            62..=73 if m > 0 => {
                let e = EdgeId(rng.gen_range(0..m));
                if !present[e.index()] {
                    present[e.index()] = true;
                    let (u, v) = g.endpoints(e);
                    return EngineEvent::EdgeAdd { u, v };
                }
            }
            74..=86 => {
                let i = NodeId(rng.gen_range(0..n));
                // Quota 0 is legal: the peer stays active but can hold no
                // connections, which zeroes its incident eq. 9 weights.
                return EngineEvent::QuotaChange { node: i, quota: rng.gen_range(0..=5) };
            }
            87.. => {
                let i = NodeId(rng.gen_range(0..n));
                let mut list: Vec<NodeId> = g.neighbor_ids(i).collect();
                list.shuffle(rng);
                return EngineEvent::PreferenceUpdate { node: i, list };
            }
            _ => {}
        }
    }
}

/// Drives one seeded stream of `batches` batches through `engine`,
/// invoking `check` after every applied batch.
fn drive(seed: u64, batches: usize, mut check: impl FnMut(&Engine, usize)) {
    let mut meta = StdRng::seed_from_u64(seed);
    let p = universe(&mut meta);
    let g = p.graph.clone();
    let mut active = vec![true; g.node_count()];
    let mut present = vec![true; g.edge_count()];
    let mut engine = Engine::new(p);
    for batch_no in 0..batches {
        let len = meta.gen_range(1usize..=10);
        let batch: Vec<EngineEvent> = (0..len)
            .map(|_| next_event(&mut meta, &g, &mut active, &mut present))
            .collect();
        engine
            .apply_batch(&batch)
            .unwrap_or_else(|e| panic!("stream {seed} batch {batch_no}: generated event rejected: {e}"));
        check(&engine, batch_no);
    }
}

#[test]
fn every_stream_stays_certified_after_every_batch() {
    for seed in 0..STREAMS {
        drive(seed, 5, |engine, batch_no| {
            engine.certify().unwrap_or_else(|err| {
                panic!("stream {seed} batch {batch_no}: {err}")
            });
        });
    }
}

#[test]
fn weights_and_ranks_track_the_mutated_instance() {
    // Fewer, longer streams: the full eq. 9 + rank recompute per batch is
    // the expensive reference here, not the engine.
    for seed in 1000..1000 + STREAMS / 4 {
        drive(seed, 8, |engine, batch_no| {
            let dp = engine.dynamic();
            let fresh = EdgeWeights::compute(dp.graph(), dp.prefs(), dp.quotas());
            for e in dp.graph().edges() {
                assert_eq!(
                    dp.weights().get(e),
                    fresh.get(e),
                    "stream {seed} batch {batch_no}: maintained weight of {e:?} drifted"
                );
            }
            let fresh_order = EdgeOrder::compute(dp.graph(), dp.weights());
            assert_eq!(
                dp.order(),
                &fresh_order,
                "stream {seed} batch {batch_no}: spliced rank kernel drifted"
            );
        });
    }
}

#[test]
fn satisfaction_is_maintained_incrementally() {
    for seed in 2000..2000 + STREAMS / 4 {
        drive(seed, 8, |engine, batch_no| {
            let dp = engine.dynamic();
            let direct: f64 = dp
                .graph()
                .nodes()
                .map(|i| {
                    if dp.is_active(i) {
                        node_satisfaction(
                            dp.prefs(),
                            dp.quotas(),
                            i,
                            engine.matching().connections(i),
                        )
                    } else {
                        0.0
                    }
                })
                .sum();
            assert!(
                (engine.total_satisfaction() - direct).abs() < 1e-9,
                "stream {seed} batch {batch_no}: incremental ΣS {} vs direct {direct}",
                engine.total_satisfaction()
            );
            for i in dp.graph().nodes() {
                if !dp.is_active(i) {
                    assert_eq!(
                        engine.satisfaction(i),
                        0.0,
                        "stream {seed} batch {batch_no}: inactive {i:?} has satisfaction"
                    );
                }
            }
        });
    }
}

#[test]
fn quiescent_instances_report_quiescent_batches() {
    // A batch that leaves and immediately re-adds nothing relevant — the
    // repair may evaluate edges but must not change the matching, and a
    // certified engine must agree with itself across an empty tick.
    for seed in 3000..3020 {
        let mut meta = StdRng::seed_from_u64(seed);
        let p = universe(&mut meta);
        let mut engine = Engine::new(p);
        let before = engine.matching().clone();
        let r = engine.apply_batch(&[]).unwrap();
        assert!(r.is_quiescent(), "stream {seed}: empty batch changed something");
        assert!(engine.matching().same_edges(&before));
        engine.certify().unwrap();
    }
}

/// FNV-1a, 64-bit, over a stream of little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of every batch report of one seeded mixed stream on a mid-size
/// BA instance, captured before the repair path was last rewritten.
const DELTA_STREAM_DIGEST: u64 = 0x4b2a_14fe_5b39_84b3;

#[test]
fn delta_stream_digest_is_stable() {
    // Pins the repair's observable output bit for bit: which edges flip
    // (and in which order they are reported), how many edges the heap
    // evaluates, and the exact bits of the incrementally summed ΣS.
    let mut rng = StdRng::seed_from_u64(0xD16E57);
    let g = owp_graph::generators::barabasi_albert(1500, 3, &mut rng);
    let p = Problem::random_over(g.clone(), 3, 0xD16E57);
    let mut active = vec![true; g.node_count()];
    let mut present = vec![true; g.edge_count()];
    let mut engine = Engine::new(p);
    let mut kinds = [0usize; 6];
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for _ in 0..120 {
        let len = rng.gen_range(1usize..=16);
        let batch: Vec<EngineEvent> = (0..len)
            .map(|_| next_event(&mut rng, &g, &mut active, &mut present))
            .collect();
        for ev in &batch {
            kinds[match ev {
                EngineEvent::NodeJoin { .. } => 0,
                EngineEvent::NodeLeave { .. } => 1,
                EngineEvent::EdgeAdd { .. } => 2,
                EngineEvent::EdgeRemove { .. } => 3,
                EngineEvent::QuotaChange { .. } => 4,
                EngineEvent::PreferenceUpdate { .. } => 5,
            }] += 1;
        }
        let r = engine.apply_batch(&batch).expect("generated batch is valid");
        h.word(r.epoch.0);
        h.word(r.edges_added.len() as u64);
        for e in &r.edges_added {
            h.word(e.0 as u64);
        }
        h.word(r.edges_removed.len() as u64);
        for e in &r.edges_removed {
            h.word(e.0 as u64);
        }
        h.word(r.evaluated as u64);
        h.word(r.matching_size as u64);
        h.word(r.total_satisfaction.to_bits());
    }
    assert!(kinds.iter().all(|&k| k > 0), "every event kind drawn: {kinds:?}");
    engine.certify().expect("stream end");
    assert_eq!(
        h.0, DELTA_STREAM_DIGEST,
        "delta-stream digest moved: {:#018x}",
        h.0
    );
}
