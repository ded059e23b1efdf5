//! Acceptance test for the forensic subsystem (ISSUE 7): on a seeded
//! n=5000 churn stream, an injected corruption — a forced quota overflow
//! (phantom edge) or a tampered weight (skipped preference repair) —
//! must produce a self-contained post-mortem bundle whose auto-shrunk
//! reproducer is at most 10 recorded steps and, after a JSON round-trip,
//! replays from the bundled checkpoint to the *same* certification
//! violation against a fresh engine. The retained window also replays to
//! exactly the deltas the live engine reported, which is why no record of
//! the batches' outputs is kept beside it.

use owp_engine::{
    normalize_violation, DeltaReport, Engine, EngineEvent, ForensicBundle, InjectedFault,
};
use owp_graph::{EdgeId, Graph, NodeId};
use owp_matching::Problem;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const N: usize = 5_000;
const WARM_BATCHES: usize = 14;
const EVENTS_PER_BATCH: usize = 50;
const HISTORY: usize = 16;

/// A recording engine warmed on `batches` batches of a seeded mixed-event
/// stream, with every live `DeltaReport` in order. Events are generated
/// against a membership mirror so every batch validates.
fn warmed_engine(seed: u64, batches: usize) -> (Engine, Graph, Vec<DeltaReport>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = owp_graph::generators::barabasi_albert(N, 4, &mut rng);
    let p = Problem::random_over(g.clone(), 3, seed);
    let mut e = Engine::with_history(p, HISTORY);
    let mut reports = Vec::with_capacity(batches);

    let mut active = vec![true; g.node_count()];
    let mut inactive: Vec<NodeId> = Vec::new();
    let mut present = vec![true; g.edge_count()];
    let mut absent: Vec<EdgeId> = Vec::new();
    for _ in 0..batches {
        let mut batch = Vec::with_capacity(EVENTS_PER_BATCH);
        while batch.len() < EVENTS_PER_BATCH {
            match rng.gen_range(0u32..100) {
                0..=34 => {
                    let i = NodeId(rng.gen_range(0..g.node_count() as u32));
                    if active[i.index()] {
                        active[i.index()] = false;
                        inactive.push(i);
                        batch.push(EngineEvent::NodeLeave { node: i });
                    }
                }
                35..=69 => {
                    if !inactive.is_empty() {
                        let i = inactive.swap_remove(rng.gen_range(0..inactive.len()));
                        active[i.index()] = true;
                        batch.push(EngineEvent::NodeJoin { node: i });
                    }
                }
                70..=79 => {
                    let ed = EdgeId(rng.gen_range(0..g.edge_count() as u32));
                    if present[ed.index()] {
                        present[ed.index()] = false;
                        absent.push(ed);
                        let (u, v) = g.endpoints(ed);
                        batch.push(EngineEvent::EdgeRemove { u, v });
                    }
                }
                80..=89 => {
                    if !absent.is_empty() {
                        let ed = absent.swap_remove(rng.gen_range(0..absent.len()));
                        present[ed.index()] = true;
                        let (u, v) = g.endpoints(ed);
                        batch.push(EngineEvent::EdgeAdd { u, v });
                    }
                }
                90..=94 => {
                    batch.push(EngineEvent::QuotaChange {
                        node: NodeId(rng.gen_range(0..g.node_count() as u32)),
                        quota: rng.gen_range(1u32..=5),
                    });
                }
                _ => {
                    let i = NodeId(rng.gen_range(0..g.node_count() as u32));
                    let mut list: Vec<NodeId> = g.neighbor_ids(i).collect();
                    list.shuffle(&mut rng);
                    batch.push(EngineEvent::PreferenceUpdate { node: i, list });
                }
            }
        }
        reports.push(e.apply_batch(&batch).expect("generated batches are valid"));
    }
    e.certify().expect("warmed engine is canonical before injection");
    (e, g, reports)
}

/// The full dump → shrink → round-trip → replay loop for one fault.
fn assert_forensic_loop(mut e: Engine, fault: InjectedFault, seed: u64) {
    e.inject_fault(fault);
    let bundle = e
        .certify_with_forensics(Some(seed), None)
        .expect_err("an injected corruption must fail certification");

    // Self-contained: provenance and both state snapshots are embedded.
    assert!(!bundle.reason.is_empty());
    assert_eq!(bundle.trigger, "certify");
    assert_eq!(bundle.seed, Some(seed));
    assert_eq!(bundle.config, format!("history={HISTORY}"), "engine config recorded");
    assert!(bundle.origin.is_some(), "membership checkpoint embedded");

    // Auto-shrunk: the reproducer is a small suffix of the window.
    let shrunk = bundle.shrunk.as_ref().expect("failure inside the window shrinks");
    let repro = bundle.reproducer();
    assert!(
        repro.len() <= 10,
        "reproducer must be at most 10 steps, got {} (window {}..={} of {})",
        repro.len(),
        shrunk.start,
        shrunk.end,
        bundle.steps.len(),
    );
    assert!(
        repro.iter().any(|s| s.fault.is_some()),
        "the reproducer keeps the injected fault"
    );

    // Round-trip through the JSON the dump writes to disk.
    let restored = ForensicBundle::parse(&bundle.to_json()).expect("bundle JSON parses");
    assert_eq!(restored, *bundle, "bundle survives serialization bit-for-bit");

    // Replay against a fresh engine: same violation, epoch prefix aside.
    let violation = restored
        .verify()
        .expect("bundled stream is re-executable")
        .expect("reproducer still fails");
    assert_eq!(
        normalize_violation(&violation),
        normalize_violation(&bundle.reason),
        "replay must reproduce the recorded divergence"
    );
}

#[test]
fn phantom_edge_on_large_stream_shrinks_and_reproduces() {
    let (e, g, _) = warmed_engine(0xF0, WARM_BATCHES);
    let dp = e.dynamic();
    let edge = g
        .edges()
        .find(|&ed| dp.is_alive(ed) && !e.matching().contains(ed))
        .expect("churned BA instance leaves unselected alive edges");
    assert_forensic_loop(e, InjectedFault::PhantomEdge { edge }, 0xF0);
}

#[test]
fn skipped_repair_on_large_stream_shrinks_and_reproduces() {
    let (e, g, _) = warmed_engine(0xF1, WARM_BATCHES);
    let fault = g
        .nodes()
        .filter(|&i| e.dynamic().is_active(i))
        .find_map(|node| {
            let mut list: Vec<NodeId> = g.neighbor_ids(node).collect();
            if list.len() < 2 {
                return None;
            }
            list.reverse();
            let mut probe = e.clone();
            probe.inject_fault(InjectedFault::SkippedRepair { node, list: list.clone() });
            probe
                .certify()
                .is_err()
                .then_some(InjectedFault::SkippedRepair { node, list })
        })
        .expect("some preference reversal perturbs the matching");
    assert_forensic_loop(e, fault, 0xF1);
}

/// The bundle is inert on a healthy engine: a manual capture replays
/// clean, so `verify` distinguishes live failures from stale reports.
#[test]
fn healthy_manual_capture_replays_clean() {
    let (e, _, _) = warmed_engine(0xF2, WARM_BATCHES);
    let bundle = e.capture_bundle("manual", "operator snapshot", Some(0xF2), None);
    assert!(bundle.shrunk.is_none(), "nothing to shrink on a healthy window");
    assert_eq!(
        bundle.verify().expect("stream is re-executable"),
        None,
        "a healthy window must not fabricate a failure"
    );
}

/// The retained window is a complete record: replayed from the shadow
/// checkpoint on a fresh engine, every step reproduces the live batch's
/// delta — flips, dirty-region size and rerank count — even after the
/// window has slid past the start of the stream.
#[test]
fn retained_window_replays_to_the_live_deltas() {
    let (e, _, live) = warmed_engine(0xF3, HISTORY + 8);
    assert!(e.checkpoint_epoch().0 > 0, "the history evicted");
    let ck = e.checkpoint().expect("history is on").clone();
    let mut replay = Engine::from_dynamic(ck);
    let mut replayed = 0;
    for step in e.history().steps() {
        assert!(step.fault.is_none());
        let want = &live[step.epoch as usize - 1];
        assert_eq!(want.epoch.0, step.epoch);
        let got = replay.apply_batch(&step.events).expect("recorded batches validate");
        assert_eq!(got.edges_added, want.edges_added, "epoch {}: added", step.epoch);
        assert_eq!(got.edges_removed, want.edges_removed, "epoch {}: removed", step.epoch);
        assert_eq!(got.evaluated, want.evaluated, "epoch {}: evaluated", step.epoch);
        assert_eq!(got.reranked, want.reranked, "epoch {}: reranked", step.epoch);
        replayed += 1;
    }
    assert_eq!(replayed, HISTORY);
    let window = &live[live.len() - HISTORY..];
    assert!(window.iter().any(|r| r.reranked > 0), "the window reranks");
    assert!(replay.matching().same_edges(e.matching()));
}
