//! Churn: peers leaving and joining under continuous certified repair.
//!
//! The paper leaves dynamicity as future work and conjectures the same
//! greedy strategy handles it. This example exercises the engine that
//! makes the conjecture concrete: build an overlay, evict 15% of the
//! peers, let them rejoin — after *every* event the engine has already
//! repaired the matching back to the exact locally-heaviest matching of
//! the current population (`certify()` checks it against a from-scratch
//! run), touching only a bounded dirty region per event.
//!
//! ```text
//! cargo run --release --example churn_recovery
//! ```

use overlays_preferences::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let n = 400;
    let graph = owp_graph::generators::barabasi_albert(n, 3, &mut rng);

    let network = OverlayBuilder::new(graph)
        .default_metric(RandomTaste { seed: 5 })
        .uniform_quota(4)
        .build();
    let p = &network.problem;

    // Fresh overlay via the distributed protocol.
    let overlay = network.run(SimConfig::with_seed(1));
    assert!(overlay.lid.terminated);
    let initial_sat = overlay.report.satisfaction_total;
    println!("initial overlay: total satisfaction {initial_sat:.2} over {n} peers");

    // The engine starts from the same (canonical) matching LID converged
    // to, and keeps it exact through every membership change.
    let mut engine = Engine::new(p.clone());

    // 15% of peers leave at once.
    let mut peers: Vec<NodeId> = p.nodes().collect();
    peers.shuffle(&mut rng);
    let leavers: Vec<NodeId> = peers[..n * 15 / 100].to_vec();
    let mut torn = 0usize;
    let mut rebuilt = 0usize;
    let mut dirty = 0usize;
    for &i in &leavers {
        let report = engine.apply(EngineEvent::NodeLeave { node: i }).expect("active peer leaves");
        torn += report.edges_removed.len();
        rebuilt += report.edges_added.len();
        dirty += report.evaluated;
    }
    let after_leave = engine.total_satisfaction();
    println!(
        "\n{} peers left → {torn} links dissolved, {rebuilt} replacement links formed\n\
         repair examined {dirty} edges in total ({:.1} per event, of {} in the overlay)\n\
         active satisfaction {after_leave:.2} ({:.1}% of pre-churn level)",
        leavers.len(),
        dirty as f64 / leavers.len() as f64,
        p.edge_count(),
        100.0 * after_leave / initial_sat
    );
    engine
        .certify()
        .expect("matching is bit-identical to a from-scratch run on the survivors");
    println!("certified: survivors hold exactly the from-scratch locally-heaviest matching");

    // The leavers come back; the engine reconnects them exactly.
    let mut regained = 0usize;
    for &i in &leavers {
        let report = engine.apply(EngineEvent::NodeJoin { node: i }).expect("peer rejoins");
        regained += report.edges_added.len();
    }
    let after_rejoin = engine.total_satisfaction();
    println!(
        "\nrejoin formed {regained} links → total satisfaction {after_rejoin:.2} ({:.1}%)",
        100.0 * after_rejoin / initial_sat
    );
    engine.certify().expect("round-trip returns to the canonical matching");
    println!(
        "certified: after rejoin the overlay is back to the exact pre-churn matching \
         — no rebuild, {} epochs of bounded repair",
        engine.epoch().0
    );
}
