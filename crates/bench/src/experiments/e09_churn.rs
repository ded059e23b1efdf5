//! E9 / Figure 5 — churn (the paper's future work): satisfaction through a
//! wave of departures and rejoins under the engine's continuous certified
//! repair, normalized against a full rebuild.
//!
//! Under the old residual-only repair the rejoin column plateaued below
//! 100%: survivors kept the lighter substitutes they grabbed during the
//! outage. The engine tears invalidated selections down as part of each
//! event, so a full leave/rejoin round-trip is lossless by construction —
//! the interesting columns are now the satisfaction dip while peers are
//! away and how small the per-event dirty region stays.

use crate::{mean, par_map, Table};
use owp_core::run_lid;
use owp_engine::{Engine, EngineEvent};
use owp_graph::NodeId;
use owp_matching::Problem;
use owp_simnet::SimConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Runs the churn-fraction sweep on a BA overlay.
pub fn run(quick: bool) -> Table {
    let n = if quick { 128 } else { 512 };
    let seeds: u64 = if quick { 2 } else { 10 };
    let fractions = [0.05f64, 0.10, 0.20, 0.30];

    let mut t = Table::new(
        format!("E9 / Figure 5 — churn recovery on ba(n={n}, m=3), b=4 (satisfaction = % of rebuild)"),
        &["churn %", "after leave", "after rejoin", "dirty edges/event", "edge pool"],
    );

    for &f in &fractions {
        let rows: Vec<(f64, f64, f64, f64)> = par_map(0..seeds, |seed| {
            let mut rng = StdRng::seed_from_u64(seed * 53 + 11);
            let g = owp_graph::generators::barabasi_albert(n, 3, &mut rng);
            let m_edges = g.edge_count() as f64;
            let p = Problem::random_over(g, 4, seed);
            let fresh = run_lid(&p, SimConfig::with_seed(seed));
            assert!(fresh.terminated);
            let rebuild = fresh.matching.total_satisfaction(&p);

            let mut engine = Engine::new(p.clone());
            let mut peers: Vec<NodeId> = p.nodes().collect();
            peers.shuffle(&mut rng);
            let leavers: Vec<NodeId> = peers[..(n as f64 * f) as usize].to_vec();
            let mut dirty = 0usize;
            for &i in &leavers {
                let report = engine.apply(EngineEvent::NodeLeave { node: i });
                dirty += report.expect("leave").evaluated;
            }
            // Satisfaction over the full population scale: use the
            // rebuild total as the normalizer throughout.
            let after_leave = engine.total_satisfaction() / rebuild;
            for &i in &leavers {
                let report = engine.apply(EngineEvent::NodeJoin { node: i });
                dirty += report.expect("rejoin").evaluated;
            }
            let after_rejoin = engine.total_satisfaction() / rebuild;
            let per_event = dirty as f64 / (2.0 * leavers.len() as f64);
            (after_leave, after_rejoin, per_event, m_edges)
        });
        let a: Vec<f64> = rows.iter().map(|r| r.0).collect();
        let b: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let d: Vec<f64> = rows.iter().map(|r| r.2).collect();
        let m: Vec<f64> = rows.iter().map(|r| r.3).collect();
        t.row(vec![
            format!("{:.0}", f * 100.0),
            format!("{:.1}", 100.0 * mean(&a)),
            format!("{:.1}", 100.0 * mean(&b)),
            format!("{:.1}", mean(&d)),
            format!("{:.0}", mean(&m)),
        ]);
    }
    t.note(
        "continuous certified repair: rejoin returns to exactly 100% of the rebuild \
         (the engine maintains the bit-identical matching); each event touches a \
         bounded dirty region, not the edge pool",
    );
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_round_trip_is_lossless_and_bounded() {
        let t = super::run(true);
        assert_eq!(t.row_count(), 4);
        for r in 0..t.row_count() {
            let leave: f64 = t.cell(r, 1).parse().unwrap();
            let rejoin: f64 = t.cell(r, 2).parse().unwrap();
            let dirty: f64 = t.cell(r, 3).parse().unwrap();
            let pool: f64 = t.cell(r, 4).parse().unwrap();
            assert!(leave <= 100.0 + 1e-9, "survivors cannot beat the rebuild");
            assert!(
                (rejoin - 100.0).abs() < 0.1,
                "exact repair makes the round-trip lossless, got {rejoin}"
            );
            assert!(
                dirty < pool,
                "dirty region per event ({dirty}) must stay below the pool ({pool})"
            );
        }
    }
}
