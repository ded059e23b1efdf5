//! E16 / Table 11 — satisfaction vs stability, quantified.
//!
//! The paper's thesis is that *optimizing satisfaction* is the right target
//! for overlays because *stability* is brittle outside special cases. This
//! experiment puts numbers on both sides:
//!
//! * bipartite instances — stability is easy (Gale–Shapley always succeeds):
//!   how much total satisfaction does the stable matching give up against
//!   LID, and how many blocking pairs does LID leave?
//! * general (roommates) instances — how often does phase 1 of the stable
//!   fixtures algorithm decide the instance at all, how often do
//!   better-response dynamics converge, while LID terminates every time?

use crate::{mean, par_map, Table};
use owp_core::run_lid;
use owp_matching::stable::blocking::blocking_pairs;
use owp_matching::stable::dynamics::better_response_from_empty;
use owp_matching::stable::fixtures::phase1;
use owp_matching::stable::gale_shapley::gale_shapley;
use owp_matching::Problem;
use owp_simnet::SimConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs both halves; returns two tables.
pub fn run(quick: bool) -> Vec<Table> {
    let seeds: u64 = if quick { 4 } else { 25 };

    // ---- Bipartite half -------------------------------------------------
    let mut t1 = Table::new(
        "E16a / Table 11 — bipartite: Gale–Shapley (stable) vs LID (satisfaction)",
        &["b", "S(GS)", "S(LID)", "LID gain %", "blocking(GS)", "blocking(LID)"],
    );
    for b in [1u32, 2, 3] {
        let rows: Vec<(f64, f64, usize, usize)> = par_map(0..seeds, |seed| {
            let mut rng = StdRng::seed_from_u64(seed * 41 + b as u64);
            let g = owp_graph::generators::random_bipartite(24, 24, 0.3, &mut rng);
            let p = Problem::random_over(g, b, seed);
            let gs = gale_shapley(&p).expect("bipartite");
            let lid = run_lid(&p, SimConfig::with_seed(seed));
            assert!(lid.terminated);
            (
                gs.total_satisfaction(&p),
                lid.matching.total_satisfaction(&p),
                blocking_pairs(&p, &gs).len(),
                blocking_pairs(&p, &lid.matching).len(),
            )
        });
        let s_gs: Vec<f64> = rows.iter().map(|r| r.0).collect();
        let s_lid: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let blk_gs: Vec<f64> = rows.iter().map(|r| r.2 as f64).collect();
        let blk_lid: Vec<f64> = rows.iter().map(|r| r.3 as f64).collect();
        assert_eq!(mean(&blk_gs), 0.0, "GS must be stable on bipartite instances");
        t1.row(vec![
            b.to_string(),
            format!("{:.2}", mean(&s_gs)),
            format!("{:.2}", mean(&s_lid)),
            format!("{:+.1}", 100.0 * (mean(&s_lid) / mean(&s_gs) - 1.0)),
            format!("{:.1}", mean(&blk_gs)),
            format!("{:.1}", mean(&blk_lid)),
        ]);
    }
    t1.note("on bipartite instances GS and LID reach comparable satisfaction — LID's edge is the guarantee and unconditional termination, not dominance here");

    // ---- General (roommates) half ---------------------------------------
    let mut t2 = Table::new(
        "E16b / Table 11 — general instances: who can even finish?",
        &[
            "b",
            "phase1 decided %",
            "dynamics converged %",
            "LID terminated %",
            "S(LID)/S(dyn)",
        ],
    );
    for b in [1u32, 2] {
        let rows: Vec<(bool, bool, f64, f64)> = par_map(0..seeds, |seed| {
            let p = Problem::random_gnp(20, 0.4, b, 3000 + seed);
            let ph1 = phase1(&p);
            let (dyn_m, out) = better_response_from_empty(&p, 100_000);
            let lid = run_lid(&p, SimConfig::with_seed(seed));
            assert!(lid.terminated, "Lemma 5");
            (
                ph1.decided.is_some(),
                out.converged,
                lid.matching.total_satisfaction(&p),
                dyn_m.total_satisfaction(&p),
            )
        });
        let decided = rows.iter().filter(|r| r.0).count() as f64 / seeds as f64;
        let converged = rows.iter().filter(|r| r.1).count() as f64 / seeds as f64;
        let ratio: Vec<f64> = rows
            .iter()
            .filter(|r| r.3 > 0.0)
            .map(|r| r.2 / r.3)
            .collect();
        t2.row(vec![
            b.to_string(),
            format!("{:.0}", 100.0 * decided),
            format!("{:.0}", 100.0 * converged),
            "100".to_string(),
            format!("{:.3}", mean(&ratio)),
        ]);
    }
    t2.note("LID terminates unconditionally (Lemma 5); stability machinery is instance-dependent");

    vec![t1, t2]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_gs_is_stable_and_lid_terminates() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 2);
        // blocking(GS) column all zeros.
        for r in 0..tables[0].row_count() {
            assert_eq!(tables[0].cell(r, 4), "0.0");
        }
        // LID terminated column all 100.
        for r in 0..tables[1].row_count() {
            assert_eq!(tables[1].cell(r, 3), "100");
        }
    }
}
