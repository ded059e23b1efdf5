//! E3 / Table 2 — true total satisfaction achieved by the distributed LID
//! against the exact satisfaction optimum, compared with Theorem 3's
//! `¼(1 + 1/b_max)` guarantee.

use crate::{mean, min, par_map, std_dev, Table};
use owp_core::run_lid;
use owp_matching::bounds::overall_bound;
use owp_matching::exact::{optimal_satisfaction, DEFAULT_BUDGET};
use owp_matching::Problem;
use owp_simnet::SimConfig;

/// Runs the sweep. `quick` trims seeds for CI.
pub fn run(quick: bool) -> Table {
    let seeds: u64 = if quick { 3 } else { 25 };
    let mut t = Table::new(
        "E3 / Table 2 — LID satisfaction vs exact OPT (Theorem 3: ratio ≥ ¼(1+1/b_max))",
        &["instance", "b", "bound", "ratio mean±std", "ratio min"],
    );

    for (label, n, p_edge) in [("gnp(11,0.5)", 11usize, 0.5), ("gnp(10,0.8)", 10, 0.8)] {
        for b in [1u32, 2, 3] {
            let ratios: Vec<f64> = par_map(0..seeds, |seed| {
                let p = Problem::random_gnp(n, p_edge, b, 1000 + seed);
                if p.edge_count() == 0 || p.bmax() == 0 {
                    return None;
                }
                let lid = run_lid(&p, SimConfig::with_seed(seed));
                assert!(lid.terminated);
                let achieved = lid.matching.total_satisfaction(&p);
                let opt = optimal_satisfaction(&p, DEFAULT_BUDGET)
                    .matching
                    .total_satisfaction(&p);
                if opt <= 0.0 {
                    return None;
                }
                Some(achieved / opt)
            })
            .into_iter()
            .flatten()
            .collect();
            if ratios.is_empty() {
                continue;
            }
            let bound = overall_bound(b);
            let worst = min(&ratios);
            assert!(
                worst >= bound - 1e-9,
                "Theorem 3 violated: {worst} < {bound} on {label} b={b}"
            );
            t.row(vec![
                label.to_string(),
                b.to_string(),
                format!("{bound:.4}"),
                format!("{:.4}±{:.4}", mean(&ratios), std_dev(&ratios)),
                format!("{worst:.4}"),
            ]);
        }
    }
    t.note("LID's measured satisfaction sits far above the proven ¼(1+1/b_max) floor");
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run() {
        let t = super::run(true);
        assert!(t.row_count() >= 4);
    }
}
