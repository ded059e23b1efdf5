//! E13 / Table 8 — ablation of eq. 9's quota normalization.
//!
//! Eq. 9 divides each endpoint's contribution by its quota `b_i`, so a
//! connection is worth more to a node that can only afford a few. This
//! experiment removes the division (`w' = (1−R/L) + (1−R/L)`) and measures
//! the total-satisfaction cost on instances with *heterogeneous* quotas.
//! (With uniform quotas the two orders coincide, which the harness also
//! verifies as a sanity row.)

use crate::{mean, par_map, Table};
use owp_graph::{PreferenceTable, Quotas};
use owp_matching::lic::{lic, SelectionPolicy};
use owp_matching::weights::EdgeWeights;
use owp_matching::Problem;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the ablation.
pub fn run(quick: bool) -> Table {
    let seeds: u64 = if quick { 5 } else { 30 };
    let n = if quick { 64 } else { 200 };

    let mut t = Table::new(
        format!("E13 / Table 8 — eq. 9 quota-normalization ablation (gnp n={n})"),
        &["quotas", "S (eq. 9)", "S (unnormalized)", "eq. 9 wins %", "identical %"],
    );

    for quota_kind in ["uniform b=3", "random 1..=6"] {
        let rows: Vec<(f64, f64, bool, bool)> = par_map(0..seeds, |seed| {
            let mut rng = StdRng::seed_from_u64(seed * 17 + 3);
            // The uniform sanity row needs *truly* uniform quotas, so its
            // graph is regular (uniform quotas clamp to degree otherwise).
            let g = match quota_kind {
                "uniform b=3" => owp_graph::generators::random_regular(n, 10, &mut rng),
                _ => owp_graph::generators::erdos_renyi(n, 10.0 / (n as f64 - 1.0), &mut rng),
            };
            let prefs = PreferenceTable::random(&g, &mut rng);
            let quotas = match quota_kind {
                "uniform b=3" => Quotas::uniform(&g, 3),
                _ => Quotas::random_range(&g, 1, 6, &mut rng),
            };
            let w_ablate = EdgeWeights::compute_unnormalized(&g, &prefs, &quotas);
            let p_eq9 = Problem::new(g.clone(), prefs.clone(), quotas.clone());
            let p_abl = Problem::with_weights(g, prefs, quotas, w_ablate);

            let m_eq9 = lic(&p_eq9, SelectionPolicy::InOrder);
            let m_abl = lic(&p_abl, SelectionPolicy::InOrder);
            // Score BOTH matchings with true satisfaction on the same
            // instance (weights differ; the metric does not).
            let s_eq9 = m_eq9.total_satisfaction(&p_eq9);
            let s_abl = m_abl.total_satisfaction(&p_eq9);
            (
                s_eq9,
                s_abl,
                s_eq9 > s_abl + 1e-9,
                m_eq9.same_edges(&m_abl),
            )
        });
        let s_eq9: Vec<f64> = rows.iter().map(|r| r.0).collect();
        let s_abl: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let wins = rows.iter().filter(|r| r.2).count() as f64 / seeds as f64;
        let same = rows.iter().filter(|r| r.3).count() as f64 / seeds as f64;
        if quota_kind == "uniform b=3" {
            assert_eq!(same, 1.0, "uniform quotas: orders must coincide");
        }
        t.row(vec![
            quota_kind.to_string(),
            format!("{:.2}", mean(&s_eq9)),
            format!("{:.2}", mean(&s_abl)),
            format!("{:.0}", wins * 100.0),
            format!("{:.0}", same * 100.0),
        ]);
    }
    t.note("uniform quotas: identical matching (the 1/b factor is a global scale). Heterogeneous quotas: the matchings differ; unnormalized weights can edge ahead on raw eq. 1 satisfaction (they overfill high-quota nodes, boosting the dynamic term), while eq. 9 is the weighting Lemma 2 ties to the modified objective — i.e. the one with the proven ¼(1+1/b) guarantee");
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_uniform_row_identical() {
        let t = super::run(true);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.cell(0, 4), "100");
    }
}
