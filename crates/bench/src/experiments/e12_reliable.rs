//! E12 / Table 7 — extension: reliable LID (retransmission layer) vs plain
//! LID under message loss. Plain LID deadlocks and half-locks pairs; the
//! retransmission layer restores 100% termination *and* the exact
//! LIC-equivalent result, at a bounded message premium.

use crate::{mean, par_map, Table};
use owp_core::{run_lid, run_lid_reliable};
use owp_matching::lic::{lic, SelectionPolicy};
use owp_matching::Problem;
use owp_simnet::{FaultPlan, LatencyModel, SimConfig};

/// Runs the loss sweep for both variants.
pub fn run(quick: bool) -> Table {
    let seeds: u64 = if quick { 3 } else { 20 };
    let n = if quick { 48 } else { 128 };

    let mut t = Table::new(
        format!("E12 / Table 7 — plain vs reliable LID under loss (gnp n={n}, b=3)"),
        &[
            "variant",
            "loss %",
            "terminated %",
            "≡ LIC %",
            "asym locks",
            "msgs/node",
        ],
    );

    for reliable in [false, true] {
        for loss in [0.0f64, 0.05, 0.10, 0.20, 0.30] {
            let rows: Vec<(bool, bool, f64, f64)> = par_map(0..seeds, |seed| {
                let p = Problem::random_gnp(n, 10.0 / (n as f64 - 1.0), 3, 900 + seed);
                let reference = lic(&p, SelectionPolicy::InOrder);
                let cfg = SimConfig::with_seed(seed)
                    .latency(LatencyModel::Uniform { lo: 1, hi: 20 })
                    .faults(FaultPlan::with_drop_probability(loss));
                let r = if reliable {
                    run_lid_reliable(&p, cfg, 40)
                } else {
                    run_lid(&p, cfg)
                };
                (
                    r.terminated,
                    r.matching.same_edges(&reference),
                    r.asymmetric_locks as f64,
                    r.stats.sent as f64 / n as f64,
                )
            });
            let term = rows.iter().filter(|r| r.0).count() as f64 / seeds as f64;
            let same = rows.iter().filter(|r| r.1).count() as f64 / seeds as f64;
            let asym: Vec<f64> = rows.iter().map(|r| r.2).collect();
            let msgs: Vec<f64> = rows.iter().map(|r| r.3).collect();
            if reliable {
                assert_eq!(term, 1.0, "reliable LID must always terminate");
                assert_eq!(same, 1.0, "reliable LID must always equal LIC");
            }
            t.row(vec![
                if reliable { "reliable" } else { "plain" }.to_string(),
                format!("{:.0}", loss * 100.0),
                format!("{:.0}", term * 100.0),
                format!("{:.0}", same * 100.0),
                format!("{:.2}", mean(&asym)),
                format!("{:.1}", mean(&msgs)),
            ]);
        }
    }
    t.note("retransmission (paper future work) restores the Theorem 3 guarantee under loss");
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_reliable_rows_perfect() {
        let t = super::run(true);
        assert_eq!(t.row_count(), 10);
        // Rows 5..10 are the reliable variant: 100/100 across all loss rates.
        for r in 5..10 {
            assert_eq!(t.cell(r, 2), "100");
            assert_eq!(t.cell(r, 3), "100");
        }
    }
}
